import hashlib
import json

import numpy as np
import pytest

from pktdetect.channel import ChannelTemplate
from pktdetect.dataset import (DatasetError, DatasetSpec, Kind, generate, load,
                               record_dtype, save, split)
from pktdetect.preamble import PREAMBLE_LEN
from pktdetect.streams import StreamSimulator, StreamTrialConfig

# small, fast channel template for unit tests (no multipath, no CFO)
_FAST = ChannelTemplate(multipath=False, cfo_max_hz=0.0)


@pytest.fixture(scope="module")
def small_blocks():
    spec = DatasetSpec(block_len=40, n_blocks=300, seed=1, channel=_FAST)
    return generate(spec)


def _tampered(blocks, prefix, edit):
    """Save blocks, apply edit(records) to the file and re-sign the manifest,
    so only the record check in load can catch the planted fault."""
    save(blocks, prefix)
    bin_path = prefix.with_name(prefix.name + ".blocks.bin")
    rec = np.frombuffer(bin_path.read_bytes(), record_dtype(40)).copy()
    edit(rec)
    bin_path.write_bytes(rec.tobytes())
    man_path = prefix.with_name(prefix.name + ".manifest.json")
    doc = json.loads(man_path.read_text())
    doc["sha256"] = hashlib.sha256(rec.tobytes()).hexdigest()
    man_path.write_text(json.dumps(doc))
    return prefix


def _first(rec, kind):
    return int(np.nonzero(rec["kind"] == kind)[0][0])


class TestRecordCheck:
    def test_amplitudes_stored_float32(self, small_blocks):
        assert small_blocks.dtype == record_dtype(40)
        assert small_blocks["amp"].dtype == np.float32

    def test_label_kind_consistency(self, small_blocks, tmp_path):
        def start_label_on_noise(rec):
            rec["label"][_first(rec, Kind.NOISE_ONLY)] = 3.0

        def no_label_on_start(rec):
            rec["label"][_first(rec, Kind.START)] = -1.0

        for i, edit in enumerate((start_label_on_noise, no_label_on_start)):
            with pytest.raises(DatasetError):
                load(_tampered(small_blocks, tmp_path / f"ds{i}", edit))

    def test_negative_amplitude_rejected(self, small_blocks, tmp_path):
        def edit(rec):
            rec["amp"][5, 3] = -0.1
        with pytest.raises(DatasetError):
            load(_tampered(small_blocks, tmp_path / "ds", edit))

    def test_non_finite_amplitude_rejected(self, small_blocks, tmp_path):
        for value in (np.nan, np.inf):
            def edit(rec):
                rec["amp"][5, 3] = value
            with pytest.raises(DatasetError):
                load(_tampered(small_blocks, tmp_path / f"ds{value}", edit))

    def test_nan_label_or_snr_rejected(self, small_blocks, tmp_path):
        def nan_snr(rec):
            rec["snr"][5] = np.nan

        def nan_label_on_noise(rec):
            rec["label"][_first(rec, Kind.NOISE_ONLY)] = np.nan

        for i, edit in enumerate((nan_snr, nan_label_on_noise)):
            with pytest.raises(DatasetError):
                load(_tampered(small_blocks, tmp_path / f"ds{i}", edit))

    def test_bad_kind_rejected(self, small_blocks, tmp_path):
        def edit(rec):
            rec["kind"][_first(rec, Kind.MID_TAIL)] = max(Kind) + 1
        with pytest.raises(DatasetError):
            load(_tampered(small_blocks, tmp_path / "ds", edit))


class TestDatasetSpec:
    def test_split_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DatasetSpec(block_len=40, split=(0.5, 0.5, 0.5))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            DatasetSpec(block_len=40, frac_no_start=1.5)

    def test_block_longer_than_packet_needs_no_mid_tail(self):
        with pytest.raises(DatasetError):
            DatasetSpec(block_len=1600)
        # without mid/tail blocks the long length is fine
        DatasetSpec(block_len=1600, frac_noise_within_no_start=1.0)

    def test_default_name(self):
        assert DatasetSpec(block_len=80, n_blocks=10).name == "blocks80"

    def test_json_round_trip(self):
        spec = DatasetSpec(block_len=160, n_blocks=500, seed=3,
                           snr_range_db=(5.0, 15.0), channel=_FAST)
        assert DatasetSpec.from_json(spec.to_json()) == spec


class TestGenerate:
    def test_deterministic(self):
        spec = DatasetSpec(block_len=40, n_blocks=40, seed=2, channel=_FAST)
        assert generate(spec).tobytes() == generate(spec).tobytes()

    def test_block_shapes_and_labels(self, small_blocks):
        assert small_blocks["amp"].shape == (300, 40)
        start = small_blocks["kind"] == Kind.START
        labels = small_blocks["label"]
        assert np.all((labels[start] >= 0) & (labels[start] <= 39))
        assert np.all(labels[~start] == -1.0)
        assert np.all((small_blocks["snr"] >= 0.0) & (small_blocks["snr"] <= 25.0))

    def test_kind_proportions(self, small_blocks):
        counts = {k: np.sum(small_blocks["kind"] == k) for k in Kind}
        n = len(small_blocks)
        assert counts[Kind.START] / n == pytest.approx(0.5, abs=0.1)
        assert counts[Kind.NOISE_ONLY] / n == pytest.approx(0.25, abs=0.1)
        assert counts[Kind.MID_TAIL] / n == pytest.approx(0.25, abs=0.1)

    def test_snr_uniformity(self):
        spec = DatasetSpec(block_len=40, n_blocks=2_000, seed=5, channel=_FAST,
                           frac_no_start=1.0, frac_noise_within_no_start=1.0)
        snrs = np.sort(generate(spec)["snr"].astype(np.float64)) / 25.0
        # Kolmogorov-Smirnov distance against Uniform(0, 1)
        n = len(snrs)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(ecdf_hi - snrs), np.max(snrs - ecdf_lo))
        assert ks < 1.63 / np.sqrt(n)  # ~1% significance level

    def test_start_labels_cover_block(self, small_blocks):
        labels = small_blocks["label"][small_blocks["kind"] == Kind.START]
        assert min(labels) < 5
        assert max(labels) > 34

    def test_noise_only_variance_tracks_snr_tag(self):
        snr = 10.0
        spec = DatasetSpec(block_len=160, n_blocks=400, seed=7, channel=_FAST,
                           frac_no_start=1.0, frac_noise_within_no_start=1.0,
                           snr_range_db=(snr, snr))
        blocks = generate(spec)
        sim = StreamSimulator(StreamTrialConfig(channel=_FAST))
        expected = sim.noise_sigma2(snr)
        measured = np.mean(blocks["amp"].astype(np.float64) ** 2)
        assert measured == pytest.approx(expected, rel=0.05)

    def test_start_block_contains_preamble_onset(self):
        # at high SNR the samples after the labeled start carry far more
        # power than the noise before it
        spec = DatasetSpec(block_len=160, n_blocks=60, seed=8, channel=_FAST,
                           frac_no_start=0.0, snr_range_db=(25.0, 25.0))
        for blk in generate(spec):
            tau = int(blk["label"])
            if not 20 <= tau <= 140:
                continue
            before = np.mean(blk["amp"][:tau] ** 2)
            after = np.mean(blk["amp"][tau:] ** 2)
            assert after > 10 * before


class TestSplit:
    def test_partition_sizes(self, small_blocks):
        tr, va, te = split(small_blocks, (0.7, 0.15, 0.15), seed=0)
        assert len(tr) == 210
        assert len(tr) + len(va) + len(te) == len(small_blocks)

    def test_deterministic(self, small_blocks):
        a = split(small_blocks, seed=3)
        b = split(small_blocks, seed=3)
        for pa, pb in zip(a, b):
            assert pa.tobytes() == pb.tobytes()

    def test_class_balance(self, small_blocks):
        overall = np.mean(small_blocks["label"] >= 0)
        for part in split(small_blocks, (0.7, 0.15, 0.15), seed=0):
            frac = np.mean(part["label"] >= 0)
            assert abs(frac - overall) <= 0.02 + 1.0 / len(part)

    def test_bad_fractions(self, small_blocks):
        with pytest.raises(ValueError):
            split(small_blocks, (0.6, 0.3, 0.3))


class TestPersistence:
    def test_round_trip_bit_exact(self, small_blocks, tmp_path):
        spec = DatasetSpec(block_len=40, n_blocks=300, seed=1, channel=_FAST)
        save(small_blocks, tmp_path / "ds", spec)
        loaded, manifest = load(tmp_path / "ds")
        assert manifest["n_records"] == len(small_blocks)
        assert manifest["block_len"] == 40
        assert loaded.tobytes() == small_blocks.tobytes()

    def test_save_is_deterministic(self, small_blocks, tmp_path):
        save(small_blocks, tmp_path / "a")
        save(small_blocks, tmp_path / "b")
        assert ((tmp_path / "a.blocks.bin").read_bytes()
                == (tmp_path / "b.blocks.bin").read_bytes())

    def test_checksum_detects_corruption(self, small_blocks, tmp_path):
        save(small_blocks, tmp_path / "ds")
        bin_path = tmp_path / "ds.blocks.bin"
        data = bytearray(bin_path.read_bytes())
        data[100] ^= 0xFF
        bin_path.write_bytes(bytes(data))
        with pytest.raises(DatasetError):
            load(tmp_path / "ds")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            load(tmp_path / "absent")

    def test_version_mismatch(self, small_blocks, tmp_path):
        save(small_blocks, tmp_path / "ds")
        man_path = tmp_path / "ds.manifest.json"
        doc = json.loads(man_path.read_text())
        doc["format_version"] = 99
        man_path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError):
            load(tmp_path / "ds")

    def test_truncated_payload(self, small_blocks, tmp_path):
        save(small_blocks, tmp_path / "ds")
        bin_path = tmp_path / "ds.blocks.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-17])
        with pytest.raises(DatasetError):
            load(tmp_path / "ds")
