import hashlib
import json
import math
import mmap
import os
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import oracle_generate, oracle_split, traced_peak
from pktdetect import dataset, forked
from pktdetect.channel import ChannelTemplate
from pktdetect.dataset import (CHUNK_BLOCKS, DatasetError, DatasetSpec, Kind,
                               generate, load, record_dtype, save, split)
from pktdetect.preamble import PREAMBLE_LEN
from pktdetect.streams import StreamSimulator, StreamTrialConfig

# small, fast channel template for unit tests (no multipath, no CFO)
_FAST = ChannelTemplate(multipath=False, cfo_max_hz=0.0)
# the spec of small_blocks, which save writes into its manifest
_SMALL = DatasetSpec(block_len=40, n_blocks=300, seed=1, channel=_FAST)


@pytest.fixture(scope="module")
def small_blocks():
    return generate(_SMALL)


def chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with an odd dof, exactly: the regularized
    upper incomplete gamma Q(dof/2, x/2), from Q(1/2, y) = erfc(sqrt(y))
    and Q(s + 1, y) = Q(s, y) + y^s e^-y / Gamma(s + 1)."""
    assert dof % 2 == 1
    y, q = x / 2, math.erfc(math.sqrt(x / 2))
    for k in range(dof // 2):  # s = 1/2, 3/2, ..., dof/2 - 1
        s = k + 0.5
        q += math.exp(s * math.log(y) - y - math.lgamma(s + 1))
    return q


@pytest.mark.parametrize("x, dof, p", [(3.841459, 1, 0.05),
                                       (54.572228, 39, 0.05),
                                       (23.654215, 39, 0.975)])
def test_chi2_sf_against_tables(x, dof, p):
    assert chi2_sf(x, dof) == pytest.approx(p, rel=1e-5)


def _tampered(blocks, prefix, edit):
    """Save blocks, apply edit(records) to the file and re-sign the manifest,
    so only the record check in load can catch the planted fault."""
    save(blocks, prefix, _SMALL)
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

    def test_negative_zero_amplitude_accepted(self, small_blocks, tmp_path):
        def edit(rec):
            rec["amp"][5, 3] = -0.0
        loaded, _ = load(_tampered(small_blocks, tmp_path / "ds", edit))
        assert np.signbit(loaded["amp"][5, 3])

    def test_non_finite_amplitude_rejected(self, small_blocks, tmp_path):
        for value in (np.nan, np.inf, -np.inf):
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

    def test_empty_file_loads(self, tmp_path):
        save(np.zeros(0, record_dtype(40)), tmp_path / "ds", _SMALL)
        loaded, manifest = load(tmp_path / "ds")
        assert loaded.shape == (0,) and manifest["n_records"] == 0


class TestDatasetSpec:
    def test_split_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DatasetSpec(block_len=40, split=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize("fractions", [(1.0,), (0.5, 0.5),
                                           (0.7, 0.1, 0.1, 0.1)])
    def test_split_must_be_three_fractions(self, fractions):
        with pytest.raises(ValueError):
            DatasetSpec(block_len=40, split=fractions)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            DatasetSpec(block_len=40, frac_no_start=1.5)

    def test_snr_range_low_to_high(self):
        # equal bounds are one point, as sweep --model builds them
        with pytest.raises(ValueError, match="low <= high"):
            DatasetSpec(block_len=40, snr_range_db=(25.0, 0.0))
        DatasetSpec(block_len=40, snr_range_db=(7.5, 7.5))

    def test_block_longer_than_packet_needs_no_mid_tail(self):
        with pytest.raises(DatasetError):
            DatasetSpec(block_len=1600)
        # without mid/tail blocks the long length is fine
        DatasetSpec(block_len=1600, frac_noise_within_no_start=1.0)

    def test_default_name(self):
        assert DatasetSpec(block_len=80, n_blocks=10).name == "blocks80"

    @pytest.mark.parametrize("field, value", [
        ("block_len", 40.0), ("n_blocks", 5.5), ("seed", 1.5), ("seed", -1),
        ("seed", True), ("n_blocks", 0)])
    def test_integer_fields_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            DatasetSpec(**{"block_len": 40, field: value})

    @pytest.mark.parametrize("field, value", [
        ("os_factor", 4.5), ("filter_taps", 48.0), ("os_factor", False)])
    def test_channel_integer_fields_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelTemplate(**{field: value})

    def test_numpy_integers_stored_as_ints(self):
        spec = DatasetSpec(block_len=np.int64(40), n_blocks=np.int32(10),
                           seed=np.uint64(3),
                           channel=ChannelTemplate(os_factor=np.int16(4)))
        assert type(spec.block_len) is int and type(spec.seed) is int
        assert type(spec.channel.os_factor) is int
        assert DatasetSpec.from_json(spec.to_json()) == spec

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

    def test_start_labels_uniform(self):
        # tau is uniform on [0, B): a chi-square test over the START labels,
        # 100 expected per label, failing a correct generate with
        # probability 1e-6
        b, n = 40, 4000
        spec = DatasetSpec(block_len=b, n_blocks=n, seed=1, channel=_FAST,
                           frac_no_start=0.0)
        labels = generate(spec)["label"]
        assert np.all((labels >= 0) & (labels < b) & (labels % 1 == 0))
        counts = np.bincount(labels.astype(np.int64), minlength=b)
        stat = float(np.sum((counts - n / b) ** 2) / (n / b))
        assert chi2_sf(stat, b - 1) > 1e-6

    def test_kind_fractions(self):
        # each kind's count lies within a Bernstein bound of its expected
        # share; the three bounds together fail a correct generate with
        # probability 1e-6 at most
        n, no_start, noise_within = 4000, 0.3, 0.8
        spec = DatasetSpec(block_len=40, n_blocks=n, seed=3, channel=_FAST,
                           frac_no_start=no_start,
                           frac_noise_within_no_start=noise_within)
        kinds = generate(spec)["kind"]
        expected = {Kind.START: 1 - no_start,
                    Kind.NOISE_ONLY: no_start * noise_within,
                    Kind.MID_TAIL: no_start * (1 - noise_within)}
        # P(|X - np| >= t) <= 2 exp(-t^2 / (2 (np(1 - p) + t/3))), which
        # is 1e-6 / 3 at the root t of t^2 = 2 ln (v + t/3)
        ln = math.log(2 * len(expected) / 1e-6)
        for kind, p in expected.items():
            v = n * p * (1 - p)
            t = ln / 3 + math.sqrt((ln / 3) ** 2 + 2 * ln * v)
            assert abs(np.sum(kinds == kind) - n * p) < t, kind.name

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

    @pytest.mark.parametrize("block_len, seed", [(40, 11), (160, 12)])
    def test_start_label_is_the_preamble_onset(self, preamble, block_len,
                                               seed):
        # Each block's stream is redrawn from its (seed, index) substream:
        # b samples of noise, the NDP, then b + 16.  The block's amplitudes
        # are found in that stream at its SNR, at one window start w0.  The
        # preamble begins where the noiseless stream correlates best with
        # the NDP (an AWGN channel without CFO keeps that peak at the
        # onset), and the label must be that sample less w0.
        b = block_len
        spec = DatasetSpec(block_len=b, n_blocks=48, seed=seed, channel=_FAST,
                           frac_no_start=0.0)
        sim = StreamSimulator(StreamTrialConfig(channel=_FAST))
        for i, blk in enumerate(generate(spec)):
            rng = np.random.default_rng((seed, i))
            snr = rng.uniform(*spec.snr_range_db)
            rng.uniform()  # the kind: START, with frac_no_start 0
            link = sim.draw_link(rng, pre=b, post=b + 16)
            amp = np.abs(sim.rx_stream(link, snr).samples).astype(np.float32)
            (w0,) = np.nonzero((sliding_window_view(amp, b)
                                == blk["amp"]).all(axis=1))[0]
            clean = sim.rx_stream(link, np.inf).samples
            onset = np.abs(np.correlate(clean, preamble.samples, "valid"))
            assert blk["label"] == onset.argmax() - w0


C = CHUNK_BLOCKS


class TestChunks:
    """generate computes CHUNK_BLOCKS blocks at a time; the per-block loop
    it replaced (one stream simulated per block) is the oracle, byte for
    byte."""

    @pytest.mark.parametrize("n_blocks", [1, C - 1, C, C + 1, 3 * C + 5])
    def test_chunk_boundaries(self, n_blocks):
        spec = DatasetSpec(block_len=40, n_blocks=n_blocks, seed=3)
        assert generate(spec).tobytes() == oracle_generate(spec).tobytes()

    @pytest.mark.parametrize("frac_no_start, frac_noise", [
        (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 1.0)],
        ids=["all-start", "all-mid-tail", "all-noise", "no-mid-tail"])
    def test_chunks_of_one_kind(self, frac_no_start, frac_noise):
        # chunks with no link row, and chunks with no noise-only row
        spec = DatasetSpec(block_len=40, n_blocks=C + 9, seed=4,
                           frac_no_start=frac_no_start,
                           frac_noise_within_no_start=frac_noise)
        blocks = generate(spec)
        assert blocks.tobytes() == oracle_generate(spec).tobytes()
        if frac_noise == 1.0 and frac_no_start == 1.0:
            assert (blocks["kind"] == Kind.NOISE_ONLY).all()

    @pytest.mark.parametrize("channel", [
        ChannelTemplate(multipath=False, cfo_max_hz=0.0),
        ChannelTemplate(multipath=False),
        ChannelTemplate(fractional_timing_offset=0.5)],
        ids=["awgn", "cfo-only", "offset-0.5"])
    @pytest.mark.parametrize("block_len", [40, 160])
    def test_channels(self, channel, block_len):
        spec = DatasetSpec(block_len=block_len, n_blocks=C + 3, seed=9001,
                           channel=channel)
        assert generate(spec).tobytes() == oracle_generate(spec).tobytes()

    @pytest.mark.parametrize("offset", [0.0, 0.5],
                             ids=["multipath-cfo", "offset-0.5"])
    @pytest.mark.parametrize("block_len", [40, 160])
    def test_chunk_rows_equal_single_row_calls(self, block_len, offset):
        # a property of any correct chunked design, whatever its draw
        # order: no row's bytes depend on the other rows of its chunk, so
        # whole chunks and one-block calls of _Chunker.fill agree
        spec = DatasetSpec(block_len=block_len, n_blocks=2 * C + 5, seed=21,
                           channel=ChannelTemplate(
                               fractional_timing_offset=offset))
        chunker = dataset._Chunker(
            spec, StreamSimulator(StreamTrialConfig(channel=spec.channel)))
        whole, rows = (np.zeros(spec.n_blocks, record_dtype(block_len))
                       for _ in range(2))
        for c0 in range(0, spec.n_blocks, C):
            chunker.fill(whole[c0:c0 + C], c0)
        for i in range(spec.n_blocks):
            chunker.fill(rows[i:i + 1], i)
        assert set(whole["kind"]) == set(Kind)  # every kind in the chunks
        assert whole.tobytes() == rows.tobytes()

    def test_one_snr_point(self):
        # the spec that sweep --model builds for each point
        spec = DatasetSpec(block_len=40, n_blocks=C + 2, seed=5,
                           snr_range_db=(7.5, 7.5))
        blocks = generate(spec)
        assert (blocks["snr"] == np.float32(7.5)).all()
        assert blocks.tobytes() == oracle_generate(spec).tobytes()

    @pytest.mark.parametrize("block_len, seed, index", [(40, 17, 19),
                                                        (160, 7, 24)])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_last_mid_tail_window(self, block_len, seed, index, offset):
        # block `index` is a MID_TAIL window at the largest w0, b + 560: its
        # last rx sample reads the channel output next to the stream's end
        channel = ChannelTemplate(fractional_timing_offset=offset)
        sim = StreamSimulator(StreamTrialConfig(channel=channel))
        rng = np.random.default_rng((seed, index))
        rng.uniform(), rng.uniform(), rng.uniform()
        _, taps = sim.draw_channel(rng)
        n_os = len(sim.tx_stream(block_len, block_len + 16)) + len(taps) - 1
        rng.standard_normal(n_os), rng.standard_normal(n_os)
        w0 = int(rng.integers(block_len + 1, block_len + PREAMBLE_LEN + 1))
        assert w0 == block_len + PREAMBLE_LEN
        spec = DatasetSpec(block_len=block_len, n_blocks=index + 1, seed=seed,
                           frac_no_start=1.0, frac_noise_within_no_start=0.0,
                           channel=channel)
        blocks = generate(spec)
        assert blocks.tobytes() == oracle_generate(spec).tobytes()
        assert blocks["kind"][index] == Kind.MID_TAIL


@pytest.mark.usefixtures("no_hang", "clean_exit")
class TestThreads:
    """generate makes its chunks in this process and, where worker_count
    allows, one forked worker beside it (this class and its byte test keep
    their names from the threads the process replaced); these tests fork
    the worker or not through forked's CPU count (the cpus fixture), and
    the bytes must not depend on it.  The worker's own records stay in the
    worker, so the tests record only what this process does: its forks and
    kills.  Every path must leave no child process and no pipe end open
    (clean_exit)."""

    @staticmethod
    def plant(monkeypatch, error, in_parent):
        """Make _Chunker.fill raise error (or call it, if callable) in this
        process alone, or in the worker alone."""
        parent, fill = os.getpid(), dataset._Chunker.fill

        def planted(self, chunk, c0):
            if (os.getpid() == parent) == in_parent:
                if callable(error):
                    error()
                raise error
            fill(self, chunk, c0)

        monkeypatch.setattr(dataset._Chunker, "fill", planted)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("channel", [_FAST, ChannelTemplate()],
                             ids=["awgn", "multipath-cfo"])
    @pytest.mark.parametrize("block_len", [40, 160])
    def test_bytes_independent_of_thread_count(self, cpus, n_cpus, channel,
                                               block_len):
        cpus(n_cpus)
        spec = DatasetSpec(block_len=block_len, n_blocks=3 * C + 5, seed=12,
                           channel=channel)
        assert dataset.worker_count(spec) == n_cpus - 1
        assert generate(spec).tobytes() == oracle_generate(spec).tobytes()

    def test_one_fork_per_worker(self, cpus, forks):
        # however many CPUs there are, one worker forks
        cpus(64)
        spec = DatasetSpec(block_len=40, n_blocks=3 * C, seed=1,
                           channel=_FAST)
        assert generate(spec).tobytes() == oracle_generate(spec).tobytes()
        assert len(forks) == 1

    @pytest.mark.parametrize("n_cpus, n_blocks", [(1, 3 * C + 5), (2, C)],
                             ids=["one-cpu", "one-chunk"])
    def test_one_worker_forks_none(self, cpus, forks, n_cpus, n_blocks):
        cpus(n_cpus)
        spec = DatasetSpec(block_len=40, n_blocks=n_blocks, seed=13,
                           channel=_FAST)
        assert dataset.worker_count(spec) == 0
        assert generate(spec).tobytes() == oracle_generate(spec).tobytes()
        assert forks == []

    @pytest.mark.parametrize("n_cpus, block_len, n_blocks, processes", [
        (1, 160, 10 * C, 1), (2, 160, 10 * C, 2), (64, 160, 10 * C, 2),
        (2, 160, C, 1), (2, 160, C + 1, 2), (64, 400, 10 * C, 2),
        (2, 159, 10 * C, 2), (64, 40, 10 * C, 2)])
    def test_worker_count(self, monkeypatch, n_cpus, block_len, n_blocks,
                          processes):
        # processes counts this process too: it makes chunks beside the
        # worker, so worker_count forks one fewer; block_len plays no part
        monkeypatch.setattr(forked, "usable_cpus", lambda: n_cpus)
        spec = DatasetSpec(block_len=block_len, n_blocks=n_blocks)
        assert dataset.worker_count(spec) == processes - 1

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_chunk_error_raised_after_workers_reaped(self, cpus, monkeypatch,
                                                     n_cpus):
        # chunk 3 is this process's with one CPU, the worker's with two
        cpus(n_cpus)
        fill = dataset._Chunker.fill

        def failing(self, chunk, c0):
            if c0 == 3 * C:
                raise RuntimeError("planted chunk failure")
            fill(self, chunk, c0)

        monkeypatch.setattr(dataset._Chunker, "fill", failing)
        with pytest.raises(RuntimeError, match="planted chunk failure"):
            generate(DatasetSpec(block_len=40, n_blocks=8 * C, seed=1,
                                 channel=_FAST))

    def test_unpicklable_error_arrives_with_traceback(self, cpus,
                                                      monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        cpus(2)
        self.plant(monkeypatch, Local("planted unpicklable failure"),
                   in_parent=False)
        with pytest.raises(RuntimeError) as info:
            generate(DatasetSpec(block_len=40, n_blocks=4 * C, seed=1,
                                 channel=_FAST))
        assert "planted unpicklable failure" in str(info.value)
        assert "Traceback" in str(info.value)

    def test_worker_that_dies_unreported(self, cpus, monkeypatch):
        cpus(2)
        self.plant(monkeypatch, lambda: os._exit(7), in_parent=False)
        with pytest.raises(RuntimeError, match="exit status 7"):
            generate(DatasetSpec(block_len=40, n_blocks=4 * C, seed=1,
                                 channel=_FAST))

    @pytest.mark.parametrize("error", [DatasetError, KeyError])
    def test_caller_chunk_failure_kills_and_reaps_workers(
            self, cpus, monkeypatch, forks, kills, error):
        cpus(2)
        self.plant(monkeypatch, error("planted in the caller"),
                   in_parent=True)
        with pytest.raises(error, match="planted in the caller"):
            generate(DatasetSpec(block_len=40, n_blocks=8 * C, seed=1,
                                 channel=_FAST))
        assert len(forks) == 1 and kills == forks

    def test_interrupt_while_waiting_kills_and_reaps_workers(
            self, cpus, monkeypatch, forks, kills):
        # this process reads its worker's pipe once its own chunks are made
        cpus(2)
        parent, read = os.getpid(), os.read

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return read(*args)

        monkeypatch.setattr(os, "read", interrupted)
        with pytest.raises(KeyboardInterrupt):
            generate(DatasetSpec(block_len=40, n_blocks=8 * C, seed=1,
                                 channel=_FAST))
        assert len(forks) == 1 and kills == forks


class TestSplit:
    """split returns the record indices of the three partitions; the
    three-way split that copied them out is the oracle."""

    def test_partition_sizes(self, small_blocks):
        tr, va, te = split(small_blocks, (0.7, 0.15, 0.15), seed=0)
        assert len(tr) == 210
        assert len(tr) + len(va) + len(te) == len(small_blocks)

    def test_deterministic(self, small_blocks):
        a = split(small_blocks, (0.7, 0.15, 0.15), seed=3)
        b = split(small_blocks, (0.7, 0.15, 0.15), seed=3)
        for pa, pb in zip(a, b):
            assert pa.tobytes() == pb.tobytes()

    def test_class_balance(self, small_blocks):
        overall = np.mean(small_blocks["label"] >= 0)
        for idx in split(small_blocks, (0.7, 0.15, 0.15), seed=0):
            frac = np.mean(small_blocks["label"][idx] >= 0)
            assert abs(frac - overall) <= 0.02 + 1.0 / len(idx)

    def test_bad_fractions(self, small_blocks):
        with pytest.raises(ValueError):
            split(small_blocks, (0.6, 0.3, 0.3), seed=0)

    @pytest.mark.parametrize("fractions", [(1.0,), (0.5, 0.5)])
    def test_fractions_must_be_three(self, small_blocks, fractions):
        with pytest.raises(ValueError):
            split(small_blocks, fractions, seed=0)

    @pytest.mark.parametrize("n, frac_start, seed", [
        (0, 0.5, 0), (1, 0.5, 0), (7, 0.0, 1), (64, 1.0, 5), (301, 0.9, 3),
        (1000, 0.1, 9001), (2000, 0.5, 42)])
    def test_asked_partitions_match_the_three_way_oracle(self, n, frac_start,
                                                         seed):
        # the records each index array gathers are the oracle's partition,
        # and the three arrays together index every record once
        rng = np.random.default_rng(seed)
        blocks = np.zeros(n, dtype=record_dtype(4))
        blocks["amp"] = rng.random((n, 4))  # tells every record apart
        blocks["label"] = np.where(rng.random(n) < frac_start,
                                   rng.integers(0, 4, n), -1)
        for fractions in ((0.7, 0.15, 0.15), (0.5, 0.0, 0.5), (0.0, 0.0, 1.0)):
            got = split(blocks, fractions, seed)
            assert all(idx.dtype == np.int64 for idx in got)
            assert sorted(np.concatenate(got)) == list(range(n))
            want = oracle_split(blocks, fractions, seed)
            assert ([blocks[idx].tobytes() for idx in got]
                    == [w.tobytes() for w in want])

    def test_generated_partitions_match_the_oracle(self, small_blocks):
        want = oracle_split(small_blocks, (0.7, 0.15, 0.15), 7)
        got = split(small_blocks, (0.7, 0.15, 0.15), 7)
        assert ([small_blocks[idx].tobytes() for idx in got]
                == [w.tobytes() for w in want])


class TestPersistence:
    def test_round_trip_bit_exact(self, small_blocks, tmp_path):
        save(small_blocks, tmp_path / "ds", _SMALL)
        loaded, manifest = load(tmp_path / "ds")
        assert manifest["n_records"] == len(small_blocks)
        assert manifest["block_len"] == 40
        assert DatasetSpec.from_json(json.dumps(manifest["spec"])) == _SMALL
        assert loaded.tobytes() == small_blocks.tobytes()

    def test_save_is_deterministic(self, small_blocks, tmp_path):
        save(small_blocks, tmp_path / "a", _SMALL)
        save(small_blocks, tmp_path / "b", _SMALL)
        assert ((tmp_path / "a.blocks.bin").read_bytes()
                == (tmp_path / "b.blocks.bin").read_bytes())

    @staticmethod
    def _check_saved_as_tobytes(blocks, prefix):
        save(blocks, prefix, _SMALL)
        payload = blocks.tobytes()
        manifest = json.loads(Path(f"{prefix}.manifest.json").read_text())
        assert Path(f"{prefix}.blocks.bin").read_bytes() == payload
        assert manifest["sha256"] == hashlib.sha256(payload).hexdigest()

    @pytest.mark.parametrize("view", ["contiguous", "strided", "empty"])
    def test_writes_and_hashes_the_records_bytes(self, small_blocks,
                                                 tmp_path, view):
        blocks = {"contiguous": small_blocks, "strided": small_blocks[::2],
                  "empty": small_blocks[:0]}[view]
        self._check_saved_as_tobytes(blocks, tmp_path / "ds")

    @pytest.mark.usefixtures("no_hang")
    def test_writes_a_forked_generate_from_its_mmap(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
        spec = DatasetSpec(block_len=40, n_blocks=3 * CHUNK_BLOCKS + 5,
                           seed=12, channel=_FAST)
        blocks = generate(spec)
        assert isinstance(getattr(blocks.base, "obj", blocks.base), mmap.mmap)
        self._check_saved_as_tobytes(blocks, tmp_path / "ds")

    def test_save_copies_no_payload(self, tmp_path):
        # 4000 records of 649 bytes; what save may allocate beyond the
        # manifest is a per-record int64 of the kinds for their counts
        blocks = np.zeros(4000, record_dtype(160))
        blocks["label"], blocks["kind"] = -1, Kind.NOISE_ONLY
        save(blocks[:10], tmp_path / "warm", _SMALL)
        peak = traced_peak(lambda: save(blocks, tmp_path / "ds", _SMALL))
        assert peak < blocks.nbytes / 4

    def test_checksum_detects_corruption(self, small_blocks, tmp_path):
        save(small_blocks, tmp_path / "ds", _SMALL)
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
        save(small_blocks, tmp_path / "ds", _SMALL)
        man_path = tmp_path / "ds.manifest.json"
        doc = json.loads(man_path.read_text())
        doc["format_version"] = 99
        man_path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError):
            load(tmp_path / "ds")

    @pytest.mark.parametrize("key, value", [
        ("block_len", 40.0), ("block_len", "40"), ("block_len", True),
        ("block_len", 0), ("n_records", 300.0), ("n_records", False),
        ("n_records", -1)])
    def test_manifest_counts_must_be_ints(self, small_blocks, tmp_path, key,
                                          value):
        save(small_blocks, tmp_path / "ds", _SMALL)
        man_path = tmp_path / "ds.manifest.json"
        man_path.write_text(json.dumps({**json.loads(man_path.read_text()),
                                        key: value}))
        with pytest.raises(DatasetError, match=key):
            load(tmp_path / "ds")

    def test_truncated_payload(self, small_blocks, tmp_path):
        save(small_blocks, tmp_path / "ds", _SMALL)
        bin_path = tmp_path / "ds.blocks.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-17])
        with pytest.raises(DatasetError):
            load(tmp_path / "ds")
