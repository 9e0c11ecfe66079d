import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tamper_checkpoint, traced_peak
from pktdetect import cnn, dataset, nn
from pktdetect.cnn import (BLOCK_LENGTHS, CheckpointError, CnnDetectorConfig,
                           build_model, evaluate, load_model, mae_by_snr,
                           predict, prepare_inputs, save_model)


def channels_to_block(channels: np.ndarray) -> np.ndarray:
    """Inverse of prepare_inputs' framing."""
    swapped = np.swapaxes(channels, -1, -2)
    return swapped.reshape(swapped.shape[:-2] + (-1,))


class TestBlockFraming:
    """prepare_inputs frames each block frame-of-4 ("raw" keeps the
    amplitudes as they are)."""

    RAW40 = CnnDetectorConfig(block_len=40, normalize="raw")

    def test_frame_of_four_layout(self):
        ch = prepare_inputs(np.arange(40.0), self.RAW40)
        assert ch.shape == (1, 4, 10)
        # channel c, step t holds sample 4*t + c
        np.testing.assert_array_equal(ch[0, 1], np.arange(1.0, 40.0, 4))

    def test_batched(self):
        blocks = np.arange(80.0).reshape(2, 40)
        ch = prepare_inputs(blocks, self.RAW40)
        assert ch.shape == (2, 4, 10) and ch.flags.c_contiguous
        np.testing.assert_array_equal(ch[1, 2], np.arange(42.0, 80.0, 4))

    @given(st.integers(0, 2**31 - 1), st.sampled_from(BLOCK_LENGTHS),
           st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_bijection(self, seed, block_len, n):
        rng = np.random.default_rng(seed)
        blocks = rng.rayleigh(size=(n, block_len))
        cfg = CnnDetectorConfig(block_len=block_len, normalize="raw")
        np.testing.assert_array_equal(
            channels_to_block(prepare_inputs(blocks, cfg)), blocks)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):  # 10 samples: no frame-of-4 block
            prepare_inputs(np.zeros(10), self.RAW40)


class TestConfig:
    def test_layer_widths_b160(self):
        w = CnnDetectorConfig(block_len=160).layer_widths()
        assert w == {"T": 40, "K1": 33, "K2": 31, "flatten": 155}

    def test_all_supported_block_lengths_fit(self):
        for b in BLOCK_LENGTHS:
            w = CnnDetectorConfig(block_len=b).layer_widths()
            assert w["K2"] >= 1
            assert w["flatten"] == 5 * w["K2"]

    def test_too_short_block_rejected(self):
        with pytest.raises(ValueError):
            build_model(CnnDetectorConfig(block_len=32))

    def test_indivisible_block_rejected(self):
        with pytest.raises(ValueError):
            CnnDetectorConfig(block_len=42)

    def test_bad_normalize_rejected(self):
        with pytest.raises(ValueError):
            CnnDetectorConfig(block_len=160, normalize="zscore")


class TestModel:
    def test_untrained_predicts_no_packet(self):
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        rng = np.random.default_rng(0)
        blocks = np.abs(rng.standard_normal((5, 40)))
        assert np.all(predict(model, blocks) < cnn.DETECT_THRESHOLD)
        # output bias initialized at the no-packet label
        assert model.net.layers[-1].b[0] == cnn.NO_PACKET_LABEL

    def test_build_deterministic(self):
        a = build_model(CnnDetectorConfig(block_len=160), seed=5)
        b = build_model(CnnDetectorConfig(block_len=160), seed=5)
        for pa, pb in zip(a.net.params, b.net.params):
            np.testing.assert_array_equal(pa, pb)

    def test_detect_start_clamped(self):
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        model.net.layers[-1].w[...] = 0.0
        model.net.layers[-1].b[...] = 1_000.0  # force a huge score
        block = _blocks(1, 40, labeled_fraction=1.0)
        m = evaluate(model, block)
        assert m.miss_rate == 0.0
        assert m.mae == abs(39 - block["label"][0])

    def test_predict_batch_shape(self):
        model = build_model(CnnDetectorConfig(block_len=80), seed=1)
        out = predict(model, np.abs(np.random.default_rng(1)
                                    .standard_normal((7, 80))))
        assert out.shape == (7,)

    @pytest.mark.parametrize("block_len", [40, 160])
    def test_predict_is_forward_without_caches(self, block_len):
        model = build_model(CnnDetectorConfig(block_len=block_len), seed=2)
        blocks = np.abs(np.random.default_rng(4).standard_normal((50, block_len)))
        expected = model.net.forward(cnn.prepare_inputs(blocks, model.cfg))[:, 0]
        np.testing.assert_array_equal(predict(model, blocks), expected)
        caches = ("_windows", "_mask", "_x", "_shape")
        assert all(getattr(layer, name, None) is None
                   for layer in model.net.layers for name in caches)

    def test_prepare_inputs_rms_mode(self):
        cfg = CnnDetectorConfig(block_len=40, normalize="rms")
        blocks = np.abs(np.random.default_rng(2).standard_normal((3, 40))) + 0.1
        x = cnn.prepare_inputs(blocks, cfg)
        flat = channels_to_block(x)
        rms = np.sqrt(np.mean(flat ** 2, axis=1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-12)

    def test_prepare_inputs_raw_mode(self):
        cfg = CnnDetectorConfig(block_len=40, normalize="raw")
        blocks = np.abs(np.random.default_rng(3).standard_normal((3, 40)))
        x = cnn.prepare_inputs(blocks, cfg)
        np.testing.assert_array_equal(channels_to_block(x), blocks)

    def test_prepare_inputs_zero_block_stays_finite(self):
        cfg = CnnDetectorConfig(block_len=40, normalize="rms")
        x = cnn.prepare_inputs(np.zeros((1, 40)), cfg)
        assert np.all(np.isfinite(x))

    def test_wrong_block_length_rejected(self):
        model = build_model(CnnDetectorConfig(block_len=40))
        with pytest.raises(ValueError):
            predict(model, np.zeros((2, 80)))


def _blocks(n, b, seed=0, labeled_fraction=0.5):
    rng = np.random.default_rng(seed)
    out = np.zeros(n, dtype=dataset.record_dtype(b))
    for i in range(n):
        amp = np.abs(rng.standard_normal(b))
        if rng.uniform() < labeled_fraction:
            out[i] = (amp, rng.integers(0, b), rng.uniform(0, 25),
                      dataset.Kind.START)
        else:
            out[i] = (amp, -1.0, rng.uniform(0, 25), dataset.Kind.NOISE_ONLY)
    return out


def test_mae_by_snr_bin_edges():
    edges = cnn.SNR_BIN_EDGES
    snrs = [5.0, np.nextafter(5.0, 0.0), 25.0, -0.5, 25.5]
    rows = mae_by_snr(snrs, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert [row[:2] for row in rows] == list(zip(edges[:-1], edges[1:]))
    assert [row[3] for row in rows] == [1, 1, 0, 0, 1]
    assert rows[0][2] == 2.0   # nextafter(5, 0) is in [0, 5)
    assert rows[1][2] == 1.0   # 5.0 is in [5, 10)
    assert rows[2][2] is None
    assert rows[4][2] == 3.0   # 25.0 is in the closed last bin [20, 25]


def test_score_reads_errors_only_at_true_positives():
    # a hit, a miss, a false alarm and a quiet block; only the hit's error
    # may reach the MAE, so the others carry NaN
    m = cnn.score([True, True, False, False], [True, False, True, False],
                  [2.0, np.nan, np.nan, np.nan], [7.0] * 4)
    assert (m.mae, m.miss_rate, m.false_alarm_rate, m.n) == (2.0, 0.5, 0.5, 4)
    assert [row[2:] for row in m.per_snr] == [
        (None, 0), (2.0, 1), (None, 0), (None, 0), (None, 0)]


class TestEvaluate:
    def test_untrained_model_misses_everything(self):
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        m = evaluate(model, _blocks(200, 40))
        assert m.miss_rate == 1.0
        assert m.false_alarm_rate == 0.0
        assert m.mae is None
        assert len(m.per_snr) == 5

    @pytest.mark.parametrize("labeled_fraction", [0.0, 1.0])
    def test_empty_denominators_are_none(self, labeled_fraction):
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        m = evaluate(model, _blocks(50, 40, labeled_fraction=labeled_fraction))
        if labeled_fraction == 0.0:  # no START block: no miss rate
            assert m.miss_rate is None and m.false_alarm_rate == 0.0
        else:  # no block free of a start: no false-alarm rate
            assert m.miss_rate == 1.0 and m.false_alarm_rate is None

    def test_empty_rejected(self):
        model = build_model(CnnDetectorConfig(block_len=40))
        with pytest.raises(ValueError):
            evaluate(model, np.zeros(0, dtype=dataset.record_dtype(40)))

    def test_forced_detector_flags_everything(self):
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        model.net.layers[-1].w[...] = 0.0
        model.net.layers[-1].b[...] = 5.0
        m = evaluate(model, _blocks(200, 40))
        assert m.miss_rate == 0.0
        assert m.false_alarm_rate == 1.0
        assert m.mae is not None

    def test_training_reduces_loss(self):
        blocks = _blocks(300, 40, seed=4)
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        hist = cnn.train_detector(model, blocks, np.arange(300),
                                  np.arange(50), nn.TrainConfig(epochs=5))
        assert hist["train_loss"][-1] < hist["train_loss"][0]
        assert len(hist["val_loss"]) == 5


def _rayleigh_blocks(n, block_len, seed=0):
    rng = np.random.default_rng(seed)
    return rng.rayleigh(size=(n, block_len)).astype(np.float32)


class TestChunkedInference:
    """Many-block forwards run nn.Sequential.chunk_rows rows at a time."""

    def test_chunk_rows_from_the_byte_budget(self):
        # conv1's [rows * K1, 32] float64 operand is the largest
        for block_len, rows in ((40, 2730), (160, 248)):
            cfg = CnnDetectorConfig(block_len=block_len)
            k1 = cfg.layer_widths()["K1"]
            assert rows == nn.PREDICT_BUDGET_BYTES // (k1 * 32 * 8)
            net = build_model(cfg).net
            assert net.chunk_rows((4, block_len // 4)) == rows

    @pytest.mark.parametrize("normalize", cnn.NORMALIZE_MODES)
    def test_chunks_score_as_their_own_blocks(self, normalize):
        model = build_model(CnnDetectorConfig(block_len=160,
                                              normalize=normalize), seed=2)
        rows = model.net.chunk_rows((4, 40))
        blocks = _rayleigh_blocks(2 * rows + 17, 160)
        whole = predict(model, blocks)
        parts = [predict(model, blocks[lo:lo + rows])
                 for lo in range(0, len(blocks), rows)]
        assert len(parts) == 3
        assert whole.tobytes() == np.concatenate(parts).tobytes()
        x = cnn.prepare_inputs(blocks, model.cfg)
        assert model.net.predict(x)[:, 0].tobytes() == whole.tobytes()
        # the last bits may move, never more than rounding
        np.testing.assert_allclose(whole, model.net.forward(x)[:, 0],
                                   rtol=1e-12, atol=1e-12)

    def test_1500_blocks_at_40_are_one_forward(self):
        model = build_model(CnnDetectorConfig(block_len=40), seed=2)
        blocks = _rayleigh_blocks(1500, 40)
        x = cnn.prepare_inputs(blocks, model.cfg)
        ref = model.net.forward(x)[:, 0]
        assert predict(model, blocks).tobytes() == ref.tobytes()
        assert model.net.predict(x)[:, 0].tobytes() == ref.tobytes()

    def test_validation_loss_is_the_chunked_predict(self):
        # one epoch's validation loss is mse over predict, and no training
        # cache outlives the epoch
        cfg = CnnDetectorConfig(block_len=160)
        rng = np.random.default_rng(5)
        x = cnn.prepare_inputs(_rayleigh_blocks(80, 160, 1), cfg)
        t = rng.integers(-1, 160, 80).astype(np.float64)
        vx = cnn.prepare_inputs(_rayleigh_blocks(600, 160, 2), cfg)
        vt = rng.integers(-1, 160, 600).astype(np.float64)
        model = build_model(cfg, seed=3)
        hist = nn.train(model.net, x, t, nn.TrainConfig(epochs=1), (vx, vt))
        caches = ("_mask", "_x", "_shape")
        assert all(getattr(layer, name, None) is None
                   for layer in model.net.layers for name in caches)
        assert hist["val_loss"] == [nn.mse_loss(model.net.predict(vx)[:, 0],
                                                vt)[0]]

    # While a chunk runs, its framed inputs, one im2col operand (at most the
    # budget) and that GEMM's output are alive; at B=160 the framed rows
    # (C*T = 160 values) and conv outputs (9*33) are smaller than an im2col
    # row (32*33), so each of the three is at most one budget.  The scores
    # (8 bytes a block, 32 kB here) fit in what that leaves.
    MEMORY_BOUND = 3 * nn.PREDICT_BUDGET_BYTES

    def test_predict_memory_is_bounded(self):
        model = build_model(CnnDetectorConfig(block_len=160), seed=2)
        blocks = _rayleigh_blocks(4000, 160)
        predict(model, blocks[:10])  # one-time allocations stay out
        assert traced_peak(lambda: predict(model, blocks)) < self.MEMORY_BOUND

    def test_training_epoch_memory_is_bounded(self):
        cfg = CnnDetectorConfig(block_len=160)
        rng = np.random.default_rng(6)
        x = cnn.prepare_inputs(_rayleigh_blocks(160, 160, 1), cfg)
        t = rng.integers(-1, 160, 160).astype(np.float64)
        val = (cnn.prepare_inputs(_rayleigh_blocks(3000, 160, 2), cfg),
               rng.integers(-1, 160, 3000).astype(np.float64))
        model = build_model(cfg, seed=3)
        one_epoch = nn.TrainConfig(epochs=1)
        nn.train(model.net, x, t, one_epoch, val)
        peak = traced_peak(lambda: nn.train(model.net, x, t, one_epoch, val))
        assert peak < self.MEMORY_BOUND

    def test_train_detector_memory_does_not_grow_with_blocks(self):
        # Beyond the records, an epoch holds one batch's framing and step,
        # whose im2col operands are smaller than a predict chunk's while
        # the batch has no more rows than a chunk, and then the validation
        # chunk (MEMORY_BOUND); per block only the float64 targets and the
        # int64 shuffle order, 16 bytes.  Framing a whole split instead
        # would hold 1280 bytes a block at B=160.
        cfg = CnnDetectorConfig(block_len=160)
        one_epoch = nn.TrainConfig(epochs=1)
        assert one_epoch.batch_size <= build_model(cfg).net.chunk_rows((4, 40))
        val = _blocks(600, 160, seed=1)
        peaks = {}
        for n in (2000, 8000):
            blocks = np.concatenate((_blocks(n, 160, seed=n), val))
            train_idx, val_idx = np.arange(n), np.arange(n, len(blocks))
            model = build_model(cfg, seed=3)
            cnn.train_detector(model, blocks, train_idx[:80], val_idx[:10],
                               one_epoch)
            peaks[n] = traced_peak(lambda: cnn.train_detector(
                model, blocks, train_idx, val_idx, one_epoch))
            assert peaks[n] < self.MEMORY_BOUND + 16 * (n + len(val))
        assert peaks[8000] - peaks[2000] <= 16 * (8000 - 2000)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(CnnDetectorConfig(block_len=160, normalize="rms"),
                            seed=7)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.cfg.block_len == 160
        assert loaded.cfg.normalize == "rms"
        for a, b in zip(model.net.params, loaded.net.params):
            np.testing.assert_array_equal(a, b)

    def test_save_is_deterministic(self, tmp_path):
        model = build_model(CnnDetectorConfig(block_len=40), seed=1)
        save_model(model, tmp_path / "a.ckpt")
        save_model(model, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\0" * 100)
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_truncated(self, tmp_path):
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_model(path)

    @pytest.mark.parametrize("field, value, reason", [
        ("conv1_filters", 0, "another network"),
        ("in_channels", 2, "another network"),
        ("block_len", 42, "multiple of 4 and at least 40"),
        ("block_len", 8, "multiple of 4 and at least 40"),
        ("normalize", 7, "another network")])
    def test_tampered_header_rejected(self, tmp_path, field, value, reason):
        path = tmp_path / "model.ckpt"
        save_model(build_model(CnnDetectorConfig(block_len=40), seed=0), path)
        tamper_checkpoint(path, field, value)
        with pytest.raises(CheckpointError, match=reason):
            load_model(path)

    @pytest.mark.parametrize("saved, header, reason", [
        (40, 4_000_000, "checkpoint truncated"),
        (160, 40, "checkpoint has trailing bytes")])
    def test_length_checked_before_build(self, tmp_path, monkeypatch, saved,
                                         header, reason):
        path = tmp_path / "model.ckpt"
        save_model(build_model(CnnDetectorConfig(block_len=saved), seed=0), path)
        tamper_checkpoint(path, "block_len", header)

        def no_build(*args, **kwargs):
            raise AssertionError("build_model called")

        monkeypatch.setattr(cnn, "build_model", no_build)
        with pytest.raises(CheckpointError, match=reason):
            load_model(path)

    @pytest.mark.parametrize("block_len", BLOCK_LENGTHS)
    def test_n_params_counts_the_built_network(self, block_len):
        cfg = CnnDetectorConfig(block_len)
        assert cfg.n_params() == sum(p.size for p in build_model(cfg).net.params)

    @pytest.mark.parametrize("cfg, ckpt_sha256, sidecar_sha256", [
        (CnnDetectorConfig(40),
         "5389c69ecf511cb1a72a76babbab6cca2522008a9cdf57312d0d0032de2bcb41",
         "5b41e66568fba833307dc618c230ac8abe09aa0a860b9a84a78eaa071f4c8d3e"),
        (CnnDetectorConfig(160, normalize="rms"),
         "f97dde079bd4b884dfe344a033ab2de48eeffd4b3802f33016693c83617305ec",
         "66d0110eaad6b6be9a6c762f145ecfa6f1d51a61fa31399b643eddabeca0eb91")],
        ids=["b40-raw", "b160-rms"])
    def test_checkpoint_bytes_pinned(self, tmp_path, cfg, ckpt_sha256,
                                     sidecar_sha256):
        path = tmp_path / "model.ckpt"
        save_model(build_model(cfg, seed=3), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ckpt_sha256
        sidecar = tmp_path / "model.ckpt.json"
        assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == sidecar_sha256


class TestTrainingBytesPinned:
    """Checkpoint and loss bytes of a short training run with a validation
    split: a moved training byte fails here rather than showing only as
    noise in criteria 5 and 6.  The loss digest is over the float64 values
    the train command's loss CSV prints (each as its exact repr): train
    losses, then validation losses.  At B=160 the validation pass runs in
    two predict chunks and the last training batch is partial at both."""

    @pytest.mark.parametrize("cfg, ckpt_sha256, loss_sha256", [
        (CnnDetectorConfig(40),
         "8c1245d7d5112536200bdb0007b864649c0668cfd8e2673cae1999c0098cbde0",
         "d76dfdb8692a5078db6621a54518ee7b7d1d88b2b144923e83f3a193f469d60c"),
        (CnnDetectorConfig(160, normalize="rms"),
         "07b5d86724ef944a1237b2d1b751c3e67a051d03ebfcd2cd94d4641b93eb372b",
         "82a2b3790613bf806ac95233ad36a00d60e159e6bdcd9b8cbcc069105775a673")],
        ids=["b40-raw", "b160-rms"])
    def test_training_bytes_pinned(self, tmp_path, cfg, ckpt_sha256,
                                   loss_sha256):
        spec = dataset.DatasetSpec(block_len=cfg.block_len, n_blocks=2000,
                                   seed=11)
        blocks = dataset.generate(spec)
        train_idx, val_idx, _ = dataset.split(blocks, spec.split, spec.seed)
        model = build_model(cfg, seed=3)
        hist = cnn.train_detector(model, blocks, train_idx, val_idx,
                                  nn.TrainConfig(epochs=3, seed=3))
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ckpt_sha256
        losses = np.array(hist["train_loss"] + hist["val_loss"], "<f8")
        assert hashlib.sha256(losses.tobytes()).hexdigest() == loss_sha256


class TestParameterVector:
    """Every layer's parameter and gradient arrays are views of the
    network's param_vector and grad_vector, end to end in checkpoint order.
    A layer that rebinds its w or b would go on computing with an array
    that training no longer updates."""

    @staticmethod
    def assert_views(net):
        lo = 0
        for layer in net.layers:
            named = ([layer.w, layer.b]
                     if isinstance(layer, (nn.Conv1d, nn.Dense)) else [])
            assert len(layer.params) == len(layer.grads) == len(named)
            for w, p, g in zip(named, layer.params, layer.grads):
                for a, vector in ((w, net.param_vector),
                                  (p, net.param_vector),
                                  (g, net.grad_vector)):
                    assert a.base is vector
                    assert a.ctypes.data == vector.ctypes.data + 8 * lo
                    assert a.shape == p.shape
                lo += p.size
        assert lo == net.param_vector.size == net.grad_vector.size

    @pytest.mark.parametrize("block_len", [40, 160])
    def test_views_after_build_load_and_train(self, tmp_path, block_len):
        cfg = CnnDetectorConfig(block_len)
        model = build_model(cfg, seed=4)
        self.assert_views(model.net)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        self.assert_views(loaded.net)
        assert np.array_equal(loaded.net.param_vector, model.net.param_vector)
        before = loaded.net.param_vector.copy()
        cnn.train_detector(loaded, _blocks(200, block_len, seed=5),
                           np.arange(160), np.arange(160, 200),
                           nn.TrainConfig(epochs=2))
        self.assert_views(loaded.net)
        assert not np.array_equal(loaded.net.param_vector, before)
