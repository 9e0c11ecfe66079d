import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktdetect import cnn, dataset, nn
from pktdetect.cnn import (BLOCK_LENGTHS, CheckpointError, CnnDetectorConfig,
                           block_to_channels, build_model, evaluate,
                           load_model, mae_by_snr, predict, save_model)


def channels_to_block(channels: np.ndarray) -> np.ndarray:
    """Inverse of block_to_channels."""
    swapped = np.swapaxes(channels, -1, -2)
    return swapped.reshape(swapped.shape[:-2] + (-1,))


class TestBlockFraming:
    def test_frame_of_four_layout(self):
        block = np.arange(12.0)
        ch = block_to_channels(block, 4)
        assert ch.shape == (4, 3)
        # channel c, step t holds sample 4*t + c
        np.testing.assert_array_equal(ch[1], [1.0, 5.0, 9.0])

    def test_batched(self):
        blocks = np.arange(24.0).reshape(2, 12)
        ch = block_to_channels(blocks, 4)
        assert ch.shape == (2, 4, 3)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 4, 8]),
           st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_bijection(self, seed, c, t):
        rng = np.random.default_rng(seed)
        block = rng.standard_normal(c * t)
        np.testing.assert_array_equal(
            channels_to_block(block_to_channels(block, c)), block)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            block_to_channels(np.zeros(10), 4)


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
        assert np.all(predict(model, blocks) < model.cfg.detect_threshold)
        # output bias initialized at the no-packet label
        assert model.net.layers[-1].b[0] == model.cfg.no_packet_label

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


class TestEvaluate:
    def test_untrained_model_misses_everything(self):
        model = build_model(CnnDetectorConfig(block_len=40), seed=0)
        m = evaluate(model, _blocks(200, 40))
        assert m.miss_rate == 1.0
        assert m.false_alarm_rate == 0.0
        assert m.mae is None
        assert len(m.per_snr) == 5

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
        hist = cnn.train_detector(model, blocks, blocks[:50],
                                  nn.TrainConfig(epochs=5))
        assert hist["train_loss"][-1] < hist["train_loss"][0]
        assert len(hist["val_loss"]) == 5


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
