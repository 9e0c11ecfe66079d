import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import finite_diff_grads
from pktdetect import cnn, dataset, nn


class EinsumConv1d(nn.Conv1d):
    """The einsum Conv1d that the im2col + GEMM form replaced, kept as the
    bit-exact oracle.  It always returns its input gradient."""

    def forward(self, x):
        F = self.w.shape[2]
        self._windows = sliding_window_view(x, F, axis=2)  # [B, C, K, F]
        return (np.einsum("ocf,bckf->bok", self.w, self._windows, optimize=True)
                + self.b[None, :, None])

    def backward(self, grad_out):
        F = self.w.shape[2]
        self.grads[0][...] = np.einsum("bok,bckf->ocf", grad_out, self._windows,
                                       optimize=True)
        self.grads[1][...] = grad_out.sum(axis=(0, 2))
        padded = np.pad(grad_out, ((0, 0), (0, 0), (F - 1, F - 1)))
        g_windows = sliding_window_view(padded, F, axis=2)  # [B, O, T, F]
        return np.einsum("ocf,botf->bct", self.w[:, :, ::-1], g_windows,
                         optimize=True)


class LoopAdam:
    """The per-array Adam loop that the flat-vector Adam replaced: the oracle.
    A lone array, as nn.train hands over the network's parameter and
    gradient vectors, counts as a list of one."""

    def __init__(self, params, alpha=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = [params] if isinstance(params, np.ndarray) else params
        self.alpha, self.beta1, self.beta2, self.eps = alpha, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads):
        grads = [grads] if isinstance(grads, np.ndarray) else grads
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise ValueError("non-finite gradient: step rejected")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g ** 2
            p -= self.alpha * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class CopyRelu(nn.Relu):
    """The ReLU that returned new arrays, which the in-place one replaced:
    the oracle for the memory layout of the gradient each layer is handed."""

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out):
        return grad_out * self._mask


def _channels_last(a):
    """The same [n, O, K] values stored with O fastest, as a conv output."""
    return np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)


def _gradcheck_layer(layer, x, seed, tol=1e-4):
    """Compare analytic parameter/input grads with central differences."""
    rng = np.random.default_rng(seed)
    out = layer.forward(x)
    # random linear readout makes the scalar loss sensitive to every output
    r = rng.standard_normal(out.shape)

    def loss():
        return float(np.sum(layer.forward(x) * r))

    grad_in = layer.backward(r)
    fd_params = finite_diff_grads(loss, layer.params)
    for g, fd in zip(layer.grads, fd_params):
        denom = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(g - fd)) / denom < tol
    fd_in = finite_diff_grads(loss, [x])[0]
    denom = max(np.max(np.abs(fd_in)), 1e-8)
    assert np.max(np.abs(grad_in - fd_in)) / denom < tol


class TestConv1d:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        layer = nn.Conv1d(3, 5, 4, rng)
        x = rng.standard_normal((2, 3, 10))
        out = layer.forward(x)
        assert out.shape == (2, 5, 7)
        for b in range(2):
            for o in range(5):
                for t in range(7):
                    ref = np.sum(layer.w[o] * x[b, :, t:t + 4]) + layer.b[o]
                    assert out[b, o, t] == pytest.approx(ref, rel=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            r = np.random.default_rng(seed)
            ci, co, f = r.integers(1, 4), r.integers(1, 4), r.integers(1, 5)
            t = int(f + r.integers(0, 6))
            layer = nn.Conv1d(int(ci), int(co), int(f), rng)
            x = r.standard_normal((2, int(ci), t))
            _gradcheck_layer(layer, x, seed)

    @pytest.mark.parametrize("n", [1, 2, 40, 80, 1500])
    @pytest.mark.parametrize("conv, layout", [
        pytest.param(0, "contiguous", id="0"),
        pytest.param(0, "strided", id="0-strided"),
        pytest.param(2, "contiguous", id="2")])
    @pytest.mark.parametrize("block_len", cnn.BLOCK_LENGTHS)
    def test_gemm_matches_einsum_bit_for_bit(self, block_len, conv, layout, n):
        # the model's own layers and input layouts: conv1 reads the
        # C-contiguous framing prepare_inputs makes, or the same framing
        # as a strided view of the amplitudes, and conv2 the ReLU of
        # conv1's output
        cfg = cnn.CnnDetectorConfig(block_len=block_len)
        net = cnn.build_model(cfg, seed=5).net
        rng = np.random.default_rng(block_len + conv + n)
        amp = rng.rayleigh(size=(n, block_len))
        x = cnn.prepare_inputs(amp, cfg)
        if layout == "strided":
            x = np.swapaxes(amp.reshape(n, -1, cnn.IN_CHANNELS), 1, 2)
            assert not x.flags.c_contiguous
        if conv == 2:
            x = net.layers[1].forward(net.layers[0].forward(x))
        layer = net.layers[conv]
        layer.needs_input_grad = True  # compare conv1's input gradient too
        out_ch, in_ch, flen = layer.w.shape
        oracle = EinsumConv1d(in_ch, out_ch, flen)
        oracle.w[...], oracle.b[...] = layer.w, layer.b
        out = layer.forward(x)
        assert np.array_equal(out, oracle.forward(x))
        g = rng.standard_normal(out.shape)
        # C-ordered, as Flatten hands conv2 its gradient, and channels-last,
        # as the ReLU after conv1 hands conv1 its gradient
        for grad_out in (g, _channels_last(g)):
            grad_in = layer.backward(grad_out)
            ref_in = oracle.backward(grad_out)
            assert np.array_equal(layer.grads[0], oracle.grads[0])
            assert np.array_equal(layer.grads[1], oracle.grads[1])
            assert np.array_equal(grad_in, ref_in)

    def test_first_layer_of_sequential_skips_input_gradient(self):
        rng = np.random.default_rng(4)
        first, second = nn.Conv1d(2, 3, 4, rng), nn.Conv1d(3, 2, 2, rng)
        net = nn.Sequential([first, nn.Relu(), second])
        assert not first.needs_input_grad and second.needs_input_grad
        out = net.forward(rng.standard_normal((3, 2, 9)))
        assert net.backward(np.ones_like(out)) is None
        assert first.backward(np.ones((3, 3, 6))) is None
        alone = nn.Conv1d(2, 3, 4, rng)
        alone.forward(rng.standard_normal((3, 2, 9)))
        assert alone.backward(np.ones((3, 3, 6))).shape == (3, 2, 9)

    def test_input_validation(self):
        layer = nn.Conv1d(2, 3, 4)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5, 10)))   # wrong channel count
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 2, 3)))    # shorter than the filter
        with pytest.raises(ValueError):
            nn.Conv1d(2, 3, 0)


class TestDense:
    def test_matches_matmul(self):
        rng = np.random.default_rng(2)
        layer = nn.Dense(6, 4, rng=rng)
        x = rng.standard_normal((3, 6))
        np.testing.assert_allclose(layer.forward(x),
                                   x @ layer.w.T + layer.b, atol=1e-14)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            r = np.random.default_rng(100 + seed)
            n_in, n_out = int(r.integers(1, 8)), int(r.integers(1, 8))
            layer = nn.Dense(n_in, n_out, rng=rng)
            x = r.standard_normal((3, n_in))
            _gradcheck_layer(layer, x, seed)

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError):
            nn.Dense(4, 2, init="orthogonal")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nn.Dense(4, 2).forward(np.zeros((3, 5)))


class TestReluFlatten:
    def test_relu_values_and_grad(self):
        # in place: each pass returns the array it was given, overwritten
        x, g = np.array([[-1.0, 0.0, 2.0]]), np.ones((1, 3))
        layer = nn.Relu()
        assert layer.forward(x) is x
        np.testing.assert_array_equal(x, [[0.0, 0.0, 2.0]])
        assert layer.backward(g) is g
        np.testing.assert_array_equal(g, [[0.0, 0.0, 1.0]])

    def test_flatten_round_trip(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        layer = nn.Flatten()
        out = layer.forward(x)
        assert out.shape == (2, 12)
        np.testing.assert_array_equal(layer.backward(out), x)


class TestInPlaceRelu:
    """The ReLUs overwrite arrays in place; no caller's array may change."""

    @pytest.mark.parametrize("normalize, dtype", [("raw", np.float32),
                                                  ("rms", np.float64)])
    @pytest.mark.parametrize("block_len", [40, 160])
    def test_inputs_untouched_and_calls_repeat(self, block_len, normalize,
                                               dtype):
        cfg = cnn.CnnDetectorConfig(block_len=block_len, normalize=normalize)
        model = cnn.build_model(cfg, seed=2)
        rng = np.random.default_rng(block_len)
        blocks = rng.rayleigh(size=(30, block_len)).astype(dtype)
        x = cnn.prepare_inputs(blocks, cfg)
        blocks_before, x_before = blocks.copy(), x.copy()
        for call, arg in ((model.net.forward, x), (model.net.predict, x),
                          (lambda b: cnn.predict(model, b), blocks)):
            first = call(arg).copy()
            assert np.array_equal(x, x_before)
            assert np.array_equal(blocks, blocks_before)
            assert call(arg).tobytes() == first.tobytes()
        assert np.array_equal(model.net.forward(x), model.net.predict(x))


class TestMseLoss:
    def test_value_and_gradient(self):
        pred = np.array([1.0, 2.0, 3.0])
        target = np.array([0.0, 2.0, 5.0])
        loss, grad = nn.mse_loss(pred, target)
        assert loss == pytest.approx((1 + 0 + 4) / 3)
        np.testing.assert_allclose(grad, 2 * (pred - target) / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.mse_loss(np.zeros(3), np.zeros(4))


class TestAdam:
    def test_first_step_magnitude_is_alpha(self):
        p = np.zeros(5)
        opt = nn.Adam(p, alpha=0.001)
        g = np.full(5, 3.7)
        opt.step(g)
        # with constant gradients the bias-corrected first step is exactly
        # alpha * sign(g), up to eps
        np.testing.assert_allclose(np.abs(p), 0.001, atol=1e-6)
        assert np.all(p < 0)

    def test_rejects_non_finite(self):
        p = np.zeros(7)
        opt = nn.Adam(p)
        opt.step(np.ones(7))
        before = [a.copy() for a in (p, opt.m, opt.v)]
        with pytest.raises(ValueError):
            opt.step(np.array([1.0, 1.0, 1.0, 1.0, np.nan, 0.0, 0.0]))
        # parameters, both moments and the step count untouched
        for a, b in zip((p, opt.m, opt.v), before):
            np.testing.assert_array_equal(a, b)
        assert opt.t == 1

    def test_matches_per_array_loop_bit_for_bit(self):
        # the network's arrays at B=160, as views of one vector
        rng = np.random.default_rng(8)
        shapes = [(9, 4, 8), (9,), (5, 9, 3), (5,), (3, 155), (3,), (1, 3), (1,)]
        params = [rng.standard_normal(s) for s in shapes]
        ref_params = [p.copy() for p in params]
        vector = np.concatenate([p.ravel() for p in params])
        opt, ref = nn.Adam(vector, alpha=0.01), LoopAdam(ref_params, alpha=0.01)
        for _ in range(200):
            grads = [rng.standard_normal(s) for s in shapes]
            opt.step(np.concatenate([g.ravel() for g in grads]))
            ref.step(grads)
        assert np.array_equal(vector,
                              np.concatenate([r.ravel() for r in ref_params]))
        assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in ref.m]))
        assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in ref.v]))

    def test_rejects_wrong_sizes(self):
        p = np.zeros(3)
        opt = nn.Adam(p)
        with pytest.raises(ValueError):
            opt.step(np.zeros(2))
        np.testing.assert_array_equal(opt.m, 0.0)
        assert opt.t == 0

    def test_rejects_wrong_arity(self):
        # Adam steps one vector: no array of another rank on either side
        with pytest.raises(ValueError):
            nn.Adam(np.zeros((2, 2)))
        opt = nn.Adam(np.zeros(4))
        with pytest.raises(ValueError):
            opt.step(np.zeros((2, 2)))

    def test_converges_on_quadratic(self):
        p = np.array([4.0, -3.0])
        opt = nn.Adam(p, alpha=0.05)
        for _ in range(2_000):
            opt.step(2 * p)
        assert np.max(np.abs(p)) < 1e-3


class TestTraining:
    def _toy_net(self, seed=0):
        rng = np.random.default_rng(seed)
        return nn.Sequential([nn.Dense(4, 6, rng=rng), nn.Relu(),
                              nn.Dense(6, 1, init="xavier", rng=rng)])

    def _toy_data(self, n=64, seed=1):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 4))
        t = 0.3 * x[:, 0] - 0.2 * x[:, 1] + 0.1
        return x, t

    def test_loss_decreases(self):
        x, t = self._toy_data()
        net = self._toy_net()
        hist = nn.train(net, x, t, nn.TrainConfig(batch_size=16, epochs=60))
        assert hist["train_loss"][-1] < 0.25 * hist["train_loss"][0]

    def test_overfits_small_set(self):
        x, t = self._toy_data(n=8, seed=2)
        net = self._toy_net(seed=3)
        hist = nn.train(net, x, t,
                        nn.TrainConfig(batch_size=8, epochs=400, alpha=0.01))
        assert hist["train_loss"][-1] < 1e-4

    def test_deterministic_given_seed(self):
        x, t = self._toy_data()
        cfg = nn.TrainConfig(batch_size=16, epochs=5, seed=11)
        nets = [self._toy_net(seed=4) for _ in range(2)]
        for net in nets:
            nn.train(net, x, t, cfg)
        for a, b in zip(nets[0].params, nets[1].params):
            np.testing.assert_array_equal(a, b)

    def test_val_history(self):
        x, t = self._toy_data()
        net = self._toy_net()
        hist = nn.train(net, x, t, nn.TrainConfig(batch_size=16, epochs=3),
                        val=(x[:16], t[:16]))
        assert len(hist["val_loss"]) == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            nn.train(self._toy_net(), np.zeros((0, 4)), np.zeros(0),
                     nn.TrainConfig(epochs=1))

    @pytest.mark.parametrize("block_len, n_train", [(40, 241), (160, 197)])
    def test_matches_einsum_conv_and_loop_adam(self, block_len, n_train,
                                               monkeypatch):
        # batch 80 with a partial last batch (241 = 3 * 80 + 1 ends on a
        # single block) and a validation set, as cnn.train_detector runs it
        cfg = cnn.CnnDetectorConfig(block_len=block_len)
        rng = np.random.default_rng(block_len)
        amp = rng.rayleigh(size=(n_train + 50, block_len))
        label = np.where(rng.random(n_train + 50) < 0.5, -1.0,
                         rng.integers(0, block_len, n_train + 50))
        x, t = cnn.prepare_inputs(amp, cfg), label
        val = (x[n_train:], t[n_train:])
        train_cfg = nn.TrainConfig(batch_size=80, epochs=3, seed=2)

        def run():
            model = cnn.build_model(cfg, seed=3)
            hist = nn.train(model.net, x[:n_train], t[:n_train], train_cfg, val)
            pred = model.net.forward(x[:80])[:, 0]
            model.net.backward(nn.mse_loss(pred, t[:80])[1][:, None])
            return model.net, hist

        net, hist = run()
        monkeypatch.setattr(nn, "Conv1d", EinsumConv1d)
        monkeypatch.setattr(nn, "Adam", LoopAdam)
        monkeypatch.setattr(nn, "Relu", CopyRelu)
        ref_net, ref_hist = run()
        assert isinstance(ref_net.layers[0], EinsumConv1d)
        assert isinstance(ref_net.layers[1], CopyRelu)
        assert hist == ref_hist
        for p, r in zip(net.params, ref_net.params):
            assert p.tobytes() == r.tobytes()
        # the first layer skipped its input gradient; the parameter
        # gradients are still the oracle's
        for g, r in zip(net.grads, ref_net.grads):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("normalize", cnn.NORMALIZE_MODES)
    @pytest.mark.parametrize("block_len, n_train", [(40, 241), (160, 197)])
    def test_framing_each_batch_matches_the_framed_split(
            self, block_len, n_train, normalize):
        # float32 amplitudes read through a record field, each block at its
        # own scale so that "rms" mode scales every one differently; partial
        # last batches of 80, and a validation set of two predict chunks at
        # 160.  The rows are the amplitudes themselves, or shuffled record
        # indices that the frame gathers, as cnn.train_detector hands them
        cfg = cnn.CnnDetectorConfig(block_len, normalize)
        rng = np.random.default_rng(block_len + 1)
        rec = np.zeros(n_train + 300, dataset.record_dtype(block_len))
        rec["amp"] = (rng.rayleigh(size=rec["amp"].shape)
                      * rng.uniform(0.1, 10.0, (len(rec), 1)))
        rec["label"] = np.where(rng.random(len(rec)) < 0.5, -1,
                                rng.integers(0, block_len, len(rec)))
        idx = rng.permutation(len(rec))
        amp, t = rec["amp"], rec["label"][idx].astype(np.float64)
        train_cfg = nn.TrainConfig(batch_size=80, epochs=3, seed=2)

        def frame(rows):
            return cnn.prepare_inputs(rows, cfg)

        def run(x, vx, frame=None):
            net = cnn.build_model(cfg, seed=3).net
            hist = nn.train(net, x, t[:n_train], train_cfg,
                            (vx, t[n_train:]), frame)
            return b"".join(p.tobytes() for p in net.params), hist

        parts = rec[idx[:n_train]]["amp"], rec[idx[n_train:]]["amp"]
        framed = run(frame(parts[0]), frame(parts[1]))
        assert run(*parts, frame) == framed
        assert run(idx[:n_train], idx[n_train:],
                   lambda rows: frame(amp[rows])) == framed

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            nn.TrainConfig(batch_size=0)
