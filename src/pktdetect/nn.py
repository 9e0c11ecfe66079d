"""Minimal neural-network engine: 1D convolution, dense layers, ReLU, MSE
loss, backpropagation and Adam.  No external learning framework; everything
runs in double precision on numpy arrays shaped [batch, ...].

Determinism contract: for a fixed numpy/BLAS build and a fixed BLAS thread
count, training and inference outputs are byte-identical from run to run.
A BLAS GEMM may sum in a different order for other operand layouts, thread
counts or builds, so the Conv1d GEMM layouts are chosen to match the
``np.einsum(..., optimize=True)`` form they replaced, bit for bit.  Conv1d
builds those C-contiguous operands by slice copies, so they are the same
for any input layout; cnn.prepare_inputs hands it a C-contiguous framing.
Relu works in place, which keeps the gradient each Conv1d receives in the
memory layout its bias-gradient sum reads (checked against a copying ReLU
in tests/test_nn.py).  Parameters and gradients are one array each per
layer; Adam flattens the gradients into one vector per step.

Inference (Sequential.predict, and with it train's per-epoch validation
loss) runs in chunks whose row count a fixed byte budget for the largest
im2col operand sets (PREDICT_BUDGET_BYTES), so its memory does not grow
with the batch.  A call that fits one chunk is bit for bit a forward();
over several chunks each GEMM sums fewer rows, and the last bits of a score
or of the validation loss depend on the budget (in cnn's network, for a
1500-block call from block length 80 up).  No parameter reads the
validation pass, so checkpoint bytes and the training loss do not.
Both predict and train take an optional frame callable, so a caller can
hand them raw rows and have only a chunk or a batch framed at a time.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


# bytes of the largest im2col operand one Sequential.predict chunk builds:
# 248 blocks at block length 160 and 2730 at 40, so the benchmark's
# 1500-block calls at 40 run as one chunk, bit for bit as forward() does
PREDICT_BUDGET_BYTES = 2 << 20


class Layer:
    """Base class; layers cache what backward() needs during forward().

    backward() fills ``grads`` and returns the gradient w.r.t. the layer's
    input.  A layer whose ``needs_input_grad`` is False may return None
    instead: Sequential clears it on its first layer, whose input is data.
    """

    params: list
    grads: list
    needs_input_grad = True

    def __init__(self):
        self.params = []
        self.grads = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def drop_cache(self) -> None:
        """Forget what forward() kept for backward()."""


def _unfold(x: np.ndarray, filter_len: int, axes: tuple) -> np.ndarray:
    """The windows x[b, c, k + f] of x [n, C, T] as a new C-contiguous 4-D
    array, its axes (b, c, k, f) in the order ``axes``.

    With no more taps than channels, one slice copy per filter tap fills it;
    otherwise a single copy from a strided window view does (slice copies
    alone made conv1's forward up to 1.9x slower).
    """
    n, ch, t = x.shape
    k = t - filter_len + 1
    shape = (n, ch, k, filter_len)
    out = np.empty([shape[a] for a in axes])
    if filter_len <= ch:
        tap = axes.index(3)
        rest = [a for a in axes if a != 3]
        for f in range(filter_len):
            out[(slice(None),) * tap + (f,)] = x[:, :, f:f + k].transpose(rest)
    else:
        strides = x.strides + x.strides[2:]
        out[...] = as_strided(x, out.shape, [strides[a] for a in axes],
                              writeable=False)
    return out


class Conv1d(Layer):
    """Valid (no padding), stride-1 cross-correlation: [B,C,T] -> [B,O,T-F+1].

    Each pass is one im2col matrix and one GEMM (Chellapilla, Puri & Simard,
    2006).  The operands are laid out as ``np.einsum(..., optimize=True)``
    lays them out for ``matmul`` on these contractions, so the results are
    bit-identical to the einsum form (kept as the oracle in tests/test_nn.py):
    the order of the fused contraction index and the C/F-ordering of each
    operand decide how BLAS sums.
    """

    def __init__(self, ch_in: int, ch_out: int, filter_len: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if filter_len < 1:
            raise ValueError("filter_len must be >= 1")
        rng = rng or np.random.default_rng(0)
        fan_in = ch_in * filter_len
        limit = np.sqrt(6.0 / fan_in)  # He-uniform, ReLU follows
        self.w = rng.uniform(-limit, limit, size=(ch_out, ch_in, filter_len))
        self.b = np.zeros(ch_out)
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self._x = None

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.w.shape[1]:
            raise ValueError("input must be [batch, ch_in, T]")
        O, C, F = self.w.shape
        n, _, T = x.shape
        if T < F:
            raise ValueError("input shorter than the filter")
        K = T - F + 1
        self._x = x
        cols = _unfold(x, F, (0, 2, 1, 3)).reshape(n * K, C * F)
        out = cols @ self.w.reshape(O, C * F).T  # [n*K, O]
        out += self.b
        return out.reshape(n, K, O).transpose(0, 2, 1)

    def backward(self, grad_out):
        O, C, F = self.w.shape
        n, _, K = grad_out.shape
        # g is a view exactly where einsum's was (F-ordered at n = 1), so
        # BLAS sees the same operands
        cols_t = _unfold(self._x, F, (1, 3, 0, 2)).reshape(C * F, n * K)
        g = grad_out.transpose(0, 2, 1).reshape(n * K, O)
        self.grads[0][...] = (cols_t @ g).reshape(C, F, O).transpose(2, 0, 1)
        self.grads[1][...] = grad_out.sum(axis=(0, 2))
        if not self.needs_input_grad:
            return None
        # input gradient: full correlation of the zero-padded output gradient
        # with the reversed filters, [n*T, O*F] @ [O*F, C]; tap f of row t
        # reads grad_out[:, :, t + f - (F - 1)], zero outside [0, K), which
        # leaves only rows t < F - 1 and t >= K with padding in them.  The
        # same bits from _unfold of the zero-padded gradient were slower
        T = K + F - 1
        gcols = np.empty((n, T, O, F))
        gcols[:, :F - 1] = 0
        gcols[:, K:] = 0
        for f in range(F):
            gcols[:, F - 1 - f:T - f, :, f] = grad_out.transpose(0, 2, 1)
        w_rev = self.w[:, :, ::-1].transpose(0, 2, 1).reshape(O * F, C)
        return (gcols.reshape(n * T, O * F) @ w_rev).reshape(n, T, C).transpose(0, 2, 1)

    def drop_cache(self):
        self._x = None


class Dense(Layer):
    """Affine layer: [B, N_i] -> [B, N_o]."""

    def __init__(self, n_in: int, n_out: int, init: str = "he",
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if init == "he":
            limit = np.sqrt(6.0 / n_in)
        elif init == "xavier":
            limit = np.sqrt(6.0 / (n_in + n_out))
        else:
            raise ValueError(f"unknown init {init!r}")
        self.w = rng.uniform(-limit, limit, size=(n_out, n_in))
        self.b = np.zeros(n_out)
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self._x = None

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.w.shape[1]:
            raise ValueError("input must be [batch, n_in]")
        self._x = x
        return x @ self.w.T + self.b

    def backward(self, grad_out):
        self.grads[0][...] = grad_out.T @ self._x
        self.grads[1][...] = grad_out.sum(axis=0)
        return grad_out @ self.w

    def drop_cache(self):
        self._x = None


class Relu(Layer):
    """max(x, 0), computed in place: forward overwrites its input and
    backward its gradient, and each returns the array it was given.

    Only hand it arrays that nothing else reads afterwards.  In
    cnn.build_model's network that holds: each ReLU's input is the freshly
    allocated output of the Conv1d or Dense layer before it, and its
    gradient the freshly allocated input gradient of the layer after it
    (through Flatten's reshape, for the second ReLU).
    """

    def __init__(self):
        super().__init__()
        self._mask = None

    def forward(self, x):
        self._mask = x > 0
        x *= self._mask
        return x

    def backward(self, grad_out):
        grad_out *= self._mask
        return grad_out

    def drop_cache(self):
        self._mask = None


class Flatten(Layer):
    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._shape)

    def drop_cache(self):
        self._shape = None


class Sequential:
    def __init__(self, layers: list[Layer]):
        self.layers = layers
        if layers:
            layers[0].needs_input_grad = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def chunk_rows(self, sample_shape: tuple) -> int:
        """Rows per predict() chunk for inputs of one row's shape
        sample_shape: as many as keep the largest Conv1d im2col operand a
        chunk builds within PREDICT_BUDGET_BYTES, at least one.

        Reads the time axis as shortened by the Conv1d layers alone, which
        holds while no Conv1d follows a layer that reshapes.
        """
        t, largest = sample_shape[-1], 0
        for layer in self.layers:
            if isinstance(layer, Conv1d):
                _, ch, f = layer.w.shape
                t -= f - 1
                largest = max(largest, t * ch * f * 8)
        if not largest:  # no im2col operand: one chunk
            return sys.maxsize
        return max(1, PREDICT_BUDGET_BYTES // largest)

    def predict(self, x: np.ndarray, frame=None) -> np.ndarray:
        """forward() for inference, chunk_rows() rows at a time, each
        layer's backward cache dropped as soon as the layer has run: no
        activation outlives the call and no temporary grows with the rows.

        With frame, x holds raw rows and frame(rows) makes the network
        input of a slice of them, so only one chunk is framed at a time.
        """
        frame = frame or (lambda rows: rows)
        step = self.chunk_rows(frame(x[:0]).shape[1:])
        out = []
        # an empty x still runs once, to fail or pass as forward() would
        for lo in range(0, max(len(x), 1), step):
            y = frame(x[lo:lo + step])
            for layer in self.layers:
                y = layer.forward(y)
                layer.drop_cache()
            out.append(y)
        return out[0] if len(out) == 1 else np.concatenate(out)

    def backward(self, grad_out: np.ndarray) -> None:
        """Fill every layer's grads.  The gradient w.r.t. the network input
        is not needed for training and is not computed."""
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)

    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("pred and target must have equal shapes")
    n = pred.size
    diff = pred - target
    return float(np.sum(diff ** 2) / n), 2.0 * diff / n


ADAM_BETA1 = 0.9     # first-moment decay
ADAM_BETA2 = 0.999   # second-moment decay
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction; parameters updated in place.

    The moments of all parameters are kept as one flat vector each, so a
    step is a handful of vector operations whatever the number of arrays.
    """

    def __init__(self, params: list[np.ndarray], alpha: float = 0.001):
        self.params = params
        self.alpha = alpha
        self.t = 0
        size = sum(p.size for p in params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        g = np.concatenate([np.ravel(x) for x in grads])
        if g.size != self.m.size:
            raise ValueError("gradient sizes do not match parameter sizes")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient: step rejected")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g ** 2
        update = self.alpha * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        lo = 0
        for p in self.params:
            p -= update[lo:lo + p.size].reshape(p.shape)
            lo += p.size


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 80
    epochs: int = 400
    alpha: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def train(model: Sequential, inputs: np.ndarray, targets: np.ndarray,
          cfg: TrainConfig,
          val: tuple[np.ndarray, np.ndarray] | None = None,
          frame=None) -> dict:
    """Seeded mini-batch training loop; deterministic given cfg.seed.

    With frame, inputs (and val's inputs) hold raw rows and frame(rows)
    makes the network input of a selection of them: each batch is framed
    as it is drawn, frame(inputs[idx]), and the validation loss hands frame
    to predict(), so no framing of a whole split is ever held.  Without it
    the rows are network inputs already.  A frame that maps each row on its
    own gives the same bytes either way.

    Returns {"train_loss": [...], "val_loss": [...]} with one entry per
    epoch (val_loss is empty when no validation set is given).
    """
    n = len(inputs)
    if n == 0:
        raise ValueError("dataset must be non-empty")
    frame = frame or (lambda rows: rows)
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.params, cfg.alpha)
    history = {"train_loss": [], "val_loss": []}
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            pred = model.forward(frame(inputs[idx]))[:, 0]
            loss, grad = mse_loss(pred, targets[idx])
            model.backward(grad[:, None])
            opt.step(model.grads)
            total += loss * len(idx)
        history["train_loss"].append(total / n)
        if val is not None:
            vp = model.predict(val[0], frame)[:, 0]
            vloss, _ = mse_loss(vp, val[1])
            history["val_loss"].append(vloss)
    return history
