"""Minimal neural-network engine: 1D convolution, dense layers, ReLU, MSE
loss, backpropagation and Adam.  No external learning framework; everything
runs in double precision on numpy arrays shaped [batch, ...].

Determinism contract: for a fixed numpy/BLAS build and a fixed BLAS thread
count, training and inference outputs are byte-identical from run to run.
A BLAS GEMM may sum in a different order for other operand layouts, thread
counts or builds, so the Conv1d GEMM layouts are chosen to match the
``np.einsum(..., optimize=True)`` form they replaced, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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
        self._windows = None

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.w.shape[1]:
            raise ValueError("input must be [batch, ch_in, T]")
        O, C, F = self.w.shape
        n, _, T = x.shape
        if T < F:
            raise ValueError("input shorter than the filter")
        K = T - F + 1
        self._windows = sliding_window_view(x, F, axis=2)  # [n, C, K, F]
        cols = self._windows.transpose(0, 2, 1, 3).reshape(n * K, C * F)
        out = cols @ self.w.reshape(O, C * F).T  # [n*K, O]
        out += self.b
        return out.reshape(n, K, O).transpose(0, 2, 1)

    def backward(self, grad_out):
        O, C, F = self.w.shape
        n, _, K = grad_out.shape
        # reshape copies or makes a view exactly where einsum's did (g is an
        # F-ordered view at n = 1), so BLAS sees the same operands
        cols_t = self._windows.transpose(1, 3, 0, 2).reshape(C * F, n * K)
        g = grad_out.transpose(0, 2, 1).reshape(n * K, O)
        self.grads[0][...] = (cols_t @ g).reshape(C, F, O).transpose(2, 0, 1)
        self.grads[1][...] = grad_out.sum(axis=(0, 2))
        if not self.needs_input_grad:
            return None
        # input gradient: full correlation of the zero-padded output gradient
        # with the reversed filters, [n*T, O*F] @ [O*F, C]
        T = K + F - 1
        padded = np.zeros((n, O, T + F - 1))
        padded[:, :, F - 1:T] = grad_out
        gcols = (sliding_window_view(padded, F, axis=2)  # [n, O, T, F]
                 .transpose(0, 2, 1, 3).reshape(n * T, O * F))
        w_rev = self.w[:, :, ::-1].transpose(0, 2, 1).reshape(O * F, C)
        return (gcols @ w_rev).reshape(n, T, C).transpose(0, 2, 1)


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


class Relu(Layer):
    def __init__(self):
        super().__init__()
        self._mask = None

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out):
        return grad_out * self._mask


class Flatten(Layer):
    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._shape)


class Sequential:
    def __init__(self, layers: list[Layer]):
        self.layers = layers
        if layers:
            layers[0].needs_input_grad = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

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


class Adam:
    """Adam with bias correction; parameters updated in place.

    The moments of all parameters are kept as one flat vector each, so a
    step is a handful of vector operations whatever the number of arrays.
    """

    def __init__(self, params: list[np.ndarray], alpha: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * g ** 2
        update = self.alpha * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        lo = 0
        for p in self.params:
            p -= update[lo:lo + p.size].reshape(p.shape)
            lo += p.size


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 80
    epochs: int = 400
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def train(model: Sequential, inputs: np.ndarray, targets: np.ndarray,
          cfg: TrainConfig,
          val: tuple[np.ndarray, np.ndarray] | None = None) -> dict:
    """Seeded mini-batch training loop; deterministic given cfg.seed.

    Returns {"train_loss": [...], "val_loss": [...]} with one entry per
    epoch (val_loss is empty when no validation set is given).
    """
    n = len(inputs)
    if n == 0:
        raise ValueError("dataset must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.params, cfg.alpha, cfg.beta1, cfg.beta2, cfg.eps)
    history = {"train_loss": [], "val_loss": []}
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            pred = model.forward(inputs[idx])[:, 0]
            loss, grad = mse_loss(pred, targets[idx])
            model.backward(grad[:, None])
            opt.step(model.grads)
            total += loss * len(idx)
        history["train_loss"].append(total / n)
        if val is not None:
            vp = model.forward(val[0])[:, 0]
            vloss, _ = mse_loss(vp, val[1])
            history["val_loss"].append(vloss)
    return history
