"""Shared fixtures and oracle helpers for the test suite."""
import os

import numpy as np
import pytest

from pktdetect import nn
from pktdetect.cli import build_versions
from pktdetect.preamble import build_preamble, default_preamble_spec


# verdict lines collected by the acceptance tests, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_report_header(config):
    # the byte-identity tests hold for one numpy/BLAS build and thread count
    v = build_versions()
    threads = ", ".join(f"{k}={os.environ.get(k, '(unset)')}"
                        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"))
    return (f"numpy {v['numpy']}, BLAS {v['blas']} {v['blas_version']}; "
            f"{threads}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def preamble_spec():
    return default_preamble_spec()


@pytest.fixture(scope="session")
def preamble(preamble_spec):
    return build_preamble(preamble_spec)


def instrumented_forward(net: nn.Sequential, x: np.ndarray):
    """Naive re-implementation of the forward pass that counts every scalar
    multiply as it happens.  Returns (output, multiply_count); the output is
    compared against the fast path so the count is tied to a real
    computation, not a formula.
    """
    muls = 0
    for layer in net.layers:
        if isinstance(layer, nn.Conv1d):
            ch_out, ch_in, flen = layer.w.shape
            k = x.shape[2] - flen + 1
            out = np.empty((x.shape[0], ch_out, k))
            for b in range(x.shape[0]):
                for o in range(ch_out):
                    for t in range(k):
                        window = x[b, :, t:t + flen]
                        out[b, o, t] = np.sum(layer.w[o] * window) + layer.b[o]
                        muls += layer.w[o].size
            x = out
        elif isinstance(layer, nn.Dense):
            n_out, n_in = layer.w.shape
            out = np.empty((x.shape[0], n_out))
            for b in range(x.shape[0]):
                for o in range(n_out):
                    out[b, o] = np.dot(layer.w[o], x[b]) + layer.b[o]
                    muls += n_in
            x = out
        elif isinstance(layer, nn.Relu):
            x = np.maximum(x, 0.0)
        elif isinstance(layer, nn.Flatten):
            x = x.reshape(x.shape[0], -1)
        else:  # pragma: no cover - no other layer types exist
            raise TypeError(f"unknown layer {type(layer).__name__}")
    return x, muls


def finite_diff_grads(fn, params, h=1e-6):
    """Central finite differences of a scalar function w.r.t. each array."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            plus = fn()
            p[idx] = orig - h
            minus = fn()
            p[idx] = orig
            g[idx] = (plus - minus) / (2 * h)
        grads.append(g)
    return grads
