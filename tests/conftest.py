"""Shared fixtures and oracle helpers for the test suite."""
import os
import signal
import struct
import tracemalloc

import numpy as np
import pytest

from pktdetect import forked, nn
from pktdetect.cli import build_versions
from pktdetect.preamble import (ComplexSignal, build_preamble,
                                default_preamble_spec)


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


@pytest.fixture
def no_hang():
    """Fail the test, rather than hang the run, if it waits 60 s: for tests
    of generate's worker processes.  A forked worker inherits no alarm."""
    def expire(signum, frame):
        raise TimeoutError("the test waited 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def cpus(monkeypatch):
    """force(n): make forked.usable_cpus report n CPUs and lift the
    MAX_WORKERS cap, which only bounds the speed, so that gen and the sweep
    fork as many workers as n CPUs allow."""
    def force(n):
        monkeypatch.setattr(forked, "usable_cpus", lambda: n)
        monkeypatch.setattr(forked, "MAX_WORKERS", 64)
    return force


@pytest.fixture
def forks(monkeypatch):
    """The pids of the worker processes forked (os.fork) during the test."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture
def kills(monkeypatch):
    """The pids killed (os.kill) during the test."""
    pids, kill = [], os.kill

    def recording(pid, sig):
        pids.append(pid)
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", recording)
    return pids


@pytest.fixture
def clean_exit():
    """Assert, after the test, that no forked worker is left and that no
    pipe end this process made is still open."""
    def open_fds():
        return set(os.listdir("/proc/self/fd"))

    before = open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == before


def traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate during fn() (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


# the u32 fields after a checkpoint's 8-byte magic, in order
CHECKPOINT_HEADER = ("version", "block_len", "in_channels", "conv1_filters",
                     "conv1_filter_len", "conv2_filters", "conv2_filter_len",
                     "fc_neurons", "normalize")


def tamper_checkpoint(path, field, value):
    """Overwrite one u32 header field of the checkpoint at path."""
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 8 + 4 * CHECKPOINT_HEADER.index(field), value)
    path.write_bytes(bytes(data))


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


def autocorr(y, tau, L):
    """Lag-L complex correlation over an L-sample window starting at tau:
    the scalar form of the timing metric, kept as the reference that
    corrsync.metric_trace is checked against."""
    s = y.samples
    if tau < 0 or tau + 2 * L > len(s):
        raise ValueError("correlation window exceeds signal extent")
    return complex(np.sum(np.conj(s[tau:tau + L]) * s[tau + L:tau + 2 * L]))


def window_power(y, tau, L):
    """Energy of the second (lagged) half-window starting at tau."""
    s = y.samples
    if tau < 0 or tau + 2 * L > len(s):
        raise ValueError("power window exceeds signal extent")
    return float(np.sum(np.abs(s[tau + L:tau + 2 * L]) ** 2))


def timing_metric(y, tau, L):
    """M(tau) = |corr|^2 / power^2; 0 on degenerate all-zero windows."""
    p = window_power(y, tau, L)
    if p == 0.0:
        return 0.0
    lam = autocorr(y, tau, L)
    return float(abs(lam) ** 2 / p ** 2)


def oracle_apply_channel(sig, cfg, snr_db=np.inf, rng=None,
                         signal_power=None, span=None):
    """The apply_channel that the support-only form replaced, kept as the
    oracle: a complex np.convolve over the whole span and the CFO phasor as
    a complex exp, then (at a finite snr_db) the noise that form drew and
    added itself."""
    x, taps = sig.samples, cfg.taps
    frac = cfg.timing_offset_samples
    n_out = len(x) + len(taps) - 1
    lo, hi = (0, n_out) if span is None else span
    first = lo - (frac > 0)
    a = max(first, 0)
    b = min(max(hi, a), n_out)
    s = max(a - len(taps) + 1, 0)
    out = (np.convolve(x[s:b], taps)[a - s:b - s] if b > a
           else np.zeros(0, dtype=np.complex128))
    if cfg.cfo_hz != 0.0:
        n = np.arange(a, b)
        out = out * np.exp(2j * np.pi * cfg.cfo_hz * n / sig.sample_rate_hz)
    if a > first:
        out = np.concatenate([np.zeros(a - first, dtype=np.complex128),
                              out])[:hi - first]
    if frac > 0:
        out = (1 - frac) * out[1:] + frac * out[:-1]
    if np.isfinite(snr_db):
        sigma2 = signal_power * 10.0 ** (-snr_db / 10.0)
        re, im = rng.standard_normal(n_out), rng.standard_normal(n_out)
        out = out + np.sqrt(sigma2 / 2) * (re[lo:hi] + 1j * im[lo:hi])
    return ComplexSignal(out, sig.sample_rate_hz)


def oracle_receive(sim, rng, snr_db, pre, post, has_packet=True):
    """The one-step StreamSimulator.receive that the draw + noise split
    replaced, kept as the oracle: the link at one SNR, noise drawn and added
    inside the channel (here the oracle channel)."""
    from pktdetect.channel import ChannelConfig, draw_model_b_taps, rx_frontend
    from pktdetect.preamble import PREAMBLE_LEN

    tpl = sim.cfg.channel
    os = tpl.os_factor
    buf = np.zeros((pre + PREAMBLE_LEN + post) * os + len(sim.taps) - 1,
                   dtype=np.complex128)
    if has_packet:
        buf[pre * os:pre * os + len(sim.x_os)] = sim.x_os
    cfo = (float(rng.uniform(-tpl.cfo_max_hz, tpl.cfo_max_hz))
           if tpl.cfo_max_hz else 0.0)
    taps = (draw_model_b_taps(rng, sim.os_rate, tpl.rms_delay_spread_ns)
            if tpl.multipath else np.ones(1))
    ch = ChannelConfig(taps=taps, cfo_hz=cfo,
                       timing_offset_samples=tpl.fractional_timing_offset)
    n_rx = -(-(len(buf) + len(taps) - 1) // os)
    y_os = oracle_apply_channel(ComplexSignal(buf, sim.os_rate), ch, snr_db,
                                rng=rng, signal_power=sim.p_signal_os)
    rx = rx_frontend(y_os, sim.taps, os)
    return ComplexSignal(rx.samples[:n_rx], rx.sample_rate_hz)


def oracle_evaluate_conventional(trial_cfg, n_trials, seed=0,
                                 packet_fraction=0.5, snr_range_db=None):
    """The per-point trial loop that the shared one replaced, kept as the
    oracle: every trial simulated afresh at trial_cfg.snr_db (or at its own
    SNR drawn from snr_range_db)."""
    from pktdetect.corrsync import coarse_detect, fine_detect
    from pktdetect.streams import (DETECTOR, POST_PAD, PRE_PAD_RANGE,
                                   StreamSimulator, TrialOutcome)

    sim = StreamSimulator(trial_cfg)
    outcomes = []
    for i in range(n_trials):
        rng = np.random.default_rng((seed, i))
        snr = (float(rng.uniform(*snr_range_db)) if snr_range_db is not None
               else trial_cfg.snr_db)
        has_packet = bool(rng.uniform() < packet_fraction)
        pre = int(rng.integers(*PRE_PAD_RANGE))
        y = oracle_receive(sim, rng, snr, pre, POST_PAD, has_packet)
        res = coarse_detect(y, DETECTOR)
        fine = (fine_detect(y, res.start_sample, sim.lts)
                if res.detected else -1)
        outcomes.append(TrialOutcome(has_packet, pre if has_packet else -1,
                                     res.detected, res.start_sample, fine,
                                     snr))
    return outcomes


def receive(sim, rng, snr_db, pre, post, has_packet=True):
    """One stream of sim's link at one SNR, drawn and received in one step:
    the rx stream of `pre` samples, the NDP (noise only when has_packet is
    false) and `post` samples, then the rx filter tail.  The unit noise is
    drawn at every snr_db; a non-finite one adds none of it."""
    link = sim.draw_link(rng, pre, post, has_packet)
    return sim.rx_stream(link, snr_db)


def oracle_generate(spec):
    """The per-block dataset.generate loop that the chunked one replaced,
    kept as the oracle: each block's whole stream simulated alone and the
    block cut from it."""
    from pktdetect.dataset import Kind, record_dtype
    from pktdetect.preamble import PREAMBLE_LEN
    from pktdetect.streams import StreamSimulator, StreamTrialConfig

    sim = StreamSimulator(StreamTrialConfig(channel=spec.channel))
    b = spec.block_len
    lo_snr, hi_snr = spec.snr_range_db
    blocks = np.zeros(spec.n_blocks, dtype=record_dtype(b))
    for i in range(spec.n_blocks):
        rng = np.random.default_rng((spec.seed, i))
        snr = float(rng.uniform(lo_snr, hi_snr))
        if rng.uniform() < spec.frac_no_start:
            kind = (Kind.NOISE_ONLY
                    if rng.uniform() < spec.frac_noise_within_no_start
                    else Kind.MID_TAIL)
        else:
            kind = Kind.START
        if kind == Kind.NOISE_ONLY:
            sigma2 = sim.noise_sigma2(snr)
            w = np.sqrt(sigma2 / 2) * (rng.standard_normal(b)
                                       + 1j * rng.standard_normal(b))
            blocks[i] = (np.abs(w), -1.0, snr, kind)
            continue
        y = receive(sim, rng, snr, pre=b, post=b + 16).samples
        if kind == Kind.START:
            tau = int(rng.integers(0, b))
            w0, label = b - tau, tau
        else:
            w0, label = int(rng.integers(b + 1, b + PREAMBLE_LEN + 1)), -1.0
        blocks[i] = (np.abs(y[w0:w0 + b]), label, snr, kind)
    return blocks


def oracle_split(blocks, fractions, seed):
    """The three-way dataset.split that gathered every partition, kept as
    the oracle of the one that gathers only those it is asked for."""
    n = len(blocks)
    rng = np.random.default_rng(seed)
    has_start = blocks["label"] >= 0
    keys = np.empty(n)
    order_within = np.empty(n, dtype=np.int64)
    for mask in (has_start, ~has_start):
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        shuffled = rng.permutation(idx)
        keys[shuffled] = (np.arange(idx.size) + 0.5) / idx.size
        order_within[shuffled] = np.arange(idx.size)
    order = np.lexsort((np.arange(n), order_within, keys))
    cut1 = int(np.floor(fractions[0] * n))
    cut2 = int(np.floor((fractions[0] + fractions[1]) * n))
    return blocks[order[:cut1]], blocks[order[cut1:cut2]], blocks[order[cut2:]]
