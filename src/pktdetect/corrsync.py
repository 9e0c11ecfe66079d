"""Conventional correlation-based packet-start detection.

Sliding complex autocorrelation at lag L over an L-sample window (L = half
the STF), the normalized timing metric M = |corr|^2 / power^2, a dwell-based
threshold trigger, plateau refinement around the metric peak, and a
cross-correlation fine-timing stage against the known long training symbol.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preamble import ComplexSignal, LTS_CORE_OFFSETS, STF_LEN

TRIGGER_THRESHOLD = 0.5
TRIGGER_DWELL = 8        # consecutive above-threshold samples required
PLATEAU_FRACTION = 0.9
FINE_SEARCH_SPAN = 12


@dataclass(frozen=True)
class CorrDetectorConfig:
    l_window: int = 80          # correlation lag and window length (half STF)

    def __post_init__(self):
        if self.l_window < 1:
            raise ValueError("l_window must be positive")


@dataclass(frozen=True)
class DetectionResult:
    detected: bool
    start_sample: int

    def __post_init__(self):
        if not self.detected and self.start_sample != -1:
            raise ValueError("undetected results must carry start_sample = -1")


def metric_trace(y: ComplexSignal, lag: int, window: int | None = None) -> np.ndarray:
    """M(tau) for every feasible tau, from running sums of the lag products
    and of the lagged-window power (each window sum is a difference of two
    prefix sums).  The window defaults to the lag, as `coarse_detect` runs it."""
    s = y.samples
    window = lag if window is None else window
    n_out = len(s) - lag - window + 1
    if n_out < 1:
        return np.zeros(0)
    n = len(s) - lag + 1  # prefix sums, from the empty one
    # one buffer for both: the complex sums cz, then the power sums cw
    acc = np.empty(3 * n)
    cz, cw = acc[:2 * n].view(np.complex128), acc[2 * n:]
    cz[0] = cw[0] = 0.0
    np.cumsum(np.conj(s[:len(s) - lag]) * s[lag:], out=cz[1:])
    np.cumsum(np.abs(s[lag:]) ** 2, out=cw[1:])
    lam = cz[window:window + n_out] - cz[:n_out]
    p = cw[window:window + n_out] - cw[:n_out]
    if p.all():  # else M is 0 where the window holds no power
        return np.abs(lam) ** 2 / p ** 2
    m = np.zeros(n_out)
    np.divide(np.abs(lam) ** 2, p ** 2, out=m, where=p > 0)
    return m


def plateau_refine(metric: np.ndarray, peak: int, fraction: float) -> int:
    """Midpoint of the nearest left/right crossings below fraction*peak."""
    level = fraction * metric[peak]
    left = np.nonzero(metric[:peak] < level)[0]
    right = np.nonzero(metric[peak + 1:] < level)[0]
    if left.size == 0 or right.size == 0:
        return int(peak)
    lo = int(left[-1])
    hi = int(peak + 1 + right[0])
    return int(round((lo + hi) / 2))


def coarse_detect(y: ComplexSignal, cfg: CorrDetectorConfig) -> DetectionResult:
    """Threshold-triggered argmax of the timing metric with plateau refinement.

    The trigger requires M(tau) >= TRIGGER_THRESHOLD for TRIGGER_DWELL
    consecutive samples; the peak search then covers the following
    2 * STF_LEN samples.
    """
    m = metric_trace(y, cfg.l_window)
    if len(m) < TRIGGER_DWELL:
        return DetectionResult(False, -1)
    # run[t]: whether M(t), ..., M(t + k - 1) all reach the threshold, for
    # k doubling up to TRIGGER_DWELL; the last step overlaps two runs
    run, k = m >= TRIGGER_THRESHOLD, 1
    while k < TRIGGER_DWELL:
        step = min(k, TRIGGER_DWELL - k)
        run, k = run[:-step] & run[step:], k + step
    t0 = int(run.argmax())
    if not run[t0]:
        return DetectionResult(False, -1)
    region = m[t0:t0 + 2 * STF_LEN]
    peak = t0 + int(np.argmax(region))
    start = plateau_refine(m, peak, PLATEAU_FRACTION)
    return DetectionResult(True, start)


def fine_detect(y: ComplexSignal, coarse: int, lts_ref: ComplexSignal) -> int:
    """Cross-correlation fine timing against the known LTS.

    Finds the strongest LTS correlation peak near the coarse estimate and
    maps it back to a packet-start index via the LTS copy offset closest to
    the coarse estimate.  Falls back to the coarse estimate on degenerate
    references or windows that do not fit the signal.
    """
    ref = lts_ref.samples
    if len(ref) == 0 or not np.any(np.abs(ref) > 0):
        return int(coarse)
    s = y.samples
    offsets = LTS_CORE_OFFSETS  # LTS copy positions within the preamble
    ltf_extent = max(offsets) + len(ref) - min(offsets)
    lo = max(0, coarse + min(offsets) - FINE_SEARCH_SPAN)
    hi = min(len(s), coarse + min(offsets) + ltf_extent + FINE_SEARCH_SPAN)
    if hi - lo < len(ref):
        return int(coarse)
    corr = np.abs(np.correlate(s[lo:hi], ref, mode="valid"))
    peak_pos = lo + int(np.argmax(corr))
    candidates = np.array([peak_pos - off for off in offsets])
    return int(candidates[np.argmin(np.abs(candidates - coarse))])
