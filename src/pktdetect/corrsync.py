"""Conventional correlation-based packet-start detection.

Sliding complex autocorrelation between two lag-separated windows, the
normalized timing metric M = |corr|^2 / power^2, a dwell-based threshold
trigger, plateau refinement around the metric peak, and a cross-correlation
fine-timing stage against the known long training symbol.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .preamble import ComplexSignal, LTS_CORE_OFFSETS


@dataclass(frozen=True)
class CorrDetectorConfig:
    l_window: int = 80          # correlation lag and window length (half STF)
    l_s: int = 16               # short-training-symbol length
    l_stf: int = 160            # STF field length
    trigger_threshold: float = 0.5
    trigger_dwell: int = 8      # consecutive above-threshold samples required
    plateau_fraction: float = 0.9
    fine_search_span: int = 12
    lts_offsets: tuple = LTS_CORE_OFFSETS  # LTS copy positions within the preamble
    use_literal_window: bool = False  # lag l_s over an (l_stf - l_s + 1) window

    def __post_init__(self):
        if not 0 < self.plateau_fraction < 1:
            raise ValueError("plateau_fraction must lie in (0, 1)")
        if self.l_window < 1:
            raise ValueError("l_window must be positive")

    @property
    def lag(self) -> int:
        return self.l_s if self.use_literal_window else self.l_window

    @property
    def window(self) -> int:
        return (self.l_stf - self.l_s + 1) if self.use_literal_window else self.l_window


@dataclass(frozen=True)
class DetectionResult:
    detected: bool
    start_sample: int
    score: float

    def __post_init__(self):
        if not self.detected and self.start_sample != -1:
            raise ValueError("undetected results must carry start_sample = -1")


def autocorr(y: ComplexSignal, tau: int, L: int) -> complex:
    """Lag-L complex correlation over an L-sample window starting at tau."""
    s = y.samples
    if tau < 0 or tau + 2 * L > len(s):
        raise ValueError("correlation window exceeds signal extent")
    return complex(np.sum(np.conj(s[tau:tau + L]) * s[tau + L:tau + 2 * L]))


def window_power(y: ComplexSignal, tau: int, L: int) -> float:
    """Energy of the second (lagged) half-window starting at tau."""
    s = y.samples
    if tau < 0 or tau + 2 * L > len(s):
        raise ValueError("power window exceeds signal extent")
    return float(np.sum(np.abs(s[tau + L:tau + 2 * L]) ** 2))


def timing_metric(y: ComplexSignal, tau: int, L: int) -> float:
    """M(tau) = |corr|^2 / power^2; 0 on degenerate all-zero windows."""
    p = window_power(y, tau, L)
    if p == 0.0:
        return 0.0
    lam = autocorr(y, tau, L)
    return float(abs(lam) ** 2 / p ** 2)


def metric_trace(y: ComplexSignal, lag: int, window: int | None = None) -> np.ndarray:
    """M(tau) for every feasible tau, from running sums of the lag products
    and of the lagged-window power (each window sum is a difference of two
    prefix sums)."""
    s = y.samples
    window = lag if window is None else window
    n_out = len(s) - lag - window + 1
    if n_out < 1:
        return np.zeros(0)
    z = np.conj(s[:len(s) - lag]) * s[lag:]
    w2 = np.abs(s[lag:]) ** 2
    cz = np.concatenate([[0.0], np.cumsum(z)])
    cw = np.concatenate([[0.0], np.cumsum(w2)])
    lam = cz[window:window + n_out] - cz[:n_out]
    p = cw[window:window + n_out] - cw[:n_out]
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

    The trigger requires M(tau) >= trigger_threshold for `trigger_dwell`
    consecutive samples; the peak search then covers the following
    2 * l_stf samples.
    """
    m = metric_trace(y, cfg.lag, cfg.window)
    dwell = max(1, cfg.trigger_dwell)
    if len(m) < dwell:
        return DetectionResult(False, -1, 0.0)
    above = (m >= cfg.trigger_threshold).astype(np.float64)
    runs = np.convolve(above, np.ones(dwell), mode="valid")
    hits = np.nonzero(runs >= dwell - 0.5)[0]
    if hits.size == 0:
        return DetectionResult(False, -1, 0.0)
    t0 = int(hits[0])
    region = m[t0:t0 + 2 * cfg.l_stf]
    peak = t0 + int(np.argmax(region))
    start = plateau_refine(m, peak, cfg.plateau_fraction)
    return DetectionResult(True, start, float(m[peak]))


def fine_detect(y: ComplexSignal, coarse: int, lts_ref: ComplexSignal,
                cfg: CorrDetectorConfig) -> int:
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
    ltf_extent = max(cfg.lts_offsets) + len(ref) - min(cfg.lts_offsets)
    lo = max(0, coarse + min(cfg.lts_offsets) - cfg.fine_search_span)
    hi = min(len(s), coarse + min(cfg.lts_offsets) + ltf_extent + cfg.fine_search_span)
    if hi - lo < len(ref):
        return int(coarse)
    corr = np.abs(np.correlate(s[lo:hi], ref, mode="valid"))
    peak_pos = lo + int(np.argmax(corr))
    candidates = np.array([peak_pos - off for off in cfg.lts_offsets])
    return int(candidates[np.argmin(np.abs(candidates - coarse))])


def detect(y: ComplexSignal, lts_ref: ComplexSignal,
           cfg: CorrDetectorConfig | None = None) -> DetectionResult:
    """Coarse + fine packet-start detection in one call."""
    cfg = cfg or CorrDetectorConfig()
    res = coarse_detect(y, cfg)
    if not res.detected:
        return res
    refined = fine_detect(y, res.start_sample, lts_ref, cfg)
    return DetectionResult(True, refined, res.score)
