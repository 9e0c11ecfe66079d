"""Channel impairments and receiver front end.

Applies multipath convolution, carrier frequency offset, a timing offset
and AWGN at a target SNR to the oversampled transmit stream, then undoes the
pulse shaping (matched filter + decimation) to recover the 1 MHz stream the
detectors operate on.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .preamble import ComplexSignal


@dataclass(frozen=True)
class ChannelTemplate:
    """Per-packet channel randomization knobs of the tx -> channel -> rx link."""

    os_factor: int = 4
    filter_taps: int = 48
    cfo_max_hz: float = 18_000.0  # +/-20 ppm at a 900 MHz carrier
    multipath: bool = True
    rms_delay_spread_ns: float = 80.0
    fractional_timing_offset: float = 0.0  # in oversampled samples, [0, 1)

    def __post_init__(self):
        if self.os_factor < 1 or self.filter_taps < 1:
            raise ValueError("os_factor and filter_taps must be at least 1")
        if not self.cfo_max_hz >= 0:
            raise ValueError("cfo_max_hz must be non-negative")
        if self.multipath and not self.rms_delay_spread_ns > 0:
            raise ValueError("rms_delay_spread_ns must be positive with multipath")
        if not 0 <= self.fractional_timing_offset < 1:
            raise ValueError("fractional_timing_offset must lie in [0, 1)")


@dataclass
class ChannelConfig:
    """Impairment parameters; taps are power-normalized at construction."""

    taps: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=np.complex128))
    snr_db: float = np.inf
    cfo_hz: float = 0.0
    timing_offset_samples: float = 0.0

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.complex128)
        power = (np.abs(taps) ** 2).sum()
        if power == 0:
            raise ValueError("channel taps must carry nonzero power")
        self.taps = taps / np.sqrt(power)
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")


@dataclass(frozen=True)
class RxFrontendConfig:
    """Matched filter (same taps as the transmit filter) + decimation."""

    matched_taps: np.ndarray
    os_factor: int

    def __post_init__(self):
        object.__setattr__(self, "matched_taps",
                           np.asarray(self.matched_taps, dtype=np.float64))


TRUNCATION_FACTOR = 5.0  # model-B profile length, in RMS delay spreads


def draw_model_b_taps(seed: int | np.random.Generator, os_rate_hz: float,
                      rms_delay_spread_ns: float = 80.0) -> np.ndarray:
    """One indoor multipath realization on the oversampled tap grid.

    Exponentially decaying power-delay profile with the given RMS delay
    spread, truncated at TRUNCATION_FACTOR times the spread, Rayleigh
    (circularly-symmetric Gaussian) taps, power-normalized to 1.
    """
    if os_rate_hz < 1e6:
        raise ValueError("os_rate_hz must be at least 1 MHz")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    scale = _model_b_tap_scale(os_rate_hz, rms_delay_spread_ns)
    h = scale * (rng.standard_normal(len(scale))
                 + 1j * rng.standard_normal(len(scale)))
    return h / np.sqrt((np.abs(h) ** 2).sum())


@functools.lru_cache(maxsize=16)
def _model_b_tap_scale(os_rate_hz: float, rms_delay_spread_ns: float) -> np.ndarray:
    """Per-tap amplitude sqrt(profile / 2) of the normalized power-delay
    profile (read-only: it is shared between calls)."""
    dt_ns = 1e9 / os_rate_hz
    delays = np.arange(0.0, TRUNCATION_FACTOR * rms_delay_spread_ns + 1e-9, dt_ns)
    profile = np.exp(-delays / rms_delay_spread_ns)
    profile /= profile.sum()
    scale = np.sqrt(profile / 2)
    scale.flags.writeable = False
    return scale


def apply_channel(sig: ComplexSignal, cfg: ChannelConfig,
                  rng: np.random.Generator | None = None,
                  signal_power: float | None = None,
                  span: tuple[int, int] | None = None) -> ComplexSignal:
    """Multipath + CFO + timing offset + AWGN, in that order.

    The channel is applied as a *linear* convolution with tail retention
    (a streaming receiver never sees the block-circular idealization).
    Noise variance is set against `signal_power` when one is given (the
    link passes the transmit signal's power, see StreamSimulator.receive);
    otherwise against the mean power of the clean convolved signal over its
    nonzero support, measured before the timing offset.  Either way the
    zero-padded stretches, the delay prefix included, carry pure white noise
    of the same variance.  A finite snr_db needs rng.

    Only the convolved support of the nonzero input samples is convolved
    and rotated: the zero stretches around it give exactly zero before the
    noise, so they carry noise only, and a zero input skips the convolution
    and the CFO altogether.  The convolution is one shifted multiply-add per
    tap; against a complex np.convolve it agrees to 1e-15 relative in
    float64 with multipath and bit for bit with a single tap.

    With span=(lo, hi), only output samples [lo, hi) are computed, from the
    input samples they depend on.  The noise is still drawn for the whole
    output, so the result equals that slice of the output without a span
    and rng is left in the same state.  A span needs signal_power.
    """
    x, taps = sig.samples, cfg.taps
    if len(x) == 0:
        raise ValueError("signal must be non-empty")
    if cfg.timing_offset_samples < 0:
        raise ValueError("timing_offset_samples must be non-negative")
    noisy = math.isfinite(cfg.snr_db)
    if noisy and rng is None:
        raise ValueError("a finite snr_db needs rng")
    n0 = math.floor(cfg.timing_offset_samples)
    frac = cfg.timing_offset_samples - n0
    delay = int(frac > 0)  # the fractional delay reads one earlier sample
    n_conv = len(x) + len(taps) - 1
    n_out = n_conv + n0
    lo, hi = (0, n_out) if span is None else span
    if not 0 <= lo <= hi <= n_out:
        raise ValueError(f"span must lie within [0, {n_out}]")
    if span is not None and signal_power is None and noisy:
        raise ValueError("a span needs an explicit signal_power")
    # convolved sample c feeds output c + n0 (and c + n0 + 1 when
    # fractionally delayed); outputs [lo, hi) read convolved [first, hi - n0)
    first = lo - n0 - delay
    nonzero = x != 0
    head = int(nonzero.argmax())
    i0 = i1 = 0  # the convolved support of the nonzero input, cut to that
    if nonzero[head]:
        i0 = max(first, head)
        i1 = min(hi - n0, len(x) - int(nonzero[::-1].argmax()) + len(taps) - 1)
    out = np.zeros(hi - lo, dtype=np.complex128)
    if i1 > i0:
        z = np.zeros(i1 - i0, dtype=np.complex128)
        for k, t in enumerate(taps):  # z[c] += taps[k] * x[c - k]
            j0, j1 = max(i0 - k, 0), min(i1 - k, len(x))
            if j1 > j0:
                z[j0 + k - i0:j1 + k - i0] += t * x[j0:j1]
        if cfg.cfo_hz != 0.0:
            # cos + i sin of the phase, which is what exp(2j*pi*f*n/fs)
            # computes: numpy divides a complex by a real as a multiply by
            # the reciprocal, so the phase is scaled by 1/fs, not divided
            phase = np.arange(i0, i1) * (2 * np.pi * cfg.cfo_hz)
            phase *= 1 / sig.sample_rate_hz
            rot = np.empty(len(phase), dtype=np.complex128)
            rot.real, rot.imag = np.cos(phase), np.sin(phase)
            z *= rot
        if signal_power is None and noisy:
            z_abs = np.abs(z)
            signal_power = float(np.mean(z_abs[z_abs > 0] ** 2))
        if delay:
            # first-order fractional delay; adequate on the oversampled grid
            padded = np.zeros(len(z) + 2, dtype=np.complex128)
            padded[1:-1] = z
            z = (1 - frac) * padded[1:] + frac * padded[:-1]
        # z now holds the outputs reading convolved [i0 - delay, i1)
        c0, c1 = max(i0 - delay, first), min(i1, hi - n0 - delay)
        out[c0 - first:c1 - first] = z[c0 - i0 + delay:c1 - i0 + delay]
    if noisy:
        # full-length draws keep every pinned dataset byte-identical
        re, im = rng.standard_normal(n_out), rng.standard_normal(n_out)
        # an all-zero input without signal_power has no reference: 0 noise
        add_noise(out, re[lo:hi], im[lo:hi], signal_power or 0.0, cfg.snr_db)
    return ComplexSignal(out, sig.sample_rate_hz)


def add_noise(out: np.ndarray, re: np.ndarray, im: np.ndarray,
              signal_power: float, snr_db: float) -> None:
    """Add complex white noise at snr_db against signal_power to out, in
    place, scaled from the unit normals re and im (out's length each): the
    noise variance is signal_power * 10^(-snr_db/10), split evenly between
    the real and imaginary parts.  A non-finite snr_db adds none."""
    if not math.isfinite(snr_db):
        return
    sigma2 = signal_power * 10.0 ** (-snr_db / 10.0)
    g = math.sqrt(sigma2 / 2)
    out.real += g * re
    out.imag += g * im


def rx_frontend(sig: ComplexSignal, cfg: RxFrontendConfig) -> ComplexSignal:
    """Matched filter, group-delay compensation, decimation to the base rate.

    Assumes the transmit interpolation filter had the same length and taps
    as `matched_taps` (DC gain = os_factor), so the combined tx+rx group
    delay is len(taps)-1 oversampled samples and the loopback output aligns
    sample-for-sample with the base-rate transmit stream.

    Polyphase decimation (Crochiere & Rabiner, *Multirate DSP*, 1983): only
    the kept outputs are computed, output k as the inner product of the
    reversed taps with input samples [k*os, k*os + len(taps)), zero past
    the end of the input.
    """
    h, os = cfg.matched_taps, cfg.os_factor
    n = -(-len(sig.samples) // os)
    y = np.zeros(n * os + len(h) - 1, dtype=np.complex128)
    y[:len(sig.samples)] = sig.samples
    windows = as_strided(y, shape=(n, len(h)),
                         strides=(os * y.itemsize, y.itemsize))
    out = windows @ (h[::-1] / os)
    return ComplexSignal(out, sig.sample_rate_hz / os)
