"""802.11ah-style 1 MHz NDP preamble synthesis.

Builds the 14-symbol preamble (STF, LTF1, SIG, LTF2) as a discrete-time
complex-baseband signal at 1 MHz, plus oversampling / pulse-shape filtering
for transmission.  The subcarrier contents come from a `PreambleSpec`; the
default spec holds synthetic sequences that keep the structural properties
the detectors rely on (STF periodicity, repeated LTS) without transcribing
standard tables.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

BASE_RATE_HZ = 1_000_000.0
N_SUBCARRIERS = 32  # 31.25 kHz subcarrier spacing at BASE_RATE_HZ
CP_LEN = 8          # cyclic prefix: an 8 us guard, so a 40 us symbol
PREAMBLE_LEN = 560
STF_LEN = 160
LTS_CORE_LEN = 32
# LTF1 layout: a 32-sample guard copy followed by two 64-sample LTS periods,
# each LTS period being two repeats of the 32-sample LTS core.  The field is
# therefore five back-to-back copies of the core, starting at these offsets
# (relative to the preamble start).
LTS_CORE_OFFSETS = (160, 192, 224, 256, 288)
ROLLOFF = 0.35  # of the root-raised-cosine pulse shape


@dataclass(frozen=True)
class ComplexSignal:
    """Discrete-time complex-baseband samples with a sample-rate tag."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.complex128))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class PreambleSpec:
    """Frequency-domain contents of the four preamble fields."""

    stf_freq: np.ndarray
    ltf_freq: np.ndarray
    sig_freq: np.ndarray
    ltf2_freq: np.ndarray

    def __post_init__(self):
        for name in ("stf_freq", "ltf_freq", "sig_freq", "ltf2_freq"):
            vec = np.asarray(getattr(self, name), dtype=np.complex128)
            object.__setattr__(self, name, vec)
            if vec.shape != (N_SUBCARRIERS,):
                raise ValueError(f"{name} must have length {N_SUBCARRIERS}")
        populated = np.nonzero(self.stf_freq)[0]
        if populated.size == 0 or np.any(populated % 4 != 0):
            raise ValueError("stf_freq may only populate every 4th bin")


def _idft(freq: np.ndarray) -> np.ndarray:
    # 1/sqrt(N) normalization: time-domain energy equals frequency-domain energy.
    # Transforms along the last axis, so one call takes a batch of spectra.
    return np.fft.ifft(freq) * np.sqrt(N_SUBCARRIERS)


def ofdm_symbol(freq: np.ndarray) -> ComplexSignal:
    """One cyclic-prefixed OFDM symbol (40 samples at 1 MHz).

    The cyclic prefix copies the last CP_LEN IDFT outputs; the IDFT is
    scaled by 1/sqrt(N) so Parseval holds between domains.
    """
    freq = np.asarray(freq, dtype=np.complex128)
    if freq.shape != (N_SUBCARRIERS,):
        raise ValueError(f"freq must have length {N_SUBCARRIERS}")
    body = _idft(freq)
    samples = np.concatenate([body[-CP_LEN:], body])
    return ComplexSignal(samples, BASE_RATE_HZ)


def lts_core(spec: PreambleSpec) -> ComplexSignal:
    """The 32-sample long-training-symbol core used for fine timing."""
    return ComplexSignal(_idft(spec.ltf_freq), BASE_RATE_HZ)


def build_preamble(spec: PreambleSpec | None = None) -> ComplexSignal:
    """Full 14-symbol NDP preamble: 560 samples at 1 MHz.

    Field layout: 4 STF symbols [0,160), LTF1 [160,320) as guard + two LTS
    periods, 1 SIG symbol [320,360), 5 filler symbols [360,560).
    """
    spec = spec or default_preamble_spec()
    stf = np.tile(ofdm_symbol(spec.stf_freq).samples, 4)

    core = _idft(spec.ltf_freq)
    lts64 = np.tile(core, 2)
    ltf1 = np.concatenate([lts64[-LTS_CORE_LEN:], lts64, lts64])

    sig = ofdm_symbol(spec.sig_freq).samples
    ltf2 = np.tile(ofdm_symbol(spec.ltf2_freq).samples, 5)

    samples = np.concatenate([stf, ltf1, sig, ltf2])
    assert len(samples) == PREAMBLE_LEN
    return ComplexSignal(samples, BASE_RATE_HZ)


def _unit_power_scale(n_bins: int) -> float:
    # Scale unit-magnitude bins so each field has unit mean sample power.
    return np.sqrt(N_SUBCARRIERS / n_bins)


# Occupied bins for the wideband fields: every nonzero bin except DC.
_WIDEBAND_BINS = tuple(range(1, N_SUBCARRIERS))
_STF_BINS = (4, 8, 12, 20, 24, 28)


def _low_papr_bpsk(bins, seed: int, n_trials: int = 4096) -> np.ndarray:
    """Seeded search for a +/-1 bin pattern with low time-domain PAPR: the
    first of n_trials random patterns with the lowest PAPR.

    Patterns are drawn and transformed 128 at a time, which keeps the
    temporaries small; one draw of shape (k, m) continues the random stream
    exactly as k draws of m would.
    """
    rng = np.random.default_rng(seed)
    best, best_papr = None, np.inf
    for start in range(0, n_trials, 128):
        freq = np.zeros((min(128, n_trials - start), N_SUBCARRIERS),
                        dtype=np.complex128)
        freq[:, list(bins)] = rng.choice([-1.0, 1.0],
                                         size=(len(freq), len(bins)))
        power = np.abs(_idft(freq)) ** 2
        papr = power.max(axis=1) / power.mean(axis=1)
        i = np.argmin(papr)
        if papr[i] < best_papr:
            best, best_papr = freq[i], papr[i]
    return best * _unit_power_scale(len(bins))


def default_preamble_spec() -> PreambleSpec:
    """The synthetic default preamble spec (fixed seeds, fully deterministic).

    STF populates bins {+/-4, +/-8, +/-12} with QPSK values: every bin a
    multiple of 4 of the 32-point IDFT, so the STF is periodic with 32/4 =
    8 samples (20 short-training-symbol repeats across 160 samples).  LTF/SIG/LTF2 carry +/-1 values on bins +/-1..13; the LTF signs
    come from a seeded low-PAPR search.  The spec is built once per process
    (the search's 4096 IDFT trials cost milliseconds), and each call returns
    a new spec holding its own copies of the arrays.
    """
    spec = _default_spec()
    return PreambleSpec(spec.stf_freq.copy(), spec.ltf_freq.copy(),
                        spec.sig_freq.copy(), spec.ltf2_freq.copy())


@functools.cache
def _default_spec() -> PreambleSpec:
    """default_preamble_spec's one build; its arrays are never handed out."""
    rng = np.random.default_rng(7)
    qpsk = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, size=len(_STF_BINS))))
    stf = np.zeros(N_SUBCARRIERS, dtype=np.complex128)
    stf[list(_STF_BINS)] = qpsk * _unit_power_scale(len(_STF_BINS))

    ltf = _low_papr_bpsk(_WIDEBAND_BINS, seed=11)

    def bpsk(seed):
        r = np.random.default_rng(seed)
        freq = np.zeros(N_SUBCARRIERS, dtype=np.complex128)
        freq[list(_WIDEBAND_BINS)] = r.choice([-1.0, 1.0], size=len(_WIDEBAND_BINS))
        return freq * _unit_power_scale(len(_WIDEBAND_BINS))

    return PreambleSpec(stf_freq=stf, ltf_freq=ltf, sig_freq=bpsk(13), ltf2_freq=bpsk(17))


def design_interp_filter(os_factor: int, n_taps: int = 48) -> np.ndarray:
    """Root-raised-cosine pulse-shape filter (roll-off ROLLOFF) for
    zero-stuffed interpolation.

    The transmit filter and the receiver's matched ("reverse pulse-shape")
    filter use the same taps; their cascade is a raised-cosine Nyquist pulse,
    so a clean loopback reproduces the base-rate samples up to truncation
    error.  Taps are scaled to DC gain `os_factor` so constant amplitude is
    preserved through interpolation.
    """
    if os_factor < 1:
        raise ValueError("os_factor must be >= 1")
    if os_factor == 1:
        return np.ones(1)
    t = (np.arange(n_taps) - (n_taps - 1) / 2) / os_factor
    h = np.empty(n_taps)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            h[i] = 1 - ROLLOFF + 4 * ROLLOFF / np.pi
        elif abs(abs(ti) - 1 / (4 * ROLLOFF)) < 1e-9:
            h[i] = (ROLLOFF / np.sqrt(2)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * ROLLOFF))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * ROLLOFF)))
        else:
            h[i] = ((np.sin(np.pi * ti * (1 - ROLLOFF))
                     + 4 * ROLLOFF * ti * np.cos(np.pi * ti * (1 + ROLLOFF)))
                    / (np.pi * ti * (1 - (4 * ROLLOFF * ti) ** 2)))
    return h * (os_factor / h.sum())


def upsample_filter(sig: ComplexSignal, os_factor: int,
                    filter_taps: np.ndarray) -> ComplexSignal:
    """Zero-stuff by `os_factor` then FIR-filter (full convolution).

    Output length is len(sig)*os_factor + len(taps) - 1; the filter group
    delay is (len(taps)-1)/2 oversampled samples, compensated later by the
    receiver front end.
    """
    if os_factor < 1:
        raise ValueError("os_factor must be >= 1")
    taps = np.asarray(filter_taps, dtype=np.float64)
    stuffed = np.zeros(len(sig.samples) * os_factor, dtype=np.complex128)
    stuffed[::os_factor] = sig.samples
    out = np.convolve(stuffed, taps)
    return ComplexSignal(out, sig.sample_rate_hz * os_factor)
