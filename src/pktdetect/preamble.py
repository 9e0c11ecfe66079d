"""802.11ah-style 1 MHz NDP preamble synthesis.

Builds the 14-symbol preamble (STF, LTF1, SIG, LTF2) as a discrete-time
complex-baseband signal at 1 MHz, plus oversampling / pulse-shape filtering
for transmission.  Subcarrier contents are loaded from a JSON spec file; the
default spec ships synthetic sequences that keep the structural properties
the detectors rely on (STF periodicity, repeated LTS) without transcribing
standard tables.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BASE_RATE_HZ = 1_000_000.0
N_SUBCARRIERS = 32
PREAMBLE_LEN = 560
STF_LEN = 160
LTF1_LEN = 160
LTS_CORE_LEN = 32
# LTF1 layout: a 32-sample guard copy followed by two 64-sample LTS periods,
# each LTS period being two repeats of the 32-sample LTS core.  The field is
# therefore five back-to-back copies of the core, starting at these offsets
# (relative to the preamble start).
LTS_CORE_OFFSETS = (160, 192, 224, 256, 288)


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
class OfdmParams:
    n_subcarriers: int = 32
    subcarrier_spacing_hz: float = 31_250.0
    cp_duration_us: float = 8.0
    symbol_duration_us: float = 40.0
    base_sample_rate_hz: float = 1_000_000.0

    def __post_init__(self):
        if abs(self.base_sample_rate_hz - self.n_subcarriers * self.subcarrier_spacing_hz) > 1e-6:
            raise ValueError("base sample rate must equal n_subcarriers * subcarrier spacing")
        if abs(self.symbol_duration_us - (self.cp_duration_us + self.n_subcarriers
                                          / (self.base_sample_rate_hz / 1e6))) > 1e-9:
            raise ValueError("symbol duration must equal CP duration plus IDFT duration")

    @property
    def cp_samples(self) -> int:
        return int(round(self.cp_duration_us * self.base_sample_rate_hz / 1e6))

    @property
    def symbol_samples(self) -> int:
        return self.cp_samples + self.n_subcarriers


@dataclass(frozen=True)
class PreambleSpec:
    """Frequency-domain contents of the four preamble fields."""

    stf_freq: np.ndarray
    ltf_freq: np.ndarray
    sig_freq: np.ndarray
    ltf2_freq: np.ndarray
    n_stf_symbols: int = 4
    n_ltf1_symbols: int = 4

    def __post_init__(self):
        for name in ("stf_freq", "ltf_freq", "sig_freq", "ltf2_freq"):
            vec = np.asarray(getattr(self, name), dtype=np.complex128)
            object.__setattr__(self, name, vec)
            if vec.shape != (N_SUBCARRIERS,):
                raise ValueError(f"{name} must have length {N_SUBCARRIERS}")
        populated = np.nonzero(self.stf_freq)[0]
        if populated.size == 0 or np.any(populated % 4 != 0):
            raise ValueError("stf_freq may only populate every 4th bin")


def _idft(freq: np.ndarray, n: int = N_SUBCARRIERS) -> np.ndarray:
    # 1/sqrt(N) normalization: time-domain energy equals frequency-domain energy.
    # Transforms along the last axis, so one call takes a batch of spectra.
    return np.fft.ifft(freq) * np.sqrt(n)


def ofdm_symbol(freq: np.ndarray, params: OfdmParams | None = None) -> ComplexSignal:
    """One cyclic-prefixed OFDM symbol (40 samples at 1 MHz).

    The cyclic prefix copies the last `cp_samples` IDFT outputs; the IDFT is
    scaled by 1/sqrt(N) so Parseval holds between domains.
    """
    params = params or OfdmParams()
    freq = np.asarray(freq, dtype=np.complex128)
    if freq.shape != (params.n_subcarriers,):
        raise ValueError(f"freq must have length {params.n_subcarriers}")
    body = _idft(freq, params.n_subcarriers)
    samples = np.concatenate([body[-params.cp_samples:], body])
    return ComplexSignal(samples, params.base_sample_rate_hz)


def lts_core(spec: PreambleSpec, params: OfdmParams | None = None) -> ComplexSignal:
    """The 32-sample long-training-symbol core used for fine timing."""
    params = params or OfdmParams()
    return ComplexSignal(_idft(spec.ltf_freq, params.n_subcarriers), params.base_sample_rate_hz)


def build_preamble(spec: PreambleSpec | None = None,
                   params: OfdmParams | None = None) -> ComplexSignal:
    """Full 14-symbol NDP preamble: 560 samples at 1 MHz.

    Field layout: 4 STF symbols [0,160), LTF1 [160,320) as guard + two LTS
    periods, 1 SIG symbol [320,360), 5 filler symbols [360,560).
    """
    spec = spec or default_preamble_spec()
    params = params or OfdmParams()
    stf_sym = ofdm_symbol(spec.stf_freq, params).samples
    stf = np.tile(stf_sym, spec.n_stf_symbols)

    core = _idft(spec.ltf_freq, params.n_subcarriers)
    lts64 = np.tile(core, 2)
    ltf1 = np.concatenate([lts64[-LTS_CORE_LEN:], lts64, lts64])

    sig = ofdm_symbol(spec.sig_freq, params).samples
    ltf2 = np.tile(ofdm_symbol(spec.ltf2_freq, params).samples, 5)

    samples = np.concatenate([stf, ltf1, sig, ltf2])
    assert len(samples) == PREAMBLE_LEN
    return ComplexSignal(samples, params.base_sample_rate_hz)


def _unit_power_scale(n_bins: int, n: int = N_SUBCARRIERS) -> float:
    # Scale unit-magnitude bins so each field has unit mean sample power.
    return np.sqrt(n / n_bins)


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

    STF populates bins {+/-4, +/-8, +/-12} with QPSK values, so the STF is
    periodic with 16 samples (10 short-training-symbol repeats across 160
    samples).  LTF/SIG/LTF2 carry +/-1 values on bins +/-1..13; the LTF signs
    come from a seeded low-PAPR search.
    """
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


def save_preamble_spec(spec: PreambleSpec, path: str | Path) -> None:
    def pairs(vec):
        return [[float(v.real), float(v.imag)] for v in vec]

    doc = {
        "n": N_SUBCARRIERS,
        "stf_freq": pairs(spec.stf_freq),
        "ltf_freq": pairs(spec.ltf_freq),
        "sig_freq": pairs(spec.sig_freq),
        "ltf2_freq": pairs(spec.ltf2_freq),
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_preamble_spec(path: str | Path) -> PreambleSpec:
    doc = json.loads(Path(path).read_text())
    if doc.get("n") != N_SUBCARRIERS:
        raise ValueError(f"preamble spec must have n={N_SUBCARRIERS}")

    def vec(key):
        arr = np.array(doc[key], dtype=np.float64)
        return arr[:, 0] + 1j * arr[:, 1]

    return PreambleSpec(stf_freq=vec("stf_freq"), ltf_freq=vec("ltf_freq"),
                        sig_freq=vec("sig_freq"), ltf2_freq=vec("ltf2_freq"))


def design_interp_filter(os_factor: int, n_taps: int = 48,
                         rolloff: float = 0.35) -> np.ndarray:
    """Root-raised-cosine pulse-shape filter for zero-stuffed interpolation.

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
    if not 0 < rolloff <= 1:
        raise ValueError("rolloff must lie in (0, 1]")
    t = (np.arange(n_taps) - (n_taps - 1) / 2) / os_factor
    h = np.empty(n_taps)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            h[i] = 1 - rolloff + 4 * rolloff / np.pi
        elif abs(abs(ti) - 1 / (4 * rolloff)) < 1e-9:
            h[i] = (rolloff / np.sqrt(2)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * rolloff))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * rolloff)))
        else:
            h[i] = ((np.sin(np.pi * ti * (1 - rolloff))
                     + 4 * rolloff * ti * np.cos(np.pi * ti * (1 + rolloff)))
                    / (np.pi * ti * (1 - (4 * rolloff * ti) ** 2)))
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
