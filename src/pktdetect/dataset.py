"""Labeled-block dataset generation, splitting and persistence.

A dataset is one numpy record array of `record_dtype(block_len)`, the same
packed layout in memory and on disk.  Each record is a fixed-length
amplitude block |y| ("amp") tagged with the packet-start sample ("label",
-1 when the block holds no start), the SNR used for the simulation ("snr")
and the block kind ("kind": packet start / pure noise / packet
mid-or-tail).  Generation is deterministic given the spec seed: every block
draws from its own (seed, index) substream.
"""
from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .preamble import PREAMBLE_LEN
from .channel import ChannelTemplate
from .streams import StreamSimulator, StreamTrialConfig
# Unused here, kept because the benchmark's tracer (bench/tracing.py) swaps
# these four names in this module's namespace and fails if one is missing;
# the link looks them up in streams.
from .preamble import default_preamble_spec  # noqa: F401
from .channel import apply_channel, draw_model_b_taps, rx_frontend  # noqa: F401

FORMAT_VERSION = 1


class DatasetError(Exception):
    pass


class Kind(enum.IntEnum):
    START = 0
    NOISE_ONLY = 1
    MID_TAIL = 2


def record_dtype(block_len: int) -> np.dtype:
    """One labeled block: float32 amplitudes, label and SNR tag, uint8 kind."""
    return np.dtype([("amp", "<f4", (block_len,)), ("label", "<f4"),
                     ("snr", "<f4"), ("kind", "u1")], align=False)


@dataclass(frozen=True)
class DatasetSpec:
    block_len: int
    n_blocks: int = 50_000
    frac_no_start: float = 0.5
    frac_noise_within_no_start: float = 0.5
    snr_range_db: tuple = (0.0, 25.0)
    split: tuple = (0.70, 0.15, 0.15)
    seed: int = 0
    channel: ChannelTemplate = field(default_factory=ChannelTemplate)
    name: str = ""

    def __post_init__(self):
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        for f in (self.frac_no_start, self.frac_noise_within_no_start, *self.split):
            if not 0.0 <= f <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")
        if self.block_len < 1 or self.n_blocks < 1:
            raise ValueError("block_len and n_blocks must be positive")
        mid_tail_possible = (self.frac_no_start > 0
                             and self.frac_noise_within_no_start < 1)
        if mid_tail_possible and self.block_len > PREAMBLE_LEN:
            raise DatasetError(
                f"block_len {self.block_len} exceeds the NDP length "
                f"({PREAMBLE_LEN}); mid/tail blocks cannot be generated")
        if not self.name:
            object.__setattr__(self, "name", f"blocks{self.block_len}")

    def to_json(self) -> str:
        doc = asdict(self)
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "DatasetSpec":
        doc = json.loads(text)
        channel = ChannelTemplate(**doc.pop("channel", {}))
        doc["snr_range_db"] = tuple(doc.get("snr_range_db", (0.0, 25.0)))
        doc["split"] = tuple(doc.get("split", (0.70, 0.15, 0.15)))
        return cls(channel=channel, **doc)


def generate(spec: DatasetSpec) -> np.ndarray:
    """Generate the labeled blocks for one dataset spec.

    Each block is cut from one link stream: `block_len` samples of noise,
    the NDP, then `block_len + 16` more.
    """
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
        y = sim.receive(rng, snr, pre=b, post=b + 16).samples
        if kind == Kind.START:
            tau = int(rng.integers(0, b))
            blocks[i] = (np.abs(y[b - tau:2 * b - tau]), tau, snr, kind)
        else:
            w0 = int(rng.integers(b + 1, b + PREAMBLE_LEN + 1))
            blocks[i] = (np.abs(y[w0:w0 + b]), -1.0, snr, kind)
    return blocks


def split(blocks, fractions=(0.70, 0.15, 0.15), seed: int = 0):
    """Seeded stratified shuffle + contiguous partition into train/val/test.

    Blocks with and without a start label are interleaved at proportional
    positions, so each partition's class balance tracks the global balance.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
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


# -- file format --------------------------------------------------------------
# <name>.blocks.bin: the record array's bytes (record_dtype: little-endian,
# fixed stride, no padding).
# <name>.manifest.json: format version, block_len, record count, per-kind
# counts and the sha256 of the binary file.


def save(blocks: np.ndarray, path_prefix: str | Path,
         spec: DatasetSpec | None = None) -> None:
    path_prefix = Path(path_prefix)
    payload = blocks.tobytes()
    bin_path = path_prefix.with_name(path_prefix.name + ".blocks.bin")
    bin_path.write_bytes(payload)
    counts = np.bincount(blocks["kind"], minlength=len(Kind))
    manifest = {
        "format_version": FORMAT_VERSION,
        "block_len": blocks.dtype["amp"].shape[0],
        "n_records": len(blocks),
        "kind_counts": {k.name: int(counts[k]) for k in Kind},
        "sha256": hashlib.sha256(payload).hexdigest(),
        "spec": json.loads(spec.to_json()) if spec else None,
    }
    path_prefix.with_name(path_prefix.name + ".manifest.json").write_text(
        json.dumps(manifest, indent=1))


def _check_records(blocks: np.ndarray) -> None:
    amp, label, kind = blocks["amp"], blocks["label"], blocks["kind"]
    if not (np.isfinite(amp).all() and (amp >= 0).all()):
        raise DatasetError("amplitudes must be finite and non-negative")
    if not (np.isfinite(label).all() and np.isfinite(blocks["snr"]).all()):
        raise DatasetError("labels and SNR tags must be finite")
    if (kind > max(Kind)).any():
        raise DatasetError("unknown block kind code")
    if ((kind == Kind.START) != (label >= 0)).any():
        raise DatasetError("label >= 0 exactly for START blocks")


def load(path_prefix: str | Path):
    """Load a dataset file pair; returns (blocks, manifest dict)."""
    path_prefix = Path(path_prefix)
    man_path = path_prefix.with_name(path_prefix.name + ".manifest.json")
    bin_path = path_prefix.with_name(path_prefix.name + ".blocks.bin")
    try:
        manifest = json.loads(man_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read manifest {man_path}: {exc}") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DatasetError("unsupported dataset format version")
    try:
        payload = bin_path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {bin_path}: {exc}") from exc
    if hashlib.sha256(payload).hexdigest() != manifest["sha256"]:
        raise DatasetError("dataset checksum mismatch (corrupt or truncated file)")
    dtype = record_dtype(manifest["block_len"])
    if len(payload) != manifest["n_records"] * dtype.itemsize:
        raise DatasetError("record count disagrees with manifest")
    blocks = np.frombuffer(payload, dtype=dtype).copy()
    _check_records(blocks)
    return blocks, manifest
