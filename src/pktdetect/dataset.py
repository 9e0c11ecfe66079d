"""Labeled-block dataset generation, splitting and persistence.

A dataset is one numpy record array of `record_dtype(block_len)`, the same
packed layout in memory and on disk.  Each record is a fixed-length
amplitude block |y| ("amp") tagged with the packet-start sample ("label",
-1 when the block holds no start), the SNR used for the simulation ("snr")
and the block kind ("kind": packet start / pure noise / packet
mid-or-tail).  Generation is deterministic given the spec seed: every block
draws from its own (seed, index) substream.  It runs CHUNK_BLOCKS blocks
at a time: first each block makes its draws, then the chunk's blocks are
computed together as rows of 2-D arrays, each for only the samples it
keeps.  The caller and its forked workers (`forked.worker_count`) each
make a stride of the chunks into a record array they share, and the bytes
do not depend on the worker count (see `generate`).
"""
from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import forked
from .preamble import PREAMBLE_LEN
from .channel import (ChannelTemplate, check_snr_range, model_b_tap_scale,
                      model_b_taps, set_int_fields)
from .streams import LinkDraw, StreamSimulator, StreamTrialConfig
# Unused here, kept because the benchmark's tracer (bench/tracing.py) swaps
# these four names in this module's namespace and fails if one is missing;
# the link looks them up in streams.
from .preamble import default_preamble_spec  # noqa: F401
from .channel import apply_channel, draw_model_b_taps, rx_frontend  # noqa: F401

FORMAT_VERSION = 1
# blocks computed together by generate: enough to spread the per-call cost
# of the link over many blocks, few enough that each of the chunk's 2-D
# temporaries stays near 350 kB at block_len 160, in cache and off the peak
# resident size
CHUNK_BLOCKS = 32


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
    split: tuple = (0.70, 0.15, 0.15)  # train / validation / test
    seed: int = 0
    channel: ChannelTemplate = field(default_factory=ChannelTemplate)
    name: str = ""

    def __post_init__(self):
        _check_split(self.split)
        for f in (self.frac_no_start, self.frac_noise_within_no_start, *self.split):
            if not 0.0 <= f <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")
        set_int_fields(self, {"block_len": 1, "n_blocks": 1, "seed": 0})
        check_snr_range(self.snr_range_db)
        mid_tail_possible = (self.frac_no_start > 0
                             and self.frac_noise_within_no_start < 1)
        if mid_tail_possible and self.block_len > PREAMBLE_LEN:
            raise DatasetError(
                f"block_len {self.block_len} exceeds the NDP length "
                f"({PREAMBLE_LEN}); mid/tail blocks cannot be generated")
        if not self.name:
            object.__setattr__(self, "name", f"blocks{self.block_len}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "DatasetSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError("a dataset spec is a JSON object")
        channel = ChannelTemplate(**doc.pop("channel", {}))
        for key in ("snr_range_db", "split"):  # JSON lists
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(channel=channel, **doc)


def worker_count(spec: DatasetSpec) -> int:
    """The worker processes `generate` forks for spec, beside this process:
    forked.worker_count of its chunks."""
    return forked.worker_count(-(-spec.n_blocks // CHUNK_BLOCKS))


def generate(spec: DatasetSpec) -> np.ndarray:
    """Generate the labeled blocks for one dataset spec.

    Each block is cut from one link stream: `block_len` samples of noise,
    the NDP, then `block_len + 16` more.  Blocks are made CHUNK_BLOCKS at a
    time (see `_Chunker`), by n processes into one record array in shared
    memory: this process makes chunks 0, n, 2n, ... while forked worker k
    (`forked.run`, n - 1 = `worker_count` of them) makes chunks 1 + k,
    1 + k + n, ...; with n = 1 nothing forks.  Every block draws from its
    own (seed, index) substream and a row's arithmetic is that of its
    stream simulated alone, so the bytes depend neither on the chunking nor
    on the worker count.
    """
    import mmap  # here, not at import time, which every CLI call pays for
    sim = StreamSimulator(StreamTrialConfig(channel=spec.channel))
    dtype = record_dtype(spec.block_len)
    # shared memory: chunks sent back in frames, as the sweep's, ran slower
    blocks = np.frombuffer(mmap.mmap(-1, spec.n_blocks * dtype.itemsize),
                           dtype=dtype)
    starts = range(0, spec.n_blocks, CHUNK_BLOCKS)
    n = worker_count(spec) + 1

    def fill(own):  # one process's chunks, with its own buffers
        chunker = _Chunker(spec, sim)
        for c0 in own:
            chunker.fill(blocks[c0:c0 + CHUNK_BLOCKS], c0)

    forked.run(n - 1, lambda k, send: fill(starts[1 + k::n]),
               lambda receive: fill(starts[::n]), "generate")
    return blocks


class _Chunker:
    """`generate`'s work on one chunk, with one process's reusable buffers.

    A chunk is made in two phases:

    - draws: each block draws from its own (seed, index) substream, in the
      order of a whole-stream simulation: SNR, kind, then for a START or
      MID_TAIL block the CFO, the multipath tap normals, the two
      full-length unit-noise vectors (one fill of a (2, n) buffer, the same
      stream as two) and the window position (tau or w0), for a NOISE_ONLY
      block two block-length unit-noise vectors;
    - compute: the chunk's taps are shaped together (channel.model_b_taps),
      its START and MID_TAIL blocks run through the channel and the rx
      front end together, one row each, for only the block_len rx samples
      each keeps (the channel output under them and that slice of its
      noise), and the NOISE_ONLY blocks are scaled together.
    """

    def __init__(self, spec: DatasetSpec, sim: StreamSimulator):
        self.spec, self.sim = spec, sim
        tpl, b = spec.channel, spec.block_len
        self.tx = sim.tx_stream(pre=b, post=b + 16)
        n_taps = (len(model_b_tap_scale(sim.os_rate, tpl.rms_delay_spread_ns))
                  if tpl.multipath else 1)
        # channel output samples under b rx samples, from the window's first
        self.width = (b - 1) * tpl.os_factor + len(sim.taps)
        self.unit = np.empty((CHUNK_BLOCKS, 2, self.width))  # under each window
        self.unit_noise = np.empty((CHUNK_BLOCKS, 2, b))  # of NOISE_ONLY blocks
        self.normals = np.empty((CHUNK_BLOCKS, 2, n_taps))  # raw tap normals
        self.cfo = np.zeros(CHUNK_BLOCKS)
        # one stream's two full-length noise vectors
        self.full = np.empty((2, len(self.tx) + n_taps - 1))

    def fill(self, chunk: np.ndarray, c0: int) -> None:
        """Make blocks c0, c0 + 1, ... into the record array chunk."""
        spec, sim, tpl = self.spec, self.sim, self.spec.channel
        b, osf, width = spec.block_len, tpl.os_factor, self.width
        unit, unit_noise, full = self.unit, self.unit_noise, self.full
        # plain ints: an enum member lookup costs microseconds per block
        START, NOISE_ONLY, MID_TAIL = map(int, (Kind.START, Kind.NOISE_ONLY,
                                                Kind.MID_TAIL))
        n = len(chunk)
        snr, label = np.empty(n), np.full(n, -1.0)
        kind = np.empty(n, dtype=np.uint8)
        lo = []  # window start per link block, in chunk order
        g_noise = []  # noise scale per NOISE_ONLY block, in chunk order
        for r in range(n):
            rng = np.random.default_rng((spec.seed, c0 + r))
            snr[r] = s = float(rng.uniform(*spec.snr_range_db))
            if rng.uniform() < spec.frac_no_start:
                k = (NOISE_ONLY if rng.uniform() < spec.frac_noise_within_no_start
                     else MID_TAIL)
            else:
                k = START
            kind[r] = k
            if k == NOISE_ONLY:
                rng.standard_normal(out=unit_noise[len(g_noise)])
                g_noise.append(np.sqrt(sim.noise_sigma2(s) / 2))
                continue
            j = len(lo)
            self.cfo[j], _ = sim.draw_channel(rng, self.normals[j])
            rng.standard_normal(out=full)
            if k == START:
                tau = int(rng.integers(0, b))
                w0, label[r] = b - tau, tau
            else:
                w0 = int(rng.integers(b + 1, b + PREAMBLE_LEN + 1))
            unit[j] = full[:, w0 * osf:w0 * osf + width]
            lo.append(w0 * osf)
        noise_only = kind == NOISE_ONLY
        if lo:
            lo, m = np.array(lo), len(lo)
            taps = (model_b_taps(self.normals[:m], sim.os_rate,
                                 tpl.rms_delay_spread_ns)
                    if tpl.multipath else np.ones((m, 1)))
            clean = sim.channel(self.tx, self.cfo[:m], taps, lo, lo + width)
            link = LinkDraw(b, True, clean, (unit[:m, 0], unit[:m, 1]), b)
            rx = sim.rx_stream(link, snr[~noise_only])
            chunk["amp"][~noise_only] = np.abs(rx.samples)
        if g_noise:
            re, im = unit_noise[:len(g_noise), 0], unit_noise[:len(g_noise), 1]
            w = np.array(g_noise)[:, None] * (re + 1j * im)
            chunk["amp"][noise_only] = np.abs(w)
        chunk["label"], chunk["snr"], chunk["kind"] = label, snr, kind


def _check_split(fractions) -> None:
    """ValueError unless fractions are three that sum to 1."""
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split must be three fractions that sum to 1")


PARTS = ("training", "validation", "test")


def split(blocks, fractions, seed: int, parts=PARTS):
    """Seeded stratified shuffle + contiguous partition into train/val/test.

    Blocks with and without a start label are interleaved at proportional
    positions, so each partition's class balance tracks the global balance.
    Returns the partitions named in parts (of PARTS), in that order; only
    those are copied out of blocks.
    """
    _check_split(fractions)
    wanted = [PARTS.index(p) for p in parts]
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
    cuts = (0, int(np.floor(fractions[0] * n)),
            int(np.floor((fractions[0] + fractions[1]) * n)), n)
    return tuple(blocks[order[cuts[i]:cuts[i + 1]]] for i in wanted)


# -- file format --------------------------------------------------------------
# <name>.blocks.bin: the record array's bytes (record_dtype: little-endian,
# fixed stride, no padding).
# <name>.manifest.json: format version, block_len, record count, per-kind
# counts, the sha256 of the binary file and the spec it was generated from.


def save(blocks: np.ndarray, path_prefix: str | Path,
         spec: DatasetSpec) -> None:
    """Write blocks and their manifest as the file format above says.

    The file and its sha256 are those of blocks.tobytes(), but written and
    hashed from the record array's own buffer, so a C-contiguous array
    (what generate returns, a shared mmap included) is never copied; any
    other layout is copied once, into C order.
    """
    path_prefix = Path(path_prefix)
    payload = memoryview(np.ascontiguousarray(blocks)).cast("B")
    bin_path = path_prefix.with_name(path_prefix.name + ".blocks.bin")
    bin_path.write_bytes(payload)
    counts = np.bincount(blocks["kind"], minlength=len(Kind))
    manifest = {
        "format_version": FORMAT_VERSION,
        "block_len": blocks.dtype["amp"].shape[0],
        "n_records": len(blocks),
        "kind_counts": {k.name: int(counts[k]) for k in Kind},
        "sha256": hashlib.sha256(payload).hexdigest(),
        "spec": json.loads(spec.to_json()),
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
    if (not isinstance(manifest, dict)
            or manifest.get("format_version") != FORMAT_VERSION
            or not {"block_len", "n_records", "sha256"} <= manifest.keys()):
        raise DatasetError(f"{man_path} is not a dataset manifest of format "
                           f"version {FORMAT_VERSION}")
    for key, least in (("block_len", 1), ("n_records", 0)):
        if type(manifest[key]) is not int or manifest[key] < least:
            raise DatasetError(f"{man_path}: {key} must be an integer of at "
                               f"least {least}, not {manifest[key]!r}")
    # read once, into the writable buffer the records are then a view of
    try:
        with open(bin_path, "rb") as f:
            payload = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
            n_read = f.readinto(payload)
    except OSError as exc:
        raise DatasetError(f"cannot read {bin_path}: {exc}") from exc
    if (n_read != payload.size
            or hashlib.sha256(payload).hexdigest() != manifest["sha256"]):
        raise DatasetError("dataset checksum mismatch (corrupt or truncated file)")
    dtype = record_dtype(manifest["block_len"])
    if payload.size != manifest["n_records"] * dtype.itemsize:
        raise DatasetError("record count disagrees with manifest")
    blocks = payload.view(dtype)
    _check_records(blocks)
    return blocks, manifest
