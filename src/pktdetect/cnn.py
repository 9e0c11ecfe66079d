"""1D-CNN packet-start detector.

One network for every block length B, fixed by the module constants: two
ReLU convolution layers (9 filters of length 8, then 5 filters of length
3), a 3-neuron ReLU dense layer and a linear scalar output.  A B-sample
amplitude block is framed into 4 input channels; the scalar regression
output is turned into a presence decision by thresholding against the
midpoint between the no-packet label (-1) and the smallest start label
(0).  B and the input normalization are the only settings.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn

BLOCK_LENGTHS = (40, 80, 160, 320, 800, 1600)

IN_CHANNELS = 4
CONV1_FILTERS = 9
CONV1_FILTER_LEN = 8  # framed steps: 32 input samples, four STF periods
CONV2_FILTERS = 5
CONV2_FILTER_LEN = 3
FC_NEURONS = 3
NO_PACKET_LABEL = -1.0
DETECT_THRESHOLD = -0.5
# the shortest block both valid convolutions leave an output for
MIN_BLOCK_LEN = IN_CHANNELS * (CONV1_FILTER_LEN + CONV2_FILTER_LEN - 1)
# indexed by the checkpoint flag: `train` builds "raw", and the acceptance
# gates train criteria 5 and 6 with "rms"
NORMALIZE_MODES = ("raw", "rms")

_MAGIC = b"PKTCNN1\0"
_CKPT_VERSION = 1
# the architecture fields of a checkpoint header, in header order
_ARCH = {"in_channels": IN_CHANNELS, "conv1_filters": CONV1_FILTERS,
         "conv1_filter_len": CONV1_FILTER_LEN, "conv2_filters": CONV2_FILTERS,
         "conv2_filter_len": CONV2_FILTER_LEN, "fc_neurons": FC_NEURONS}


@dataclass(frozen=True)
class CnnDetectorConfig:
    block_len: int = 160
    normalize: str = "raw"

    def __post_init__(self):
        if self.block_len % IN_CHANNELS or self.block_len < MIN_BLOCK_LEN:
            raise ValueError(f"block_len must be a multiple of {IN_CHANNELS} "
                             f"and at least {MIN_BLOCK_LEN}, not {self.block_len}")
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError("normalize must be 'rms' or 'raw'")

    def layer_widths(self) -> dict:
        """Valid-convolution width arithmetic (K = T - F + 1) per layer."""
        t = self.block_len // IN_CHANNELS
        k1 = t - CONV1_FILTER_LEN + 1
        k2 = k1 - CONV2_FILTER_LEN + 1
        return {"T": t, "K1": k1, "K2": k2, "flatten": CONV2_FILTERS * k2}

    def n_params(self) -> int:
        """Weights plus biases of the network, layer by layer."""
        return (CONV1_FILTERS * (IN_CHANNELS * CONV1_FILTER_LEN + 1)
                + CONV2_FILTERS * (CONV1_FILTERS * CONV2_FILTER_LEN + 1)
                + FC_NEURONS * (self.layer_widths()["flatten"] + 1)
                + FC_NEURONS + 1)


@dataclass
class CnnModel:
    cfg: CnnDetectorConfig
    net: nn.Sequential


def block_to_channels(block: np.ndarray, in_channels: int) -> np.ndarray:
    """Frame-of-N reshape: channel c at step t holds block[N*t + c]."""
    block = np.asarray(block)
    if block.shape[-1] % in_channels != 0:
        raise ValueError("block length must be divisible by in_channels")
    # works on [B] or batched [n, B] inputs
    shape = block.shape[:-1] + (block.shape[-1] // in_channels, in_channels)
    return np.swapaxes(block.reshape(shape), -1, -2)


def build_model(cfg: CnnDetectorConfig, seed: int = 0) -> CnnModel:
    """The fixed detection network with seeded initialization.

    The output bias starts at the no-packet label, so an untrained model
    predicts "no packet" for every block and the false-alarm rate starts at
    zero rather than one.
    """
    rng = np.random.default_rng(seed)
    net = nn.Sequential([
        nn.Conv1d(IN_CHANNELS, CONV1_FILTERS, CONV1_FILTER_LEN, rng),
        nn.Relu(),
        nn.Conv1d(CONV1_FILTERS, CONV2_FILTERS, CONV2_FILTER_LEN, rng),
        nn.Relu(),
        nn.Flatten(),
        nn.Dense(cfg.layer_widths()["flatten"], FC_NEURONS, "he", rng),
        nn.Relu(),
        nn.Dense(FC_NEURONS, 1, "xavier", rng),
    ])
    net.layers[-1].b[...] = NO_PACKET_LABEL
    return CnnModel(cfg, net)


def prepare_inputs(blocks: np.ndarray, cfg: CnnDetectorConfig) -> np.ndarray:
    """Amplitude blocks [n, B] -> network inputs [n, C, T], a new
    C-contiguous float64 array framed as block_to_channels frames.

    In "rms" mode each block is scaled to unit RMS first; "raw" mode keeps
    the amplitudes (and hence the received-power cue) intact.
    """
    x = np.asarray(blocks)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != cfg.block_len:
        raise ValueError(f"blocks must have length {cfg.block_len}")
    # block_to_channels' framing, in one copy
    shape = (len(x), cfg.block_len // IN_CHANNELS, IN_CHANNELS)
    out = np.array(x.reshape(shape).transpose(0, 2, 1), np.float64, order="C")
    if cfg.normalize == "rms":
        x = x.astype(np.float64, copy=False)
        rms = np.sqrt(np.mean(x ** 2, axis=1))[:, None, None]
        np.divide(out, rms, out=out, where=rms > 0)
    return out


def predict(model: CnnModel, blocks: np.ndarray) -> np.ndarray:
    """Raw scalar scores for a batch of amplitude blocks.

    The blocks are framed and scored one nn.Sequential.predict chunk at a
    time, so memory does not grow with their number.  Scores of a call of
    more than one chunk (above 248 blocks at B=160, 2730 at B=40) may
    differ in their last bits from those of one whole-batch forward.
    """
    return model.net.predict(np.atleast_2d(blocks),
                             lambda b: prepare_inputs(b, model.cfg))[:, 0]


SNR_BIN_EDGES = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)


def _mean(x: np.ndarray) -> float | None:
    """The mean of x, or None when x is empty: a rate or MAE with nothing
    to average over has no value (0.0 would read as a perfect detector)."""
    return float(np.mean(x)) if x.size else None


def mae_by_snr(snrs: np.ndarray, errors: np.ndarray) -> tuple:
    """Mean |error| per SNR_BIN_EDGES bin: rows of (bin_lo, bin_hi, mae_or_None, n).

    Bins are half-open [lo, hi) except the last, which is closed; tags
    outside [SNR_BIN_EDGES[0], SNR_BIN_EDGES[-1]] fall in no bin.
    """
    snrs = np.asarray(snrs, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    n_bins = len(SNR_BIN_EDGES) - 1
    bin_of = np.searchsorted(SNR_BIN_EDGES, snrs, side="right") - 1
    bin_of[snrs == SNR_BIN_EDGES[-1]] = n_bins - 1
    rows = []
    for k in range(n_bins):
        err = errors[bin_of == k]
        rows.append((SNR_BIN_EDGES[k], SNR_BIN_EDGES[k + 1], _mean(err),
                     int(err.size)))
    return tuple(rows)


@dataclass(frozen=True)
class EvalMetrics:
    mae: float | None
    miss_rate: float | None         # None without an item holding a start
    false_alarm_rate: float | None  # None without an item free of one
    per_snr: tuple  # rows of (bin_lo, bin_hi, mae_or_None, n)
    n: int          # blocks or trials scored


def score(has_start, detected, errors, snrs) -> EvalMetrics:
    """Miss rate, false-alarm rate and MAE of either detector, from its
    decisions on the blocks (CNN) or stream trials (correlator) it scored.

    Each argument has one entry per item: whether it holds a start, whether
    the detector fired on it, |estimated - true start| and its SNR tag.  The
    miss rate is over the items with a start, the false-alarm rate over
    those without, and the MAE (overall and per SNR_BIN_EDGES bin) over the
    true positives, the only items whose error is read.  A rate or MAE with
    nothing to average over is None.
    """
    has_start = np.asarray(has_start, dtype=bool)
    detected = np.asarray(detected, dtype=bool)
    errors = np.asarray(errors, dtype=np.float64)
    tp = has_start & detected
    return EvalMetrics(_mean(errors[tp]), _mean(~detected[has_start]),
                       _mean(detected[~has_start]),
                       mae_by_snr(np.asarray(snrs)[tp], errors[tp]),
                       len(has_start))


def evaluate(model: CnnModel, blocks: np.ndarray) -> EvalMetrics:
    """The CNN's `score` on labeled blocks.

    A block is detected when its score reaches the detect threshold; its
    start estimate is the score rounded and clamped to [0, block_len - 1].
    """
    if len(blocks) == 0:
        raise ValueError("block array must be non-empty")
    labels = blocks["label"].astype(np.float64)
    scores = predict(model, blocks["amp"])
    starts = np.rint(np.clip(scores, 0.0, model.cfg.block_len - 1))
    return score(labels >= 0, scores >= DETECT_THRESHOLD,
                 np.abs(starts - labels), blocks["snr"])


def train_detector(model: CnnModel, blocks: np.ndarray,
                   train_idx: np.ndarray, val_idx: np.ndarray | None = None,
                   train_cfg: nn.TrainConfig | None = None) -> dict:
    """Train on blocks[train_idx], validating on blocks[val_idx]: record
    indices, as dataset.split returns them (labels in sample units, -1 for
    no packet).  nn.train draws batches and validation chunks as rows of
    the indices and the frame gathers and frames only those records, so no
    partition is copied: beyond the records training holds the indices,
    the targets and a batch's or a chunk's network inputs.  Gathering and
    framing are exact copies and an "rms" scale is per block, so the bytes
    are those of training on copied-out partitions framed at once.
    """
    amp, label = blocks["amp"], blocks["label"]
    val = ((val_idx, label[val_idx].astype(np.float64))
           if val_idx is not None and len(val_idx) else None)
    return nn.train(model.net, train_idx, label[train_idx].astype(np.float64),
                    train_cfg or nn.TrainConfig(), val,
                    lambda rows: prepare_inputs(amp[rows], model.cfg))


# -- checkpoint format ------------------------------------------------------
# binary: magic (8 bytes), then u32 version, block_len, the six _ARCH fields
# and the NORMALIZE_MODES index, then the network's parameter vector as
# little-endian float64: its arrays in network order (conv1.w, conv1.b,
# conv2.w, conv2.b, fc.w, fc.b, out.w, out.b).  A JSON manifest of shapes
# is written alongside (<path>.json).


class CheckpointError(Exception):
    pass


def save_model(model: CnnModel, path: str | Path) -> None:
    path = Path(path)
    cfg = model.cfg
    header = _MAGIC + struct.pack(
        "<9I", _CKPT_VERSION, cfg.block_len, *_ARCH.values(),
        NORMALIZE_MODES.index(cfg.normalize))
    blobs = model.net.param_vector.astype("<f8", copy=False).tobytes()
    path.write_bytes(header + blobs)
    manifest = {
        "format_version": _CKPT_VERSION,
        "config": {"block_len": cfg.block_len, **_ARCH,
                   "no_packet_label": NO_PACKET_LABEL,
                   "detect_threshold": DETECT_THRESHOLD,
                   "normalize": cfg.normalize},
        "param_shapes": [list(p.shape) for p in model.net.params],
        "sha256": hashlib.sha256(blobs).hexdigest(),
    }
    Path(str(path) + ".json").write_text(json.dumps(manifest, indent=1))


def load_model(path: str | Path) -> CnnModel:
    data = Path(path).read_bytes()
    if len(data) < len(_MAGIC) + 36 or data[:len(_MAGIC)] != _MAGIC:
        raise CheckpointError("not a model checkpoint")
    version, block_len, *arch, flag = struct.unpack_from("<9I", data, len(_MAGIC))
    if version != _CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if tuple(arch) != tuple(_ARCH.values()) or flag >= len(NORMALIZE_MODES):
        raise CheckpointError("checkpoint is for another network: "
                              f"{dict(zip(_ARCH, arch))}, normalize flag {flag}")
    try:
        cfg = CnnDetectorConfig(block_len, NORMALIZE_MODES[flag])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint header: {exc}") from exc
    # the length check comes first, so that a tampered block_len cannot
    # make build_model allocate a dense layer the file does not hold
    offset = len(_MAGIC) + 36
    size = offset + 8 * cfg.n_params()
    if len(data) < size:
        raise CheckpointError("checkpoint truncated")
    if len(data) > size:
        raise CheckpointError("checkpoint has trailing bytes")
    model = build_model(cfg)
    model.net.param_vector[...] = np.frombuffer(data, dtype="<f8",
                                                offset=offset)
    return model
