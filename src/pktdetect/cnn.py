"""1D-CNN packet-start detector.

Fixed architecture for every supported block length: two ReLU convolution
layers (9 filters of length 8, then 5 filters of length 3), a 3-neuron ReLU
dense layer and a linear scalar output.  A B-sample amplitude block is
framed into 4 input channels; the scalar regression output is turned into a
presence decision by thresholding against the midpoint between the
no-packet label (-1) and the smallest start label (0).
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

_MAGIC = b"PKTCNN1\0"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class CnnDetectorConfig:
    block_len: int = 160
    in_channels: int = 4
    conv1_filters: int = 9
    conv1_filter_len: int = 8  # half of the short-training-symbol length
    conv2_filters: int = 5
    conv2_filter_len: int = 3
    fc_neurons: int = 3
    no_packet_label: float = -1.0
    detect_threshold: float = -0.5
    # "raw" (what `train` builds) or "rms".  Both stay: the acceptance gates
    # train criteria 5 and 6 with "rms", so dropping either value would move
    # a gate or a CLI output, and old checkpoints carry the flag.
    normalize: str = "raw"

    def __post_init__(self):
        if self.block_len % self.in_channels != 0:
            raise ValueError("block_len must be divisible by in_channels")
        if self.normalize not in ("rms", "raw"):
            raise ValueError("normalize must be 'rms' or 'raw'")

    @property
    def time_steps(self) -> int:
        return self.block_len // self.in_channels

    def layer_widths(self) -> dict:
        """Valid-convolution width arithmetic (K = T - F + 1) per layer."""
        t = self.time_steps
        k1 = t - self.conv1_filter_len + 1
        k2 = k1 - self.conv2_filter_len + 1
        return {"T": t, "K1": k1, "K2": k2, "flatten": self.conv2_filters * k2}


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
    widths = cfg.layer_widths()
    if widths["K2"] < 1:
        raise ValueError(
            f"block_len {cfg.block_len} is too short for both convolutions")
    rng = np.random.default_rng(seed)
    net = nn.Sequential([
        nn.Conv1d(cfg.in_channels, cfg.conv1_filters, cfg.conv1_filter_len, rng),
        nn.Relu(),
        nn.Conv1d(cfg.conv1_filters, cfg.conv2_filters, cfg.conv2_filter_len, rng),
        nn.Relu(),
        nn.Flatten(),
        nn.Dense(widths["flatten"], cfg.fc_neurons, "he", rng),
        nn.Relu(),
        nn.Dense(cfg.fc_neurons, 1, "xavier", rng),
    ])
    net.layers[-1].b[...] = cfg.no_packet_label
    return CnnModel(cfg, net)


def prepare_inputs(blocks: np.ndarray, cfg: CnnDetectorConfig) -> np.ndarray:
    """Amplitude blocks [n, B] -> network inputs [n, C, T].

    In "rms" mode each block is scaled to unit RMS first; "raw" mode keeps
    the amplitudes (and hence the received-power cue) intact.
    """
    x = np.asarray(blocks, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != cfg.block_len:
        raise ValueError(f"blocks must have length {cfg.block_len}")
    if cfg.normalize == "rms":
        rms = np.sqrt(np.mean(x ** 2, axis=1, keepdims=True))
        x = np.divide(x, rms, out=x.copy(), where=rms > 0)
    return block_to_channels(x, cfg.in_channels)


def predict(model: CnnModel, blocks: np.ndarray) -> np.ndarray:
    """Raw scalar scores for a batch of amplitude blocks."""
    return model.net.predict(prepare_inputs(blocks, model.cfg))[:, 0]


SNR_BIN_EDGES = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)


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
        rows.append((SNR_BIN_EDGES[k], SNR_BIN_EDGES[k + 1],
                     float(np.mean(err)) if err.size else None, int(err.size)))
    return tuple(rows)


@dataclass(frozen=True)
class EvalMetrics:
    mae: float | None
    miss_rate: float
    false_alarm_rate: float
    per_snr: tuple  # rows of (bin_lo, bin_hi, mae_or_None, n)


def evaluate(model: CnnModel, blocks: np.ndarray) -> EvalMetrics:
    """Miss/false-alarm rates and true-positive MAE, binned by SNR tag.

    A block is detected when its score reaches the detect threshold; its
    start estimate is the score rounded and clamped to [0, block_len - 1].
    """
    if len(blocks) == 0:
        raise ValueError("block array must be non-empty")
    cfg = model.cfg
    labels = blocks["label"].astype(np.float64)
    scores = predict(model, blocks["amp"])
    detected = scores >= cfg.detect_threshold
    starts = np.rint(np.clip(scores, 0.0, cfg.block_len - 1))

    has_start = labels >= 0
    miss = float(np.mean(~detected[has_start])) if has_start.any() else 0.0
    false_alarm = float(np.mean(detected[~has_start])) if (~has_start).any() else 0.0

    tp = has_start & detected
    err = np.abs(starts - labels)
    mae = float(np.mean(err[tp])) if tp.any() else None
    return EvalMetrics(mae, miss, false_alarm,
                       mae_by_snr(blocks["snr"][tp], err[tp]))


def train_detector(model: CnnModel, train_blocks: np.ndarray,
                   val_blocks: np.ndarray | None = None,
                   train_cfg: nn.TrainConfig | None = None) -> dict:
    """Train on labeled blocks (raw sample-unit labels, -1 for no packet)."""
    train_cfg = train_cfg or nn.TrainConfig()
    x = prepare_inputs(train_blocks["amp"], model.cfg)
    t = train_blocks["label"].astype(np.float64)
    val = None
    if val_blocks is not None and len(val_blocks) > 0:
        val = (prepare_inputs(val_blocks["amp"], model.cfg),
               val_blocks["label"].astype(np.float64))
    return nn.train(model.net, x, t, train_cfg, val)


# -- checkpoint format ------------------------------------------------------
# binary: magic (8 bytes), u32 version, 8 x u32 hyperparameters, then the
# parameter arrays as little-endian float64 blobs in network order
# (conv1.w, conv1.b, conv2.w, conv2.b, fc.w, fc.b, out.w, out.b).
# A JSON manifest of shapes is written alongside (<path>.json).


class CheckpointError(Exception):
    pass


def save_model(model: CnnModel, path: str | Path) -> None:
    path = Path(path)
    cfg = model.cfg
    header = _MAGIC + struct.pack(
        "<9I", _CKPT_VERSION, cfg.block_len, cfg.in_channels,
        cfg.conv1_filters, cfg.conv1_filter_len, cfg.conv2_filters,
        cfg.conv2_filter_len, cfg.fc_neurons, 1 if cfg.normalize == "rms" else 0)
    blobs = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes()
                     for p in model.net.params)
    path.write_bytes(header + blobs)
    manifest = {
        "format_version": _CKPT_VERSION,
        "config": {k: getattr(cfg, k) for k in (
            "block_len", "in_channels", "conv1_filters", "conv1_filter_len",
            "conv2_filters", "conv2_filter_len", "fc_neurons",
            "no_packet_label", "detect_threshold", "normalize")},
        "param_shapes": [list(p.shape) for p in model.net.params],
        "sha256": hashlib.sha256(blobs).hexdigest(),
    }
    Path(str(path) + ".json").write_text(json.dumps(manifest, indent=1))


def load_model(path: str | Path) -> CnnModel:
    data = Path(path).read_bytes()
    if len(data) < len(_MAGIC) + 36 or data[:len(_MAGIC)] != _MAGIC:
        raise CheckpointError("not a model checkpoint")
    fields = struct.unpack_from("<9I", data, len(_MAGIC))
    if fields[0] != _CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {fields[0]}")
    cfg = CnnDetectorConfig(
        block_len=fields[1], in_channels=fields[2], conv1_filters=fields[3],
        conv1_filter_len=fields[4], conv2_filters=fields[5],
        conv2_filter_len=fields[6], fc_neurons=fields[7],
        normalize="rms" if fields[8] else "raw")
    model = build_model(cfg)
    offset = len(_MAGIC) + 36
    for p in model.net.params:
        nbytes = p.size * 8
        if offset + nbytes > len(data):
            raise CheckpointError("checkpoint truncated")
        p[...] = np.frombuffer(data, dtype="<f8", count=p.size,
                               offset=offset).reshape(p.shape)
        offset += nbytes
    if offset != len(data):
        raise CheckpointError("checkpoint has trailing bytes")
    return model
