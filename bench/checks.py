"""Output checks for one benchmark round.

Every check recomputes what it compares from the files a subcommand wrote,
with code of its own: the record layout, the checkpoint layout, the split,
the forward pass, the eval metrics and the timing metric are all derived
here from their documented definitions, never from a stored copy of
earlier output.  Where a property is checked instead (loss falls, energy
rises at the packet start), it is one the method must have on every seed.

A check raises CheckFailed with a reason; anything else it raises counts
as a failure too.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

START, NOISE_ONLY, MID_TAIL = 0, 1, 2
KIND_NAMES = ("START", "NOISE_ONLY", "MID_TAIL")
SNR_BIN_EDGES = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
DETECT_THRESHOLD = -0.5   # midpoint of the no-packet label -1 and start 0
IN_CHANNELS = 4
CKPT_MAGIC = b"PKTCNN1\0"


class CheckFailed(Exception):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Round:
    """Paths and parameters of one round's outputs, plus values the checks
    share (parsed once, on first use)."""

    work: Path
    spec: dict
    epochs: int
    eval_calls: int
    snrs: tuple
    packets: int
    captured_traces: list = field(default_factory=list)
    captured_outcomes: list = field(default_factory=list)
    _cache: dict = field(default_factory=dict)

    @property
    def block_len(self) -> int:
        return self.spec["block_len"]

    @property
    def data_prefix(self) -> Path:
        return self.work / "data" / self.spec["name"]

    @property
    def ckpt(self) -> Path:
        return self.work / "model" / "cnn.ckpt"

    def eval_csv(self, k: int) -> Path:
        return self.work / "eval" / f"eval{k}.csv"

    @property
    def sweep_csv(self) -> Path:
        return self.work / "sweep" / "sweep.csv"

    def cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]


# -- readers written from the documented formats ------------------------------

def record_dtype(block_len: int) -> np.dtype:
    # <name>.blocks.bin: per record block_len float32 amplitudes, float32
    # label, float32 SNR tag, uint8 kind; little-endian, no padding
    return np.dtype([("amp", "<f4", (block_len,)), ("label", "<f4"),
                     ("snr", "<f4"), ("kind", "u1")])


def read_dataset(r: Round):
    def load():
        payload = Path(str(r.data_prefix) + ".blocks.bin").read_bytes()
        manifest = json.loads(Path(str(r.data_prefix) + ".manifest.json").read_text())
        dtype = record_dtype(r.block_len)
        require(len(payload) == r.spec["n_blocks"] * dtype.itemsize,
                f"blocks.bin holds {len(payload)} bytes, expected "
                f"{r.spec['n_blocks']} records of {dtype.itemsize}")
        return payload, manifest, np.frombuffer(payload, dtype=dtype)
    return r.cached("dataset", load)


def read_checkpoint(path: Path) -> list[np.ndarray]:
    """Parameter arrays of a checkpoint, shapes derived from its header."""
    data = Path(path).read_bytes()
    require(data[:len(CKPT_MAGIC)] == CKPT_MAGIC, "checkpoint magic missing")
    (_, block_len, c_in, c1, f1, c2, f2, fc, _) = struct.unpack_from(
        "<9I", data, len(CKPT_MAGIC))
    k2 = block_len // c_in - f1 + 1 - f2 + 1
    shapes = [(c1, c_in, f1), (c1,), (c2, c1, f2), (c2,),
              (fc, c2 * k2), (fc,), (1, fc), (1,)]
    offset = len(CKPT_MAGIC) + 36
    params = []
    for shape in shapes:
        n = math.prod(shape)
        params.append(np.frombuffer(data, "<f8", n, offset).reshape(shape))
        offset += 8 * n
    require(offset == len(data), "checkpoint length disagrees with its header")
    return params


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def split_indices(labels: np.ndarray, fractions, seed: int):
    """Stratified seeded split of record indices into train / val / test.

    Each class (start label or not) is permuted by one shared generator,
    its members are spread at proportional positions (rank + 0.5) / size,
    and the merged order is cut at floor(fraction * n).
    """
    n = len(labels)
    rng = np.random.default_rng(seed)
    has_start = labels >= 0
    keys = np.empty(n)
    rank = np.empty(n, dtype=np.int64)
    for mask in (has_start, ~has_start):
        idx = np.nonzero(mask)[0]
        if idx.size:
            shuffled = rng.permutation(idx)
            keys[shuffled] = (np.arange(idx.size) + 0.5) / idx.size
            rank[shuffled] = np.arange(idx.size)
    order = np.lexsort((np.arange(n), rank, keys))
    cut1 = int(np.floor(fractions[0] * n))
    cut2 = int(np.floor((fractions[0] + fractions[1]) * n))
    return order[:cut1], order[cut1:cut2], order[cut2:]


def held_out_indices(r: Round):
    def make():
        _, _, rec = read_dataset(r)
        return split_indices(rec["label"].astype(np.float64),
                             r.spec["split"], r.spec["seed"])[2]
    return r.cached("test_idx", make)


def frame(amps: np.ndarray) -> np.ndarray:
    """[n, B] amplitudes -> [n, C, B/C] inputs: channel c, step t = amp[C*t + c]."""
    n, b = amps.shape
    return amps.reshape(n, b // IN_CHANNELS, IN_CHANNELS).transpose(0, 2, 1)


def loop_forward(params, x: np.ndarray) -> float:
    """The detector network on one framed block [C, T], one output at a time."""
    w1, b1, w2, b2, wf, bf, wo, bo = params

    def conv_relu(x, w, b):
        o, _, f = w.shape
        k = x.shape[1] - f + 1
        y = np.empty((o, k))
        for i in range(o):
            for j in range(k):
                y[i, j] = max(0.0, float(np.sum(w[i] * x[:, j:j + f])) + b[i])
        return y

    h = conv_relu(conv_relu(x, w1, b1), w2, b2).reshape(-1)
    hidden = [max(0.0, float(np.dot(wf[i], h)) + bf[i]) for i in range(len(bf))]
    return float(np.dot(wo[0], hidden)) + bo[0]


def direct_metric(s: np.ndarray, lag: int, window: int) -> np.ndarray:
    """M(tau) = |sum conj(s[tau+i]) s[tau+lag+i]|^2 / (sum |s[tau+lag+i]|^2)^2."""
    n_out = len(s) - lag - window + 1
    m = np.zeros(max(n_out, 0))
    for tau in range(n_out):
        a = s[tau:tau + window]
        b = s[tau + lag:tau + lag + window]
        p = np.vdot(b, b).real
        if p > 0:
            m[tau] = abs(np.vdot(a, b)) ** 2 / p ** 2
    return m


# -- gen -----------------------------------------------------------------------

def gen_sha256(r: Round):
    payload, manifest, _ = read_dataset(r)
    require(hashlib.sha256(payload).hexdigest() == manifest["sha256"],
            "sha256 of blocks.bin does not match the manifest")
    require(manifest["n_records"] == r.spec["n_blocks"]
            and manifest["block_len"] == r.block_len,
            "manifest record count or block length differs from the spec")


def gen_kind_counts(r: Round):
    _, manifest, rec = read_dataset(r)
    require(np.all(rec["kind"] <= MID_TAIL), "unknown kind code")
    counts = np.bincount(rec["kind"], minlength=3)
    require({KIND_NAMES[k]: int(counts[k]) for k in range(3)}
            == manifest["kind_counts"], "manifest kind counts differ from the file")
    n = len(rec)
    f_no, f_noise = r.spec["frac_no_start"], r.spec["frac_noise_within_no_start"]
    for k, p in enumerate((1 - f_no, f_no * f_noise, f_no * (1 - f_noise))):
        # five binomial standard deviations: a false alarm about once in 10^6 rounds
        slack = 5 * math.sqrt(n * p * (1 - p)) + 1
        require(abs(counts[k] - n * p) <= slack,
                f"{KIND_NAMES[k]} count {counts[k]} outside {n * p:.1f} +/- {slack:.1f}")


def gen_labels(r: Round):
    _, _, rec = read_dataset(r)
    label, start = rec["label"], rec["kind"] == START
    ls = label[start]
    require(np.all(ls == np.floor(ls)) and np.all((ls >= 0) & (ls < r.block_len)),
            "START label not an integer in [0, B)")
    require(np.all(label[~start] == -1), "non-START label is not -1")


def gen_values(r: Round):
    _, _, rec = read_dataset(r)
    amp, snr = rec["amp"], rec["snr"]
    require(np.all(np.isfinite(amp)) and np.all(amp >= 0),
            "amplitudes not finite and non-negative")
    lo, hi = r.spec["snr_range_db"]
    require(np.all(np.isfinite(snr)) and np.all((snr >= np.float32(lo)) & (snr <= np.float32(hi))),
            f"SNR tag outside [{lo}, {hi}]")


def gen_energy_step(r: Round):
    """At high SNR the packet start is a step up in received energy."""
    _, _, rec = read_dataset(r)
    b = r.block_len
    sel = np.nonzero((rec["kind"] == START) & (rec["snr"] >= 15)
                     & (rec["label"] >= 8) & (rec["label"] <= b - 8))[0]
    require(sel.size > 0, "no START block to check")
    for i in sel:
        amp = rec["amp"][i].astype(np.float64)
        t = int(rec["label"][i])
        require(np.mean(amp[t:] ** 2) > np.mean(amp[:t] ** 2),
                f"record {i}: no energy rise at the start label {t}")


# -- train ---------------------------------------------------------------------

def train_loss_csv(r: Round):
    rows = read_csv(r.ckpt.parent / f"{r.ckpt.stem}_loss.csv")
    require(rows[0] == ["epoch", "train_loss", "val_loss"], "loss CSV header")
    body = rows[1:]
    require([int(row[0]) for row in body] == list(range(1, r.epochs + 1)),
            f"loss CSV has not one row for each of {r.epochs} epochs")
    losses = np.array([[float(row[1]), float(row[2])] for row in body])
    require(np.all(np.isfinite(losses)), "non-finite loss")
    require(losses[-1, 0] < losses[0, 0], "training loss did not fall")


def train_reload(r: Round):
    from pktdetect import cnn
    model = cnn.load_model(r.ckpt)
    require(model.cfg.block_len == r.block_len, "reloaded block length differs")
    mine = read_checkpoint(r.ckpt)
    sidecar = json.loads(Path(str(r.ckpt) + ".json").read_text())
    blobs = b"".join(p.tobytes() for p in mine)
    require(hashlib.sha256(blobs).hexdigest() == sidecar["sha256"],
            "checkpoint parameters do not match the sha256 in its sidecar")
    require(all(np.array_equal(p, q) for p, q in zip(model.net.params, mine)),
            "reloaded parameters differ from the checkpoint bytes")
    require(all(np.all(np.isfinite(p)) for p in mine), "non-finite parameter")


def train_gradients(r: Round, h: float = 1e-6, per_array: int = 24):
    """Backprop gradients of the trained net match central differences.

    An entry is compared only where no ReLU switches on or off within
    +/- h: at a kink (a dead unit whose bias stayed exactly 0, say) the
    one-sided slopes differ and a difference quotient has nothing to match.
    """
    from pktdetect import cnn, nn
    net = cnn.load_model(r.ckpt).net
    _, _, rec = read_dataset(r)
    starts = np.nonzero(rec["kind"] == START)[0][:2]
    others = np.nonzero(rec["kind"] != START)[0][:2]
    idx = np.concatenate([starts, others])
    x = frame(rec["amp"][idx].astype(np.float64))
    t = rec["label"][idx].astype(np.float64)

    def loss():
        a, pattern = x, []
        for layer in net.layers:
            a = layer.forward(a)
            if isinstance(layer, nn.Relu):
                pattern.append(a > 0)
        return float(np.mean((a[:, 0] - t) ** 2)), pattern

    _, base = loss()
    pred = net.forward(x)[:, 0]
    net.backward((2.0 * (pred - t) / len(t))[:, None])
    for i, (p, g) in enumerate(zip(net.params, net.grads)):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        analytic, numeric = [], []
        for j in np.unique(np.linspace(0, flat.size - 1, per_array).astype(int)):
            keep = flat[j]
            flat[j] = keep + h
            up, p_up = loss()
            flat[j] = keep - h
            down, p_down = loss()
            flat[j] = keep
            if all(np.array_equal(b, u) and np.array_equal(b, d)
                   for b, u, d in zip(base, p_up, p_down)):
                analytic.append(gflat[j])
                numeric.append((up - down) / (2 * h))
        require(analytic, f"parameter array {i}: every sampled entry sits at a ReLU kink")
        analytic, numeric = np.array(analytic), np.array(numeric)
        scale = max(np.linalg.norm(numeric), np.linalg.norm(analytic))
        err = np.linalg.norm(analytic - numeric) / scale if scale else 0.0
        require(err < 1e-4, f"parameter array {i}: gradient relative error {err:.3g} >= 1e-4")


# -- eval ----------------------------------------------------------------------

def eval_scores(r: Round) -> np.ndarray:
    """cnn.predict scores for the test split (checked by eval_forward)."""
    def make():
        from pktdetect import cnn
        _, _, rec = read_dataset(r)
        model = cnn.load_model(r.ckpt)
        return cnn.predict(model, rec["amp"][held_out_indices(r)].astype(np.float64))
    return r.cached("scores", make)


def eval_forward(r: Round, n_sample: int = 16):
    _, _, rec = read_dataset(r)
    test = held_out_indices(r)
    scores = eval_scores(r)
    params = read_checkpoint(r.ckpt)
    for j in np.unique(np.linspace(0, len(test) - 1, n_sample).astype(int)):
        x = frame(rec["amp"][test[j]][None, :].astype(np.float64))[0]
        ref = loop_forward(params, x)
        require(abs(scores[j] - ref) <= 1e-9 * max(1.0, abs(ref)),
                f"predict score {scores[j]!r} differs from loop forward {ref!r}")


def eval_metrics(r: Round, k: int):
    """Miss, false-alarm, MAE and per-SNR-bin rows recomputed from scores."""
    _, _, rec = read_dataset(r)
    test = held_out_indices(r)
    scores = eval_scores(r)
    labels = rec["label"][test].astype(np.float64)
    snrs = rec["snr"][test].astype(np.float64)
    detected = scores >= DETECT_THRESHOLD
    starts = np.rint(np.clip(scores, 0.0, r.block_len - 1))
    has = labels >= 0
    miss = float(np.mean(~detected[has])) if has.any() else 0.0
    false_alarm = float(np.mean(detected[~has])) if (~has).any() else 0.0
    summary = read_csv(r.eval_csv(k).with_name(f"eval{k}_summary.csv"))
    require(summary[0] == ["miss_rate", "false_alarm_rate"] and len(summary) == 2,
            "summary CSV layout")
    require(math.isclose(float(summary[1][0]), miss, rel_tol=1e-12, abs_tol=1e-15)
            and math.isclose(float(summary[1][1]), false_alarm, rel_tol=1e-12, abs_tol=1e-15),
            f"summary {summary[1]} differs from recomputed ({miss}, {false_alarm})")
    tp = has & detected
    err = np.abs(starts - labels)
    rows = read_csv(r.eval_csv(k))
    require(rows[0] == ["snr_bin_lo", "snr_bin_hi", "mae", "n"]
            and len(rows) == len(SNR_BIN_EDGES), "per-SNR CSV layout")
    for row, lo, hi in zip(rows[1:], SNR_BIN_EDGES[:-1], SNR_BIN_EDGES[1:]):
        upper = snrs <= hi if hi == SNR_BIN_EDGES[-1] else snrs < hi
        in_bin = tp & (snrs >= lo) & upper
        n = int(in_bin.sum())
        require((float(row[0]), float(row[1]), int(row[3])) == (lo, hi, n),
                f"bin [{lo}, {hi}) row {row} but {n} true positives")
        if n:
            require(math.isclose(float(row[2]), float(np.mean(err[in_bin])), rel_tol=1e-12),
                    f"bin [{lo}, {hi}) MAE {row[2]} differs")
        else:
            require(row[2] == "", f"bin [{lo}, {hi}) has an MAE but no true positive")


# -- sweep ---------------------------------------------------------------------

def sweep_rows(r: Round) -> list:
    rows = read_csv(r.sweep_csv)
    require(rows[0] == ["detector", "snr_db", "mae", "miss_rate",
                        "false_alarm_rate", "n"], "sweep CSV header")
    body = rows[1:]
    require([float(row[1]) for row in body] == list(r.snrs),
            "sweep rows do not match the requested SNR points")
    for row in body:
        require(row[0] == "conventional", f"unexpected detector {row[0]}")
        require(int(row[5]) == r.packets, f"row at {row[1]} dB has {row[5]} trials, "
                                          f"not {r.packets}")
        for v in row[3:5]:
            require(0.0 <= float(v) <= 1.0, f"rate {v} outside [0, 1]")
    return body


def sweep_accuracy(r: Round, max_off_share: float = 0.02):
    """At 10 dB and above the correlator neither misses nor false-alarms, and
    at most 2% of its true positives start more than one sample off; at
    15 dB and above its fine timing is within one sample on average.

    The share bound, not MAE, is the timing check at 10 dB: there the
    correlator triggers about 400 samples late in roughly 1 of 4000 packets,
    which puts a 500-trial point's MAE above one sample on some seeds and
    not others.  A share bound lets those rare triggers through, but not a
    general offset.
    """
    outcomes = sweep_outcomes(r)
    for row in sweep_rows(r):
        snr = float(row[1])
        if snr >= 10:
            require(float(row[3]) <= 0.01 and float(row[4]) <= 0.01,
                    f"{snr} dB: miss {row[3]}, false alarm {row[4]} above 0.01")
            err = outcomes[snr]
            off = int(np.sum(err > 1))
            require(len(err) and off <= max_off_share * len(err),
                    f"{snr} dB: {off} of {len(err)} detected packets start more "
                    f"than one sample off")
        if snr >= 15:
            require(row[2] != "" and float(row[2]) <= 1.0,
                    f"{snr} dB: MAE {row[2]!r} above one sample")


def sweep_outcomes(r: Round) -> dict:
    """|fine start - true start| of each true positive, per SNR point, from
    the trial outcomes captured during the sweep; their mean must be the
    MAE the CSV reports."""
    by_snr = {}
    for o in r.captured_outcomes:
        by_snr.setdefault(float(o.snr_db), []).append(o)
    require(sorted(by_snr) == sorted(r.snrs)
            and all(len(v) == r.packets for v in by_snr.values()),
            "captured trial outcomes do not match the requested sweep")
    errors = {}
    for row in read_csv(r.sweep_csv)[1:]:
        snr = float(row[1])
        err = np.array([abs(o.fine_start - o.true_start) for o in by_snr[snr]
                        if o.has_packet and o.detected], dtype=float)
        if len(err):
            require(row[2] != "" and math.isclose(float(row[2]), float(err.mean()),
                                                  rel_tol=1e-12, abs_tol=1e-15),
                    f"{snr} dB: CSV MAE {row[2]!r} differs from the captured "
                    f"outcomes' {err.mean()!r}")
        errors[snr] = err
    return errors


def sweep_metric_trace(r: Round):
    """metric_trace outputs captured during the sweep equal a direct sum."""
    require(r.captured_traces, "no metric_trace call captured")
    for samples, lag, window, out in r.captured_traces:
        ref = direct_metric(samples, lag, window)
        require(out.shape == ref.shape, "metric trace length differs")
        err = np.max(np.abs(out - ref)) / max(np.max(np.abs(ref)), 1e-300)
        require(err <= 1e-9, f"metric trace relative error {err:.3g} above 1e-9")


def stage_checks(r: Round) -> dict:
    """Named checks per stage, in the order a round runs them."""
    return {
        "gen": [gen_sha256, gen_kind_counts, gen_labels, gen_values, gen_energy_step],
        "train": [train_loss_csv, train_reload, train_gradients],
        "eval": [eval_forward] + [
            (lambda rr, k=k: eval_metrics(rr, k)) for k in range(r.eval_calls)],
        "sweep": [sweep_rows, sweep_accuracy, sweep_metric_trace],
    }
