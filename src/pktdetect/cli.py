"""Command-line front end: dataset generation, training and test-split
evaluation of the CNN, FLOPS reports and MAE-vs-SNR sweeps of both
detectors.

Subcommands: gen, train, eval, flops, sweep.  Every run writes a manifest
next to its outputs with the command, arguments, seed and format versions,
sufficient to re-run it.  All outputs are deterministic given the seed.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, cnn, dataset, flops, nn, streams
from .channel import ChannelTemplate
from .cnn import BLOCK_LENGTHS, CnnDetectorConfig


class UsageError(Exception):
    pass


def build_versions() -> dict:
    """Python, numpy and BLAS build of this process.

    Outputs are byte-identical only for a fixed numpy/BLAS build (and BLAS
    thread count), so every manifest records them.  The BLAS name and version
    are None where numpy cannot report them (``show_config(mode="dicts")``
    arrived in numpy 1.26).
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def _write_manifest(out_dir: Path, command: str, args: dict,
                    **extra) -> None:
    """<command>.manifest.json: the arguments, the versions and any extra
    top-level fields."""
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": command,
        "args": {k: (str(v) if isinstance(v, Path) else v)
                 for k, v in args.items() if not callable(v)},
        "versions": {
            "tool": __version__,
            "dataset_format": dataset.FORMAT_VERSION,
            **build_versions(),
        },
        **extra,
    }
    (out_dir / f"{command}.manifest.json").write_text(json.dumps(doc, indent=1))


def _workers(args) -> dict:
    """A conventional run's manifest field: the worker processes its trials'
    links were simulated in, beside this process (streams.worker_count)."""
    return ({"workers": streams.worker_count(args.packets)}
            if args.conventional else {})


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _rate(x) -> str:
    """A rate for the console: four decimals, or None when it has no
    denominator."""
    return "None" if x is None else f"{x:.4f}"


def _find_dataset(data_dir: Path, block_len: int) -> Path:
    """The prefix of the one dataset of block_len in data_dir."""
    found = []
    for man in sorted(data_dir.glob("*.manifest.json")):
        try:
            doc = json.loads(man.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        # an int, not 40.0 or True, which compare equal to one
        if (isinstance(doc, dict) and type(doc.get("block_len")) is int
                and doc["block_len"] == block_len):
            found.append(Path(str(man)[: -len(".manifest.json")]))
    if len(found) != 1:
        raise dataset.DatasetError(
            f"{len(found)} datasets with block_len {block_len} in "
            f"{data_dir}, not one: {[p.name for p in found]}")
    return found[0]


def cmd_gen(args) -> int:
    try:
        spec = dataset.DatasetSpec.from_json(Path(args.spec).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}") from exc
    except (json.JSONDecodeError, TypeError, ValueError,
            dataset.DatasetError) as exc:
        raise UsageError(f"invalid dataset spec: {exc}") from exc
    blocks = dataset.generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.save(blocks, out_dir / spec.name, spec)
    _write_manifest(out_dir, "gen", {"spec": args.spec, "out": args.out,
                                     "seed": spec.seed, "name": spec.name},
                    workers=dataset.worker_count(spec))
    print(f"wrote {len(blocks)} blocks to {out_dir / spec.name}.blocks.bin")
    return 0


def _load_split(args, need: str):
    """The records of the dataset of --block-len in --data, the record
    indices of its partitions (dataset.split, as its manifest's spec says)
    by name and the manifest; a data error when partition need is empty."""
    prefix = _find_dataset(Path(args.data), args.block_len)
    blocks, manifest = dataset.load(prefix)
    try:
        spec = dataset.DatasetSpec.from_json(json.dumps(manifest.get("spec")))
    except (TypeError, ValueError) as exc:
        raise dataset.DatasetError(
            f"invalid spec in the manifest of {prefix}: {exc}") from exc
    parts = dict(zip(("training", "validation", "test"),
                     dataset.split(blocks, spec.split, spec.seed)))
    if not len(parts[need]):
        raise dataset.DatasetError(
            f"the {need} partition of {prefix} is empty: split "
            f"{list(spec.split)} of n_blocks {spec.n_blocks}")
    return blocks, parts, manifest


def _cnn_config(block_len: int) -> CnnDetectorConfig:
    """The network for --block-len, or a usage error naming why it has none."""
    try:
        return CnnDetectorConfig(block_len=block_len)
    except ValueError as exc:
        raise UsageError(f"--block-len: {exc}") from exc


def cmd_train(args) -> int:
    model_cfg = _cnn_config(args.block_len)
    blocks, parts, _ = _load_split(args, "training")
    model = cnn.build_model(model_cfg, seed=args.seed)
    cfg = nn.TrainConfig(batch_size=args.batch_size, epochs=args.epochs,
                         seed=args.seed)
    history = cnn.train_detector(model, blocks, parts["training"],
                                 parts["validation"], cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cnn.save_model(model, out)
    loss_rows = [
        (epoch + 1, _fmt(tl), _fmt(vl))
        for epoch, (tl, vl) in enumerate(
            zip(history["train_loss"],
                history["val_loss"] or [None] * len(history["train_loss"])))
    ]
    _write_csv(out.parent / f"{out.stem}_loss.csv",
               ["epoch", "train_loss", "val_loss"], loss_rows)
    _write_manifest(out.parent, "train", {
        "data": args.data, "block_len": args.block_len, "epochs": args.epochs,
        "batch_size": args.batch_size, "seed": args.seed, "out": args.out})
    print(f"trained {args.epochs} epochs; final train loss "
          f"{history['train_loss'][-1]:.6g}; model saved to {out}")
    return 0


def _channel(args) -> ChannelTemplate:
    """Model-B multipath and CFO, or a plain AWGN channel with --awgn-only."""
    if args.awgn_only:
        return ChannelTemplate(multipath=False, cfo_max_hz=0.0)
    return ChannelTemplate()


def cmd_eval(args) -> int:
    out = Path(args.out)
    blocks, parts, manifest = _load_split(args, "test")
    # keep only the test copy, so predict can reuse the payload's memory
    blocks = blocks[parts["test"]]
    model = cnn.load_model(args.model)
    if model.cfg.block_len != manifest["block_len"]:
        raise UsageError(
            f"model block_len {model.cfg.block_len} does not match "
            f"dataset block_len {manifest['block_len']}")
    metrics = cnn.evaluate(model, blocks)
    _write_csv(out, ["snr_bin_lo", "snr_bin_hi", "mae", "n"],
               [(_fmt(lo), _fmt(hi), _fmt(mae), n)
                for lo, hi, mae, n in metrics.per_snr])
    _write_csv(out.parent / f"{out.stem}_summary.csv",
               ["miss_rate", "false_alarm_rate"],
               [(_fmt(metrics.miss_rate), _fmt(metrics.false_alarm_rate))])
    print(f"cnn: miss {_rate(metrics.miss_rate)}, "
          f"false alarm {_rate(metrics.false_alarm_rate)}, mae {metrics.mae}")
    _write_manifest(out.parent, "eval", vars(args))
    return 0


def cmd_flops(args) -> int:
    reports = []
    if args.all:
        reports = [flops.model_flops(CnnDetectorConfig(block_len=b))
                   for b in BLOCK_LENGTHS]
        reports += [flops.conventional_flops(),
                    flops.conventional_flops_recursive()]
    elif args.conventional:
        reports = [flops.conventional_flops()]
    elif args.block_len:
        reports = [flops.model_flops(_cnn_config(args.block_len))]
    else:
        raise UsageError("flops needs --block-len, --conventional or --all")
    for report in reports:
        print(f"# {report.detector}  ({report.convention})")
        for name, muls, adds in flops.report_rows(report):
            print(f"{name:>14}  muls={muls:>9}  adds={adds:>9}")
        print(f"{'':>14}  blocks/s={report.blocks_per_second:.1f}  "
              f"MFLOPS={report.mflops:.3f}")
    if args.out:
        rows = [(r.detector, r.total_muls, r.total_adds,
                 _fmt(r.blocks_per_second), _fmt(r.mflops)) for r in reports]
        _write_csv(Path(args.out),
                   ["detector", "muls_per_block", "adds_per_block",
                    "blocks_per_second", "mflops"], rows)
        _write_manifest(Path(args.out).parent, "flops", vars(args))
    return 0


def cmd_sweep(args) -> int:
    try:
        snrs = tuple(snr_db(s) for s in args.snrs.split(","))
    except ValueError as exc:
        raise UsageError(f"--snrs: {exc}") from exc
    if not (args.model or args.conventional):
        raise UsageError("sweep needs --model and/or --conventional")
    if args.model and not all(map(math.isfinite, snrs)):
        raise UsageError("--snrs: the model sweep needs finite points")
    model = cnn.load_model(args.model) if args.model else None
    # one simulation per trial, scored at every point
    conventional = (streams.evaluate_conventional(
        streams.StreamTrialConfig(channel=_channel(args)), args.packets,
        seed=args.seed, snrs_db=snrs) if args.conventional else None)
    rows = []
    for k, snr in enumerate(snrs):
        scored = []
        if conventional is not None:
            scored.append(("conventional", streams.summarize(conventional[k])))
        if model is not None:
            spec = dataset.DatasetSpec(
                block_len=model.cfg.block_len, n_blocks=args.packets,
                snr_range_db=(snr, snr), seed=args.seed,
                channel=_channel(args))
            scored.append((f"cnn-B{model.cfg.block_len}",
                           cnn.evaluate(model, dataset.generate(spec))))
        rows += [(name, _fmt(snr), _fmt(m.mae), _fmt(m.miss_rate),
                  _fmt(m.false_alarm_rate), m.n) for name, m in scored]
    out = Path(args.out)
    _write_csv(out, ["detector", "snr_db", "mae", "miss_rate",
                     "false_alarm_rate", "n"], rows)
    _write_manifest(out.parent, "sweep", vars(args), **_workers(args))
    print(f"wrote {len(rows)} sweep rows to {out}")
    return 0


def snr_db(text: str) -> float:
    """One SNR point in dB: a number, or inf for a noiseless point."""
    snr = float(text)  # ValueError on a malformed entry
    if math.isnan(snr) or snr == -math.inf:
        raise ValueError(f"SNR {text!r} is not a number of dB or inf")
    return snr


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"{n} is not positive")
    return n


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"{n} is negative")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pktdetect",
        description="Packet-detection workbench: conventional correlator vs "
                    "1D-CNN packet-start detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled-block dataset")
    p.add_argument("--spec", required=True, help="dataset spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the CNN detector")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--block-len", type=positive_int, required=True)
    p.add_argument("--epochs", type=positive_int,
                   default=nn.TrainConfig.epochs)
    p.add_argument("--batch-size", type=positive_int,
                   default=nn.TrainConfig.batch_size)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a CNN on a dataset's test split")
    p.add_argument("--model", required=True, help="model checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--block-len", type=positive_int, required=True,
                   help="dataset block length")
    p.add_argument("--out", required=True, help="per-SNR-bin MAE CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flops", help="complexity reports")
    p.add_argument("--block-len", type=positive_int)
    p.add_argument("--conventional", action="store_true")
    p.add_argument("--all", action="store_true",
                   help="six CNN block lengths plus the direct and the "
                        "running-sum correlator rows")
    p.add_argument("--out", help="comparison CSV path")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("sweep", help="MAE-vs-SNR sweep with fresh simulations")
    p.add_argument("--model", help="model checkpoint path")
    p.add_argument("--conventional", action="store_true")
    p.add_argument("--snrs", default="0,5,10,15,20,25",
                   help="comma-separated SNR points in dB")
    p.add_argument("--packets", type=positive_int, default=500,
                   help="trials (or blocks) per SNR point")
    p.add_argument("--awgn-only", action="store_true")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (dataset.DatasetError, cnn.CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
