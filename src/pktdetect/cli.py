"""Command-line front end: dataset generation, training, evaluation of both
detectors, FLOPS reports and MAE-vs-SNR sweeps.

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


def _write_manifest(out_dir: Path, command: str, args: dict) -> None:
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
    }
    (out_dir / f"{command}.manifest.json").write_text(json.dumps(doc, indent=1))


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


def _find_dataset(data_dir: Path, block_len: int) -> Path:
    for man in sorted(data_dir.glob("*.manifest.json")):
        try:
            doc = json.loads(man.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if doc.get("block_len") == block_len:
            return Path(str(man)[: -len(".manifest.json")])
    raise dataset.DatasetError(
        f"no dataset with block_len {block_len} found in {data_dir}")


def cmd_gen(args) -> int:
    try:
        spec = dataset.DatasetSpec.from_json(Path(args.spec).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}") from exc
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid dataset spec: {exc}") from exc
    blocks = dataset.generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.save(blocks, out_dir / spec.name, spec)
    _write_manifest(out_dir, "gen", {"spec": args.spec, "out": args.out,
                                     "seed": spec.seed, "name": spec.name})
    print(f"wrote {len(blocks)} blocks to {out_dir / spec.name}.blocks.bin")
    return 0


def _load_split(data_dir: Path, block_len: int):
    prefix = _find_dataset(data_dir, block_len)
    blocks, manifest = dataset.load(prefix)
    spec_doc = manifest.get("spec") or {}
    fractions = tuple(spec_doc.get("split", (0.70, 0.15, 0.15)))
    seed = spec_doc.get("seed", 0)
    return dataset.split(blocks, fractions, seed), manifest


def cmd_train(args) -> int:
    (train_blocks, val_blocks, _), _ = _load_split(Path(args.data), args.block_len)
    model = cnn.build_model(CnnDetectorConfig(block_len=args.block_len),
                            seed=args.seed)
    cfg = nn.TrainConfig(batch_size=args.batch_size, epochs=args.epochs,
                         seed=args.seed)
    history = cnn.train_detector(model, train_blocks, val_blocks, cfg)
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


def _write_eval_outputs(out: Path, per_snr, miss, false_alarm) -> None:
    _write_csv(out, ["snr_bin_lo", "snr_bin_hi", "mae", "n"],
               [(_fmt(lo), _fmt(hi), _fmt(mae), n) for lo, hi, mae, n in per_snr])
    _write_csv(out.parent / f"{out.stem}_summary.csv",
               ["miss_rate", "false_alarm_rate"],
               [(_fmt(miss), _fmt(false_alarm))])


def cmd_eval(args) -> int:
    out = Path(args.out)
    if args.conventional:
        trial_cfg = streams.StreamTrialConfig(snr_db=args.snr_db,
                                              channel=_channel(args))
        snr_range = tuple(args.snr_range) if args.snr_range else None
        outcomes = streams.evaluate_conventional(
            trial_cfg, args.packets, seed=args.seed, snr_range_db=snr_range)
        summary = streams.summarize(outcomes)
        tp = [o for o in outcomes if o.has_packet and o.detected]
        per_snr = cnn.mae_by_snr([o.snr_db for o in tp],
                                 [abs(o.fine_start - o.true_start) for o in tp])
        _write_eval_outputs(out, per_snr, summary["miss_rate"],
                            summary["false_alarm_rate"])
        print(f"conventional: miss {summary['miss_rate']:.4f}, "
              f"false alarm {summary['false_alarm_rate']:.4f}, "
              f"mae {summary['mae']}")
    else:
        if not args.model:
            raise UsageError("eval needs --model or --conventional")
        (_, _, test_blocks), manifest = _load_split(Path(args.data), args.block_len)
        model = cnn.load_model(args.model)
        if model.cfg.block_len != manifest["block_len"]:
            raise UsageError(
                f"model block_len {model.cfg.block_len} does not match "
                f"dataset block_len {manifest['block_len']}")
        metrics = cnn.evaluate(model, test_blocks)
        _write_eval_outputs(out, metrics.per_snr, metrics.miss_rate,
                            metrics.false_alarm_rate)
        print(f"cnn: miss {metrics.miss_rate:.4f}, "
              f"false alarm {metrics.false_alarm_rate:.4f}, mae {metrics.mae}")
    _write_manifest(out.parent, "eval", vars(args))
    return 0


def cmd_flops(args) -> int:
    reports = []
    if args.all:
        reports = [flops.model_flops(CnnDetectorConfig(block_len=b))
                   for b in BLOCK_LENGTHS]
        reports.append(flops.conventional_flops())
    elif args.conventional:
        reports = [flops.conventional_flops()]
    elif args.block_len:
        reports = [flops.model_flops(CnnDetectorConfig(block_len=args.block_len))]
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
    snrs = [float(s) for s in args.snrs.split(",")]
    rows = []
    model = cnn.load_model(args.model) if args.model else None
    for snr in snrs:
        if args.conventional:
            trial_cfg = streams.StreamTrialConfig(snr_db=snr,
                                                  channel=_channel(args))
            outcomes = streams.evaluate_conventional(
                trial_cfg, args.packets, seed=args.seed)
            s = streams.summarize(outcomes)
            rows.append(("conventional", _fmt(snr), _fmt(s["mae"]),
                         _fmt(s["miss_rate"]), _fmt(s["false_alarm_rate"]),
                         s["n_trials"]))
        if model is not None:
            spec = dataset.DatasetSpec(
                block_len=model.cfg.block_len, n_blocks=args.packets,
                snr_range_db=(snr, snr), seed=args.seed,
                channel=_channel(args))
            blocks = dataset.generate(spec)
            m = cnn.evaluate(model, blocks)
            rows.append((f"cnn-B{model.cfg.block_len}", _fmt(snr), _fmt(m.mae),
                         _fmt(m.miss_rate), _fmt(m.false_alarm_rate),
                         len(blocks)))
    if not rows:
        raise UsageError("sweep needs --model and/or --conventional")
    out = Path(args.out)
    _write_csv(out, ["detector", "snr_db", "mae", "miss_rate",
                     "false_alarm_rate", "n"], rows)
    _write_manifest(out.parent, "sweep", vars(args))
    print(f"wrote {len(rows)} sweep rows to {out}")
    return 0


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
    p.add_argument("--block-len", type=int, required=True)
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--batch-size", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a detector")
    p.add_argument("--model", help="model checkpoint path")
    p.add_argument("--conventional", action="store_true")
    p.add_argument("--data", help="dataset directory (model mode)")
    p.add_argument("--block-len", type=int, help="dataset block length")
    p.add_argument("--packets", type=int, default=2000)
    p.add_argument("--snr-db", type=float, default=20.0)
    p.add_argument("--snr-range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--awgn-only", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="per-SNR-bin MAE CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flops", help="complexity reports")
    p.add_argument("--block-len", type=int)
    p.add_argument("--conventional", action="store_true")
    p.add_argument("--all", action="store_true",
                   help="six CNN block lengths plus the conventional row")
    p.add_argument("--out", help="comparison CSV path")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("sweep", help="MAE-vs-SNR sweep with fresh simulations")
    p.add_argument("--model", help="model checkpoint path")
    p.add_argument("--conventional", action="store_true")
    p.add_argument("--snrs", default="0,5,10,15,20,25",
                   help="comma-separated SNR points in dB")
    p.add_argument("--packets", type=int, default=500,
                   help="trials (or blocks) per SNR point")
    p.add_argument("--awgn-only", action="store_true")
    p.add_argument("--seed", type=int, default=0)
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
