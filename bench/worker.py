"""One benchmark round, in a fresh process.

Imports pktdetect from the checkout's src/ (timed: that is setup_s), runs
the workload's subcommands in-process through pktdetect.cli.main, checks
their outputs and writes the round's figures as JSON:

    python3 bench/worker.py '{"workload": "pipeline-b160", "seed": 1,
        "work": ".bench_work/x", "trace": false, "out": ".bench_work/x.json"}'

run.py starts it with the BLAS thread variables already set, since numpy
reads them when it is first imported.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_t0 = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import pktdetect.cli  # noqa: E402
SETUP_S = time.perf_counter() - _t0
if sys.argv[1:] == ["--setup-probe"]:  # run.py's extra setup_s samples
    print(repr(SETUP_S))
    sys.exit(0)

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import BATCH_SIZE, SNRS, WORKLOADS, dataset_spec  # noqa: E402


def commands(wl: dict, seed: int, r: checks.Round) -> list:
    """(stage, argv) for each subcommand call of the round, in order."""
    w, b = r.work, str(wl["block_len"])
    calls = [("gen", ["gen", "--spec", str(w / "spec.json"), "--out", str(w / "data")]),
             ("train", ["train", "--data", str(w / "data"), "--block-len", b,
                        "--epochs", str(wl["epochs"]), "--batch-size", str(BATCH_SIZE),
                        "--seed", str(seed), "--out", str(r.ckpt)])]
    # one eval call takes ~160 ms, so more than one call backs the eval rate
    calls += [("eval", ["eval", "--model", str(r.ckpt), "--data", str(w / "data"),
                        "--block-len", b, "--out", str(r.eval_csv(k))])
              for k in range(wl["eval_calls"])]
    calls.append(("sweep", ["sweep", "--conventional",
                            "--snrs", ",".join(f"{s:g}" for s in r.snrs),
                            "--packets", str(wl["packets"]), "--seed", str(seed),
                            "--out", str(r.sweep_csv)]))
    return calls


def capture(r: checks.Round, every: int = 100):
    """Keep every `every`-th metric_trace input and output and every trial
    outcome of the sweep for the checks; returns the undo function."""
    from pktdetect import corrsync, streams
    inner_trace = corrsync.metric_trace
    inner_trial = streams.StreamSimulator.run_trial
    count = [0]

    def capturing_trace(y, lag, window=None):
        out = inner_trace(y, lag, window)
        if count[0] % every == 0:
            r.captured_traces.append((y.samples, lag, lag if window is None else window, out))
        count[0] += 1
        return out

    def capturing_trial(self, *args, **kwargs):
        outcome = inner_trial(self, *args, **kwargs)
        r.captured_outcomes.append(outcome)
        return outcome

    corrsync.metric_trace = capturing_trace
    streams.StreamSimulator.run_trial = capturing_trial

    def undo():
        corrsync.metric_trace = inner_trace
        streams.StreamSimulator.run_trial = inner_trial
    return undo


def run_round(wl: dict, seed: int, work: Path, tracer=None):
    """Run and check one round; returns (figures, the checked Round)."""
    work.mkdir(parents=True, exist_ok=True)
    spec = dataset_spec(wl["block_len"], wl["n_blocks"], seed)
    (work / "spec.json").write_text(json.dumps(spec))
    r = checks.Round(work, spec, wl["epochs"], wl["eval_calls"], SNRS, wl["packets"])
    if tracer is not None:
        tracing.instrument(tracer)
    undo_capture = capture(r)
    attempted, failures = 0, []
    times = {}
    t_start = time.perf_counter()
    for stage, argv in commands(wl, seed, r):
        main = pktdetect.cli.main
        if tracer is not None:
            main = tracer.wrap(main, f"cli.{stage}")
            tracer.active = True
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # cli.main turns only its own errors into exit codes
            rc = f"by raising:\n{traceback.format_exc()}"
        times.setdefault(stage, []).append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        attempted += 1
        if rc != 0:
            failures.append(f"{stage} exited {rc}")
    pipeline_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    undo_capture()
    if tracer is not None:
        tracer.restore()

    for stage, fns in checks.stage_checks(r).items():
        for fn in fns:
            attempted += 1
            try:
                fn(r)
            except checks.CheckFailed as exc:
                failures.append(f"{stage} check: {exc}")
            except Exception:  # a crash in a check is a failed check
                failures.append(f"{stage} check crashed:\n{traceback.format_exc()}")

    n_train = int(np.floor(spec["split"][0] * spec["n_blocks"]))
    n_test = spec["n_blocks"] - int(np.floor(sum(spec["split"][:2]) * spec["n_blocks"]))
    out = {
        "setup_s": SETUP_S,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_rss_mb,
        "stage_s": times,
        "work_per_call": {"gen": spec["n_blocks"], "train": wl["epochs"] * n_train,
                          "eval": n_test, "sweep": len(SNRS) * wl["packets"]},
        "attempted": attempted,
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, wl["block_len"], BATCH_SIZE)
        out["self_s"] = tracing.module_self_s(tracer)
        out["layers"]["dataset.bytes_written"] = sum(
            p.stat().st_size for p in (work / "data").glob(spec["name"] + ".*"))
    return out, r


def env_info() -> dict:
    """Versions, core count, CPU model and the BLAS thread count in effect."""
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": threads, "nproc": os.cpu_count(), "cpu": cpu}


def main() -> int:
    args = json.loads(sys.argv[1])
    if not Path(pktdetect.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pktdetect imported from {pktdetect.cli.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args["trace"] else None
    result, _ = run_round(WORKLOADS[args["workload"]], args["seed"], Path(args["work"]), tracer)
    result["env"] = env_info()
    Path(args["out"]).write_text(json.dumps(result))
    for msg in result["failures"]:
        print(f"{args['workload']} seed {args['seed']}: {msg}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
