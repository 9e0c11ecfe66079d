"""Benchmark of the pktdetect workbench, one workload per call.

    python3 bench/run.py --workload pipeline-b160 --seed 1 --seconds 50 --trace 0

Runs whole rounds of the workload (see workloads.py), each in a fresh
worker process with BLAS pinned to one thread, until the next round would
overrun --seconds (at least MIN_ROUNDS rounds).  With --trace 0 it prints
the end-to-end metrics of BENCHMARK.json: stage rates over the whole run,
the other figures medians over the rounds (setup_s also over SETUP_PROBES
import-only processes per round).  With --trace 1 it alternates
untraced and traced rounds and prints the per-layer metrics, medians over
the traced rounds, with the tracing overhead.  The last line of standard
output is the JSON result.  Run from the root of a checkout; it reads and
writes only there, under .bench_work/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 4
ROUND_TIMEOUT_S = 120
SETUP_PROBES = 2   # extra fresh-process imports per round, for the setup_s median
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_round(workload: str, seed: int, traced: bool, work: Path) -> dict:
    out = work.with_suffix(".json")
    arg = json.dumps({"workload": workload, "seed": seed, "trace": traced,
                      "work": str(work), "out": str(out)})
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), arg], env=ENV,
                          cwd=ROOT, stdout=subprocess.DEVNULL, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"worker round exited {proc.returncode}")
    result = json.loads(out.read_text())
    shutil.rmtree(work)
    out.unlink()
    return result


def probe_setup() -> float:
    """setup_s of one more fresh process that only imports pktdetect."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--setup-probe"],
                          env=ENV, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def median_of(rounds: list, key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def rate(rounds: list, stage: str) -> float:
    """Work done by all calls of a stage over their summed wall time.

    A throughput over the whole run, not a median of per-call rates: on a
    shared machine short calls fall wholly into fast or slow spells, and a
    median of such a mixture jumps between the two.
    """
    work = sum(r["work_per_call"][stage] * len(r["stage_s"][stage]) for r in rounds)
    return work / sum(sum(r["stage_s"][stage]) for r in rounds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pktdetect" / "cli.py").is_file():
        print(f"no pktdetect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work_root = ROOT / ".bench_work"
    run_dir = work_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    rounds, durations = [], []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            r = run_round(args.workload, args.seed, traced, run_dir / f"round{len(rounds)}")
            r["traced"] = traced
            r["setup_probes"] = [] if args.trace else [probe_setup() for _ in range(SETUP_PROBES)]
            rounds.append(r)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            whole_pair = not args.trace or len(rounds) % 2 == 0
            if (len(rounds) >= MIN_ROUNDS and whole_pair
                    and elapsed + statistics.median(durations) * (1 + args.trace) > args.seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    plain = [r for r in rounds if not r["traced"]]
    shares = {}
    if not args.trace:
        values = {k: median_of(plain, k) for k in ("pipeline_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(
            s for r in plain for s in [r["setup_s"]] + r["setup_probes"])
        values.update(gen_blocks_per_s=rate(plain, "gen"),
                      train_samples_per_s=rate(plain, "train"),
                      eval_blocks_per_s=rate(plain, "eval"),
                      conv_trials_per_s=rate(plain, "sweep"))
    else:
        traced = [r for r in rounds if r["traced"]]
        values = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        values["trace.pipeline_s"] = median_of(traced, "pipeline_s")
        values["trace.untraced_pipeline_s"] = median_of(plain, "pipeline_s")
        values["trace.overhead_s"] = values["trace.pipeline_s"] - values["trace.untraced_pipeline_s"]
        shares = {module: statistics.median(r["self_s"][module] / r["pipeline_s"] for r in traced)
                  for module in traced[0]["self_s"]}

    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    print("# env " + json.dumps(rounds[0]["env"]))
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({sum(r['traced'] for r in rounds)} traced) in {time.perf_counter() - start:.1f} s")
    for module, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"# self-time share {module:<10} {share:6.1%} of the traced pipeline")
    for f in failures:
        print(f"# FAILED {f}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
