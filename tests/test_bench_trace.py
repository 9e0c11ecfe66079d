"""One small traced benchmark round: `bench/tracing.py` wraps the program's
functions where their callers look them up, so a renamed or moved function,
or a changed call form, breaks `--trace 1` rounds.  This runs one such round
at the size of the planted-fault tests and computes its per-layer metrics."""
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402
import worker  # noqa: E402
from test_checks import SMALL  # noqa: E402


def test_traced_round_has_no_failures(tmp_path):
    tracer = tracing.Tracer()
    out, _ = worker.run_round(SMALL, 3, tmp_path / "round", tracer=tracer)
    assert out["failures"] == []
    assert all(math.isfinite(v) for v in out["layers"].values())
    assert out["layers"]["channel.apply_channel.us_per_call"] > 0
