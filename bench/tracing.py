"""Span tracer for the traced benchmark rounds, and the per-layer metrics
computed from its spans.

Spans are recorded from outside the program: public functions are wrapped
where their caller looks them up (a module attribute or a class method),
each nn layer instance of a built model has its forward and backward
wrapped, and so has nn.Adam.step.  A span is [name, parent index, start,
end, work]; spans stay in memory until the round ends.  A span's self time
is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, work=None):
        """fn with a span around each call made while the tracer is active;
        work(args, result) gives the span's work count."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                rec[4] = work(args, out)
            return out
        return traced

    def swap(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(current value) until restore()."""
        orig = owner.__dict__[attr]
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        self.swap(owner, attr, lambda fn: self.wrap(fn, name, work))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def totals(self) -> dict:
        """name -> [calls, total s, self s, work]."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, _, t0, t1, w) in enumerate(self.spans):
            s = out.setdefault(name, [0, 0.0, 0.0, 0])
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - child[i]
            s[3] += w
        return out


def _n_samples(args, _):
    return len(args[0].samples)


def _batch(args, _):
    return args[0].shape[0]


LAYER_NAMES = {0: "conv1", 2: "conv2", 5: "fc", 7: "output"}


def instrument(tracer: Tracer) -> None:
    """Wrap the pktdetect calls the per-layer metrics are computed from."""
    from pktdetect import cnn, corrsync, dataset, nn, streams

    def traced_layers(model):
        for i, layer in enumerate(model.net.layers):
            name = LAYER_NAMES.get(i, type(layer).__name__.lower())
            layer.forward = tracer.wrap(layer.forward, f"nn.{name}.fwd", _batch)
            layer.backward = tracer.wrap(layer.backward, f"nn.{name}.bwd", _batch)
        return model

    tracer.swap(cnn, "build_model", lambda build: lambda *a, **k: (
        traced_layers(build(*a, **k)) if tracer.active else build(*a, **k)))

    for mod in (dataset, streams):
        tracer.patch(mod, "default_preamble_spec", "preamble.default_preamble_spec")
        tracer.patch(mod, "apply_channel", "channel.apply_channel", _n_samples)
        tracer.patch(mod, "rx_frontend", "channel.rx_frontend", _n_samples)
        tracer.patch(mod, "draw_model_b_taps", "channel.draw_model_b_taps")
    for fn in ("generate", "save", "load", "split"):
        tracer.patch(dataset, fn, f"dataset.{fn}",
                     (lambda a, out: len(out)) if fn == "generate" else None)
    for fn in ("train_detector", "save_model", "load_model", "evaluate"):
        tracer.patch(cnn, fn, f"cnn.{fn}")
    tracer.patch(cnn, "predict", "cnn.predict", lambda a, out: a[1].size)
    tracer.patch(nn, "train", "nn.train")
    tracer.patch(nn.Adam, "step", "nn.adam.step")
    tracer.patch(streams, "evaluate_conventional", "streams.evaluate_conventional")
    tracer.patch(streams, "summarize", "streams.summarize")
    tracer.patch(streams.StreamSimulator, "__init__", "streams.StreamSimulator.init")
    tracer.patch(streams.StreamSimulator, "run_trial", "streams.run_trial")
    tracer.patch(streams, "coarse_detect", "corrsync.coarse_detect")
    tracer.patch(streams, "fine_detect", "corrsync.fine_detect")
    tracer.patch(corrsync, "metric_trace", "corrsync.metric_trace",
                 lambda a, out: len(out))


def module_self_s(tracer: Tracer) -> dict:
    """Self time per module (the span name up to its first dot), in s."""
    out: dict = {}
    for name, (_, _, self_s, _) in tracer.totals().items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + self_s
    return out


def layer_metrics(tracer: Tracer, block_len: int, batch_size: int) -> dict:
    """Per-layer metrics of one traced round.

    FLOP/s figures are computed from the analytic model in pktdetect.flops
    (model FLOPs divided by measured time), not counted.  A layer's
    backward pass is modelled as twice its forward cost: one weight-gradient
    and one input-gradient product, bias gradients not counted.
    """
    from pktdetect import flops
    from pktdetect.cnn import CnnDetectorConfig
    from pktdetect.corrsync import CorrDetectorConfig

    tot = tracer.totals()

    def per_call(name, scale):
        calls, total = tot[name][0], tot[name][1]
        return total / calls * scale

    def rate(name, scale=1e-6):
        return tot[name][3] / tot[name][1] * scale

    m = {
        "preamble.default_preamble_spec.calls": tot["preamble.default_preamble_spec"][0],
        "preamble.default_preamble_spec.ms": per_call("preamble.default_preamble_spec", 1e3),
        "channel.apply_channel.us_per_call": per_call("channel.apply_channel", 1e6),
        "channel.apply_channel.msamples_per_s": rate("channel.apply_channel"),
        "channel.rx_frontend.us_per_call": per_call("channel.rx_frontend", 1e6),
        "channel.rx_frontend.msamples_per_s": rate("channel.rx_frontend"),
        "channel.draw_model_b_taps.us_per_call": per_call("channel.draw_model_b_taps", 1e6),
        "corrsync.coarse_detect.us_per_call": per_call("corrsync.coarse_detect", 1e6),
        "corrsync.metric_trace.msamples_per_s": rate("corrsync.metric_trace"),
        "corrsync.fine_detect.us_per_call": per_call("corrsync.fine_detect", 1e6),
        "streams.StreamSimulator.init_ms": per_call("streams.StreamSimulator.init", 1e3),
        "streams.run_trial.us_per_call": per_call("streams.run_trial", 1e6),
        "dataset.generate.us_per_block": tot["dataset.generate"][1] / tot["dataset.generate"][3] * 1e6,
        "dataset.save.ms": per_call("dataset.save", 1e3),
        "dataset.load.ms": per_call("dataset.load", 1e3),
        "dataset.split.ms": per_call("dataset.split", 1e3),
        "cnn.predict.msamples_per_s": rate("cnn.predict"),
        "cnn.evaluate.ms": per_call("cnn.evaluate", 1e3),
        "cnn.load_model.ms": per_call("cnn.load_model", 1e3),
        "nn.adam.step_us": per_call("nn.adam.step", 1e6),
        "nn.batches": tot["nn.adam.step"][0],
    }
    trace = CorrDetectorConfig()
    for label, report in (("gflops", flops.conventional_flops(trace)),
                          ("gflops_recursive", flops.conventional_flops_recursive(trace))):
        m[f"corrsync.metric_trace.{label}"] = rate("corrsync.metric_trace", report.total_per_block * 1e-9)

    # nn layers: mean over full training batches only, so that validation
    # and eval forwards (other batch sizes) do not mix in
    full = {}
    for name, _, t0, t1, w in tracer.spans:
        if name.startswith("nn.") and w == batch_size:
            full.setdefault(name, []).append(t1 - t0)
    n_batches = len(full["nn.conv1.bwd"])
    cost = {c.name: c.total for c in flops.model_flops(CnnDetectorConfig(block_len=block_len)).per_layer}
    for layer in ("conv1", "conv2", "fc", "output"):
        for d, mult in (("fwd", 1), ("bwd", 2)):
            t = statistics.fmean(full[f"nn.{layer}.{d}"])
            m[f"nn.{layer}.{d}_us"] = t * 1e6
            m[f"nn.{layer}.{d}_gflops"] = mult * cost[layer] * batch_size / t * 1e-9
    m["nn.relu.us"] = (sum(full["nn.relu.fwd"]) + sum(full["nn.relu.bwd"])) / n_batches * 1e6
    for cmd in ("gen", "train", "eval", "sweep"):
        calls, _, self_s, _ = tot[f"cli.{cmd}"]
        m[f"cli.{cmd}.self_ms"] = self_s / calls * 1e3
    return m
