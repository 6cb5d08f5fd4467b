"""Per-layer tracing from outside the package.

`Tracer.install` replaces the public functions listed below with wrappers
that record a span (name, start, end, parent id, root id) and add up calls,
inclusive busy time and self time (busy time minus child spans). Spans stay
in memory until the run writes them out. `uninstall` puts the originals back.

Call sites inside the package look these names up on their module or class
at call time (`ad.custom_op`, `model_mod.forward_batch`,
`self.ds.batch_arrays`), so patching the attribute reaches every caller. A
name bound by `from ... import` would not be reached; the interception guard
in run.py catches that as a wrapped function with no calls.
"""

import collections
import functools
import importlib
import time

# (module, attribute) pairs that get a span; "Class.method" patches the class
SPANNED = (
    ("datapipe", "build_dataset"),
    ("datapipe", "save_dataset"),
    ("datapipe", "load_dataset"),
    ("datapipe", "AlignedDataset.finalize"),
    ("datapipe", "AlignedDataset.batch_arrays"),
    ("autodiff", "backward"),
    ("encoders", "encode_price_batch"),
    ("encoders", "encode_text_batch"),
    ("encoders", "encode_macro_batch"),
    ("encoders", "encode_graph_batch"),
    ("fusion", "fuse_batch"),
    ("fusion", "align_loss"),
    ("heads", "micro_head_batch"),
    ("heads", "macro_risk_batch"),
    ("heads", "micro_forecast"),
    ("heads", "mixture_quantile"),
    ("heads", "generate_bulletin"),
    ("model", "forward_batch"),
    ("training", "forecast_loss"),
    ("training", "risk_loss"),
    ("training", "adamw_step"),
    ("training", "save_checkpoint"),
    ("training", "load_checkpoint"),
    ("training", "TrainingRun.run_stage"),
    ("rl", "rollout"),
    ("rl", "reinforce_update"),
    ("evaluate", "evaluate_split"),
    ("evaluate", "predict_micro"),
    ("evaluate", "predict_risk"),
    ("evaluate", "bulletin_for_date"),
    ("cli", "main"),
)
STAGES = ("unimodal-pretrain", "multimodal-align", "joint-multitask", "rl-finetune")
# `generate` runs only in set-up, which setup_s covers; its children are
# reported as datapipe spans
CLI_COMMANDS = ("train", "eval", "forecast", "report", "rl-run")


def span_names() -> list:
    """Every span name a full run records, in report order."""
    names = []
    for module, attr in SPANNED:
        leaf = attr.rsplit(".", 1)[-1]
        if leaf == "run_stage":
            names += [f"training.run_stage.{s}" for s in STAGES]
        elif module == "cli":
            names += [f"cli.{c}" for c in CLI_COMMANDS]
        else:
            names.append(f"{module}.{leaf}")
    return names


# counters that are not spans: name -> unit
COUNTERS = {
    "autodiff.custom_op.calls": "count",
    "autodiff.tape_ops": "count",
    "datapipe.batch_rows": "rows",
    "rl.env_forward_ratio": "ratio",
}


def layer_metric_units() -> dict:
    """Per-layer metric name -> unit, for every span and counter."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    units.update(COUNTERS)
    return units


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []          # (id, parent id, root id, name, start, end)
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = collections.Counter()
        self._stack = []         # [id, root id, name, start, child seconds]
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        span_id = len(self.spans) + len(self._stack)
        root = self._stack[0][0] if self._stack else span_id
        self._stack.append([span_id, root, name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        span_id, root, name, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, parent, root, name,
                           start - self.t0, end - self.t0))
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child

    def _in(self, name) -> bool:
        return any(frame[2] == name for frame in self._stack)

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, wrapper_of):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(wrapper_of(original)))
        self._restore.append((owner, attr, original))

    def _spanned(self, owner, attr, name_of, before=None, after=None):
        tracer = self

        def wrapper_of(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                tracer._enter(name_of(args, kwargs))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                if after is not None:
                    after(result)
                return result
            return wrapper

        self._patch(owner, attr, wrapper_of)

    def install(self) -> None:
        counts = self.counts
        hooks = {
            "autodiff.backward": dict(before=lambda a, k: counts.update(
                {"autodiff.tape_ops": len(a[1] if len(a) > 1 else k["tape"])})),
            "datapipe.batch_arrays": dict(before=lambda a, k: counts.update(
                {"datapipe.batch_rows": len(a[1] if len(a) > 1 else k["pairs"])})),
            "model.forward_batch": dict(before=lambda a, k: counts.update(
                {"rl.rollout_forwards": int(self._in("rl.rollout"))})),
            # env state lookups: one per reset plus two per step
            "rl.rollout": dict(after=lambda traj: counts.update(
                {"rl.env_lookups": 1 + 2 * len(traj)})),
        }
        for module_name, attr in SPANNED:
            module = importlib.import_module(f"finfusion.{module_name}")
            owner = module
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(module, cls)
            if attr == "run_stage":
                name_of = (lambda a, k:
                           f"training.run_stage.{a[1] if len(a) > 1 else k['stage']}")
            elif module_name == "cli":
                name_of = lambda a, k: f"cli.{(a[0] if a else k['argv'])[0]}"
            else:
                name_of = (lambda n: lambda a, k: n)(f"{module_name}.{attr}")
            self._spanned(owner, attr, name_of,
                          **hooks.get(f"{module_name}.{attr}", {}))

        autodiff = importlib.import_module("finfusion.autodiff")

        def counted(fn):
            def wrapper(*args, **kwargs):
                counts["autodiff.custom_op.calls"] += 1
                return fn(*args, **kwargs)
            return wrapper

        self._patch(autodiff, "custom_op", counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain totals: span name -> [calls, seconds, self seconds], counts."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}


def layer_metrics(weighted: list) -> dict:
    """Per-layer metric values from (tracer snapshot, weight) pairs.

    Span totals and counts are added up with their weights and turned into
    `.calls`, `.ms` and `.self_ms`. The env forward ratio is a ratio of the
    summed counts.
    """
    stats = collections.defaultdict(lambda: [0.0, 0.0, 0.0])
    counts = collections.Counter()
    for snap, weight in weighted:
        for name, (calls, sec, self_sec) in snap["stats"].items():
            st = stats[name]
            st[0] += weight * calls
            st[1] += weight * sec
            st[2] += weight * self_sec
        for name, n in snap["counts"].items():
            counts[name] += weight * n
    out = {}
    for name in span_names():
        calls, sec, self_sec = stats.get(name, (0.0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.ms"] = sec * 1e3
        out[f"{name}.self_ms"] = self_sec * 1e3
    for name in ("autodiff.custom_op.calls", "autodiff.tape_ops", "datapipe.batch_rows"):
        out[name] = counts[name]
    lookups = counts["rl.env_lookups"]
    out["rl.env_forward_ratio"] = counts["rl.rollout_forwards"] / lookups if lookups else 0.0
    return out
