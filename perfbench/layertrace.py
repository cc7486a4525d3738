"""Outside-in tracing of irsopt's public functions.

The tracer wraps named public callables from outside the package: it
replaces every module attribute in ``irsopt`` that *is* the original object
(so a name imported with ``from .streams import crandn`` into ``channel``
and ``ssca`` is wrapped there too, and ``run`` imported as ``run_ssca`` is
wrapped under its alias), and it replaces methods on their class.  Each
call records one span (name, start, end, parent index) in memory; self
time is a span's duration minus its direct children's.

A target that no longer exists is recorded as absent; its metrics read 0.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)      # "<name>.<stat>" -> number
    eval_keys: list = field(default_factory=list)   # draw keys of each MC evaluation
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """A callable that records a span around ``fn`` and then lets
        ``on_result(tracer, bound_args, result)`` add work counts."""
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments if signature else {}
                except TypeError:
                    bound = {}
                on_result(self, bound, result)
            return result

        return traced

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- patching ----------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every (module, qualname, on_result, wrap_result) target.

        ``wrap_result`` names the span recorded around the *callable the
        target returns* (used for the policy that ``mrt_policy`` builds);
        the target itself is then not spanned.
        """
        for module_name, qualname, on_result, wrap_result in targets:
            label = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(label)
                continue
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(module, cls_name, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(label)
                continue
            original = vars(owner)[attr]
            if wrap_result is None:
                replacement = self.wrap(label, original, on_result)
            else:
                replacement = self._wrap_factory(original, wrap_result)
            if owner is module:
                self._replace_everywhere(original, replacement)
            else:
                self._set(owner, attr, replacement)

    def _wrap_factory(self, factory: Callable, span_name: str) -> Callable:
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(span_name, factory(*args, **kwargs))
        return make

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "irsopt" or mod_name.startswith("irsopt.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def span_stats(self) -> dict:
        """name -> {"calls", "s", "self_s"} over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        stats: dict = {}
        for span, children in zip(self.spans, child_time):
            entry = stats.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - children
        return stats


# ---------------------------------------------------------------------------
# What to trace in irsopt, and the work each layer counts
# ---------------------------------------------------------------------------

def _count_values(tracer, args, result):
    tracer.add("streams.crandn.values", getattr(result, "size", 0))


def _count_draw(tracer, args, result):
    tracer.add("channel.PhysicalChannelSampler.draw.samples", args.get("n", 0))


def _count_iters(tracer, args, result):
    trace = getattr(result, "trace", None)
    tracer.add("ssca.run.iters", len(getattr(trace, "t", ())))


def _count_evaluation(tracer, args, result):
    n = args.get("n_samples", 0)
    tracer.add("rate.ergodic_rate_mc.samples", n)
    stats = args.get("stats")
    rng = args.get("rng")
    # an integer seed fixes the draws; a Generator or SeedSequence counts as unshared
    seed = int(rng) if isinstance(rng, numbers.Integral) else ("object", id(rng))
    tracer.eval_keys.append((seed, getattr(stats, "irs_size", None),
                             tuple(getattr(stats, "bs_sizes", ()))[:1], n))


TARGETS = (
    ("irsopt.streams", "crandn", _count_values, None),
    ("irsopt.channel", "build_statistics", None, None),
    ("irsopt.channel", "PhysicalChannelSampler.draw", _count_draw, None),
    ("irsopt.rate", "ergodic_rate_mc", _count_evaluation, None),
    ("irsopt.rate", "upper_bound_rate_closed_form", None, None),
    ("irsopt.beamforming", "mrt_policy", None, "beamforming.policy"),
    ("irsopt.ssca", "run", _count_iters, None),
    ("irsopt.ssca", "update_coefficients", None, None),
    ("irsopt.ssca", "solve_surrogate", None, None),
    ("irsopt.ssca", "DesignObjective.sample", None, None),
    ("irsopt.baselines", "design_scheme", None, None),
    ("irsopt.baselines", "evaluate_scheme", None, None),
    ("irsopt.cli", "run_sweep", None, None),
)

# (span name, stats reported for it); counts come from Tracer.counts
LAYER_STATS = (
    ("ssca.update_coefficients", ("calls", "s", "self_s")),
    ("ssca.DesignObjective.sample", ("calls", "s", "self_s")),
    ("ssca.solve_surrogate", ("calls", "s")),
    ("ssca.run", ("calls", "s", "self_s", "iters")),
    ("streams.crandn", ("calls", "s", "values")),
    ("channel.PhysicalChannelSampler.draw", ("calls", "s", "self_s", "samples")),
    ("rate.ergodic_rate_mc", ("calls", "s", "self_s", "samples", "shared_draw_frac")),
    ("rate.upper_bound_rate_closed_form", ("calls", "s")),
    ("channel.build_statistics", ("calls", "s")),
    ("beamforming.policy", ("calls", "s")),
    ("baselines.design_scheme", ("calls", "s")),
    ("baselines.evaluate_scheme", ("calls", "s", "self_s")),
    ("cli.run_sweep", ("calls", "s", "self_s")),
)

UNITS = {"calls": "count", "s": "s", "self_s": "s", "shared_draw_frac": "frac"}


def layer_metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {f"{name}.{stat}": UNITS.get(stat, "count")
             for name, stats in LAYER_STATS for stat in stats}
    units["trace.overhead_s"] = "s"
    units["trace.absent"] = "count"
    return units


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values over everything the tracer recorded
    (``trace.overhead_s`` is added by the caller, which has both walls)."""
    spans = tracer.span_stats()
    keys = tracer.eval_keys
    shared = sum(1 for i, key in enumerate(keys) if key in keys[:i])
    derived = {"rate.ergodic_rate_mc.shared_draw_frac": shared / len(keys) if keys else 0.0}
    out = {}
    for name, stats in LAYER_STATS:
        for stat in stats:
            key = f"{name}.{stat}"
            if stat in ("calls", "s", "self_s"):
                out[key] = spans.get(name, {}).get(stat, 0)
            elif key in derived:
                out[key] = derived[key]
            else:
                out[key] = tracer.counts.get(key, 0)
    out["trace.absent"] = len(tracer.absent)
    return out


def top_self(tracer: Tracer, n: int = 3) -> list:
    """The n span names with the most self time, as (name, self_s)."""
    spans = tracer.span_stats()
    ranked = sorted(spans.items(), key=lambda kv: kv[1]["self_s"], reverse=True)
    return [(name, entry["self_s"]) for name, entry in ranked[:n]]
