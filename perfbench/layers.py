"""The seams the traced run wraps, and the per-layer metrics read off its spans.

Layer names follow the package modules: core, losses, optim, metrics,
baselines, datagen, pareto, cli. A metric ending in ``.s`` or ``.self_s`` is
the layer's self time (its span durations minus the spans it called), so the
self times of one traced iteration add up to that iteration's wall time;
``trace.unattributed_s`` is what is left for the benchmark's own glue. Every
value is per traced iteration of the timed body, except ``datagen.generate.s``,
which adds the generation time of one set-up.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from spans import Hook, Span


def _second(args, kwargs, name):
    return args[1] if len(args) > 1 else kwargs[name]


def _fit(original, args, kwargs):
    trace = original(*args, **kwargs)
    config = _second(args, kwargs, "config")
    return trace, {
        "steps": trace.step_count,
        "maxed": trace.step_count >= config.max_steps,
        "minibatch": config.scaling.kind == "minibatch",
    }


def _inferiority(original, args, kwargs):
    # _inferiority_loss_grad(S, P, k, f_rows, m_norm): the deficit tensor it
    # builds holds |f_rows| * m * n doubles, computed from the shapes.
    S = args[0] if args else kwargs["S"]
    f_rows = args[3] if len(args) > 3 else kwargs["f_rows"]
    result = original(*args, **kwargs)
    return result, {"bytes": 8 * len(f_rows) * S.shape[0] * S.shape[1]}


def _congestion_alleviation(original, args, kwargs):
    # Ask for the solver diagnostics to read the sweep count, then hand the
    # caller what it asked for; the computation is the same.
    args, kwargs = list(args), dict(kwargs)
    want_info = args.pop(3) if len(args) > 3 else kwargs.pop("return_info", False)
    policy, info = original(*args, return_info=True, **kwargs)
    return ((policy, info) if want_info else policy), {"sweeps": info.sweeps}


def _load_matrix(original, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return original(*args, **kwargs), {"bytes": os.path.getsize(path)}


def _save_matrix(original, args, kwargs):
    result = original(*args, **kwargs)
    return result, {"bytes": os.path.getsize(_second(args, kwargs, "path"))}


# Each entry wraps the name a caller looks up at call time. Modules that
# imported a function by name hold their own reference, so those are wrapped
# where the caller looks them up (feir.cli.fit, feir.pareto.system_metrics).
HOOKS = [
    Hook("feir.optim", "_inferiority_loss_grad", "losses.inferiority", _inferiority),
    Hook("feir.optim", "_envy_loss_grad", "losses.envy"),
    Hook("feir.optim", "_utility_loss_grad", "losses.utility"),
    Hook("feir.optim", "softmax_grad_chain", "losses.softmax_chain"),
    Hook("feir.optim", "row_softmax", "core.row_softmax"),
    Hook("feir.optim", "make_training_view", "optim.make_training_view"),
    Hook("feir.optim", "fit", "optim.fit", _fit),
    Hook("feir.cli", "fit", "optim.fit", _fit),
    Hook("feir.core", "top_k", "core.top_k"),
    Hook("feir.cli", "top_k", "core.top_k"),
    Hook("feir.baselines", "top_k", "core.top_k"),
    Hook("feir.baselines", "row_softmax", "core.row_softmax"),
    Hook("feir.metrics", "system_metrics", "metrics.system_metrics"),
    Hook("feir.pareto", "system_metrics", "metrics.system_metrics"),
    Hook("feir.pareto", "competition_metrics", "metrics.competition_metrics"),
    Hook("feir.pareto", "gini_index", "metrics.gini_index"),
    Hook("feir.pareto", "hypervolume_2d", "pareto.hypervolume_2d"),
    Hook("feir.baselines", "congestion_alleviation", "baselines.congestion_alleviation",
         _congestion_alleviation),
    Hook("feir.baselines", "round_robin", "baselines.round_robin"),
    Hook("feir.baselines", "shuffle", "baselines.shuffle"),
    Hook("feir.core", "load_matrix", "core.load_matrix", _load_matrix),
    Hook("feir.core", "save_matrix", "core.save_matrix", _save_matrix),
    Hook("feir.cli", "save_matrix", "core.save_matrix", _save_matrix),
    Hook("feir.datagen", "generate", "datagen.generate"),
]

# The root span of a traced iteration. The workloads' bodies open
# "cli.cmd_run" and "cli.cmd_report" around their calls to those entry points.
ITERATION = "bench.iteration"


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], traced_walls, untraced_walls, setups: int,
                  untraced_hooks) -> dict:
    """Per-layer metrics, as ``{name: (value, unit)}``."""
    iters = [s for s in spans if s.run_id.startswith("iter")]
    n = max(1, sum(1 for s in iters if s.name == ITERATION))
    by_name = defaultdict(list)
    for s in iters:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / n

    def self_s(name):
        return sum(s.self_s for s in by_name[name]) / n

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in by_name[name]) / n

    fits = [s for s in by_name["optim.fit"] if s.attrs]  # a fit that raised has none
    full = [s for s in fits if not s.attrs["minibatch"]]
    minibatch = [s for s in fits if s.attrs["minibatch"]]

    def steps_per_s(group):
        busy = sum(s.duration for s in group)
        return sum(s.attrs["steps"] for s in group) / busy if busy > 0 else 0.0

    generate_setup = sum(s.self_s for s in spans
                         if s.name == "datagen.generate" and s.run_id.startswith("setup"))
    traced, untraced = _median(traced_walls), _median(untraced_walls)
    out = {
        "losses.inferiority.calls": (calls("losses.inferiority"), "count"),
        "losses.inferiority.s": (self_s("losses.inferiority"), "s"),
        "losses.inferiority.bytes_computed": (attr_sum("losses.inferiority", "bytes"), "B"),
        "losses.envy.calls": (calls("losses.envy"), "count"),
        "losses.envy.s": (self_s("losses.envy"), "s"),
        "losses.utility.s": (self_s("losses.utility"), "s"),
        "losses.softmax_chain.s": (self_s("losses.softmax_chain"), "s"),
        "core.row_softmax.s": (self_s("core.row_softmax"), "s"),
        "optim.step_overhead.s": (self_s("optim.fit"), "s"),
        "optim.make_training_view.s": (self_s("optim.make_training_view"), "s"),
        "optim.fit.calls": (calls("optim.fit"), "count"),
        "optim.fit.steps": (attr_sum("optim.fit", "steps"), "count"),
        "optim.fit.maxed_frac": (
            sum(s.attrs["maxed"] for s in fits) / len(fits) if fits else 0.0, "fraction"),
        "optim.fit.steps_per_s": (steps_per_s(full), "1/s"),
        "optim.fit.step_ms_p50": (
            _median([1e3 * s.duration / s.attrs["steps"] for s in full]), "ms"),
        "optim.minibatch.steps_per_s": (steps_per_s(minibatch), "1/s"),
        "metrics.system_metrics.calls": (calls("metrics.system_metrics"), "count"),
        "metrics.system_metrics.s": (self_s("metrics.system_metrics"), "s"),
        "metrics.competition_metrics.calls": (calls("metrics.competition_metrics"), "count"),
        "metrics.competition_metrics.s": (self_s("metrics.competition_metrics"), "s"),
        "metrics.gini_index.s": (self_s("metrics.gini_index"), "s"),
        "baselines.congestion_alleviation.calls": (
            calls("baselines.congestion_alleviation"), "count"),
        "baselines.congestion_alleviation.s": (self_s("baselines.congestion_alleviation"), "s"),
        "baselines.congestion_alleviation.sweeps": (
            attr_sum("baselines.congestion_alleviation", "sweeps"), "count"),
        "baselines.round_robin.s": (self_s("baselines.round_robin"), "s"),
        "baselines.shuffle.s": (self_s("baselines.shuffle"), "s"),
        "core.top_k.calls": (calls("core.top_k"), "count"),
        "core.top_k.s": (self_s("core.top_k"), "s"),
        "core.load_matrix.s": (self_s("core.load_matrix"), "s"),
        "core.load_matrix.bytes": (attr_sum("core.load_matrix", "bytes"), "B"),
        "core.save_matrix.s": (self_s("core.save_matrix"), "s"),
        "core.save_matrix.bytes": (attr_sum("core.save_matrix", "bytes"), "B"),
        "cli.cmd_run.self_s": (self_s("cli.cmd_run"), "s"),
        "cli.cmd_report.s": (self_s("cli.cmd_report"), "s"),
        "pareto.hypervolume_2d.s": (self_s("pareto.hypervolume_2d"), "s"),
        "datagen.generate.s": (
            self_s("datagen.generate") + generate_setup / max(1, setups), "s"),
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_frac": ((traced - untraced) / untraced if untraced else 0.0, "fraction"),
        "trace.unattributed_s": (self_s(ITERATION), "s"),
        "trace.untraced_hooks": (len(untraced_hooks), "count"),
    }
    return out
