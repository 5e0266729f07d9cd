"""Closed-loop runner for one workload: set-up, timed window, output checks,
metrics and the result record.

One run sets the workload up ``setup_reps`` times (``setup_s`` is the
median), then repeats the timed body on the last inputs, one iteration after
the other, until the next iteration would end past ``seconds`` (at least two
iterations). A traced run alternates untraced and traced iterations, so the
gap between the two medians is the tracing overhead. After the window the
outputs are checked twice: every repeat of the body must give the same
outputs, and the workload's fixed reference instance must reproduce
``reference.json``.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy
import scipy

import layers
import workloads
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
MIN_ITERATIONS = 2

# How fast this shared 2-vCPU VM runs drifts by 10-25% over minutes, and a
# run lasts half a minute. A fixed probe timed just before and after each
# iteration tracks that drift, and no change to feir can move it, since it
# calls neither feir nor BLAS. ms_per_unit_calibrated rescales each
# iteration to the speed at which the probe takes its reference time (about
# its uncontended time on that VM). Each workload uses the probe that matches
# where its own time goes; see the workloads' ``probe`` attribute.
PROBE_REFERENCE_S = {"python": 0.04, "numpy": 0.05}


def probe_s(kind: str) -> float:
    """Time one pass of the calibration probe: a loop of one million
    pure-Python additions, or five rounds of ``maximum`` and ``sum`` over a
    fresh 32 MB array."""
    start = time.perf_counter()
    if kind == "python":
        total = 0
        for i in range(1_000_000):
            total += i
    else:
        data = numpy.full(4_000_000, 0.75)
        for _ in range(5):
            numpy.maximum(data, 0.5).sum()
    return time.perf_counter() - start


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def git_rev(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(seed: int, traced: bool, root: Path) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "traced": traced,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
            "threads": blas_threads(),
        },
        "git_rev": git_rev(root),
        "machine": platform.machine(),
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_outcome(name: str, spec: dict, workdir: Path):
    """Run a workload's body once on its fixed reference instance."""
    workload = workloads.WORKLOADS[name](**spec["params"])
    inputs = workload.setup(spec["seed"], workdir)
    return workload, workload.body(inputs, workdir / "out", NullTracer(), lambda: 0)


def _steps(spans) -> int:
    return sum(s.attrs["steps"] for s in spans if s.attrs)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, root: Path,
                 params: dict | None = None, hooks=None, reference: dict | None = None,
                 out_dir: Path | None = None) -> dict:
    """Run one workload and return its result record.

    ``params`` resizes the workload (the smoke test runs tiny instances),
    ``hooks`` replaces the traced seams and ``reference`` the stored
    reference outputs.
    """
    workload = workloads.WORKLOADS[name](**(params or {}))
    hooks = layers.HOOKS if hooks is None else hooks
    reference = load_reference() if reference is None else reference
    workdir = root / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer()
    fit_log = Tracer()  # counts the steps of every fit, traced or not
    failures: list[str] = []
    attempted = failed = 0
    try:
        fit_log.install([h for h in layers.HOOKS if h.span == "optim.fit"])
        setup_times = []
        for rep in range(workload.setup_reps):
            tracer.run_id = f"setup{rep}"
            if trace:
                tracer.install(hooks)
            start = time.perf_counter()
            try:
                with tracer.span("bench.setup") if trace else contextlib.nullcontext():
                    inputs = workload.setup(seed, workdir)
            finally:
                setup_times.append(time.perf_counter() - start)
                tracer.uninstall()

        iterations, outcomes = [], []
        window_start = time.perf_counter()
        while True:
            i = len(iterations)
            traced = trace and i % 2 == 1
            out = workdir / f"iter{i}"
            tracer.run_id = f"iter{i}"
            if traced:
                tracer.install(hooks)
            mark = len(fit_log.spans)
            calibration = probe_s(workload.probe)
            start = time.perf_counter()
            try:
                with tracer.span(layers.ITERATION) if traced else contextlib.nullcontext():
                    outcome = workload.body(inputs, out, tracer if traced else NullTracer(),
                                            lambda: _steps(fit_log.spans[mark:]))
            except Exception:  # noqa: BLE001 - a raised operation is a failed one
                attempted += 1
                failed += 1
                failures.append(f"iteration {i}: {traceback.format_exc(limit=3)}")
                break
            finally:
                wall = time.perf_counter() - start
                tracer.uninstall()
                shutil.rmtree(out, ignore_errors=True)
            calibration = (calibration + probe_s(workload.probe)) / 2
            iterations.append({"wall_s": wall, "units": outcome.units, "traced": traced,
                               "calibration_s": calibration})
            outcomes.append(outcome)
            attempted += outcome.attempted
            failed += min(len(outcome.failures), outcome.attempted)
            failures.extend(f"iteration {i}: {f}" for f in outcome.failures)
            elapsed = time.perf_counter() - window_start
            if len(iterations) >= MIN_ITERATIONS and elapsed + wall > seconds:
                break

        # Repeats of one input must agree exactly.
        attempted += 1
        if len({o.digest() for o in outcomes}) > 1:
            failed += 1
            failures.append("outputs differ between repeats of the same input")

        # The fixed reference instance must reproduce the stored outputs.
        attempted += 1
        ref = reference[name]
        try:
            ref_workload, ref_outcome = reference_outcome(name, ref["spec"],
                                                          workdir / "reference")
            diffs = ref_outcome.failures + workloads.compare(
                ref_outcome.observed, ref["expected"], ref_workload.rel_tol)
        except Exception:  # noqa: BLE001 - a raised operation is a failed one
            diffs = [traceback.format_exc(limit=3)]
        if diffs:
            failed += 1
            failures.extend(f"reference: {d}" for d in diffs)
    finally:
        fit_log.uninstall()
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    untraced_walls = [it["wall_s"] for it in iterations if not it["traced"]]
    traced_walls = [it["wall_s"] for it in iterations if it["traced"]]
    measured = [it for it in iterations if not it["traced"] and it["units"] > 0]
    per_unit = [1e3 * it["wall_s"] / it["units"] for it in measured]
    calibrated = [ms * PROBE_REFERENCE_S[workload.probe] / it["calibration_s"]
                  for ms, it in zip(per_unit, measured)]
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ms_per_unit_calibrated": (statistics.median(calibrated) if calibrated else None, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }
    if trace:
        chosen = layers.layer_metrics(tracer.spans, traced_walls, untraced_walls,
                                      len(setup_times), tracer.untraced)
    else:
        chosen = end_to_end
    wall = statistics.median(untraced_walls) if untraced_walls else None
    ok_ops = sum(o.attempted - len(o.failures) for o in outcomes) / max(1, len(outcomes))
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
        },
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "summary": {
            "wall_s": wall,
            "ms_per_unit": statistics.median(per_unit) if per_unit else None,
            "calibration_s": statistics.median(it["calibration_s"] for it in iterations)
            if iterations else None,
            "ok_ops_per_s": ok_ops / wall if wall else None,
            "iterations": iterations,
            "setup_s": setup_times,
            **(outcomes[0].info if outcomes else {}),
        },
        "untraced_hooks": list(tracer.untraced),
        "failures": failures,
        "meta": metadata(seed, trace, root),
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}_seed{seed}_trace{int(trace)}_{time.time_ns()}"
        with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        if trace:
            tracer.write_jsonl_gz(out_dir / f"{stem}.spans.jsonl.gz")
    return record
