"""totpcount benchmark: time the CLI runners on seeded workloads.

Usage:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of ``totpcount.cli.run_*`` calls in-process for about S
seconds, checks every answer against ``totpcount.oracles``, and prints one
JSON line last: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` the run spends half its time untraced and half traced and
reports the per-layer ones.  Inputs, a ``totpcount bench`` manifest that
replays them, the full result and the spans go to
``.bench_out/<workload>-seed<N>-trace<T>/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15

END_TO_END = {
    "call_s.p50": "s",
    "call_s.p90": "s",
    "calls_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "seed": seed,
    }


class SetupProbes:
    """Import plus first-pass input generation, each in a fresh interpreter.

    The probes are spread over the run (one per pass, the rest at the end)
    so that their median sees the same machine as the timed calls.
    """

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.args = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.run_dir = run_dir
        self.times: list[float] = []

    def probe(self) -> None:
        if len(self.times) < SETUP_PROBES:
            out = subprocess.run(
                self.args + [str(self.run_dir / f"probe{len(self.times)}")],
                capture_output=True, text=True, timeout=120, check=True,
            )
            self.times.append(float(out.stdout.split()[-1]))

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def _lru_caches():
    for name in ("totpcount.capp", "totpcount.estimator"):
        for obj in vars(importlib.import_module(name)).values():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                yield obj


def _drop_caches() -> int:
    """Hits of the package's module-level caches, then clear them.

    Clearing after every call stands in for the process exit that ends each
    CLI command; it keeps memory per call rather than per run.
    """
    hits = 0
    for cache in _lru_caches():
        hits += cache.cache_info().hits
        cache.cache_clear()
    return hits


def _phase(workload, seed, run_dir, seconds, first_pass, results, tracer=None,
           between=lambda: None):
    """Run whole passes until the next one would end after ``seconds``.

    Appends one dict per call to ``results`` and calls ``between`` after
    each pass; returns (pass wall seconds, next pass index, cache hits).
    """
    begin = time.perf_counter()
    walls, hits, p = [], 0, first_pass
    while True:
        calls = workload.make_pass(seed, p, run_dir)
        p += 1
        t_pass = time.perf_counter()
        for call in calls:
            ctx = tracer.call(len(results)) if tracer else nullcontext()
            t0 = time.perf_counter()
            try:
                with ctx:
                    record, alphas = call.run(run_dir)
                error = None
            except Exception as exc:  # a call that raises is a failed call
                record, alphas, error = None, None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            hits += _drop_caches()
            results.append({"call": call, "record": record, "alphas": alphas, "error": error,
                            "seconds": dt, "traced": tracer is not None})
        walls.append(time.perf_counter() - t_pass)
        between()
        if time.perf_counter() - begin + walls[-1] > seconds:
            return sum(walls), p, hits


def _check_all(results) -> None:
    """Mark each result ok/failed against the oracle; add |error|/radius."""
    from workloads import check, truth

    for res in results:
        res["ok"], res["err_ratio"] = False, None
        if res["record"] is not None:
            res["truth"] = truth(res["call"].instance)
            res["ok"], res["err_ratio"] = check(res["call"], res["record"], res["truth"],
                                                res["alphas"])


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _per_layer(workload, seed, results, untraced, tracer, hits):
    import plan
    from tracer import PER_LAYER

    traced = [r["seconds"] for r in results if r["traced"] and r["record"] is not None]
    ratios = [r["err_ratio"] for r in results if r["err_ratio"] is not None]
    w = workload
    values = tracer.metrics(sum(r["traced"] for r in results), tracer.rng_seconds(seed), {
        "chain.planned_steps": plan.planned_steps(w.height, w.xi, w.delta, w.burn_const),
        "chain.planned_steps_default_burn": plan.planned_steps(w.height, w.xi, w.delta),
        "estimator.err_ratio.p50": statistics.median(ratios) if ratios else 0.0,
        "capp.cache_hits": hits,
        "trace.call_s.mean": statistics.fmean(traced) if traced else 0.0,
        "trace.overhead_s": _percentile(traced, 50) - _percentile(untraced, 50),
    })
    return values, PER_LAYER


def _write_outputs(run_dir, summary, results, tracer):
    manifest = {"runs": [r["call"].manifest_entry() for r in results]}
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    summary["calls"] = [dict(r, call=r["call"].manifest_entry()) for r in results]
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1, default=str))
    if tracer is not None:
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "totpcount" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import totpcount

    if Path(totpcount.__file__).resolve().parent != SRC / "totpcount":
        print(f"error: imported totpcount from {totpcount.__file__}", file=sys.stderr)
        return 2
    import plan
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    summary = {"workload": workload.name, "environment": _environment(args.seed),
               "seconds": args.seconds, "trace": args.trace}
    results: list[dict] = []
    tracer = None
    if args.trace:
        wall, next_pass, hits = _phase(workload, args.seed, run_dir, args.seconds / 2, 0, results)
        tracer = Tracer()
        with tracer.installed():
            _, _, traced_hits = _phase(workload, args.seed, run_dir, args.seconds / 2,
                                       next_pass, results, tracer)
        hits += traced_hits
    else:
        probes = SetupProbes(workload.name, args.seed, run_dir)
        probes.probe()
        wall, _, hits = _phase(workload, args.seed, run_dir, args.seconds, 0, results,
                               between=probes.probe)
        summary["setup_probes_s"] = probes.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_all(results)

    failed = sum(not r["ok"] for r in results)
    untraced = [r["seconds"] for r in results if r["record"] is not None and not r["traced"]]
    if args.trace:
        values, units = _per_layer(workload, args.seed, results, untraced, tracer, hits)
    else:
        values, units = {
            "call_s.p50": _percentile(untraced, 50),
            "call_s.p90": _percentile(untraced, 90),
            "calls_per_s": len(untraced) / wall,
            "setup_s": statistics.median(summary["setup_probes_s"]),
            "peak_rss_mb": peak_rss_mb,
        }, END_TO_END
    walk_rate = values.get("chain.walk_steps_per_s") or None
    summary["plan"] = {
        "planned_steps_per_call": plan.planned_steps(
            workload.height, workload.xi, workload.delta, workload.burn_const),
        "planned_steps_per_call_default_burn": plan.planned_steps(
            workload.height, workload.xi, workload.delta),
        "roadmap_grid": plan.roadmap_table(walk_rate),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary.update(attempted=len(results), failed=failed, peak_rss_mb=peak_rss_mb,
                   metrics=metrics)
    _write_outputs(run_dir, summary, results, tracer)

    print(f"{workload.name}: {len(results)} calls, {failed} failed; details in "
          f"{run_dir.relative_to(ROOT)}/result.json")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
