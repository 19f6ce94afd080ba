"""One benchmark child process (spawned by ``perfbench/run.py``).

Every child is a fresh interpreter.  Modes:

* ``import``  — ``import repro`` only; print this process's ``VmHWM``.
* ``measure`` — set up (``import repro`` plus the workload's untimed
  warm-up pass, which fills the ``dsp.plane`` caches), print ``READY``,
  then time full ``FleetScheduler(config, workers=1).run()`` passes of
  one cohort member for ``--seconds``.
* ``trace``   — set up, then time untraced passes for half of
  ``--seconds`` and traced passes (:class:`tracing.LayerTracer`) for the
  other half; write the spans to ``--spans`` when done.

The last stdout line is one JSON object.  ``VmHWM`` is read from
``/proc/self/status`` (reset at exec, unlike ``ru_maxrss``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.workloads import STAGING, Workload  # noqa: E402


def vm_hwm_mb() -> float:
    """Peak resident set of this process, in MB (``VmHWM``)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_pass(workload: Workload, config) -> Dict[str, Any]:
    """One timed fleet run, reduced to what the parent checks and folds."""
    from repro.fleet import FleetScheduler

    start = time.perf_counter()
    try:
        result = FleetScheduler(
            config,
            workers=1,
            shard_users=workload.shard_users,
            staging=STAGING,
        ).run()
    except Exception as exc:  # a raised shard fails the pass, not the run
        return {"raised": f"{type(exc).__name__}: {exc}",
                "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    agg = result.aggregate
    doc = json.dumps(agg.to_dict(hours=config.hours), sort_keys=True)
    return {
        "sessions": agg.sessions,
        "unlocked": agg.unlocked,
        "latency": agg.latency.to_dict(),
        "wall_s": wall,
        "sha256": hashlib.sha256(doc.encode()).hexdigest(),
    }


def timed_passes(workload: Workload, config, seconds: float):
    """Run passes within ``seconds`` (at least one).

    Another pass starts only if one more, as long as the last, still
    ends within ``seconds``.  Returns the passes and this process's peak
    RSS after the first one: later passes grow the heap through
    fragmentation, so a peak read at the end would depend on how many
    passes fit in ``seconds``.
    """
    start = time.perf_counter()
    passes = [run_pass(workload, config)]
    hwm_mb = vm_hwm_mb()
    while time.perf_counter() - start + passes[-1]["wall_s"] <= seconds:
        passes.append(run_pass(workload, config))
    return passes, hwm_mb


def pass_rate(passes: List[Dict[str, Any]]) -> float:
    """Median sessions per second over the passes that completed."""
    rates = [p["sessions"] / p["wall_s"] for p in passes if "sessions" in p]
    return statistics.median(rates) if rates else 0.0


def cache_counts() -> Dict[str, Dict[str, int]]:
    from repro.dsp.plane import all_cache_stats

    return {
        name: {"hits": s.hits, "misses": s.misses}
        for name, s in all_cache_stats().items()
    }


def trace_passes(workload: Workload, config, seconds: float, spans_path: Path):
    """Untraced then traced passes; per-layer metrics of the traced ones."""
    from perfbench.tracing import LayerTracer, summarize

    untraced, _ = timed_passes(workload, config, seconds / 2)
    tracer = LayerTracer()
    traced: List[Dict[str, Any]] = []
    layers: List[Dict[str, float]] = []
    kept = []
    start = time.perf_counter()
    while True:
        before = cache_counts()
        with tracer:
            traced.append(run_pass(workload, config))
        after = cache_counts()
        if "raised" in traced[-1]:
            break
        layers.append(summarize(tracer.spans, tracer.probe_used,
                                traced[-1]["wall_s"]))
        if len(layers) == 1:
            for name, now in after.items():
                was = before.get(name, {"hits": 0, "misses": 0})
                for key in ("hits", "misses"):
                    layers[0][f"dsp.plane.{name}.{key}"] = now[key] - was[key]
        kept.append({"wall_s": traced[-1]["wall_s"], "spans": list(tracer.spans)})
        tracer.reset()
        if time.perf_counter() - start + traced[-1]["wall_s"] > seconds / 2:
            break
    if tracer.missing:
        print("not traced (gone from the program): "
              + ", ".join(tracer.missing), file=sys.stderr)
    per_layer: Dict[str, float] = dict(layers[0]) if layers else {}
    # Times vary pass to pass: report their median; counts repeat.
    for key in per_layer:
        if key.endswith("_s") or ".shard_s_" in key:
            per_layer[key] = statistics.median(lay[key] for lay in layers)
    untraced_rate = pass_rate(untraced)
    per_layer["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    per_layer["trace.overhead_ratio"] = (
        pass_rate(traced) / untraced_rate if untraced_rate else 0.0
    )
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w") as fh:
        json.dump({"columns": ["id", "parent", "layer", "fn", "start",
                               "end", "counts"], "passes": kept}, fh)
    return untraced + traced, per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("import", "measure", "trace"))
    parser.add_argument("--workload", required=True, help="Workload JSON")
    parser.add_argument("--seed", type=int, required=True,
                        help="FleetConfig seed of this cohort member")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    import repro  # noqa: F401

    if args.mode == "import":
        print(json.dumps({"hwm_mb": vm_hwm_mb()}))
        return 0
    from repro.fleet import FleetScheduler

    workload = Workload.from_json(args.workload)
    warm = workload.fleet_config(args.seed, **workload.warm)
    FleetScheduler(warm, workers=1, shard_users=workload.shard_users,
                   staging=STAGING).run()
    print("READY", flush=True)
    config = workload.fleet_config(args.seed)
    out: Dict[str, Any] = {}
    if args.mode == "measure":
        out["passes"], out["hwm_mb"] = timed_passes(
            workload, config, args.seconds
        )
    else:
        setup_misses = sum(c["misses"] for c in cache_counts().values())
        out["passes"], out["per_layer"] = trace_passes(
            workload, config, args.seconds, args.spans
        )
        out["per_layer"]["dsp.plane.setup_misses"] = setup_misses
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
