"""Fleet benchmark: one workload, end-to-end metrics or a traced breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload day --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload day --seed 0 --seconds 10 --trace 1
    python3 perfbench/run.py --describe

Each invocation checks the program's outputs before reporting (see
``perfbench/checks.py``), times the workload in fresh child processes
(``perfbench/worker.py``) with one worker, prints every metric by name
with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
sys.path.insert(0, str(ROOT))

from perfbench.checks import check_passes, count_specs, staging_mismatch  # noqa: E402
from perfbench.tracing import LAYER_COUNTS, LAYER_NAMES  # noqa: E402
from perfbench.worker import pass_rate  # noqa: E402
from perfbench.workloads import BY_NAME, Workload, describe, src_lines  # noqa: E402

#: A bare ``import repro`` child must peak below this share of the
#: workload's peak, or the peak reading is not the workload's own.
BARE_IMPORT_MAX_SHARE = 0.8
#: Seconds a child may run beyond its measuring time.
CHILD_GRACE_S = 60.0

END_TO_END_UNITS: Dict[str, str] = {
    "sessions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sim_unlock_rate": "ratio",
    "sim_delay_p50_s": "sim_s",
    "sim_delay_tail_s": "sim_s",
}

#: Caches registered in ``repro.dsp.plane`` (reported per cache).
PLANE_CACHES = (
    "channel.ir_kernels",
    "channel.nlos_rooms",
    "channel.ripple_factors",
    "dsp.fir_designs",
    "dsp.fir_taps_spectra",
    "dsp.ncc_template_spectra",
    "dsp.windows",
    "modem.constellation",
    "modem.min_ebn0",
    "modem.preamble",
    "modem.signal_plane",
)

#: ``src/repro`` subpackages whose line counts are reported.
SRC_PACKAGES = (
    "channel", "core", "devices", "dsp", "eval", "faults", "fleet",
    "modem", "offload", "protocol", "repro", "security", "sensors",
    "tools", "trials", "verifiers", "wireless", "total",
)

_RATIO_COUNTS = {"useful_ratio", "rows_per_wave", "feeds_per_phase2"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.calls"] = "count"
        for key in LAYER_COUNTS.get(layer, ()):
            if key in _RATIO_COUNTS:
                units[f"{layer}.{key}"] = "ratio"
            elif key.startswith("shard_s_"):
                units[f"{layer}.{key}"] = "s"
            else:
                units[f"{layer}.{key}"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    for cache in PLANE_CACHES:
        units[f"dsp.plane.{cache}.hits"] = "count"
        units[f"dsp.plane.{cache}.misses"] = "count"
    units["dsp.plane.setup_misses"] = "count"
    for pkg in SRC_PACKAGES:
        units[f"src_lines.{pkg}"] = "lines"
    return units


class ChildFailed(RuntimeError):
    """A benchmark child exited badly or printed no result."""


def spawn(mode: str, workload: Workload, seed: int, seconds: float = 0.0,
          spans: Optional[Path] = None) -> Tuple[Optional[float], Dict[str, Any]]:
    """Run one worker; return (seconds until ``READY``, its JSON result).

    The set-up time runs from just before the process is created, so it
    includes interpreter start and ``import repro``.
    """
    cmd = [sys.executable, str(WORKER), mode, "--workload",
           workload.to_json(), "--seed", str(seed), "--seconds", str(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(seconds + CHILD_GRACE_S, proc.kill)
    timer.start()
    ready: Optional[float] = None
    last = ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        raise ChildFailed(f"worker {mode} exited with {code}")
    try:
        return ready, json.loads(last)
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"worker {mode} printed no result") from exc


def cohort_metrics(workload: Workload, members: List[Tuple[float, Dict[str, Any]]]) -> Dict[str, float]:
    """End-to-end metrics over the cohort's ``(ready_s, result)`` pairs."""
    from repro.fleet import Histogram

    sessions = unlocked = 0
    host_s = 0.0
    latency = None
    for _, out in members:
        done = [p for p in out["passes"] if "sessions" in p]
        if not done:
            continue
        first = done[0]
        sessions += first["sessions"]
        unlocked += first["unlocked"]
        host_s += first["sessions"] / pass_rate(done)
        hist = Histogram.from_dict(first["latency"])
        latency = hist if latency is None else latency.merge(hist)
    return {
        "sessions_per_s": sessions / host_s if host_s else 0.0,
        "setup_s": statistics.median(ready for ready, _ in members),
        # Peak memory is fixed per population (no host noise), so the
        # mean over members uses every member's reading.
        "peak_rss_mb": statistics.fmean(out["hwm_mb"] for _, out in members),
        "sim_unlock_rate": unlocked / sessions if sessions else 0.0,
        "sim_delay_p50_s": latency.quantile(0.5) if latency else 0.0,
        "sim_delay_tail_s": latency.quantile(workload.tail_q) if latency else 0.0,
    }


def run_benchmark(workload: Workload, seed: int, seconds: float,
                  trace: bool) -> Dict[str, Any]:
    """Check, then measure one workload; return the result document.

    Untraced, each cohort member runs in its own fresh process for an
    equal share of ``seconds``.  Traced, the first member runs once more
    in one process, half untraced and half traced.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    seeds = workload.member_seeds(seed)[: 1 if trace else None]
    configs = [workload.fleet_config(s) for s in seeds]
    problems: List[str] = []
    mismatch = staging_mismatch(workload, configs[0])
    if mismatch:
        problems.append(mismatch)

    metrics: Dict[str, float] = {}
    if trace:
        spans = ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.json"
        members = [spawn("trace", workload, seeds[0], seconds, spans)]
        units = per_layer_units()
        metrics.update(members[0][1]["per_layer"])
        for cache in PLANE_CACHES:  # a cache never created saw no lookups
            metrics.setdefault(f"dsp.plane.{cache}.hits", 0)
            metrics.setdefault(f"dsp.plane.{cache}.misses", 0)
        for pkg, lines in src_lines(SRC).items():
            if f"src_lines.{pkg}" in units:
                metrics[f"src_lines.{pkg}"] = lines
    else:
        members = [spawn("measure", workload, s, seconds / len(seeds))
                   for s in seeds]
        _, bare = spawn("import", workload, seed)
        peak = min(out["hwm_mb"] for _, out in members)
        if bare["hwm_mb"] >= BARE_IMPORT_MAX_SHARE * peak:
            problems.append(
                f"bare import peaks at {bare['hwm_mb']:.1f} MB, not well "
                f"below the workload's {peak:.1f} MB"
            )
        metrics.update(cohort_metrics(workload, members))
        units = END_TO_END_UNITS

    failed = attempted = 0
    for config, (_, out) in zip(configs, members):
        expected = count_specs(config)
        member_failed, member_problems = check_passes(out["passes"], expected)
        failed += member_failed
        attempted += expected * len(out["passes"])
        problems += [f"seed {config.seed}: {p}" for p in member_problems]
    if problems and failed == 0:
        failed = attempted
    if not trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    missing = [name for name in units if name not in metrics]
    if missing:
        raise ChildFailed(f"metrics not measured: {missing}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print workloads, layer map and src line counts")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.describe:
        print(json.dumps(describe(SRC), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = BY_NAME[args.workload]
    try:
        result = run_benchmark(workload, args.seed, args.seconds,
                               bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        print(f"{workload.name}: sim_delay_tail_s is the "
              f"p{100 * workload.tail_q:g} latency")
    for name, metric in result["metrics"].items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
