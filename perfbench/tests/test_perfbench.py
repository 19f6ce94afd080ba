"""The benchmark's own tests, at tiny sizes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import checks, run  # noqa: E402
from perfbench.tracing import LayerTracer, self_times, summarize  # noqa: E402
from perfbench.workloads import BY_NAME, STAGING  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Tiny shapes of two real workloads: one staged, one with contention
#: (so the events layer and a multi-shard run are exercised).
TINY_DAY = dataclasses.replace(
    BY_NAME["day"],
    config=dict(n_users=4, hours=24.0),
    shard_users=4,
    warm=dict(n_users=1),
    check_users=2,
)
TINY_SPARSE = dataclasses.replace(
    BY_NAME["sparse-wide"],
    config=dict(n_users=60, hours=24.0, sessions_per_day=1.0,
                scene_density=5.0),
    shard_users=20,
    warm=dict(n_users=5),
    check_users=20,
)


def _main_output(monkeypatch, capsys, trace: int):
    monkeypatch.setitem(run.BY_NAME, "day", TINY_DAY)
    code = run.main(["--workload", "day", "--seed", "3", "--seconds",
                     "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(
    monkeypatch, capsys, trace, section
):
    code, text, result = _main_output(monkeypatch, capsys, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert f"day {name} = {value:.6g} {unit}" in text
        if section == "end_to_end":
            assert value > 0


def _traced_pass(workload, seed=5):
    from repro.fleet import FleetScheduler

    config = workload.fleet_config(seed)
    scheduler = FleetScheduler(config, workers=1,
                               shard_users=workload.shard_users,
                               staging=STAGING)
    with LayerTracer() as tracer:
        start = time.perf_counter()
        result = scheduler.run()
        wall = time.perf_counter() - start
    return config, result, tracer, wall


def test_span_tree_is_well_formed():
    _, _, tracer, wall = _traced_pass(TINY_SPARSE)
    assert tracer.missing == []
    spans = tracer.spans
    assert spans and spans[0][1] == -1
    layers = {row[2] for row in spans}
    assert {"fleet.scheduler", "fleet.population", "fleet.events",
            "fleet.executor.otp", "protocol.session"} <= layers
    for row in spans:
        sid, parent, _, _, start, end, _ = row
        assert start <= end
        assert parent < sid
        if parent >= 0:
            assert spans[parent][4] <= start and end <= spans[parent][5]
    # Children of one span run one after another, never overlapping.
    children = {}
    for row in spans:
        children.setdefault(row[1], []).append(row)
    for rows in children.values():
        for a, b in zip(rows, rows[1:]):
            assert a[5] <= b[4]
    assert min(self_times(spans)) >= -1e-9  # float rounding only
    metrics = summarize(spans, tracer.probe_used, wall)
    attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["trace.unattributed_s"] >= 0.0
    assert attributed + metrics["trace.unattributed_s"] == pytest.approx(wall)
    assert metrics["fleet.scheduler.shards"] == 3


def test_tracing_leaves_results_and_program_untouched():
    import repro.fleet.executor as executor
    import repro.fleet.scheduler as scheduler
    from repro.fleet import FleetScheduler
    from repro.protocol.session import UnlockSession

    originals = (executor.precompute_otp, scheduler.run_shard,
                 UnlockSession.run)
    config, traced, _, _ = _traced_pass(TINY_SPARSE)
    assert (executor.precompute_otp, scheduler.run_shard,
            UnlockSession.run) == originals
    plain = FleetScheduler(config, workers=1,
                           shard_users=TINY_SPARSE.shard_users,
                           staging=STAGING).run()
    assert (json.dumps(traced.aggregate.to_dict(), sort_keys=True)
            == json.dumps(plain.aggregate.to_dict(), sort_keys=True))


def test_staging_check_passes_on_the_program():
    config = TINY_SPARSE.fleet_config(1)
    assert checks.staging_mismatch(TINY_SPARSE, config) is None


def test_corrupted_record_fails_the_staging_check(monkeypatch):
    import repro.fleet

    real = repro.fleet.run_shard

    def corrupting(config, lo, hi, *args, staging=None, **kwargs):
        records = real(config, lo, hi, *args, staging=staging, **kwargs)
        if staging == "none":
            records[0] = dataclasses.replace(
                records[0], delay_s=records[0].delay_s + 0.5
            )
        return records

    monkeypatch.setattr(repro.fleet, "run_shard", corrupting)
    config = TINY_DAY.fleet_config(2)
    assert "differs" in checks.staging_mismatch(TINY_DAY, config)


def test_pass_checks_count_failures():
    good = {"sessions": 7, "wall_s": 1.0, "sha256": "a"}
    assert checks.check_passes([good, good], 7) == (0, [])
    failed, problems = checks.check_passes(
        [good, {"raised": "ValueError: boom", "wall_s": 0.1}], 7
    )
    assert failed == 7 and len(problems) == 1
    _, problems = checks.check_passes([good, dict(good, sessions=6)], 7)
    assert any("6 sessions" in p for p in problems)
    _, problems = checks.check_passes([good, dict(good, sha256="b")], 7)
    assert any("disagree" in p for p in problems)


def test_spec_count_matches_the_scheduler():
    from repro.fleet import FleetScheduler

    config = TINY_SPARSE.fleet_config(4)
    result = FleetScheduler(config, workers=1, shard_users=20).run()
    assert checks.count_specs(config) == result.sessions


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "day",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
