"""Output checks: every timed pass must be complete and identical.

* The sessions a pass reports must equal the specs scheduled, counted
  independently through ``synthesize_user`` and ``user_sessions``.
* Every pass of one cohort member (traced or not) must produce the same
  aggregate document, byte for byte.
* One shard run at ``staging="none"`` and at the benchmark's staging
  must produce byte-identical aggregates.

A pass that raised counts its scheduled sessions as failed; any other
mismatch fails the whole run.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.workloads import STAGING


def count_specs(config) -> int:
    """Sessions the population schedules, counted without the scheduler."""
    from repro.fleet import synthesize_user, user_sessions

    return sum(
        len(user_sessions(config, synthesize_user(config, user_id)))
        for user_id in range(config.n_users)
    )


def shard_document(records, hours: float) -> str:
    """The canonical aggregate document of one shard's records."""
    from repro.fleet import FleetAggregate

    return json.dumps(
        FleetAggregate().merge_records(records).to_dict(hours=hours),
        sort_keys=True,
    )


def staging_mismatch(workload, config) -> Optional[str]:
    """Run the first ``check_users`` users as one shard, all-live and at
    :data:`STAGING`; describe the difference, if any."""
    from repro.fleet import build_contention_plan, run_shard

    lo, hi = 0, min(workload.check_users, config.n_users)
    contention = (
        build_contention_plan(config).for_user_range(lo, hi)
        if config.scene_density > 0.0
        else None
    )
    docs = {
        staging: shard_document(
            run_shard(config, lo, hi, staging=staging, contention=contention),
            config.hours,
        )
        for staging in ("none", STAGING)
    }
    if docs["none"] != docs[STAGING]:
        return (
            f"users [{lo}, {hi}): staging={STAGING!r} aggregate "
            "differs from staging='none'"
        )
    return None


def check_passes(
    passes: Sequence[Dict[str, Any]], expected: int
) -> Tuple[int, List[str]]:
    """``(failed sessions, problems)`` over one invocation's passes."""
    failed = 0
    problems: List[str] = []
    digests = set()
    for i, p in enumerate(passes):
        if "raised" in p:
            failed += expected
            problems.append(f"pass {i} raised {p['raised']}")
            continue
        if p["sessions"] != expected:
            problems.append(
                f"pass {i}: {p['sessions']} sessions, scheduled {expected}"
            )
        digests.add(p["sha256"])
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} distinct aggregates")
    return failed, problems
