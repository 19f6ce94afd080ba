"""The four fleet workloads and the layer map they are judged by.

Each workload is a :class:`~repro.fleet.population.FleetConfig` shape
(everything but the seed), a fixed shard size (shard size sets the
batch widths, so it is part of the workload), and the small
same-shaped config whose untimed pass fills the ``dsp.plane`` caches
during set-up.  Every workload requests :data:`STAGING`, the ``fleet
run`` default; under faults the program degrades it itself.

One benchmark seed stands for a cohort of :data:`COHORT` populations of
that shape, with FleetConfig seeds ``seed * COHORT + k``.  Each member
runs in its own fresh process.  Which users a seed draws moves
throughput, memory and the simulated outcomes by several percent, so
the benchmark reports them over the whole cohort, not over one
population.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Tuple

#: The chaos-matrix fault plan (first entry of
#: ``benchmarks/chaos_determinism.py``).  Under it the acoustic staging
#: levels degrade to DTW-only, so every probe and OTP runs live.
CHAOS_FAULTS = "burst_noise@otp-tx:severity=2"

#: Populations per benchmark seed.
COHORT = 8

#: Staging level requested from :class:`~repro.fleet.FleetScheduler`.
STAGING = "otp"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (a fleet run shape plus its rationale)."""

    name: str
    #: ``FleetConfig`` keyword arguments, without ``seed``.
    config: Dict[str, Any]
    #: Users per shard (``FleetScheduler(shard_users=...)``).
    shard_users: int
    #: Overrides applied to ``config`` for the untimed cache-filling
    #: warm-up pass that ``setup_s`` includes.
    warm: Dict[str, Any]
    #: Users in the shard that the staging-equivalence check runs at
    #: ``staging="none"`` and at :attr:`staging`.
    check_users: int
    #: Percentile reported as ``sim_delay_tail_s``: the highest with at
    #: least ten sessions beyond it over the cohort.
    tail_q: float
    why: str
    #: The layer this workload is meant to load.
    loads: str

    def member_seeds(self, seed: int) -> Tuple[int, ...]:
        """FleetConfig seeds of the cohort that benchmark ``seed`` names."""
        return tuple(seed * COHORT + k for k in range(COHORT))

    def fleet_config(self, seed: int, **overrides: Any):
        from repro.fleet import FleetConfig

        return FleetConfig(seed=seed, **{**self.config, **overrides})

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        return cls(**json.loads(text))


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="day",
        config=dict(n_users=50, hours=24.0),
        shard_users=50,
        warm=dict(n_users=6),
        check_users=12,
        tail_q=0.99,
        why="the fleet run default day (legacy fusion, no faults or "
        "contention) at otp staging: staged probing and wide OTP waves "
        "dominate; the ROADMAP headline",
        loads="fleet.executor.probe + fleet.executor.otp",
    ),
    Workload(
        name="day-faulted",
        config=dict(n_users=20, hours=24.0, faults=CHAOS_FAULTS),
        shard_users=20,
        warm=dict(n_users=3),
        check_users=6,
        tail_q=0.98,
        why="the day population under the chaos fault plan: staging "
        "degrades to dtw, so the scalar live path and the retry loop do "
        "the work",
        loads="protocol.session",
    ),
    Workload(
        name="crowd",
        config=dict(
            n_users=6,
            hours=12.0,
            sessions_per_day=60.0,
            scene_density=40.0,
            fusion_mix="score",
        ),
        shard_users=6,
        warm=dict(n_users=2, hours=9.0),
        check_users=2,
        tail_q=0.985,
        why="a few heavy users in one crowded scene with all four "
        "verifiers: OTP waves capped by the user count, deep per-user "
        "OTP state",
        loads="fleet.executor.otp (narrow waves) + verifiers",
    ),
    Workload(
        name="sparse-wide",
        config=dict(
            n_users=2500,
            hours=24.0,
            sessions_per_day=0.05,
            scene_density=25.0,
        ),
        shard_users=200,
        warm=dict(n_users=400),
        check_users=200,
        tail_q=0.985,
        why="many users with few sessions and contention on: population "
        "synthesis and the whole-fleet contention plan weigh, batches "
        "per shard are tiny",
        loads="fleet.population + fleet.events",
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: layer -> (end-to-end metric it should move, workloads it should move
#: it on).  Written before measuring; the traced run checks it.
LAYER_MAP: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("fleet.population", "sessions_per_s", ("sparse-wide",)),
    ("fleet.events", "sessions_per_s, peak_rss_mb", ("sparse-wide",)),
    ("fleet.executor.prefilter", "sessions_per_s", ("day", "crowd")),
    ("fleet.executor.probe", "sessions_per_s", ("day",)),
    ("fleet.executor.probe", "peak_rss_mb", ("crowd",)),
    ("fleet.executor.otp", "sessions_per_s", ("day", "crowd")),
    ("protocol.session", "sessions_per_s", ("day-faulted",)),
    ("channel.noise", "sessions_per_s", ("day",)),
    ("channel.link", "sessions_per_s", ("day-faulted",)),
    ("channel.hardware", "sessions_per_s", ("day",)),
    ("modem.transmitter", "sessions_per_s", ("day", "crowd")),
    ("modem.receiver", "sessions_per_s", ("day", "crowd")),
    ("modem.probe", "sessions_per_s", ("day", "crowd")),
    ("verifiers", "sessions_per_s", ("crowd",)),
    ("fleet.aggregate", "none (under 1% everywhere)", ()),
    ("fleet.scheduler", "sessions_per_s", ("sparse-wide",)),
    ("dsp.plane", "setup_s", ("day", "day-faulted", "crowd", "sparse-wide")),
)


def src_lines(src: Path) -> Dict[str, int]:
    """Line count of ``src/repro`` per subpackage (informational).

    Top-level modules count under ``repro``; ``total`` is the sum.
    """
    counts: Dict[str, int] = {}
    root = src / "repro"
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).parts
        pkg = rel[0] if len(rel) > 1 else "repro"
        with path.open("rb") as fh:
            counts[pkg] = counts.get(pkg, 0) + sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def describe(src: Path) -> Dict[str, Any]:
    """The benchmark's rationale as one JSON-ready document."""
    return {
        "workloads": [
            {
                "name": w.name,
                "fleet_config": {
                    **w.config,
                    "seed": f"{COHORT} * --seed + k for k < {COHORT}",
                },
                "shard_users": w.shard_users,
                "staging": STAGING,
                "workers": 1,
                "why": w.why,
                "loads": w.loads,
            }
            for w in WORKLOADS
        ],
        "layer_map": [
            {"layer": layer, "moves": metric, "on": list(on)}
            for layer, metric, on in LAYER_MAP
        ],
        "src_lines": src_lines(src),
    }
