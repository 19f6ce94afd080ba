"""Discrete-event contention kernel: co-located sessions share the air.

The fleet's per-user schedules are independent Poisson streams, but the
paper's Phase-1 probing is an RTS/CTS-style exchange over a *shared*
acoustic medium — two phones probing the same cafe table at the same
moment jam each other.  This module merges every user's schedule into
one global time-ordered event stream and resolves the overlaps the way
a CSMA listener would:

* **Scenes.**  Each (environment, user) pair maps draw-free onto a
  scene slot — "your office bay", "your cafe" — via the same SHA-256
  fold every other assignment in the population uses
  (:func:`repro.eval.batch.cell_seed`), so scene membership is a pure
  function of the :class:`~repro.fleet.population.FleetConfig` and
  consumes no rng stream (the :func:`~repro.fleet.population.
  verifier_assignment` purity pattern).  ``quiet_room`` is private
  (everyone's home is their own scene); public environments get a
  per-environment crowding factor so one run spans several scene
  densities.

* **Carrier sense + backoff.**  Events pop in global time order.  A
  probe that would start while a neighbor's session is in flight backs
  off: it waits out the holder's airtime plus a binary-exponential
  random slice drawn from a dedicated per-session stream
  (``cell_seed(seed, "backoff", user, session)``), then retries.  After
  :data:`MAX_BACKOFFS` collisions it gives up — surfacing downstream
  as :attr:`~repro.protocol.session.AbortReason.CHANNEL_CONTENTION`
  and a keyguard strike, exactly like any other failed trusted-unlock
  attempt.

* **Noise-floor elevation.**  Every collision also *jams the holder*:
  the in-flight session accrues :data:`JAM_ELEVATION_DB` of effective
  noise-floor elevation per collider.  Because the CSMA deferral
  serializes the actual transmissions, the elevation is carried as
  per-session SINR-penalty metadata on the records (and aggregated per
  scene density) rather than resampled into the waveforms — which is
  also what keeps the kernel's effects orthogonal to the staged DSP's
  bit-identity contract.

Determinism: the kernel runs over the *whole* population before any
shard executes, so its verdicts — per-session backoff counts, added
delay, noise penalties, aborts — are a pure function of the config,
independent of worker count, shard size, and staging level.  The
scheduler computes the plan once and hands each shard its slice plus
the ids of its users that have sessions (the walk over the population
records them, so shards synthesize no idle user); direct
:func:`~repro.fleet.executor.run_shard` callers get an identical plan
rebuilt in-shard.  At ``scene_density == 0`` the plan
is empty and the fleet reduces bit-for-bit to the independent path.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..eval.batch import cell_seed
from .population import (
    FleetConfig,
    SessionSpec,
    build_population,
    user_sessions,
)

__all__ = [
    "SESSION_AIRTIME_S",
    "BACKOFF_BASE_S",
    "MAX_BACKOFFS",
    "JAM_ELEVATION_DB",
    "SCENE_CROWDING",
    "SceneAnnotation",
    "ContentionPlan",
    "scene_slots",
    "scene_of",
    "build_contention_plan",
]

#: Time one unlock session holds the scene's acoustic channel: the
#: Phase-1 probe, the wireless config round-trip, the Phase-2 token
#: frames (plus NACK retransmissions), and the post-unlock guard
#: interval during which a neighbor's probe would land on top of the
#: wideband OTP reception.  Longer than the recorded unlock latency by
#: design — the channel is held through the whole exchange, not just
#: the acoustic frames.
SESSION_AIRTIME_S = 6.0

#: First-collision backoff slice; doubles per retry (binary exponential
#: backoff).  The random factor in [1, 2) keeps two sessions that
#: collided together from colliding again in lockstep.
BACKOFF_BASE_S = 0.1

#: Collisions a session tolerates before giving up.  Bounded like the
#: protocol's own retry loop: with base 0.1 s the worst-case total wait
#: (~0.1 * (2^6 - 1) * 2 ≈ 12 s) stays within the latency histogram.
MAX_BACKOFFS = 5

#: Effective noise-floor elevation the in-flight session suffers per
#: colliding neighbor (a probe chirp landing on top of its recording).
JAM_ELEVATION_DB = 3.0

#: Environment → crowding factor: how strongly ``scene_density`` packs
#: users into shared scenes there.  ``0.0`` marks a *private*
#: environment (no shared channel, never contends).  Offices are the
#: sparsest shared scenes (partitioned bays, a handful of co-channel
#: phones each); grocery queues concentrate more people per aisle;
#: classrooms put a whole cohort in one room; cafes pack strangers
#: around shared tables.  The spread is the point: one run covers
#: sparse office bays through packed cafes, so the per-scene-density
#: report has a gradient to show.
SCENE_CROWDING: Dict[str, float] = {
    "quiet_room": 0.0,
    "office": 0.75,
    "grocery_store": 1.25,
    "classroom": 1.5,
    "cafe": 2.0,
}


@dataclass(frozen=True)
class SceneAnnotation:
    """The kernel's verdict on one session, frozen and picklable.

    ``backoff_delay_s`` is wall time lost to carrier sensing (final
    acquisition time minus scheduled arrival); it is added to the
    session's recorded latency *after* execution, never into its DSP.
    ``aborted`` sessions never execute at all: they surface as
    ``channel_contention`` aborts that strike the keyguard.
    """

    environment: str
    slot: int
    #: Distinct users whose schedule ever visits this scene — the
    #: density the aggregate buckets by.
    members: int
    backoffs: int
    backoff_delay_s: float
    noise_penalty_db: float
    aborted: bool


@dataclass(frozen=True)
class ContentionPlan:
    """Per-session annotations for one config, keyed ``(user, session)``.

    Sessions absent from the map (private environments, or a run with
    ``scene_density == 0``) execute exactly as the independent path
    would.  ``active_users`` lists, in ascending order, every user with
    at least one session (contended or not) when the kernel walked the
    population; it is ``None`` when it did not (``scene_density == 0``,
    or a plan built by hand).
    """

    annotations: Dict[Tuple[int, int], SceneAnnotation]
    active_users: Optional[Tuple[int, ...]] = None
    _keys: List[Tuple[int, int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_keys", sorted(self.annotations))

    def get(self, user_id: int, session_index: int) -> Optional[SceneAnnotation]:
        return self.annotations.get((user_id, session_index))

    def for_user_range(
        self, user_lo: int, user_hi: int
    ) -> Dict[Tuple[int, int], SceneAnnotation]:
        """The slice one shard needs (small enough to pickle to a worker).

        A bisect over the sorted keys, so a slice costs O(its size) and
        a whole run's slices cost O(sessions), not O(shards x sessions).
        """
        lo = bisect.bisect_left(self._keys, (user_lo,))
        hi = bisect.bisect_left(self._keys, (user_hi,), lo)
        return {key: self.annotations[key] for key in self._keys[lo:hi]}

    def active_in(self, user_lo: int, user_hi: int) -> Optional[List[int]]:
        """The ids in ``[user_lo, user_hi)`` that have sessions, ascending
        (``None`` when :attr:`active_users` is unknown)."""
        if self.active_users is None:
            return None
        lo = bisect.bisect_left(self.active_users, user_lo)
        hi = bisect.bisect_left(self.active_users, user_hi, lo)
        return list(self.active_users[lo:hi])


def scene_slots(config: FleetConfig, environment: str) -> int:
    """How many distinct scenes ``environment`` hosts for this config.

    Scaled so the *expected* number of users per scene is roughly
    ``scene_density * crowding``: denser configs mean fewer, fuller
    scenes.  Returns 0 for private environments (no shared channel).
    """
    crowding = SCENE_CROWDING.get(environment, 1.0)
    target = config.scene_density * crowding
    if target <= 0.0:
        return 0
    return max(1, int(round(config.n_users / target)))


def scene_of(
    config: FleetConfig, environment: str, user_id: int
) -> Optional[int]:
    """The scene slot ``user_id`` occupies in ``environment``.

    Draw-free (a pure SHA-256 fold), so the assignment never perturbs
    the population's rng streams and every worker computes the same
    answer without coordination.  ``None`` means the environment is
    private for this config.
    """
    n = scene_slots(config, environment)
    if n == 0:
        return None
    return cell_seed(config.seed, "scene", environment, user_id) % n


def _all_specs(config: FleetConfig) -> Iterator[SessionSpec]:
    for user in build_population(config):
        yield from user_sessions(config, user)


def build_contention_plan(config: FleetConfig) -> ContentionPlan:
    """Run the CSMA kernel over the whole population's schedule.

    The event loop pops ``(time, user, session, attempt)`` tuples from
    a heap — the tuple itself is the tie-break, so simultaneous
    arrivals resolve identically everywhere.  A popped probe either
    finds its scene idle (acquires the channel for
    :data:`SESSION_AIRTIME_S`) or collides: it jams the current holder
    by :data:`JAM_ELEVATION_DB`, draws its next backoff slice from its
    own ``cell_seed``-derived stream (created lazily, consumed in
    attempt order — immune to global interleaving), and re-enters the
    heap at the holder's release time plus the slice.  The
    :data:`MAX_BACKOFFS`-th collision aborts the session instead.

    The same walk over the schedule records the ids of users with any
    session as :attr:`ContentionPlan.active_users` (O(active users)
    ints; the specs themselves are not kept for the shards).
    """
    plan: Dict[Tuple[int, int], SceneAnnotation] = {}
    if config.scene_density <= 0.0:
        return ContentionPlan(annotations=plan)

    specs: Dict[Tuple[int, int], SessionSpec] = {}
    scene_key: Dict[Tuple[int, int], Tuple[str, int]] = {}
    scene_users: Dict[Tuple[str, int], set] = {}
    heap: List[Tuple[float, int, int, int]] = []
    active: List[int] = []
    for spec in _all_specs(config):
        if not active or active[-1] != spec.user_id:
            active.append(spec.user_id)  # specs arrive in user order
        slot = scene_of(config, spec.environment, spec.user_id)
        if slot is None:
            continue
        key = (spec.user_id, spec.session_index)
        specs[key] = spec
        scene = (spec.environment, slot)
        scene_key[key] = scene
        scene_users.setdefault(scene, set()).add(spec.user_id)
        heap.append((spec.hour * 3600.0, spec.user_id, spec.session_index, 0))
    heapq.heapify(heap)

    # Mutable per-session tallies; frozen into SceneAnnotations below.
    state: Dict[Tuple[int, int], Dict[str, object]] = {
        key: {"t0": spec.hour * 3600.0, "backoffs": 0,
              "delay": 0.0, "penalty": 0.0, "aborted": False,
              "rng": None}
        for key, spec in specs.items()
    }
    busy_until: Dict[Tuple[str, int], float] = {}
    holder: Dict[Tuple[str, int], Tuple[int, int]] = {}

    while heap:
        t, user_id, session_index, attempt = heapq.heappop(heap)
        key = (user_id, session_index)
        scene = scene_key[key]
        st = state[key]
        release = busy_until.get(scene, -math.inf)
        if t < release:
            # Collision: the in-flight holder takes the jam hit.
            held_by = holder.get(scene)
            if held_by is not None and held_by != key:
                state[held_by]["penalty"] = (
                    float(state[held_by]["penalty"]) + JAM_ELEVATION_DB
                )
            if attempt >= MAX_BACKOFFS:
                st["aborted"] = True
                st["delay"] = t - float(st["t0"])
                continue
            rng = st["rng"]
            if rng is None:
                rng = np.random.default_rng(
                    cell_seed(config.seed, "backoff", user_id, session_index)
                )
                st["rng"] = rng
            wait = BACKOFF_BASE_S * (2.0 ** attempt) * (1.0 + float(rng.random()))
            st["backoffs"] = int(st["backoffs"]) + 1
            heapq.heappush(
                heap, (release + wait, user_id, session_index, attempt + 1)
            )
        else:
            st["delay"] = t - float(st["t0"])
            busy_until[scene] = t + SESSION_AIRTIME_S
            holder[scene] = key

    for key, st in state.items():
        env, slot = scene_key[key]
        plan[key] = SceneAnnotation(
            environment=env,
            slot=slot,
            members=len(scene_users[(env, slot)]),
            backoffs=int(st["backoffs"]),
            backoff_delay_s=float(st["delay"]),
            noise_penalty_db=float(st["penalty"]),
            aborted=bool(st["aborted"]),
        )
    return ContentionPlan(annotations=plan, active_users=tuple(active))
