"""Per-run work the shards share instead of redoing: the contention
plan's active-user list (shards synthesize only users with sessions),
the indexed plan slices, and the cached probe-group setup."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.fleet import (
    FleetConfig,
    build_contention_plan,
    run_shard,
    synthesize_user,
    user_sessions,
)
from repro.fleet import executor
from repro.fleet.executor import precompute_probe
from repro.fleet.events import ContentionPlan, SceneAnnotation

CONTENDED = FleetConfig(
    n_users=16,
    hours=24.0,
    seed=7,
    sessions_per_day=10.0,
    scene_density=20.0,
)


def _canon(x):
    """Exact, comparable form of staged results (arrays by bytes,
    floats by hex, so NaN and -0.0 compare by bits)."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            _canon(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    if isinstance(x, float):
        return float.hex(x)
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in x.items()))
    return repr(x)


def _specs(config, lo, hi):
    return [
        spec
        for uid in range(lo, hi)
        for spec in user_sessions(config, synthesize_user(config, uid))
    ]


@st.composite
def contended_configs(draw):
    return FleetConfig(
        n_users=draw(st.integers(1, 60)),
        hours=draw(st.floats(0.1, 30.0)),
        seed=draw(st.integers(0, 2**16)),
        sessions_per_day=draw(st.sampled_from((0.0, 0.05, 0.5, 3.0, 12.0))),
        scene_density=draw(st.floats(0.5, 40.0)),
    )


class TestActiveUsers:
    @settings(max_examples=40, deadline=None)
    @given(config=contended_configs())
    def test_active_users_are_exactly_users_with_sessions(self, config):
        plan = build_contention_plan(config)
        expected = tuple(
            uid
            for uid in range(config.n_users)
            if user_sessions(config, synthesize_user(config, uid))
        )
        assert plan.active_users == expected

    @settings(max_examples=12, deadline=None)
    @given(config=contended_configs(), data=st.data())
    def test_active_list_shard_matches_range_scan(self, config, data):
        plan = build_contention_plan(config)
        lo = data.draw(st.integers(0, config.n_users - 1), label="lo")
        hi = data.draw(
            st.integers(lo + 1, min(lo + 5, config.n_users)), label="hi"
        )
        contention = plan.for_user_range(lo, hi)
        active = plan.active_in(lo, hi)
        assert active == [u for u in plan.active_users if lo <= u < hi]
        for staging in ("none", "otp"):
            scanned = run_shard(
                config, lo, hi, staging=staging, contention=contention
            )
            listed = run_shard(
                config, lo, hi, staging=staging, contention=contention,
                users=active,
            )
            assert listed == scanned

    def test_rebuilt_plan_uses_its_active_list(self, monkeypatch):
        """A direct caller without a plan synthesizes only active users."""
        config = FleetConfig(
            n_users=40, hours=24.0, seed=3, sessions_per_day=0.3,
            scene_density=10.0,
        )
        active = build_contention_plan(config).active_in(0, 40)
        assert 0 < len(active) < 40
        seen = []

        def spy(cfg, uid):
            seen.append(uid)
            return synthesize_user(cfg, uid)

        monkeypatch.setattr(executor, "synthesize_user", spy)
        records = run_shard(config, 0, 40, staging="none")
        assert seen == active
        assert sorted({r.user_id for r in records}) == active

    @pytest.mark.parametrize(
        "users", [[3, 1], [2, 2], [1, 8], [-1, 2], [5, 9]]
    )
    def test_bad_users_rejected(self, users):
        with pytest.raises(ConfigurationError):
            run_shard(CONTENDED, 0, 8, staging="none", users=users)

    def test_empty_users_runs_nothing(self):
        assert run_shard(CONTENDED, 0, 8, staging="none", users=[]) == []

    def test_unknown_active_users(self):
        plan = ContentionPlan(annotations={})
        assert plan.active_users is None
        assert plan.active_in(0, 10) is None
        zero = build_contention_plan(FleetConfig(n_users=4, seed=1))
        assert zero.active_in(0, 4) is None


_PLAN = build_contention_plan(CONTENDED)


class TestPlanSlices:
    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.integers(-3, CONTENDED.n_users + 3),
        width=st.integers(0, CONTENDED.n_users + 3),
    )
    def test_slice_equals_filtered_dict(self, lo, width):
        hi = lo + width
        expected = {
            k: v for k, v in _PLAN.annotations.items() if lo <= k[0] < hi
        }
        assert _PLAN.for_user_range(lo, hi) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.sets(
            st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=30
        ),
        lo=st.integers(0, 21),
        hi=st.integers(0, 21),
    )
    def test_hand_built_plan_any_insertion_order(self, keys, lo, hi):
        ann = SceneAnnotation("cafe", 0, 2, 0, 0.0, 0.0, False)
        plan = ContentionPlan(
            annotations={k: ann for k in sorted(keys, reverse=True)}
        )
        expected = {k: ann for k in keys if lo <= k[0] < hi}
        assert plan.for_user_range(lo, hi) == expected


class TestProbeSetupCache:
    def test_cold_and_warm_cache_stage_identically(self):
        specs = _specs(CONTENDED, 0, 4)
        assert {s.environment for s in specs} != {"quiet_room"}
        executor._PROBE_SETUPS.clear()
        cold = _canon(precompute_probe(specs))
        assert executor._PROBE_SETUPS.stats().misses > 0
        warm = _canon(precompute_probe(specs))
        assert cold == warm

    def test_cached_waveform_is_read_only(self):
        setup = executor._probe_setup(SystemConfig(), "audible", "cafe")
        assert setup is executor._probe_setup(SystemConfig(), "audible", "cafe")
        assert not setup.emitted.flags.writeable
        with pytest.raises(ValueError):
            setup.emitted[0] = 1.0

    def test_second_shard_hits(self):
        first, second = _specs(CONTENDED, 0, 4), _specs(CONTENDED, 4, 8)
        keys_1 = {(s.band, s.environment) for s in first}
        keys_2 = {(s.band, s.environment) for s in second}
        executor._PROBE_SETUPS.clear()
        precompute_probe(first)
        stats = executor._PROBE_SETUPS.stats()
        assert (stats.hits, stats.misses) == (0, len(keys_1))
        precompute_probe(second)
        stats = executor._PROBE_SETUPS.stats()
        assert stats.hits == len(keys_1 & keys_2) > 0
        assert stats.misses == len(keys_1 | keys_2)
