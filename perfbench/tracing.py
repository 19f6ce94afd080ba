"""Layer spans recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of
``repro`` for the duration of a ``with`` block, by rebinding them in
every ``repro`` module namespace (and on their classes for methods).
Nothing inside ``src/`` is instrumented.  Each wrapped call appends one
span row ``[id, parent, layer, fn, start, end, counts]`` to an
in-memory list; spans are written out only when the benchmark ends.

A layer's self time is the summed duration of its spans minus the part
of each span covered by child spans.  Calls on one thread nest and do
not overlap, so the covered part is the sum of the children's
durations.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Counter = Callable[[tuple, dict, Any], Dict[str, float]]


def _rows(arg_index: int) -> Counter:
    """Count the rows of the batch passed as positional ``arg_index``."""
    return lambda args, kwargs, out: {"rows": float(len(args[arg_index]))}


def _plan_counts(args, kwargs, plan) -> Dict[str, float]:
    anns = plan.annotations.values()
    return {
        "annotated": float(len(plan.annotations)),
        "backoffs": float(sum(a.backoffs for a in anns)),
        "aborts": float(sum(a.aborted for a in anns)),
    }


#: layer -> [(module, qualified name, counter)].  Functions are rebound
#: wherever a ``repro`` module imported them; methods on their class.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str, Optional[Counter]], ...]], ...] = (
    ("fleet.scheduler", (
        ("repro.fleet.scheduler", "FleetScheduler.run", None),
        ("repro.fleet.executor", "run_shard",
         lambda a, k, out: {"shards": 1.0}),
    )),
    ("fleet.population", (
        ("repro.fleet.population", "synthesize_user",
         lambda a, k, out: {"users": 1.0}),
        ("repro.fleet.population", "user_sessions",
         lambda a, k, out: {"specs": float(len(out))}),
    )),
    ("fleet.events", (
        ("repro.fleet.events", "build_contention_plan", _plan_counts),
    )),
    ("fleet.executor.prefilter", (
        ("repro.fleet.executor", "precompute_prefilter", _rows(0)),
    )),
    ("sensors.dtw", (
        ("repro.sensors.dtw", "normalized_dtw_batch", None),
        ("repro.sensors.dtw", "normalized_dtw", None),
    )),
    ("fleet.executor.probe", (
        ("repro.fleet.executor", "precompute_probe", _rows(0)),
    )),
    ("fleet.executor.otp", (
        ("repro.fleet.executor", "precompute_otp",
         lambda a, k, out: {"waves": 1.0, "rows": float(len(a[0]))}),
    )),
    ("protocol.session", (
        ("repro.protocol.session", "UnlockSession.run", None),
        ("repro.protocol.session", "UnlockSession.begin",
         lambda a, k, out: {"phase2": float(out.paused)}),
        ("repro.protocol.session", "PendingSession.feed",
         lambda a, k, out: {"feeds": 1.0}),
        ("repro.protocol.session", "PendingSession.finish", None),
    )),
    ("channel.noise", (
        ("repro.channel.noise", "shaped_noise", None),
        ("repro.channel.noise", "shaped_noise_batch", None),
    )),
    ("channel.link", (
        ("repro.channel.link", "AcousticLink.transmit", None),
    )),
    ("channel.hardware", (
        ("repro.channel.hardware", "MicrophoneModel.record", None),
        ("repro.channel.hardware", "MicrophoneModel.record_batch", None),
    )),
    ("modem.transmitter", (
        ("repro.modem.transmitter", "OfdmTransmitter.modulate_batch", None),
        ("repro.modem.transmitter", "OfdmTransmitter.modulate", None),
    )),
    ("modem.receiver", (
        ("repro.modem.receiver", "receive_batch_grouped", None),
        ("repro.modem.receiver", "OfdmReceiver.receive", None),
    )),
    ("modem.probe", (
        ("repro.modem.probe", "ChannelProber.analyze_batch", None),
        ("repro.modem.probe", "ChannelProber.analyze", None),
    )),
    ("verifiers", (
        ("repro.verifiers.multiband", "multiband_similarity", None),
        ("repro.verifiers.vibration", "vibration_similarity", None),
    )),
    ("fleet.aggregate", (
        ("repro.fleet.aggregate", "FleetAggregate.merge_records",
         lambda a, k, out: {"records": float(len(a[1]))}),
    )),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)

#: Counts each layer reports, besides ``self_s`` and ``calls``.
LAYER_COUNTS: Dict[str, Tuple[str, ...]] = {
    "fleet.scheduler": ("shards", "shard_s_p50", "shard_s_p90"),
    "fleet.population": ("users", "specs"),
    "fleet.events": ("annotated", "backoffs", "aborts"),
    "fleet.executor.prefilter": ("rows",),
    "fleet.executor.probe": ("rows", "useful_ratio"),
    "fleet.executor.otp": ("waves", "rows", "rows_per_wave"),
    "protocol.session": ("feeds_per_phase2",),
    "fleet.aggregate": ("records",),
}


class LayerTracer:
    """Records layer spans while active (a re-usable context manager).

    ``spans`` holds every span recorded since the last :meth:`reset`,
    as ``[id, parent, layer, fn, start, end, counts]`` rows (``parent``
    is ``-1`` for a root span, ``counts`` a dict or ``None``).
    ``probe_used`` counts staged probe rows a session consumed.
    ``missing`` lists the ``module:qualname`` targets that no longer
    exist; their layer then reports no calls.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.probe_used = 0
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget recorded spans (in place: the wrappers hold the list)."""
        self.spans.clear()
        self.probe_used = 0
        self._stack.clear()

    # -- wrapping -----------------------------------------------------

    def _span(self, layer: str, fn: Callable, counter: Optional[Counter]):
        spans, stack = self.spans, self._stack
        label = fn.__qualname__
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [len(spans), stack[-1] if stack else -1, layer, label,
                   clock(), 0.0, None]
            spans.append(row)
            stack.append(row[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[5] = clock()
            if counter is not None:
                row[6] = counter(args, kwargs, out)
            return out

        return traced

    def _probe_hook(self, fn: Callable):
        """Count ``probe-tx`` passes that consume a staged probe row."""

        @functools.wraps(fn)
        def counted(stage, ctx):
            if (getattr(ctx.precomputed, "probe", None) is not None
                    and not ctx.extras.get("probe_tx_staged")):
                self.probe_used += 1
            return fn(stage, ctx)

        return counted

    def _rebind(self, module: str, qualname: str, make: Callable) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        cls_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        orig = vars(owner).get(attr) if owner is not None else None
        if orig is None:
            self.missing.append(f"{module}:{qualname}")
            return
        if cls_name:
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
            return
        wrapped = make(orig)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(other).items()):
                if value is orig:
                    self._undo.append((other, attr, orig))
                    setattr(other, attr, wrapped)

    def __enter__(self) -> "LayerTracer":
        if self._undo:
            raise RuntimeError("LayerTracer is already active")
        import repro.fleet  # noqa: F401  (load every traced module)
        import repro.protocol.stages  # noqa: F401

        self._stack.clear()
        self.missing.clear()
        try:
            for layer, targets in LAYERS:
                for module, qualname, counter in targets:
                    self._rebind(
                        module, qualname,
                        lambda fn, l=layer, c=counter: self._span(l, fn, c),
                    )
            self._rebind("repro.protocol.stages", "ProbeTxStage.run",
                         self._probe_hook)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def self_times(spans: Sequence[list]) -> List[float]:
    """Per-span self time: duration minus the children's durations."""
    own = [row[5] - row[4] for row in spans]
    for row in spans:
        if row[1] >= 0:
            own[row[1]] -= row[5] - row[4]
    return own


def _outermost(spans: Sequence[list], row: list) -> bool:
    """True when no ancestor of ``row`` belongs to the same layer."""
    parent = row[1]
    while parent >= 0:
        if spans[parent][2] == row[2]:
            return False
        parent = spans[parent][1]
    return True


def summarize(spans: Sequence[list], probe_used: int, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, flat ``name -> value``.

    ``<layer>.total_s`` is the time inside the layer including its
    callees.  ``trace.unattributed_s`` is ``wall_s`` minus the root
    spans, so the layers' self times plus it account for the traced
    wall time.
    """
    own = self_times(spans)
    out: Dict[str, float] = {}
    raw: Dict[str, Dict[str, float]] = {n: {} for n in LAYER_NAMES}
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.total_s"] = 0.0
        out[f"{layer}.calls"] = 0.0
    shard_s: List[float] = []
    root_s = 0.0
    for row, self_s in zip(spans, own):
        layer = row[2]
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += 1.0
        if _outermost(spans, row):
            out[f"{layer}.total_s"] += row[5] - row[4]
        if row[1] < 0:
            root_s += row[5] - row[4]
        if row[3] == "run_shard":
            shard_s.append(row[5] - row[4])
        for key, value in (row[6] or {}).items():
            raw[layer][key] = raw[layer].get(key, 0.0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for layer, keys in LAYER_COUNTS.items():
        for key in keys:
            out[f"{layer}.{key}"] = raw[layer].get(key, 0.0)
    probe_rows = raw["fleet.executor.probe"].get("rows", 0.0)
    out["fleet.executor.probe.useful_ratio"] = ratio(probe_used, probe_rows)
    otp = raw["fleet.executor.otp"]
    out["fleet.executor.otp.rows_per_wave"] = ratio(
        otp.get("rows", 0.0), otp.get("waves", 0.0)
    )
    session = raw["protocol.session"]
    out["protocol.session.feeds_per_phase2"] = ratio(
        session.get("feeds", 0.0), session.get("phase2", 0.0)
    )
    if shard_s:
        out["fleet.scheduler.shard_s_p50"] = statistics.median(shard_s)
        out["fleet.scheduler.shard_s_p90"] = (
            statistics.quantiles(shard_s, n=10, method="inclusive")[8]
            if len(shard_s) > 1
            else shard_s[0]
        )
    out["trace.unattributed_s"] = wall_s - root_s
    return out
