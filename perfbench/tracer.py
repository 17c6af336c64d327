"""Outside-in per-layer tracing for the platoonsec benchmark.

The tracer wraps public functions of the ``repro`` package from the
benchmark's own process; nothing under ``src/`` changes.  Each wrapped
call is a span of one *layer*.  Spans nest on a stack (the simulator is
single-threaded), so when a span closes its duration is known and so is
the part of it that its child spans covered.  A layer's self time is the
sum over its spans of ``duration - covered by children``.

The hot layers run millions of times per campaign, so spans are folded
into per-layer and per-function aggregates as they close instead of
being kept one by one.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional


class Tracer:
    """Per-layer span aggregates: entries, self time, per-function calls.

    ``entries[layer]`` counts spans entered from outside the layer (a
    layer calling into itself, e.g. ``hmac_verify`` -> ``hmac_tag``, is
    one entry).  ``calls[label]`` counts every call of one wrapped
    function and ``total[label]`` its inclusive time (no wrapped
    function here calls itself, so nothing is counted twice).
    ``counts`` holds boundary counters the wrappers record (busy
    carrier-sense results, store hits, pool starts, ...).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: list = []                  # [layer, label, start, covered]
        self.self_time: dict = defaultdict(float)
        self.entries: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.errors: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)

    def enter(self, layer: str, label: str) -> None:
        stack = self.stack
        if not stack or stack[-1][0] != layer:
            self.entries[layer] += 1
        self.calls[label] += 1
        stack.append([layer, label, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; return its duration."""
        layer, label, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.self_time[layer] += duration - covered
        if self.stack:
            self.stack[-1][3] += duration
        self.total[label] += duration
        return duration

    def wrap(self, fn: Callable, layer: str, label: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` traced as a span of ``layer``; ``after(args, result)``
        runs once the call returned, inside the span."""
        enter, exit_, errors = self.enter, self.exit, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(layer, label)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            except BaseException:
                errors[label] += 1
                raise
            finally:
                exit_()
        return traced


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, name: str, value) -> None:
        if isinstance(owner, type):
            had_own = name in owner.__dict__
            old = owner.__dict__.get(name)
        else:
            had_own, old = True, getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append((owner, name, had_own, old))

    def method(self, tracer: Tracer, cls: type, name: str, layer: str,
               after: Optional[Callable] = None) -> None:
        label = f"{cls.__name__}.{name}"
        self.set(cls, name, tracer.wrap(getattr(cls, name), layer, label,
                                        after))

    def function(self, tracer: Tracer, module, name: str, layer: str) -> None:
        """Wrap a module-level function and every ``repro`` module that
        imported it by name."""
        original = getattr(module, name)
        traced = tracer.wrap(original, layer, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, name, None) is original:
                self.set(mod, name, traced)

    def undo(self) -> None:
        while self._undo:
            owner, name, had_own, old = self._undo.pop()
            if had_own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _subclasses(cls: type) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _import_all_repro() -> None:
    """Import every ``repro`` module so by-name imports of wrapped
    functions exist before they are patched."""
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def install_parent(tracer: Tracer, patches: Patches) -> list:
    """Wrap the campaign-side layers (runner, pool, store, sweep,
    falsify).  Returns the list that collects every runner that ran."""
    from repro.core import runner as runner_mod
    from repro.falsify.search import Falsifier
    from repro.store.sqlite import SqliteStore
    from repro.sweep.engine import SweepEngine

    runners: list = []

    def note_runner(args, result):
        if args[0] not in runners:
            runners.append(args[0])
        if any(frame[0] == "falsify" for frame in tracer.stack):
            tracer.counts["falsify.batches"] += 1

    patches.method(tracer, runner_mod.CampaignRunner, "run", "runner",
                   after=note_runner)

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.counts["pool_starts"] += 1
            super().__init__(*args, **kwargs)

    patches.set(runner_mod, "ProcessPoolExecutor", CountingPool)

    def note_load(args, result):
        if result is not None:
            tracer.counts["store.hits"] += 1

    patches.method(tracer, SqliteStore, "load", "store.load", after=note_load)
    patches.method(tracer, SqliteStore, "store", "store.store")
    patches.method(tracer, SqliteStore, "acquire", "store.lease")
    patches.method(tracer, SqliteStore, "release", "store.lease")
    patches.method(tracer, SweepEngine, "run", "sweep")

    def note_falsify(args, result):
        tracer.counts["falsify.episodes"] += result.episodes_used

    patches.method(tracer, Falsifier, "falsify", "falsify",
                   after=note_falsify)
    return runners


def install_episode(tracer: Tracer, patches: Patches) -> None:
    """Wrap the in-episode layers: simulator, control, CAM, MAC,
    channel, fading, radio rx, defences, crypto, attacks, metrics."""
    _import_all_repro()
    from repro.core.attack import Attack, AttackerNode
    from repro.core.defense import Defense
    from repro.core.metrics import MetricsCollector
    from repro.kernel import controllers as kernel_controllers
    from repro.kernel.pool import KinematicsPool
    from repro.net.channel import RadioChannel
    from repro.net.fading import PairwiseFading
    from repro.net.mac import CsmaMac
    from repro.net.radio import Radio
    from repro.net.simulator import Simulator
    from repro.platoon.dynamics import VehicleDynamics
    from repro.platoon.vehicle import Vehicle
    from repro.security import crypto

    original_run_until = Simulator.run_until

    def run_until(sim, t_end):
        before = sim.events_processed
        try:
            return original_run_until(sim, t_end)
        finally:
            tracer.counts["simulator.events"] += sim.events_processed - before

    patches.set(Simulator, "run_until",
                tracer.wrap(run_until, "simulator", "Simulator.run_until"))
    patches.method(tracer, Simulator, "schedule_at", "simulator")

    for name in ("control_decide", "control_plan", "control_actuate"):
        patches.method(tracer, Vehicle, name, "control")
    patches.method(tracer, VehicleDynamics, "step", "control")
    patches.method(tracer, KinematicsPool, "step_slots", "control")
    patches.function(tracer, kernel_controllers, "evaluate_commands",
                     "control")

    patches.method(tracer, Vehicle, "send_beacon", "cam")

    def note_busy(args, busy):
        if busy:
            tracer.counts["mac.busy"] += 1

    patches.method(tracer, CsmaMac, "enqueue", "mac")
    patches.method(tracer, RadioChannel, "channel_busy", "mac",
                   after=note_busy)
    patches.method(tracer, RadioChannel, "broadcast", "channel")
    patches.method(tracer, RadioChannel, "interference_mw_at",
                   "channel.interference")
    patches.method(tracer, PairwiseFading, "draw", "fading")
    patches.method(tracer, PairwiseFading, "draw_batch", "fading")
    patches.method(tracer, Radio, "deliver", "radio")

    patches.method(tracer, Defense, "verdict", "defense")
    original_add_filter = Radio.add_filter

    def add_filter(radio, rx_filter):
        label = getattr(rx_filter, "__qualname__", type(rx_filter).__name__)
        return original_add_filter(
            radio, tracer.wrap(rx_filter, "defense", f"filter:{label}"))

    patches.set(Radio, "add_filter", add_filter)

    for name in ("hmac_tag", "hmac_verify", "sign", "verify", "sha256"):
        patches.function(tracer, crypto, name, "crypto")

    patches.method(tracer, AttackerNode, "send", "attack")
    for cls in _subclasses(Attack):
        for name in ("setup", "interference_dbm_at"):
            if name in cls.__dict__:
                patches.method(tracer, cls, name, "attack")

    patches.method(tracer, MetricsCollector, "compute", "metrics")


#: Every per-layer metric: (name, unit, which direction is better).
PER_LAYER = (
    ("simulator.events", "count", "lower"),
    ("simulator.scheduled", "count", "lower"),
    ("simulator.useful_ratio", "ratio", "higher"),
    ("simulator.self_s", "s", "lower"),
    ("control.calls", "count", "lower"),
    ("control.self_s", "s", "lower"),
    ("cam.beacons", "count", "lower"),
    ("cam.self_s", "s", "lower"),
    ("mac.enqueued", "count", "lower"),
    ("mac.self_s", "s", "lower"),
    ("mac.busy_defers", "count", "lower"),
    ("mac.dropped", "count", "lower"),
    ("mac.sent_ratio", "ratio", "higher"),
    ("channel.frames", "count", "lower"),
    ("channel.self_s", "s", "lower"),
    ("channel.interference_s", "s", "lower"),
    ("channel.delivery_ratio", "ratio", "higher"),
    ("fading.draws", "count", "lower"),
    ("fading.self_s", "s", "lower"),
    ("radio.deliveries", "count", "lower"),
    ("radio.self_s", "s", "lower"),
    ("defense.verdicts", "count", "lower"),
    ("defense.self_s", "s", "lower"),
    ("crypto.ops", "count", "lower"),
    ("crypto.self_s", "s", "lower"),
    ("attack.injections", "count", "lower"),
    ("attack.self_s", "s", "lower"),
    ("metrics.compute_s", "s", "lower"),
    ("runner.batches", "count", "lower"),
    ("runner.pool_starts", "count", "lower"),
    ("runner.unit_wait_s", "s", "lower"),
    ("runner.resolve_s", "s", "lower"),
    ("runner.record_s", "s", "lower"),
    ("store.loads", "count", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.stores", "count", "lower"),
    ("store.store_s", "s", "lower"),
    ("store.acquires", "count", "lower"),
    ("store.acquire_s", "s", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.errors", "count", "lower"),
    ("sweep.plan_s", "s", "lower"),
    ("sweep.aggregate_s", "s", "lower"),
    ("falsify.batches", "count", "lower"),
    ("falsify.episodes", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Layers whose spans run inside ``Simulator.run_until``.
LOOP_LAYERS = ("simulator", "control", "cam", "mac", "channel",
               "channel.interference", "fading", "radio", "defense",
               "crypto", "attack")


def loop_shares(tracer: Tracer) -> dict:
    """Each in-loop layer's self time as a share of ``run_until`` time,
    which shows which layer a workload actually spends its time in."""
    loop = tracer.total["Simulator.run_until"]
    return {layer: _ratio(tracer.self_time[layer], loop)
            for layer in LOOP_LAYERS}


def layer_metrics(episode: Tracer, parent: Tracer, counters: dict,
                  phases: dict, timers: dict, unit_wait_s: float) -> dict:
    """Every per-layer metric except ``trace.overhead``.

    ``episode`` traced the in-episode layers and ``parent`` the runner,
    store, sweep and falsify layers (the same tracer when the workload
    runs serially).  ``counters`` are the episodes' merged bench
    counters, ``phases`` the runner phase times, ``timers`` the parent
    registry's timers and ``unit_wait_s`` the summed wait of computed
    units read from the run log.
    """
    e, p = episode, parent
    delivered = counters.get("frames.delivered", 0)
    attempts = (delivered + counters.get("frames.jammed", 0)
                + counters.get("frames.lost_noise", 0))
    events = e.counts["simulator.events"]
    scheduled = e.calls["Simulator.schedule_at"]
    loads = p.calls["SqliteStore.load"]
    store_labels = [f"SqliteStore.{name}"
                    for name in ("load", "store", "acquire", "release")]
    timer = {name: stat["total"] for name, stat in timers.items()}
    return {
        "simulator.events": events,
        "simulator.scheduled": scheduled,
        "simulator.useful_ratio": _ratio(events, scheduled),
        "simulator.self_s": e.self_time["simulator"],
        "control.calls": e.entries["control"],
        "control.self_s": e.self_time["control"],
        "cam.beacons": e.calls["Vehicle.send_beacon"],
        "cam.self_s": e.self_time["cam"],
        "mac.enqueued": e.calls["CsmaMac.enqueue"],
        "mac.self_s": e.self_time["mac"],
        "mac.busy_defers": e.counts["mac.busy"],
        "mac.dropped": (counters.get("mac.dropped_queue_full", 0)
                        + counters.get("mac.dropped_retry_limit", 0)),
        "mac.sent_ratio": _ratio(e.calls["RadioChannel.broadcast"],
                                 e.calls["CsmaMac.enqueue"]),
        "channel.frames": e.calls["RadioChannel.broadcast"],
        "channel.self_s": e.self_time["channel"],
        "channel.interference_s": e.self_time["channel.interference"],
        "channel.delivery_ratio": _ratio(delivered, attempts),
        "fading.draws": e.entries["fading"],
        "fading.self_s": e.self_time["fading"],
        "radio.deliveries": e.calls["Radio.deliver"],
        "radio.self_s": e.self_time["radio"],
        "defense.verdicts": e.calls["Defense.verdict"],
        "defense.self_s": e.self_time["defense"],
        "crypto.ops": e.entries["crypto"],
        "crypto.self_s": e.self_time["crypto"],
        "attack.injections": e.calls["AttackerNode.send"],
        "attack.self_s": e.self_time["attack"],
        "metrics.compute_s": e.self_time["metrics"],
        "runner.batches": p.calls["CampaignRunner.run"],
        "runner.pool_starts": p.counts["pool_starts"],
        "runner.unit_wait_s": unit_wait_s,
        "runner.resolve_s": phases.get("resolve", 0.0),
        "runner.record_s": phases.get("record", 0.0),
        "store.loads": loads,
        "store.load_s": p.self_time["store.load"],
        "store.stores": p.calls["SqliteStore.store"],
        "store.store_s": p.self_time["store.store"],
        "store.acquires": p.calls["SqliteStore.acquire"],
        "store.acquire_s": p.self_time["store.lease"],
        "store.hit_ratio": _ratio(p.counts["store.hits"], loads),
        "store.errors": sum(p.errors[label] for label in store_labels),
        "sweep.plan_s": timer.get("sweep.plan", 0.0),
        "sweep.aggregate_s": timer.get("sweep.aggregate", 0.0),
        "falsify.batches": p.counts["falsify.batches"],
        "falsify.episodes": p.counts["falsify.episodes"],
        # Share of event-loop time attributed to a named layer; the rest
        # is the simulator's own residual (heap, clock, untraced ticks).
        "trace.coverage": 1.0 - _ratio(e.self_time["simulator"],
                                       e.total["Simulator.run_until"]),
    }
