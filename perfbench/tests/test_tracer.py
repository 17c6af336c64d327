"""Self-time arithmetic and patching of the outside-in tracer."""

import sys
import types

import pytest

from tracer import PER_LAYER, Patches, Tracer, layer_metrics, loop_shares


class ScriptedClock:
    """Returns the given instants in order, one per reading."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


def test_self_time_subtracts_only_direct_children():
    # a: 0..10 holds b: 2..5 (which holds c: 3..4) and d: 6..8.
    tracer = Tracer(clock=ScriptedClock(0, 2, 3, 4, 5, 6, 8, 10))
    c = tracer.wrap(lambda: None, "c", "c")
    b = tracer.wrap(lambda: c(), "b", "b")
    d = tracer.wrap(lambda: None, "d", "d")
    tracer.wrap(lambda: (b(), d()), "a", "a")()
    assert tracer.self_time == {"a": 5, "b": 2, "c": 1, "d": 2}
    assert sum(tracer.self_time.values()) == 10
    assert tracer.total["a"] == 10 and tracer.total["b"] == 3


def test_nested_span_of_the_same_layer_is_one_entry():
    # crypto 0..6 calls crypto 1..4: one entry, self times 3 + 3.
    tracer = Tracer(clock=ScriptedClock(0, 1, 4, 6))
    hmac_tag = tracer.wrap(lambda: None, "crypto", "hmac_tag")
    tracer.wrap(lambda: hmac_tag(), "crypto", "hmac_verify")()
    assert tracer.entries["crypto"] == 1
    assert tracer.calls == {"hmac_verify": 1, "hmac_tag": 1}
    assert tracer.self_time["crypto"] == 6


def test_wrapped_raise_is_counted_and_unwinds_the_stack():
    tracer = Tracer(clock=ScriptedClock(0, 1))

    def boom():
        raise KeyError("x")

    traced = tracer.wrap(boom, "store.load", "load")
    with pytest.raises(KeyError):
        traced()
    assert tracer.errors["load"] == 1
    assert tracer.stack == []
    assert tracer.self_time["store.load"] == 1


def test_after_hook_sees_arguments_and_result():
    seen = []
    tracer = Tracer()
    traced = tracer.wrap(lambda x: x * 2, "layer", "double",
                         after=lambda args, result: seen.append((args, result)))
    assert traced(21) == 42
    assert seen == [((21,), 42)]


def test_patches_undo_restores_own_and_inherited_methods():
    class Base:
        def load(self):
            return "base"

    class Child(Base):
        def store(self):
            return "child"

    own, tracer, patches = Child.store, Tracer(), Patches()
    patches.method(tracer, Child, "load", "store.load")
    patches.method(tracer, Child, "store", "store.store")
    assert Child().load() == "base" and tracer.calls["Child.load"] == 1
    patches.undo()
    assert "load" not in Child.__dict__
    assert Child.store is own


def test_function_patch_reaches_by_name_imports(monkeypatch):
    def sha256(data):
        return data

    origin = types.ModuleType("repro._bench_origin")
    origin.sha256 = sha256
    importer = types.ModuleType("repro._bench_importer")
    importer.sha256 = sha256
    for module in (origin, importer):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer, patches = Tracer(), Patches()
    patches.function(tracer, origin, "sha256", "crypto")
    importer.sha256(b"x")
    assert tracer.calls["sha256"] == 1
    patches.undo()
    assert origin.sha256 is sha256 and importer.sha256 is sha256


def test_loop_shares_divide_self_time_by_run_until():
    # run_until 0..10 holds radio 2..6 (which holds crypto 3..5).
    tracer = Tracer(clock=ScriptedClock(0, 2, 3, 5, 6, 10))
    crypto = tracer.wrap(lambda: None, "crypto", "hmac_verify")
    radio = tracer.wrap(lambda: crypto(), "radio", "Radio.deliver")
    tracer.wrap(lambda: radio(), "simulator", "Simulator.run_until")()
    shares = loop_shares(tracer)
    assert (shares["simulator"], shares["radio"], shares["crypto"]) \
        == (0.6, 0.2, 0.2)
    assert shares["mac"] == 0.0


def test_layer_metrics_cover_every_per_layer_name():
    empty = Tracer()
    metrics = layer_metrics(empty, empty, counters={}, phases={}, timers={},
                            unit_wait_s=0.0)
    names = {name for name, _, _ in PER_LAYER}
    assert set(metrics) == names - {"trace.overhead"}
    assert metrics["trace.coverage"] == 1.0
