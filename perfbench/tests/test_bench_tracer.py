import types

import pytest

from moebench.tracer import SETUP_OP, Span, Tracer, self_times


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),    # overlaps a: [1, 6] is covered once
        Span("c", 8.0, 12.0, 0, 0),   # runs past the root's end: only [8, 10] counts
        Span("g", 1.5, 2.0, 1, 0),    # grandchild: already inside a
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5])


def _fake_module():
    mod = types.ModuleType("fake")

    class Thing:
        def work(self, x):
            return mod.helper(x) + 1

        @classmethod
        def make(cls):
            return cls()

    mod.helper = lambda x: 2 * x
    mod.Thing = Thing
    return mod


def test_wrappers_nest_count_and_restore():
    mod = _fake_module()
    originals = (vars(mod.Thing)["work"], vars(mod.Thing)["make"], mod.helper)
    tracer = Tracer()
    tracer.wrap(mod.Thing, "work", "fake.work",
                after=lambda t, result, args, kwargs: t.counts.update(results=result))
    tracer.wrap(mod.Thing, "make", "fake.make")
    tracer.wrap(mod, "helper", "fake.helper")
    with tracer.installed():
        thing = mod.Thing.make()
        tracer.op = 3
        assert thing.work(5) == 11
    assert (vars(mod.Thing)["work"], vars(mod.Thing)["make"], mod.helper) == originals
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("fake.make", -1, SETUP_OP), ("fake.work", -1, 3), ("fake.helper", 1, 3)]
    assert tracer.counts["results"] == 11
    assert [site.rsplit(".", 2)[-2:] for site, _ in tracer.sites] == [
        ["Thing", "work"], ["Thing", "make"], ["fake", "helper"]]
    assert dict(tracer.site_calls) == {site: 1 for site, _ in tracer.sites}
    assert mod.Thing().work(1) == 3 and len(tracer.spans) == 3


def test_missing_attribute_is_a_missing_layer():
    with pytest.raises(LookupError, match="fake.gone"):
        Tracer().wrap(_fake_module(), "gone", "fake.gone")


def test_wrapper_restores_after_exception():
    mod = _fake_module()
    original = mod.helper
    tracer = Tracer()
    tracer.wrap(mod, "helper", "fake.helper")
    with pytest.raises(TypeError):
        with tracer.installed():
            mod.helper(None)
    assert mod.helper is original
    assert tracer.spans[0].name == "fake.helper" and tracer.spans[0].end >= tracer.spans[0].start
