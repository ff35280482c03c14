"""Span self-time arithmetic and the wrapping machinery."""

import types
import unittest

import benchpaths  # noqa: F401  (import paths)
from tracing import Tracer, patched, self_time


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(self_time(2.0, 7.0, []), 5.0)

    def test_disjoint_children(self):
        self.assertEqual(self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]), 7.0)

    def test_nested_child_is_not_subtracted_twice(self):
        # (2, 3) lies inside (1, 5): only the outer interval counts.
        self.assertEqual(self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]), 6.0)

    def test_overlapping_children_subtract_their_union(self):
        self.assertEqual(self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]), 5.0)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(self_time(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0)]), 4.0)

    def test_fully_covered_parent(self):
        self.assertEqual(self_time(1.0, 4.0, [(0.0, 2.5), (2.0, 5.0)]), 0.0)


class FakeClock:
    """A clock that reads the values it is given, one per call."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


class TracerTest(unittest.TestCase):
    def test_nested_spans_record_self_time(self):
        # root, outer start, inner start, inner end, outer end
        tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 5.0, 10.0))
        inner = tracer.timed("inner", lambda: "done")
        outer = tracer.timed("outer", lambda: inner())
        self.assertEqual(outer(), "done")
        self.assertEqual(tracer.self_seconds, {"inner": 3.0, "outer": 6.0})
        self.assertEqual(tracer.calls, {"inner": 1, "outer": 1})

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(clock=FakeClock(0.0, 1.0, 4.0))

        def fail():
            raise ValueError("boom")

        with self.assertRaises(ValueError):
            tracer.timed("fail", fail)()
        self.assertEqual(tracer.self_seconds["fail"], 3.0)
        self.assertEqual(tracer.calls["fail"], 1)

    def test_counted_calls(self):
        tracer = Tracer()
        double = tracer.counted("double", lambda x: 2 * x)
        self.assertEqual([double(1), double(2)], [2, 4])
        self.assertEqual(tracer.counts["double"], 2)

    def test_patched_restores_module_and_class_attributes(self):
        module = types.SimpleNamespace(f=lambda: 1)

        class Thing:
            def value(self):
                return 1

        original_f = module.f
        original_value = Thing.__dict__["value"]
        with patched([
            (module, "f", lambda fn: lambda: fn() + 1),
            (Thing, "value", lambda fn: lambda self: fn(self) + 2),
        ]):
            self.assertEqual(module.f(), 2)
            self.assertEqual(Thing().value(), 3)
        self.assertIs(module.f, original_f)
        self.assertIs(Thing.__dict__["value"], original_value)


if __name__ == "__main__":
    unittest.main()
