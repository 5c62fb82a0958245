"""Self-tests of the span recorder: nesting, self times, binding sites."""

import sys
import time
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class SyntheticNest(unittest.TestCase):
    def test_self_times_under_a_root_sum_to_its_duration(self):
        rec = spans.Recorder()
        with rec.span("root"):
            busy(0.002)
            for _ in range(3):
                with rec.span("a"):
                    busy(0.001)
                    with rec.span("b"):
                        busy(0.001)
                        with rec.span("c"):
                            busy(0.0005)
            with rec.span("b"):
                busy(0.001)
        duration, total = rec.check_root("root", tolerance=1e-9)
        self.assertAlmostEqual(total, duration, delta=1e-9 * duration)
        self.assertGreater(duration, 0.0085)

        a = rec.by_function("a")
        b_under_a = rec.by_function("b", "a")
        b_all = rec.by_function("b")
        c = rec.by_function("c")
        self.assertEqual((a[0], b_under_a[0], b_all[0], c[0]), (3, 3, 4, 3))
        # a's self time excludes b and c, which run inside it
        self.assertAlmostEqual(a[2], a[1] - b_under_a[1], delta=1e-9)
        self.assertAlmostEqual(b_under_a[2], b_under_a[1] - c[1], delta=1e-9)
        self.assertEqual(len(a[3]), 3)
        self.assertIsNone(rec.by_function("missing"))

    def test_a_mismatched_root_is_reported(self):
        rec = spans.Recorder()
        with rec.span("root"):
            with rec.span("child"):
                busy(0.001)
        rec.root_self["root"] *= 0.5
        with self.assertRaises(AssertionError):
            rec.check_root("root")


def fake_package():
    """pkg with two modules: pkg.low defines f and g (g calls f through the
    module namespace); pkg.high imports f and defines h calling it."""
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    exec(
        "def f(x):\n    return x + 1\n"
        "def g(x):\n    return f(x) * 2\n"
        "def gen(n):\n    for i in range(n):\n        yield f(i)\n",
        low.__dict__,
    )
    for fn in ("f", "g", "gen"):
        low.__dict__[fn].__module__ = "fakepkg.low"
    high.f = low.f
    exec("def h(x):\n    return f(x) + 10\n", high.__dict__)
    high.h.__module__ = "fakepkg.high"
    pkg.f, pkg.g, pkg.gen, pkg.h = low.f, low.g, low.gen, high.h
    pkg.__all__ = ["f", "g", "gen", "h", "missing_name"]
    return pkg, low, high


class BindingSites(unittest.TestCase):
    def setUp(self):
        self.pkg, self.low, self.high = fake_package()
        for mod in (self.pkg, self.low, self.high):
            sys.modules[mod.__name__] = mod

    def tearDown(self):
        for name in ("fakepkg", "fakepkg.low", "fakepkg.high"):
            sys.modules.pop(name, None)

    def test_every_binding_site_is_wrapped_and_restored(self):
        original = self.low.f
        rec = spans.Recorder()
        with spans.tracing(rec, self.pkg):
            self.assertIsNot(self.high.f, original)
            self.assertIs(self.high.f, self.low.f)
            with rec.span("root"):
                self.assertEqual(self.pkg.g(1), 4)
                self.assertEqual(self.pkg.h(1), 12)
                self.assertEqual(list(self.pkg.gen(3)), [1, 2, 3])
        for mod in (self.pkg, self.low, self.high):
            self.assertIs(mod.f, original)
        self.assertEqual(rec.by_function("low.f", "low.g")[0], 1)
        self.assertEqual(rec.by_function("low.f", "high.h")[0], 1)
        self.assertEqual(rec.by_function("low.f", "low.gen")[0], 3)
        self.assertEqual(rec.by_function("low.gen")[0], 5)  # the call and 4 steps
        rec.check_root("root", tolerance=1e-9)


if __name__ == "__main__":
    unittest.main()
