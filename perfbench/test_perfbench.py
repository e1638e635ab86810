"""Self-tests of the benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from nde4 import load_scenario  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from common import Outcome, tail  # noqa: E402
from sim import SimWorkload  # noqa: E402
from tracing import Span, Tracer, patched, self_times  # noqa: E402
from wire import WireWorkload  # noqa: E402

FULLCHAIN = (ROOT / "scenarios" / "fullchain.scen").read_text("utf-8")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(gen.clone_scenario(FULLCHAIN, 5, 7),
                         gen.clone_scenario(FULLCHAIN, 5, 7))
        self.assertNotEqual(gen.clone_scenario(FULLCHAIN, 5, 7),
                            gen.clone_scenario(FULLCHAIN, 5, 8))

    def test_clones_are_fresh_and_exchanges_follow_their_copy(self):
        document = json.loads(gen.clone_scenario(FULLCHAIN, 3, 7))
        orders = document["orders"]
        self.assertEqual(len(orders), 12)
        self.assertEqual(len({o["orderId"] for o in orders}), 12)
        self.assertEqual(len({o["componentSerial"] for o in orders}), 12)
        self.assertEqual(len(document["exchanges"]), 9)
        company = {o["orderId"]: o["company"] for o in orders}
        for exchange in document["exchanges"]:
            self.assertEqual(company[exchange["orderId"]], exchange["provider"])
        config = load_scenario(gen.clone_scenario(FULLCHAIN, 3, 7))
        self.assertEqual(config.seed, 7)

    def test_mix_shares_are_exact_per_block(self):
        block = sum(count for _, count in gen.MIX_BLOCK)
        kinds = gen.mix(gen.wire_rng(3, "mix"))
        first = [next(kinds) for _ in range(block * 4)]
        for start in range(0, len(first), block):
            chunk = first[start:start + block]
            for kind, count in gen.MIX_BLOCK:
                self.assertEqual(chunk.count(kind), count)
        again = gen.mix(gen.wire_rng(3, "mix"))
        self.assertEqual(first, [next(again) for _ in range(block * 4)])


class SelfTimeTest(unittest.TestCase):
    def test_nested_trace(self):
        spans = [
            Span(1, None, "root", "a", 0.0, 10.0),
            Span(2, 1, "child", "a", 1.0, 4.0),
            Span(3, 2, "grandchild", "a", 2.0, 3.0),
            Span(4, 1, "child", "a", 5.0, 9.0),
            Span(5, 4, "remote", "a", 6.0, 7.5, thread=2),
        ]
        selfs = self_times(spans)
        self.assertEqual(selfs, {1: 3.0, 2: 2.0, 3: 1.0, 4: 2.5, 5: 1.5})
        self.assertEqual(sum(selfs.values()), 10.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [
            Span(1, None, "root", None, 0.0, 10.0),
            Span(2, 1, "a", None, 1.0, 5.0),
            Span(3, 1, "b", None, 4.0, 12.0),
        ]
        self.assertEqual(self_times(spans)[1], 1.0)

    def test_tracer_nests_and_inherits_keys(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x * 2)
        with tracer.span("outer", "ORD-1"):
            self.assertEqual(inner(4), 8)
        child, parent = tracer.spans
        self.assertEqual((child.name, child.parent, child.key), ("inner", parent.id, "ORD-1"))
        self.assertIsNone(parent.parent)

    def test_patched_restores(self):
        class Owner:
            def method(self):
                return 1

        original = Owner.method
        tracer = Tracer()
        with patched([(Owner, "method", lambda fn: tracer.wrap("owner.method", fn))]):
            self.assertEqual(Owner().method(), 1)
        self.assertIs(Owner.method, original)
        self.assertEqual([span.name for span in tracer.spans], ["owner.method"])

    def test_spans_of_other_threads_need_a_parent(self):
        tracer = Tracer()
        worker = threading.Thread(target=lambda: tracer.wrap("stray", int)("1"))
        worker.start()
        worker.join(timeout=5)
        self.assertFalse(worker.is_alive())
        outcome = Outcome()
        layers.report(outcome, tracer, 1, 1.0, {threading.get_ident()}, {})
        self.assertEqual(outcome.failed, 1)

    def closure_failures(self, loop_time):
        """Failures of the closure check for one 1 s root with a 0.5 s child,
        against a loop time measured apart from the spans."""
        tracer = Tracer()
        me = threading.get_ident()
        tracer.spans = [Span(1, None, "bench.check", None, 0.0, 1.0, thread=me),
                        Span(2, 1, "archive.store", None, 0.2, 0.7, thread=me)]
        outcome = Outcome()
        layers.report(outcome, tracer, 1, loop_time, {me}, {})
        return outcome.failed

    def test_closure_holds_with_a_little_loop_time(self):
        self.assertEqual(self.closure_failures(1.001), 0)

    def test_time_counted_twice_fails(self):
        self.assertEqual(self.closure_failures(0.999), 1)

    def test_work_outside_every_span_fails(self):
        self.assertEqual(self.closure_failures(1.5), 1)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail([float(i) for i in range(1, 1001)]), (990.0, "p99"))
        self.assertEqual(tail([float(i) for i in range(1, 101)]), (90.0, "p90"))
        self.assertEqual(tail([1.0, 2.0, 3.0]), (3.0, "max"))


class MetricTablesTest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_benchmark_prints(self):
        document = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in document["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in document["per_layer"]},
                         layers.PER_LAYER)
        self.assertLessEqual({w["name"] for w in document["workloads"]}, set(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    """Each workload at a tiny size, untraced and traced."""

    def setUp(self):
        scratch = ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def check(self, workload, trace):
        outcome = workload.run(0.2, trace, self.workdir)
        self.assertEqual(outcome.failed, 0, outcome.problems)
        self.assertGreater(outcome.attempted, 0)
        if trace:
            self.assertIn("closure", outcome.info)
            self.assertLessEqual(set(outcome.metrics), set(layers.PER_LAYER))
        else:
            for name in set(run.END_TO_END) - {"peak_rss_mb"}:
                self.assertGreater(outcome.metrics[name].value, 0.0, name)
        return outcome

    def test_sims(self):
        for copies in (None, 2):
            shas = set()
            for trace in (False, True):
                workload = SimWorkload(ROOT, 5, copies, setup_reps=2)
                shas.add(self.check(workload, trace).info["trace_sha256"])
            self.assertEqual(len(shas), 1, "traced and untraced traces differ")

    def test_wire(self):
        for trace in (False, True):
            outcome = self.check(WireWorkload(ROOT, 5, setup_reps=1, orders=20), trace)
        self.assertGreater(outcome.metrics["transport.request.calls"].value, 0)

    def test_refuses_a_directory_without_the_package(self):
        bare = self.workdir / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
