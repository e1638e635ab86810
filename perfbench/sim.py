"""Simulator workloads: `sim-chain` (the shipped four-role chain cloned to
about 1000 orders) and `sim-small` (the shipped chain as is).

One iteration is what `nde4 sim run` does with a scenario file: load the
text, run it in a fresh data directory, then verify the archive it left,
as `nde4 archive verify` does. The scenario text is generated once per
process; set-up is `load_scenario` of that text.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import threading
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from nde4 import load_scenario, run_scenario

import gen
from common import Metric, Outcome, median
from tracing import Tracer, patched
import layers

CLEAN = {"rejected": 0, "chain_status": "OK", "rami_gaps": [], "audit_denies": 0}


class SimWorkload:
    def __init__(self, root: Path, seed: int, copies: int | None, setup_reps: int):
        source = (root / "scenarios" / "fullchain.scen").read_text("utf-8")
        self.seed = seed
        self.copies = copies  # None: the shipped scenario unchanged
        self.setup_reps = setup_reps
        start = perf_counter()
        self.text = (source if copies is None
                     else gen.clone_scenario(source, copies, gen.sim_seed(seed)))
        self.generate_s = perf_counter() - start

    def load(self, text: str):
        # the shipped scenario keeps its text; its seed is varied the way
        # `nde4 sim run --seed` varies it
        override = gen.sim_seed(self.seed) if self.copies is None else None
        return load_scenario(text, seed_override=override)

    def setup(self) -> tuple[object, float]:
        start = perf_counter()
        config = self.load(self.text)
        return config, perf_counter() - start

    def run(self, seconds: float, trace: bool, workdir: Path) -> Outcome:
        outcome = Outcome()
        runs = _Runs(self, workdir, outcome)
        if trace:
            runs.alternate(seconds)
            runs.report_layers()
            outcome.tracer = runs.tracer
        else:
            runs.measure(seconds)
            runs.report_end_to_end()
        outcome.info["trace_sha256"] = runs.trace_sha
        outcome.info["generate_s"] = round(self.generate_s, 6)
        return outcome


class _Runs:
    def __init__(self, workload: SimWorkload, workdir: Path, outcome: Outcome):
        self.workload = workload
        self.workdir = workdir
        self.outcome = outcome
        self.trace_sha: str | None = None
        self.count = 0
        self.setups: list[float] = []  # load_scenario
        self.walls: list[float] = []  # untraced run_scenario wall times
        self.traced_walls: list[float] = []
        self.verifies: list[float] = []
        self.reported = 0
        self.tracer = Tracer()
        self.traced_phase = 0.0  # wall time of the traced iterations
        self.stats = {"bus.frames": 0, "bus.frame_bytes": 0, "sovereignty.frames": 0,
                      "sovereignty.frame_bytes": 0, "sovereignty.audit_bytes": 0,
                      "plantsim.trace_events": 0, "disk_bytes": 0, "objects": 0}

    def measure(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while True:
            self.iterate(None)
            if perf_counter() >= deadline:
                return

    def alternate(self, seconds: float) -> None:
        """Untraced and traced iterations in turn, so both see the same
        machine conditions; at least one of each."""
        deadline = perf_counter() + seconds
        while True:
            self.iterate(None)
            start = perf_counter()
            with patched(layers.targets(self.tracer)):
                self.iterate(self.tracer)
            self.traced_phase += perf_counter() - start
            if perf_counter() >= deadline:
                return

    def iterate(self, tracer: Tracer | None) -> None:
        """One run. Traced, every step is a span: the layers' calls, the
        engine's own time and the benchmark's checks and clean-up."""
        self.count += 1
        data_dir = self.workdir / f"run-{self.count}"
        if tracer is None:
            # set-up is repeated before every run, so its samples spread
            # over the whole run like the others
            for _ in range(self.workload.setup_reps):
                config, elapsed = self.workload.setup()
                self.setups.append(elapsed)
            start = perf_counter()
            result = run_scenario(config, data_dir)
            self.walls.append(perf_counter() - start)
            start = perf_counter()
            verify = result.archive.verify_chain()
            self.verifies.append(perf_counter() - start)
            self.check(result, verify)
        else:
            config = tracer.wrap("plantsim.load_scenario", self.workload.load)(
                self.workload.text)
            start = perf_counter()
            with tracer.span("plantsim.run_scenario"):
                result = run_scenario(config, data_dir)
            self.traced_walls.append(perf_counter() - start)
            verify = result.archive.verify_chain()
            with tracer.span("bench.check"):
                self.check(result, verify)
                self.collect(result, data_dir)
        with tracer.span("bench.cleanup") if tracer else nullcontext():
            shutil.rmtree(data_dir)
            # like a fresh `nde4 sim run`, each run starts without the last
            # one's garbage, so neither its time nor the peak memory carries it
            del result
            gc.collect()

    def check(self, result, verify) -> None:
        report = result.report
        total = report["orders_total"]
        self.outcome.info["orders_per_run"] = total
        self.outcome.attempted += total
        self.reported += report["reported"]
        problems = [f"{key}={report[key]!r}" for key, want in CLEAN.items()
                    if report[key] != want]
        if report["reported"] != total:
            problems.append(f"reported {report['reported']} of {total}")
        if not verify.ok:
            problems.append(f"verify {verify}")
        sha = hashlib.sha256("\n".join(result.trace_lines).encode("utf-8")).hexdigest()
        if self.trace_sha is None:
            self.trace_sha = sha
        elif sha != self.trace_sha:
            problems.append(f"trace sha256 {sha[:12]} != {self.trace_sha[:12]}")
        if problems:
            self.outcome.fail(
                f"run {self.count}: " + ", ".join(problems),
                max(total - report["reported"], 1),
            )

    def collect(self, result, data_dir: Path) -> None:
        stats = self.stats
        stats["bus.frames"] += len(result.orders_frame_sizes)
        stats["bus.frame_bytes"] += sum(result.orders_frame_sizes)
        stats["sovereignty.frames"] += len(result.sovereign_frames)
        stats["sovereignty.frame_bytes"] += sum(len(f) for f in result.sovereign_frames)
        stats["sovereignty.audit_bytes"] += sum(
            path.stat().st_size for path in data_dir.glob("audit-*.log")
        )
        stats["plantsim.trace_events"] += len(result.trace_lines)
        stats["disk_bytes"] += sum(
            path.stat().st_size for path in data_dir.iterdir()
            if path.is_file() and not path.name.startswith("audit-")
        )
        stats["objects"] += len(result.archive.uids())

    # --- reporting ----------------------------------------------------------

    def report_end_to_end(self) -> None:
        metrics = self.outcome.metrics
        metrics["setup_s"] = Metric(
            median(self.setups), "s", len(self.setups),
            "median load_scenario of the generated text, before each run")
        metrics["throughput_per_s"] = Metric(
            self.reported / sum(self.walls), "1/s", len(self.walls),
            "orders_per_s: REPORTED orders / run_scenario wall time",
        )
        metrics["latency_p50_ms"] = Metric(
            median(self.walls) * 1e3, "ms", len(self.walls),
            "median run_scenario wall time",
        )
        metrics["archive.verify_s"] = verify_metric(self.verifies)

    def report_layers(self) -> None:
        iterations = len(self.traced_walls)
        layers.report(self.outcome, self.tracer, iterations, self.traced_phase,
                      {threading.get_ident()},
                      {"plantsim.run_scenario": "plantsim.engine.self_ms"})
        metrics = self.outcome.metrics
        stats = self.stats
        for name in ("bus.frames", "bus.frame_bytes", "sovereignty.frames",
                     "sovereignty.frame_bytes", "sovereignty.audit_bytes",
                     "plantsim.trace_events"):
            metrics[name] = Metric(stats[name] / iterations, layers.PER_LAYER[name],
                                   iterations)
        metrics["archive.disk_bytes_per_object"] = Metric(
            stats["disk_bytes"] / stats["objects"], "B", iterations)
        metrics["archive.verify_s"] = verify_metric(self.verifies)
        metrics["trace.overhead_share"] = Metric(
            median(self.traced_walls) / median(self.walls) - 1, "ratio", iterations,
            "median traced / untraced run_scenario wall time - 1",
        )


def verify_metric(verifies: list[float]) -> Metric:
    return Metric(median(verifies), "s", len(verifies),
                  "median verify_chain of each run's final store")
