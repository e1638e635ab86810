"""nde4 benchmark: one workload, one run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload sim-chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # each in turn

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. With `--trace 0` the run is
untraced and reports the end-to-end metrics; with `--trace 1` untraced and
traced iterations alternate and the run reports the per-layer metrics.
Every line before the last is for people: each metric with its unit and
sample count, the environment, and any failed check. The exit code is 0 only
when every output check passed; 2 when the package cannot be found.

Workloads (see BENCHMARK.json for why each was chosen):
  sim-chain      fullchain.scen cloned to 1000 orders, one run_scenario per iteration
  evidence-wire  2000-object archive served over loopback TCP to two clients
  sim-small      fullchain.scen as shipped, run back to back; not in BENCHMARK.json,
                 because on a shared machine its small-file cost swings too much
                 from run to run to gate

The end-to-end metrics are the same four on every workload:
  setup_s           sims: load_scenario of the generated text, before each run;
                    evidence-wire: populate, copy, reopen, serve and connect
  throughput_per_s  sims: REPORTED orders per second of run_scenario (orders_per_s);
                    evidence-wire: requests per second of both clients (wire_ops_per_s)
  latency_p50_ms    sims: median run_scenario wall time;
                    evidence-wire: median FETCH round trip (fetch_p50_ms)
  peak_rss_mb       peak resident memory of the process
Printed as well, under the names the traced run reports them by, but too
unsteady on a shared machine to gate: archive.verify_s (Archive.verify_chain,
as `nde4 archive verify`, of each run's final store) and on evidence-wire
the FETCH tail and the QUERY and STORE round trips (wire.*). error_rate is
printed, and is `failed / attempted` in the JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was found

from common import Metric, peak_rss_mb  # noqa: E402

WORKLOADS = ("sim-chain", "evidence-wire", "sim-small")
SIM_CHAIN_COPIES = 250  # 4 orders each: 1000 orders
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}
FLUSH_POLICY = "no fsync; OS page cache"


def import_package(root: Path):
    """Import nde4 from `root/src`; None when the checkout has no package."""
    src = root / "src"
    if not (src / "nde4" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import nde4

    if Path(nde4.__file__).resolve().parent != (src / "nde4").resolve():
        return None
    return nde4


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = root / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else f"unknown ({text[5:]})"
    return text


def source_sha(root: Path) -> str:
    """Digest of the package sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nde4").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def filesystem(path: Path) -> str:
    """Type of the filesystem holding `path`, from the mount table."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def environment(root: Path, data_root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "source_sha256": source_sha(root),
        "data_dir_fs": filesystem(data_root.resolve()),
        "flush_policy": FLUSH_POLICY,
        "platform": platform.platform(),
    }


def make_workload(name: str, root: Path, seed: int):
    if name == "evidence-wire":
        from wire import WireWorkload

        return WireWorkload(root, seed, setup_reps=3)
    from sim import SimWorkload

    if name == "sim-chain":
        return SimWorkload(root, seed, SIM_CHAIN_COPIES, setup_reps=3)
    return SimWorkload(root, seed, None, setup_reps=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    root = Path.cwd()
    if import_package(root) is None:
        print(f"perfbench: no nde4 package under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    import layers

    work_root = root / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        outcome = make_workload(args.workload, root, args.seed).run(
            args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.tracer is not None:
        # one file per workload, replaced by each traced run
        spans_path = work_root / f"spans-{args.workload}.jsonl"
        outcome.tracer.dump(spans_path)
        outcome.info["spans_file"] = spans_path.relative_to(root).as_posix()

    metrics = outcome.metrics
    if args.trace:
        wanted = layers.PER_LAYER
        for name, unit in wanted.items():
            if name not in metrics:
                metrics[name] = Metric(0.0, unit, 0, "layer idle on this workload")
    else:
        wanted = END_TO_END
        metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MiB", 1, "ru_maxrss")
    error_rate = outcome.failed / max(outcome.attempted, 1)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(root, work_root), sort_keys=True))
    for key, value in sorted(outcome.info.items()):
        print(f"info {key}: {value}")
    for name, metric in metrics.items():
        gated = "" if name in wanted else "  (printed only)"
        print(f"  {name:42s} {metric.value:14.6f} {metric.unit:10s} "
              f"n={metric.samples:<7d} {metric.note}{gated}")
    print(f"  {'error_rate':42s} {error_rate:14.6f} {'ratio':10s} "
          f"n={outcome.attempted:<7d} {outcome.failed} failed of {outcome.attempted}")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name].value, "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
