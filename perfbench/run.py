#!/usr/bin/env python3
"""The repository benchmark: one workload's trial plan, timed end to end.

Run from the repository root::

    python3 perfbench/run.py --workload event-er-logn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload campaign-table1 --trace 1
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass; ``all`` runs every workload, each in its
own process.  The metric names and units come from ``BENCHMARK.json``.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {"run_s": {"value": 7.81, "unit": "s"}, ...}}

The loop is closed: one client in one process runs the plan, waits for it,
and runs it again, with ``jobs=1`` and one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Temporary stores, run records and traces; inside the checkout, git-ignored.
OUT = ROOT / ".perfbench-out"

#: Set-up is repeated this many times per run (each in a fresh interpreter,
#: since ``import repro`` is part of it) and the median reported.
SETUP_SAMPLES = 3
#: Store-served reruns after each cold plan: at least this many, and at
#: least this many seconds of them.  The reference host alternates between
#: a fast and a 1.5-2x slower phase every few seconds, so a repeat's rerun
#: time is the mean over a window long enough to span several phases.
RERUNS = 3
RERUN_SECONDS = 10.0
#: Seconds a child process (set-up probe, traced pass, one workload) may take.
CHILD_TIMEOUT = 170


def isolate_environment() -> None:
    """Pin thread pools to one thread and drop the program's ambient settings.

    ``REPRO_BACKEND`` would change the backend of workloads that leave it to
    the ambient default, and ``REPRO_BENCH_STORE`` points the older bench
    scripts at a shared archive; neither may leak into a measurement.
    Children inherit the cleaned environment.
    """
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[name] = "1"
    for name in ("REPRO_BACKEND", "REPRO_BENCH_STORE"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One cold plan plus its reruns
# ----------------------------------------------------------------------
@dataclass
class Repeat:
    run_s: float
    rerun_s: list[float]
    digest: str
    timeslots: int
    bytes_written: int
    failed: set[str]


def check_cold(plan, cold) -> set[str]:
    """Labels of the cold plan's trials that fail a check."""
    failed = workloads.failed_labels(plan, cold)
    if cold.store_puts != plan.trial_count or cold.store_hits != 0:
        failed.add(workloads.WHOLE_PLAN)  # the plan did not compute every trial
    if plan.pinned_digest is not None and workloads.digest(cold) != plan.pinned_digest:
        failed.add(workloads.WHOLE_PLAN)
    return failed


def check_warm(plan, warm, cold, report: str) -> set[str]:
    """Labels failing on a rerun, which must serve the cold results from the store.

    The served results must equal the cold run's field for field.
    ``report`` is the first rerun's report body: every rerun renders the
    same one (the cold run's differs only in its cached/computed columns).
    """
    failed = workloads.failed_labels(plan, warm)
    if (
        warm.store_hits != plan.trial_count
        or warm.store_puts != 0
        or warm.trials != cold.trials
        or warm.report != report
    ):
        failed.add(workloads.WHOLE_PLAN)
    return failed


def run_repeat(plan, rerun_seconds: float) -> Repeat:
    """Run ``plan`` cold into a fresh store, then rerun it from that store.

    Reruns continue until there are :data:`RERUNS` of them and they took
    ``rerun_seconds`` together, so a rerun of a millisecond is sampled as
    often as one of a second is.  The traced pass passes ``0``, which keeps
    its counters the same from run to run.  Each output is checked and
    dropped at once, so reruns do not add to peak memory.
    """
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        store_dir = Path(tmp) / "store"
        started = time.perf_counter()
        cold = plan.execute(store_dir)
        run_s = time.perf_counter() - started
        failed = check_cold(plan, cold)
        cold_digest = workloads.digest(cold)
        timeslots = sum(result.timeslots for _, result in cold.trials)
        bytes_written = sum(
            path.stat().st_size for path in store_dir.rglob("*") if path.is_file()
        )
        rerun_s: list[float] = []
        report = None
        while len(rerun_s) < RERUNS or sum(rerun_s) < rerun_seconds:
            started = time.perf_counter()
            warm = plan.execute(store_dir)
            rerun_s.append(time.perf_counter() - started)
            report = warm.report if report is None else report
            failed |= check_warm(plan, warm, cold, report)
    return Repeat(
        run_s=run_s,
        rerun_s=rerun_s,
        digest=cold_digest,
        timeslots=timeslots,
        bytes_written=bytes_written,
        failed=failed,
    )


def failed_count(plan, failed: set[str]) -> int:
    return plan.trial_count if workloads.WHOLE_PLAN in failed else len(failed)


@dataclass
class Measurement:
    repeats: list[Repeat] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, plan, repeat: "Repeat | None") -> None:
        self.attempted += plan.trial_count
        if repeat is None:
            self.failed += plan.trial_count
            return
        self.repeats.append(repeat)
        self.failed += failed_count(plan, repeat.failed)


def measure(plan, seconds: float) -> Measurement:
    """Repeat the plan while the next repeat would end within ``seconds`` (once at least)."""
    measurement = Measurement()
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not measurement.repeats or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        try:
            repeat = run_repeat(plan, RERUN_SECONDS)
        except Exception:  # a raising plan is a failed plan, reported below
            traceback.print_exc()
            measurement.add(plan, None)
            break
        measurement.add(plan, repeat)
        last = time.perf_counter() - started
    return measurement


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(name: str, seed: int):
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        return workloads.set_up(name, seed, Path(tmp) / "store")


def child(arguments: list[str]) -> dict:
    """Run this script with ``arguments`` in a fresh interpreter; return its last line."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *arguments],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def setup_samples(name: str, seed: int) -> tuple[object, list[float]]:
    """Median-ready set-up times: fresh-interpreter probes, then this process's own."""
    samples = [
        child(["--workload", name, "--seed", str(seed), "--setup-probe"])["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    plan, seconds = set_up(name, seed)
    return plan, samples + [seconds]


# ----------------------------------------------------------------------
# Stamp
# ----------------------------------------------------------------------
def git_rev() -> "str | None":
    """The checked-out commit, read from ``.git`` (a checkout may have none)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over ``src/repro``'s python sources: identifies the code without git."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def stamp(plan, args) -> dict:
    import networkx
    import numpy

    numba = (
        importlib.metadata.version("numba")
        if importlib.util.find_spec("numba") is not None
        else None
    )
    return {
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "numba": numba,
        "REPRO_EVENT_KERNEL": os.environ.get("REPRO_EVENT_KERNEL"),
        "nproc": os.cpu_count(),
        "workload": plan.name,
        "seed": plan.seed,
        "sizes": plan.sizes,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plain_pass(args) -> tuple[dict, dict, Measurement]:
    plan, setups = setup_samples(args.workload, args.seed)
    measurement = measure(plan, args.seconds)
    if not measurement.repeats:
        raise SystemExit("no repeat of the plan completed")
    runs = [repeat.run_s for repeat in measurement.repeats]
    reruns = [statistics.fmean(repeat.rerun_s) for repeat in measurement.repeats]
    run_s = statistics.median(runs)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "rerun_s": statistics.median(reruns),
        "timeslots_per_s": measurement.repeats[0].timeslots / run_s,
        "peak_rss_mib": peak_rss_mib(),
    }
    samples = {
        "setup_s": setups,
        "run_s": runs,
        "rerun_s": reruns,
        "digests": sorted({repeat.digest for repeat in measurement.repeats}),
    }
    return values, {"stamp": stamp(plan, args), "samples": samples}, measurement


def traced_child_pass(args) -> None:
    """The traced pass proper: wrappers installed before set-up, one repeat."""
    import repro  # noqa: F401  (the wrappers patch the imported package)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    plan, _ = set_up(args.workload, args.seed)
    measurement = Measurement()
    repeat = run_repeat(plan, 0.0)
    measurement.add(plan, repeat)
    metrics = tracing.layer_metrics(tracer)
    metrics["store.bytes_written"] = repeat.bytes_written
    record = {
        "stamp": stamp(plan, args),
        "metrics": metrics,
        "spans": tracer.spans,
        "calls": tracer.calls,
        "counts": tracer.counts,
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "digest": repeat.digest,
        "run_s": repeat.run_s,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }))


def trace_pass(args) -> tuple[dict, dict, Measurement]:
    """An untraced repeat here, the traced one in a fresh process; compare them."""
    plan, _ = set_up(args.workload, args.seed)
    measurement = Measurement()
    untraced = run_repeat(plan, 0.0)
    measurement.add(plan, untraced)
    traced = child(["--workload", args.workload, "--seed", str(args.seed), "--traced-child"])
    measurement.attempted += traced["attempted"]
    # A traced digest that differs means the wrappers changed a result, so
    # every traced trial is wrong.
    same = traced["digest"] == untraced.digest
    measurement.failed += traced["failed"] if same else traced["attempted"]
    values = dict(traced["metrics"])
    values["trace.run_s"] = traced["run_s"]
    values["trace.overhead_s"] = traced["run_s"] - untraced.run_s
    values["failed_frac"] = measurement.failed / measurement.attempted
    extra = {
        "stamp": stamp(plan, args),
        "samples": {"untraced_run_s": untraced.run_s, "digests": [untraced.digest, traced["digest"]]},
    }
    return values, extra, measurement


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def result_line(values: dict, specs: list[dict], measurement: Measurement) -> dict:
    return {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
    }


def print_table(title: str, result: dict) -> None:
    """Every metric with its unit, then ``failed_frac`` with its counts."""
    print(title)
    for name, metric in result["metrics"].items():
        if name != "failed_frac":
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':34s} {failed_frac:>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} trials)")


def run_all(args, benchmark: dict) -> int:
    """Every workload in its own process; one combined table and result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in benchmark["workloads"]:
        name = workload["name"]
        result = child([
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        print_table(f"{name} (seed {args.seed}, trace {args.trace})", result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    isolate_environment()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args, benchmark)
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed)[1]}))
        return 0
    if args.traced_child:
        traced_child_pass(args)
        return 0
    if args.trace:
        values, extra, measurement = trace_pass(args)
        specs = benchmark["per_layer"]
    else:
        values, extra, measurement = plain_pass(args)
        specs = benchmark["end_to_end"]
    values.setdefault("failed_frac", measurement.failed / measurement.attempted)
    result = result_line(values, specs, measurement)
    record = {**extra, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print_table(f"{args.workload} (seed {args.seed}, trace {args.trace})", result)
    print("stamp " + json.dumps(extra["stamp"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
