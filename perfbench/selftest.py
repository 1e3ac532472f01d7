#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and of the traced pass.

Run from the repository root (about half a minute)::

    python3 perfbench/selftest.py

It shows that

1. a deliberately corrupted trial result is counted as failed, not passed:
   a changed stopping time breaks the pinned digest at the default seed, and
   a short helpful count or an incomplete trial fails on any seed;
2. the traced and untraced runs of one plan agree on the digest, so the
   timing wrappers never perturb a random stream;
3. the benchmark refuses to run, printing no result, in a directory that
   holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer as tracing
import workloads

WORKLOAD = "auto-complete-gf2"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def corrupted(output, index: int, **changes):
    """``output`` with trial ``index`` replaced by a modified copy."""
    trials = list(output.trials)
    label, result = trials[index]
    trials[index] = (label, dataclasses.replace(result, **changes))
    return dataclasses.replace(output, trials=trials)


def cold_run(plan):
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        return plan.execute(Path(tmp) / "store")


def main() -> int:
    run.isolate_environment()
    run.OUT.mkdir(exist_ok=True)
    plan, _ = run.set_up(WORKLOAD, workloads.DEFAULT_SEED)
    cold = cold_run(plan)
    check(run.check_cold(plan, cold) == set(), "the untouched plan passes every check")

    _, result = cold.trials[3]
    slower = corrupted(cold, 3, timeslots=result.timeslots + 1)
    check(workloads.failed_labels(plan, slower) == set(),
          "a changed stopping time passes the per-trial checks")
    check(run.failed_count(plan, run.check_cold(plan, slower)) == plan.trial_count,
          "... but breaks the pinned digest, failing the whole plan")
    short = corrupted(cold, 5, helpful_messages=result.helpful_messages - 1)
    check(workloads.failed_labels(plan, short) == {"trial-5"},
          "a helpful count off the rank deficit fails its trial on any seed")
    stuck = corrupted(cold, 7, completed=False)
    check(workloads.failed_labels(plan, stuck) == {"trial-7"},
          "an incomplete trial fails on any seed")
    warm = corrupted(cold, 0, messages_sent=result.messages_sent + 2)
    check(run.check_warm(plan, warm, cold, warm.report) != set(),
          "a rerun that disagrees with the cold run fails")

    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = cold_run(plan)
    check(tracer.counts.get("gossip.timeslots", 0) > 0, "the wrappers recorded the traced run")
    check(workloads.digest(traced) == workloads.digest(cold),
          "traced and untraced runs agree on the digest")

    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        refused = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    check(refused.returncode != 0 and "{" not in refused.stdout,
          "without the program the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
