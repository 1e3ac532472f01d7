#!/usr/bin/env python
"""Fail if the latest committed batch speedups drop below their floors.

Reads every machine-readable perf record ``benchmarks/output/BENCH_*.json``
(written by full-size ``make bench-json`` runs and committed to the
repository) and checks the recorded ``speedup`` against the record's own
asserted floor (``min_speedup``, default 5.0).  Run it standalone or via
``make bench-check``::

    python benchmarks/check_regression.py

The engine-choice crossover record (``BENCH_E15-engine-choice.json``,
written by ``bench_engine_choice.py``) is the exception: its ratios are the
data the auto engine choice is fitted from, not floors, so only its presence
and schema are checked.

Exit code 0 when every record holds, 1 on any regression or when no records
exist (an empty perf trajectory is itself a regression).

With ``--store`` the script instead reads a persistent result store — an
export file written by ``python -m repro store export``, or a store
directory — and prints the stopping-time aggregate of every archived
workload, so a CI artifact or a colleague's exported snapshot can be
inspected without re-running any simulation::

    python benchmarks/check_regression.py --store snapshot.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

OUTPUT_DIR = Path(__file__).resolve().parent / "output"
DEFAULT_FLOOR = 5.0

#: The crossover record and the fields each of its rows must carry.
CROSSOVER_RECORD = "BENCH_E15-engine-choice.json"
CROSSOVER_ROW_FIELDS = {
    "config": str, "backend": str, "field_size": int, "time_model": str,
    "n": int, "k": int, "trials": int, "batch_s": float, "event_s": float,
    "batch_over_event": float, "identical": bool, "auto": str,
}


def crossover_problems(record: dict) -> list[str]:
    """Schema violations of the crossover record (empty when it is sound)."""
    problems = []
    if not isinstance(record.get("event_sync_max_k"), int):
        problems.append("event_sync_max_k missing or not an integer")
    rows = record.get("rows")
    if not isinstance(rows, list) or not rows:
        return problems + ["rows missing or empty"]
    for index, row in enumerate(rows):
        for name, kind in CROSSOVER_ROW_FIELDS.items():
            value = row.get(name) if isinstance(row, dict) else None
            if not isinstance(value, kind):
                problems.append(f"row {index}: {name} missing or not {kind.__name__}")
        if isinstance(row, dict):
            if row.get("identical") is not True:
                problems.append(f"row {index}: engines did not return equal results")
            if row.get("auto") not in ("event", "batch", "scalar"):
                problems.append(f"row {index}: auto is not an engine family")
    return problems


def store_aggregates(path: Path) -> int:
    """Print per-workload stopping-time aggregates from a store/export."""
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    from repro.errors import ReproError, StoreError
    from repro.scenarios import ScenarioSpec
    from repro.store import load_snapshot

    try:
        snapshot = load_snapshot(path)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if not snapshot.results:
        print(f"error: no result records in {path}", file=sys.stderr)
        return 1
    for fingerprint in sorted(snapshot.results):
        bucket = snapshot.results[fingerprint]
        # Rebuild the spec so defaulted (omitted) fields print their real
        # values; headers from an incompatible schema get a placeholder.
        try:
            spec = ScenarioSpec.from_dict(snapshot.specs[fingerprint])
            label = spec.name or f"{spec.protocol} on {spec.topology}(n={spec.n})"
        except (KeyError, ReproError):
            label = "(unknown workload)"
        # Tolerate schema-divergent payloads (e.g. exports from another
        # version): records without the expected fields count as incomplete
        # rather than crashing the report.
        rounds = [
            record["rounds"]
            for record in bucket.values()
            if record.get("completed") and isinstance(record.get("rounds"), (int, float))
        ]
        incomplete = len(bucket) - len(rounds)
        summary = (
            f"mean={statistics.fmean(rounds):.1f}, max={max(rounds)}"
            if rounds
            else "no completed trials"
        )
        print(
            f"{fingerprint[:12]}  {label}: {len(bucket)} trial record(s), {summary}"
            + (f" ({incomplete} incomplete)" if incomplete else "")
        )
    print(f"{snapshot.trial_count} trial record(s) across {len(snapshot.results)} workload(s)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help=(
            "read aggregates from a result-store export file (or store "
            "directory) instead of checking perf records"
        ),
    )
    args = parser.parse_args()
    if args.store is not None:
        return store_aggregates(args.store)
    records = sorted(OUTPUT_DIR.glob("BENCH_*.json"))
    if not records:
        print(f"error: no BENCH_*.json records under {OUTPUT_DIR}", file=sys.stderr)
        return 1
    failures = 0
    if CROSSOVER_RECORD not in {path.name for path in records}:
        print(f"{CROSSOVER_RECORD}: missing FAIL")
        failures += 1
    for path in records:
        if path.name == CROSSOVER_RECORD:
            try:
                problems = crossover_problems(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, ValueError, AttributeError) as error:
                problems = [f"unreadable record ({type(error).__name__}: {error})"]
            for problem in problems:
                print(f"{path.name}: {problem} FAIL")
            print(f"{path.name}: schema {'FAIL' if problems else 'ok'}")
            failures += bool(problems)
            continue
        # A broken record is itself a failure to report, not a crash: keep
        # checking the remaining records so the output isolates the bad file.
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            speedup = float(record["speedup"])
            floor = float(record.get("min_speedup", DEFAULT_FLOOR))
            # Optional per-metric floors: {"metric": min_value, ...} checked
            # against the record's own top-level fields.
            extra_floors = {
                str(metric): float(minimum)
                for metric, minimum in dict(record.get("floors", {})).items()
            }
            extra_values = {
                metric: float(record[metric]) for metric in extra_floors
            }
        except Exception as error:  # noqa: BLE001
            print(f"{path.name}: unreadable record ({type(error).__name__}: {error}) FAIL")
            failures += 1
            continue
        ok = speedup >= floor
        status = "ok" if ok else "REGRESSION"
        print(
            f"{path.name}: speedup {speedup:.2f}x (floor {floor:.1f}x, "
            f"n={record.get('n')}, trials={record.get('trials')}, "
            f"rev={str(record.get('git_rev'))[:12]}) {status}"
        )
        failures += not ok
        for metric, minimum in sorted(extra_floors.items()):
            value = extra_values[metric]
            metric_ok = value >= minimum
            print(
                f"{path.name}: {metric} {value:.2f} (floor {minimum:.1f}) "
                f"{'ok' if metric_ok else 'REGRESSION'}"
            )
            failures += not metric_ok
    if failures:
        print(f"error: {failures} perf record(s) below their floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
