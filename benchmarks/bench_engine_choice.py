#!/usr/bin/env python
"""E15 — the batch/event crossover behind the auto engine choice.

:func:`repro.experiments.parallel.choose_engine` sends rank-only uniform
algebraic gossip on the gf2bit backend to the event engine when the model is
asynchronous or ``k <= EVENT_SYNC_MAX_K``, and keeps the lockstep batch
engine otherwise (and on numpy).  This script times both engines on each
configuration of the crossover table, checks that they return equal
``RunResult`` lists, and writes ``benchmarks/output/BENCH_E15-engine-choice.json``
(plus the readable ``E15-engine-choice.txt``) so the constant can be refitted
from data::

    python benchmarks/bench_engine_choice.py

It takes a few minutes on a 2-core host, most of it in the batch engine on
the asynchronous ``grid n=k=256`` row.  Timings are single cold runs on a
shared host, so ``check_regression.py`` floors only the record's presence
and schema, never its ratios.
"""

from __future__ import annotations

import sys
import time

from _utils import report, report_json
from repro.core import TimeModel
from repro.experiments.parallel import EVENT_SYNC_MAX_K, choose_engine
from repro.scenarios import ScenarioSpec
from repro.scenarios.spec import default_scenario_config

SEED = 1517

ASYNC2 = default_scenario_config(time_model=TimeModel.ASYNCHRONOUS, field_size=2)
SYNC2 = default_scenario_config(field_size=2)
#: Pause-mode churn for the grid rows: a quarter of the 64 nodes is down for
#: timeslots 5..40.
PAUSE = tuple((node, 5, 40) for node in range(0, 64, 4))


def _gf2(label, topology, n, k, config, trials, **extra):
    return label, dict(
        topology=topology, n=n, k=k, config=config, trials=trials,
        backend="gf2bit", **extra,
    )


#: ``(label, ScenarioSpec kwargs)`` per row of the crossover table.
ROWS = (
    _gf2("complete n=128 k=16 async", "complete", 128, 16, ASYNC2, 8),
    _gf2("complete n=128 k=16 sync", "complete", 128, 16, SYNC2, 8),
    _gf2("grid n=64 k=8 async", "grid", 64, 8, ASYNC2, 8),
    _gf2("grid n=64 k=8 sync", "grid", 64, 8, SYNC2, 8),
    _gf2("complete n=16 k=8 async", "complete", 16, 8, ASYNC2, 20),
    _gf2("line n=16 k=8 async", "line", 16, 8, ASYNC2, 20),
    _gf2("complete n=16 k=8 sync", "complete", 16, 8, SYNC2, 20),
    _gf2("line n=16 k=8 sync", "line", 16, 8, SYNC2, 20),
    _gf2("grid n=64 k=16 async loss=0.2", "grid", 64, 16,
         ASYNC2.replace(loss_probability=0.2), 8),
    _gf2("grid n=64 k=16 async pause churn", "grid", 64, 16,
         ASYNC2.replace(churn=PAUSE), 8),
    _gf2("grid n=64 k=16 async two-speed rates", "grid", 64, 16, ASYNC2, 8,
         activation={"kind": "two_speed", "ratio": 4.0, "fast_fraction": 0.5}),
    _gf2("complete n=128 k=64 sync", "complete", 128, 64, SYNC2, 4),
    _gf2("grid n=256 k=64 sync", "grid", 256, 64, SYNC2, 4),
    _gf2("ring n=64 k=64 sync", "ring", 64, 64, SYNC2, 4),
    _gf2("complete n=128 k=128 sync", "complete", 128, 128, SYNC2, 2),
    _gf2("grid n=256 k=128 sync", "grid", 256, 128, SYNC2, 2),
    _gf2("grid n=k=256 sync", "grid", 256, 256, SYNC2, 1),
    _gf2("grid n=k=256 async", "grid", 256, 256, ASYNC2, 1),
    *(
        (f"numpy GF(16) {topology} n=16 sync", dict(
            topology=topology, n=16, trials=20, backend="numpy",
            config=default_scenario_config(),
        ))
        for topology in ("ring", "grid", "complete")
    ),
)


def _time(spec: ScenarioSpec, engine: str):
    scenario = spec.replace(engine=engine).materialize()
    start = time.perf_counter()
    results = scenario.measure()
    return time.perf_counter() - start, results


def main() -> int:
    rows = []
    timings = {}
    for label, kwargs in ROWS:
        spec = ScenarioSpec(name=label, description=label, seed=SEED, **kwargs)
        scenario = spec.materialize()
        auto = choose_engine(
            scenario.graph, scenario.protocol_factory, scenario.config,
            backend=spec.backend,
        )
        batch_s, batch_results = _time(spec, "batch")
        event_s, event_results = _time(spec, "event")
        if batch_results != event_results:
            print(f"error: engines diverged on {label}", file=sys.stderr)
            return 1
        timings[f"{label} batch"] = batch_s
        timings[f"{label} event"] = event_s
        rows.append({
            "config": label,
            "backend": spec.backend,
            "field_size": spec.config.field_size,
            "time_model": spec.config.time_model.value,
            "n": scenario.n,
            "k": scenario.k,
            "trials": spec.trials,
            "batch_s": round(batch_s, 4),
            "event_s": round(event_s, 4),
            "batch_over_event": round(batch_s / event_s, 3),
            "identical": True,
            "auto": auto,
        })
        print(f"{label}: batch {batch_s:.3f} s, event {event_s:.3f} s, auto={auto}",
              flush=True)
    report(
        "E15-engine-choice",
        "Batch vs event engine per configuration (batch s / event s; auto = "
        "the engine choose_engine picks)",
        [
            {key: row[key] for key in
             ("config", "trials", "batch_s", "event_s", "batch_over_event", "auto")}
            for row in rows
        ],
        notes=[
            "Both engines returned equal RunResult lists on every row.",
            f"EVENT_SYNC_MAX_K = {EVENT_SYNC_MAX_K}: synchronous gf2bit runs "
            "with a larger k stay on the batch engine.",
        ],
    )
    headline = rows[0]
    report_json(
        "E15-engine-choice",
        timings=timings,
        speedup=headline["batch_over_event"],
        n=headline["n"],
        trials=headline["trials"],
        seed=SEED,
        event_sync_max_k=EVENT_SYNC_MAX_K,
        rows=rows,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
