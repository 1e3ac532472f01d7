"""E11 — the gf2bit compute backend: word-packed XOR vs dense numpy GF(2).

The paper's base protocol is algebraic gossip over ``GF(2)`` (Theorem 1 is
stated for ``q >= 2``), and all-to-all dissemination on the complete graph is
its canonical workload.  This benchmark runs exactly that — ``k = n``
messages, synchronous EXCHANGE, ``n = 128`` — through the vectorised batch
engine twice: once on the dense ``numpy`` backend and once on the
bit-packed ``gf2bit`` backend (rows packed into uint64 words, word-parallel
XOR elimination; see ``repro/backends/gf2bit.py``).

The assertions are the backend contract end-to-end:

* both runs are **bit-identical** — same seeds give the same per-trial
  stopping times, message/helpful counts and completion rounds (the same
  contract ``tests/test_backend_conformance.py`` enforces kernel-by-kernel);
* the packed backend is at least **5x faster** at ``n = 128`` in GF(2) mode,
  where elimination and encoding dominate the round loop.

Scale knobs (for smoke runs): ``REPRO_BENCH_GF2_N``,
``REPRO_BENCH_GF2_TRIALS`` and ``REPRO_BENCH_GF2_MIN_SPEEDUP`` shrink the
workload / floor without changing the equivalence checks.
"""

from __future__ import annotations

import os
import time

from _utils import PEDANTIC, record_trials, report, report_json, trial_signature
from repro.experiments.parallel import measure_protocol_batched
from repro.scenarios import ScenarioSpec, default_scenario_config

N = int(os.environ.get("REPRO_BENCH_GF2_N", "128"))
TRIALS = int(os.environ.get("REPRO_BENCH_GF2_TRIALS", "8"))
SEED = 1109
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_GF2_MIN_SPEEDUP", "5.0"))
SCALED_DOWN = (N, TRIALS, MIN_SPEEDUP) != (128, 8, 5.0)

#: All-to-all algebraic gossip over GF(2): k = n source messages on the
#: complete graph.  ``backend`` is deliberately left to the per-run replace()
#: below — the fingerprint (and therefore the archived trials) is the same
#: for both runs, which is the store-invariance half of the backend contract.
#: The engine is pinned: auto-selection would move the gf2bit run (only) to
#: the event engine, and this benchmark compares backends, not engines.
SPEC = ScenarioSpec(
    topology="complete",
    n=N,
    k=N,
    engine="batch",
    config=default_scenario_config(max_rounds=50_000, field_size=2),
    trials=TRIALS,
    seed=SEED,
)


def _run():
    timings = {}
    results = {}
    for backend in ("numpy", "gf2bit"):
        spec = SPEC.replace(backend=backend)
        start = time.perf_counter()
        results[backend] = measure_protocol_batched(spec)
        timings[backend] = time.perf_counter() - start

    assert trial_signature(results["gf2bit"]) == trial_signature(
        results["numpy"]
    ), "gf2bit backend diverged from the numpy reference"

    record_trials(SPEC, results["gf2bit"])

    base = timings["numpy"]
    rounds = [r.rounds for r in results["numpy"]]
    return [
        {
            "backend": backend,
            "seconds": round(seconds, 2),
            "speedup": round(base / seconds, 2),
            "mean_rounds": round(sum(rounds) / len(rounds), 2),
        }
        for backend, seconds in timings.items()
    ]


def test_gf2_backend_speedup(benchmark):
    rows = benchmark.pedantic(_run, **PEDANTIC)
    report(
        "E11-gf2-backend",
        f"GF(2) compute backends — uniform AG on complete(n={N}), k={N}, "
        f"{TRIALS} trials, synchronous EXCHANGE, batch engine",
        rows,
        notes=[
            "Both backends are bit-identical (asserted): same seeds give the "
            "same per-trial stopping times, message counts and completion "
            "rounds, so the result-store cache is backend-invariant.",
            f"The gf2bit backend must be at least {MIN_SPEEDUP:.0f}x faster "
            "than the dense numpy reference on this workload.",
        ],
    )
    packed_row = next(row for row in rows if row["backend"] == "gf2bit")
    report_json(
        "E11-gf2-backend",
        timings={row["backend"]: row["seconds"] for row in rows},
        speedup=packed_row["speedup"],
        n=N,
        trials=TRIALS,
        scaled_down=SCALED_DOWN,
        k=N,
        seed=SEED,
        min_speedup=MIN_SPEEDUP,
        protocol="uniform-ag",
        topology="complete",
        field_size=2,
    )
    assert packed_row["speedup"] >= MIN_SPEEDUP
