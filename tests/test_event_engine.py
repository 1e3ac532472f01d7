"""The event-driven engine's contract: bit-identical, sparse, typed refusals.

Three layers of guarantees:

* **Equivalence matrix** — on small graphs the event engine reproduces the
  scalar engine's :class:`~repro.core.results.RunResult` *exactly* (every
  field, every trial) across both time models, PUSH/PULL/EXCHANGE, packet
  loss, pause- and reset-mode churn, heterogeneous activation rates, runs
  cut by ``max_rounds`` and both compute backends, and leaves the generator
  where the scalar engine leaves it, also when its draws cross many bulk
  draw blocks.
* **Hot-path conformance** — the single-problem ``combine_one`` /
  ``eliminate_one`` fast paths of both shipped eliminators, interleaved
  with every batch-side method, hold state identical to the batched
  ``eliminate`` reference on random traces, and ``reset_problems`` returns
  problems to a freshly-constructed state.
* **Typed refusals and dispatch** — unsupported protocol/engine pairings
  fail eagerly with :class:`~repro.errors.EngineError` /
  :class:`~repro.errors.ConfigurationError` (never a silent fallback), the
  ``engine`` axis never enters the result-store fingerprint, and every
  dispatch layer (``run_single``, ``measure``, chunked parallel workers)
  routes to the same bit-identical results.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend, use_backend
from repro.core import GossipAction, SimulationConfig, TimeModel
from repro.core.rng import derive_rng
from repro.errors import ConfigurationError, EngineError, SimulationError
from repro.gf import GF
from repro.gf.linalg import BatchEliminator
from repro.gossip import (
    EventGossipEngine,
    event_supports_config,
    event_supports_process,
    run_event_trials,
)
from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.spec import default_scenario_config

ASYNC = default_scenario_config(time_model=TimeModel.ASYNCHRONOUS)
SYNC = default_scenario_config()

#: name → ScenarioSpec kwargs: one entry per behavioural axis the event
#: engine claims to replay bit-identically.
EQUIVALENCE_CASES = {
    "sync-ring": dict(topology="ring", n=16, k=8, config=SYNC),
    "async-grid": dict(topology="grid", n=16, k=8, config=ASYNC),
    "async-loss": dict(
        topology="complete", n=16, k=8, config=ASYNC.replace(loss_probability=0.25)
    ),
    "sync-churn-pause": dict(
        topology="ring", n=16, k=8, config=SYNC.replace(churn=((3, 2, 10), (11, 6, 14)))
    ),
    "async-churn-pause": dict(
        topology="complete",
        n=16,
        k=8,
        config=ASYNC.replace(churn=tuple((node, 2, 12) for node in range(4))),
    ),
    "sync-churn-reset": dict(
        topology="ring", n=12, k=6, config=SYNC.replace(churn=((4, 3, 9),), churn_reset=True)
    ),
    "async-churn-reset": dict(
        topology="ring", n=12, k=6, config=ASYNC.replace(churn=((4, 3, 9),), churn_reset=True)
    ),
    "async-two-speed": dict(
        topology="ring",
        n=16,
        k=8,
        config=ASYNC,
        activation={"kind": "two_speed", "ratio": 4.0, "fast_fraction": 0.5},
    ),
    "async-push": dict(
        topology="grid", n=16, k=8, config=ASYNC.replace(action=GossipAction.PUSH)
    ),
    "async-pull": dict(
        topology="grid", n=16, k=8, config=ASYNC.replace(action=GossipAction.PULL)
    ),
    "gf2bit-er-logn": dict(
        topology="erdos_renyi_logn",
        n=32,
        k=8,
        backend="gf2bit",
        config=ASYNC.replace(field_size=2),
    ),
    "gf2bit-churn-reset": dict(
        topology="ring",
        n=12,
        k=6,
        backend="gf2bit",
        config=ASYNC.replace(field_size=2, churn=((4, 3, 9),), churn_reset=True),
    ),
    # Leaves make degree-1 partner picks, which draw nothing.
    "gf2bit-line": dict(
        topology="line", n=16, k=8, backend="gf2bit", config=ASYNC.replace(field_size=2)
    ),
    "gf2bit-binary-tree": dict(
        topology="binary_tree",
        n=16,
        k=8,
        backend="gf2bit",
        config=ASYNC.replace(field_size=2),
    ),
    "gf2bit-async-push": dict(
        topology="grid",
        n=16,
        k=8,
        backend="gf2bit",
        config=ASYNC.replace(field_size=2, action=GossipAction.PUSH),
    ),
    "gf2bit-async-pull": dict(
        topology="grid",
        n=16,
        k=8,
        backend="gf2bit",
        config=ASYNC.replace(field_size=2, action=GossipAction.PULL),
    ),
    "gf2bit-async-exchange": dict(
        topology="complete",
        n=16,
        k=8,
        backend="gf2bit",
        config=ASYNC.replace(field_size=2, action=GossipAction.EXCHANGE),
    ),
    "gf2bit-sync": dict(
        topology="ring", n=16, k=8, backend="gf2bit", config=SYNC.replace(field_size=2)
    ),
    # Cut by max_rounds mid-trial.
    "gf2bit-truncated-async": dict(
        topology="erdos_renyi_logn",
        n=32,
        k=8,
        backend="gf2bit",
        config=ASYNC.replace(field_size=2, max_rounds=2, allow_incomplete=True),
    ),
    "gf2bit-truncated-sync": dict(
        topology="erdos_renyi_logn",
        n=32,
        k=8,
        backend="gf2bit",
        config=SYNC.replace(field_size=2, max_rounds=2, allow_incomplete=True),
    ),
}

#: Registered scenarios the event engine can run (uniform protocol only).
EVENT_CAPABLE_SCENARIOS = (
    "uniform/line",
    "uniform/ring",
    "uniform/grid",
    "uniform/complete",
    "uniform/binary_tree",
    "uniform/barbell",
    "churn/ring-crash-restart",
    "churn/async-complete-blackout",
    "churn/ring-reset",
    "hetero/two-speed-ring",
    "hetero/degree-star",
    "hetero/churned-two-speed-complete",
    "robustness/lossy-grid",
)


def _spec(**kwargs) -> ScenarioSpec:
    return ScenarioSpec(name="event-test", description="event-test", **kwargs)


def _measure(spec: ScenarioSpec, engine: str, trials: int = 3, **kwargs):
    return list(
        spec.replace(engine=engine).materialize().measure(trials=trials, **kwargs)
    )


# ----------------------------------------------------------------------
# Equivalence matrix: event == scalar, field for field
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES), ids=str)
def test_event_engine_matches_scalar_bit_identically(case):
    spec = _spec(trials=3, seed=20260808, **EQUIVALENCE_CASES[case])
    assert _measure(spec, "scalar") == _measure(spec, "event")


def test_event_engine_matches_scalar_on_every_backend(compute_backend):
    """The ambient backend never changes the event engine's results."""
    spec = _spec(
        topology="grid", n=16, k=8, trials=2, seed=7, config=ASYNC.replace(field_size=2)
    )
    assert _measure(spec, "scalar") == _measure(spec, "event")


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(EVENT_CAPABLE_SCENARIOS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_event_engine_stopping_times_match_on_registry_scenarios(name, seed):
    """Trial-for-trial RunResult equality on registered scenarios ⇒ the
    stopping-time distributions of the engine families coincide exactly."""
    spec = get_scenario(name).replace(seed=seed)
    assert _measure(spec, "scalar", trials=2) == _measure(spec, "event", trials=2)


def test_event_engine_direct_construction_matches_scalar():
    """Engine-level (not spec-level) equivalence, sharing one derived rng."""
    from repro.gossip import GossipEngine

    spec = _spec(topology="binary_tree", n=16, k=8, trials=1, seed=3, config=ASYNC)
    materialized = spec.materialize()
    results = []
    for engine_cls in (GossipEngine, EventGossipEngine):
        rng = derive_rng(3, "trial-0")
        process = materialized.build_process(rng)
        results.append(engine_cls(materialized.graph, process, spec.config, rng).run())
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "case", ["gf2bit-er-logn", "gf2bit-sync", "async-grid", "sync-ring"], ids=str
)
def test_event_engine_matches_scalar_across_draw_blocks(case, monkeypatch):
    """Tiny draw blocks make every trial cross many block boundaries."""
    from repro.core import rng as rng_module
    from repro.core.rng import BulkDraws

    refills = []
    refill = BulkDraws._refill
    monkeypatch.setattr(rng_module, "DRAW_BLOCK", 5)
    monkeypatch.setattr(
        BulkDraws, "_refill", lambda draws: (refills.append(1), refill(draws))
    )
    spec = _spec(trials=3, seed=20260808, **EQUIVALENCE_CASES[case])
    assert _measure(spec, "scalar") == _measure(spec, "event")
    assert len(refills) > 3 * 10


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES), ids=str)
def test_event_engine_leaves_the_generator_where_scalar_does(case):
    """Engine-level: same result, then the same next draws from the generator."""
    from repro.gossip import GossipEngine

    spec = _spec(trials=1, seed=4, **EQUIVALENCE_CASES[case])
    outcomes = []
    with use_backend(spec.backend or "numpy"):
        materialized = spec.materialize()
        for engine_cls in (GossipEngine, EventGossipEngine):
            rng = derive_rng(4, "trial-0")
            process = materialized.build_process(rng)
            result = engine_cls(materialized.graph, process, spec.config, rng).run()
            outcomes.append((result, int(rng.integers(0, 2**32)), rng.random()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].completed != spec.config.allow_incomplete


def test_event_engine_timeout_matches_scalar():
    """Hitting max_rounds reports the same incomplete result as the scalar."""
    config = ASYNC.replace(max_rounds=3, allow_incomplete=True)
    spec = _spec(topology="ring", n=16, k=8, trials=2, seed=11, config=config)
    scalar, event = _measure(spec, "scalar"), _measure(spec, "event")
    assert scalar == event
    assert not scalar[0].completed


# ----------------------------------------------------------------------
# Typed refusals: no silent fallback anywhere
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_engine():
    with pytest.raises(ConfigurationError, match="unknown engine"):
        _spec(topology="ring", n=8, k=4, engine="warp")


def test_spec_rejects_batch_engine_with_reset_churn():
    with pytest.raises(ConfigurationError, match="reset-mode churn"):
        _spec(
            topology="ring",
            n=12,
            k=6,
            engine="batch",
            config=SYNC.replace(churn=((4, 3, 9),), churn_reset=True),
        )


def test_spec_rejects_event_engine_for_tag():
    with pytest.raises(ConfigurationError, match="uniform algebraic gossip"):
        _spec(
            topology="barbell",
            n=16,
            protocol="tag",
            spanning_tree="brr",
            engine="event",
            config=SYNC,
        )


def test_event_engine_rejects_non_rank_only_process():
    """Direct construction with an unsupported protocol is a typed error."""
    spec = _spec(
        topology="barbell", n=16, protocol="tag", spanning_tree="brr", config=SYNC
    )
    materialized = spec.materialize()
    rng = derive_rng(0, "trial-0")
    process = materialized.build_process(rng)
    assert not event_supports_process(process)
    with pytest.raises(EngineError, match="event-driven"):
        EventGossipEngine(materialized.graph, process, spec.config, rng)


def test_event_supports_config_covers_every_axis():
    assert event_supports_config(SYNC.replace(churn=((1, 2, 3),), churn_reset=True))
    assert event_supports_config(ASYNC.replace(loss_probability=0.5))


def test_run_event_trials_checks_lengths():
    spec = _spec(topology="ring", n=8, k=4, trials=1, seed=5, config=SYNC)
    materialized = spec.materialize()
    rng = derive_rng(5, "trial-0")
    process = materialized.build_process(rng)
    with pytest.raises(SimulationError, match="generators"):
        run_event_trials(materialized.graph, [process], spec.config, [rng, rng])


# ----------------------------------------------------------------------
# Fingerprint and dispatch plumbing
# ----------------------------------------------------------------------
def test_engine_axis_never_enters_the_fingerprint():
    base = _spec(topology="grid", n=16, k=8, config=ASYNC)
    prints = {base.replace(engine=e).fingerprint() for e in ("", "scalar", "batch", "event")}
    assert len(prints) == 1


def test_run_single_dispatches_to_event_engine():
    spec = _spec(topology="grid", n=16, k=8, trials=1, seed=21, config=ASYNC)
    scalar = spec.replace(engine="scalar").materialize().run_single()
    event = spec.replace(engine="event").materialize().run_single()
    assert scalar == event


def test_parallel_chunked_dispatch_matches_inline():
    """Worker processes pick the event engine up from the pickled spec."""
    spec = _spec(topology="grid", n=16, k=8, trials=4, seed=13, config=ASYNC)
    inline = _measure(spec, "event", trials=4, jobs=1)
    chunked = _measure(spec, "event", trials=4, jobs=2)
    assert inline == chunked


def test_store_records_are_engine_invariant(tmp_path):
    """A store filled by the scalar engine fully serves an event-engine rerun."""
    from repro.store import ResultStore

    spec = _spec(topology="ring", n=16, k=8, trials=3, seed=17, config=ASYNC)
    store = ResultStore(tmp_path / "store")
    scalar = _measure(spec, "scalar", store=store)
    before = store.puts
    event = _measure(spec, "event", store=store)
    assert scalar == event
    assert store.puts == before  # full cache hit: nothing recomputed


# ----------------------------------------------------------------------
# Single-problem hot paths: conformance with the batched reference
# ----------------------------------------------------------------------
def _random_payload(field, rng, columns):
    return field.random_elements(rng, columns)


@pytest.mark.parametrize("columns,augmented", [(8, 0), (12, 4), (70, 0)])
def test_single_problem_fast_paths_match_bulk_eliminate(
    compute_backend, backend_field, columns, augmented
):
    """combine_one/eliminate_one interleaved with every batch-side method.

    The state must match a reference fed through ``eliminate`` only, after
    every step.  It is read from a deep copy, so the check itself never
    brings the eliminator's arrays up to date behind the next step's back.
    """
    field = backend_field
    batch = 4
    fast = compute_backend.make_eliminator(
        field, batch, columns, augmented_columns=augmented
    )
    reference = BatchEliminator(field, batch, columns, augmented_columns=augmented)
    rng = np.random.default_rng(99)
    for step in range(200):
        index = int(rng.integers(0, batch))
        one = np.array([index])
        draw = np.random.default_rng(1000 + step)
        rank = int(reference.ranks[index])
        op = ("encode", "deliver", "eliminate", "basis", "combine", "reset")[
            int(rng.choice(6, p=[0.25, 0.3, 0.15, 0.1, 0.1, 0.1]))
        ]
        if op in ("encode", "combine") and rank == 0:
            op = "deliver"
        if op == "encode":
            coefficients = field.random_elements(draw, rank)
            payload = fast.combine_one(index, coefficients)
            dense = reference.combine(index, coefficients)
            expected = bool(reference.eliminate(dense[np.newaxis, :], one)[0])
            assert fast.eliminate_one(index, payload) == expected
        elif op == "deliver":
            row = _random_payload(field, draw, columns)
            expected = bool(reference.eliminate(row[np.newaxis, :], one)[0])
            assert fast.eliminate_one(index, _as_native(fast, row)) == expected
        elif op == "eliminate":
            indices = rng.permutation(batch)[: int(rng.integers(1, batch + 1))]
            rows = field.random_elements(draw, (indices.size, columns))
            helpful = fast.eliminate(rows, indices)
            assert np.array_equal(helpful, reference.eliminate(rows, indices))
        elif op == "basis":
            assert np.array_equal(fast.basis(index), reference.basis(index))
        elif op == "combine":
            coefficients = field.random_elements(draw, rank)
            assert np.array_equal(
                fast.combine(index, coefficients), reference.combine(index, coefficients)
            )
        else:
            fast.reset_problems(one)
            reference.reset_problems(one)
        snapshot = copy.deepcopy(fast)
        assert np.array_equal(snapshot.ranks, reference.ranks)
        assert np.array_equal(snapshot.pivot_mask, reference.pivot_mask)
        for problem in range(batch):
            assert np.array_equal(snapshot.basis(problem), reference.basis(problem))


def _as_native(eliminator, row):
    """A dense row in the payload form ``eliminate_one`` expects."""
    from repro.backends.gf2bit import PackedGf2Eliminator

    if isinstance(eliminator, PackedGf2Eliminator):
        packed = np.packbits(row.astype(np.uint8), bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")
    return row


def test_packed_combine_one_takes_coefficient_masks():
    """Bit j of a mask is the coefficient of the j-th pivot; wider masks refuse."""
    from repro.backends.gf2bit import PackedGf2Eliminator
    from repro.errors import FieldError

    field = GF(2)
    eliminator = PackedGf2Eliminator(field, 2, 70)
    rng = np.random.default_rng(12)
    for _ in range(40):
        eliminator.eliminate(field.random_elements(rng, (1, 70)), np.array([1]))
    rank = eliminator.rank_of(1)
    for _ in range(20):
        coefficients = field.random_elements(rng, rank)
        mask = sum(int(bit) << j for j, bit in enumerate(coefficients))
        assert eliminator.combine_one(1, mask) == eliminator.combine_one(1, coefficients)
    with pytest.raises(FieldError, match="exceeds"):
        eliminator.combine_one(1, 1 << rank)


def test_reset_problems_restores_fresh_state(compute_backend, backend_field):
    """A reset problem is indistinguishable from a freshly constructed one."""
    field = backend_field
    eliminator = compute_backend.make_eliminator(field, 3, 8)
    fresh = compute_backend.make_eliminator(field, 3, 8)
    rng = np.random.default_rng(5)
    for _ in range(6):
        rows = field.random_elements(rng, (3, 8))
        eliminator.eliminate(rows)
    eliminator.reset_problems(np.array([0, 2]))
    replay_rng = np.random.default_rng(5)
    history = [field.random_elements(replay_rng, (3, 8)) for _ in range(6)]
    for rows in history:
        fresh.eliminate(rows[1:2], np.array([1]))
    assert eliminator.rank_of(0) == 0 and eliminator.rank_of(2) == 0
    assert eliminator.basis(0).shape[0] == 0
    assert eliminator.rank_of(1) == fresh.rank_of(1)
    assert np.array_equal(eliminator.basis(1), fresh.basis(1))
    # A wiped problem accepts the same rows a fresh eliminator would.
    probe = field.random_elements(np.random.default_rng(8), (1, 8))
    assert bool(eliminator.eliminate(probe, np.array([0]))[0])


def test_base_eliminator_default_refuses_reset():
    from repro.backends import EliminatorState
    from repro.errors import BackendError

    class Stub(EliminatorState):
        def eliminate(self, incoming, indices=None):  # pragma: no cover
            raise NotImplementedError

        def rank_of(self, index):  # pragma: no cover
            raise NotImplementedError

        def basis(self, index):  # pragma: no cover
            raise NotImplementedError

        def combine(self, index, coefficients):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(BackendError, match="does not support resetting"):
        Stub().reset_problems(np.array([0]))
