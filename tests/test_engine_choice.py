"""Auto engine choice: which engine family runs, and that it never matters.

:func:`repro.experiments.parallel.choose_engine` picks the event engine for
rank-only uniform algebraic gossip on the gf2bit backend (asynchronous, or
synchronous with ``k <= EVENT_SYNC_MAX_K``) and keeps the older "batch when
eligible" rule everywhere else.  Every case below spies on the engine entry
points to pin *which* family ran, asserts the per-seed results equal the
scalar engine's, and checks that the decision derived no trial generator.
"""

from __future__ import annotations

import pickle

import pytest

import repro.experiments.parallel as parallel
import repro.gossip.batch as batch_module
import repro.gossip.batch_tag as batch_tag_module
import repro.scenarios.spec as spec_module
from repro.core import TimeModel
from repro.core.rng import derive_rng
from repro.gossip import EventGossipEngine, GossipEngine
from repro.scenarios import ScenarioSpec
from repro.scenarios.spec import default_scenario_config

ASYNC2 = default_scenario_config(time_model=TimeModel.ASYNCHRONOUS, field_size=2)
SYNC2 = default_scenario_config(field_size=2)


def _spec(**kwargs) -> ScenarioSpec:
    kwargs.setdefault("trials", 3)
    kwargs.setdefault("seed", 20261017)
    return ScenarioSpec(name="choice-test", description="choice-test", **kwargs)


@pytest.fixture
def ran(monkeypatch):
    """Engine families run, in call order (one entry per engine call)."""
    calls: list[str] = []

    def spy(family, original):
        def wrapped(*args, **kwargs):
            calls.append(family)
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(EventGossipEngine, "run", spy("event", EventGossipEngine.run))
    monkeypatch.setattr(GossipEngine, "run", spy("scalar", GossipEngine.run))
    monkeypatch.setattr(
        batch_module, "run_rank_only_batch", spy("batch", batch_module.run_rank_only_batch)
    )
    monkeypatch.setattr(
        batch_tag_module, "run_tag_batch", spy("batch", batch_tag_module.run_tag_batch)
    )
    return calls


@pytest.fixture
def derived(monkeypatch):
    """Labels of every generator derived by the runners, in call order."""
    labels: list[str] = []

    def recording(seed, label):
        labels.append(label)
        return derive_rng(seed, label)

    monkeypatch.setattr(parallel, "derive_rng", recording)
    monkeypatch.setattr(spec_module, "derive_rng", recording)
    return labels


_SCALAR: dict[str, list] = {}


def _scalar(spec: ScenarioSpec):
    """The scalar engine's per-trial results (the reference), memoized."""
    key = spec.to_json()
    if key not in _SCALAR:
        _SCALAR[key] = spec.replace(engine="scalar").materialize().measure()
    return _SCALAR[key]


def _assert_streams_untouched(labels: list[str], trials: int) -> None:
    """Each trial stream is derived exactly once — by the trial itself."""
    trial_labels = [label for label in labels if label.startswith("trial-")]
    assert sorted(trial_labels) == sorted(f"trial-{i}" for i in range(trials))


AUTO_CASES = {
    "gf2bit-async": (dict(topology="grid", n=16, k=8, backend="gf2bit", config=ASYNC2), "event"),
    "gf2bit-sync-small-k": (dict(topology="ring", n=16, k=8, backend="gf2bit", config=SYNC2), "event"),
    # k > n needs a multi-message placement; two trials keep the scalar
    # reference (k-column decoders at every node) cheap.
    "gf2bit-sync-large-k": (
        dict(
            topology="complete", n=4, k=parallel.EVENT_SYNC_MAX_K + 1,
            placement="random", backend="gf2bit", config=SYNC2, trials=2,
        ),
        "batch",
    ),
    "gf2bit-churn-reset": (
        dict(
            topology="ring", n=12, k=6, backend="gf2bit",
            config=ASYNC2.replace(churn=((4, 3, 9),), churn_reset=True),
        ),
        "event",
    ),
    "numpy-async": (dict(topology="grid", n=16, k=8, backend="numpy", config=ASYNC2), "batch"),
    "numpy-gf16-sync": (dict(topology="ring", n=12, k=6), "batch"),
    "numpy-churn-reset": (
        dict(
            topology="ring", n=12, k=6, backend="numpy",
            config=SYNC2.replace(churn=((4, 3, 9),), churn_reset=True),
        ),
        "scalar",
    ),
    "tag-barbell": (
        dict(topology="barbell", n=12, protocol="tag", spanning_tree="brr"), "batch"
    ),
}


@pytest.mark.parametrize("case", sorted(AUTO_CASES), ids=str)
def test_auto_choice_runs_the_chosen_engine_bit_identically(case, ran, derived):
    kwargs, expected = AUTO_CASES[case]
    spec = _spec(**kwargs)
    scenario = spec.materialize()
    assert parallel.choose_engine(
        scenario.graph, scenario.protocol_factory, scenario.config, backend=spec.backend
    ) == expected
    results = scenario.measure()
    families = set(ran)
    _assert_streams_untouched(derived, spec.trials)
    assert families == {expected}
    assert results == _scalar(spec)


@pytest.mark.parametrize(
    "k,time_model,expected",
    [
        (parallel.EVENT_SYNC_MAX_K, TimeModel.SYNCHRONOUS, "event"),
        (parallel.EVENT_SYNC_MAX_K + 1, TimeModel.SYNCHRONOUS, "batch"),
        (parallel.EVENT_SYNC_MAX_K + 1, TimeModel.ASYNCHRONOUS, "event"),
    ],
)
def test_synchronous_cutoff_is_inclusive(k, time_model, expected):
    spec = _spec(
        topology="complete", n=4, k=k, placement="random", backend="gf2bit",
        config=default_scenario_config(time_model=time_model, field_size=2),
    )
    scenario = spec.materialize()
    assert parallel.choose_engine(
        scenario.graph, scenario.protocol_factory, scenario.config, backend="gf2bit"
    ) == expected


def test_pinned_scalar_runs_scalar(ran, derived):
    spec = _spec(
        topology="grid", n=16, k=8, backend="gf2bit", config=ASYNC2, engine="scalar"
    )
    results = spec.materialize().measure()
    assert set(ran) == {"scalar"}
    _assert_streams_untouched(derived, spec.trials)
    assert results == _scalar(spec)


@pytest.mark.parametrize("engine", ["batch", "event"])
def test_pinned_engine_runs_for_one_trial_and_many(engine, ran, derived, tmp_path):
    from repro.store import ResultStore

    spec = _spec(topology="grid", n=16, k=8, backend="gf2bit", config=ASYNC2, engine=engine)
    scenario = spec.materialize()
    results = scenario.measure()
    assert set(ran) == {engine}
    _assert_streams_untouched(derived, spec.trials)
    ran.clear()
    derived.clear()
    single = scenario.run_single()
    assert ran == [engine]
    _assert_streams_untouched(derived, 1)
    scalar = _scalar(spec)
    assert results == scalar
    assert single == scalar[0]
    # A stored run is served from the store without running any engine.
    store = ResultStore(tmp_path)
    assert scenario.measure(store=store) == scalar
    ran.clear()
    assert scenario.measure(store=store) == scalar
    assert scenario.run_single(store=store) == scalar[0]
    assert ran == []


@pytest.mark.parametrize(
    "case", ["gf2bit-async", "gf2bit-sync-large-k", "gf2bit-churn-reset", "numpy-async"]
)
def test_chunked_workers_and_run_single_choose_the_same_engine(case, ran, derived):
    """A worker chunk, the jobs=2 runner and run_single agree on the engine."""
    kwargs, expected = AUTO_CASES[case]
    spec = _spec(**kwargs)
    scenario = spec.materialize()
    # Exactly what one worker process of the jobs=2 runner executes.
    payload = pickle.dumps(
        (scenario.graph, scenario.protocol_factory, scenario.config, spec.seed,
         [0, 1], spec.backend, spec.engine)
    )
    chunk = parallel._run_chunk(payload)
    assert set(ran) == {expected}
    _assert_streams_untouched(derived, 2)
    ran.clear()
    derived.clear()
    single = scenario.run_single()
    # run_single is trial 0 of measure: the same engine, even for one trial.
    assert ran == [expected]
    _assert_streams_untouched(derived, 1)
    scalar = _scalar(spec)
    assert chunk == scalar[:2]
    assert single == scalar[0]
    assert scenario.measure(jobs=2) == scalar


def test_unknown_factories_are_probed_on_a_throwaway_stream(ran, derived):
    """A factory the rule cannot identify by type is probed off-stream."""
    spec = _spec(topology="grid", n=16, k=8, backend="gf2bit", config=ASYNC2)
    scenario = spec.materialize()
    delegate = scenario.protocol_factory
    results = parallel.measure_protocol_parallel(
        scenario.graph,
        lambda graph, rng: delegate(graph, rng),
        scenario.config,
        trials=spec.trials,
        seed=spec.seed,
        jobs=1,
        spec=spec,
    )
    assert set(ran) == {"event"}
    assert derived.count("engine-probe") == 1
    _assert_streams_untouched(derived, spec.trials)
    assert results == _scalar(spec)


def test_event_processes_are_rank_only_on_networkx_graphs():
    from repro.gossip.event import build_event_process
    from repro.protocols.algebraic_gossip import RankOnlyUniformGossip

    scenario = _spec(topology="grid", n=16, k=8, backend="gf2bit", config=ASYNC2).materialize()
    process = build_event_process(
        scenario.graph, scenario.protocol_factory, derive_rng(0, "trial-0")
    )
    assert isinstance(process, RankOnlyUniformGossip)
