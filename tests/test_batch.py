"""Tests for the serve engine's cohorts (:mod:`repro.serve.engine`).

The anchor is the *cohort equivalence gate*: a
:class:`~repro.serve.ServeEngine` run — cohort grid tensors, vectorised
argmins, stacked DP transitions, chaos tenants, a mid-stream
checkpoint/restore round-trip — must be **bit-identical** to each tenant's
own session replay (``np.array_equal`` schedules, exact SLA counters, cost
within 1e-9) for every registered scenario family.  On top of that: the
``observe`` → ``prepare_tick``/``decide_tick``/``commit_tick`` split, the
report counters, cohort state that stays flat on priced streams,
budgeted-cache eviction under tenant churn, and the telemetry rows and
checkpoints an engine and a fabric worker write from the one round they
share, against per-tenant replays that write them without a round.
"""

import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from repro import scenarios
from repro.analysis import theoretical_bound
from repro.core.cost_functions import LinearCost
from repro.core.instance import ProblemInstance
from repro.core.server import ServerType
from repro.scenarios import build
from repro.scenarios.events import EventPlan
from repro.serve import (
    SERVE_ALGORITHMS,
    ControllerSession,
    InstanceFeed,
    ServeCache,
    ServeEngine,
    ServeFabric,
    TelemetryWriter,
    assert_same,
    build_feed,
    load_checkpoint,
    verify_batched,
)
from repro.offline.dp import ValueHistory, solve_dp
from repro.online import (
    AlgorithmA,
    AlgorithmB,
    AllOn,
    FollowDemand,
    LazyCapacityProvisioning,
    Reactive,
    run_online,
)
from repro.online.base import SlotContext
from repro.online.tracker import DPPrefixTracker, FixedSequenceTracker
from repro.workloads.scale import quantise_trace

BATCHED_ALGORITHMS = ["reactive", "follow-demand", "all-on"]
DP_ALGORITHMS = ["A", "B", "lcp"]
#: the gamma = 2 forms: their cohorts read their own grid family's tensors
GAMMA_ALGORITHMS = [
    pytest.param({"kind": kind, "params": {"gamma": 2.0}}, id=f"{kind}-gamma2")
    for kind in ["reactive", "follow-demand", "A", "B", "lcp"]
]


def _smoke_instance(name):
    fam = scenarios.family(name)
    return build(scenarios.ScenarioSpec(name, dict(fam.smoke_params)))


def _quantised(name="diurnal-cpu-gpu", T=32, levels=8):
    inst = build(name, T=T)
    return inst.with_demand(quantise_trace(inst.demand, levels=levels))


class _SubclassedA(AlgorithmA):
    """A subclass may override ``step``: it never joins a cohort."""


class _SubclassedLCP(LazyCapacityProvisioning):
    pass


def _register_fleet(instance, n, algorithms, chaos_every=None, **tenant_kwargs):
    """A build_tenants callback: n tenants over rotated copies of one trace."""

    def build_tenants(engine):
        for k in range(n):
            rolled = np.roll(instance.demand, k % max(instance.T, 1))
            feed = InstanceFeed(instance.with_demand(rolled, name=f"t{k}"))
            chaos = None
            if chaos_every and k % chaos_every == chaos_every - 1:
                chaos = EventPlan.generate(
                    instance.T, instance.d, seed=11 + k, n_events=3
                )
            engine.add_tenant(
                f"tenant-{k}",
                algorithms[k % len(algorithms)],
                feed,
                chaos=chaos,
                **tenant_kwargs,
            )

    return build_tenants


# --------------------------------------------------------------------------- #
# The cohort equivalence gate
# --------------------------------------------------------------------------- #


class TestBatchedEquivalence:
    def test_pure_cohort_is_fully_batched_and_identical(self):
        """A homogeneous reactive fleet takes the vectorised path for every
        tick and still reproduces per-tenant replays bit-identically."""
        instance = _quantised()
        report = verify_batched(_register_fleet(instance, 12, ["reactive"]))
        assert report["schedules_identical"]
        assert report["max_cost_deviation"] <= 1e-9
        assert report["batch"]["fallback_ticks"] == 0
        assert report["batch"]["batched_ticks"] == report["ticks_total"] > 0
        assert report["batch"]["batch_hit_rate"] == 1.0

    @pytest.mark.parametrize("algorithm", BATCHED_ALGORITHMS)
    def test_each_vectorised_decider_is_identical(self, algorithm):
        instance = _quantised(T=24)
        report = verify_batched(_register_fleet(instance, 6, [algorithm]))
        assert report["schedules_identical"]
        assert report["batch"]["batched_ticks"] == report["ticks_total"]

    @pytest.mark.parametrize("family", scenarios.names())
    def test_every_family_batches_identically(self, family):
        """The tentpole acceptance gate: for every registered scenario family
        (chaos families included), an engine run with a mid-stream
        checkpoint/restore matches per-tenant replays exactly."""
        instance = _smoke_instance(family)
        # full-grid table deciders are intractable on huge fleets either way;
        # all-on exercises the batched commit path there instead
        grid_size = int(np.prod(np.asarray(instance.m) + 1))
        algorithms = ["all-on"] if grid_size > 50_000 else ["reactive", "all-on"]
        report = verify_batched(
            _register_fleet(instance, 4, algorithms, chaos_every=4,
                            degradation="shed"),
            checkpoint_at=max(1, instance.T // 2),
        )
        assert report["schedules_identical"]
        assert report["max_cost_deviation"] <= 1e-9
        assert report["batch"]["batched_ticks"] > 0

    def test_mixed_fleet_with_chaos_and_checkpoint(self):
        """DP cohorts (stacked tracker advances) interleaved with table
        cohorts, chaos on every fourth tenant, checkpoint mid-stream: every
        kind batches, the DP tenants' first ticks and the chaos ticks fall
        back, and the whole fleet stays identical."""
        instance = _quantised(T=24)
        report = verify_batched(
            _register_fleet(
                instance, 12, BATCHED_ALGORITHMS + DP_ALGORITHMS,
                chaos_every=4, degradation="shed",
            ),
            checkpoint_at=12,
        )
        assert report["schedules_identical"]
        assert report["batch"]["batched_ticks"] > 0
        assert report["batch"]["fallback_ticks"] > 0
        batched_flags = {row["algorithm"]: row["batched"] for row in report["tenants"]}
        assert batched_flags == {
            "reactive": True, "follow-demand": True, "all-on": True,
            "algorithm-A": True, "algorithm-B": True, "LCP": True,
        }

    def test_counts_varying_fleets_form_distinct_cohorts(self):
        instance = _smoke_instance("time-varying-m")
        report = verify_batched(
            _register_fleet(instance, 6, ["reactive"], degradation="shed"),
            checkpoint_at=max(1, instance.T // 2),
        )
        assert report["schedules_identical"]
        assert report["batch"]["batched_ticks"] > 0

    def test_regret_tracked_sessions_batch(self):
        """Regret reads A's, B's and lcp's own value stream, and reactive's
        private tracker steps in the cohort's commit: the fleet batches and
        stays identical."""
        instance = _quantised(T=12)
        report = verify_batched(
            _register_fleet(instance, 8, ["reactive", "A", "B", "lcp"], track_regret=True)
        )
        assert report["schedules_identical"]
        assert report["batch"]["batched_ticks"] > 0
        assert all(row["batched"] for row in report["tenants"])


# --------------------------------------------------------------------------- #
# DP cohorts: stacked prefix-DP transitions for A, B and LCP
# --------------------------------------------------------------------------- #

DP_FAMILIES = [
    "diurnal-cpu-gpu",
    "priced-cpu-gpu",  # per-tick cost rows: B reads each row's idle costs
    "time-varying-m",  # count changes fall back
    "spiky-three-tier",  # d = 3
    "homogeneous",  # d = 1
]
ENGINE_KWARGS = [{}, {"ledger_budget": 2}, {"ledger_budget": 3}]


class TestDPCohorts:
    @pytest.mark.parametrize("family", DP_FAMILIES)
    @pytest.mark.parametrize("kind", BATCHED_ALGORITHMS + DP_ALGORITHMS + GAMMA_ALGORITHMS)
    def test_dp_cohorts_match_the_sequential_engine(self, kind, family):
        """A fleet of one cohort kind, so ``batched_ticks > 0`` proves that
        kind batched: quantised demand, continuous demand and a continuous
        stream whose peaks exceed the fleet (shed), each restored mid-stream,
        under unbounded and ledger-budgeted caches; the
        ``gamma`` forms on their own reduced grids."""
        base = build(family, T=16)
        capacity = float(np.sum(base.m * base.zmax))
        streams = [
            base.with_demand(quantise_trace(base.demand, levels=6)),
            base,
            base.with_demand(base.demand * (1.25 * capacity / base.demand.max())),
        ]
        for instance in streams:
            for kwargs in ENGINE_KWARGS:
                report = verify_batched(
                    _register_fleet(instance, 4, [kind], degradation="shed"),
                    checkpoint_at=instance.T // 2,
                    engine_kwargs=kwargs,
                )
                assert report["schedules_identical"]
                assert report["max_cost_deviation"] <= 1e-9
                assert report["batch"]["batched_ticks"] > 0, kwargs
                assert all(row["batched"] for row in report["tenants"])

    def test_first_ticks_and_count_changes_fall_back(self):
        """A DP tenant's first tick has no V yet, and a count change moves
        its tracker to another grid: both go through the session's observe."""
        instance = _quantised(T=12)
        report = verify_batched(_register_fleet(instance, 3, ["A"]))
        assert report["batch"]["fallback_ticks"] == 3
        assert report["batch"]["batched_ticks"] == 3 * (instance.T - 1)

        varying = _smoke_instance("time-varying-m")
        changes = sum(
            1 for t in range(1, varying.T)
            if not np.array_equal(varying.counts_at(t), varying.counts_at(t - 1))
        )
        assert changes > 0
        report = verify_batched(
            _register_fleet(varying, 2, ["B"], degradation="shed"),
        )
        assert report["schedules_identical"]
        assert report["batch"]["fallback_ticks"] >= 2 * (1 + changes)

    @pytest.mark.parametrize("family", ["homogeneous", "diurnal-cpu-gpu"])
    def test_lcp_bounds_are_two_argmins_of_one_tracker(self, family):
        """LCP's bounds are the smallest and the largest argmin of one
        tracker's ``V_t``, read after each observe — on the family as built,
        and on its fleet with zero idle costs, where idle servers are free and
        the two tie-breaks really differ."""
        instance = build(family, T=24)
        zero_idle = ProblemInstance(
            [
                ServerType(st.name, count=st.count, switching_cost=st.switching_cost,
                           capacity=st.capacity,
                           cost_function=LinearCost(idle=0.0, slope=1.0 + j))
                for j, st in enumerate(instance.server_types)
            ],
            instance.demand,
        )
        for inst in (instance, zero_idle):
            context = SlotContext(inst)
            lcp = LazyCapacityProvisioning(allow_heterogeneous=True)
            result = run_online(inst, lcp, slot_context=context)
            tracker = DPPrefixTracker()
            bounds = [(record.lower, record.upper) for record in result.decisions]
            assert len(bounds) == inst.T
            for t, (lo, hi) in enumerate(bounds):
                lower = tracker.observe(context.slot(t))
                upper = tracker.argmin("largest")
                assert np.array_equal(lo, np.minimum(lower, upper)), t
                assert np.array_equal(hi, np.maximum(lower, upper)), t
        assert any(not np.array_equal(lo, hi) for lo, hi in bounds)


class TestCohortLatency:
    def test_batched_ticks_are_charged_their_own_commit(self, monkeypatch):
        """A batched tick's latency is its share of the cohort plus its own
        commit, as an observed tick's runs to the end of commit_tick."""
        instance = _quantised(T=6)
        engine = ServeEngine()
        for k in range(4):
            engine.add_tenant(f"t{k}", "reactive", InstanceFeed(instance))
        (cache,) = engine.caches
        solve_config = cache.solve_config

        def slow_solve_config(vt, rounded):
            time.sleep(0.002)
            return solve_config(vt, rounded)

        monkeypatch.setattr(cache, "solve_config", slow_solve_config)
        engine.run()
        assert engine.batch_counters()["batched_ticks"] == 4 * instance.T
        for session in engine.sessions:
            assert session.latencies_ns.min() >= 2_000_000


# --------------------------------------------------------------------------- #
# The observe() split
# --------------------------------------------------------------------------- #


class TestObserveSplit:
    def test_split_phases_compose_to_observe(self):
        """prepare/decide/commit driven by hand must reproduce observe()
        exactly — same schedule, same cost, same emitted rows."""
        instance = _quantised(T=16)
        cache = ServeCache(instance.server_types)
        whole = ControllerSession("reactive", instance.server_types, cache=cache)
        split = ControllerSession(
            "reactive", instance.server_types, cache=ServeCache(instance.server_types)
        )
        for demand in instance.demand:
            state = whole.observe(demand)
            d, served, shed, counts_t, vt, slot = split.prepare_tick(demand)
            rounded, r_list, forced = split.decide_tick(slot, counts_t)
            split_state = split.commit_tick(d, served, shed, vt, rounded, r_list, forced)
            a, b = state.as_row(), split_state.as_row()
            a.pop("latency_ms"), b.pop("latency_ms")
            assert a == b
        assert np.array_equal(whole.schedule.x, split.schedule.x)
        assert whole.cumulative_cost == split.cumulative_cost

    def test_commit_tick_commits_external_decisions(self):
        """commit_tick with an observed tick's own decision (a cohort's entry
        point) is the identity: state advances exactly as observe would."""
        instance = _quantised(T=12)
        reference = ControllerSession("all-on", instance.server_types)
        replayed = ControllerSession("all-on", instance.server_types)
        for demand in instance.demand:
            state = reference.observe(demand)
            d, served, shed, counts_t, vt, _ = replayed.prepare_tick(demand)
            rounded = np.asarray(state.config, dtype=int)
            replayed.commit_tick(
                d, served, shed, vt, rounded, rounded.tolist(), emit=False
            )
        assert np.array_equal(reference.schedule.x, replayed.schedule.x)
        assert reference.cumulative_cost == replayed.cumulative_cost
        assert reference.ticks == replayed.ticks

    def test_slotless_commit_steps_the_private_regret_stream(self):
        """A cohort's commit passes no SlotInfo: a regret-tracked reactive
        session's private tracker reads the ledger slot's tensor at the
        tick's counts and reports what observe reports."""
        instance = _smoke_instance("time-varying-m")
        observed = ControllerSession("reactive", instance.server_types, track_regret=True)
        committed = ControllerSession("reactive", instance.server_types, track_regret=True)
        for t in range(instance.T):
            demand, counts = float(instance.demand[t]), instance.counts_at(t)
            state = observed.observe(demand, counts=counts)
            d, served, shed, counts_t, vt, _ = committed.prepare_tick(demand, counts=counts)
            rounded = np.asarray(state.config, dtype=int)
            row = committed.commit_tick(
                d, served, shed, vt, rounded, rounded.tolist(), counts=counts_t
            )
            assert math.isfinite(row.prefix_optimum_cost)
            assert row.prefix_optimum_cost == state.prefix_optimum_cost, t


# --------------------------------------------------------------------------- #
# Report counters (satellite: eviction + cohort hit-rate observability)
# --------------------------------------------------------------------------- #


class TestReportCounters:
    def test_engine_report_carries_cache_totals(self):
        instance = _quantised(T=12)
        engine = ServeEngine(share_caches=True, ledger_budget=4)
        for k in range(3):
            engine.add_tenant(f"t{k}", "reactive", InstanceFeed(instance))
        engine.run()
        totals = engine.report()["cache_totals"]
        for key in ("virtual_slots", "ledger_evictions", "tensor_bytes", "unique_solves"):
            assert key in totals
        assert totals["virtual_slots"] <= 4
        assert "cache_hit_rate" not in totals  # a ratio; summing it is meaningless

    def test_batched_report_carries_batch_section(self):
        instance = _quantised(T=12)
        engine = ServeEngine(share_caches=True)
        for k in range(4):
            engine.add_tenant(f"t{k}", "reactive", InstanceFeed(instance))
        engine.run()
        batch = engine.report()["batch"]
        assert batch["batched_ticks"] == 4 * instance.T
        assert batch["fallback_ticks"] == 0
        assert batch["batch_hit_rate"] == 1.0
        assert batch["geometries"] == 1
        assert batch["avg_cohort_size"] > 1

    @pytest.mark.parametrize("T", [48, 192])
    def test_priced_streams_keep_one_grid_record(self, T):
        """Priced rows never repeat, so cohorts on them differ every tick;
        the state a cohort keeps across rounds is one grid record per
        ``(cache, counts)``, whatever the stream's length."""
        instance = _quantised("priced-cpu-gpu", T=T)
        report = verify_batched(_register_fleet(instance, 8, ["B", "reactive"]))
        assert report["schedules_identical"]
        assert report["max_cost_deviation"] <= 1e-9
        assert report["batch"]["batched_ticks"] > 0
        assert report["batch"]["geometries"] == 1

    def test_lane_family_classification(self):
        """The public eligibility check: an algorithm's lane family is its
        class and grid family, or ``None`` when it stays out."""
        instance = _quantised(T=4)
        for algorithm, family in [("reactive", (Reactive, None)),
                                  ("follow-demand", (FollowDemand, None)),
                                  ("all-on", (AllOn, "counts")),
                                  ("A", (AlgorithmA, None)), ("B", (AlgorithmB, None)),
                                  ("lcp", (LazyCapacityProvisioning, None)),
                                  ("C", None)]:
            session = ControllerSession(algorithm, instance.server_types)
            assert session.algorithm.lane_family() == family
        # reduced grids join, in their own grid family, and regret tracking
        # changes no family
        for kind, cls in [("reactive", Reactive), ("follow-demand", FollowDemand),
                          ("A", AlgorithmA), ("B", AlgorithmB),
                          ("lcp", LazyCapacityProvisioning)]:
            session = ControllerSession(
                {"kind": kind, "params": {"gamma": 2.0}}, instance.server_types
            )
            assert session.algorithm.lane_family() == (cls, 2.0)
        for kind, cls in [("A", AlgorithmA), ("lcp", LazyCapacityProvisioning)]:
            session = ControllerSession(kind, instance.server_types, track_regret=True)
            assert session.algorithm.lane_family() == (cls, None)
        # what stays on the per-tenant path: subclasses, and trackers that
        # are not private DP trackers
        unbatched = [
            ControllerSession(_SubclassedA(), instance.server_types),
            ControllerSession(_SubclassedLCP(allow_heterogeneous=True), instance.server_types),
            ControllerSession(
                AlgorithmA(tracker=FixedSequenceTracker([[1, 1]] * 4)), instance.server_types
            ),
            ControllerSession(
                LazyCapacityProvisioning(
                    allow_heterogeneous=True,
                    tracker=DPPrefixTracker(history=ValueHistory(instance.beta)),
                ),
                instance.server_types,
            ),
        ]
        for session in unbatched:
            assert session.algorithm.lane_family() is None, session.algorithm


# --------------------------------------------------------------------------- #
# Budgeted-cache churn (satellite: 1k+ short-lived tenants, flat memory)
# --------------------------------------------------------------------------- #


class TestBudgetedChurn:
    def test_ledger_budget_keeps_memo_flat_over_1k_tenants(self):
        """1k+ short-lived tenants over one budgeted shared cache: the ledger
        stays at its budget (evictions, not growth) and every tenant's cost
        is identical to an unbudgeted replay — eviction is numerically
        neutral."""
        instance = _quantised(T=32, levels=32)
        budgeted = ServeCache(instance.server_types, ledger_budget=6)
        unbudgeted = ServeCache(instance.server_types)
        n_tenants, ticks = 1100, 3
        slots_seen = []
        for k in range(n_tenants):
            demands = np.roll(instance.demand, k % instance.T)[:ticks]
            costs = []
            for cache in (budgeted, unbudgeted):
                session = ControllerSession(
                    "reactive", instance.server_types, cache=cache, history=False
                )
                for demand in demands:
                    session.observe(float(demand))
                costs.append(session.cumulative_cost)
            assert costs[0] == costs[1]
            slots_seen.append(budgeted.counters()["virtual_slots"])
        counters = budgeted.counters()
        assert counters["virtual_slots"] <= 6
        assert max(slots_seen) <= 6  # flat throughout, not just at the end
        assert counters["ledger_evictions"] > 0

    @pytest.mark.parametrize("ledger_budget", [None, 8])
    def test_short_lived_sessions_pin_one_configuration_set_per_grid(self, ledger_budget):
        """300 short-lived compact A sessions on one cache, 3 continuous ticks
        each: every tensor is solved on the cache's one grid object for its
        key, so the solver pins one configuration set per distinct grid, not
        one per session's tracker."""
        instance = build("diurnal-cpu-gpu", T=4)
        capacity = float(np.sum(instance.m * instance.zmax))
        demand = np.random.default_rng(3).uniform(0.05, 0.95 * capacity, 900).tolist()
        cache = ServeCache(instance.server_types, ledger_budget=ledger_budget)
        for k in range(300):
            session = ControllerSession("A", cache=cache, history=False)
            for level in demand[3 * k : 3 * k + 3]:
                session.observe(level)
        assert len(cache.dispatcher._configs_id_cache) == len(cache._grids) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(2, 12),
        d=st.integers(1, 2),
        quantised=st.booleans(),
        kinds=st.lists(st.sampled_from(sorted(SERVE_ALGORITHMS)), min_size=2, max_size=4),
        budget=st.integers(1, 6),
    )
    def test_budgeted_engine_decides_as_an_unbudgeted_one_with_every_memo_bounded(
        self, seed, T, d, quantised, kinds, budget
    ):
        """Rolled tenants of random kinds through a ledger-budgeted engine
        and an unbudgeted one: equal schedules, costs and SLA counters, and
        after the budgeted run every memo the ledger owns holds at most
        ``budget`` slots (the solver pins one configuration set per grid)."""
        instance = random_instance(np.random.default_rng(seed), T=T, d=d)
        if quantised:
            instance = instance.with_demand(quantise_trace(instance.demand, levels=3))

        def run(**engine_kwargs):
            engine = ServeEngine(**engine_kwargs)
            for k, kind in enumerate(kinds):
                rolled = instance.with_demand(np.roll(instance.demand, k), name=f"t{k}")
                engine.add_tenant(f"t{k}", kind, InstanceFeed(rolled))
            engine.run()
            return engine

        budgeted, unbudgeted = run(ledger_budget=budget), run()
        for name in unbudgeted.tenants:
            assert_same(
                unbudgeted.session(name), budgeted.session(name), label=name, tolerance=0.0
            )
        (cache,) = budgeted.caches
        dispatcher = cache.dispatcher
        for memo in (cache._virtual, cache._tensors, dispatcher._sig_cache,
                     dispatcher._cache, dispatcher._block_cache, dispatcher._solved):
            assert len(memo) <= budget
        assert cache.virtual_slots <= budget
        assert len(dispatcher._configs_id_cache) <= 1  # every kind reads the full grid

    def test_batched_engine_forwards_budgets_and_stays_identical(self):
        """ledger_budget on the engine: eviction churn underneath the cohort
        tensors must not perturb its results."""
        instance = _quantised(T=16, levels=16)
        report = verify_batched(
            _register_fleet(instance, 8, ["reactive", "follow-demand"]),
            engine_kwargs={"ledger_budget": 3},
        )
        assert report["schedules_identical"]
        assert report["max_cost_deviation"] <= 1e-9


# --------------------------------------------------------------------------- #
# Bench harness plumbing
# --------------------------------------------------------------------------- #


class TestBenchHarness:
    def test_batch_smoke_merges_section_preserving_others(self, tmp_path):
        from repro.bench import run_batch_smoke

        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps({"latency": {"keep": True}}))
        section = run_batch_smoke(tenants=8, ticks=12, json_path=str(path))
        assert section["schedules_identical"]
        assert section["max_cost_deviation"] <= 1e-9
        assert section["batched_ticks"] > 0 and section["fallback_ticks"] > 0
        payload = json.loads(path.read_text())
        assert payload["latency"] == {"keep": True}
        assert payload["batch_smoke"]["ticks_total"] == section["ticks_total"]

    def test_batch_scale_bench_gates_and_records_memory(self, tmp_path):
        from repro.bench import run_batch_scale_bench

        path = tmp_path / "BENCH_serve.json"
        section = run_batch_scale_bench(
            tenant_counts=(3, 9),
            ticks=12,
            seq_limit=4,
            sample_check=2,
            assert_speedup=False,
            json_path=str(path),
        )
        assert [row["tenants"] for row in section["rows"]] == [3, 9]
        full, sampled = section["rows"]
        assert full["equality"] == "full"
        assert sampled["equality"] == "sampled-2"
        for row in section["rows"]:
            assert row["max_cost_deviation"] <= 1e-9
            assert row["tracemalloc_peak_mb"] >= 0
            assert row["rss_delta_mb"] >= 0
            assert row["batch_hit_rate"] == 1.0
        # the flat-memory gate: identical cache footprint across counts
        assert full["virtual_slots"] == sampled["virtual_slots"]
        payload = json.loads(path.read_text())
        assert payload["batch_scale"]["rows"] == section["rows"]
        assert any(
            entry.get("benchmark") == "serve-batch-scale"
            for entry in payload.get("runs", [])
        )

    def test_batch_scale_bench_times_with_the_collector_off(self, monkeypatch):
        """The timed engine rounds and per-tenant replays run with the
        collector off; it is on again after the gate returns or raises."""
        import gc

        import repro.serve
        from repro.bench import run_batch_scale_bench

        engine_runs, replays = [], []
        run, replay = repro.serve.ServeEngine.run, repro.serve.replay

        def spy_run(engine, *args, **kwargs):
            engine_runs.append(gc.isenabled())
            return run(engine, *args, **kwargs)

        def spy_replay(*args, **kwargs):
            replays.append(gc.isenabled())
            return replay(*args, **kwargs)

        monkeypatch.setattr(repro.serve.ServeEngine, "run", spy_run)
        monkeypatch.setattr(repro.serve, "replay", spy_replay)
        run_batch_scale_bench(tenant_counts=(2,), ticks=8, assert_speedup=False)
        # the timed run, then the tracemalloc-metered one
        assert engine_runs == [False, True]
        assert replays == [False, False]
        assert gc.isenabled()

        def broken_run(engine, *args, **kwargs):
            raise RuntimeError("round failed")

        monkeypatch.setattr(repro.serve.ServeEngine, "run", broken_run)
        with pytest.raises(RuntimeError, match="round failed"):
            run_batch_scale_bench(tenant_counts=(2,), ticks=8, assert_speedup=False)
        assert gc.isenabled()


# --------------------------------------------------------------------------- #
# One round, two serving paths: the same telemetry rows and checkpoints
# --------------------------------------------------------------------------- #


class TestServingPathsWriteTheSameArtefacts:
    """An in-process ServeEngine and a fabric worker both run ServeEngine's
    round, so each tenant's telemetry rows and checkpoints must equal what
    its session writes when it replays its feed on its own, at the same
    cadence, apart from wall-clock latencies.  Rows within a round come out
    grouped by cohort, so only each tenant's own rows are ordered."""

    T = 22
    EVERY = 4
    CHAOS = EventPlan.generate(T, 2, seed=5, n_events=3)

    def _spec(self, seed):
        return {"kind": "scenario", "scenario": "diurnal-cpu-gpu", "seed": seed,
                "params": {"T": self.T}}

    def _register(self, engine):
        # four tenants over one fleet object (two reactive ones form a
        # cohort), then the two declarative tenants the fabric also serves
        shared = _quantised(T=self.T, levels=6)
        for name, algorithm, roll in [("reactive-0", "reactive", 0),
                                      ("reactive-1", "reactive", 5),
                                      ("follow", "follow-demand", 9),
                                      ("B", "B", 13)]:
            rolled = shared.with_demand(np.roll(shared.demand, roll), name=name)
            engine.add_tenant(name, algorithm, InstanceFeed(rolled))
        engine.add_tenant("A", "A", build_feed(self._spec(1)))
        engine.add_tenant("chaos", "reactive", build_feed(self._spec(2)),
                          chaos=self.CHAOS, degradation="shed")

    def _drive(self, engine, directory, monkeypatch):
        """Run with telemetry and checkpoints; return rows and saved payloads by tenant."""
        saved = {}
        real = ControllerSession.checkpoint

        def recording(session):
            payload = real(session)
            saved.setdefault(session.name, []).append(json.loads(json.dumps(payload)))
            return payload

        monkeypatch.setattr(ControllerSession, "checkpoint", recording)
        self._register(engine)
        path = directory / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            engine.run(telemetry=writer, checkpoint_dir=directory / "ckpt",
                       checkpoint_every=self.EVERY)
        monkeypatch.undo()
        return _rows_by_tenant(path), {
            name: [_comparable(p) for p in payloads] for name, payloads in saved.items()
        }

    def _replay(self, path):
        """The reference: each tenant's session observes its feed on its own
        and writes the rows and checkpoints the round would, with no round.

        Returns the payloads it checkpointed, by tenant."""
        registry = ServeEngine()
        self._register(registry)
        saved = {}
        with TelemetryWriter(path) as writer:
            for name, tenant in registry.tenants.items():
                session = tenant.session
                payloads = saved[name] = []
                for tick in tenant.iterator:
                    state = session.observe(
                        tick.demand, cost_row=tick.cost_row, counts=tick.counts
                    )
                    writer.write(state, tenant=name)
                    if session.ticks % self.EVERY == 0:
                        payloads.append(session.checkpoint())
                session.finish()
                payloads.append(session.checkpoint())
        return {
            name: [_comparable(json.loads(json.dumps(p))) for p in payloads]
            for name, payloads in saved.items()
        }

    def test_engines_and_fabric_write_identical_artefacts(self, tmp_path, monkeypatch):
        ref_ckpts = self._replay(tmp_path / "replay.jsonl")
        ref_rows = _rows_by_tenant(tmp_path / "replay.jsonl")
        engine = ServeEngine()
        eng_rows, eng_ckpts = self._drive(engine, tmp_path / "engine", monkeypatch)

        counters = engine.batch_counters()
        assert counters["batched_ticks"] > 0 and counters["fallback_ticks"] > 0
        names = ["reactive-0", "reactive-1", "follow", "B", "A", "chaos"]
        assert sorted(eng_rows) == sorted(names)
        cadence = list(range(self.EVERY, self.T + 1, self.EVERY)) + [self.T]
        for name in names:
            assert len(ref_rows[name]) == self.T
            assert eng_rows[name] == ref_rows[name], name
            assert [p["tick"] for p in ref_ckpts[name]] == cadence, name
            assert eng_ckpts[name] == ref_ckpts[name], name
        assert any(row.get("shed_demand") for row in ref_rows["chaos"])

        fabric = ServeFabric(workers=1, run_dir=tmp_path / "fabric",
                             checkpoint_every=self.EVERY, worker_telemetry=True)
        fabric.add_tenant("A", algorithm="A", feed=self._spec(1))
        fabric.add_tenant("chaos", algorithm="reactive", feed=self._spec(2),
                          chaos=self.CHAOS, degradation="shed")
        report = fabric.run()
        fabric_rows = _rows_by_tenant(
            tmp_path / "fabric" / "worker-0" / "telemetry-0.jsonl"
        )
        for name in ("A", "chaos"):
            assert report["tenants"][name]["status"] == "completed"
            final = load_checkpoint(Path(report["checkpoint_dir"]) / f"{name}.ckpt.json")
            assert _comparable(final) == ref_ckpts[name][-1], name
            assert fabric_rows[name] == ref_rows[name], name


def _rows_by_tenant(path):
    """Telemetry rows grouped by tenant, in file order, without ``latency_ms``."""
    rows = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        row.pop("latency_ms")
        rows.setdefault(row["tenant"], []).append(row)
    return rows


def _comparable(payload):
    """A checkpoint payload without its wall-clock samples and checksum."""
    return {k: v for k, v in payload.items() if k not in ("latencies_ns", "checksum")}


# --------------------------------------------------------------------------- #
# Regret: one value stream per tenant, on every path
# --------------------------------------------------------------------------- #

ALL_ALGORITHMS = ["A", "B", "lcp", "C", "reactive", "follow-demand", "all-on"]


def _prefix_optima(instance):
    """``OPT(I_t)`` of every prefix: a plain tracker stepped over the instance's slots."""
    context = SlotContext(instance)
    tracker = DPPrefixTracker()
    optima = []
    for t in range(instance.T):
        tracker.observe(context.slot(t))
        optima.append(tracker.prefix_optimum_cost())
    return optima


def _engine_rows(build_tenants, directory, checkpoint_at=None, **engine_kwargs):
    """Telemetry rows by tenant of one engine run, JSON round-tripped mid-stream."""
    engine = ServeEngine(**engine_kwargs)
    build_tenants(engine)
    path = Path(directory) / "telemetry.jsonl"
    with TelemetryWriter(path) as writer:
        if checkpoint_at is not None:
            engine.run(max_ticks=checkpoint_at, telemetry=writer, finalize=False)
            for name in list(engine.tenants):
                engine.roundtrip_tenant(name)
        engine.run(telemetry=writer)
    return engine, _rows_by_tenant(path)


class TestRegretStream:
    @pytest.mark.parametrize(
        "kwargs", [{}, {"ledger_budget": 2}], ids=["unbudgeted", "ledger_budget"],
    )
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_every_path_reports_the_private_tracker_optimum(self, algorithm, kwargs, tmp_path):
        """Regret on: engine rounds (cohorts included) equal per-tenant
        replays, and every tick's ``prefix_optimum_cost`` on the engine, on
        the observe path and across JSON round-trips equals a plain tracker
        stepped over the tenant's own slots, bit for bit."""
        instance = build("diurnal-cpu-gpu", T=12)
        build_tenants = _register_fleet(instance, 3, [algorithm], track_regret=True)
        report = verify_batched(build_tenants, checkpoint_at=6, engine_kwargs=kwargs)
        assert report["schedules_identical"]
        if algorithm != "C":
            assert report["batch"]["batched_ticks"] > 0
        _, rows = _engine_rows(build_tenants, tmp_path, checkpoint_at=6, **kwargs)
        for k in range(3):
            rolled = instance.with_demand(np.roll(instance.demand, k))
            expected = _prefix_optima(rolled)
            assert [row["prefix_optimum_cost"] for row in rows[f"tenant-{k}"]] == expected
            session = ControllerSession(algorithm, instance.server_types, track_regret=True)
            observed = []
            for t, demand in enumerate(rolled.demand):
                if t == 6:
                    session = session.checkpoint_roundtrip()
                observed.append(session.observe(demand).prefix_optimum_cost)
            assert observed == expected

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(2, 12),
        d=st.integers(1, 2),
    )
    def test_theorem_bounds_hold_on_every_tick(self, seed, T, d):
        """Thm 8 (A), Thm 13 (B) and Thm 15 (C, eps = 0.25) on every prefix.

        The online schedule on ``I_t`` is the first ``t`` ticks of the
        schedule on ``I``, and ``c(I_t) <= c(I)``, so the full instance's
        bound holds on every prefix: each tick's cumulative cost is at most
        the bound times ``OPT(I_t)``, which never decreases and never
        exceeds the cumulative cost.  The last tick's ``OPT(I_t)`` is the
        offline optimum.
        """
        instance = random_instance(np.random.default_rng(seed), T=T, d=d)
        kinds = {"A": "A", "B": "B", "C": {"kind": "C", "params": {"epsilon": 0.25}}}
        rolled = [instance.with_demand(np.roll(instance.demand, k)) for k in range(2)]

        def build_tenants(engine):
            for kind, algorithm in kinds.items():
                for k, tenant in enumerate(rolled):
                    engine.add_tenant(
                        f"{kind}-{k}", algorithm, InstanceFeed(tenant), track_regret=True
                    )

        with tempfile.TemporaryDirectory() as directory:
            engine, rows = _engine_rows(build_tenants, directory)
        assert engine.batch_counters()["batched_ticks"] > 0
        for k, tenant in enumerate(rolled):
            expected = _prefix_optima(tenant)
            optimum = solve_dp(tenant).cost
            for kind in kinds:
                bound = theoretical_bound(tenant, kind, 0.25)
                series = rows[f"{kind}-{k}"]
                assert len(series) == T
                previous = 0.0
                for t, row in enumerate(series):
                    opt, cost = row["prefix_optimum_cost"], row["cumulative_cost"]
                    assert opt == expected[t], (kind, t)
                    assert opt >= previous - 1e-12 * abs(previous), (kind, t)
                    assert opt <= cost * (1 + 1e-12), (kind, t)
                    assert cost <= bound * opt * (1 + 1e-9), (kind, t, cost / opt, bound)
                    previous = opt
                assert abs(previous - optimum) <= 1e-9 * max(1.0, abs(optimum)), kind
