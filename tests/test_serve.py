"""Tests for the live replay & serving subsystem (:mod:`repro.serve`).

The anchor is the *streaming equivalence gate*: replaying a scenario through a
:class:`~repro.serve.ControllerSession` — including across a mid-stream
checkpoint/restore round-trip serialised through actual JSON text — must
reproduce the batch :func:`~repro.online.base.run_online` schedule exactly and
its total cost to 1e-9, for every registered scenario family and every serve
algorithm.  On top of that: feed sources, telemetry, multi-tenant cache
sharing (decision-neutral and measurably deduplicating), and the serve
benchmark's deterministic gates.
"""

import json
import math
import time

import numpy as np
import pytest

from repro import scenarios
from repro.core.cost_functions import CallableCost
from repro.core.instance import ProblemInstance
from repro.core.server import ServerType
from repro.offline.state_grid import StateGrid
from repro.online.base import OnlineAlgorithm, run_online
from repro.scenarios import build
from repro.serve import (
    SERVE_ALGORITHMS,
    ArrayFeed,
    ControllerSession,
    InstanceFeed,
    JsonlFeed,
    ScenarioFeed,
    ServeCache,
    ServeEngine,
    SyntheticFeed,
    TelemetryWriter,
    TenantSpec,
    build_serve_algorithm,
    fleet_signature,
    latency_percentiles,
    load_checkpoint,
    payload_checksum,
    summarise_sessions,
    verify_replay,
    write_jsonl_trace,
)
from repro.serve.fabric import _materialise, _WorkerTenant
from repro.serve.supervisor import BreakerConfig, CircuitBreaker
from repro.serve.verify import assert_same, replay
from repro.workloads import named_trace
from repro.workloads.scale import quantise_trace

ALGORITHMS = ["A", "B", "C", "lcp", "reactive", "follow-demand", "all-on"]


def _smoke_instance(name):
    fam = scenarios.family(name)
    return build(scenarios.ScenarioSpec(name, dict(fam.smoke_params)))


# --------------------------------------------------------------------------- #
# The streaming equivalence gate
# --------------------------------------------------------------------------- #


class TestStreamingEquivalence:
    @pytest.mark.parametrize("family", scenarios.names())
    def test_every_family_replays_equivalently(self, family):
        """ISSUE-5 acceptance: for every registered scenario family, streamed
        replay with one mid-stream checkpoint/restore reproduces the batch
        run_online schedule and cost to 1e-9."""
        instance = _smoke_instance(family)
        row = verify_replay(instance, "A", checkpoint_at=max(1, instance.T // 2))
        assert row["ok"] and row["checkpointed"]
        assert row["cost_deviation"] <= 1e-9

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_replays_equivalently(self, algorithm):
        instance = build("diurnal-cpu-gpu", T=12)
        row = verify_replay(instance, algorithm, checkpoint_at=5)
        assert row["ok"] and row["checkpointed"]

    @pytest.mark.parametrize("algorithm", ["B", "C"])
    def test_time_dependent_costs_replay(self, algorithm):
        instance = build("priced-cpu-gpu", T=12)
        row = verify_replay(instance, algorithm, checkpoint_at=6)
        assert row["ok"]

    def test_time_varying_counts_replay(self):
        instance = _smoke_instance("time-varying-m")
        row = verify_replay(instance, "A", checkpoint_at=5)
        assert row["ok"]

    def test_gamma_reduced_tracker_replays(self):
        instance = build("big-fleet", T=24, m_max=20)
        row = verify_replay(
            instance, {"kind": "A", "params": {"gamma": 1.5}}, checkpoint_at=11
        )
        assert row["ok"]

    def test_out_of_range_checkpoint_rejected(self):
        # checkpoint_at >= T would silently verify nothing about restore
        instance = build("homogeneous", T=6)
        with pytest.raises(ValueError, match="checkpoint_at"):
            verify_replay(instance, "A", checkpoint_at=6)
        with pytest.raises(ValueError, match="checkpoint_at"):
            verify_replay(instance, "A", checkpoint_at=0)

    def test_checkpoint_roundtrip_helper(self):
        instance = build("diurnal-cpu-gpu", T=10)
        session = ControllerSession("A", instance.server_types, track_regret=True)
        for t in range(5):
            session.observe(float(instance.demand[t]))
        fresh = session.checkpoint_roundtrip()
        assert fresh is not session
        assert fresh.cache is not session.cache  # cold cache by default
        warm = session.checkpoint_roundtrip(reuse_cache=True)
        assert warm.cache is session.cache
        for t in range(5, 10):
            a = session.observe(float(instance.demand[t]))
            b = fresh.observe(float(instance.demand[t]))
            c = warm.observe(float(instance.demand[t]))
            assert np.array_equal(a.config, b.config)
            assert np.array_equal(a.config, c.config)

    def test_divergent_stream_produces_divergent_schedule(self):
        # sanity check on the gate's power: a session fed a *different* demand
        # stream must not reproduce the batch schedule of the original
        instance = build("diurnal-cpu-gpu", T=8)
        batch = run_online(instance, build_serve_algorithm("A"))
        session = ControllerSession("A", instance.server_types)
        for value in np.roll(instance.demand, 3):
            session.observe(float(value))
        assert not np.array_equal(session.schedule.x, batch.schedule.x)


# --------------------------------------------------------------------------- #
# Sessions: checkpointing, validation, telemetry fields
# --------------------------------------------------------------------------- #


class TestControllerSession:
    def test_checkpoint_is_strict_json(self):
        instance = build("diurnal-cpu-gpu", T=10)
        session = ControllerSession("A", instance.server_types, track_regret=True)
        for t in range(5):
            session.observe(float(instance.demand[t]))
        payload = session.checkpoint()
        text = json.dumps(payload, allow_nan=False)  # raises on inf/nan leakage
        restored = ControllerSession("A", instance.server_types, track_regret=True)
        restored.restore(json.loads(text))
        for t in range(5, 10):
            a = session.observe(float(instance.demand[t]))
            b = restored.observe(float(instance.demand[t]))
            assert np.array_equal(a.config, b.config)
            assert a.cumulative_cost == pytest.approx(b.cumulative_cost, abs=1e-12)
            assert b.prefix_optimum_cost == pytest.approx(a.prefix_optimum_cost, abs=1e-12)

    @pytest.mark.parametrize("algorithm", ["A", "reactive"])
    def test_regret_payload_restores_into_a_plain_session(self, algorithm):
        # the payload says whether it tracks regret and carries the private
        # stream only where the algorithm holds none (reactive), so a plain
        # session restored from it keeps reporting the prefix optimum
        instance = build("diurnal-cpu-gpu", T=10)
        session = ControllerSession(algorithm, instance.server_types, track_regret=True)
        for t in range(4):
            session.observe(float(instance.demand[t]))
        payload = json.loads(json.dumps(session.checkpoint()))
        assert payload["track_regret"] is True
        assert (payload["regret_state"] is None) == (algorithm == "A")
        restored = ControllerSession(algorithm, instance.server_types).restore(payload)
        assert restored.track_regret
        for t in range(4, 10):
            a = session.observe(float(instance.demand[t]))
            b = restored.observe(float(instance.demand[t]))
            assert math.isfinite(b.prefix_optimum_cost)
            assert b.prefix_optimum_cost == a.prefix_optimum_cost

    def test_regret_payload_without_a_stream_is_rejected(self):
        # reactive holds no prefix optimum, so its payload must carry one
        instance = build("diurnal-cpu-gpu", T=6)
        session = ControllerSession("reactive", instance.server_types, track_regret=True)
        session.observe(float(instance.demand[0]))
        payload = session.checkpoint()
        del payload["checksum"]
        payload["regret_state"] = None
        payload["checksum"] = payload_checksum(payload)
        with pytest.raises(ValueError, match="regret stream"):
            ControllerSession("reactive", instance.server_types).restore(payload)

    @pytest.mark.parametrize("mode", ["history", "compact", "restored"])
    def test_checkpoint_text_equals_per_element_int_conversion(self, mode):
        # the payload's history rows are copied with one tolist()/list() per
        # row; the text, checksum included, is what int() per element gives
        instance = build("diurnal-cpu-gpu", T=12)

        def fresh():
            return ControllerSession(
                "B", instance.server_types, track_regret=True, history=mode != "compact"
            )

        session = fresh()
        for t in range(6):
            session.observe(float(instance.demand[t]))
        if mode == "restored":
            session = fresh().restore(json.loads(json.dumps(session.checkpoint())))
            for t in range(6, 12):
                session.observe(float(instance.demand[t]))
        payload = session.checkpoint()
        reference = {k: v for k, v in payload.items() if k != "checksum"}
        if mode != "compact":
            reference["configs"] = [[int(v) for v in c] for c in session._configs]
            reference["latencies_ns"] = [int(v) for v in session._latencies]
        else:
            assert "configs" not in payload and "latencies_ns" not in payload
        reference["checksum"] = payload_checksum(reference)
        assert json.dumps(payload) == json.dumps(reference)

    def test_checkpoint_algorithm_mismatch_rejected(self):
        instance = build("homogeneous", T=6)
        session = ControllerSession("A", instance.server_types)
        session.observe(1.0)
        payload = session.checkpoint()
        other = ControllerSession("B", instance.server_types)
        with pytest.raises(ValueError, match="algorithm"):
            other.restore(payload)

    def test_checkpoint_version_checked(self):
        instance = build("homogeneous", T=6)
        session = ControllerSession("A", instance.server_types)
        payload = session.checkpoint()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ControllerSession("A", instance.server_types).restore(payload)

    def test_fleet_state_row_is_json_safe(self):
        instance = build("homogeneous", T=6)
        session = ControllerSession("A", instance.server_types, track_regret=True)
        state = session.observe(2.0)
        row = state.as_row()
        json.dumps(row, allow_nan=False)
        assert row["t"] == 0
        assert row["tick_cost"] == pytest.approx(row["operating_cost"] + row["switching_cost"])
        assert "regret" in row and "prefix_optimum_cost" in row
        assert state.regret == pytest.approx(0.0, abs=1e-9)  # prefix optimum at t=0

    def test_demand_validation(self):
        instance = build("homogeneous", T=6)
        session = ControllerSession("A", instance.server_types)
        with pytest.raises(ValueError, match="non-negative"):
            session.observe(-1.0)
        with pytest.raises(ValueError, match="capacity"):
            session.observe(1e9)

    def test_session_without_fleet_rejected(self):
        with pytest.raises(ValueError, match="server_types"):
            ControllerSession("A")

    def test_mismatched_cache_geometry_rejected(self):
        cpu_gpu = build("diurnal-cpu-gpu", T=4)
        single = build("homogeneous", T=4)
        cache = ServeCache(cpu_gpu.server_types)
        with pytest.raises(ValueError, match="geometry"):
            ControllerSession("A", single.server_types, cache=cache)

    def test_latency_and_summary(self):
        instance = build("homogeneous", T=8)
        session = ControllerSession("A", instance.server_types, name="t0")
        for t in range(8):
            session.observe(float(instance.demand[t]))
        assert len(session.latencies_seconds) == 8
        summary = session.summary()
        assert summary["tenant"] == "t0"
        assert summary["ticks"] == 8
        assert summary["latency"]["ticks"] == 8
        assert summary["latency"]["p99_ms"] >= summary["latency"]["p50_ms"] >= 0.0

    def test_schedule_property_matches_observations(self):
        instance = build("homogeneous", T=6)
        session = ControllerSession("all-on", instance.server_types)
        for t in range(6):
            session.observe(float(instance.demand[t]))
        assert session.schedule.x.shape == (6, 1)
        assert np.all(session.schedule.x == instance.m)


# --------------------------------------------------------------------------- #
# Feeds
# --------------------------------------------------------------------------- #


class TestFeeds:
    def test_scenario_feed_carries_spec_and_fleet(self):
        feed = ScenarioFeed("homogeneous", T=8, seed=3)
        assert feed.spec.name == "homogeneous"
        assert feed.spec.params["T"] == 8 and feed.spec.seed == 3
        assert feed.server_types is not None
        assert len(feed) == 8
        ticks = list(feed)
        assert [t.t for t in ticks] == list(range(8))
        assert all(t.cost_row is None for t in ticks)  # time-independent family

    def test_instance_feed_reveals_time_dependence(self):
        instance = build("priced-cpu-gpu", T=6)
        ticks = list(InstanceFeed(instance))
        assert all(t.cost_row is not None for t in ticks)
        varying = _smoke_instance("time-varying-m")
        counts = [t.counts for t in InstanceFeed(varying)]
        assert all(c is not None for c in counts)

    def test_jsonl_feed(self, tmp_path):
        path = tmp_path / "demand.jsonl"
        path.write_text('1.5\n{"demand": 2.5}\n\n3.0\n')
        demands = [tick.demand for tick in JsonlFeed(path)]
        assert demands == [1.5, 2.5, 3.0]

    def test_synthetic_feed_matches_named_preset(self):
        feed = SyntheticFeed("diurnal", slots=10, seed=4)
        np.testing.assert_allclose(
            [t.demand for t in feed], named_trace("diurnal", 10, rng=4)
        )

    def test_synthetic_feed_callable_source(self):
        feed = SyntheticFeed(lambda T, seed: np.full(T, 2.0), slots=5)
        assert [t.demand for t in feed] == [2.0] * 5

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown trace preset"):
            SyntheticFeed("nonsense", slots=4)

    def test_unpaced_play_equals_iteration(self):
        feed = ArrayFeed([1.0, 2.0, 3.0])
        assert [t.demand for t in feed.play(None)] == [t.demand for t in feed]


# --------------------------------------------------------------------------- #
# Multi-tenant engine and cache sharing
# --------------------------------------------------------------------------- #


class TestServeEngine:
    def _tenant_feeds(self, instance, n):
        return [
            InstanceFeed(
                instance.with_demand(np.roll(instance.demand, k), name=f"tenant-{k}")
            )
            for k in range(n)
        ]

    def test_sharing_is_decision_neutral_and_real(self):
        instance = build("diurnal-cpu-gpu", T=16)
        costs = {}
        solves = {}
        for share in (True, False):
            engine = ServeEngine(share_caches=share)
            for k, feed in enumerate(self._tenant_feeds(instance, 4)):
                engine.add_tenant(f"tenant-{k}", "A", feed)
            report = engine.run()
            costs[share] = [s.cumulative_cost for s in engine.sessions]
            solves[share] = sum(c["unique_solves"] for c in report["sharing"])
            assert report["caches"] == (1 if share else 4)
        np.testing.assert_allclose(costs[True], costs[False], rtol=0, atol=1e-9)
        assert solves[True] < solves[False]

    def test_shared_tensor_hits_counted(self):
        instance = build("diurnal-cpu-gpu", T=12)
        engine = ServeEngine()
        for k, feed in enumerate(self._tenant_feeds(instance, 3)):
            engine.add_tenant(f"tenant-{k}", "A", feed)
        report = engine.run()
        (counters,) = report["sharing"]
        assert counters["tensor_hits"] > 0
        assert counters["tensor_misses"] <= 12  # at most one per demand level

    def test_duplicate_tenant_rejected(self):
        instance = build("homogeneous", T=4)
        engine = ServeEngine()
        engine.add_tenant("t", "A", InstanceFeed(instance))
        with pytest.raises(ValueError, match="already registered"):
            engine.add_tenant("t", "A", InstanceFeed(instance))

    def test_demand_only_feed_needs_fleet(self):
        engine = ServeEngine()
        with pytest.raises(ValueError, match="server_types"):
            engine.add_tenant("t", "A", ArrayFeed([1.0, 2.0]))

    def test_engine_report_and_telemetry(self, tmp_path):
        instance = build("homogeneous", T=6)
        engine = ServeEngine()
        engine.add_tenant("t0", "A", InstanceFeed(instance))
        engine.add_tenant("t1", "reactive", InstanceFeed(instance))
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            report = engine.run(telemetry=writer)
        assert report["tenants"] == 2
        assert report["total_ticks"] == 12
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 12
        assert {row["tenant"] for row in rows} == {"t0", "t1"}
        # interleaved round-robin: first two rows are tick 0 of both tenants
        assert [rows[0]["t"], rows[1]["t"]] == [0, 0]

    def test_max_ticks_bounds_the_run(self):
        instance = build("homogeneous", T=8)
        engine = ServeEngine()
        engine.add_tenant("t0", "A", InstanceFeed(instance))
        report = engine.run(max_ticks=3)
        assert report["total_ticks"] == 3

    def test_abandoned_feed_is_checkpointed_unfinished(self, tmp_path):
        """A fabric tenant whose feed breaker gives up ends its stream in the
        engine's round and is checkpointed as it stands: its horizon did not
        end, so the end-of-stream hook does not close Algorithm B's open
        power-up records."""
        trace = tmp_path / "bad.jsonl"
        write_jsonl_trace(trace, np.linspace(1.0, 6.0, 12))
        with trace.open("a") as handle:
            handle.write("{torn line\n")
        spec = TenantSpec(
            name="bad", algorithm={"kind": "B", "params": {}},
            feed={"kind": "jsonl", "path": str(trace)},
            fleet={"scenario": "diurnal-cpu-gpu"},
        )
        tenant = _WorkerTenant(spec, CircuitBreaker(BreakerConfig(max_opens=1)))
        tenant.feed, server_types = _materialise(spec)
        tenant.session = ControllerSession(spec.algorithm, server_types, name="bad")
        engine = ServeEngine()
        engine.tenants["bad"] = tenant
        engine.run(checkpoint_dir=tmp_path / "ckpt")
        assert tenant.status == "failed" and "malformed" in tenant.last_error
        payload = load_checkpoint(tmp_path / "ckpt" / "bad.ckpt.json")
        assert payload["tick"] == 12
        assert any(payload["algorithm_state"]["records"])

    def test_engine_uses_one_cache_per_geometry(self):
        a = build("diurnal-cpu-gpu", T=4)
        b = build("homogeneous", T=4)
        engine = ServeEngine()
        engine.add_tenant("t0", "A", InstanceFeed(a))
        engine.add_tenant("t1", "A", InstanceFeed(a.with_demand(a.demand, name="x")))
        engine.add_tenant("t2", "A", InstanceFeed(b))
        assert len(engine.caches) == 2
        assert fleet_signature(a.server_types) != fleet_signature(b.server_types)


# --------------------------------------------------------------------------- #
# One dispatch block per round
# --------------------------------------------------------------------------- #


class _FullGridGreedy(OnlineAlgorithm):
    """A custom algorithm object: reads the full-grid tensor, names no grid."""

    name = "custom-greedy"

    def step(self, slot):
        grid = StateGrid.full(slot.counts)
        tensor = slot.grid_operating_cost(grid)
        return grid.configs()[int(np.argmin(tensor))].copy()


class _OneArrivalPerResolve(ServeEngine):
    """The same engine with every arrival resolved on its own: no round blocks."""

    def resolve(self, arrivals):
        for arrival in arrivals:
            super().resolve([arrival])


#: (tenant, algorithm, add_tenant kwargs); a callable builds a fresh object.
#: No lane family appears twice: a cohort of two fetches a level both serve
#: once, so under ``tensor_budget_bytes`` it can solve less than one-arrival
#: rounds do.  The regret tenant keeps a private stream, which reads the block.
BLOCK_TENANTS = [
    ("A", "A", {}),
    ("B", "B", {}),
    ("C", "C", {}),
    ("lcp", "lcp", {}),
    ("reactive", "reactive", {}),
    ("follow-demand", "follow-demand", {}),
    ("all-on", "all-on", {}),
    ("A-gamma", {"kind": "A", "params": {"gamma": 2.0}}, {}),
    ("C-regret", "C", {"track_regret": True}),
    ("custom", _FullGridGreedy, {}),
]
BLOCK_FLEETS = [
    "diurnal-cpu-gpu", "priced-cpu-gpu", "time-varying-m",
    "spiky-three-tier", "homogeneous", "callable-d2",
]
BLOCK_ENGINE_KWARGS = [
    {},
    {"ledger_budget": 2},
    {"ledger_budget": 3},
    {"tensor_budget_bytes": 0},
    {"tensor_budget_bytes": 1 << 20},
]
BLOCK_T = 8


class _QuadraticCallable(CallableCost):
    """``a + b z + c z^2`` as a CallableCost: no marginal pieces, so dispatch
    bisects; the closed-form marginal and its inverse only keep it fast."""

    def __init__(self, a, b, c, name):
        super().__init__(lambda z: a + b * z + c * z * z, name=name)
        self._b, self._c = b, c

    def derivative(self, z):
        out = self._b + 2.0 * self._c * np.asarray(z, dtype=float)
        return out if out.ndim else float(out)

    def inverse_derivative(self, y):
        out = np.maximum((np.asarray(y, dtype=float) - self._b) / (2.0 * self._c), 0.0)
        return out if out.ndim else float(out)


def _callable_d2(T):
    """A d = 2 fleet of CallableCost rows: dispatch bisects, never sweeps."""
    fleet = (
        ServerType("cpu", 3, 4.0, 2.0, _QuadraticCallable(1.0, 0.6, 0.4, "cpu")),
        ServerType("gpu", 2, 6.0, 3.0, _QuadraticCallable(2.0, 0.3, 0.1, "gpu")),
    )
    demand = 1.0 + 8.0 * np.abs(np.sin(np.arange(T) * np.pi / T))
    return ProblemInstance(fleet, demand, name="callable-d2")


def _block_streams(fleet, stream, T=BLOCK_T):
    """``[(tenant instance, served-demand instance)]``, one per tenant.

    Every tenant gets its own unquantised trace over the same fleet objects
    (and the same cost rows and counts); ``"shed"`` scales each trace's peak
    to 1.25x the tick's capacity.
    """
    base = _callable_d2(T) if fleet == "callable-d2" else build(fleet, T=T)
    capacity = np.array(
        [float(np.sum(base.counts_at(t) * base.zmax)) for t in range(T)]
    )
    tenants = []
    for k in range(len(BLOCK_TENANTS)):
        noise = np.random.default_rng(100 + k).uniform(-0.15, 0.15, T)
        demand = np.maximum(base.demand * (1.0 + noise), 0.05)
        if stream == "shed":
            demand = demand * (1.25 / np.max(demand / capacity))
        else:
            demand = np.minimum(demand, 0.95 * capacity)
        served = np.where(demand > capacity + 1e-9, capacity, demand)
        tenants.append(
            (base.with_demand(demand, name=f"t{k}"), base.with_demand(served, name=f"s{k}"))
        )
    return tenants


def _block_engine(engine, tenants, stream):
    degradation = "shed" if stream == "shed" else "strict"
    for (name, algorithm, kwargs), (instance, _) in zip(BLOCK_TENANTS, tenants):
        if callable(algorithm):
            algorithm = algorithm()
        engine.add_tenant(
            name, algorithm, InstanceFeed(instance), degradation=degradation, **kwargs
        )
    engine.run(max_ticks=BLOCK_T // 2, finalize=False)
    for name in list(engine.tenants):
        engine.roundtrip_tenant(name)
    engine.run()
    return engine


def _dispatch_total(engine, field):
    return sum(getattr(cache.dispatcher.stats, field) for cache in engine.caches)


class TestRoundBlock:
    @pytest.mark.parametrize("stream", ["continuous", "shed"])
    @pytest.mark.parametrize("fleet", BLOCK_FLEETS)
    def test_blocked_rounds_decide_as_unblocked_ones(self, fleet, stream):
        """A shared-cache engine, whose rounds block, decides every tenant
        exactly as isolated caches (never blocked) and batch run_online do,
        under every budget and across a mid-stream round-trip; and it runs
        the unique solves of the same engine fed one arrival at a time."""
        tenants = _block_streams(fleet, stream)
        references = [
            run_online(served, build_serve_algorithm(algorithm() if callable(algorithm) else algorithm))
            for (_, algorithm, _), (_, served) in zip(BLOCK_TENANTS, tenants)
        ]
        isolated = _block_engine(ServeEngine(share_caches=False), tenants, stream)
        for kwargs in BLOCK_ENGINE_KWARGS:
            blocked = _block_engine(ServeEngine(**kwargs), tenants, stream)
            single = _block_engine(_OneArrivalPerResolve(**kwargs), tenants, stream)
            for (name, _, _), reference in zip(BLOCK_TENANTS, references):
                label = f"{fleet}/{stream}/{kwargs}/{name}"
                session = blocked.session(name)
                assert_same(reference, session, label=label + " vs run_online", tolerance=1e-9)
                assert_same(isolated.session(name), session, label=label + " vs isolated", tolerance=0.0)
                assert_same(single.session(name), session, label=label + " vs unblocked", tolerance=0.0)
            assert _dispatch_total(blocked, "unique_solves") == _dispatch_total(
                single, "unique_solves"
            ), f"{fleet}/{stream}/{kwargs}"
            if not kwargs and fleet != "callable-d2":
                assert _dispatch_total(blocked, "block_calls") < _dispatch_total(
                    single, "block_calls"
                )

    def test_grid_tensors_install_what_grid_tensor_computes(self):
        """A block installs, bit for bit, the tensor each slot's own
        grid_tensor computes on a fresh cache, and those queries then hit;
        bisection rows stay out of blocks."""
        instance = build("diurnal-cpu-gpu", T=8)
        cache = ServeCache(instance.server_types)
        grid = StateGrid.full(instance.m)
        vts = [cache.virtual_slot_base(float(v)) for v in instance.demand[:5]]
        assert cache.grid_tensors(vts, grid) == set(vts)
        assert cache.dispatcher.stats.block_calls == 1
        assert cache.grid_tensors(vts, grid) == set()  # nothing left missing
        for vt, demand in zip(vts, instance.demand[:5]):
            alone = ServeCache(instance.server_types)
            expected = alone.grid_tensor(alone.virtual_slot_base(float(demand)), grid)
            hits = cache.tensor_hits
            assert np.array_equal(cache.grid_tensor(vt, StateGrid.full(instance.m)), expected)
            assert cache.tensor_hits == hits + 1
        bisecting = ServeCache(_callable_d2(8).server_types)
        vts = [bisecting.virtual_slot_base(float(v)) for v in (1.0, 2.0, 3.0)]
        assert bisecting.grid_tensors(vts, StateGrid.full([3, 2])) == set()
        assert bisecting.dispatcher.stats.block_calls == 0

    @pytest.mark.parametrize(
        "algorithm",
        [*SERVE_ALGORITHMS, {"kind": "A", "params": {"gamma": 2.0}},
         {"kind": "reactive", "params": {}}],
    )
    def test_evaluation_grid_covers_every_step_query(self, algorithm):
        """Every configuration a step sends to solve_block lies in the
        algorithm's evaluation grid, across a change of the fleet counts."""
        instance = build("time-varying-m", T=12)
        session = ControllerSession(algorithm, instance.server_types)
        dispatcher = session.cache.dispatcher
        solve_block = dispatcher.solve_block
        sent = []

        def recording(ts, configs, memoise=True):
            sent.append(np.array(configs))
            return solve_block(ts, configs, memoise=memoise)

        for t in range(instance.T):
            demand, served, shed, counts_t, vt, slot = session.prepare_tick(
                instance.demand[t], counts=instance.counts_at(t)
            )
            sent.clear()
            dispatcher.solve_block = recording
            rounded, r_list, forced = session.decide_tick(slot, counts_t)
            dispatcher.solve_block = solve_block
            session.commit_tick(demand, served, shed, vt, rounded, r_list, forced)
            grid = session.algorithm.evaluation_grid(counts_t)
            if grid is None:
                assert not sent
                continue
            members = {tuple(row) for row in grid.configs().tolist()}
            for configs in sent:
                assert {tuple(row) for row in configs.astype(int).tolist()} <= members
        assert len({tuple(c) for c in (instance.counts_at(t) for t in range(12))}) > 1

    def test_custom_and_all_on_name_no_grid(self):
        counts = np.array([3, 2])
        assert _FullGridGreedy().evaluation_grid(counts) is None
        assert build_serve_algorithm("all-on").evaluation_grid(counts) is None

    def test_block_wall_is_charged_to_its_members(self, monkeypatch):
        """A solve_block slowed by 2 ms on multi-slot calls makes every tick
        of a 4-tenant cold round take at least its 0.5 ms share."""
        tenants = _block_streams("diurnal-cpu-gpu", "continuous", T=6)
        engine = ServeEngine()
        for k, (instance, _) in enumerate(tenants[:4]):
            engine.add_tenant(f"t{k}", "A", InstanceFeed(instance))
        (cache,) = engine.caches
        solve_block = cache.dispatcher.solve_block
        blocks = []

        def slow(ts, configs, memoise=True):
            if len(ts) > 1:
                blocks.append(len(ts))
                time.sleep(0.002)
            return solve_block(ts, configs, memoise=memoise)

        monkeypatch.setattr(cache.dispatcher, "solve_block", slow)
        engine.run()
        assert blocks == [4] * 6
        for session in engine.sessions:
            assert session.latencies_ns.min() >= 500_000

    def test_a_rejected_tick_raises_in_its_turn(self):
        """The block skips a tick that observe rejects, so the error still
        surfaces at that tenant, after the ticks before it committed."""
        fleet = build("diurnal-cpu-gpu", T=4).server_types
        streams = {"a": [1.1, 2.2, 3.3], "b": [1.2, -1.0, 3.4], "c": [1.3, 2.3, 3.5]}
        for engine in (ServeEngine(), _OneArrivalPerResolve()):
            for name, demand in streams.items():
                engine.add_tenant(name, "A", ArrayFeed(demand, server_types=fleet))
            with pytest.raises(ValueError, match="non-negative"):
                engine.run()
            assert [session.ticks for session in engine.sessions] == [2, 1, 1]

    @pytest.mark.parametrize(
        "kinds, streams, match, ticks",
        [
            (["C", "A", "A"], [[1.1, -1.0, 3.3], [1.2, 2.2, 3.4], [1.3, 2.3, 3.5]],
             "non-negative", [1, 1, 1]),
            (["reactive"] * 3, [[1.1, 2.2, 3.3], [1.2, 99.0, 3.4], [1.3, 2.3, 3.5]],
             "exceeds the fleet capacity", [2, 1, 1]),
        ],
        ids=["C-first", "strict-over-capacity"],
    )
    def test_rejected_ticks_raise_in_arrival_order(self, kinds, streams, match, ticks):
        """Every tick is admitted before any session state changes: a rejected
        tick ahead of a cohort, or a cohort member over a strict capacity,
        raises in its turn, and no later tenant's tick commits."""
        fleet = build("diurnal-cpu-gpu", T=4).server_types
        for engine in (ServeEngine(), _OneArrivalPerResolve()):
            for k, (kind, demand) in enumerate(zip(kinds, streams)):
                engine.add_tenant(f"t{k}", kind, ArrayFeed(demand, server_types=fleet))
            with pytest.raises(ValueError, match=match):
                engine.run()
            assert [session.ticks for session in engine.sessions] == ticks

    def test_warm_rounds_solve_nothing(self, monkeypatch):
        """After prewarm on a quantised fleet no round blocks or solves, and
        the round builds no evaluation grid: the O(1) warm check answers."""
        instance = build("diurnal-cpu-gpu", T=24)
        demand = quantise_trace(instance.demand, levels=6)
        engine = ServeEngine()
        for k, kind in enumerate(["A", "B", "lcp", "A"]):
            engine.add_tenant(
                f"t{k}", kind,
                InstanceFeed(instance.with_demand(np.roll(demand, k), name=f"t{k}")),
            )
        engine.prewarm(sorted({float(v) for v in demand}))
        asked = []
        for session in engine.sessions:
            monkeypatch.setattr(
                session.algorithm, "evaluation_grid", lambda counts: asked.append(counts)
            )
        (cache,) = engine.caches
        before = cache.dispatcher.stats.block_calls
        engine.run()
        assert cache.dispatcher.stats.block_calls == before
        assert not asked


def _spy_queries(monkeypatch, dispatcher):
    """Record the name of every dispatcher query (``solve``/``solve_grid``/``solve_block``)."""
    calls = []
    for name in ("solve", "solve_grid", "solve_block"):
        method = getattr(dispatcher, name)

        def spy(*args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(dispatcher, name, spy)
    return calls


class TestBlockReads:
    """A configuration's first answer and Algorithm C's repair read the slot's
    solved grid block; the solver answers only where the block cannot."""

    @pytest.mark.parametrize("fleet", ["diurnal-cpu-gpu", "priced-cpu-gpu", "time-varying-m"])
    def test_block_answers_equal_a_fresh_solver(self, fleet, monkeypatch):
        """For every configuration of each slot's grid (piece rows, ScaledCost
        price rows, time-varying counts) the cache reads the answer from the
        block, with no query, and it is the fresh solver's: cost by repr,
        loads by bytes."""
        from repro.dispatch import DispatchSolver

        instance = build(fleet, T=6)
        cache = ServeCache(instance.server_types)
        calls = _spy_queries(monkeypatch, cache.dispatcher)
        for t in range(instance.T):
            vt = cache.virtual_slot(float(instance.demand[t]), instance.cost_row(t))
            grid = StateGrid.full(instance.counts_at(t))
            cache.grid_tensor(vt, grid)
            calls.clear()
            gathers = cache.table_gathers
            fresh = DispatchSolver(instance)
            for config in grid.configs():
                got = cache.solve_config(vt, np.array(config))
                want = fresh.solve(t, config)
                assert repr(got.cost) == repr(want.cost), (fleet, t, config)
                assert got.loads.tobytes() == want.loads.tobytes(), (fleet, t, config)
                assert got.feasible == want.feasible
            assert calls == [], (fleet, t)
            assert cache.table_gathers == gathers + grid.size
            costs = cache.block_costs(vt, grid, grid.configs()[::-1])
            assert np.array_equal(costs, cache.grid_tensor(vt, grid).reshape(-1)[::-1])

    def test_a_record_on_another_grid_answers_only_through_that_grid(self):
        """Once a wider grid's solve replaces a slot's record, the narrower
        grid's tensor no longer locates its rows: the commit reads the wider
        block (the fresh solver's loads), and C's reader on the narrower grid
        says no."""
        fleet = build("diurnal-cpu-gpu", T=4).server_types
        cache, alone = ServeCache(fleet), ServeCache(fleet)
        vt, alone_vt = cache.virtual_slot_base(2.5), alone.virtual_slot_base(2.5)
        small, full = StateGrid.full([3, 1]), StateGrid.full([5, 2])
        cache.grid_tensor(vt, small)
        cache.grid_tensor(vt, full)  # the wider set becomes the record
        assert cache.block_costs(vt, small, small.configs()) is None
        wide = cache.grid_tensor(vt, full).reshape(-1)
        index = full.flat_index(small.configs())
        assert np.array_equal(cache.block_costs(vt, full, small.configs()), wide[index])
        for config in small.configs():
            got = cache.solve_config(vt, np.array(config))
            want = alone.dispatcher.solve(alone_vt, config)
            assert repr(got.cost) == repr(want.cost)
            assert got.loads.tobytes() == want.loads.tobytes()

    def test_bisection_rows_gamma_grids_and_budgeted_caches_take_the_solver(self, monkeypatch):
        """CallableCost rows (no record: their cells depend on the block),
        configurations off a gamma grid, and a tensor-budgeted cache (no fast
        tensors) keep the solver query in both readers."""
        bisecting = _callable_d2(4)
        fleet = build("diurnal-cpu-gpu", T=4)
        geometric = StateGrid.geometric(fleet.m, 2.0)  # no 3 servers of type 0
        cases = [
            (ServeCache(bisecting.server_types), StateGrid.full(bisecting.m), [2, 1]),
            (ServeCache(fleet.server_types), geometric, [3, 1]),
            (ServeCache(fleet.server_types, tensor_budget_bytes=1 << 20),
             StateGrid.full(fleet.m), [2, 1]),
        ]
        for cache, grid, config in cases:
            vt = cache.virtual_slot_base(2.5)
            cache.grid_tensor(vt, grid)
            calls = _spy_queries(monkeypatch, cache.dispatcher)
            gathers = cache.table_gathers
            configs = np.array([[0, 1], config])
            assert cache.block_costs(vt, grid, configs) is None
            cache.solve_config(vt, np.array(config))
            assert calls[0] == "solve" and cache.table_gathers == gathers
        # on the gamma grid, a configuration that lies on it is read from the block
        cache = cases[1][0]
        calls = _spy_queries(monkeypatch, cache.dispatcher)
        cache.solve_config(cache.virtual_slot_base(2.5), np.array([4, 1]))
        assert calls == []

    def test_one_cold_continuous_round_makes_one_block_call(self, monkeypatch):
        """A cold continuous round of A, B, C, lcp and reactive asks the
        dispatcher exactly one solve_block: the round's block.  Commits and
        C's repair read it."""
        fleet = build("diurnal-cpu-gpu", T=4).server_types
        engine = ServeEngine()
        for k, kind in enumerate(["A", "B", "C", "lcp", "reactive"]):
            demand = build("diurnal-cpu-gpu", T=4, seed=k + 1).demand
            engine.add_tenant(kind, kind, ArrayFeed(demand, server_types=fleet))
        (cache,) = engine.caches
        calls = _spy_queries(monkeypatch, cache.dispatcher)
        for round_ in range(4):
            calls.clear()
            assert engine.play_round()
            assert calls == ["solve_block"], round_
        assert [session.ticks for session in engine.sessions] == [4] * 5

    @pytest.mark.parametrize("family", scenarios.names())
    def test_sessions_with_gamma_trackers_equal_run_online(self, family):
        """A- and C-gamma tenants, whose configurations may leave the gamma
        grid, replay bit for bit as batch run_online."""
        instance = _smoke_instance(family)
        for algorithm in ({"kind": "A", "params": {"gamma": 2.0}},
                          {"kind": "C", "params": {"gamma": 2.0}}):
            reference = run_online(instance, build_serve_algorithm(algorithm))
            session = replay(
                ControllerSession(algorithm, instance.server_types), InstanceFeed(instance)
            )
            assert_same(reference, session, label=f"{family}/{algorithm}", tolerance=1e-9)

    def test_c_without_a_grid_evaluator_repairs_through_operating_cost(self):
        """Slots with no grid evaluator and no block reader: C's repair asks
        operating_cost once per slot for its distinct sub-slot configurations,
        and decides as run_online's block-reading C does."""
        import dataclasses

        from repro.online import AlgorithmC
        from repro.online.base import SlotContext

        instance = build("priced-cpu-gpu", T=10)
        context = SlotContext(instance)
        sizes = []
        algorithm = AlgorithmC(epsilon=0.1)
        algorithm.start(context.context)
        chosen = []
        for t in range(instance.T):
            slot = context.slot(t)

            def evaluator(configs, _slot=slot):
                sizes.append(len(configs))
                return _slot.operating_cost(configs)

            bare = dataclasses.replace(
                slot, _evaluator=evaluator, _grid_evaluator=None, _block_costs=None
            )
            before = len(sizes)
            chosen.append(algorithm.step(bare))
            n_t = algorithm.last_decision.sub_slots
            grid_size = StateGrid.full(instance.counts_at(t)).size
            asked = sizes[before:]
            assert asked[:n_t] == [grid_size] * n_t
            assert len(asked) == n_t + 1 and 1 <= asked[-1] <= n_t
        reference = run_online(instance, AlgorithmC(epsilon=0.1))
        assert np.array_equal(np.array(chosen), reference.schedule.x)

    def test_checkpointed_slot_contexts_read_no_block(self):
        """Unmemoised (windowed) providers record no solved set, so their
        slots' block reader says no; an unwindowed context's reads the tensor."""
        from repro.online.base import SlotContext

        instance = build("diurnal-cpu-gpu", T=6)
        grid = StateGrid.full(instance.m)
        configs = grid.configs()[:3]
        windowed, whole = SlotContext(instance, window=2), SlotContext(instance)
        for context in (windowed, whole):
            context.slot(1).grid_operating_cost(grid)
        assert windowed.slot(1).block_costs(grid, configs) is None
        tensor = whole.slot(1).grid_operating_cost(grid).reshape(-1)
        assert np.array_equal(whole.slot(1).block_costs(grid, configs), tensor[:3])


class TestDispatcherMemoBound:
    def test_continuous_ticks_build_one_volume_table_per_grid(self):
        """1,000 continuous ticks of A, B, C, lcp and reactive through one
        engine solve a block per round, yet build one volume table per
        (cost row, grid)."""
        T = 1000
        fleet = build("diurnal-cpu-gpu", T=T).server_types
        engine = ServeEngine()
        for k, kind in enumerate(["A", "B", "C", "lcp", "reactive"]):
            demand = build("diurnal-cpu-gpu", T=T, seed=k + 1).demand
            engine.add_tenant(kind, kind, ArrayFeed(demand, server_types=fleet), history=False)
        engine.run()
        (cache,) = engine.caches
        dispatcher = cache.dispatcher
        assert dispatcher.stats.unique_solves >= T
        grid = StateGrid.full(cache.stream.m)
        rows = {sig[1] for sig, _ in dispatcher._sig_cache.values()}
        assert set(dispatcher._tables) == {
            (row, dispatcher._configs_key(grid.configs())) for row in rows
        }

    @pytest.mark.parametrize("T", [256, 1024])
    def test_ledger_budget_bounds_the_dispatcher_memos(self, T):
        """Evicting a ledger slot forgets its signature's dispatch memos, so
        under ledger_budget they stay flat on a continuous stream."""
        budget = 8
        base = build("diurnal-cpu-gpu", T=T, seed=0)
        engine = ServeEngine(ledger_budget=budget, tensor_budget_bytes=0)
        instances = []
        for k, kind in enumerate(["A", "reactive"] * 3):
            instance = base.with_demand(build("diurnal-cpu-gpu", T=T, seed=k + 1).demand)
            instances.append((f"t{k}", kind, instance))
            engine.add_tenant(f"t{k}", kind, InstanceFeed(instance))
        engine.run()
        (cache,) = engine.caches
        dispatcher = cache.dispatcher
        grid_size = StateGrid.full(base.m).size
        assert len(dispatcher._sig_cache) <= budget
        for memo in (dispatcher._cache, dispatcher._block_cache, dispatcher._solved):
            assert len(memo) <= budget
        # per signature: one entry per configuration set and scale it was asked
        for memo in (dispatcher._cache, dispatcher._block_cache):
            assert sum(len(entries) for entries in memo.values()) <= budget * (grid_size + 1)
        for name, kind, instance in instances:
            assert_same(
                run_online(instance, build_serve_algorithm(kind)), engine.session(name),
                label=name, tolerance=1e-9,
            )


# --------------------------------------------------------------------------- #
# Telemetry helpers
# --------------------------------------------------------------------------- #


class TestTelemetry:
    def test_null_writer_discards(self):
        writer = TelemetryWriter(None)
        writer.write({"t": 0})
        assert writer.rows_written == 0

    def test_latency_percentiles_shape(self):
        summary = latency_percentiles([1_000_000] * 10)
        assert summary["ticks"] == 10
        assert summary["p50_ms"] == pytest.approx(1.0)
        assert latency_percentiles([]) == {"ticks": 0}

    def test_summarise_sessions_throughput(self):
        instance = build("homogeneous", T=5)
        session = ControllerSession("A", instance.server_types)
        for t in range(5):
            session.observe(float(instance.demand[t]))
        summary = summarise_sessions([session], wall_seconds=0.5)
        assert summary["total_ticks"] == 5
        assert summary["ticks_per_second"] == pytest.approx(10.0)
        assert summary["tenants_per_second"] == pytest.approx(2.0)


# --------------------------------------------------------------------------- #
# The serve benchmark's deterministic gates
# --------------------------------------------------------------------------- #


class TestServeBench:
    def test_bench_gates_and_payload(self):
        from repro.bench import run_serve_bench

        payload = run_serve_bench(tenant_counts=(1, 4), ticks=12)
        assert payload["tenant_counts"] == [1, 4]
        assert len(payload["rows"]) == 4  # two modes per tenant count
        for row in payload["comparisons"]:
            assert row["max_cost_deviation"] <= 1e-9
        four = next(r for r in payload["comparisons"] if r["tenants"] == 4)
        assert four["unique_solves_shared"] < four["unique_solves_isolated"]
        assert four["tensor_hits_shared"] > four["tensor_hits_isolated"]
