PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-smoke bench-sweep bench-scale bench-serve bench-fabric bench-latency-smoke bench-batch-smoke bench-batch-scale bench-perfbench bench-dispatch perf-regress scenarios-smoke serve-smoke chaos-smoke fabric-smoke watch-smoke perfbench-smoke figures-smoke loc

# warnings are errors: the suite runs warning-free and stays that way; -X dev
# adds the interpreter's debug checks (unclosed files, asyncio debug mode)
test:
	$(PYTHON) -X dev -m pytest -x -q -W error

# <60s regression harness: solves three pinned instances and asserts the DP
# still returns seed-identical optimal costs (guards the batched dispatch
# engine against accuracy drift), runs the sweep-engine gate, and gates the
# streaming DP (checkpointed backtracking == all-tables at 1e-9) on the quick
# scale instances.
bench-smoke: perf-regress
	$(PYTHON) -m repro bench --smoke
	$(PYTHON) -m repro bench --scale

# Shared-context sweep engine over the combined THM8+13+15+22 workload;
# writes benchmarks/output/BENCH_sweep.json (costs, ratios, wall times).
bench-sweep:
	$(PYTHON) -m repro bench --sweep --json benchmarks/output/BENCH_sweep.json

# Streaming-DP scale suite at the headline sizes (T up to 50000, d=4 fleets
# with m_j up to 10^4 on geometric grids); gates streaming == all-tables at
# 1e-9 and writes benchmarks/output/BENCH_scale.json (wall + peak memory).
bench-scale:
	$(PYTHON) -m repro bench --scale --full --json benchmarks/output/BENCH_scale.json

# Performance-regression gate: re-runs the combined workload and compares
# every cost field against the pinned PR-1 reference (exact to 1e-6), then
# re-runs the pinned serve workload cold / prewarmed, plus a cold
# continuous-demand replay (A, B, C, lcp, reactive), and compares every
# hot-path work counter (unique solves, tensor hits, table gathers, ...)
# against its pinned value exactly.  Wall times are advisory-only —
# machines differ — and the gate does not rewrite the committed
# BENCH_sweep.json (use `make bench-sweep` to refresh it).
perf-regress:
	$(PYTHON) -m repro bench --sweep
	$(PYTHON) -m repro bench --counters

# Microsecond-tick latency gate: repeated fresh sessions over one prewarmed
# shared cache; the p99 of the per-tick floor (elementwise minimum across
# repeats — cancels additive OS scheduler noise, see PERFORMANCE.md) must
# beat 50us x BUDGET_SCALE, with every repeat's schedule bit-identical to the
# cold path and the stream cost pinned.  CI runs this with a generous
# BUDGET_SCALE because shared runners are noisy; the committed
# BENCH_serve.json "latency" section records a scale-1.0 local run.
BUDGET_SCALE ?= 1.0
bench-latency-smoke:
	$(PYTHON) -m repro serve latency --budget-us 50 --budget-scale $(BUDGET_SCALE)

# Cohort gate: a 64-tenant mixed-family, mixed-algorithm fleet (with chaos
# tenants and a mid-stream checkpoint/restore) run through ServeEngine's
# cohort rounds must reproduce each tenant's own session replay (per-tenant
# replays, which run no round) bit-identically, exercise both the vectorised
# and fallback paths, and keep the batched per-tenant p99 within budget (the
# grid solves of first-seen demand levels included, hence the millisecond
# default — the scale sweep gates the microsecond steady state).
bench-batch-smoke:
	$(PYTHON) -m repro serve batch --budget-scale $(BUDGET_SCALE)

# Cohort scale gate: 64 / 1k / 10k tenants through ServeEngine rounds
# against per-tenant session replays (bit-identity, >= 5x throughput at 1k+
# tenants, p99 tick budget, flat cache footprint); merges its batch_scale
# section into benchmarks/output/BENCH_serve.json.  Takes about 85 s on a
# 2-vCPU VM (83 and 86 s measured); CI does not run it.  The throughput ratio
# moves with the host's load (ROADMAP item 5).
bench-batch-scale:
	$(PYTHON) -m repro serve bench --batched --json benchmarks/output/BENCH_serve.json

# Benchmark self-check: one short run of each perfbench workload, untraced
# and traced.  Every pass re-checks its schedules against run_online (the
# engine's cohort rounds at 200 tenants included), the Thm 8/13/15 bounds
# against solve_dp, and its work counters against the first pass.  The traced
# run wraps every function perfbench's trace_targets() names, so it also
# fails when one of them is renamed or deleted, or a span escapes its
# parent.  run.py exits 0 even when a check fails, so the gate reads
# "correct" from the JSON on its last line and prints the run's "# FAIL"
# lines when it is not true.
PERFBENCH_WORKLOADS := fleet-steady continuous-cold offline-plan
perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do for trace in 0 1; do \
		out=$$($(PYTHON) perfbench/run.py --workload $$w --seconds 1 --trace $$trace) || { echo "$$out"; exit 1; }; \
		if ! echo "$$out" | tail -n 1 | $(PYTHON) -c 'import json, sys; sys.exit(json.loads(sys.stdin.read()).get("correct") is not True)'; then \
			echo "$$out" | grep '^# FAIL'; \
			echo "$$out" | tail -n 1; \
			echo "perfbench-smoke: $$w (trace $$trace) failed its checks"; \
			exit 1; \
		fi; \
		echo "perfbench-smoke: $$w (trace $$trace) correct"; \
	done; done

# Dispatch-throughput trend: the grid-evaluation, min-plus and exact-solve
# microbenchmarks of benchmarks/bench_dispatch_throughput.py; refreshes
# benchmarks/output/BENCH_dispatch.json (one headline appended to its runs
# series) and the SCALE_dispatch_throughput / SCALE_offline_solver tables.
# Takes about 10 s; CI does not run it.
bench-dispatch:
	cd benchmarks && $(PYTHON) -m pytest -q --benchmark-only -p no:cacheprovider \
		bench_dispatch_throughput.py

# Repository-benchmark trend: one `perfbench/run.py --seconds 25` run of each
# workload, whose end-to-end metrics plus correct/failed are appended,
# env-stamped, to the runs series of benchmarks/output/BENCH_perfbench.json
# (one section and one headline per workload; `repro bench --latest` shows
# them).  Takes about 35 s on a 2-vCPU VM; CI does not run it.  A run
# whose checks fail fails the target.
bench-perfbench:
	$(PYTHON) -m repro bench --perfbench --json benchmarks/output/BENCH_perfbench.json

# Paper-artifact gate: regenerate Figures 1-3 (Algorithm A's trace, the block
# decomposition, Algorithm B's trace with its W_t sets), the THM8/13/15/16/22
# ratio tables and the baseline comparison, and fail on any difference from
# the committed artifacts in benchmarks/output/.  The tables run solve_dp,
# the sweep engine's shared value stream (run_plan) and receding-horizon
# control, so they pin every consumer of the DP's value history byte for
# byte; none of them prints a timing.
FIGURES := FIG1_algorithm_a FIG2_blocks FIG3_algorithm_b THM8_algorithm_a_ratio \
	THM13_algorithm_b_ratio THM15_algorithm_c_ratio THM16_approx_quality \
	THM22_time_varying_m COMP_baselines
figures-smoke:
	cd benchmarks && $(PYTHON) -m pytest -q --benchmark-only -p no:cacheprovider \
		bench_fig1_algorithm_a.py bench_fig2_blocks.py bench_fig3_algorithm_b.py \
		bench_thm8_algorithm_a_ratio.py bench_thm13_algorithm_b_ratio.py \
		bench_thm15_algorithm_c_ratio.py bench_thm16_approx_quality.py \
		bench_thm22_time_varying_m.py bench_comparison_baselines.py
	git diff --exit-code -- $(FIGURES:%=benchmarks/output/%.txt)

# Source size as CHANGES.md entries report it: lines of src/**/*.py.
loc:
	@find src -name '*.py' -exec cat {} + | wc -l

# Observability gate: a short traced, regret-tracked replay writes per-tick
# telemetry (rows carry prefix_optimum_cost and regret), a Chrome trace and
# the summarise_sessions payload; `repro serve watch` must
# then reproduce that summary from the telemetry file alone, equality-exact
# (--expect diffs key by key and exits non-zero on any deviation).  The
# artifacts are removed first because telemetry appends.
WATCH_DIR := benchmarks/output/watch-smoke
watch-smoke:
	rm -rf $(WATCH_DIR)
	$(PYTHON) -m repro serve replay --scenario diurnal-cpu-gpu --param T=64 --regret \
		--telemetry $(WATCH_DIR)/telemetry.jsonl \
		--trace $(WATCH_DIR)/trace.json \
		--json $(WATCH_DIR)/replay.json
	$(PYTHON) -m repro serve watch $(WATCH_DIR)/telemetry.jsonl --once \
		--json - --expect $(WATCH_DIR)/replay.json

# Scenario-registry gate: build every registered scenario family at a tiny
# size and run one online algorithm through each (validates the declarative
# layer end to end: spec -> registry -> lazy materialisation -> engine).
scenarios-smoke:
	$(PYTHON) -m repro scenarios smoke

# Serve-layer gate: every registered scenario family replayed tick by tick
# through a ControllerSession — including a mid-stream checkpoint/restore
# round-trip serialised through JSON — must reproduce the batch run_online
# schedule exactly and its total cost to 1e-9.
serve-smoke:
	$(PYTHON) -m repro serve smoke

# Chaos gate: every chaos-* family plus targeted single-kind fault injections
# replayed under an injected event plan in shed mode — streams must complete
# without raising, account SLA violations in the telemetry, and be
# bit-identical (schedules + counters) across a checkpoint/restore round-trip.
chaos-smoke:
	$(PYTHON) -m repro serve chaos

# Fabric gate: a small sharded fabric (supervised worker processes) with one
# injected worker SIGKILL mid-stream — including a case where the kill lands
# inside an open chaos capacity-drop window with Algorithm B power-up records
# live, and one with every worker cache under ledger_budget=2 — must recover
# every tenant from its rotated checkpoints with bit-identical schedules,
# costs within 1e-9, and exact SLA counters.
fabric-smoke:
	$(PYTHON) -m repro serve fabric --smoke

# Multi-tenant serving benchmark: latency percentiles + tenants/sec for
# 1/8/64 concurrent sessions, shared vs isolated caches; gates cost equality
# and real work deduplication, writes benchmarks/output/BENCH_serve.json.
bench-serve:
	$(PYTHON) -m repro serve bench --json benchmarks/output/BENCH_serve.json

# Fabric benchmark: healthy-path p99 tick latency across worker processes +
# crash-to-recovered latency under an injected SIGKILL (gated on bit-identical
# recovery); merges a "fabric" section into benchmarks/output/BENCH_serve.json.
bench-fabric:
	$(PYTHON) -m repro serve fabric --bench --json benchmarks/output/BENCH_serve.json

# full benchmark harness (regenerates the paper artifacts + BENCH_*.json)
bench:
	cd benchmarks && $(PYTHON) -m pytest bench_*.py -q --benchmark-only
