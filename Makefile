# Development targets. `make ci` is the gate every change must pass.
#
# `ci` ordering: cheap structural gates first (build, test, fmt, clippy),
# then the determinism gates in increasing cost — lint (static: runs its
# own selftests, then lints the live tree and byte-compares the JSON report
# against goldens/lint_baseline.json) before check (dynamic: full
# pinned-seed sweeps of every golden family). Within check, the
# single-calendar families (obs, faults) run before the sharded ones
# (grid, prof, serve), so a plain determinism break surfaces in the
# cheaper gates first and a sharded-only failure points straight at the
# shard or profiling layer. A static violation fails in seconds instead
# of after a minute of simulation.

CARGO ?= cargo

.PHONY: ci build test fmt clippy lint lint-selftest check bench bench-gate

ci: build test fmt clippy lint check

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --all-targets -- -D warnings

# Determinism lint: lexes and parses every workspace source, forbids
# wall-clock time, unseeded RNGs, hash-map iteration, unwrap/panic and
# prints in hot paths, floats and lossy casts in the event loop, sweeps
# that bypass SweepRunner — and proves, over the call graph, that no
# hot-path root reaches a nondeterminism source. The JSON report lands in
# target/lint.json and must byte-match goldens/lint_baseline.json (zero
# findings). Runs the lint crate's own selftests first: a linter that
# no longer fires on its known-bad fixtures is a green light worth
# nothing. See crates/lint.
lint: lint-selftest
	mkdir -p target
	$(CARGO) run --release -q -p tengig-lint -- --json . > target/lint.json
	$(CARGO) run --release -q -p tengig-lint -- --baseline goldens/lint_baseline.json .

lint-selftest:
	$(CARGO) test -q -p tengig-lint

# Determinism golden gate (see crates/bench/src/check_main.rs): every
# family recomputes its pinned documents on 1 and 4 sweep threads, which
# must be byte-identical, and byte-compares them against goldens/:
#   obs     metrics on and off: both reports match obs_throughput.jsonl
#           (the side-channel never touches the primary bytes), the
#           timeline sidecar is thread-gated only;
#   faults  burst, flap and chaos reports vs faults_*.jsonl;
#   grid    the sharded fabric sweep vs grid.jsonl;
#   prof    the "sim" profiling sidecar vs prof_throughput.jsonl, and the
#           profiled report vs grid.jsonl;
#   serve   FCT/goodput report plus CPU-saturation sidecar vs serve.jsonl.
# grid, prof and serve run at shards 1, 2 and 4 (the CI check matrix)
# against the same goldens, which are shard-count-invariant by
# construction. On mismatch each family
# writes its divergent documents to target/<family>_current.jsonl.
# Regenerate a family's goldens deliberately with
# `tengig-check FAMILY --write-golden`.
check:
	$(CARGO) run --release -q -p tengig-bench --bin tengig-check -- obs faults
	$(CARGO) run --release -q -p tengig-bench --bin tengig-check -- grid prof serve --shards 1
	$(CARGO) run --release -q -p tengig-bench --bin tengig-check -- grid prof serve --shards 2
	$(CARGO) run --release -q -p tengig-bench --bin tengig-check -- grid prof serve --shards 4

# Refresh the wall-clock benchmark baseline: runs the fixed pinned-seed
# workload per experiment family and rewrites BENCH_sim.json in place.
# Commit the result to claim a performance win (or accept a justified
# regression).
bench:
	$(CARGO) run --release -p tengig-bench --bin tengig-bench -- --out BENCH_sim.json

# Gate the current tree against the checked-in baseline: events/sec per
# family must stay within ±15% of BENCH_sim.json (both directions), and
# event/byte counts must match exactly. The fresh run is written next to
# the baseline for inspection, never over it.
bench-gate:
	$(CARGO) run --release -p tengig-bench --bin tengig-bench -- \
		--out target/BENCH_current.json --check BENCH_sim.json
