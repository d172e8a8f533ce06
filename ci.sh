#!/usr/bin/env bash
# Full CI gate for the workspace. Tier-1 (build + tests) plus style and
# lint checks, release-mode soundness reruns, deletion guards, named reruns
# of the property sweeps, and one smoke run each of an example, every
# figure driver (`atmem_run all` on shrunk datasets) and the repo benchmark
# (`benchmark/` + BENCHMARK.json — the one place host speed is measured and
# compared; nothing here gates on wall-clock). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# Every grep guard below goes through this. Plain `if grep …` reads grep's
# exit status 2 (a listed file or directory does not exist) as "no match",
# so a guard naming a deleted file would pass whatever the other files
# hold: here a match returns 0, no match returns 1, and anything else
# fails the gate.
guard_grep() {
  local status=0
  grep "$@" || status=$?
  if [ "$status" -gt 1 ]; then echo "guard could not read its files (grep exit $status): grep $*" >&2; exit 1; fi
  return "$status"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: no broken, ambiguous or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> release-mode soundness (window and scalar bounds, u32 guards, page bounds, mapping overlap, LLC geometry and tag width, staging ownership stay hard checks; the generated datasets stay the pinned ones)"
# The window engine's bounds and index-width guards, the mapping table's
# overlap guard and the LLC's associativity and tag-width guards are plain
# asserts, not debug_assert!: they must fire in optimized builds too, where
# an out-of-range index would otherwise silently alias another element, a
# second mapping of a page would silently redirect its translations, and a
# truncated LLC tag would silently alias another line. The staging-run
# ownership checks of the migration primitives are the same kind: a copy
# to or from a run that is not outstanding staging, a replay past the
# staged bytes, and a second free must be refused in optimized builds, or
# a migration would silently install stale bytes or free a mapped frame.
# A staged region's source frames stay pinned until the replay moves them
# off: a fresh allocation or an mbind page copy landing on one must panic
# in optimized builds, or it would silently overwrite the staged bytes, and
# a second staging run must be refused frames another run has staged, or
# its replay would read a page the first one handed away.
# Tier storage is one 4 KiB page of host memory per mapped or pinned frame:
# an access to a page nothing backs, or a slice running off the end of one
# into its neighbour in the slab, must panic in optimized builds — it is
# the check the one unsafe seam's pointer arithmetic rests on. And host
# memory must be exactly those pages, with no staged or mbind page move
# copying a byte, through rounds of migrations of unaligned regions.
# A scalar TrackedVec access (get, set, update, peek, poke) past the end,
# and an unaccounted run read past it, must panic naming the vec in
# optimized builds too: the allocation is whole pages, so the address would
# otherwise land in its tail padding and be charged without an error.
# An adopted array's whole pages are the caller's buffer itself: every
# write to an adopted vec (set, update, write_slice, scatter, gather_update,
# and the unaccounted ones) must panic naming it before any simulated state
# changes, and a raw MemPort::write into a read-only page must panic in the
# per-core view, in optimized builds too, or it would write the caller's
# buffer.
# Run the regression tests under --release so a future debug_assert!
# demotion fails CI instead of shipping.
cargo test -q --release -p atmem-hms window_bounds_check_is_a_hard_check
cargo test -q --release -p atmem-hms unbacked_chunk_access_is_a_hard_check
cargo test -q --release -p atmem-hms chunk_crossing_slice_is_a_hard_check
cargo test -q --release -p atmem-hms windows_beyond_u32_index_range_are_rejected
cargo test -q --release -p atmem-hms enclosing_mapping_is_rejected
cargo test -q --release -p atmem-hms assoc_above_16_is_rejected
cargo test -q --release -p atmem-hms oversized_line_tag_is_rejected
cargo test -q --release -p atmem-hms foreign_run_is_rejected
cargo test -q --release -p atmem-hms replay_past_staged_bytes_is_rejected
cargo test -q --release -p atmem-hms double_free_of_staging_panics
cargo test -q --release -p atmem-hms free_frames_of_a_mapped_frame_panics
cargo test -q --release -p atmem-hms fresh_alloc_over_a_pinned_frame_panics
cargo test -q --release -p atmem-hms mbind_copy_onto_a_pinned_frame_panics
cargo test -q --release -p atmem-hms staging_frames_another_run_has_staged_is_rejected
cargo test -q --release -p atmem-bench --test migration_prop host_pages_are_exactly_the_mapped_and_pinned_frames
cargo test -q --release -p atmem-hms scalar_index_past_the_end_
cargo test -q --release -p atmem-hms peek_run_past_the_end_is_a_hard_check
cargo test -q --release -p atmem-hms write_to_an_adopted_vec_
cargo test -q --release -p atmem-hms write_to_a_read_only_chunk_is_a_hard_check
# The branch-free R-MAT descent is the code whose debug and optimised builds
# differ most (comparisons folded into shifts, f64 expressions the optimiser
# may contract): the datasets must be the pinned ones, and the descent must
# match its branchy oracle edge for edge, in the build the figures run on.
# Generation runs on every host core, each worker jumping its copy of the
# one stream to where its edges start: the jump must equal stepping (and
# the published 2^128 jump, and the characteristic polynomial it rests on
# must be the generator's), and the graph must not depend on the worker
# count, at a size that really splits.
cargo test -q --release -p atmem-graph rmat_outputs_are_pinned
cargo test -q --release -p atmem-graph descent_matches_the_reference_edge_for_edge
cargo test -q --release -p atmem-rng advance_
cargo test -q --release -p atmem-rng characteristic_polynomial_is_rederived
cargo test -q --release -p atmem-graph rmat_does_not_depend_on_the_worker_count
cargo test -q --release -p atmem-graph split_size_output_is_pinned

echo "==> unsafe guard (the migration copy engine, the page pool and the generators stay safe code)"
# PR 16 replaced the raw-pointer copy engine with copy_from_slice loops;
# the one unsafe seam left is shard.rs's TiersView and the Chunk it reads,
# and beside them scalar_bytes, the byte view of a Scalar slice whose pages
# an adopted array's read-only pages alias (tier.rs's page table, pool,
# per-page flags and held buffers are safe code).
# The generator's workers write disjoint parts of one buffer through
# split_at_mut under thread::scope: safe code too.
if guard_grep -rn 'unsafe' crates/hms/src/machine.rs crates/hms/src/mbind.rs crates/hms/src/tier.rs crates/core/src crates/graph/src crates/rng/src; then echo "unsafe is back in the migration path or the generators (lines above)" >&2; exit 1; fi

echo "==> surface guard (one way in: each library crate's root is its surface, every access operation declared once and implemented once)"
# `hms`, `apps`, `core` and `graph` have no public modules (each root
# re-export list is its crate's surface; `unreachable_pub` under the clippy
# step above keeps the rest honest), `MemPort` is implemented at exactly
# two sites and each supplies only the lend (`with_core`), and the Direct
# migration mechanism — call for call the staged body — stays deleted.
if guard_grep -n 'pub mod' crates/{hms,apps,core,graph}/src/lib.rs; then echo "a crate root has a pub mod again (lines above)" >&2; exit 1; fi
impls="$(grep -rn 'impl MemPort for' crates tests examples | sed -E 's/:[0-9]+:/: /' | sort)"
want="crates/hms/src/machine.rs: impl MemPort for Machine {
crates/hms/src/shard.rs: impl MemPort for CoreHandle<'_> {"
if [ "$impls" != "$want" ]; then echo "impl MemPort for must appear at exactly the two sanctioned sites, found:" >&2; echo "$impls" >&2; exit 1; fi
if guard_grep -rnE 'MigrationMechanism::Direct|migrate_region_direct' crates tests examples; then echo "the Direct migration mechanism is back (lines above)" >&2; exit 1; fi
# The hms root re-exports exactly the names below: what another crate, an
# integration test, an example or the repo benchmark names, plus what a kept
# public signature reaches. A change that must add one adds it here in the
# same diff. The traversal kernels route into a plain Vec per owner and fold
# them with apps::par::merge_owners; the owner-queue wrapper stays deleted.
hms_root="$(grep '^pub use' crates/hms/src/lib.rs | sed -E 's/^pub use [a-z_]+::\{?//; s/\}?;$//' | tr ',' '\n' | tr -d ' ' | LC_ALL=C sort | tr '\n' ' ')"
hms_want="AllocationInfo Cache CacheConfig CacheOutcome CoreHandle CostModel FAULT_SITES FaultPlan FaultSite FrameRun HmsError Machine MachineStats Mapping MemPort MigrationReport PAGE_SIZE PageKind Pebs PhysAddr Placement Platform Result SampleRecord Scalar SimDuration TierId TierSpec Tlb TrackedVec VirtAddr VirtRange "
if [ "$hms_root" != "$hms_want" ]; then echo "crates/hms/src/lib.rs re-exports: $hms_root" >&2; echo "the surface list here says:      $hms_want" >&2; exit 1; fi
if guard_grep -rnwE 'OwnerQueues|merge_owner_queues' crates/hms; then echo "the owner-queue wrapper is back in hms (lines above)" >&2; exit 1; fi

echo "==> config-surface guard (AtmemConfig holds only the values something sets)"
# The parameters nothing swept are private constants beside the code that
# reads them (profiler.rs, analyzer/{local,promote,learned}.rs,
# autonuma.rs): a config field, struct or preset for one of them coming
# back under crates/, tests/ or examples/ fails the gate.
if guard_grep -rnE '\.(jitter_frac|top_n_frac|derivative_alpha|mass_coverage|max_select_frac|min_samples|base_tr|min_confidence)\b|\b(AutonumaConfig|LearnedConfig)\b|AtmemConfig::(aggressive|conservative)' crates tests examples; then echo "a retired config knob, struct or preset is back (lines above)" >&2; exit 1; fi

echo "==> one optimize body guard (the solo optimizer and the server's round share migrate::optimize_tenants)"
# The optimize decision (plan, demotion cascade, admission, execution) is
# written once, in crates/core/src/migrate/optimize.rs: Atmem::optimize is
# its one-tenant call and Scheduler::optimize_round its N-tenant call. Any
# of its building blocks called from either facade is a second copy.
if guard_grep -nE 'build_demotion_cascade\(|evict_coldest_until\(|plan_from\(|execute_regions\(|fn optimize_atmem' crates/core/src/runtime.rs crates/core/src/serve.rs; then echo "runtime.rs or serve.rs plans, cascades, admits or executes on its own again (lines above)" >&2; exit 1; fi

echo "==> one protocol guard (the Protocol session is the one copy of the paper's protocol, and the scheduler lends nothing out)"
# The mode rules live in Protocol::start alone (runner.rs); atmem_run's
# single run and validate drive a Protocol session and print or check
# between its steps instead of running a profile/optimize loop of their
# own. The Scheduler owns its Atmem and points it at a tenant per quantum:
# the machine and the tenants are never checked out of an Option and put
# back.
rules="$(guard_grep -rl 'only the atmem mode' crates tests examples || true)"
if [ "$rules" != "crates/apps/src/runner.rs" ]; then echo "the mode rules' text must appear in crates/apps/src/runner.rs alone, found in: ${rules:-no file}" >&2; exit 1; fi
if guard_grep -n 'profiling_start' crates/bench/src/bin/atmem_run.rs crates/bench/src/bin/validate.rs; then echo "atmem_run or validate runs a protocol loop of its own again (lines above)" >&2; exit 1; fi
if guard_grep -rnE 'from_parts|into_parts|checked out' crates/core/src; then echo "the scheduler lends the runtime out of Options again (lines above)" >&2; exit 1; fi

echo "==> access-ladder guard (the compiled-plan rung and the access mode stay deleted, one body per regular kernel)"
# PR 15 removed the fourth access rung; any of its names coming back under
# crates/, tests/ or examples/ fails the gate.
if guard_grep -rlE 'WindowPlan|SweepPlan|_planned\b|plan_ready|run_plan_|AccessMode::Planned' crates tests examples; then echo "the compiled-plan rung is back in the files above" >&2; exit 1; fi
# MemCtx is a port plus a core count: every operation calls its TrackedVec
# engine, and no mode selects a per-element rung. The per-element loops
# live only in tests/access_prop.rs, as the oracle.
if guard_grep -rnE 'AccessMode|MemCtx::scalar' crates tests examples; then echo "an access mode is back in the kernel API (lines above)" >&2; exit 1; fi
# PageRank, SpMV and CC have one body each: one core is the degenerate
# partition of their run_cores body, not a second serial body behind a
# core-count branch.
if guard_grep -nE 'run_iteration_sharded|par_cores\(\) > 1' crates/apps/src/{spmv,pagerank,cc}.rs; then echo "a regular kernel has a second body again (lines above)" >&2; exit 1; fi

echo "==> streaming guard (SpMV, PageRank and CC hold no host copy that grows with the edge count or a partition's row bounds)"
# Their edge streams and row bounds are charged once (MemCtx::charge_run)
# and read back unaccounted in EDGE_CHUNK pieces (TrackedVec::peek_run; the
# bounds through HmsGraph::rows). neighbor_run and weight_run copy a whole
# run into the caller's buffer (in these kernels, a whole partition's
# edges), and bounds_run or a read_run of the offsets copies a whole
# partition's row bounds.
if guard_grep -nE 'neighbor_run\(|weight_run\(|bounds_run\(|read_run\([^;]*offsets' crates/apps/src/{spmv,pagerank,cc}.rs; then echo "a streaming kernel stages a whole edge run or bounds slice again (lines above)" >&2; exit 1; fi

echo "==> tracer guard (PEBS is the one per-access recorder)"
# The full access-trace recorder is deleted: PEBS at period 1, jitter 0 is
# the exact in-order read-miss stream, and the only per-access observer an
# accounted access feeds. (benchmark/ has a host-time Tracer of its own,
# outside this scope.)
if guard_grep -rnE '\b(Tracer|TraceRecord|AccessKind|trace_enable|trace_disable|trace_drain)\b|\.tracer\(\)' crates tests examples; then echo "the access tracer is back (lines above)" >&2; exit 1; fi
if [ -e crates/hms/src/trace.rs ]; then echo "crates/hms/src/trace.rs is back" >&2; exit 1; fi

echo "==> line ratchet (non-test lines per crate stay under their ceilings)"
# Lines of crates/<crate>/src/**/*.rs before each file's first column-0
# #[cfg(test)]: what a crate ships, without its unit tests. A change that
# must grow a crate raises its ceiling here, in its own diff, and gives the
# reason in its change log.
ratchet_ok=1
for entry in hms:7215 core:4069 apps:2717 graph:1324 bench:1880 rng:307 prop:261; do
  crate="${entry%%:*}"
  ceiling="${entry#*:}"
  lines="$(find "crates/$crate/src" -name '*.rs' -exec awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')"
  echo "    $crate: $lines non-test lines (ceiling $ceiling)"
  if [ "$lines" -gt "$ceiling" ]; then echo "crates/$crate/src grew past its ceiling: $lines > $ceiling" >&2; ratchet_ok=0; fi
done
[ "$ratchet_ok" = 1 ] || exit 1

echo "==> harness guard (one measurement harness, one experiment entry point)"
# PR 22 retired the micro-bench harness and the per-figure shim binaries:
# host speed is measured by benchmark/ alone and every figure is
# `atmem_run <experiment>`.
for gone in crates/bench/benches crates/bench/src/harness.rs BENCH_kernels.json; do
  if [ -e "$gone" ]; then echo "$gone is back" >&2; exit 1; fi
done
if [ "$(ls crates/bench/src/bin | sort | tr '\n' ' ')" != "atmem_run.rs learned_train.rs validate.rs " ]; then
  echo "crates/bench/src/bin must hold exactly atmem_run.rs, learned_train.rs, validate.rs:" >&2
  ls crates/bench/src/bin >&2
  exit 1
fi

echo "==> engines-vs-scalar bit-identity property sweep"
# Random access programs (sweeps, gathers, scatters, non-commutative
# updates, mid-run migrations, PEBS off / period 64 / period 1) on
# base-page and huge mappings, with TLB coalescing 1 and 8, through MemCtx
# (the block and window engines every kernel runs on) and through the
# per-element TrackedVec get/set loops written out in tests/access_prop.rs
# (the one place the scalar oracle lives) must agree on every read buffer,
# counter and the simulated clock after every op, and on the PEBS stream
# (at period 1: every read miss, in order) and the data image. Already
# part of tier-1 above; dedicated step so an engine divergence is named in
# CI output (ATMEM_PROP_CASES widens it).
ATMEM_PROP_CASES="${ATMEM_PROP_CASES:-8}" cargo test -q -p atmem-bench --test access_prop

echo "==> unaccounted data path: counting-sort build vs its comparison-sort oracle"
# Random edge lists (duplicates, self loops, isolated vertices) through
# every symmetrize x deduplicate x self-loop x weighted combination must
# build the very Csr the old stable comparison sort built. Already part of
# tier-1 above; named so a builder divergence (which would silently change
# every dataset) is named in CI output. Same knob as the sweeps around it.
ATMEM_PROP_CASES="${ATMEM_PROP_CASES:-8}" cargo test -q -p atmem-graph --lib counting_sort_matches_the_reference_build

echo "==> unaccounted data path: segment-wise fill/load/copy-out vs poke/peek loops"
# TrackedVec::{fill_from, fill, fill_with, to_vec, values, peek_run} against the per-element
# loops on a contiguous array, across mbind-splintered per-page mappings
# and through a CoreHandle: equal data images, and counters, clock, TLB/LLC
# contents and the PEBS buffer untouched by every bulk call.
cargo test -q -p atmem-hms --lib bulk_unaccounted_ops_match_poke_peek_loops

echo "==> tier storage: paged, recycled backing vs a flat byte array per tier"
# Random programs (allocations, frees, scalar / block / window writes,
# hand-staged and mbind migrations, sharded phases) run once on the page
# pool as it is and once on a pool just filled with another machine's 0xA5
# bytes: equal data images (and equal to a flat Vec<u8> per tier), equal
# counters, clock and PEBS stream, audit clean; and an adopted buffer
# unchanged after its machine is dropped and the pool poisoned again (a
# read-only page never reaches the pool).
# Already part of tier-1 above; named so a backing bug is named in CI
# output. Same knob as the sweeps around it.
ATMEM_PROP_CASES="${ATMEM_PROP_CASES:-8}" cargo test -q -p atmem-hms --test storage chunked_storage_matches_a_flat_shadow

echo "==> fault-injection smoke (set ATMEM_PROP_CASES to widen the sweep)"
# Quick pass over the fault-injection property harness: a handful of
# random (kernel, fault-plan) cases per property plus the deterministic
# stage-boundary rollback checks. The full sweep (200+ cases, the
# default of `cargo test --test faults`) already ran under tier-1 above;
# this step exists as the dedicated knob: ATMEM_PROP_CASES=1000 ./ci.sh
# (or any value) widens every property in the harness.
ATMEM_PROP_CASES="${ATMEM_PROP_CASES:-8}" cargo test -q -p atmem-bench --test faults

echo "==> migration data-image property sweep"
# Random interleavings of staged / mbind region migrations on
# fragmented two- and three-tier machines, a scripted fault at each gate
# of the migration path, checked against a shadow image after every
# region; the hand-staged regions assert the tier bytes under a staging
# run never change. An adopted allocation's regions are among them, and its
# host buffer must be byte-unchanged after each. Same knob as above.
ATMEM_PROP_CASES="${ATMEM_PROP_CASES:-8}" cargo test -q -p atmem-bench --test migration_prop

echo "==> serving smoke (multi-tenant scheduler anchors)"
# The three serving anchors: one-tenant bit-identity with the solo
# protocol, contended two-tenant byte conservation + audit-clean quanta,
# and shared-tier-beats-static-partition; plus the round's demotion sized
# by resident bytes, not region lengths. Already part of tier-1 above;
# kept as a dedicated step so a serving regression is named in CI output.
cargo test -q -p atmem-bench --test serving

echo "==> example smoke (shared_server and offline_analysis run end to end)"
# shared_server asserts audit cleanliness and per-tenant byte conservation
# internally; offline_analysis asserts that the exact read-miss profile
# (PEBS at period 1) and ATMem's sampled one pick the same hottest object.
# A non-zero exit fails the gate.
cargo run -q --release -p atmem-bench --example shared_server > /dev/null
cargo run -q --release -p atmem-bench --example offline_analysis > /dev/null

echo "==> learned-analyzer training gate (committed mini-trace)"
# Retrains the ranking model from the committed trace and asserts (a) the
# fresh model generalizes to held-out groups and (b) the shipped
# LearnedModel::pretrained() constant still ranks the committed trace
# above its drift floor. Both runs are seeded and deterministic, so a
# failure means the recorder, trainer or shipped weights changed — not
# flakiness. Regenerate the trace + weights with:
#   cargo run --release -p atmem-bench --bin learned_train -- \
#     --record traces/analyzer_mini.trace --train traces/analyzer_mini.trace
cargo run -q --release -p atmem-bench --bin learned_train -- --check traces/analyzer_mini.trace

echo "==> analyzer-quality smoke (learned vs paper placement gates)"
# The four cross-analyzer gates: kernel-grid parity, the strict win under
# 50% sample loss, the one-round phase-change re-rank, and the three-tier
# multi-round protocol (autonuma convergence; atmem there in one round,
# ahead on hot-tier data ratio and no slower). Already part of tier-1
# above; dedicated step so a quality regression is named in CI output.
cargo test -q --release -p atmem-bench --test analyzer_quality

echo "==> single-run CLI and validate smoke (a multi-round run with the heatmap, a refused mode/policy pair, the correctness matrix)"
# The parameterised single run drives a Protocol session and prints
# between its steps: it must run two rounds with the heatmap, and refuse
# an optimize policy under a mode that never optimizes, naming the policy.
# validate checks every kernel's output under three placements against
# the host oracles (0.5 s at shrink 6).
cargo run -q --release -p atmem-bench --bin atmem_run -- --app PR --dataset pokec --shrink 6 --rounds 2 --heatmap > /dev/null
if refusal="$(cargo run -q --release -p atmem-bench --bin atmem_run -- --app BFS --dataset pokec --shrink 6 --mode baseline --policy autonuma 2>&1 > /dev/null)"; then echo "atmem_run accepted --policy autonuma under --mode baseline" >&2; exit 1; fi
case "$refusal" in *policy*) ;; *) echo "atmem_run refused --mode baseline --policy autonuma without naming the policy: $refusal" >&2; exit 1 ;; esac
summary="$(ATMEM_BENCH_SHRINK=6 cargo run -q --release -p atmem-bench --bin validate | tail -n 1)" || { echo "validate failed at shrink 6" >&2; exit 1; }
if [ "$summary" != "60 checks, 0 failures" ]; then echo "validate at shrink 6 printed \"$summary\", not \"60 checks, 0 failures\"" >&2; exit 1; fi

echo "==> experiment entry-point smoke and drift detector (atmem_run all at shrink 6 reproduces results/shrink6/ byte for byte)"
# Every figure and table driver through the one entry point, datasets
# shrunk by six R-MAT levels (seconds, not the twelve minutes of a full
# regeneration), into a scratch directory so the committed results/ stay
# as they are. The path is absolute because the drivers resolve the
# default relative to crates/bench, not to here. The run is deterministic,
# so its CSVs must equal the committed shrink-6 snapshot: a change that
# moves a figure regenerates results/shrink6/ in its own diff.
smoke_dir="$PWD/target/repro_smoke"
rm -rf "$smoke_dir"
ATMEM_BENCH_SHRINK=6 ATMEM_RESULTS_DIR="$smoke_dir" cargo run -q --release -p atmem-bench --bin atmem_run -- all > /dev/null
for csv in results/*.csv; do
  test -s "$smoke_dir/${csv#results/}" || { echo "atmem_run all wrote no ${csv#results/} in $smoke_dir" >&2; exit 1; }
done
if ! diff -r results/shrink6 "$smoke_dir"; then
  echo "atmem_run all at shrink 6 no longer reproduces results/shrink6/ (diff above); if the change is meant to move a figure, regenerate the snapshot with:" >&2
  echo "  ATMEM_BENCH_SHRINK=6 ATMEM_RESULTS_DIR=\$PWD/results/shrink6 cargo run --release -p atmem-bench --bin atmem_run -- all" >&2
  exit 1
fi

echo "==> repo benchmark smoke (every BENCHMARK.json metric reported once, finite, with its unit)"
# Every workload on shrunk graphs with k = 1 (~9 s): fails unless
# BENCHMARK.json equals the tables in benchmark/src/metrics.rs and every
# listed name is reported exactly once by every workload. The package has
# its own workspace, so it builds into benchmark/target.
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- check

echo "CI gate passed."
