#!/usr/bin/env bash
# The full local CI gate: everything a PR must pass.
set -euo pipefail
cd "$(dirname "$0")"

echo "── build ──────────────────────────────────────────"
cargo build --workspace --release

echo "── tests ──────────────────────────────────────────"
cargo test --workspace -q
# The simulator's cache, coalescer and replay property tests, and the
# reference crate's block-level differentials against the simulator's
# engine, again as optimized code, without overflow checks or debug
# assertions.
cargo test --release --offline -q -p mcmm-gpu-sim -p mcmm-gpu-sim-ref

echo "── benches compile ────────────────────────────────"
cargo bench --workspace --no-run

echo "── serve smoke ────────────────────────────────────"
cargo run --release -p mcmm-bench --bin serve -- --smoke

echo "── chaos storm ────────────────────────────────────"
# Small fault storm: asserts zero lost jobs, ≥1 retry and ≥1 cross-route
# failover, a quarantined breaker for every outage route, outputs
# byte-identical to serial execution, and ≥1 lost job with failover off
# (one attempt per job on its plan's first route, no breaker).
cargo run --release -p mcmm-bench --bin chaos -- --smoke
# The canonical 500-job storm whose counts DESIGN.md quotes: the same
# checks, plus a second run of the seed that must replay bit-identically.
cargo run --release -p mcmm-bench --bin chaos

echo "── block engine smoke ─────────────────────────────"
# The scalar reference interpreter vs the vectorized block engine: asserts
# the vectorized engine is at least as fast in aggregate, buffers are
# byte-identical between engines, and repeat launches hit the
# lowered-program cache.
cargo run --release -p mcmm-bench --bin exec -- --smoke

echo "── memory-hierarchy smoke ─────────────────────────"
# Six kernel shapes × three vendor devices through the traced memory
# hierarchy: asserts buffers are byte-identical with tracing on/off and
# under trace-driven timing, replay is deterministic and identical on
# both block engines, coalesced copies fill ≥95% of their sectors
# while the 128B-strided gather does not, the per-vendor L1 hit rates
# genuinely diverge, and streaming tracing wall-clock overhead stays
# under budget (1.5×/3× full/smoke on ≥4 cores; on narrower hosts a
# backstop of 3× for full runs on 2–3 cores and 12× otherwise). The
# memhier unit tests pin the streaming replay to the one-sector serial
# reference.
cargo run --release -p mcmm-bench --bin memhier -- --smoke

echo "── http front-door smoke ──────────────────────────"
# Seeded duplicate-heavy workload through the gateway's real HTTP surface
# (loopback client pool), twice over one artifact directory: asserts every
# response byte-identical to serial execution, >0 coalesced submissions,
# a warm-restart hit rate strictly above cold with zero warm compiles,
# and /v1/stats reporting live memory rows (mem_traced_launches > 0 —
# default-on tracing really runs under load). Full runs additionally
# gate p99 against the committed full run's.
cargo run --release -p mcmm-bench --bin serve-http -- --smoke

echo "── perfbench smoke ────────────────────────────────"
# perfbench/ is a Cargo workspace of its own, so the workspace build and
# tests above never compile it: a gpu-sim or serve API change could break
# the repository benchmark unnoticed. Test it, then run each gated
# workload briefly, untraced and span-traced, and require its closing JSON
# line to report a correct run with no failed operations. Only --trace 1
# runs the layer probes and the modeled-count probe, which launches each
# (kernel, vendor) twice and fails the run unless both counts match. The
# gated workloads' gateway probe serves its closed loop through a replica
# of the server loop, so an untraced http-small run follows them: it is
# the one that sends concurrent requests through HttpServer and
# Gateway::submit.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
perfbench_smoke() {
  local workload=$1 trace=$2 result
  result=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace "$trace" | tail -n 1)
  if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0[,}]' <<<"$result"; then
    echo "FAIL: perfbench $workload --trace $trace did not finish correct with 0 failed: $result"
    exit 1
  fi
  echo "perfbench $workload --trace $trace: correct, 0 failed — OK"
}
for trace in 0 1; do
  for workload in sweep-stream serve-irregular; do
    perfbench_smoke "$workload" "$trace"
  done
done
perfbench_smoke http-small 0

echo "── adapter boilerplate guard ──────────────────────"
# The blanket FrontendAdapter replaced nine hand-written BabelStream
# adapters (1321 lines pre-refactor). Fail if per-model adapter
# boilerplate creeps back in.
adapter_lines=$(find crates/babelstream/src/adapters -name '*.rs' -print0 | xargs -0 cat | wc -l)
if [ "$adapter_lines" -ge 1321 ]; then
  echo "FAIL: crates/babelstream/src/adapters/ is ${adapter_lines} lines (>= pre-refactor 1321)."
  echo "      Route new backends through the Frontend trait instead of a bespoke adapter."
  exit 1
fi
echo "adapters/ is ${adapter_lines} lines (< 1321) — OK"

echo "── gpu-sim size guard ─────────────────────────────"
# The simulator is meant to shrink: one SimConfig replaced five
# hand-rolled knobs, the buffered replay mode went, the SSA middle-end
# went with the opt-level knob, one fingerprint-keyed kernel cache
# replaced the decode and program caches, the scalar reference
# interpreter moved out to crates/gpu-sim-ref with the exec-tier knob,
# the fingerprint became a hash of the ISA encoder's own stream, which
# deleted the second serializer (ir::Fingerprint) and the bracketed
# ir::Step walk, and block engines return their LaunchStats to one
# per-device totals record, which deleted Counters, LocalCounters,
# StatsCell, MemStatsCell and TransferStats (10004 lines of Rust under
# crates/gpu-sim/src, tests included, before that; 9749 after it). Fail
# once it reaches 9875 lines, 126 above that count.
gpu_sim_lines=$(find crates/gpu-sim/src -name '*.rs' -print0 | xargs -0 cat | wc -l)
if [ "$gpu_sim_lines" -ge 9875 ]; then
  echo "FAIL: crates/gpu-sim/src is ${gpu_sim_lines} lines (>= 9875)."
  echo "      Delete a mode, a duplicated algorithm or a test-only path before adding one."
  exit 1
fi
echo "gpu-sim/src is ${gpu_sim_lines} lines (< 9875) — OK"

echo "── analyzer size guard ────────────────────────────"
# Every analysis in mcmm-analyze walks the structured If/While tree: MCA001
# went from a CFG lowering plus a reaching-definitions fixpoint over bit
# sets to one recursive walk (3236 lines of Rust under crates/analyze/src
# before that, 2675 after it), and the analyses' four copies of "what type
# is this operand" gave way to KernelIr::operand_type (2686 lines before
# that, 2659 after it). Fail once it reaches 2785 lines, 126 above that
# count.
analyze_lines=$(find crates/analyze/src -name '*.rs' -print0 | xargs -0 cat | wc -l)
if [ "$analyze_lines" -ge 2785 ]; then
  echo "FAIL: crates/analyze/src is ${analyze_lines} lines (>= 2785)."
  echo "      Walk the structured IR instead of adding a second analysis framework."
  exit 1
fi
echo "analyze/src is ${analyze_lines} lines (< 2785) — OK"

echo "── reference engine guard ─────────────────────────"
# The scalar reference interpreter (crates/gpu-sim-ref) exists only to be
# diffed against: the root tests, mcmm-analyze's dev tests and mcmm-bench
# use it. Fail if a production crate's normal dependencies reach it; the
# analyzer is one, since every route's lint gate runs it.
for crate in mcmm-serve mcmm-gateway mcmm-frontend mcmm-toolchain mcmm-babelstream mcmm-analyze; do
  deps=$(cargo tree --offline -e normal -p "$crate")
  if grep -q 'mcmm-gpu-sim-ref' <<<"$deps"; then
    echo "FAIL: $crate depends on mcmm-gpu-sim-ref, the test-only reference engine."
    exit 1
  fi
done
echo "no production crate depends on mcmm-gpu-sim-ref — OK"

echo "── device-memory guard ────────────────────────────"
# Device memory goes back when its owner drops: gpu-sim's DeviceAlloc,
# the frontend's DeviceBuffer, or the session whose table holds a raw
# pointer (cudaFree and hipFree name the pointer alone). GlobalMemory::free
# is the one public free by (pointer, length) left. Fail if a crate
# outside gpu-sim calls it, on one line or split across lines.
manual_frees=$(find crates/*/src -name '*.rs' -not -path 'crates/gpu-sim/*' -print0 \
  | xargs -0 grep -lzP '\.memory\(\)\s*\.free\(' || true)
if [ -n "$manual_frees" ]; then
  echo "FAIL: these files free device memory by hand with .memory().free(:"
  echo "$manual_frees"
  echo "      Hold a DeviceBuffer or DeviceAlloc, or a session-held pointer, instead."
  exit 1
fi
echo "no crate outside gpu-sim frees device memory by hand — OK"

echo "── clippy (warnings are errors) ───────────────────"
cargo clippy --workspace --all-targets -- -D warnings
# perfbench/ is its own Cargo workspace, which --workspace never reaches.
cargo clippy --release --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "── rustfmt ────────────────────────────────────────"
cargo fmt --all --check
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "── rustdoc (warnings are errors) ──────────────────"
# Broken and private intra-doc links fail here instead of going unseen.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "── analyzer report + portability differential ─────"
# --smoke additionally executes the portability corpus on all three
# simulated vendor devices on both block engines and fails on any
# static/dynamic disagreement (MCA006–MCA010 differential validation).
# Only a full run rewrites BENCH_analyze.json.
cargo run --release -p mcmm-bench --bin analyze -- --smoke

echo "CI PASSED"
