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

echo "── chaos smoke ────────────────────────────────────"
# Small fault storm: asserts zero lost jobs and ≥1 successful failover.
cargo run --release -p mcmm-bench --bin chaos -- --smoke

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
# (kernel, vendor) twice and fails the run unless both counts match.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for trace in 0 1; do
  for workload in sweep-stream serve-irregular; do
    result=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 2 --trace "$trace" | tail -n 1)
    if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0[,}]' <<<"$result"; then
      echo "FAIL: perfbench $workload --trace $trace did not finish correct with 0 failed: $result"
      exit 1
    fi
    echo "perfbench $workload --trace $trace: correct, 0 failed — OK"
  done
done

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
# replaced the decode and program caches, and the scalar reference
# interpreter moved out to crates/gpu-sim-ref with the exec-tier knob
# (10096 lines of Rust under crates/gpu-sim/src, tests included,
# after that; 11582 before it). Fail once it reaches 10222 lines,
# 126 above that count.
gpu_sim_lines=$(find crates/gpu-sim/src -name '*.rs' -print0 | xargs -0 cat | wc -l)
if [ "$gpu_sim_lines" -ge 10222 ]; then
  echo "FAIL: crates/gpu-sim/src is ${gpu_sim_lines} lines (>= 10222)."
  echo "      Delete a mode, a duplicated algorithm or a test-only path before adding one."
  exit 1
fi
echo "gpu-sim/src is ${gpu_sim_lines} lines (< 10222) — OK"

echo "── reference engine guard ─────────────────────────"
# The scalar reference interpreter (crates/gpu-sim-ref) exists only to be
# diffed against: the root tests, mcmm-analyze's dev tests and mcmm-bench
# use it. Fail if a production crate's normal dependencies reach it.
for crate in mcmm-serve mcmm-gateway mcmm-frontend mcmm-toolchain mcmm-babelstream; do
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
