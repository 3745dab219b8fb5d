#!/usr/bin/env bash
# The full local CI gate: everything a PR must pass.
set -euo pipefail
cd "$(dirname "$0")"

echo "── build ──────────────────────────────────────────"
cargo build --workspace --release

echo "── tests ──────────────────────────────────────────"
cargo test --workspace -q

echo "── benches compile ────────────────────────────────"
cargo bench --workspace --no-run

echo "── serve smoke ────────────────────────────────────"
cargo run --release -p mcmm-bench --bin serve -- --smoke

echo "── chaos smoke ────────────────────────────────────"
# Small fault storm: asserts zero lost jobs and ≥1 successful failover.
cargo run --release -p mcmm-bench --bin chaos -- --smoke

echo "── exec tier smoke ────────────────────────────────"
# Scalar vs vectorized execution tiers at O0 and O2: asserts the
# vectorized tier is at least as fast in aggregate, buffers are
# byte-identical between tiers AND optimization levels, O2 keeps the O0
# speedup (monotonicity, with a smoke-size noise allowance), the O2 runs
# actually went through the SSA middle-end, and repeat launches hit the
# lowered-program cache at every level.
cargo run --release -p mcmm-bench --bin exec -- --smoke

echo "── memory-hierarchy smoke ─────────────────────────"
# Six kernel shapes × three vendor devices through the traced memory
# hierarchy: asserts buffers are byte-identical with tracing on/off and
# under trace-driven timing, the streaming per-block replay is
# bit-identical to the buffered serial reference, coalesced copies fill
# ≥95% of their sectors while the 128B-strided gather does not, the
# per-vendor L1 hit rates genuinely diverge, and streaming tracing
# wall-clock overhead stays under budget (1.5×/3× full/smoke on ≥4
# cores; a 12× serial-replay backstop on narrower hosts).
cargo run --release -p mcmm-bench --bin memhier -- --smoke

echo "── http front-door smoke ──────────────────────────"
# Seeded duplicate-heavy workload through the gateway's real HTTP surface
# (loopback client pool), twice over one artifact directory: asserts every
# response byte-identical to serial execution, >0 coalesced submissions,
# a warm-restart hit rate strictly above cold with zero warm compiles,
# and /v1/stats reporting live memory rows (mem_traced_launches > 0 —
# default-on tracing really runs under load). Full runs additionally
# gate p99 against the pre-tracing baseline.
cargo run --release -p mcmm-bench --bin serve-http -- --smoke

echo "── perfbench smoke ────────────────────────────────"
# perfbench/ is a Cargo workspace of its own, so the workspace build and
# tests above never compile it: a gpu-sim or serve API change could break
# the repository benchmark unnoticed. Test it, then run each gated
# workload briefly and require its closing JSON line to report a correct
# run with no failed operations.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for workload in sweep-stream serve-irregular; do
  result=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0[,}]' <<<"$result"; then
    echo "FAIL: perfbench $workload did not finish correct with 0 failed: $result"
    exit 1
  fi
  echo "perfbench $workload: correct, 0 failed — OK"
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

echo "── clippy (warnings are errors) ───────────────────"
cargo clippy --workspace --all-targets -- -D warnings

echo "── rustfmt ────────────────────────────────────────"
cargo fmt --all --check

echo "── analyzer report + portability differential ─────"
# --smoke additionally executes the portability corpus on all three
# simulated vendor devices under both execution tiers and fails on any
# static/dynamic disagreement (MCA006–MCA010 differential validation).
cargo run --release -p mcmm-bench --bin analyze -- --smoke

echo "CI PASSED"
