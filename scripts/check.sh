#!/usr/bin/env bash
# The full local gate: release build, test suite, determinism lints,
# the bounded model-check suite, warning-free docs and lint-clean clippy.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (everything but the checker)"
cargo test -q --workspace --exclude acn-check

echo "==> acn-lint (workspace determinism lints)"
cargo run -q -p acn-check --bin acn-lint

echo "==> model checker (acn-check: thread + message explorers, history oracle, shrinker)"
# The checker's suite, run once and named so a red gate points at it:
# the bounded exhaustive and seeded random suites of both explorers
# with their pinned statistics (tests/{model,batch_model,dist_explore}.rs),
# the linearizability / quiescent-consistency history oracle
# (tests/history_oracle.rs), and the shrinker's planted-mutation and
# budget regressions (tests/shrink.rs). Exploration statistics land in
# acn.check.* metrics (Report::emit / DistReport::emit).
cargo test -q -p acn-check

echo "==> dist schedule explorer (bounded suite + 50 random schedules, diffed)"
# The standalone explorer binary over the same oracles; deeper random
# exploration is scripts/explore.sh's job (ACN_EXPLORE_BUDGET knob).
# Its output is deterministic and carries no timings, so it must match
# the committed capture byte for byte: an explorer change that moves
# any statistic shows up here as a diff.
env -u ACN_SHRINK ACN_EXPLORE_BUDGET=50 \
    cargo run -q --release -p acn-check --bin acn-dist-explore \
    | diff -u docs/dist_explore_output.txt -

echo "==> chaos smoke (seeded recovery campaign, budget-guarded, diffed)"
# A tiny slice of the seeded chaos campaign (scripts/chaos.sh):
# generated crash/leave/reconfigure scenarios explored under the full
# recovery-oracle set, including the detection-latency budget guard.
# Deterministic like the explorer's output, and diffed the same way.
env -u ACN_CHAOS_SEED -u ACN_CHAOS_EVENTS -u ACN_CHAOS_SCHEDULES -u ACN_CHAOS_BUDGET_PERIODS \
    scripts/chaos.sh --smoke \
    | diff -u docs/chaos_smoke_output.txt -

echo "==> trace artifact (schema-validated smoke trace)"
# The schema test runs a seeded deployment with a tracer attached,
# validates the span stream against the trace schema, and exports a
# Chrome trace_event JSON artifact — load it in chrome://tracing or
# Perfetto (docs/TUTORIAL.md walks through it).
ACN_TRACE_DIR=target/trace cargo test -q --test trace_schema
test -s target/trace/smoke.trace.json \
    || { echo "trace_schema did not produce target/trace/smoke.trace.json" >&2; exit 1; }

echo "==> benchmark smoke (acn-perf: all 7 workloads, tiny budgets) + its own tests"
# The benchmark package is outside the workspace (benchmark/Cargo.toml);
# its smoke run exercises every workload's unskippable output checks
# end to end, and its tests hold the catalogue to BENCHMARK.json.
cargo run --release --offline --manifest-path benchmark/Cargo.toml --bin acn-perf -- run --smoke
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo doc (first-party crates, deny warnings)"
# Intra-doc links rot silently when a type or variant is renamed; the
# vendored stand-ins are not ours to lint.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace \
    $(for v in vendor/*/; do printf -- '--exclude %s ' "$(basename "$v")"; done)

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> all checks passed"
