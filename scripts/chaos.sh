#!/usr/bin/env bash
# Seeded chaos campaign against the distributed runtime's in-protocol
# failure recovery (DESIGN.md §13.5).
#
# Runs the acn-chaos binary: a stream of generated fault scenarios —
# graceful leaves, joins, crash-mid-split, crash-mid-merge, crashed
# hand-off targets, forced reconfigurations, mid-run traffic — each
# explored under randomized adversarial schedules with every recovery
# oracle armed. The recovery-time budget guard fails the campaign if any
# crash takes longer than the configured number of level periods to be
# suspected by the in-protocol failure detector; the remaining oracles
# assert tombstone convergence, token conservation, and cut
# well-formedness with **zero** harness repair calls.
#
# Any violation prints the scenario seed, the shrunk
# (delta-debugging-minimized) scenario and schedule, the flight
# recorder's causal dump, and a one-line reproduce command.
#
# Knobs:
#   ACN_CHAOS_SEED            base campaign seed   (default 0xC4A05)
#   ACN_CHAOS_EVENTS          generated scenarios  (default 10)
#   ACN_CHAOS_SCHEDULES       schedules/scenario   (default 30)
#   ACN_CHAOS_BUDGET_PERIODS  detection budget in level periods
#                             (default 16)
#
# Usage: scripts/chaos.sh [--smoke]
#   --smoke  tiny campaign for the scripts/check.sh gate (3 scenarios,
#            10 schedules each; same oracles, same budget guard)
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    export ACN_CHAOS_EVENTS="${ACN_CHAOS_EVENTS:-3}"
    export ACN_CHAOS_SCHEDULES="${ACN_CHAOS_SCHEDULES:-10}"
fi

echo "==> acn-chaos (events: ${ACN_CHAOS_EVENTS:-10}, schedules/event: ${ACN_CHAOS_SCHEDULES:-30}, budget: ${ACN_CHAOS_BUDGET_PERIODS:-16} periods)"
cargo run -q --release -p acn-check --bin acn-chaos

echo "==> chaos campaign finished, all recovery oracles held"
