#!/usr/bin/env bash
# A/B one acn-perf workload — or, with `all`, every workload named in
# BENCHMARK.json, one after the other — between a parent commit and the
# working tree, by the protocol of the choosing-metrics guide
# (section 8): both sides built once with the same benchmark code and
# settings, then run in alternating order over consecutive seeds at the
# nominal budget.
#
# Prints, per workload and end-to-end metric of BENCHMARK.json: both
# medians, both interquartile ranges, the pairs the change won, and
# whether the medians differ by more than the parent's own spread
# (q3 - q1). A gain is claimable only when the change wins >= 9/10 of
# the pairs AND that column says yes. Then the metric's `bound` from
# BENCHMARK.json and a verdict, which is what a change claiming no gain
# has to show for all seven workloads: `worse` when the change's median
# is worse than the parent's by more than the bound; `unresolved` when
# the parent's spread over its median is wider than the bound and not
# every run of the change read better than every run of the parent;
# else `ok`. Then, for information only (no verdict), both medians of
# every `per_layer` metric of BENCHMARK.json that every run of both
# sides reports: where in the layers a change in the end-to-end rows
# shows up. Also reports whether every `exact` count of the `#detail`
# line repeated bit for bit on each seed: the two sides run the same
# seeded inputs, so any difference is a behaviour change.
#
# Exits non-zero on any `worse`, any differing exact count, or any run
# that failed its own output checks.
#
# The parent is checked out with `git archive` into target/ab/parent
# (nothing is registered in .git, nothing under benchmark/ is edited);
# its build cache lives beside it and is reused across invocations.
#
# Usage: scripts/ab.sh <parent-ref> <workload>|all [pairs=10] [seed0=21]
#        (10 pairs take ~4 min per workload, ~25 min for `all`)
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: scripts/ab.sh <parent-ref> <workload>|all [pairs=10] [seed0=21]" >&2
    exit 2
fi
parent_ref=$1
pairs=${3:-10}
seed0=${4:-21}
if [ "$2" = all ]; then
    workloads=$(python3 -c \
        'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
else
    workloads=$2
fi

ab=target/ab
parent_commit=$(git rev-parse --verify "${parent_ref}^{commit}")
rm -rf "$ab/runs"
mkdir -p "$ab/runs"
if [ "$(cat "$ab/parent.commit" 2>/dev/null)" != "$parent_commit" ]; then
    rm -rf "$ab/parent"
    mkdir -p "$ab/parent"
    git archive "$parent_commit" | tar -x -C "$ab/parent"
    echo "$parent_commit" > "$ab/parent.commit"
fi

echo "==> building parent ${parent_commit:0:7} and the working tree"
cargo build --release --offline --quiet --bin acn-perf \
    --manifest-path "$ab/parent/benchmark/Cargo.toml" --target-dir "$ab/parent-target"
cargo build --release --offline --quiet --bin acn-perf \
    --manifest-path benchmark/Cargo.toml
cp "$ab/parent-target/release/acn-perf" "$ab/acn-perf.parent"
cp benchmark/target/release/acn-perf "$ab/acn-perf.change"

run() { # side workload seed
    "$ab/acn-perf.$1" --workload "$2" --seed "$3" --seconds 8 --trace 0 \
        > "$ab/runs/$1.$2.$3.out"
}

for workload in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed0 + i))
        if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "==> $workload pair $((i + 1))/$pairs seed $seed: $side"
            run "$side" "$workload" "$seed"
        done
    done
done

# shellcheck disable=SC2086  # $workloads is a word list
python3 - "$ab/runs" "$seed0" "$pairs" $workloads <<'EOF'
import json, statistics, sys

runs, seed0, pairs, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
seeds = range(seed0, seed0 + pairs)
with open("BENCHMARK.json") as f:
    bench = json.load(f)
end_to_end, per_layer = bench["end_to_end"], bench["per_layer"]

def detail(side, workload, seed):
    with open(f"{runs}/{side}.{workload}.{seed}.out") as out:
        for line in out:
            if line.startswith("#detail "):
                return json.loads(line[len("#detail "):])
    sys.exit(f"{workload}: {side} seed {seed}: no #detail line (did the run fail?)")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

failed = []
for workload in workloads:
    parent = [detail("parent", workload, s) for s in seeds]
    change = [detail("change", workload, s) for s in seeds]
    print(f"\n{workload}: {pairs} alternating pairs, seeds {seed0}..{seed0 + pairs - 1}, 8 s budget")
    print(f"{'metric':<14}{'parent median [q1, q3]':>40}{'change median [q1, q3]':>40}"
          f"{'change':>9}{'won':>7}  {'beyond parent IQR':<19}{'bound':>6}  verdict")
    for metric in end_to_end:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        a = [r["metrics"][name] for r in parent]
        b = [r["metrics"][name] for r in change]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        better = (lambda x, y: y > x) if higher else (lambda x, y: y < x)
        won = sum(better(x, y) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        beyond = abs(bm - am) > (a3 - a1)
        loss = ((am - bm) if higher else (bm - am)) / am if am else 0.0
        if loss > bound:
            verdict = "worse"
            failed.append(f"{workload} {name} worse")
        elif am and (a3 - a1) / am > bound and not all(better(x, y) for x in a for y in b):
            verdict = "unresolved"
        else:
            verdict = "ok"
        cell = lambda m, lo, hi: f"{m:.6g} [{lo:.6g}, {hi:.6g}]"
        print(f"{name:<14}{cell(am, a1, a3):>40}{cell(bm, b1, b3):>40}"
              f"{(bm / am - 1) * 100 if am else 0:>+8.1f}%{f'{won}/{pairs - ties}':>7}"
              f"  {'yes' if beyond else 'no':<19}{bound * 100:>5.0f}%  {verdict}")

    layers = [m["name"] for m in per_layer
              if all(m["name"] in r["metrics"] for r in parent + change)]
    if layers:
        print(f"{'per-layer medians (informational)':<41}{'parent':>14}{'change':>16}{'change':>9}")
        for name in layers:
            am = statistics.median(r["metrics"][name] for r in parent)
            bm = statistics.median(r["metrics"][name] for r in change)
            print(f"  {name:<39}{am:>14.6g}{bm:>16.6g}"
                  f"{(bm / am - 1) * 100 if am else 0:>+8.1f}%")

    differing = {}
    for seed, p, c in zip(seeds, parent, change):
        keys = sorted(k for k in p["exact"].keys() | c["exact"].keys()
                      if p["exact"].get(k) != c["exact"].get(k))
        if keys:
            differing[seed] = keys
    incorrect = [(side, s) for side, rs in (("parent", parent), ("change", change))
                 for s, r in zip(seeds, rs) if not r["correct"]]
    if differing:
        print("exact counts DIFFER:",
              "; ".join(f"seed {s}: {', '.join(k)}" for s, k in differing.items()))
        failed.append(f"{workload} exact counts differ")
    else:
        print(f"exact counts: identical on all {pairs} seeds "
              f"({len(parent[0]['exact'])} counts each)")
    if incorrect:
        print("INCORRECT runs:", ", ".join(f"{side} seed {s}" for side, s in incorrect))
        failed.append(f"{workload} incorrect runs")

if failed:
    print("\nFAILED:", "; ".join(failed))
sys.exit(1 if failed else 0)
EOF
