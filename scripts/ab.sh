#!/usr/bin/env bash
# ab.sh — A/B one benchmark workload between two revisions.
#
#   scripts/ab.sh REV_A REV_B WORKLOAD PAIRS [SEED0]
#
# REV_A is the parent, REV_B the change. Each is resolved to a commit SHA
# in this repository and checked out in its own clone (git clone --shared,
# so no object is copied) under .bench_build/ab/, and the script runs
# PAIRS pairs of that revision's own `perfbench/run.sh --workload
# WORKLOAD`, each for BENCHMARK.json's run_seconds. Pair i runs both
# sides on seed SEED0+i (SEED0 defaults to 1); even pairs run the parent
# first, odd pairs the change, so drift in the machine's speed falls on
# both sides alike.
#
# The sides are clones, not worktrees: Go stamps vcs.revision only from a
# .git directory, and a worktree's .git is a file, so its binary would
# carry the main checkout's HEAD. Every result's stamped commit must be
# its side's SHA; a result stamped with any other (or none) fails the
# script.
#
# It then prints a markdown table ready for CHANGES.md: for every
# end-to-end metric of BENCHMARK.json, each side's median and quartiles,
# how many pairs the change won, the change/parent ratio of the medians,
# and a verdict against the metric's bound (see scripts/abstat.go). It
# exits non-zero if a run fails or a metric regresses past its bound.
# Raw results stay in .bench_build/ab/results/; the clones are removed on
# exit, their Go build caches kept in .bench_build/ab/build-{a,b}.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    echo "usage: scripts/ab.sh REV_A REV_B WORKLOAD PAIRS [SEED0]" >&2
    exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=$4 seed0=${5:-1}
if ! [[ $pairs =~ ^[1-9][0-9]*$ && $seed0 =~ ^[0-9]+$ ]]; then
    echo "ab.sh: PAIRS must be a positive integer and SEED0 a non-negative one" >&2
    exit 2
fi

root="$(git rev-parse --show-toplevel)"
cd "$root"
ab="$root/.bench_build/ab"
secs="$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
if [[ -z $secs ]]; then
    echo "ab.sh: no run_seconds in BENCHMARK.json" >&2
    exit 1
fi

sha_a="$(git rev-parse --verify --quiet "$rev_a^{commit}")" || { echo "ab.sh: $rev_a is not a commit" >&2; exit 2; }
sha_b="$(git rev-parse --verify --quiet "$rev_b^{commit}")" || { echo "ab.sh: $rev_b is not a commit" >&2; exit 2; }

cleanup() {
    rm -rf "$ab/a" "$ab/b"
}
trap cleanup EXIT
for side in a b; do
    sha=$sha_a
    [[ $side == b ]] && sha=$sha_b
    rm -rf "$ab/$side"
    git clone --quiet --shared --no-checkout "$root" "$ab/$side"
    git -C "$ab/$side" checkout --quiet --detach "$sha"
    mkdir -p "$ab/build-$side"
    ln -s "$ab/build-$side" "$ab/$side/.bench_build"
done

results="$ab/results/$workload-${sha_a:0:7}-${sha_b:0:7}-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$results"
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    order="a b"
    ((i % 2)) && order="b a"
    for side in $order; do
        echo "ab.sh: pair $((i + 1))/$pairs, seed $seed, $side" >&2
        out="$results/$side-$i.json"
        (cd "$ab/$side" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
            --seconds "$secs" --trace 0) >"$out"
        sha=$sha_a
        [[ $side == b ]] && sha=$sha_b
        commit="$(head -n 1 "$out" | sed -n 's/.*"commit":"\([^"]*\)".*/\1/p')"
        if [[ $commit != "$sha" ]]; then
            echo "ab.sh: $out was built from commit '${commit:-none}', not side $side's $sha" >&2
            exit 1
        fi
    done
done

echo "$workload: $pairs alternating pairs of ${secs} s runs, seeds $seed0–$((seed0 + pairs - 1)), parent ${sha_a:0:7} vs change ${sha_b:0:7}"
echo
go run scripts/abstat.go -bench BENCHMARK.json -pairs "$pairs" "$results"
