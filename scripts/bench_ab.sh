#!/usr/bin/env bash
# Interleaved A/B timing of the standalone benchmark: a base revision
# against the working tree.
#
#   scripts/bench_ab.sh BASE_REV [WORKLOAD] [PAIRS] [SECONDS]
#
# Exports BASE_REV to TMP/base and snapshots the working tree (tracked
# and untracked files, ignored ones left out) to TMP/head, beside it.
# Both sides build and run from paths of the same length: the path alone
# has moved a workload's mean by several percent. It then runs PAIRS
# pairs of `--workload WORKLOAD --seconds SECONDS --trace 0`. WORKLOAD
# `all` omits `--workload`, so each run scores every workload and the
# verdict prints a row per workload. The side that runs
# first alternates from pair to pair, so drift and warm-up fall on both
# sides alike. Each run's `--json` document is appended to old.jsonl
# (BASE_REV) or new.jsonl (working tree) in OUT, and the script ends with
# `benchmark --compare old.jsonl new.jsonl`, whose exit status it keeps,
# then prints the gain verdict of `scripts/ab_verdict.py`: per end-to-end
# metric, the working tree's wins out of the pairs and whether the
# medians differ by more than the base's interquartile range.
#
# Defaults: WORKLOAD journaled_ckpt, PAIRS 10, SECONDS 5. Environment:
# SEED (default 42) is passed to both sides; OUT (default
# target/bench_ab) receives the .jsonl files, which are truncated first.
# Run from anywhere inside the repository.
set -euo pipefail

if [ "$#" -lt 1 ] || [ "$#" -gt 4 ]; then
    echo "usage: scripts/bench_ab.sh BASE_REV [WORKLOAD] [PAIRS] [SECONDS]" >&2
    exit 2
fi
base_rev=$1
workload=${2:-journaled_ckpt}
pairs=${3:-10}
seconds=${4:-5}
seed=${SEED:-42}

root=$(git rev-parse --show-toplevel)
cd "$root"
out=${OUT:-$root/target/bench_ab}
mkdir -p "$out"
: > "$out/old.jsonl"
: > "$out/new.jsonl"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base" "$tmp/head"
git archive "$base_rev" | tar -x -C "$tmp/base"
git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -x -C "$tmp/head"

for tree in base head; do
    echo "bench_ab: building $tree"
    CARGO_TARGET_DIR="$tmp/$tree/target" cargo build --release --offline --quiet \
        --manifest-path "$tmp/$tree/benchmark/Cargo.toml"
done

# `all` runs the benchmark without `--workload`: every workload.
select=(--workload "$workload")
if [ "$workload" = all ]; then
    select=()
fi

# One run of one side: `side TREE BINARY JSONL`. The benchmark reads its
# pins relative to the tree it runs in.
side() {
    (cd "$1" && "$2" "${select[@]}" --seed "$seed" --seconds "$seconds" \
        --trace 0 --json "$tmp/run.json" > /dev/null)
    cat "$tmp/run.json" >> "$3"
}

old_bin=$tmp/base/target/release/benchmark
new_bin=$tmp/head/target/release/benchmark
for i in $(seq 1 "$pairs"); do
    echo "bench_ab: pair $i of $pairs"
    if [ $((i % 2)) -eq 1 ]; then
        side "$tmp/base" "$old_bin" "$out/old.jsonl"
        side "$tmp/head" "$new_bin" "$out/new.jsonl"
    else
        side "$tmp/head" "$new_bin" "$out/new.jsonl"
        side "$tmp/base" "$old_bin" "$out/old.jsonl"
    fi
done

status=0
"$new_bin" --compare "$out/old.jsonl" "$out/new.jsonl" || status=$?
python3 "$root/scripts/ab_verdict.py" "$out/old.jsonl" "$out/new.jsonl"
exit "$status"
