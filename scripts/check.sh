#!/usr/bin/env bash
# Full local gate for the oocnvm workspace. Run from anywhere:
#
#   scripts/check.sh          # everything (what CI runs)
#   scripts/check.sh --fast   # skip the release build
#
# Stages, in dependency order:
#   1. rustfmt        — formatting is canonical (`cargo fmt --check`)
#   2. clippy         — the lint policy of every crate's `[lints]` table
#                       (the workspace base: unwrap/expect/panic deny set,
#                       unsafe_code; then panics, `let _ =`, wildcard enum
#                       arms, `as` casts and library printing per crate)
#                       and the API bans of crates/clippy.toml (hash
#                       collections, wall clock, `RandomState`, env
#                       reads, pointer addresses, `thread::spawn`,
#                       atomics, locks), then the standalone benchmark package,
#                       whose manifest mirrors the workspace base, then
#                       the test code of `ufs` and `ssd` (`--all-targets`;
#                       tests may `expect`, `unwrap` and `panic!`, their
#                       helpers may not); any other clippy warning fails
#                       the stage too (`-D warnings`; docs/INVARIANTS.md)
#   3. clippy fixture — clippy over crates/simlint/fixtures/clippy, which
#                       plants one violation per lint and API ban above:
#                       it must report exactly the lint each planted
#                       line's `// lint:` comment names, and nothing else
#   4. simlint        — the one check clippy cannot express,
#                       unit_mismatch: any finding fails the gate
#                       (docs/STATIC_ANALYSIS.md)
#   5. tests          — the whole workspace test suite, among them the
#                       pinned simulated results of one small sweep,
#                       traced run and solve (crates/bench/tests/
#                       pinned_scenario.rs) and the per-event allocation
#                       budgets of tests/alloc_budget.rs
#   6. release build  — tier-1 artifact (skipped with --fast)
#   7. figures        — the thirteen figure and table bins are re-run
#                       with OOCNVM_TRACE_MIB unset and each output is
#                       `cmp`ed against its committed results/*.txt
#                       (skipped with --fast)
#   8. reliability    — fault-injection smoke: the seeded fault sweep
#                       must be byte-identical run-to-run and the zero
#                       plan identical to the fault-free driver
#                       (docs/FAULT_MODEL.md; skipped with --fast)
#   9. obsreport      — observability smoke: the traced run must match
#                       the untraced run byte-for-byte, the exported
#                       Chrome-trace JSON must parse and be replay-
#                       identical, and the latency attribution must sum
#                       exactly (docs/OBSERVABILITY.md; skipped with
#                       --fast)
#  10. thread sweep   — headline/reliability/obsreport JSON exports at
#                       RAYON_NUM_THREADS=1 and =8 must be byte-
#                       identical, and fig6 (the LOBPCG POSIX trace,
#                       whose panel sweep runs on every worker) must
#                       match results/fig6.txt at both counts: the
#                       thread count is invisible in every output
#                       (docs/PARALLELISM.md; skipped with --fast)
#  11. ufs            — crash-consistency smoke: the journaled UFS must
#                       recover to the committed prefix from power loss
#                       (dropped and torn) at every device write of the
#                       smoke workload, and the study must be byte-
#                       identical on a same-seed re-run; then the full
#                       study's JSON must match the committed
#                       results/BENCH_ufs.json byte-for-byte (docs/UFS.md;
#                       skipped with --fast)
#  12. tenants        — multi-tenant QoS smoke: the tenant-density
#                       sweep must be byte-identical run-to-run and
#                       match the committed results/BENCH_tenants.json
#                       byte-for-byte (docs/TENANCY.md; skipped with
#                       --fast)
#  13. benchmark digests — a one-second run of every workload of the
#                       standalone benchmark package at the pins' seed:
#                       it exits 1 if any workload's digest differs from
#                       results/benchmark/pins.json (skipped with --fast)
#  14. benchmark tests — the standalone benchmark package's own tests
#                       (`cargo test --manifest-path benchmark/Cargo.toml`):
#                       the committed digest pins in
#                       results/benchmark/pins.json pass and a mutated
#                       pin fails, the per-workload bypass checks, the
#                       manifest's mirrored lint policy, and the simlint
#                       scan of the benchmark sources
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *)
            echo "usage: scripts/check.sh [--fast]" >&2
            exit 2
            ;;
    esac
done

step() {
    echo
    echo "==> $*"
}

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace, the benchmark package, ufs and ssd tests (warnings denied)"
cargo clippy --workspace --quiet -- -D warnings
cargo clippy --quiet --manifest-path benchmark/Cargo.toml -- -D warnings
cargo clippy -p ufs -p ssd --all-targets --quiet -- -D warnings

step "clippy fixture (exactly the planted lints, at exactly their lines)"
fixture=crates/simlint/fixtures/clippy
mkdir -p target/clippy-fixture
cargo clippy --quiet --offline --manifest-path "$fixture/Cargo.toml" \
    --target-dir target/clippy-fixture --message-format=json \
    > target/clippy-fixture/lints.jsonl 2> /dev/null || true
python3 - "$fixture" target/clippy-fixture/lints.jsonl <<'EOF'
import collections, json, pathlib, re, sys
fixture = pathlib.Path(sys.argv[1])
want = collections.Counter()
for src in sorted((fixture / "src").rglob("*.rs")):
    for n, line in enumerate(src.read_text().splitlines(), 1):
        if m := re.search(r"// lint: (\S+)$", line):
            want[(src.relative_to(fixture).as_posix(), n, m[1])] += 1
got = collections.Counter()
for line in open(sys.argv[2]):
    msg = json.loads(line)
    if msg.get("reason") == "compiler-message":
        m = msg["message"]
        lint = (m["code"] or {}).get("code") or m["message"]
        for span in (s for s in m["spans"] if s["is_primary"]):
            got[(span["file_name"], span["line_start"], lint)] += 1
for what, diff in (("missing", want - got), ("unexpected", got - want)):
    for path, line, lint in sorted(diff):
        print(f"check.sh: {what} {lint} at {path}:{line}", file=sys.stderr)
sys.exit(1 if want != got or not want else 0)
EOF

step "simlint (unit_mismatch)"
cargo run --quiet -p simlint

step "cargo test --workspace"
cargo test --workspace --quiet

if [ "$fast" -eq 0 ]; then
    step "cargo build --release"
    cargo build --release --quiet

    step "figures (every bin's stdout byte-identical to results/*.txt)"
    for fig in ablations cache_argument energy fig1 fig10 fig6 fig7 fig8 fig9 \
        headline scaling table1 table2; do
        env -u OOCNVM_TRACE_MIB \
            cargo run --release --quiet -p oocnvm-bench --bin "$fig" > "target/$fig.txt"
        cmp "target/$fig.txt" "results/$fig.txt" || {
            echo "check.sh: $fig output differs from results/$fig.txt" >&2
            exit 1
        }
    done

    step "reliability --smoke (fault-injection determinism)"
    cargo run --release --quiet --bin reliability -- --smoke

    step "obsreport --smoke (observer-effect freedom + trace export)"
    cargo run --release --quiet --bin obsreport -- --smoke --out target/obs_smoke.trace.json

    step "thread sweep (JSON and fig6 byte-identical at 1 vs 8 threads)"
    for n in 1 8; do
        RAYON_NUM_THREADS=$n OOCNVM_TRACE_MIB=8 \
            cargo run --release --quiet -p oocnvm-bench --bin headline -- \
            --json "target/headline.t$n.json" > /dev/null
        RAYON_NUM_THREADS=$n \
            cargo run --release --quiet --bin reliability -- --smoke \
            --json "target/reliability.t$n.json" > /dev/null
        RAYON_NUM_THREADS=$n \
            cargo run --release --quiet --bin obsreport -- --smoke \
            --out "target/obsreport.t$n.trace.json" \
            --json "target/obsreport.t$n.json" > /dev/null
        RAYON_NUM_THREADS=$n \
            cargo run --release --quiet --bin tenants -- --smoke \
            --json "target/tenants.t$n.json" > /dev/null
        RAYON_NUM_THREADS=$n env -u OOCNVM_TRACE_MIB \
            cargo run --release --quiet -p oocnvm-bench --bin fig6 > "target/fig6.t$n.txt"
        cmp "target/fig6.t$n.txt" results/fig6.txt || {
            echo "check.sh: fig6 at $n threads differs from results/fig6.txt" >&2
            exit 1
        }
    done
    for doc in headline reliability obsreport tenants; do
        cmp "target/$doc.t1.json" "target/$doc.t8.json" || {
            echo "check.sh: $doc JSON differs between 1 and 8 threads" >&2
            exit 1
        }
    done
    cmp target/obsreport.t1.trace.json target/obsreport.t8.trace.json || {
        echo "check.sh: obsreport trace JSON differs between 1 and 8 threads" >&2
        exit 1
    }

    step "ufs --smoke (exhaustive crash-point recovery sweep)"
    cargo run --release --quiet --bin ufs -- --smoke
    cargo run --release --quiet --bin ufs -- --json target/ufs.json > /dev/null
    cmp target/ufs.json results/BENCH_ufs.json || {
        echo "check.sh: ufs --json differs from results/BENCH_ufs.json" >&2
        exit 1
    }

    step "tenants --smoke (multi-tenant QoS baseline, byte-identical)"
    cargo run --release --quiet --bin tenants -- --smoke

    step "benchmark digests (every workload against results/benchmark/pins.json)"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seconds 1 --trace 0 > target/benchmark.digests.txt || {
        cat target/benchmark.digests.txt
        echo "check.sh: a benchmark workload failed or missed its digest pin" >&2
        exit 1
    }
fi

step "benchmark tests (digest pins, bypass checks, simlint scan of benchmark/)"
cargo test --quiet --manifest-path benchmark/Cargo.toml

echo
echo "check.sh: all gates passed"
