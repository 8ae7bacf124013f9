#!/usr/bin/env bash
# Full local gate: formatting, lints (warnings are errors), and the
# complete workspace test suite. CI and pre-PR checks run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace
# Rustdoc must build warnings-clean (broken intra-doc links etc.).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace
# Benches must at least compile (running them is bench.sh's job).
cargo bench --no-run -q -p tpp-bench
# The benchmark worker links the engine crates: an API change that
# breaks it must fail here, not only when the benchmark runs.
cargo build --release -q --offline --locked --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

# Reduced-scale gates over every target (`all` includes the multi-preset
# topology grid and the huge-page grid):
#   determinism  --jobs 2 must produce byte-identical tables and stdout
#                to --jobs 1;
#   values       the --jobs 1 tables must match the checked-in quick
#                snapshots in crates/bench/expected/quick/ byte for byte
#                (the standard-scale snapshots one level up are gated
#                within ±2% by a standard-scale `repro all`, run by hand).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo build --release -q -p tpp-bench --bin repro
./target/release/repro all --quick --jobs 1 --csv "$tmp/j1" >"$tmp/j1.out" 2>/dev/null
./target/release/repro all --quick --jobs 2 --csv "$tmp/j2" >"$tmp/j2.out" 2>/dev/null
diff -r "$tmp/j1" "$tmp/j2" >/dev/null || {
  echo "determinism gate FAILED: --jobs 2 CSV tables differ from --jobs 1" >&2
  exit 1
}
diff "$tmp/j1.out" "$tmp/j2.out" >/dev/null || {
  echo "determinism gate FAILED: --jobs 2 stdout differs from --jobs 1" >&2
  exit 1
}
echo "determinism gate: --jobs 2 output byte-identical to --jobs 1"
diff -rq crates/bench/expected/quick "$tmp/j1" >&2 || {
  echo "quick snapshot gate FAILED: the tables above differ from crates/bench/expected/quick/" >&2
  exit 1
}
echo "quick snapshot gate: every table byte-identical to crates/bench/expected/quick/"

# Trace gate: the quick-scale `--trace` JSONL must keep its event count
# and sha256, recorded as "<events> <sha256>" in
# crates/bench/expected/trace_quick.sha256 (kept outside quick/, whose
# diff above would flag it).
./target/release/repro --quick --trace "$tmp/trace.jsonl" >/dev/null 2>&1
trace_got="$(wc -l <"$tmp/trace.jsonl" | tr -d ' ') $(sha256sum "$tmp/trace.jsonl" | cut -d' ' -f1)"
trace_want="$(cat crates/bench/expected/trace_quick.sha256)"
[ "$trace_got" = "$trace_want" ] || {
  echo "trace gate FAILED: quick --trace JSONL is '$trace_got', expected '$trace_want'" >&2
  exit 1
}
echo "trace gate: quick --trace JSONL byte-identical ($trace_want)"

# If this change regenerated the checked-in bench report, surface the
# throughput delta for review.
if ! git diff --quiet HEAD -- BENCH_repro.json 2>/dev/null; then
  if git show HEAD:BENCH_repro.json >"$tmp/bench_baseline.json" 2>/dev/null; then
    echo "BENCH_repro.json changed; delta vs HEAD:"
    scripts/bench_delta.sh "$tmp/bench_baseline.json" BENCH_repro.json || true
  fi
fi
