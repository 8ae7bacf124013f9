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

# Determinism gates: each reduced-scale target must produce
# byte-identical tables with and without the parallel executor. (The
# checked-in expected/ snapshots are standard-scale, so the quick run is
# gated against itself: --jobs 1 vs --jobs 2.)
#   all       executor determinism over every target on two nodes;
#   topology  the multi-preset grid: cells span several machine shapes,
#             so it exercises scheduling paths `all` with two nodes does
#             not;
#   thp       the huge-page grid: khugepaged/kcompactd run in every
#             non-`never` cell, so it exercises the compound-page paths
#             the base-page targets never touch.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo build --release -q -p tpp-bench --bin repro
for gate in "all executor" "topology topology" "thp thp"; do
  read -r target name <<<"$gate"
  ./target/release/repro "$target" --quick --jobs 1 --csv "$tmp/$target.j1" >"$tmp/$target.j1.out" 2>/dev/null
  ./target/release/repro "$target" --quick --jobs 2 --csv "$tmp/$target.j2" >"$tmp/$target.j2.out" 2>/dev/null
  diff -r "$tmp/$target.j1" "$tmp/$target.j2" >/dev/null || {
    echo "$name determinism gate FAILED: --jobs 2 CSV tables differ from --jobs 1" >&2
    exit 1
  }
  diff "$tmp/$target.j1.out" "$tmp/$target.j2.out" >/dev/null || {
    echo "$name determinism gate FAILED: --jobs 2 stdout differs from --jobs 1" >&2
    exit 1
  }
  echo "$name determinism gate: --jobs 2 output byte-identical to --jobs 1"
done

# If this change regenerated the checked-in bench report, surface the
# throughput delta for review.
if ! git diff --quiet HEAD -- BENCH_repro.json 2>/dev/null; then
  if git show HEAD:BENCH_repro.json >"$tmp/bench_baseline.json" 2>/dev/null; then
    echo "BENCH_repro.json changed; delta vs HEAD:"
    scripts/bench_delta.sh "$tmp/bench_baseline.json" BENCH_repro.json || true
  fi
fi
