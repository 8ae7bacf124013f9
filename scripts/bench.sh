#!/usr/bin/env bash
# Performance snapshot: the substrate microbench suite plus a timed
# standard-scale `repro` run, merged into one JSON report (default:
# BENCH_repro.json at the repo root, which is checked in).
#
#   scripts/bench.sh [output.json]     # JOBS=4 scripts/bench.sh to pin jobs
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_repro.json}"
JOBS="${JOBS:-$(nproc)}"

cargo build --release -q -p tpp-bench --benches --bin repro

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "running substrate microbenches..." >&2
cargo bench -q -p tpp-bench --bench substrate 2>/dev/null | tee "$tmp/micro.txt" >&2
echo "running hotpath microbenches..." >&2
cargo bench -q -p tpp-bench --bench hotpath 2>/dev/null | tee -a "$tmp/micro.txt" >&2

echo "running standard-scale repro (--jobs $JOBS)..." >&2
./target/release/repro all --jobs "$JOBS" --csv "$tmp/results" \
  --timings-json "$tmp/repro.json" >"$tmp/repro.out"

# Assemble the report: host info (including the revision the numbers
# were measured at), the microbench medians (ns/iter), and the repro
# timing JSON verbatim.
GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
git diff --quiet HEAD 2>/dev/null || GIT_REV="$GIT_REV-dirty"
{
  echo "{"
  echo "  \"host\": {\"cpus\": $(nproc), \"os\": \"$(uname -sr)\", \"git_rev\": \"$GIT_REV\"},"
  echo "  \"microbench_median_ns_per_iter\": {"
  awk '/ns\/iter/ {
         v = $2                            # median, e.g. "35" or "55.8us"
         if (v ~ /us$/)      { sub(/us$/, "", v); v *= 1000 }
         else if (v ~ /ms$/) { sub(/ms$/, "", v); v *= 1000000 }
         else if (v ~ /s$/)  { sub(/s$/, "", v);  v *= 1000000000 }
         printf "%s    \"%s\": %s", sep, $1, v; sep = ",\n"
       } END { print "" }' "$tmp/micro.txt"
  echo "  },"
  echo "  \"repro\":"
  sed 's/^/  /' "$tmp/repro.json"
  echo "}"
} >"$OUT"

echo "report written to $OUT" >&2

# Make regressions visible in review: print the delta against the
# checked-in baseline (skipped when the report IS the committed one).
if git show HEAD:BENCH_repro.json >"$tmp/baseline.json" 2>/dev/null; then
  echo "delta vs BENCH_repro.json at HEAD:" >&2
  scripts/bench_delta.sh "$tmp/baseline.json" "$OUT" >&2 || true
fi
