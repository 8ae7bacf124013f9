#!/usr/bin/env python3
"""Benchmark of the TPP tiered-memory simulator.

Run from the repository root:

    python3 perfbench/run.py --workload cache1-1to4 --seed 42 --seconds 30 --trace 0

It builds the worker (`perfbench/src`, a Cargo package of its own that
links the repository's crates), then runs the workload once per worker
process, repeating while another repetition fits in `--seconds` of host time (and
at least `MIN_REPS` times). Every repetition is a full standard-scale run: 24k-page
working set, 4 simulated minutes, TPP.

`--trace 0` reports the end-to-end metrics from plain runs. `--trace 1`
alternates plain and traced repetitions; the traced ones wrap the
workload and policy in timing decorators (`perfbench/src/trace.rs`) and
give the per-layer metrics, and the plain ones give the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every repetition passed the correctness gate, 1 when one failed, and 2
when the worker could not be built or the arguments are wrong.
"""

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(ROOT, "crates", "bench", "expected")

WORKLOADS = ("cache1-1to4", "fragmenter-thp", "colocated-2to1")
# Repetitions per run, at least: plain ones for `--trace 0`, one plain and
# one traced for `--trace 1`. The 4-minute workloads take 11-15 s each on a
# 2-core Xeon, so a 30 s run fits two of them.
MIN_REPS = 2
# A repetition that has not finished after this many host seconds is
# killed and counted as failed.
REP_TIMEOUT_S = 120

# The seed the paper-derived `expected/` snapshots were captured at
# (`Scale::standard`). Only at this seed do the snapshot gates apply.
SNAPSHOT_SEED = 42


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_worker():
    """Builds the worker in release mode and returns its executable path."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    except FileNotFoundError:
        die("cargo not found")
    if out.returncode != 0:
        die(f"building the worker failed (cargo exit {out.returncode})")
    exe = None
    for line in out.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "tpp-perfbench":
                exe = msg["executable"]
    if exe is None:
        die("cargo reported no worker executable")
    return exe


def run_rep(exe, workload, seed, traced):
    """Runs one repetition in its own process.

    Returns (result dict or None, host seconds, peak RSS in KiB). `None`
    means the worker panicked, failed `Memory::validate`, timed out or
    printed no result.
    """
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--traced", "1" if traced else "0"]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    killer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    killer.start()
    # wait4 rather than Popen.wait: it returns this child's own rusage,
    # whose ru_maxrss is the worker's peak resident memory.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    reader.join()
    proc.stdout.close()
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return None, elapsed, usage.ru_maxrss
    lines = chunks[0].decode().strip().splitlines()
    try:
        return json.loads(lines[-1]), elapsed, usage.ru_maxrss
    except (IndexError, json.JSONDecodeError):
        print("perfbench: worker printed no result", file=sys.stderr)
        return None, elapsed, usage.ru_maxrss


def fingerprint(rep):
    """The simulated outcome: identical across every run of a seed."""
    lanes = [(l["name"], l["ops"], l["accesses"], l["local_accesses"]) for l in rep["lanes"]]
    return (rep["clock_ns"], lanes, sorted(rep["vmstat"].items()))


def pct(frac):
    """Formats like the `expected/` snapshots (`tpp_bench::scale::pct`)."""
    return f"{frac * 100:.1f}%"


def promoted(vm):
    return vm["pgpromote_success_anon"] + vm["pgpromote_success_file"]


def read_rows(name):
    with open(os.path.join(EXPECTED, name), newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def snapshot_checks(workload):
    """The seed-42 gates: (description, expected text, fn(rep) -> text)."""
    if workload == "cache1-1to4":
        row = next(r for r in read_rows("figure_16_1_4_local_cxl_80_of_working_set_on_cxl.csv")
                   if r["workload"] == "cache1" and r["policy"] == "tpp")
        return [
            ("fig16 cache1 tpp local traffic", row["local traffic"],
             lambda rep: pct(rep["lanes"][0]["steady_local"])),
            ("fig16 cache1 tpp promoted", row["promoted"],
             lambda rep: str(promoted(rep["vmstat"]))),
        ]
    if workload == "colocated-2to1":
        rows = read_rows("extra_co_located_cache1_data_warehouse_on_one_2_1_machine.csv")
        checks = []
        for lane, name in enumerate(("cache1", "data_warehouse")):
            row = next(r for r in rows if r["policy"] == "tpp" and r["workload"] == name)
            checks += [
                (f"colocation tpp {name} ops/s", row["ops/s"],
                 lambda rep, i=lane: f"{rep['lanes'][i]['steady_ops_per_s']:.0f}"),
                (f"colocation tpp {name} local traffic", row["local traffic"],
                 lambda rep, i=lane: pct(rep["lanes"][i]["local"])),
            ]
        return checks
    return []


def git_revision():
    # The ceiling stops git from looking above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return rev + ("-dirty" if dirty else "")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(traced):
    return {
        "git_rev": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "kernel": os.uname().release,
        "traced": traced,
    }


def end_to_end(reps, rss_kib):
    """End-to-end metrics: host ones are medians over the plain repetitions,
    simulated ones are the same in every repetition."""
    lanes = reps[0]["lanes"]
    accesses = sum(l["accesses"] for l in lanes)
    return {
        "accesses_per_s": (statistics.median(
            sum(l["accesses"] for l in r["lanes"]) / r["run_s"] for r in reps), "accesses/s"),
        "setup_s": (statistics.median(s for r in reps for s in r["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(rss_kib) / 1024, "MiB"),
        "sim_ops_per_s": (sum(l["steady_ops_per_s"] for l in lanes), "ops/s"),
        "local_traffic": (sum(l["steady_local"] * l["accesses"] for l in lanes) / accesses,
                          "fraction"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def self_s(calls):
    """A layer's host time, scaled up from its timed calls to all calls."""
    return calls["timed_ns"] * ratio(calls["calls"], calls["timed"]) / 1e9


def layers_s(rep):
    """Host time inside the wrapped calls; the rest of the run is the engine's."""
    return sum(self_s(rep["layers"][k]) for k in ("next_op", "fault", "hint", "tick"))


def tick_percentile(rep, q):
    ticks = sorted(rep["layers"]["tick_ns"])
    return ticks[min(len(ticks) - 1, int(q * len(ticks)))] / 1e3


def per_layer(traced, plain):
    """Per-layer metrics: medians over the traced repetitions."""
    def med(fn):
        return statistics.median(fn(r) for r in traced)

    first = traced[0]
    L, vm = first["layers"], first["vmstat"]
    accesses = sum(l["accesses"] for l in first["lanes"])
    multi = len(first["lanes"]) > 1
    engine_s = med(lambda r: r["run_s"] - layers_s(r))
    engine_share = med(lambda r: (r["run_s"] - layers_s(r)) / r["run_s"])
    m = {
        "workloads.next_op.calls": (L["next_op"]["calls"], "count"),
        "workloads.next_op.self_s": (med(lambda r: self_s(r["layers"]["next_op"])), "s"),
        "workloads.next_op.ns_per_call": (med(lambda r: ratio(
            r["layers"]["next_op"]["timed_ns"], r["layers"]["next_op"]["timed"])), "ns"),
        "workloads.share": (med(lambda r: self_s(r["layers"]["next_op"]) / r["run_s"]),
                            "fraction"),
    }
    for name, active in (("system", not multi), ("multi", multi)):
        m[f"{name}.self_s"] = (engine_s if active else 0.0, "s")
        m[f"{name}.share"] = (engine_share if active else 0.0, "fraction")
        m[f"{name}.ns_per_access"] = (engine_s * 1e9 / accesses if active else 0.0, "ns")
    for key, layer in (("fault", "policy.fault"), ("hint", "policy.hint"), ("tick", "policy.tick")):
        m[f"{layer}.calls"] = (L[key]["calls"], "count")
        m[f"{layer}.self_s"] = (med(lambda r, k=key: self_s(r["layers"][k])), "s")
        m[f"{layer}.share"] = (med(lambda r, k=key: self_s(r["layers"][k]) / r["run_s"]),
                               "fraction")
        m[f"{layer}.ns_per_call"] = (med(lambda r, k=key: ratio(
            r["layers"][k]["timed_ns"], r["layers"][k]["timed"])), "ns")
    m.update({
        "policy.tick.p50_us": (med(lambda r: tick_percentile(r, 0.50)), "us"),
        "policy.tick.p99_us": (med(lambda r: tick_percentile(r, 0.99)), "us"),
        "policy.tick.max_us": (med(lambda r: tick_percentile(r, 1.0)), "us"),
        "vm.pgfault": (vm["pgfault"], "count"),
        "vm.pgalloc_remote": (vm["pgalloc_remote"], "count"),
        "vm.pgalloc_stall": (vm["allocstall"], "count"),
        "vm.thp_fault_alloc": (vm["thp_fault_alloc"], "count"),
        "vm.numa_hint_faults": (vm["numa_hint_faults"], "count"),
        "vm.numa_hint_faults_local": (vm["numa_hint_faults_local"], "count"),
        "vm.pgpromote_success": (promoted(vm), "count"),
        "policy.hint.useful_ratio": (ratio(promoted(vm), vm["numa_hint_faults"]), "fraction"),
        "vm.pgdemote": (vm["pgdemote_anon"] + vm["pgdemote_file"], "count"),
        "vm.pgscan": (vm["pgscan"], "count"),
        "vm.numa_pte_updates": (vm["numa_pte_updates"], "count"),
        "vm.thp_collapse_alloc": (vm["thp_collapse_alloc"], "count"),
        "vm.thp_split": (vm["thp_split"], "count"),
        "vm.compact_success": (vm["compact_success"], "count"),
        "vm.compact_fail": (vm["compact_fail"], "count"),
        "policy.tick.compact_useful_ratio": (ratio(
            vm["compact_success"], vm["compact_success"] + vm["compact_fail"]), "fraction"),
        "trace.overhead": (statistics.median(r["run_s"] for r in traced)
                           / statistics.median(r["run_s"] for r in plain) - 1, "fraction"),
    })
    return m


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=SNAPSHOT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    exe = build_worker()
    checks = snapshot_checks(args.workload) if args.seed == SNAPSHOT_SEED else []
    traced_mode = args.trace == 1
    # Plain only, or plain and traced alternating (plain first).
    kinds = (False, True) if traced_mode else (False,)

    reps, attempted, failures, reference = [], 0, [], None
    start = time.monotonic()
    longest = 0.0
    while attempted < MIN_REPS or time.monotonic() - start + longest <= args.seconds:
        traced = kinds[attempted % len(kinds)]
        attempted += 1
        rep, elapsed, rss = run_rep(exe, args.workload, args.seed, traced)
        longest = max(longest, elapsed)
        if rep is None:
            failures.append(f"rep {attempted}: worker failed")
            continue
        fp = fingerprint(rep)
        if reference is None:
            reference = fp
        problems = [] if fp == reference else ["simulated fingerprint differs from rep 1"]
        for what, want, got in checks:
            if got(rep) != want:
                problems.append(f"{what}: got {got(rep)}, expected {want}")
        if problems:
            failures.append(f"rep {attempted}: " + "; ".join(problems))
            continue
        reps.append((rep, rss))

    plain = [r for r, _ in reps if not r["traced"]]
    traced = [r for r, _ in reps if r["traced"]]
    metrics = {}
    if plain and (traced or not traced_mode):
        if traced_mode:
            metrics = per_layer(traced, plain)
        else:
            metrics = end_to_end(plain, [rss for r, rss in reps])

    prov = provenance(traced_mode)
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# provenance {json.dumps(prov)}")
    print(f"# repetitions: {attempted} attempted, {len(failures)} failed, "
          f"{len(plain)} plain, {len(traced)} traced; snapshot gates: {len(checks)}")
    if plain:
        walls = sorted(r["run_s"] for r in plain)
        print(f"# plain run wall s: min {walls[0]:.3f} median {statistics.median(walls):.3f} "
              f"max {walls[-1]:.3f} (n={len(walls)})")
    for t in traced:
        print(f"# traced run wall {t['run_s']:.3f} s = engine self "
              f"{t['run_s'] - layers_s(t):.3f} s + layer self times {layers_s(t):.3f} s")
    for f in failures:
        print(f"# FAILED {f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    correct = not failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
