//! Benchmark worker: sets up one TPP workload, runs it once for the
//! standard simulated duration, checks the machine's invariants and
//! prints one JSON line with host timings and simulated results.
//!
//! `perfbench/run.py` drives this binary: it starts one worker process
//! per repetition, aggregates, and applies the correctness gates.
//!
//! ```text
//! tpp-perfbench --workload <name> --seed <n> --traced <0|1>
//! ```

mod trace;

use std::cell::RefCell;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use tiered_mem::{Memory, NodeKind, ThpMode};
use tiered_sim::{Workload, MINUTE};
use tiered_workloads::WorkloadProfile;
use tpp::policy::{PlacementPolicy, Tpp};
use tpp::{configs, MultiSystem, RunMetrics, System};

use trace::{LayerTimes, SharedTimes, TimedPolicy, TimedWorkload};

/// Working set of every workload, in pages (`Scale::standard`).
const WS_PAGES: u64 = 24_000;
/// Simulated duration of every run (`Scale::standard`).
const DURATION_NS: u64 = 4 * MINUTE;
/// Set-ups per process: set-up takes well under a millisecond, so one
/// sample per process would be mostly noise.
const SETUPS: usize = 15;

/// The benchmark's workloads; see `perfbench/README.md` for why each.
const WORKLOADS: [&str; 3] = ["cache1-1to4", "fragmenter-thp", "colocated-2to1"];

/// A ready-to-run machine: one workload on `System`, or several lanes on
/// `MultiSystem`.
// One engine exists per process, so the variants' size difference is moot.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Single(System),
    Multi(MultiSystem),
}

impl Engine {
    fn run(&mut self, duration_ns: u64) {
        match self {
            Engine::Single(s) => s.run(duration_ns),
            Engine::Multi(m) => m.run(duration_ns),
        }
    }

    fn memory(&self) -> &Memory {
        match self {
            Engine::Single(s) => s.memory(),
            Engine::Multi(m) => m.memory(),
        }
    }

    fn now_ns(&self) -> u64 {
        match self {
            Engine::Single(s) => s.now_ns(),
            Engine::Multi(m) => m.now_ns(),
        }
    }

    fn lanes(&self) -> Vec<&RunMetrics> {
        match self {
            Engine::Single(s) => vec![s.metrics()],
            Engine::Multi(m) => (0..m.lane_count()).map(|i| m.lane_metrics(i)).collect(),
        }
    }
}

/// Wraps a workload in the timing decorator when the run is traced.
fn workload(profile: &WorkloadProfile, times: &Option<SharedTimes>) -> Box<dyn Workload> {
    let inner: Box<dyn Workload> = Box::new(profile.build());
    match times {
        Some(t) => Box::new(TimedWorkload::new(inner, Rc::clone(t))),
        None => inner,
    }
}

/// TPP with paper-default settings, wrapped when the run is traced.
fn policy(times: &Option<SharedTimes>) -> Box<dyn PlacementPolicy> {
    let inner: Box<dyn PlacementPolicy> = Box::new(Tpp::new());
    match times {
        Some(t) => Box::new(TimedPolicy::new(inner, Rc::clone(t))),
        None => inner,
    }
}

/// Builds the named workload's machine, policy and workload(s): the whole
/// of the benchmark's set-up phase. Returns the lane names alongside.
fn build(name: &str, seed: u64, times: &Option<SharedTimes>) -> (Engine, Vec<String>) {
    match name {
        "cache1-1to4" => {
            let profile = tiered_workloads::cache1(WS_PAGES);
            let memory = configs::one_to_four(profile.working_set_pages());
            let system = System::new(memory, policy(times), workload(&profile, times), seed)
                .expect("TPP supports 1:4");
            (Engine::Single(system), vec![profile.name])
        }
        "fragmenter-thp" => {
            let profile = tiered_workloads::fragmenter(WS_PAGES);
            let ws = profile.working_set_pages();
            // The 1:4 shape of `configs::one_to_four`, with THP always on.
            let total = ws * 105 / 100;
            let local = total / 5;
            let mut builder = Memory::builder();
            builder
                .node(NodeKind::LocalDram, local.max(64))
                .node(NodeKind::Cxl, (total - local).max(64))
                .swap_pages(ws * 4)
                .thp_mode(ThpMode::Always);
            let system = System::new(
                builder.build(),
                policy(times),
                workload(&profile, times),
                seed,
            )
            .expect("TPP supports 1:4");
            (Engine::Single(system), vec![profile.name])
        }
        "colocated-2to1" => {
            let profiles = [
                tiered_workloads::cache1(WS_PAGES / 2),
                tiered_workloads::data_warehouse(WS_PAGES / 2),
            ];
            let total: u64 = profiles.iter().map(|p| p.working_set_pages()).sum();
            let lanes = profiles.iter().map(|p| workload(p, times)).collect();
            let system = MultiSystem::new(configs::two_to_one(total), policy(times), lanes, seed)
                .expect("TPP supports 2:1");
            let names = profiles.into_iter().map(|p| p.name).collect();
            (Engine::Multi(system), names)
        }
        other => unreachable!("workload {other} was checked by parse_args"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--traced" => args.traced = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn calls_json(name: &str, c: &trace::CallTimes) -> String {
    format!(
        "\"{name}\":{{\"calls\":{},\"timed\":{},\"timed_ns\":{}}}",
        c.calls, c.timed, c.timed_ns
    )
}

fn layers_json(t: &LayerTimes) -> String {
    format!(
        "{{{},{},{},{},\"tick_ns\":{:?}}}",
        calls_json("next_op", &t.next_op),
        calls_json("fault", &t.fault),
        calls_json("hint", &t.hint),
        calls_json("tick", &t.tick),
        t.tick_ns,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tpp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    // Set up `SETUPS` times and keep the last machine; each earlier one is
    // dropped before the next is built, so peak memory is that of one.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let times = args
            .traced
            .then(|| Rc::new(RefCell::new(LayerTimes::default())));
        let start = Instant::now();
        let (engine, names) = build(&args.workload, args.seed, &times);
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((engine, names, times));
    }
    let (mut engine, names, times) = built.expect("at least one set-up");

    let start = Instant::now();
    engine.run(DURATION_NS);
    let run_s = start.elapsed().as_secs_f64();

    engine.memory().validate();

    let half = DURATION_NS / 2;
    let mut lanes = Vec::new();
    for (name, m) in names.iter().zip(engine.lanes()) {
        lanes.push(format!(
            "{{\"name\":\"{name}\",\"ops\":{},\"accesses\":{},\"local_accesses\":{},\
             \"steady_ops_per_s\":{},\"steady_local\":{},\"local\":{}}}",
            m.ops_completed,
            m.accesses,
            m.local_accesses,
            m.steady_throughput(half, u64::MAX),
            m.steady_local_traffic(half, u64::MAX),
            m.local_traffic_fraction(),
        ));
    }
    let mut vmstat = String::new();
    for (i, (event, value)) in engine.memory().vmstat().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(vmstat, "{sep}\"{}\":{value}", event.name()).expect("write to String");
    }
    let layers = times.map_or_else(|| "null".to_string(), |t| layers_json(&t.borrow()));
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"setup_s\":{setup_s:?},\
         \"run_s\":{run_s},\"clock_ns\":{},\"lanes\":[{}],\"vmstat\":{{{vmstat}}},\
         \"layers\":{layers}}}",
        args.workload,
        args.seed,
        args.traced,
        engine.now_ns(),
        lanes.join(","),
    );
    ExitCode::SUCCESS
}
