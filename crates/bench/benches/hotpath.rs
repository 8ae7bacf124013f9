//! Micro-benchmarks for the per-access hot path: the layers an access
//! flows through millions of times per simulated second — workload rank
//! sampling, region geometry + offset resolution, whole-op generation,
//! and the system's access-resolution path. Runs with `harness = false` on
//! the in-tree [`tpp_bench::microbench`] harness (no external deps).

use tpp_bench::microbench::bench;

use tiered_mem::{PageLocation, PageType, Vpn};
use tiered_sim::{Access, AccessKind, Op, SimRng, Workload, SEC};
use tiered_workloads::{RegionSpec, WindowedRegion, WorkloadProfile, ZipfSampler};
use tpp::policy::Tpp;
use tpp::{configs, System};

/// Domain size for the sampler benches: the scale of a large region's
/// hot window, big enough that a CDF binary search would be ~20 probes.
const ZIPF_DOMAIN: u64 = 1_000_000;

fn bench_zipf_sample() {
    let zipf = ZipfSampler::new(ZIPF_DOMAIN, 0.8);
    let mut rng = SimRng::seed(42);
    bench("hotpath/zipf_sample", || {
        std::hint::black_box(zipf.sample(&mut rng));
    });
}

fn bench_region_sample() {
    let spec = RegionSpec::steady(0, ZIPF_DOMAIN, PageType::Anon, 0.3);
    let region = WindowedRegion::new(spec);
    let mut rng = SimRng::seed(43);
    // Advance time a little per draw so the geometry cache sees realistic
    // epoch churn (mostly hits, a miss whenever the dwell step rolls).
    let mut now = 0u64;
    bench("hotpath/region_sample", || {
        now += 1_000; // ~1 µs between accesses
        std::hint::black_box(region.sample(now, &mut rng));
    });
}

/// Steady-state op generation: `next_op_into` on one reused buffer, the
/// way the run loop drives a workload, after warm-up and the first
/// materialisation bursts.
fn bench_next_op(name: &str, profile: WorkloadProfile) {
    // Simulated time per op: about a Cache1 op's CPU burst plus stalls.
    const OP_NS: u64 = 15_000;
    let mut workload = profile.build();
    let mut rng = SimRng::seed(45);
    let mut op = Op::default();
    let mut now = 0u64;
    while workload.in_warmup() || now < SEC {
        workload.next_op_into(now, &mut rng, &mut op);
        now += OP_NS;
    }
    bench(name, || {
        workload.next_op_into(now, &mut rng, &mut op);
        now += OP_NS;
        std::hint::black_box(&op);
    });
}

fn bench_execute_access_hot() {
    // A warmed-up system: every page of the working set mapped, so the
    // bench exercises the mapped-not-hinted fast path the run loop takes
    // for the overwhelming majority of accesses.
    let ws_pages = 20_000u64;
    let workload = tiered_workloads::uniform(ws_pages).build();
    let pid = workload.pid();
    let memory = configs::two_to_one(ws_pages + ws_pages / 2);
    let mut system = System::new(memory, Box::new(Tpp::new()), Box::new(workload), 44).unwrap();
    system.run(2 * SEC);
    let mapped: Vec<Vpn> = (0..ws_pages)
        .map(Vpn)
        .filter(|&v| {
            matches!(
                system.memory().space(pid).translate(v),
                Some(PageLocation::Mapped(_))
            )
        })
        .collect();
    assert!(
        mapped.len() as u64 > ws_pages / 4,
        "warm-up mapped only {} pages",
        mapped.len()
    );
    let now = system.now_ns();
    let mut i = 0usize;
    bench("hotpath/execute_access_hot", || {
        let access = Access {
            pid,
            vpn: mapped[i % mapped.len()],
            kind: AccessKind::Load,
            page_type: PageType::Anon,
        };
        i += 1;
        std::hint::black_box(system.resolve_access(now, &access));
    });
}

fn main() {
    bench_zipf_sample();
    bench_region_sample();
    bench_next_op("hotpath/next_op_cache1", tiered_workloads::cache1(24_000));
    bench_next_op(
        "hotpath/next_op_fragmenter",
        tiered_workloads::fragmenter(24_000),
    );
    bench_next_op(
        "hotpath/next_op_data_warehouse",
        tiered_workloads::data_warehouse(12_000),
    );
    bench_execute_access_hot();
}
