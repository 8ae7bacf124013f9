//! Micro-benchmarks for the policy hot paths: fault handling, demotion
//! passes, promotion via hint faults, and hint-PTE scanning. Runs with
//! `harness = false` on the in-tree [`tpp_bench::microbench`] harness.

use tpp_bench::microbench::{bench, bench_with_setup};

use tiered_mem::{Memory, NodeId, NodeKind, PageType, Pid, Vpn};
use tiered_sim::LatencyModel;
use tpp::policy::{
    HintSampler, LinuxDefault, PlacementPolicy, PolicyCtx, SampleScope, SamplerConfig, Tpp,
};

fn machine(local: u64, cxl: u64) -> Memory {
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, local)
        .node(NodeKind::Cxl, cxl)
        .swap_pages(4 * (local + cxl))
        .build();
    m.create_process(Pid(1));
    m
}

fn bench_fault_path() {
    let lat = LatencyModel::datacenter();
    {
        let mut m = machine(1 << 16, 1 << 16);
        let mut policy = LinuxDefault::new();
        let mut vpn = 0u64;
        bench("policy/linux_fault_fastpath", || {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            let out = policy.handle_fault(&mut ctx, Pid(1), Vpn(vpn), PageType::Anon);
            std::hint::black_box(out.pfn);
            m.release(Pid(1), Vpn(vpn));
            vpn += 1;
        });
    }
    {
        let mut m = machine(1 << 16, 1 << 16);
        let mut policy = Tpp::new();
        let mut vpn = 0u64;
        bench("policy/tpp_fault_fastpath", || {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            let out = policy.handle_fault(&mut ctx, Pid(1), Vpn(vpn), PageType::Anon);
            std::hint::black_box(out.pfn);
            m.release(Pid(1), Vpn(vpn));
            vpn += 1;
        });
    }
}

fn bench_demotion_tick() {
    let lat = LatencyModel::datacenter();
    bench_with_setup(
        "policy/tpp_demotion_tick_under_pressure",
        || {
            // Local node filled past the demotion trigger.
            let mut m = machine(4096, 16384);
            for i in 0..4000u64 {
                m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::File)
                    .unwrap();
            }
            (m, Tpp::new())
        },
        |(mut m, mut policy)| {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            policy.tick(&mut ctx);
            std::hint::black_box(m.vmstat().demoted_total());
        },
    );
}

fn bench_promotion_hint_fault() {
    let lat = LatencyModel::datacenter();
    bench_with_setup(
        "policy/tpp_promotion_hint_fault",
        || {
            let mut m = machine(8192, 8192);
            // Anon pages on the CXL node (start on the active list,
            // so the filter lets them through).
            let pfns: Vec<_> = (0..1024u64)
                .map(|i| {
                    m.alloc_and_map(NodeId(1), Pid(1), Vpn(i), PageType::Anon)
                        .unwrap()
                })
                .collect();
            (m, Tpp::new(), pfns)
        },
        |(mut m, mut policy, pfns)| {
            for pfn in pfns {
                let mut ctx = PolicyCtx {
                    memory: &mut m,
                    latency: &lat,
                    now_ns: 0,
                };
                std::hint::black_box(policy.on_hint_fault(&mut ctx, pfn));
            }
        },
    );
}

fn bench_sampler() {
    let mut m = machine(1 << 15, 1 << 15);
    for i in 0..16384u64 {
        let node = if i % 2 == 0 { NodeId(0) } else { NodeId(1) };
        m.alloc_and_map(node, Pid(1), Vpn(i), PageType::Anon)
            .unwrap();
    }
    let mut sampler = HintSampler::new(SamplerConfig {
        pages_per_scan: 4096,
        period_ns: 1,
        scope: SampleScope::CxlOnly,
    });
    bench("policy/hint_sampler_scan_16k_pages", || {
        std::hint::black_box(sampler.scan(&mut m));
    });
}

fn main() {
    bench_fault_path();
    bench_demotion_tick();
    bench_promotion_hint_fault();
    bench_sampler();
}
