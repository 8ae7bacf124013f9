//! Property-style tests for the workload generators, driven by seeded
//! [`SimRng`] loops (no external proptest dependency).

use tiered_mem::{PageType, Pid, Vpn};
use tiered_sim::{Op, SimRng, Workload, WorkloadEvent, MS, SEC};
use tiered_workloads::{RegionSpec, TransientPool, WindowedRegion, ZipfSampler};

/// Region samples never escape the region bounds, at any time, for
/// arbitrary window geometry (including frontier and tail modes).
#[test]
fn region_samples_stay_in_bounds() {
    let mut meta = SimRng::seed(0x4E61);
    for case in 0..64u64 {
        let pages = meta.range(8..5_000);
        let window_frac = 0.01 + meta.f64() * 0.99;
        let step = meta.range(1..500);
        let zipf = meta.f64() * 1.5;
        let frontier = meta.f64() * 0.9;
        let tail = meta.f64() * 0.05;
        let t = meta.range(0..100_000_000_000);
        let seed = meta.range(0..1_000);
        let spec = RegionSpec {
            base_vpn: 1_000_000,
            pages,
            page_type: PageType::Anon,
            window_frac,
            dwell_ns: 10 * SEC,
            step_pages: step,
            zipf_skew: zipf,
            store_frac: 0.3,
            growth: None,
            frontier_weight: frontier,
            frontier_frac: 0.1,
            tail_weight: tail,
        };
        let region = WindowedRegion::new(spec);
        let mut rng = SimRng::seed(seed);
        for _ in 0..200 {
            let (vpn, _) = region.sample(t, &mut rng);
            assert!(
                region.contains(vpn),
                "case {case}: {vpn} escaped the region"
            );
        }
    }
}

/// The transient pool never holds more live pages than its range and
/// never double-allocates a live VPN.
#[test]
fn transient_pool_is_always_consistent() {
    let mut meta = SimRng::seed(0x7261);
    for case in 0..64u64 {
        let range = meta.range(1..64);
        let lifetime = meta.range(1..1_000);
        let steps = meta.range(1..200);
        let mut pool = TransientPool::new(0, range, lifetime);
        let mut now = 0u64;
        let mut live = std::collections::HashSet::new();
        for _ in 0..steps {
            now += meta.range(0..100);
            let try_alloc = meta.chance(0.5);
            for vpn in pool.drain_expired(now) {
                assert!(live.remove(&vpn), "case {case}: expired {vpn} was not live");
            }
            if try_alloc {
                if let Some(vpn) = pool.allocate(now) {
                    assert!(live.insert(vpn), "case {case}: double allocation of {vpn}");
                }
            }
            assert!(pool.live_count() <= range);
            assert_eq!(pool.live_count() as usize, live.len());
        }
    }
}

/// The Zipf sampler's empirical mass is non-increasing in rank bands:
/// lower ranks get at least as much traffic as higher bands.
#[test]
fn zipf_band_mass_decreases() {
    let mut meta = SimRng::seed(0x5A1F);
    for case in 0..16u64 {
        let seed = meta.range(0..500);
        let skew = 0.4 + meta.f64();
        let zipf = ZipfSampler::new(256, skew);
        let mut rng = SimRng::seed(seed);
        let mut counts = [0u32; 4]; // bands of 64 ranks
        for _ in 0..20_000 {
            counts[(zipf.sample(&mut rng) / 64) as usize] += 1;
        }
        assert!(counts[0] >= counts[1], "case {case} skew {skew}");
        assert!(counts[1] >= counts[2].saturating_sub(150)); // noise slack
        assert!(counts[0] > counts[3]);
    }
}

/// Every built-in profile generates ops forever without panicking and
/// respects its declared access budget per op (materialisation bursts
/// and churn included).
#[test]
fn profiles_generate_bounded_ops() {
    for which in 0u8..7 {
        for seed in [0u64, 17, 61] {
            let ws = 800;
            let profile = match which {
                0 => tiered_workloads::web(ws),
                1 => tiered_workloads::cache1(ws),
                2 => tiered_workloads::cache2(ws),
                3 => tiered_workloads::data_warehouse(ws),
                4 => tiered_workloads::kv_store(ws),
                5 => tiered_workloads::batch_analytics(ws),
                _ => tiered_workloads::uniform(ws),
            };
            let per_op_cap = profile.accesses_per_op as usize
                + 16 * profile.regions.len() // materialisation bursts
                + 8 // churn touches + retouch
                + profile.transient.map_or(0, |t| {
                    t.touches_per_page as usize * (t.allocs_per_op.ceil() as usize + 1)
                });
            let mut w = profile.build();
            let mut rng = SimRng::seed(seed);
            for i in 0..500u64 {
                let was_warmup = w.in_warmup();
                let op = w.next_op(i * 20_000_000, &mut rng);
                if !was_warmup {
                    assert!(
                        op.access_count() <= per_op_cap,
                        "profile {which} seed {seed}: op with {} accesses exceeds cap {per_op_cap}",
                        op.access_count()
                    );
                }
                for e in &op.events {
                    if let WorkloadEvent::Access(a) = e {
                        assert_eq!(a.pid, w.pid());
                    }
                }
            }
        }
    }
}

/// `next_op_into` on a reused, deliberately dirty buffer produces
/// exactly the op `next_op` returns on a twin workload, op for op:
/// through warm-up, the warm-up → steady transition, and churn ops that
/// carry `Free` events.
#[test]
fn next_op_into_a_dirty_buffer_matches_next_op() {
    let ws = 800;
    let mut profiles = tiered_workloads::all_production(ws);
    profiles.push(tiered_workloads::fragmenter(ws));
    profiles.push(tiered_workloads::thp_friendly(ws));
    profiles.push(tiered_workloads::uniform(ws));
    let stale = WorkloadEvent::Free {
        pid: Pid(999),
        vpn: Vpn(u64::MAX),
    };
    for profile in profiles {
        let name = profile.name.clone();
        let mut fresh = profile.build();
        let mut reused = profile.build();
        let mut rng_fresh = SimRng::seed(5);
        let mut rng_reused = SimRng::seed(5);
        let mut op = Op {
            cpu_ns: 1,
            events: vec![stale; 40],
        };
        let mut warmup_ops = 0u32;
        let mut frees = 0u32;
        // 20 ms apart, so 3k ops outlast every churn lifetime.
        for i in 0..3_000u64 {
            let now = i * 20 * MS;
            warmup_ops += fresh.in_warmup() as u32;
            let want = fresh.next_op(now, &mut rng_fresh);
            op.cpu_ns = u64::MAX;
            op.events.push(stale);
            reused.next_op_into(now, &mut rng_reused, &mut op);
            assert_eq!(op.cpu_ns, want.cpu_ns, "{name}: op {i} cpu_ns");
            assert_eq!(op.events, want.events, "{name}: op {i} events");
            frees += want
                .events
                .iter()
                .filter(|e| matches!(e, WorkloadEvent::Free { .. }))
                .count() as u32;
        }
        if profile.warmup.is_some() {
            assert!(
                warmup_ops > 0 && !fresh.in_warmup(),
                "{name}: no warm-up transition"
            );
        }
        if profile.transient.is_some() {
            assert!(frees > 0, "{name}: no churn frees");
        }
    }
}
