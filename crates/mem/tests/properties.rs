//! Property-style tests for the memory substrate: arbitrary operation
//! sequences must never break the cross-structure invariants that
//! `Memory::validate` checks (frame accounting, LRU partition, page-table
//! ↔ rmap bijection, swap-slot consistency).
//!
//! `tiered-mem` is dependency-free, so randomised sequences come from a
//! local SplitMix64 generator instead of proptest; every case is a pure
//! function of its seed.

use std::collections::BTreeSet;

use tiered_mem::{
    AddressSpace, LruKind, Memory, NodeId, NodeKind, PageLocation, PageType, Pfn, Pid, SwapSlot,
    Vpn, HUGE_PAGE_FRAMES,
};

/// Minimal deterministic generator for test sequences (SplitMix64).
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One step of a random workload against the substrate.
#[derive(Clone, Debug)]
enum Op {
    Map { node: u8, vpn: u64, ptype: u8 },
    Release { vpn: u64 },
    Migrate { vpn: u64, dst: u8 },
    SwapOut { vpn: u64 },
    SwapIn { vpn: u64, node: u8 },
    Activate { vpn: u64 },
    Deactivate { vpn: u64 },
    Rotate { vpn: u64 },
    DropFile { vpn: u64 },
}

fn random_op(rng: &mut TestRng) -> Op {
    let vpn = rng.below(32);
    match rng.below(9) {
        0 => Op::Map {
            node: rng.below(2) as u8,
            vpn,
            ptype: rng.below(3) as u8,
        },
        1 => Op::Release { vpn },
        2 => Op::Migrate {
            vpn,
            dst: rng.below(2) as u8,
        },
        3 => Op::SwapOut { vpn },
        4 => Op::SwapIn {
            vpn,
            node: rng.below(2) as u8,
        },
        5 => Op::Activate { vpn },
        6 => Op::Deactivate { vpn },
        7 => Op::Rotate { vpn },
        _ => Op::DropFile { vpn },
    }
}

fn random_ops(seed: u64, max_len: u64) -> Vec<Op> {
    let mut rng = TestRng(seed);
    let len = 1 + rng.below(max_len);
    (0..len).map(|_| random_op(&mut rng)).collect()
}

fn ptype_of(code: u8) -> PageType {
    match code % 3 {
        0 => PageType::Anon,
        1 => PageType::File,
        _ => PageType::Tmpfs,
    }
}

fn small_memory() -> Memory {
    Memory::builder()
        .node(NodeKind::LocalDram, 24)
        .node(NodeKind::Cxl, 24)
        .swap_pages(64)
        .build()
}

fn mapped_pfn(m: &Memory, pid: Pid, vpn: Vpn) -> Option<Pfn> {
    m.space(pid).translate(vpn).and_then(|l| l.pfn())
}

fn apply(m: &mut Memory, pid: Pid, op: &Op) {
    match *op {
        Op::Map { node, vpn, ptype } => {
            let vpn = Vpn(vpn);
            if m.space(pid).translate(vpn).is_none() {
                let _ = m.alloc_and_map(NodeId(node), pid, vpn, ptype_of(ptype));
            }
        }
        Op::Release { vpn } => {
            m.release(pid, Vpn(vpn));
        }
        Op::Migrate { vpn, dst } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                let _ = m.migrate_page(pfn, NodeId(dst));
            }
        }
        Op::SwapOut { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                let _ = m.swap_out(pfn);
            }
        }
        Op::SwapIn { vpn, node } => {
            let vpn = Vpn(vpn);
            if let Some(PageLocation::Swapped(_)) = m.space(pid).translate(vpn) {
                // Page type must match the LRU class later; anon is fine as
                // the simulator re-types on swap-in like a fresh mapping.
                let _ = m.swap_in(pid, vpn, NodeId(node), PageType::Anon);
            }
        }
        Op::Activate { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                m.activate_page(pfn);
            }
        }
        Op::Deactivate { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                m.deactivate_page(pfn);
            }
        }
        Op::Rotate { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                m.rotate_page(pfn);
            }
        }
        Op::DropFile { vpn } => {
            if let Some(pfn) = mapped_pfn(m, pid, Vpn(vpn)) {
                if m.frames().frame(pfn).page_type().is_file_backed() {
                    m.drop_file_page(pfn);
                }
            }
        }
    }
}

/// Any op sequence leaves all substrate invariants intact.
#[test]
fn random_ops_preserve_invariants() {
    for seed in 0..128u64 {
        let ops = random_ops(seed, 199);
        let mut m = small_memory();
        let pid = Pid(1);
        m.create_process(pid);
        for op in &ops {
            apply(&mut m, pid, op);
            m.validate();
        }
    }
}

/// Free + used always equals capacity regardless of op order, and the
/// swap device never leaks slots after process destruction.
#[test]
fn teardown_releases_all_resources() {
    for seed in 1000..1064u64 {
        let ops = random_ops(seed, 149);
        let mut m = small_memory();
        let pid = Pid(1);
        m.create_process(pid);
        for op in &ops {
            apply(&mut m, pid, op);
        }
        m.destroy_process(pid);
        assert_eq!(m.free_pages(NodeId(0)), 24, "seed {seed}");
        assert_eq!(m.free_pages(NodeId(1)), 24, "seed {seed}");
        assert_eq!(m.swap().used_slots(), 0, "seed {seed}");
    }
}

/// Migration never changes what a process observes: the (vpn → type)
/// view is identical before and after a migration pass.
#[test]
fn migration_is_transparent_to_the_process() {
    for seed in 2000..2032u64 {
        let mut rng = TestRng(seed);
        let count = 1 + rng.below(23);
        let vpns: std::collections::BTreeSet<u64> = (0..count).map(|_| rng.below(64)).collect();
        let mut m = small_memory();
        let pid = Pid(1);
        m.create_process(pid);
        let mut view = Vec::new();
        for (i, &v) in vpns.iter().enumerate() {
            let ptype = ptype_of(i as u8);
            if m.alloc_and_map(NodeId(0), pid, Vpn(v), ptype).is_ok() {
                view.push((Vpn(v), ptype));
            }
        }
        // Migrate everything we can to the CXL node.
        for &(vpn, _) in &view {
            if let Some(pfn) = mapped_pfn(&m, pid, vpn) {
                let _ = m.migrate_page(pfn, NodeId(1));
            }
        }
        for &(vpn, ptype) in &view {
            let pfn = mapped_pfn(&m, pid, vpn).expect("mapping lost in migration");
            assert_eq!(m.frames().frame(pfn).page_type(), ptype);
            assert_eq!(m.frames().frame(pfn).owner().unwrap().vpn, vpn);
        }
        m.validate();
    }
}

/// LRU lists form a partition of each node's allocated pages: every
/// allocated frame is on exactly one list, with the class matching its
/// page type.
#[test]
fn lru_is_a_partition() {
    for seed in 3000..3064u64 {
        let ops = random_ops(seed, 149);
        let mut m = small_memory();
        let pid = Pid(1);
        m.create_process(pid);
        for op in &ops {
            apply(&mut m, pid, op);
        }
        for node in [NodeId(0), NodeId(1)] {
            let mut counted = 0u64;
            for kind in LruKind::ALL {
                for pfn in m.node(node).lru.collect(m.frames(), kind) {
                    let f = m.frames().frame(pfn);
                    assert!(f.is_allocated());
                    assert_eq!(f.page_type().is_anon(), kind.is_anon());
                    counted += 1;
                }
            }
            assert_eq!(
                counted,
                m.frames().used_pages(node),
                "seed {seed} node {node:?}"
            );
        }
    }
}

/// The page table's ordered window index agrees with a sorted-set model
/// under random `map` / `set_swapped` / `unmap` sequences, replacements
/// included, over VPNs straddling window edges (511/512) and the
/// `1 << 32` and `3 << 32` region bases. After every step the window list equals the deduplicated
/// window bases of the sorted VPNs, and a ranked run from a random rank
/// equals the sorted VPNs rotated to that rank.
#[test]
fn window_index_matches_sorted_model() {
    /// Window edges the VPNs straddle.
    const EDGES: [u64; 4] = [512, 1536, 1 << 32, 3 << 32];
    let mut buf = Vec::new();
    for seed in 4000..4032u64 {
        let mut rng = TestRng(seed);
        let mut space = AddressSpace::new(Pid(1));
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..400 {
            let edge = EDGES[rng.below(EDGES.len() as u64) as usize];
            let vpn = edge - 16 + rng.below(32);
            match rng.below(3) {
                0 => {
                    let prev = space.map(Vpn(vpn), Pfn(rng.below(1 << 20) as u32));
                    assert_eq!(prev.is_some(), !model.insert(vpn));
                }
                1 => {
                    let prev = space.set_swapped(Vpn(vpn), SwapSlot(rng.below(1 << 20)));
                    assert_eq!(prev.is_some(), !model.insert(vpn));
                }
                _ => {
                    let prev = space.unmap(Vpn(vpn));
                    assert_eq!(prev.is_some(), model.remove(&vpn));
                }
            }
            space.validate();
            let sorted: Vec<Vpn> = model.iter().map(|&v| Vpn(v)).collect();
            let mut windows: Vec<Vpn> = sorted
                .iter()
                .map(|v| Vpn(v.0 - v.0 % HUGE_PAGE_FRAMES))
                .collect();
            windows.dedup();
            assert_eq!(space.windows().collect::<Vec<_>>(), windows, "seed {seed}");
            let r = rng.below(128) as usize;
            let n = rng.below(80) as usize;
            space.ranked_vpns_into(r, n, &mut buf);
            let expected: Vec<Vpn> = if sorted.is_empty() {
                Vec::new()
            } else {
                let mut rotated = sorted.clone();
                rotated.rotate_left(r % sorted.len());
                rotated.truncate(n);
                rotated
            };
            assert_eq!(buf, expected, "seed {seed} rank {r} n {n}");
        }
    }
}
