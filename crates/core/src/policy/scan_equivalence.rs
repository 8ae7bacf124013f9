//! Equivalence of the cursor-driven daemons with the enumeration they
//! replaced: khugepaged and the hint sampler read the page table's
//! ordered window index, while the reference copies below collect and
//! sort every VPN on each wakeup. Two machines take the same churn in
//! lockstep, one per implementation, and must stay identical.

use tiered_mem::{
    Memory, NodeId, NodeKind, PageFlags, PageLocation, PageType, Pid, ThpMode, VmEvent, Vpn,
    HUGE_PAGE_FRAMES,
};
use tiered_sim::{LatencyModel, SimRng};

use super::huge::{khugepaged_pass, HugeConfig, HugeState, COMPOUND_MIGRATE_FACTOR};
use super::reclaim::DaemonBudget;
use super::sampler::{HintSampler, SampleScope, SamplerConfig};

/// Every VPN of `pid`, collected and sorted.
fn sorted_vpns(memory: &Memory, pid: Pid) -> Vec<Vpn> {
    let mut vpns: Vec<Vpn> = memory.space(pid).iter().map(|(vpn, _)| vpn).collect();
    vpns.sort_unstable();
    vpns
}

/// khugepaged as it was before the window index: distinct windows from
/// the sorted VPN list.
fn reference_khugepaged(
    state: &mut HugeState,
    memory: &mut Memory,
    latency: &LatencyModel,
    budget: DaemonBudget,
) -> u64 {
    let mut scanned = 0u64;
    let mut time_left = budget.time_ns;
    let mut collapsed = 0u64;
    for pid in memory.pids() {
        if scanned >= budget.scan_pages as u64 || time_left == 0 {
            break;
        }
        let mut windows: Vec<u64> = sorted_vpns(memory, pid)
            .iter()
            .map(|vpn| vpn.0 & !(HUGE_PAGE_FRAMES - 1))
            .collect();
        windows.dedup();
        if windows.is_empty() {
            continue;
        }
        let mut idx = (*state.khugepaged_cursor.get(&pid).unwrap_or(&0) as usize) % windows.len();
        let mut visited = 0usize;
        while visited < windows.len() && scanned < budget.scan_pages as u64 && time_left > 0 {
            let base = Vpn(windows[idx]);
            idx = (idx + 1) % windows.len();
            visited += 1;
            scanned += HUGE_PAGE_FRAMES;
            time_left = time_left.saturating_sub(latency.scan_page_ns * HUGE_PAGE_FRAMES);
            if let Some(node) = memory.collapse_candidate(pid, base) {
                if memory.collapse_range(pid, base, node).is_ok() {
                    collapsed += 1;
                    time_left =
                        time_left.saturating_sub(latency.migrate_page_ns * COMPOUND_MIGRATE_FACTOR);
                }
            }
        }
        state.khugepaged_cursor.insert(pid, idx as u64);
    }
    collapsed
}

/// The hint sampler as it was before the window index: a positional
/// walk over the sorted VPN list.
fn reference_scan(sampler: &mut HintSampler, memory: &mut Memory) -> u32 {
    let mut marked = 0u32;
    let budget = sampler.config().pages_per_scan;
    let scope = sampler.config().scope;
    let pids = memory.pids();
    if pids.is_empty() {
        return 0;
    }
    let per_pid = (budget / pids.len() as u32).max(1);
    for pid in pids {
        let vpns = sorted_vpns(memory, pid);
        if vpns.is_empty() {
            continue;
        }
        let start = *sampler.cursors.get(&pid).unwrap_or(&0) as usize % vpns.len();
        let mut scanned = 0usize;
        let mut idx = start;
        while scanned < vpns.len() && marked < budget && (scanned as u32) < per_pid {
            let vpn = vpns[idx];
            idx = (idx + 1) % vpns.len();
            scanned += 1;
            let Some(PageLocation::Mapped(pfn)) = memory.space(pid).translate(vpn) else {
                continue;
            };
            let in_scope = match scope {
                SampleScope::AllNodes => true,
                SampleScope::CxlOnly => {
                    memory.node(memory.frames().frame(pfn).node()).is_cpu_less()
                }
            };
            if !in_scope || memory.frames().frame(pfn).flags().contains(PageFlags::TAIL) {
                continue;
            }
            let frame = memory.frames_mut().frame_mut(pfn);
            if !frame.flags().contains(PageFlags::HINTED) {
                frame.flags_mut().insert(PageFlags::HINTED);
                marked += 1;
                memory.vmstat_mut().count(VmEvent::NumaPteUpdates);
            }
        }
        sampler.cursors.insert(pid, idx as u64);
    }
    marked
}

const PIDS: [Pid; 2] = [Pid(1), Pid(2)];

/// Window bases each process churns over: neighbouring anon windows (so
/// runs straddle the 511/512 edge), a gap, and the file-region bases.
const BASES: [u64; 5] = [0, 512, 2048, 1 << 32, 3 << 32];

/// One churn step, drawn once and applied to both machines.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Base-page fault (or swap-in) at one VPN.
    Fault {
        pid: Pid,
        vpn: Vpn,
        node: NodeId,
    },
    /// Unmaps a whole window and refaults it with base pages on one node,
    /// leaving it collapsible.
    FillWindow {
        pid: Pid,
        base: u64,
        node: NodeId,
    },
    /// Unmaps a whole window and refaults it as one THP.
    HugeFault {
        pid: Pid,
        base: u64,
        node: NodeId,
    },
    Release {
        pid: Pid,
        vpn: Vpn,
    },
    SwapOut {
        pid: Pid,
        vpn: Vpn,
    },
    /// An access: referenced, warmer, and any hint mark consumed.
    Touch {
        pid: Pid,
        vpn: Vpn,
    },
}

fn random_op(rng: &mut SimRng) -> Op {
    let pid = PIDS[rng.range(0..2) as usize];
    let base = BASES[rng.range(0..BASES.len() as u64) as usize];
    let node = NodeId(rng.range(0..2) as u8);
    let off = if rng.chance(0.25) {
        [0, 1, 510, 511][rng.range(0..4) as usize]
    } else {
        rng.range(0..HUGE_PAGE_FRAMES)
    };
    let vpn = Vpn(base + off);
    match rng.range(0..40) {
        0 => Op::FillWindow { pid, base, node },
        1 => Op::HugeFault { pid, base, node },
        2..=13 => Op::Fault { pid, vpn, node },
        14..=21 => Op::Release { pid, vpn },
        22..=25 => Op::SwapOut { pid, vpn },
        _ => Op::Touch { pid, vpn },
    }
}

fn page_type(vpn: u64) -> PageType {
    if vpn >= 3 << 32 {
        PageType::File
    } else {
        PageType::Anon
    }
}

fn fault(m: &mut Memory, pid: Pid, vpn: Vpn, node: NodeId) {
    match m.space(pid).translate(vpn) {
        None => {
            let _ = m.alloc_and_map(node, pid, vpn, page_type(vpn.0));
        }
        Some(PageLocation::Swapped(_)) => {
            let _ = m.swap_in(pid, vpn, node, page_type(vpn.0));
        }
        Some(PageLocation::Mapped(_)) => {}
    }
}

fn apply(m: &mut Memory, op: Op) {
    match op {
        Op::Fault { pid, vpn, node } => fault(m, pid, vpn, node),
        Op::FillWindow { pid, base, node } => {
            for i in 0..HUGE_PAGE_FRAMES {
                m.release(pid, Vpn(base + i));
            }
            for i in 0..HUGE_PAGE_FRAMES {
                fault(m, pid, Vpn(base + i), node);
            }
        }
        Op::HugeFault { pid, base, node } => {
            if page_type(base).is_anon() {
                for i in 0..HUGE_PAGE_FRAMES {
                    m.release(pid, Vpn(base + i));
                }
                let _ = m.alloc_huge_and_map(node, pid, Vpn(base), PageType::Anon);
            }
        }
        Op::Release { pid, vpn } => {
            m.release(pid, vpn);
        }
        Op::SwapOut { pid, vpn } => {
            if let Some(PageLocation::Mapped(pfn)) = m.space(pid).translate(vpn) {
                let _ = m.swap_out(pfn);
            }
        }
        Op::Touch { pid, vpn } => {
            if let Some(PageLocation::Mapped(pfn)) = m.space(pid).translate(vpn) {
                let frame = m.frames_mut().frame_mut(pfn);
                frame.flags_mut().insert(PageFlags::REFERENCED);
                frame.flags_mut().remove(PageFlags::HINTED);
                frame.touch_hotness();
            }
        }
    }
}

fn machine() -> Memory {
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, 4096)
        .node(NodeKind::Cxl, 8192)
        .swap_pages(4096)
        .thp_mode(ThpMode::Always)
        .build();
    for pid in PIDS {
        m.create_process(pid);
    }
    m
}

/// Everything the daemons can change: page tables, per-frame flags and
/// placement, and vmstat.
fn assert_same_machine(a: &Memory, b: &Memory, step: usize) {
    assert_eq!(a.vmstat(), b.vmstat(), "vmstat diverged at wakeup {step}");
    for pid in PIDS {
        let table = |m: &Memory| {
            let mut t: Vec<_> = m.space(pid).iter().collect();
            t.sort_unstable_by_key(|&(vpn, _)| vpn);
            t
        };
        assert_eq!(
            table(a),
            table(b),
            "{pid} page table diverged at wakeup {step}"
        );
    }
    for node in [NodeId(0), NodeId(1)] {
        let frames = |m: &Memory| -> Vec<_> {
            m.frames()
                .allocated_on(node)
                .map(|pfn| {
                    let f = m.frames().frame(pfn);
                    (pfn, f.owner(), f.flags())
                })
                .collect()
        };
        assert_eq!(
            frames(a),
            frames(b),
            "{node} frames diverged at wakeup {step}"
        );
    }
}

fn run_lockstep(scope: SampleScope, seed: u64) {
    let latency = LatencyModel::datacenter();
    let budget = HugeConfig::default().khugepaged;
    let config = SamplerConfig {
        pages_per_scan: 300,
        period_ns: 1,
        scope,
    };
    let (mut a, mut b) = (machine(), machine());
    let (mut huge_a, mut huge_b) = (HugeState::default(), HugeState::default());
    let (mut hint_a, mut hint_b) = (HintSampler::new(config), HintSampler::new(config));
    let mut rng = SimRng::seed(seed);
    let (mut collapsed, mut marked) = (0, 0);
    for step in 0..300 {
        for _ in 0..40 {
            let op = random_op(&mut rng);
            apply(&mut a, op);
            apply(&mut b, op);
        }
        let c = khugepaged_pass(&mut huge_a, &mut a, &latency, budget);
        assert_eq!(
            c,
            reference_khugepaged(&mut huge_b, &mut b, &latency, budget)
        );
        let h = hint_a.scan(&mut a);
        assert_eq!(
            h,
            reference_scan(&mut hint_b, &mut b),
            "marks at wakeup {step}"
        );
        assert_eq!(huge_a.khugepaged_cursor, huge_b.khugepaged_cursor);
        assert_eq!(hint_a.cursors, hint_b.cursors, "cursors at wakeup {step}");
        assert_same_machine(&a, &b, step);
        collapsed += c;
        marked += h;
    }
    a.validate();
    // The churn must actually exercise both daemons.
    assert!(collapsed > 10, "only {collapsed} collapses");
    assert!(marked > 1000, "only {marked} hint marks");
    assert!(a.vmstat().get(VmEvent::ThpSplit) > 0);
    assert!(a.vmstat().get(VmEvent::ThpFaultAlloc) > 0);
}

#[test]
fn daemons_match_the_sort_everything_reference_all_nodes() {
    run_lockstep(SampleScope::AllNodes, 0x5EED_0001);
}

#[test]
fn daemons_match_the_sort_everything_reference_cxl_only() {
    run_lockstep(SampleScope::CxlOnly, 0x5EED_0002);
}
