//! NUMA hint-fault sampling: the kernel scanner that poisons PTEs so the
//! next access takes a minor fault (paper §4.2).
//!
//! A kernel task periodically walks a window of each process's address
//! space and marks resident pages `HINTED`. When the application touches
//! a hinted page the runner raises a hint fault and the policy decides
//! whether to promote.
//!
//! TPP's crucial tweak (§5.3) is the [`SampleScope::CxlOnly`] mode:
//! sampling local-node pages is pure overhead on a tiered machine, so
//! TPP restricts the scanner to CPU-less nodes. Default NUMA balancing
//! samples everything.

use tiered_mem::{Memory, PageFlags, PageLocation, VmEvent};

/// Which nodes the scanner installs hint PTEs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SampleScope {
    /// All nodes (default NUMA balancing): local pages generate useless
    /// hint faults, costing CPU.
    AllNodes,
    /// Only CPU-less (CXL) nodes — TPP's `NUMA_BALANCING_TIERED` mode.
    CxlOnly,
}

/// Scanner configuration.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Pages marked per scan period (the kernel's 256 MB default window,
    /// scaled to simulation size).
    pub pages_per_scan: u32,
    /// Scan period in nanoseconds.
    pub period_ns: u64,
    /// Node scope.
    pub scope: SampleScope,
}

impl SamplerConfig {
    /// A scanner suitable for the simulation scale: 4096 pages per second.
    pub fn scaled(scope: SampleScope) -> SamplerConfig {
        SamplerConfig {
            pages_per_scan: 4096,
            period_ns: tiered_sim::SEC,
            scope,
        }
    }
}

/// The hint-PTE scanner. Keeps one cursor per process so successive scans
/// cover successive windows of the address space, like
/// `task_numa_work`'s `mm->numa_scan_offset`.
#[derive(Clone, Debug)]
pub struct HintSampler {
    config: SamplerConfig,
    pub(super) cursors: std::collections::HashMap<tiered_mem::Pid, u64>,
    /// Reused per-scan buffer for the run of VPNs each process is
    /// scanned over.
    vpn_scratch: Vec<tiered_mem::Vpn>,
}

impl HintSampler {
    /// Creates a scanner.
    pub fn new(config: SamplerConfig) -> HintSampler {
        HintSampler {
            config,
            cursors: std::collections::HashMap::new(),
            vpn_scratch: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Runs one scan pass: marks up to `pages_per_scan` resident pages
    /// (within scope) as `HINTED`, advancing per-process cursors.
    /// Returns the number of PTEs updated.
    pub fn scan(&mut self, memory: &mut Memory) -> u32 {
        let mut marked = 0u32;
        let budget = self.config.pages_per_scan;
        let pids = memory.pids();
        if pids.is_empty() {
            return 0;
        }
        let per_pid = (budget / pids.len() as u32).max(1);
        for pid in pids {
            // The cursor is a rank in address order; read just this
            // scan's run of VPNs from the page table's window index.
            let space = memory.space(pid);
            let entries = space.total_pages() as usize;
            if entries == 0 {
                continue;
            }
            let start = *self.cursors.get(&pid).unwrap_or(&0) as usize % entries;
            space.ranked_vpns_into(start, per_pid as usize, &mut self.vpn_scratch);
            let mut scanned = 0usize;
            for &vpn in &self.vpn_scratch {
                if marked >= budget {
                    break;
                }
                scanned += 1;
                let Some(PageLocation::Mapped(pfn)) = memory.space(pid).translate(vpn) else {
                    continue;
                };
                let in_scope = match self.config.scope {
                    SampleScope::AllNodes => true,
                    SampleScope::CxlOnly => {
                        memory.node(memory.frames().frame(pfn).node()).is_cpu_less()
                    }
                };
                if !in_scope {
                    continue;
                }
                // Compound pages are sampled at head granularity: hinting
                // a tail could never fire (tails carry no LRU standing and
                // the head decides placement for the whole unit).
                if memory.frames().frame(pfn).flags().contains(PageFlags::TAIL) {
                    continue;
                }
                let frame = memory.frames_mut().frame_mut(pfn);
                if !frame.flags().contains(PageFlags::HINTED) {
                    frame.flags_mut().insert(PageFlags::HINTED);
                    marked += 1;
                    memory.vmstat_mut().count(VmEvent::NumaPteUpdates);
                }
            }
            self.cursors
                .insert(pid, ((start + scanned) % entries) as u64);
        }
        marked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{NodeId, NodeKind, PageType, Pid, Vpn};

    fn machine() -> Memory {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 64)
            .build();
        m.create_process(Pid(1));
        for i in 0..16 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        for i in 16..32 {
            m.alloc_and_map(NodeId(1), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        m
    }

    fn hinted_on(m: &Memory, node: NodeId) -> usize {
        m.frames()
            .allocated_on(node)
            .filter(|&p| m.frames().frame(p).flags().contains(PageFlags::HINTED))
            .count()
    }

    #[test]
    fn cxl_only_scope_never_marks_local_pages() {
        let mut m = machine();
        let mut s = HintSampler::new(SamplerConfig {
            pages_per_scan: 1000,
            period_ns: 1,
            scope: SampleScope::CxlOnly,
        });
        let marked = s.scan(&mut m);
        assert_eq!(marked, 16);
        assert_eq!(hinted_on(&m, NodeId(0)), 0);
        assert_eq!(hinted_on(&m, NodeId(1)), 16);
    }

    #[test]
    fn all_nodes_scope_marks_everything() {
        let mut m = machine();
        let mut s = HintSampler::new(SamplerConfig {
            pages_per_scan: 1000,
            period_ns: 1,
            scope: SampleScope::AllNodes,
        });
        assert_eq!(s.scan(&mut m), 32);
        assert_eq!(hinted_on(&m, NodeId(0)), 16);
        assert_eq!(m.vmstat().get(tiered_mem::VmEvent::NumaPteUpdates), 32);
    }

    #[test]
    fn budget_limits_marks_and_cursor_resumes() {
        let mut m = machine();
        let mut s = HintSampler::new(SamplerConfig {
            pages_per_scan: 8,
            period_ns: 1,
            scope: SampleScope::AllNodes,
        });
        assert_eq!(s.scan(&mut m), 8);
        // Second scan continues where the first stopped — no page is
        // double-marked while others are unvisited.
        assert_eq!(s.scan(&mut m), 8);
        let total = hinted_on(&m, NodeId(0)) + hinted_on(&m, NodeId(1));
        assert_eq!(total, 16);
    }

    #[test]
    fn already_hinted_pages_are_not_recounted() {
        let mut m = machine();
        let mut s = HintSampler::new(SamplerConfig {
            pages_per_scan: 1000,
            period_ns: 1,
            scope: SampleScope::AllNodes,
        });
        assert_eq!(s.scan(&mut m), 32);
        assert_eq!(s.scan(&mut m), 0);
    }

    #[test]
    fn empty_machine_scans_nothing() {
        let mut m = Memory::builder().node(NodeKind::LocalDram, 8).build();
        let mut s = HintSampler::new(SamplerConfig::scaled(SampleScope::AllNodes));
        assert_eq!(s.scan(&mut m), 0);
    }
}
