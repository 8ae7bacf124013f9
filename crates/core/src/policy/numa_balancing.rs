//! Default NUMA balancing (AutoNUMA) on a tiered machine (paper §4.2).
//!
//! NUMA balancing samples *every* node (wasting hint faults on local
//! pages), promotes pages only when the local node sits above its *high*
//! watermark, and cannot demote anything to a CPU-less node — so reclaim
//! still pages out to swap, and under memory pressure promotion simply
//! stops and hot pages stay trapped on the CXL node.

use tiered_mem::telemetry::PromoteFailReason;
use tiered_mem::{NodeId, PageType, Pfn, Pid, Vpn};
use tiered_sim::Periodic;

use super::linux_default::{LinuxDefault, LinuxDefaultConfig};
use super::pipeline::{fault_with_fallback, try_promote, PromoteHooks, Refusal};
use super::sampler::{HintSampler, SampleScope, SamplerConfig};
use super::{FaultOutcome, PlacementPolicy, PolicyCtx};

/// Configuration for [`NumaBalancing`].
#[derive(Clone, Copy, Debug)]
pub struct NumaBalancingConfig {
    /// The underlying default-kernel knobs (reclaim stays unchanged).
    pub linux: LinuxDefaultConfig,
    /// Hint-PTE scanner settings (scope is forced to all nodes).
    pub sampler: SamplerConfig,
}

impl Default for NumaBalancingConfig {
    fn default() -> NumaBalancingConfig {
        NumaBalancingConfig {
            linux: LinuxDefaultConfig::default(),
            sampler: SamplerConfig::scaled(SampleScope::AllNodes),
        }
    }
}

/// NUMA balancing page placement.
#[derive(Clone, Debug)]
pub struct NumaBalancing {
    /// Reclaim and the huge-page daemons stay the default kernel's.
    linux: LinuxDefault,
    sampler: HintSampler,
    scan_timer: Periodic,
}

impl NumaBalancing {
    /// Creates the policy with default knobs.
    pub fn new() -> NumaBalancing {
        NumaBalancing::with_config(NumaBalancingConfig::default())
    }

    /// Creates the policy with explicit knobs.
    pub fn with_config(mut config: NumaBalancingConfig) -> NumaBalancing {
        // Default NUMA balancing has no notion of tiers: it samples all
        // nodes no matter what the caller asked for.
        config.sampler.scope = SampleScope::AllNodes;
        NumaBalancing {
            sampler: HintSampler::new(config.sampler),
            linux: LinuxDefault::with_config(config.linux),
            scan_timer: Periodic::new(config.sampler.period_ns),
        }
    }
}

impl Default for NumaBalancing {
    fn default() -> NumaBalancing {
        NumaBalancing::new()
    }
}

impl PromoteHooks for NumaBalancing {
    const NAME: &'static str = "numa_balancing";

    /// Default NUMA balancing refuses to migrate unless the target is
    /// comfortably above its high watermark — this is exactly how hot
    /// pages get trapped on the CXL node under pressure (§4.2).
    fn admit(&mut self, ctx: &PolicyCtx<'_>, target: NodeId, free: u64) -> Result<(), Refusal> {
        if free <= ctx.memory.node(target).watermarks().base.high {
            Err((
                PromoteFailReason::LowMem,
                Some("target_below_high_watermark_page_trapped"),
            ))
        } else {
            Ok(())
        }
    }
}

impl PlacementPolicy for NumaBalancing {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        let prefer = ctx.memory.home_node(pid);
        fault_with_fallback(ctx, pid, vpn, page_type, prefer, Self::NAME)
    }

    fn on_hint_fault(&mut self, ctx: &mut PolicyCtx<'_>, pfn: Pfn) -> u64 {
        try_promote(ctx, pfn, self)
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.linux.tick(ctx);
        if self.scan_timer.fire(ctx.now_ns) > 0 {
            self.sampler.scan(ctx.memory);
        }
    }

    fn tick_period_ns(&self) -> u64 {
        self.linux.tick_period_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::COMPOUND_MIGRATE_FACTOR;
    use tiered_mem::{
        Memory, NodeKind, PageFlags, PageLocation, ThpMode, VmEvent, HUGE_PAGE_FRAMES,
    };
    use tiered_sim::LatencyModel;

    fn setup() -> (Memory, LatencyModel, NumaBalancing) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 128)
            .build();
        m.create_process(Pid(1));
        (m, LatencyModel::datacenter(), NumaBalancing::new())
    }

    #[test]
    fn promotes_cxl_page_when_local_has_headroom() {
        let (mut m, lat, mut p) = setup();
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let cost = p.on_hint_fault(&mut ctx, pfn);
        assert_eq!(cost, lat.migrate_page_ns);
        let new = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        assert_eq!(m.frames().frame(new).node(), NodeId(0));
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteSuccessAnon), 1);
        m.validate();
    }

    #[test]
    fn promotion_stops_when_local_is_under_pressure() {
        let (mut m, lat, mut p) = setup();
        // Fill local down to (high watermark) free pages.
        let high = m.node(NodeId(0)).watermarks().base.high;
        for i in 0..(64 - high) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(100 + i), PageType::Anon)
                .unwrap();
        }
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        assert_eq!(p.on_hint_fault(&mut ctx, pfn), 0);
        // Page remains trapped on the CXL node.
        assert_eq!(m.frames().frame(pfn).node(), NodeId(1));
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteFailLowMem), 1);
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteAttempt), 0);
    }

    #[test]
    fn local_hint_faults_are_counted_as_overhead() {
        let (mut m, lat, mut p) = setup();
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        assert_eq!(p.on_hint_fault(&mut ctx, pfn), 0);
        assert_eq!(m.vmstat().get(VmEvent::NumaHintFaultsLocal), 1);
        assert_eq!(m.frames().frame(pfn).node(), NodeId(0));
    }

    #[test]
    fn sampler_marks_local_pages_too() {
        let (mut m, lat, mut p) = setup();
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        m.alloc_and_map(NodeId(1), Pid(1), Vpn(1), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 2 * tiered_sim::SEC,
        };
        p.tick(&mut ctx);
        let hinted = |m: &Memory, node: NodeId| {
            m.frames()
                .allocated_on(node)
                .filter(|&f| m.frames().frame(f).flags().contains(PageFlags::HINTED))
                .count()
        };
        assert_eq!(
            hinted(&m, NodeId(0)),
            1,
            "default NUMA balancing samples local nodes"
        );
        assert_eq!(hinted(&m, NodeId(1)), 1);
    }

    #[test]
    fn reclaim_still_swaps_out() {
        let (mut m, lat, mut p) = setup();
        let min = m.node(NodeId(0)).watermarks().base.min;
        for i in 0..(64 - min) {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.handle_fault(&mut ctx, Pid(1), Vpn(i), PageType::Tmpfs);
        }
        for _ in 0..10 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.tick(&mut ctx);
        }
        assert!(
            m.swap().used_slots() > 0,
            "no demotion path exists; swap must be used"
        );
        // Nothing was migrated to the CXL node by reclaim.
        assert_eq!(m.vmstat().demoted_total(), 0);
        let _ = m.space(Pid(1)).translate(Vpn(0)) == Some(PageLocation::Mapped(tiered_mem::Pfn(0)));
        m.validate();
    }

    fn thp_machine(mode: ThpMode) -> Memory {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 2048)
            .thp_mode(mode)
            .build();
        m.create_process(Pid(1));
        m
    }

    #[test]
    fn hinted_compound_head_promotes_as_one_unit() {
        let mut m = thp_machine(ThpMode::Always);
        let lat = LatencyModel::datacenter();
        let mut p = NumaBalancing::new();
        let head = m
            .alloc_huge_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let cost = p.on_hint_fault(&mut ctx, head);
        assert_eq!(cost, lat.migrate_page_ns * COMPOUND_MIGRATE_FACTOR);
        for i in 0..HUGE_PAGE_FRAMES {
            let pfn = m.space(Pid(1)).translate(Vpn(i)).unwrap().pfn().unwrap();
            assert_eq!(m.frames().frame(pfn).node(), NodeId(0));
        }
        let new_head = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        assert!(m.frames().frame(new_head).flags().contains(PageFlags::HEAD));
        assert_eq!(m.vmstat().promoted_total(), 1);
        m.validate();
    }

    #[test]
    fn huge_daemons_collapse_a_warm_window() {
        // `madvise`: no fault-time THP, but khugepaged still collapses.
        let mut m = thp_machine(ThpMode::Madvise);
        let lat = LatencyModel::datacenter();
        let mut p = NumaBalancing::new();
        for i in 0..HUGE_PAGE_FRAMES {
            let pfn = m
                .alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
            m.frames_mut().frame_mut(pfn).touch_hotness();
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        p.tick(&mut ctx);
        assert!(m.vmstat().get(VmEvent::ThpCollapseAlloc) > 0);
        m.validate();
    }
}
