//! The AutoTiering baseline (Kim et al., ATC '21), as characterised by the
//! TPP paper (§6.4, §7):
//!
//! * background **migration-based demotion** driven by timer-decayed
//!   access-frequency counters (faster than paging, but the decay pass
//!   costs CPU and mis-ranks infrequently accessed pages),
//! * **optimised NUMA-balancing promotion** (CXL-only sampling) gated on
//!   a **fixed-size reserved buffer** on the local node — once a surge of
//!   CXL accesses drains the buffer, promotion fails,
//! * allocation and reclamation stay **coupled** to the classic
//!   watermarks (no free-page headroom is maintained),
//! * the paper could not run it on 1:4 local:CXL configurations at all
//!   ("frequently crashes right after the warm up phase"), which
//!   [`PlacementPolicy::validate_config`] reproduces as a hard error.

use tiered_mem::telemetry::{PromoteFailReason, PromoteSkipReason};
use tiered_mem::{Memory, NodeId, PageType, Pfn, Pid, Vpn};
use tiered_sim::{Periodic, SEC};

use super::huge::{run_huge_daemons, HugeState};
use super::linux_default::LinuxDefaultConfig;
use super::pipeline::{
    demote_and_reclaim, fault_with_fallback, try_promote, DemoteHooks, Kswapd, PromoteHooks,
    Refusal,
};
use super::reclaim::DaemonBudget;
use super::sampler::{HintSampler, SampleScope, SamplerConfig};
use super::{preferred_local_node, FaultOutcome, PlacementPolicy, PolicyCtx, UnsupportedConfig};

/// Configuration for [`AutoTiering`].
#[derive(Clone, Copy, Debug)]
pub struct AutoTieringConfig {
    /// Base daemon knobs.
    pub linux: LinuxDefaultConfig,
    /// Hint-PTE scanner (CXL-only, the "optimised" NUMA balancing).
    pub sampler: SamplerConfig,
    /// Demotion daemon budget (migration-based, so demoter-class).
    pub demote_budget: DaemonBudget,
    /// Minimum hotness counter for a page to be promotion-worthy.
    pub hotness_threshold: u8,
    /// Period of the hotness-decay timer.
    pub decay_period_ns: u64,
    /// Reserved promotion buffer, as a fraction of local-node capacity.
    pub promo_buffer_frac: f64,
}

impl Default for AutoTieringConfig {
    fn default() -> AutoTieringConfig {
        AutoTieringConfig {
            linux: LinuxDefaultConfig::default(),
            sampler: SamplerConfig::scaled(SampleScope::CxlOnly),
            demote_budget: DaemonBudget::demoter(),
            hotness_threshold: 2,
            decay_period_ns: 2 * SEC,
            promo_buffer_frac: 0.02,
        }
    }
}

/// AutoTiering page placement.
#[derive(Clone, Debug)]
pub struct AutoTiering {
    config: AutoTieringConfig,
    sampler: HintSampler,
    scan_timer: Periodic,
    decay_timer: Periodic,
    /// Remaining promotion-buffer tokens; refilled by demotions.
    buffer_tokens: u64,
    buffer_capacity: u64,
    initialised: bool,
    kswapd: Kswapd,
    huge_state: HugeState,
}

impl AutoTiering {
    /// Creates the policy with default knobs.
    pub fn new() -> AutoTiering {
        AutoTiering::with_config(AutoTieringConfig::default())
    }

    /// Creates the policy with explicit knobs.
    pub fn with_config(config: AutoTieringConfig) -> AutoTiering {
        AutoTiering {
            config,
            sampler: HintSampler::new(config.sampler),
            scan_timer: Periodic::new(config.sampler.period_ns),
            decay_timer: Periodic::new(config.decay_period_ns),
            buffer_tokens: 0,
            buffer_capacity: 0,
            initialised: false,
            kswapd: Kswapd::new(config.linux.kswapd_budget),
            huge_state: HugeState::default(),
        }
    }

    fn ensure_buffer(&mut self, memory: &Memory) {
        if !self.initialised {
            let local = preferred_local_node(memory);
            self.buffer_capacity =
                (memory.capacity(local) as f64 * self.config.promo_buffer_frac) as u64;
            self.buffer_tokens = self.buffer_capacity;
            self.initialised = true;
        }
    }
}

impl Default for AutoTiering {
    fn default() -> AutoTiering {
        AutoTiering::new()
    }
}

impl PromoteHooks for AutoTiering {
    const NAME: &'static str = "autotiering";

    /// Frequency criterion: only pages hot by counter are candidates.
    fn skip(&mut self, memory: &mut Memory, pfn: Pfn) -> Option<PromoteSkipReason> {
        let cold = memory.frames().frame(pfn).hotness() < self.config.hotness_threshold;
        cold.then_some(PromoteSkipReason::Cold)
    }

    /// The reserved buffer is the only headroom: promotions need a token
    /// (or genuine free space above the high watermark). A compound unit
    /// still takes a single token — the buffer reserves *decisions*, not
    /// pages.
    fn admit(&mut self, ctx: &PolicyCtx<'_>, target: NodeId, free: u64) -> Result<(), Refusal> {
        let wm = ctx.memory.node(target).watermarks();
        if self.buffer_tokens == 0 && free <= wm.base.high {
            Err((
                PromoteFailReason::LowMem,
                Some("promotion_buffer_exhausted"),
            ))
        } else if !wm.allows_promotion(free) {
            Err((PromoteFailReason::LowMem, None))
        } else {
            Ok(())
        }
    }

    fn on_promoted(&mut self) {
        self.buffer_tokens = self.buffer_tokens.saturating_sub(1);
    }
}

/// Demotion migrates cold (hotness ≤ 1) inactive pages to the CXL node,
/// coupled to the *classic* watermarks — it only starts below `low` and
/// stops at `high`, so no headroom is maintained beyond what default
/// Linux would keep.
impl DemoteHooks for AutoTiering {
    fn kswapd(&mut self) -> &mut Kswapd {
        &mut self.kswapd
    }

    /// Timer-based criterion: only cold-by-counter pages move.
    fn demotable(&self, memory: &Memory, pfn: Pfn) -> bool {
        memory.frames().frame(pfn).hotness() <= 1
    }

    /// Per-page hotness ranking has no notion of compound units, so a
    /// compound is split and its base pages re-enter the cold end of the
    /// LRU to move individually.
    fn split_compounds(&self) -> bool {
        true
    }

    fn on_demoted(&mut self, _memory: &mut Memory, _new_pfn: Pfn) {
        self.buffer_tokens = (self.buffer_tokens + 1).min(self.buffer_capacity);
    }
}

impl PlacementPolicy for AutoTiering {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn validate_config(&self, memory: &Memory) -> Result<(), UnsupportedConfig> {
        let local: u64 = memory
            .local_nodes()
            .iter()
            .map(|&n| memory.capacity(n))
            .sum();
        let cxl: u64 = memory.cxl_nodes().iter().map(|&n| memory.capacity(n)).sum();
        if cxl > local * 3 {
            return Err(UnsupportedConfig {
                policy: self.name().into(),
                reason: format!(
                    "local:CXL ratio 1:{} exceeds 1:3 — the paper reports AutoTiering \
                     crashing after warm-up on 1:4 configurations",
                    cxl.checked_div(local).unwrap_or(u64::MAX)
                ),
            });
        }
        Ok(())
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        self.ensure_buffer(ctx.memory);
        let prefer = ctx.memory.home_node(pid);
        fault_with_fallback(ctx, pid, vpn, page_type, prefer, Self::NAME)
    }

    fn on_hint_fault(&mut self, ctx: &mut PolicyCtx<'_>, pfn: Pfn) -> u64 {
        self.ensure_buffer(ctx.memory);
        try_promote(ctx, pfn, self)
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.ensure_buffer(ctx.memory);
        // Hotness decay: the "timer-based hot page detection" that costs
        // CPU — every allocated frame is visited.
        if self.decay_timer.fire(ctx.now_ns) > 0 {
            for i in 0..ctx.memory.node_count() {
                let node = NodeId(i as u8);
                let pfns: Vec<Pfn> = ctx.memory.frames().allocated_on(node).collect();
                for pfn in pfns {
                    ctx.memory.frames_mut().frame_mut(pfn).decay_hotness();
                }
            }
        }
        demote_and_reclaim(ctx, self.config.demote_budget, self);
        run_huge_daemons(ctx, &self.config.linux.huge, &mut self.huge_state);
        if self.scan_timer.fire(ctx.now_ns) > 0 {
            self.sampler.scan(ctx.memory);
        }
    }

    fn tick_period_ns(&self) -> u64 {
        self.config.linux.tick_period_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::COMPOUND_MIGRATE_FACTOR;
    use tiered_mem::{NodeKind, PageFlags, VmEvent};
    use tiered_sim::LatencyModel;

    fn setup(local: u64, cxl: u64) -> (Memory, LatencyModel, AutoTiering) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, local)
            .node(NodeKind::Cxl, cxl)
            .build();
        m.create_process(Pid(1));
        (m, LatencyModel::datacenter(), AutoTiering::new())
    }

    #[test]
    fn rejects_one_to_four_configs() {
        let (m, ..) = setup(64, 256);
        let p = AutoTiering::new();
        let err = p.validate_config(&m).unwrap_err();
        assert!(err.reason.contains("1:4"));
        // 2:1 is fine.
        let (m2, ..) = setup(128, 64);
        assert!(p.validate_config(&m2).is_ok());
    }

    #[test]
    fn promotion_requires_hotness_threshold() {
        let (mut m, lat, mut p) = setup(64, 64);
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        // Cold by counter: not promoted.
        assert_eq!(p.on_hint_fault(&mut ctx, pfn), 0);
        assert_eq!(ctx.memory.frames().frame(pfn).node(), NodeId(1));
        // Heat it up.
        ctx.memory.frames_mut().frame_mut(pfn).touch_hotness();
        ctx.memory.frames_mut().frame_mut(pfn).touch_hotness();
        let cost = p.on_hint_fault(&mut ctx, pfn);
        assert_eq!(cost, lat.migrate_page_ns);
        m.validate();
    }

    #[test]
    fn buffer_exhaustion_halts_promotion_under_pressure() {
        let (mut m, lat, mut p) = setup(64, 64);
        // Local filled to its high watermark: only buffer tokens allow
        // promotion.
        let high = m.node(NodeId(0)).watermarks().base.high;
        for i in 0..(64 - high) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(1000 + i), PageType::Anon)
                .unwrap();
        }
        // Hot CXL pages.
        let pfns: Vec<Pfn> = (0..8)
            .map(|i| {
                let pfn = m
                    .alloc_and_map(NodeId(1), Pid(1), Vpn(i), PageType::Anon)
                    .unwrap();
                for _ in 0..4 {
                    m.frames_mut().frame_mut(pfn).touch_hotness();
                }
                pfn
            })
            .collect();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        p.ensure_buffer(ctx.memory);
        p.buffer_tokens = 2; // nearly drained
        let mut promoted = 0;
        for pfn in pfns {
            if p.on_hint_fault(&mut ctx, pfn) > 0 {
                promoted += 1;
            }
        }
        assert_eq!(promoted, 2, "only the buffered tokens may promote");
        assert!(m.vmstat().get(VmEvent::PgPromoteFailLowMem) >= 6);
    }

    #[test]
    fn demotion_migrates_cold_pages_instead_of_swapping() {
        let (mut m, lat, mut p) = setup(64, 256);
        let low = m.node(NodeId(0)).watermarks().base.low;
        for i in 0..(64 - low + 4).min(63) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Tmpfs)
                .unwrap();
        }
        for _ in 0..5 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.tick(&mut ctx);
        }
        assert!(
            m.frames().used_pages(NodeId(1)) > 0,
            "cold pages should move to CXL"
        );
        assert_eq!(m.swap().used_slots(), 0, "migration should beat swap");
        m.validate();
    }

    #[test]
    fn decay_halves_hotness_counters() {
        let (mut m, lat, mut p) = setup(64, 64);
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        for _ in 0..8 {
            m.frames_mut().frame_mut(pfn).touch_hotness();
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 3 * SEC,
        };
        p.tick(&mut ctx);
        assert_eq!(m.frames().frame(pfn).hotness(), 4);
    }

    #[test]
    fn demotion_splits_compounds_first() {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 2048)
            .thp_mode(tiered_mem::ThpMode::Always)
            .build();
        m.create_process(Pid(1));
        let lat = LatencyModel::datacenter();
        let mut p = AutoTiering::new();
        m.alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        // Push below the classic low watermark (AutoTiering stays coupled)
        // with hot base pages; the cold compound is the first victim.
        let low = m.node(NodeId(0)).watermarks().base.low;
        let mut vpn = 100_000;
        while m.free_pages(NodeId(0)) >= low {
            let pfn = m
                .alloc_and_map(NodeId(0), Pid(1), Vpn(vpn), PageType::Anon)
                .unwrap();
            m.frames_mut()
                .frame_mut(pfn)
                .flags_mut()
                .insert(PageFlags::REFERENCED);
            vpn += 1;
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
            m.vmstat().get(VmEvent::ThpSplit) >= 1,
            "AutoTiering must split-on-demote"
        );
        assert!(
            m.frames().used_pages(NodeId(1)) > 0,
            "the split base pages should demote individually"
        );
        m.validate();
    }

    #[test]
    fn compound_promotion_moves_the_whole_unit() {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 2048)
            .thp_mode(tiered_mem::ThpMode::Always)
            .build();
        m.create_process(Pid(1));
        let lat = LatencyModel::datacenter();
        let mut p = AutoTiering::new();
        let head = m
            .alloc_huge_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        // Hot by counter, so the frequency criterion passes.
        for _ in 0..4 {
            m.frames_mut().frame_mut(head).touch_hotness();
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let cost = p.on_hint_fault(&mut ctx, head);
        assert_eq!(cost, lat.migrate_page_ns * COMPOUND_MIGRATE_FACTOR);
        let new_head = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        assert_eq!(m.frames().frame(new_head).node(), NodeId(0));
        assert!(m.frames().frame(new_head).flags().contains(PageFlags::HEAD));
        m.validate();
    }

    #[test]
    fn demotion_into_a_full_cxl_node_falls_back_to_reclaim() {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 512)
            .node(NodeKind::Cxl, 64)
            .swap_pages(4096)
            .build();
        m.create_process(Pid(1));
        let lat = LatencyModel::datacenter();
        let mut p = AutoTiering::new();
        for i in 0..64 {
            m.alloc_and_map(NodeId(1), Pid(1), Vpn(10_000 + i), PageType::Anon)
                .unwrap();
        }
        // Cold tmpfs pages push local below its low watermark.
        let low = m.node(NodeId(0)).watermarks().base.low;
        for i in 0..(512 - low + 4) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Tmpfs)
                .unwrap();
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        p.tick(&mut ctx);
        assert!(m.vmstat().get(VmEvent::PgDemoteFallback) > 0);
        assert!(m.swap().used_slots() > 0, "fallback reclaim swaps");
        m.validate();
    }

    #[test]
    fn head_promotion_without_an_aligned_block_fails_lowmem() {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 2048)
            .thp_mode(tiered_mem::ThpMode::Always)
            .build();
        m.create_process(Pid(1));
        let lat = LatencyModel::datacenter();
        let mut p = AutoTiering::new();
        // Half of local free, but not one aligned order-9 block.
        for i in 0..2048 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(10_000 + i), PageType::Anon)
                .unwrap();
        }
        for i in (0..2048).step_by(2) {
            m.release(Pid(1), Vpn(10_000 + i));
        }
        let head = m
            .alloc_huge_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        for _ in 0..4 {
            m.frames_mut().frame_mut(head).touch_hotness();
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        assert_eq!(p.on_hint_fault(&mut ctx, head), 0);
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteFailLowMem), 1);
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteFailBusy), 0);
        assert_eq!(m.frames().frame(head).node(), NodeId(1));
        m.validate();
    }
}
