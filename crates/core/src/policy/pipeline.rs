//! The placement pipeline every policy is built from: the default-kernel
//! fault path, page eviction and kswapd, plus the one copy of
//! migration-based demotion ([`demote_pass`]) and hint-fault promotion
//! ([`try_promote`]).
//!
//! TPP ships as a kernel release whose demotion reuses the reclaim path's
//! `demote_folio_list` and whose promotion reuses NUMA balancing's
//! `migrate_misplaced_folio`; the policies here likewise share those two
//! bodies and differ only in the small hooks of [`PromoteHooks`] and
//! [`DemoteHooks`], dispatched statically.

use tiered_mem::telemetry::{PromoteFailReason, PromoteSkipReason};
use tiered_mem::{
    Memory, MigrateError, NodeId, PageFlags, PageKey, PageLocation, PageType, Pfn, Pid, ThpMode,
    TraceEvent, Vpn, HUGE_PAGE_FRAMES,
};
use tiered_sim::LatencyModel;

use super::huge::COMPOUND_MIGRATE_FACTOR;
use super::reclaim::{select_victims_into, DaemonBudget, ReclaimScratch, VictimClass};
use super::{FaultOutcome, PolicyCtx};

/// Cost charged to a faulting task for materialising a page of
/// `page_type` (`was_swapped` selects the swap-in path).
///
/// File pages are read from the filesystem on (re-)fault — a device read,
/// not a zero-fill — which is why dropping page cache that will be
/// re-accessed is expensive, and why TPP's keep-it-in-memory demotion
/// wins (§5.1).
pub(crate) fn materialise_cost_ns(
    latency: &LatencyModel,
    page_type: PageType,
    was_swapped: bool,
) -> u64 {
    if was_swapped {
        latency.swap_in_total_ns()
    } else {
        match page_type {
            PageType::File => latency.major_fault_ns + latency.swap_in_page_ns,
            PageType::Anon | PageType::Tmpfs => latency.minor_fault_ns,
        }
    }
}

/// The default-kernel fault path: try each node in fallback order above
/// its `min` watermark; fall back to direct reclaim on the preferred node
/// when everything is below `min`. `policy` attributes the spill/stall
/// decision events emitted along the way.
pub(crate) fn fault_with_fallback(
    ctx: &mut PolicyCtx<'_>,
    pid: Pid,
    vpn: Vpn,
    page_type: PageType,
    prefer: NodeId,
    policy: &'static str,
) -> FaultOutcome {
    let was_swapped = is_swapped(ctx.memory, pid, vpn);
    let base_cost = materialise_cost_ns(ctx.latency, page_type, was_swapped);
    let order = ctx.memory.fallback_order(prefer);
    let mut placed = None;
    // THP at fault time (`ThpMode::Always`): an anon first-touch fault
    // whose aligned 512-page window is entirely unmapped gets a compound
    // page on the first node in fallback order that has watermark room
    // for the whole block. Fragmentation (no aligned free block) or
    // pressure falls through to the base-page path below.
    if ctx.memory.thp_mode() == ThpMode::Always && page_type.is_anon() && !was_swapped {
        let base = Vpn(vpn.0 & !(HUGE_PAGE_FRAMES - 1));
        if window_unmapped(ctx.memory, pid, base) {
            placed = order.iter().find_map(|&node| {
                let free = ctx.memory.free_pages(node);
                let wm = ctx.memory.node(node).watermarks().base;
                if !wm.allows_allocation(free.saturating_sub(HUGE_PAGE_FRAMES - 1)) {
                    return None;
                }
                let head = ctx
                    .memory
                    .alloc_huge_and_map(node, pid, base, page_type)
                    .ok()?;
                ctx.memory.record(TraceEvent::Fault {
                    page: PageKey::new(pid, vpn),
                    major: false,
                });
                Some((node, Pfn(head.0 + (vpn.0 - base.0) as u32)))
            });
        }
    }
    let placed =
        placed.or_else(|| place_first(ctx.memory, &order, pid, vpn, page_type, was_swapped, true));
    if let Some((node, pfn)) = placed {
        if node != prefer && ctx.memory.trace_enabled() {
            // Allocation spilled past the preferred node's watermark —
            // the §4.1 failure mode TPP's headroom exists to avoid.
            ctx.memory.record(TraceEvent::Decision {
                policy,
                reason: "alloc_spill_below_watermark",
                page: Some(PageKey::new(pid, vpn)),
            });
        }
        return FaultOutcome {
            pfn,
            cost_ns: base_cost,
        };
    }
    // Every node is under its min watermark: direct reclaim on the
    // preferred node, charged to the task.
    ctx.memory.record(TraceEvent::AllocStall { node: prefer });
    ctx.memory.record(TraceEvent::Decision {
        policy,
        reason: "alloc_stall_direct_reclaim",
        page: Some(PageKey::new(pid, vpn)),
    });
    let latency = ctx.latency;
    let reclaim_cost = direct_reclaim(ctx.memory, prefer, 256, |memory, pfn| {
        evict_page(memory, latency, pfn)
    });
    let Some((_, pfn)) = place_first(ctx.memory, &order, pid, vpn, page_type, was_swapped, false)
    else {
        panic!("simulated OOM: no node can host {pid}:{vpn} even after direct reclaim");
    };
    FaultOutcome {
        pfn,
        cost_ns: base_cost + reclaim_cost,
    }
}

/// Whether `pid`'s page at `vpn` sits in swap.
pub(crate) fn is_swapped(memory: &Memory, pid: Pid, vpn: Vpn) -> bool {
    matches!(
        memory.space(pid).translate(vpn),
        Some(PageLocation::Swapped(_))
    )
}

/// Whether the whole aligned 512-page window at `base` is unmapped (a
/// swap entry counts as mapped — swapped pages must come back as base
/// pages so their contents survive).
fn window_unmapped(memory: &Memory, pid: Pid, base: Vpn) -> bool {
    let space = memory.space(pid);
    (0..HUGE_PAGE_FRAMES).all(|i| space.translate(Vpn(base.0 + i)).is_none())
}

/// Places `pid`'s page at `vpn` (swap-in or fresh mapping) on the first
/// of `nodes` that takes it, passing over nodes at or below their `min`
/// watermark when `above_min`. Returns that node and the frame.
pub(crate) fn place_first(
    memory: &mut Memory,
    nodes: &[NodeId],
    pid: Pid,
    vpn: Vpn,
    page_type: PageType,
    was_swapped: bool,
    above_min: bool,
) -> Option<(NodeId, Pfn)> {
    nodes.iter().find_map(|&node| {
        let wm = memory.node(node).watermarks().base;
        if above_min && !wm.allows_allocation(memory.free_pages(node)) {
            return None;
        }
        memory.record(TraceEvent::Fault {
            page: PageKey::new(pid, vpn),
            major: was_swapped,
        });
        let placed = if was_swapped {
            memory.swap_in(pid, vpn, node, page_type)
        } else {
            memory.alloc_and_map(node, pid, vpn, page_type)
        };
        placed.ok().map(|pfn| (node, pfn))
    })
}

/// Evicts one page the default-kernel way. Returns the daemon time spent,
/// or `None` if the page could not be evicted (swap full).
///
/// * anon and tmpfs pages are written to swap,
/// * dirty file pages pay a writeback before being dropped,
/// * clean file pages are dropped for free.
pub(crate) fn evict_page(memory: &mut Memory, latency: &LatencyModel, pfn: Pfn) -> Option<u64> {
    let frame = memory.frames().frame(pfn);
    let page_type = frame.page_type();
    let dirty = frame.flags().contains(PageFlags::DIRTY);
    let node = frame.node();
    let page = frame.owner().expect("eviction victim is allocated");
    match page_type {
        PageType::Anon | PageType::Tmpfs => match memory.swap_out(pfn) {
            Ok(_) => {
                memory.record(TraceEvent::ReclaimSteal { page, node });
                Some(latency.swap_out_page_ns)
            }
            Err(_) => None,
        },
        PageType::File => {
            memory.drop_file_page(pfn);
            memory.record(TraceEvent::ReclaimSteal { page, node });
            Some(if dirty {
                latency.swap_out_page_ns
            } else {
                latency.scan_page_ns
            })
        }
    }
}

/// kswapd: its per-wakeup budget and each node's wake/sleep state.
#[derive(Clone, Debug)]
pub(crate) struct Kswapd {
    budget: DaemonBudget,
    active: Vec<bool>,
}

impl Kswapd {
    pub(crate) fn new(budget: DaemonBudget) -> Kswapd {
        Kswapd {
            budget,
            active: Vec::new(),
        }
    }

    /// One kswapd wakeup on `node`, with wake/sleep hysteresis: kswapd
    /// wakes when free pages drop below `low` and keeps processing one
    /// scan batch per wakeup until free pages reach a boosted target
    /// slightly *above* `high` — which is what lets NUMA balancing's
    /// `free > high` promotion check occasionally pass on a busy node.
    ///
    /// Each wakeup processes a *single* batch (`SWAP_CLUSTER_MAX`-style),
    /// bounded by both the scan and time budgets — the kernel's
    /// priority-based throttling, and what allocation surges outrun
    /// (§4.1: "with high allocation rate, reclamation may fail to cope
    /// up").
    pub(crate) fn pass(&mut self, ctx: &mut PolicyCtx<'_>, node: NodeId) {
        let memory = &mut *ctx.memory;
        if self.active.len() < memory.node_count() {
            self.active.resize(memory.node_count(), false);
        }
        let active = &mut self.active[node.index()];
        let wm = memory.node(node).watermarks().base;
        let free = memory.free_pages(node);
        let boost_target = wm.high + (wm.high - wm.low).max(1);
        if !*active {
            if !wm.needs_reclaim(free) {
                return;
            }
            *active = true;
            if memory.trace_enabled() {
                memory.record(TraceEvent::WatermarkCross {
                    node,
                    level: "low",
                    free,
                    below: true,
                });
                memory.record(TraceEvent::DaemonWake {
                    daemon: "kswapd",
                    node: Some(node),
                });
            }
        } else if free >= boost_target {
            *active = false;
            if memory.trace_enabled() {
                memory.record(TraceEvent::WatermarkCross {
                    node,
                    level: "high_boost",
                    free,
                    below: false,
                });
            }
            return;
        }
        let mut time_left = self.budget.time_ns;
        let want = (boost_target.saturating_sub(free)).min(32) as usize;
        let mut scratch = ReclaimScratch::from_pool(memory);
        select_victims_into(
            memory,
            node,
            want,
            self.budget.scan_pages as usize,
            VictimClass::AnonAndFile,
            &mut scratch,
        );
        for i in 0..scratch.victims.len() {
            match evict_page(memory, ctx.latency, scratch.victims[i]) {
                Some(cost) if cost <= time_left => time_left -= cost,
                Some(_) | None => break,
            }
        }
        scratch.into_pool(memory);
    }
}

/// Synchronous direct reclaim of up to 32 pages on `node` through
/// `evict`, which returns a victim's cost or `None` if it stays; returns
/// the latency charged to the allocating task.
///
/// Escalates the scan budget from `scan_budget` (the kernel's
/// reclaim-priority analogue) until at least one page is freed or the
/// whole node has been scanned — direct reclaim must make forward
/// progress or the allocation OOMs.
pub(crate) fn direct_reclaim(
    memory: &mut Memory,
    node: NodeId,
    mut scan_budget: usize,
    mut evict: impl FnMut(&mut Memory, Pfn) -> Option<u64>,
) -> u64 {
    let mut cost = 0u64;
    let node_pages = memory.capacity(node) as usize;
    let mut scratch = ReclaimScratch::from_pool(memory);
    loop {
        select_victims_into(
            memory,
            node,
            32,
            scan_budget,
            VictimClass::AnonAndFile,
            &mut scratch,
        );
        let mut freed = 0usize;
        for i in 0..scratch.victims.len() {
            if let Some(c) = evict(memory, scratch.victims[i]) {
                cost += c;
                freed += 1;
            }
        }
        if freed > 0 || scan_budget >= node_pages {
            scratch.into_pool(memory);
            return cost;
        }
        scan_budget = (scan_budget * 8).min(node_pages);
    }
}

/// Why a promotion was refused: the reason counted, and the decision
/// reason recorded after it, if any.
pub(crate) type Refusal = (PromoteFailReason, Option<&'static str>);

/// What a policy decides in [`try_promote`].
pub(crate) trait PromoteHooks {
    /// The policy name its decision events carry.
    const NAME: &'static str;

    /// Why the hinted page `pfn` stays put before it is even a
    /// candidate, if it does.
    fn skip(&mut self, _memory: &mut Memory, _pfn: Pfn) -> Option<PromoteSkipReason> {
        None
    }

    /// Admission: may the candidate move to `target`, which would keep
    /// `free` pages free after the move's first page (a compound unit's
    /// other 511 are already taken off)?
    fn admit(&mut self, ctx: &PolicyCtx<'_>, target: NodeId, free: u64) -> Result<(), Refusal>;

    /// Called after each successful promotion.
    fn on_promoted(&mut self) {}
}

/// NUMA hint-fault promotion (`migrate_misplaced_folio`): a page hinted
/// on a CPU-less node moves to the faulting task's home node, a compound
/// head as one unit. Returns the latency charged to the faulting task.
pub(crate) fn try_promote<H: PromoteHooks>(
    ctx: &mut PolicyCtx<'_>,
    pfn: Pfn,
    hooks: &mut H,
) -> u64 {
    let frame = ctx.memory.frames().frame(pfn);
    let node = frame.node();
    let page = frame.owner().expect("hint fault on a free frame");
    if !ctx.memory.node(node).is_cpu_less() {
        // A hint fault on a local page is pure sampling overhead.
        ctx.memory.record(TraceEvent::HintFaultLocal { page, node });
        return 0;
    }
    if let Some(reason) = hooks.skip(ctx.memory, pfn) {
        ctx.memory.record(TraceEvent::PromoteSkip { page, reason });
        return 0;
    }
    let frame = ctx.memory.frames().frame(pfn);
    let (flags, page_type) = (frame.flags(), frame.page_type());
    ctx.memory.record(TraceEvent::PromoteCandidate {
        page,
        demoted: flags.contains(PageFlags::DEMOTED),
    });
    // Promote to the accessing socket's DRAM (§5.3): the faulting task's
    // home node, not a hard-coded node 0.
    let target = ctx.memory.home_node(page.pid);
    // Hint sampling is head-granular, so a hinted head decides for its
    // whole unit and admission must see room for all of it.
    let is_head = flags.contains(PageFlags::HEAD);
    let need = if is_head { HUGE_PAGE_FRAMES } else { 1 };
    let free = ctx.memory.free_pages(target).saturating_sub(need - 1);
    if let Err((reason, decision)) = hooks.admit(ctx, target, free) {
        ctx.memory.record(TraceEvent::PromoteFail { page, reason });
        if let Some(reason) = decision {
            ctx.memory.record(TraceEvent::Decision {
                policy: H::NAME,
                reason,
                page: Some(page),
            });
        }
        return 0;
    }
    ctx.memory.record(TraceEvent::PromoteAttempt {
        page,
        from: node,
        to: target,
    });
    let migrated = if is_head {
        ctx.memory.migrate_huge(pfn, target)
    } else {
        ctx.memory.migrate_page(pfn, target)
    };
    match migrated {
        Ok(new_pfn) => {
            // Promotion clears PG_demoted (§5.5).
            ctx.memory
                .frames_mut()
                .frame_mut(new_pfn)
                .flags_mut()
                .remove(PageFlags::DEMOTED);
            hooks.on_promoted();
            ctx.memory.record(TraceEvent::PromoteSuccess {
                page,
                from: node,
                to: target,
                page_type,
            });
            migrate_cost_ns(ctx, node, target, is_head)
        }
        Err(e) => {
            let reason = match e {
                MigrateError::DstNoMemory { .. } => PromoteFailReason::LowMem,
                _ => PromoteFailReason::Busy,
            };
            ctx.memory.record(TraceEvent::PromoteFail { page, reason });
            0
        }
    }
}

/// Daemon time of one migration from `from` to `to`: a compound unit
/// costs [`COMPOUND_MIGRATE_FACTOR`] base pages.
fn migrate_cost_ns(ctx: &PolicyCtx<'_>, from: NodeId, to: NodeId, compound: bool) -> u64 {
    let unit = ctx
        .latency
        .migrate_cost_ns(ctx.memory.migrate_hops(from, to));
    if compound {
        unit * COMPOUND_MIGRATE_FACTOR
    } else {
        unit
    }
}

/// What a policy decides in [`demote_pass`].
pub(crate) trait DemoteHooks: PromoteHooks {
    /// Whether demotion runs between TPP's decoupled watermarks (§5.2) —
    /// trigger at `demote_trigger`, stop at `demote_target` — rather than
    /// the classic `low`/`high` pair default reclaim uses.
    fn decoupled(&self) -> bool {
        false
    }

    /// kswapd, which reclaims a local node that has no lower tier.
    fn kswapd(&mut self) -> &mut Kswapd;

    /// Whether the reclaim victim `pfn` may be demoted at all.
    fn demotable(&self, _memory: &Memory, _pfn: Pfn) -> bool {
        true
    }

    /// Whether a cold compound is always split rather than first tried
    /// as one unit.
    fn split_compounds(&self) -> bool {
        false
    }

    /// Called with the new frame of every page or unit demoted.
    fn on_demoted(&mut self, memory: &mut Memory, new_pfn: Pfn);
}

/// One wakeup of a tiering policy's reclaim daemons: the demoter, with
/// `budget` per wakeup, on each local node; default reclaim on each CXL
/// node (allocation there is not performance-critical, §5.1).
pub(crate) fn demote_and_reclaim<H: DemoteHooks>(
    ctx: &mut PolicyCtx<'_>,
    budget: DaemonBudget,
    hooks: &mut H,
) {
    for node in ctx.memory.local_nodes() {
        demote_pass(ctx, node, budget, hooks);
    }
    for node in ctx.memory.cxl_nodes() {
        hooks.kswapd().pass(ctx, node);
    }
}

/// One demotion-daemon wakeup on `node` (the reclaim path's
/// `demote_folio_list`): cold pages from the inactive LRU tails (anon
/// *and* file, §5.1) migrate to the nearest lower tier with headroom, and
/// a page that cannot migrate takes the default reclaim path instead.
fn demote_pass<H: DemoteHooks>(
    ctx: &mut PolicyCtx<'_>,
    node: NodeId,
    budget: DaemonBudget,
    hooks: &mut H,
) {
    let wm = *ctx.memory.node(node).watermarks();
    let free = ctx.memory.free_pages(node);
    let (trigger_hit, target_free, level) = if hooks.decoupled() {
        (wm.needs_demotion(free), wm.demote_target, "demote_trigger")
    } else {
        (wm.base.needs_reclaim(free), wm.base.high, "low")
    };
    if !trigger_hit {
        return;
    }
    if ctx.memory.trace_enabled() {
        // Which watermark fired distinguishes §5.2 decoupled demotion
        // from the coupled trigger.
        ctx.memory.record(TraceEvent::WatermarkCross {
            node,
            level,
            free,
            below: true,
        });
        ctx.memory.record(TraceEvent::DaemonWake {
            daemon: "demoter",
            node: Some(node),
        });
    }
    // Nearest lower tier with allocation headroom (§5.2); when every
    // candidate is pressured, the nearest one still takes the pages
    // (its own daemon will cascade or reclaim them).
    let order = *ctx.memory.node(node).demotion_order();
    let target = order
        .iter()
        .copied()
        .find(|&t| {
            let wm = ctx.memory.node(t).watermarks().base;
            wm.allows_allocation(ctx.memory.free_pages(t))
        })
        .or_else(|| order.first().copied());
    let Some(target) = target else {
        // Terminal tier: fall back to default reclaim.
        ctx.memory.record(TraceEvent::Decision {
            policy: H::NAME,
            reason: "terminal_tier_default_reclaim",
            page: None,
        });
        hooks.kswapd().pass(ctx, node);
        return;
    };
    reclaim_to(ctx, node, target_free, budget, |ctx, pfn| {
        if !hooks.demotable(ctx.memory, pfn) {
            return Victim::Kept;
        }
        let frame = ctx.memory.frames().frame(pfn);
        let (page_type, is_head) = (frame.page_type(), frame.flags().contains(PageFlags::HEAD));
        let page = frame.owner().expect("demotion victim is allocated");
        // A cold compound moves as one unit when the target can supply an
        // aligned block; otherwise (or always, for a policy that splits)
        // it is shattered so its base pages take the ordinary path on
        // later passes.
        let migrated = if !is_head {
            ctx.memory.migrate_page(pfn, target).ok()
        } else if hooks.split_compounds() {
            None
        } else {
            ctx.memory.migrate_huge(pfn, target).ok()
        };
        match migrated {
            Some(new_pfn) => {
                hooks.on_demoted(ctx.memory, new_pfn);
                ctx.memory.record(TraceEvent::Demote {
                    page,
                    from: node,
                    to: target,
                    page_type,
                });
                Victim::Gone(migrate_cost_ns(ctx, node, target, is_head))
            }
            None if is_head => {
                ctx.memory.split_huge_page(pfn);
                Victim::Gone(ctx.latency.migrate_page_ns)
            }
            None => {
                // Migration failed (e.g. the lower tier is full): the
                // default reclaim mechanism takes this page.
                ctx.memory.record(TraceEvent::DemoteFallback { page, node });
                evict_page(ctx.memory, ctx.latency, pfn).map_or(Victim::Stuck, Victim::Gone)
            }
        }
    });
}

/// What became of one victim handed to [`reclaim_to`].
pub(crate) enum Victim {
    /// Moved or evicted, for this much daemon time.
    Gone(u64),
    /// Left in place by the policy's filter.
    Kept,
    /// Could not be moved or evicted: the batch ends.
    Stuck,
}

/// Budgeted background reclaim on `node`: batches of up to 64 victims
/// from the inactive LRU tails go to `act` until `target_free` pages are
/// free, the daemon's time budget is spent, or a batch frees nothing.
pub(crate) fn reclaim_to(
    ctx: &mut PolicyCtx<'_>,
    node: NodeId,
    target_free: u64,
    budget: DaemonBudget,
    mut act: impl FnMut(&mut PolicyCtx<'_>, Pfn) -> Victim,
) {
    let mut time_left = budget.time_ns;
    let mut scratch = ReclaimScratch::from_pool(ctx.memory);
    while ctx.memory.free_pages(node) < target_free && time_left > 0 {
        let want = (target_free - ctx.memory.free_pages(node)).min(64) as usize;
        select_victims_into(
            ctx.memory,
            node,
            want,
            budget.scan_pages as usize,
            VictimClass::AnonAndFile,
            &mut scratch,
        );
        if scratch.victims.is_empty() {
            break;
        }
        let mut progressed = false;
        for &pfn in &scratch.victims {
            let cost = match act(ctx, pfn) {
                Victim::Gone(cost) => cost,
                Victim::Kept => continue,
                Victim::Stuck => break,
            };
            if cost > time_left {
                time_left = 0;
                break;
            }
            time_left -= cost;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    scratch.into_pool(ctx.memory);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{NodeKind, VmEvent};

    fn machine() -> (Memory, LatencyModel) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 256)
            .swap_pages(1024)
            .build();
        m.create_process(Pid(2));
        (m, LatencyModel::datacenter())
    }

    #[test]
    fn clean_file_pages_drop_dirty_ones_pay_writeback() {
        let (mut m, lat) = machine();
        let clean = m
            .alloc_and_map(NodeId(0), Pid(2), Vpn(1), PageType::File)
            .unwrap();
        let dirty = m
            .alloc_and_map(NodeId(0), Pid(2), Vpn(2), PageType::File)
            .unwrap();
        m.frames_mut()
            .frame_mut(dirty)
            .flags_mut()
            .insert(PageFlags::DIRTY);
        let c1 = evict_page(&mut m, &lat, clean).unwrap();
        let c2 = evict_page(&mut m, &lat, dirty).unwrap();
        assert!(c2 > c1 * 100);
        assert_eq!(m.vmstat().get(VmEvent::PgDropFile), 2);
        assert_eq!(m.swap().used_slots(), 0);
    }

    #[test]
    fn tmpfs_pages_must_swap_not_drop() {
        let (mut m, lat) = machine();
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(2), Vpn(1), PageType::Tmpfs)
            .unwrap();
        evict_page(&mut m, &lat, pfn).unwrap();
        assert_eq!(m.swap().used_slots(), 1);
        assert_eq!(m.vmstat().get(VmEvent::PswpOut), 1);
    }
}
