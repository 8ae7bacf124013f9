//! An in-memory-swap baseline (zswap/zram-style), the alternative the
//! paper's related-work section argues against (§7): cold pages are
//! "swapped" into a fast in-memory pool (here: CXL-backed, so swap I/O
//! costs are copy-like rather than disk-like), but **every access to a
//! swapped-out page takes a page fault** and must be brought back before
//! use.
//!
//! The paper's point, which the evaluation here reproduces: when
//! CXL-Memory is part of the main memory (TPP), less frequently accessed
//! pages can live there and still be accessed directly with no fault;
//! with in-memory swapping, pages of intermediate temperature bounce
//! through the fault path on every cold re-access, which hurts workloads
//! that touch pages at varied frequencies.

use tiered_mem::{Memory, NodeId, PageKey, PageType, Pfn, Pid, TraceEvent, Vpn};
use tiered_sim::MS;

use super::pipeline::{
    direct_reclaim, is_swapped, materialise_cost_ns, place_first, reclaim_to, Victim,
};
use super::reclaim::DaemonBudget;
use super::{FaultOutcome, PlacementPolicy, PolicyCtx};

/// Configuration for [`InMemorySwap`].
#[derive(Clone, Copy, Debug)]
pub struct InMemorySwapConfig {
    /// Cost of compressing/copying one page out to the in-memory pool.
    pub swap_out_ns: u64,
    /// Cost of bringing one page back (fault handling + copy).
    pub swap_in_ns: u64,
    /// Reclaim daemon budget (generous: in-memory swap is cheap).
    pub budget: DaemonBudget,
    /// Daemon wakeup period.
    pub tick_period_ns: u64,
}

impl Default for InMemorySwapConfig {
    fn default() -> InMemorySwapConfig {
        InMemorySwapConfig {
            swap_out_ns: 4_000,
            swap_in_ns: 6_000,
            budget: DaemonBudget {
                scan_pages: 512,
                time_ns: 5_000_000,
            },
            tick_period_ns: 50 * MS,
        }
    }
}

/// Moves the page at `pfn` on `node` out to the in-memory pool — any page,
/// file pages too (zram holds anything). Returns the cost, or `None` if
/// the pool is full.
fn pool_out(memory: &mut Memory, pfn: Pfn, node: NodeId, swap_out_ns: u64) -> Option<u64> {
    let page = memory
        .frames()
        .frame(pfn)
        .owner()
        .expect("victim is allocated");
    memory.swap_out(pfn).ok()?;
    memory.record(TraceEvent::ReclaimSteal { page, node });
    Some(swap_out_ns)
}

/// zswap-style placement: reclaim to a fast in-memory pool, fault pages
/// back on access, no migration and no NUMA awareness.
#[derive(Clone, Debug, Default)]
pub struct InMemorySwap {
    config: InMemorySwapConfig,
}

impl InMemorySwap {
    /// Creates the policy with default knobs.
    pub fn new() -> InMemorySwap {
        InMemorySwap {
            config: InMemorySwapConfig::default(),
        }
    }

    /// Creates the policy with explicit knobs.
    pub fn with_config(config: InMemorySwapConfig) -> InMemorySwap {
        InMemorySwap { config }
    }
}

impl PlacementPolicy for InMemorySwap {
    fn name(&self) -> &str {
        "inmem_swap"
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        let prefer = ctx.memory.home_node(pid);
        let was_swapped = is_swapped(ctx.memory, pid, vpn);
        // Swap-ins come back fast (in-memory pool), everything else costs
        // what it normally costs.
        let base_cost = if was_swapped {
            ctx.latency.hint_fault_ns + self.config.swap_in_ns
        } else {
            materialise_cost_ns(ctx.latency, page_type, false)
        };
        let order = ctx.memory.fallback_order(prefer);
        if let Some((_, pfn)) =
            place_first(ctx.memory, &order, pid, vpn, page_type, was_swapped, true)
        {
            return FaultOutcome {
                pfn,
                cost_ns: base_cost,
            };
        }
        // Direct reclaim into the pool (fast).
        ctx.memory.record(TraceEvent::AllocStall { node: prefer });
        ctx.memory.record(TraceEvent::Decision {
            policy: "inmem_swap",
            reason: "alloc_stall_sync_pool_reclaim",
            page: Some(PageKey::new(pid, vpn)),
        });
        let cost = base_cost
            + direct_reclaim(ctx.memory, prefer, 512, |memory, pfn| {
                pool_out(memory, pfn, prefer, self.config.swap_out_ns)
            });
        let Some((_, pfn)) =
            place_first(ctx.memory, &order, pid, vpn, page_type, was_swapped, false)
        else {
            panic!("simulated OOM under in-memory swap: {pid}:{vpn}");
        };
        FaultOutcome { pfn, cost_ns: cost }
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        for i in 0..ctx.memory.node_count() {
            let node = NodeId(i as u8);
            let wm = ctx.memory.node(node).watermarks().base;
            if !wm.needs_reclaim(ctx.memory.free_pages(node)) {
                continue;
            }
            ctx.memory.record(TraceEvent::DaemonWake {
                daemon: "pool_reclaim",
                node: Some(node),
            });
            reclaim_to(ctx, node, wm.high, self.config.budget, |ctx, pfn| {
                pool_out(ctx.memory, pfn, node, self.config.swap_out_ns)
                    .map_or(Victim::Stuck, Victim::Gone)
            });
        }
    }

    fn tick_period_ns(&self) -> u64 {
        self.config.tick_period_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::VmEvent;
    use tiered_mem::{Memory, NodeKind};
    use tiered_sim::LatencyModel;

    fn setup() -> (Memory, LatencyModel, InMemorySwap) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 64)
            .swap_pages(1024)
            .build();
        m.create_process(Pid(1));
        (m, LatencyModel::datacenter(), InMemorySwap::new())
    }

    #[test]
    fn reclaim_swaps_everything_including_files() {
        let (mut m, lat, mut p) = setup();
        let min = m.node(NodeId(0)).watermarks().base.min;
        for i in 0..(64 - min) {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.handle_fault(&mut ctx, Pid(1), Vpn(i), PageType::File);
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        p.tick(&mut ctx);
        assert!(
            m.swap().used_slots() > 0,
            "files should land in the pool too"
        );
        assert_eq!(m.vmstat().get(VmEvent::PgDropFile), 0);
        m.validate();
    }

    #[test]
    fn swapped_page_faults_back_cheaply() {
        let (mut m, lat, mut p) = setup();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let out = p.handle_fault(&mut ctx, Pid(1), Vpn(7), PageType::Anon);
        m.swap_out(out.pfn).unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let back = p.handle_fault(&mut ctx, Pid(1), Vpn(7), PageType::Anon);
        // Much cheaper than a disk swap-in, costlier than a plain touch.
        assert!(back.cost_ns < lat.swap_in_total_ns() / 2);
        assert!(back.cost_ns >= p.config.swap_in_ns);
        m.validate();
    }

    #[test]
    fn no_migration_ever_happens() {
        let (mut m, lat, mut p) = setup();
        for i in 0..50 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.handle_fault(&mut ctx, Pid(1), Vpn(i), PageType::Anon);
        }
        for _ in 0..5 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.tick(&mut ctx);
        }
        assert_eq!(m.vmstat().get(VmEvent::PgMigrateSuccess), 0);
        assert_eq!(m.vmstat().demoted_total(), 0);
    }
}
