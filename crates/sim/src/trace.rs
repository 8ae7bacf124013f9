//! Access traces: the interface between workload generators, the system
//! runner, and observers such as the Chameleon profiler.

use tiered_mem::{NodeId, PageType, Pid, Vpn};

use crate::rng::SimRng;

/// Load vs. store, mirroring the PEBS events Chameleon samples
/// (`MEM_LOAD_RETIRED.L3_MISS` for loads, TLB store misses for stores).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A demand load.
    Load,
    /// A demand store.
    Store,
}

/// One memory access issued by a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// The accessing process.
    pub pid: Pid,
    /// The virtual page touched.
    pub vpn: Vpn,
    /// Load or store.
    pub kind: AccessKind,
    /// The page type to materialise on a first-touch fault.
    pub page_type: PageType,
}

/// One event produced by a workload generator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadEvent {
    /// Touch a page (faulting it in if needed).
    Access(Access),
    /// Free a page (process-driven deallocation, e.g. short-lived request
    /// state or discarded intermediate data).
    Free {
        /// Owning process.
        pid: Pid,
        /// Virtual page to release.
        vpn: Vpn,
    },
}

/// One application-level operation: a CPU burst plus the memory accesses
/// performed during it.
///
/// Throughput is defined as completed ops per simulated second; every
/// access latency adds to the op's duration, which is how page placement
/// feeds back into application performance.
#[derive(Clone, Debug, Default)]
pub struct Op {
    /// Pure CPU time of the op, excluding memory stalls.
    pub cpu_ns: u64,
    /// Events performed during the op, in order.
    pub events: Vec<WorkloadEvent>,
}

impl Op {
    /// An op with no memory events (pure compute).
    pub fn compute(cpu_ns: u64) -> Op {
        Op {
            cpu_ns,
            events: Vec::new(),
        }
    }

    /// Number of page accesses in this op.
    pub fn access_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, WorkloadEvent::Access(_)))
            .count()
    }
}

/// A workload generator: the synthetic stand-in for the paper's production
/// services.
///
/// Implementations are deterministic functions of `(now_ns, rng)`; the
/// runner drives them op by op.
pub trait Workload {
    /// Human-readable workload name (e.g. `"web"`, `"cache1"`).
    fn name(&self) -> &str;

    /// The process this workload runs as.
    fn pid(&self) -> Pid;

    /// Produces the next operation.
    fn next_op(&mut self, now_ns: u64, rng: &mut SimRng) -> Op;

    /// Produces the next operation into `op`, overwriting its `cpu_ns`
    /// and events; the same op as [`Workload::next_op`] would return.
    ///
    /// The run loop calls this with one reused buffer, so a generator
    /// that fills `op.events` in place allocates nothing per op. The
    /// default forwards to `next_op`.
    fn next_op_into(&mut self, now_ns: u64, rng: &mut SimRng, op: &mut Op) {
        *op = self.next_op(now_ns, rng);
    }

    /// Approximate total working-set size in pages (used to size
    /// machines for ratio configurations such as 2:1 and 1:4).
    fn working_set_pages(&self) -> u64;
}

/// Observer of the resolved access stream (after placement): each access
/// is reported with the node that actually served it.
///
/// The Chameleon profiler implements this; so do the traffic recorders
/// behind the paper's figures.
pub trait AccessObserver {
    /// Called once per access with the serving node.
    fn on_access(&mut self, now_ns: u64, access: &Access, node: NodeId);
}

/// A no-op observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl AccessObserver for NullObserver {
    fn on_access(&mut self, _now_ns: u64, _access: &Access, _node: NodeId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_access_count_ignores_frees() {
        let a = Access {
            pid: Pid(1),
            vpn: Vpn(0),
            kind: AccessKind::Load,
            page_type: PageType::Anon,
        };
        let op = Op {
            cpu_ns: 100,
            events: vec![
                WorkloadEvent::Access(a),
                WorkloadEvent::Free {
                    pid: Pid(1),
                    vpn: Vpn(3),
                },
                WorkloadEvent::Access(a),
            ],
        };
        assert_eq!(op.access_count(), 2);
    }

    #[test]
    fn compute_op_is_empty() {
        let op = Op::compute(500);
        assert_eq!(op.cpu_ns, 500);
        assert_eq!(op.access_count(), 0);
        assert!(op.events.is_empty());
    }

    #[test]
    fn null_observer_is_callable() {
        let mut obs = NullObserver;
        let a = Access {
            pid: Pid(1),
            vpn: Vpn(9),
            kind: AccessKind::Store,
            page_type: PageType::File,
        };
        obs.on_access(0, &a, NodeId(0));
    }
}
