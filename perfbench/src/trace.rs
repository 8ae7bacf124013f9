//! Timing decorators around the two public layer interfaces the run
//! engines call: [`Workload`] and [`PlacementPolicy`].
//!
//! The decorators forward every call unchanged, so a wrapped run must
//! produce the same simulated results as an unwrapped one; the benchmark
//! checks this through its fingerprint. Timings land in a shared
//! [`LayerTimes`] that the caller reads after the run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tiered_mem::{Memory, PageType, Pfn, Pid, Vpn};
use tiered_sim::{Op, SimRng, Workload};
use tpp::policy::{FaultOutcome, PlacementPolicy, PolicyCtx, UnsupportedConfig};

/// `next_op` is called once per application op (a few hundred ns of
/// work), so timing every call would cost about a tenth of the run.
/// Only every `NEXT_OP_STRIDE`-th call is timed and the total is scaled
/// up. The stride is odd and prime so it does not alias with the short
/// periodic patterns some workloads have (e.g. 1.5 allocations per op).
const NEXT_OP_STRIDE: u64 = 31;

/// Host time spent in one layer interface.
#[derive(Clone, Debug, Default)]
pub struct CallTimes {
    /// Calls made.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Host time of the timed calls, ns.
    pub timed_ns: u64,
}

impl CallTimes {
    fn add(&mut self, ns: u64) {
        self.timed += 1;
        self.timed_ns += ns;
    }
}

/// Host time per layer for one run (shared by every decorator of a run).
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// `Workload::next_op`, timed on a stride.
    pub next_op: CallTimes,
    /// `PlacementPolicy::handle_fault`, every call timed.
    pub fault: CallTimes,
    /// `PlacementPolicy::on_hint_fault`, every call timed.
    pub hint: CallTimes,
    /// `PlacementPolicy::tick`, every call timed.
    pub tick: CallTimes,
    /// Duration of each `tick` call, ns, for its percentiles.
    pub tick_ns: Vec<u64>,
}

/// Shared handle to a run's [`LayerTimes`].
pub type SharedTimes = Rc<RefCell<LayerTimes>>;

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`Workload`] whose `next_op` calls are timed on a stride.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    times: SharedTimes,
}

impl TimedWorkload {
    /// Wraps `inner`, recording into `times`.
    pub fn new(inner: Box<dyn Workload>, times: SharedTimes) -> TimedWorkload {
        TimedWorkload { inner, times }
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pid(&self) -> Pid {
        self.inner.pid()
    }

    fn next_op(&mut self, now_ns: u64, rng: &mut SimRng) -> Op {
        let calls = {
            let mut t = self.times.borrow_mut();
            t.next_op.calls += 1;
            t.next_op.calls
        };
        if calls % NEXT_OP_STRIDE != 0 {
            return self.inner.next_op(now_ns, rng);
        }
        let start = Instant::now();
        let op = self.inner.next_op(now_ns, rng);
        let ns = elapsed_ns(start);
        self.times.borrow_mut().next_op.add(ns);
        op
    }

    fn working_set_pages(&self) -> u64 {
        self.inner.working_set_pages()
    }
}

/// A [`PlacementPolicy`] whose fault, hint-fault and tick calls are all
/// timed.
pub struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    times: SharedTimes,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `times`.
    pub fn new(inner: Box<dyn PlacementPolicy>, times: SharedTimes) -> TimedPolicy {
        TimedPolicy { inner, times }
    }
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn validate_config(&self, memory: &Memory) -> Result<(), UnsupportedConfig> {
        self.inner.validate_config(memory)
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        let start = Instant::now();
        let out = self.inner.handle_fault(ctx, pid, vpn, page_type);
        let ns = elapsed_ns(start);
        let mut t = self.times.borrow_mut();
        t.fault.calls += 1;
        t.fault.add(ns);
        out
    }

    fn on_hint_fault(&mut self, ctx: &mut PolicyCtx<'_>, pfn: Pfn) -> u64 {
        let start = Instant::now();
        let cost = self.inner.on_hint_fault(ctx, pfn);
        let ns = elapsed_ns(start);
        let mut t = self.times.borrow_mut();
        t.hint.calls += 1;
        t.hint.add(ns);
        cost
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        let start = Instant::now();
        self.inner.tick(ctx);
        let ns = elapsed_ns(start);
        let mut t = self.times.borrow_mut();
        t.tick.calls += 1;
        t.tick.add(ns);
        t.tick_ns.push(ns);
    }

    fn tick_period_ns(&self) -> u64 {
        self.inner.tick_period_ns()
    }
}
