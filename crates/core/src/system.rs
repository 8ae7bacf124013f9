//! The system runner: drives one workload over one machine under one
//! placement policy, interleaving application ops with daemon ticks and
//! accounting every nanosecond of memory stall back into application
//! throughput.

use tiered_mem::{EventSink, Memory, PageFlags, PageLocation, Pfn, TraceEvent};
use tiered_sim::{
    Access, AccessKind, AccessObserver, LatencyModel, NullObserver, Periodic, SimClock, SimRng,
    Workload, WorkloadEvent,
};

use crate::metrics::RunMetrics;
use crate::policy::{PlacementPolicy, PolicyCtx, UnsupportedConfig};

/// A complete simulated system: machine + policy + workload.
///
/// # Examples
///
/// ```
/// use tiered_sim::SEC;
/// use tpp::{configs, policy::Tpp, System};
///
/// let workload = tiered_workloads::uniform(2_000).build();
/// let memory = configs::two_to_one(2_500);
/// let mut system = System::new(memory, Box::new(Tpp::new()), Box::new(workload), 42)?;
/// system.run(3 * SEC);
/// assert!(system.metrics().ops_completed > 0);
/// # Ok::<(), tpp::policy::UnsupportedConfig>(())
/// ```
pub struct System {
    memory: Memory,
    policy: Box<dyn PlacementPolicy>,
    workload: Box<dyn Workload>,
    latency: LatencyModel,
    clock: SimClock,
    rng: SimRng,
    daemon_timer: Periodic,
    sample_timer: Periodic,
    metrics: RunMetrics,
    /// Per-node access latency, indexed by `NodeId` — node latencies are
    /// fixed at machine-build time, so the access fast path reads this
    /// array instead of chasing `memory.node(node)` per access.
    node_latency_ns: Vec<u64>,
    /// Whether each node is CPU-attached, indexed by `NodeId`.
    node_is_local: Vec<bool>,
}

impl System {
    /// Assembles a system, validating the policy against the machine and
    /// registering the workload's process.
    ///
    /// # Errors
    ///
    /// [`UnsupportedConfig`] if the policy refuses the machine (e.g.
    /// AutoTiering on a 1:4 split).
    pub fn new(
        memory: Memory,
        policy: Box<dyn PlacementPolicy>,
        workload: Box<dyn Workload>,
        seed: u64,
    ) -> Result<System, UnsupportedConfig> {
        policy.validate_config(&memory)?;
        let mut memory = memory;
        memory.create_process(workload.pid());
        let daemon_timer = Periodic::new(policy.tick_period_ns());
        let mut system = System {
            memory,
            policy,
            workload,
            latency: LatencyModel::datacenter(),
            clock: SimClock::new(),
            rng: SimRng::seed(seed),
            daemon_timer,
            sample_timer: Periodic::new(RunMetrics::sample_period_ns()),
            metrics: RunMetrics::new(),
            node_latency_ns: Vec::new(),
            node_is_local: Vec::new(),
        };
        system.refresh_node_cache();
        Ok(system)
    }

    /// Rebuilds the per-node latency/locality arrays from the machine.
    /// Node latencies are only set during machine construction, but the
    /// refresh is cheap enough to rerun at the top of every `run` for
    /// robustness against future mutable-latency machines.
    fn refresh_node_cache(&mut self) {
        self.node_latency_ns.clear();
        self.node_is_local.clear();
        // Topology ids are dense and in index order (the builder asserts
        // it), so these arrays index directly by `NodeId`.
        for id in self.memory.topology().ids() {
            let node = self.memory.node(id);
            self.node_latency_ns.push(node.latency_ns());
            self.node_is_local.push(!node.is_cpu_less());
        }
    }

    /// Overrides the operation-cost model.
    pub fn set_latency_model(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// Attaches a telemetry sink to the machine: every counted memory
    /// event is also emitted as a timestamped trace record. Disabled by
    /// default (`NullSink`), in which case runs are bit-identical to
    /// untraced ones.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.memory.set_event_sink(sink);
    }

    /// Flushes the attached telemetry sink (for file-backed sinks).
    pub fn flush_trace(&mut self) {
        self.memory.flush_trace();
    }

    /// The machine state.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Current simulated time.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Runs for `duration_ns` of simulated time.
    pub fn run(&mut self, duration_ns: u64) {
        self.run_observed(duration_ns, &mut NullObserver);
    }

    /// Runs for `duration_ns`, reporting every resolved access to `obs`
    /// (e.g. a Chameleon profiler).
    pub fn run_observed(&mut self, duration_ns: u64, obs: &mut dyn AccessObserver) {
        self.refresh_node_cache();
        let end = self.clock.now_ns() + duration_ns;
        // Trace timestamps advance with the clock below; seed the initial
        // value once rather than re-setting it at the top of every
        // iteration (it would only repeat the post-advance update).
        self.memory.set_trace_now(self.clock.now_ns());
        while self.clock.now_ns() < end {
            let now = self.clock.now_ns();
            let op = self.workload.next_op(now, &mut self.rng);
            let mut mem_ns = 0u64;
            for event in &op.events {
                match *event {
                    WorkloadEvent::Access(access) => {
                        mem_ns += self.execute_access(now, &access, obs);
                    }
                    WorkloadEvent::Free { pid, vpn } => {
                        self.memory.release(pid, vpn);
                    }
                }
            }
            let op_ns = op.cpu_ns + mem_ns;
            self.clock.advance(op_ns.max(1));
            self.metrics.note_op(op_ns, mem_ns);
            let now = self.clock.now_ns();
            self.memory.set_trace_now(now);
            // Daemon wakeups (capped catch-up after long ops).
            let fires = self.daemon_timer.fire(now).min(4);
            for _ in 0..fires {
                let mut ctx = PolicyCtx {
                    memory: &mut self.memory,
                    latency: &self.latency,
                    now_ns: now,
                    rng: &mut self.rng,
                };
                self.policy.tick(&mut ctx);
            }
            if self.sample_timer.fire(now) > 0 {
                self.metrics.sample(now, &self.memory);
            }
        }
    }

    /// Resolves one access exactly as the run loop would (for
    /// benchmarking the resolution hot path in isolation). Returns the
    /// latency charged to the op.
    pub fn resolve_access(&mut self, now_ns: u64, access: &Access) -> u64 {
        self.execute_access(now_ns, access, &mut NullObserver)
    }

    /// Resolves one access: fault if unmapped/swapped, hint-fault
    /// handling, reference bookkeeping. Returns the latency charged to
    /// the op.
    ///
    /// The overwhelmingly common case — page mapped, no hint PTE — is a
    /// branch-light fast path: one frame lookup resolves the node and
    /// flags, one write-back records the touch, and the per-node latency
    /// comes from the prebuilt arrays. Everything else (faults, hint
    /// faults) falls through to [`System::execute_access_slow`].
    fn execute_access(&mut self, now: u64, access: &Access, obs: &mut dyn AccessObserver) -> u64 {
        if let Some(PageLocation::Mapped(pfn)) = self.memory.space(access.pid).translate(access.vpn)
        {
            let frame = self.memory.frames_mut().frame_mut(pfn);
            if !frame.flags().contains(PageFlags::HINTED) {
                let mark = if access.kind == AccessKind::Store {
                    PageFlags::REFERENCED | PageFlags::DIRTY
                } else {
                    PageFlags::REFERENCED
                };
                frame.flags_mut().insert(mark);
                frame.touch_hotness();
                frame.set_last_access_ns(now);
                let node = frame.node();
                // A touch anywhere in a compound page keeps the whole
                // unit warm: only the head has LRU standing, so tail
                // accesses forward their marks to it (the kernel's
                // `page_referenced` collects young bits over every PTE of
                // a THP).
                if frame.flags().contains(PageFlags::TAIL) {
                    let head = self.memory.compound_head(pfn);
                    let head_frame = self.memory.frames_mut().frame_mut(head);
                    head_frame.flags_mut().insert(mark);
                    head_frame.touch_hotness();
                    head_frame.set_last_access_ns(now);
                }
                let node_latency = self.node_latency_ns[node.index()];
                self.metrics.note_access(
                    self.node_is_local[node.index()],
                    access.page_type.is_anon(),
                    node_latency,
                );
                obs.on_access(now, access, node);
                // One workload access stands for a bundle of LLC misses
                // (see `LatencyModel::access_bundle`); metrics record the
                // per-miss latency, the op is charged the whole stall.
                return node_latency * self.latency.access_bundle;
            }
        }
        self.execute_access_slow(now, access, obs)
    }

    /// The uncommon cases: page fault (first touch or swap-in) and NUMA
    /// hint faults, both of which need a [`PolicyCtx`].
    fn execute_access_slow(
        &mut self,
        now: u64,
        access: &Access,
        obs: &mut dyn AccessObserver,
    ) -> u64 {
        let mut cost = 0u64;
        let mut pfn = match self.memory.space(access.pid).translate(access.vpn) {
            Some(PageLocation::Mapped(pfn)) => pfn,
            _ => {
                let mut ctx = PolicyCtx {
                    memory: &mut self.memory,
                    latency: &self.latency,
                    now_ns: now,
                    rng: &mut self.rng,
                };
                let out =
                    self.policy
                        .handle_fault(&mut ctx, access.pid, access.vpn, access.page_type);
                cost += out.cost_ns;
                out.pfn
            }
        };
        // NUMA hint fault?
        if self
            .memory
            .frames()
            .frame(pfn)
            .flags()
            .contains(PageFlags::HINTED)
        {
            self.memory
                .frames_mut()
                .frame_mut(pfn)
                .flags_mut()
                .remove(PageFlags::HINTED);
            let hint_node = self.memory.frames().frame(pfn).node();
            self.memory.record(TraceEvent::HintFault {
                page: tiered_mem::PageKey::new(access.pid, access.vpn),
                node: hint_node,
            });
            cost += self.latency.hint_fault_ns;
            let mut ctx = PolicyCtx {
                memory: &mut self.memory,
                latency: &self.latency,
                now_ns: now,
                rng: &mut self.rng,
            };
            cost += self.policy.on_hint_fault(&mut ctx, pfn);
            // The policy may have migrated the page.
            pfn = match self.memory.space(access.pid).translate(access.vpn) {
                Some(PageLocation::Mapped(p)) => p,
                other => panic!("page vanished during hint fault: {other:?}"),
            };
        }
        touch(&mut self.memory, now, pfn, access.kind);
        let node = self.memory.frames().frame(pfn).node();
        let node_latency = self.memory.node(node).latency_ns();
        // One workload access stands for a bundle of LLC misses (see
        // `LatencyModel::access_bundle`); metrics record the per-miss
        // latency, the op is charged the whole stall.
        cost += node_latency * self.latency.access_bundle;
        let is_local = !self.memory.node(node).is_cpu_less();
        self.metrics
            .note_access(is_local, access.page_type.is_anon(), node_latency);
        obs.on_access(now, access, node);
        cost
    }
}

/// Records a touch of `pfn` at `now` on the slow path of both engines.
/// A tail touch keeps the whole compound warm by forwarding its marks to
/// the head, as the fast path in `System::execute_access` does.
pub(crate) fn touch(memory: &mut Memory, now: u64, pfn: Pfn, kind: AccessKind) {
    let mark = if kind == AccessKind::Store {
        PageFlags::REFERENCED | PageFlags::DIRTY
    } else {
        PageFlags::REFERENCED
    };
    let frame = memory.frames_mut().frame_mut(pfn);
    frame.flags_mut().insert(mark);
    frame.touch_hotness();
    frame.set_last_access_ns(now);
    if frame.flags().contains(PageFlags::TAIL) {
        let head = memory.compound_head(pfn);
        let head_frame = memory.frames_mut().frame_mut(head);
        head_frame.flags_mut().insert(mark);
        head_frame.touch_hotness();
        head_frame.set_last_access_ns(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::policy::{LinuxDefault, Tpp};
    use tiered_mem::NodeId;
    use tiered_sim::SEC;

    fn quick_system(policy: Box<dyn PlacementPolicy>) -> System {
        let workload = tiered_workloads::uniform(2_000).build();
        let memory = configs::two_to_one(2_500);
        System::new(memory, policy, Box::new(workload), 7).unwrap()
    }

    #[test]
    fn run_completes_ops_and_advances_time() {
        let mut s = quick_system(Box::new(LinuxDefault::new()));
        s.run(2 * SEC);
        assert!(s.now_ns() >= 2 * SEC);
        assert!(s.metrics().ops_completed > 1000);
        assert!(s.metrics().accesses > 1000);
        s.memory().validate();
    }

    #[test]
    fn metrics_sampled_once_per_second() {
        let mut s = quick_system(Box::new(LinuxDefault::new()));
        s.run(3 * SEC);
        assert!((3..=4).contains(&s.metrics().throughput.len()));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = quick_system(Box::new(Tpp::new()));
            s.run(SEC);
            (s.metrics().ops_completed, s.metrics().accesses, s.now_ns())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn working_set_materialises_on_the_machine() {
        let mut s = quick_system(Box::new(LinuxDefault::new()));
        s.run(2 * SEC);
        let used: u64 = (0..s.memory().node_count())
            .map(|i| s.memory().frames().used_pages(NodeId(i as u8)))
            .sum();
        assert!(used > 500, "only {used} pages materialised");
    }

    #[test]
    fn observer_sees_every_access() {
        struct Counter(u64);
        impl AccessObserver for Counter {
            fn on_access(&mut self, _: u64, _: &Access, _: NodeId) {
                self.0 += 1;
            }
        }
        let mut s = quick_system(Box::new(LinuxDefault::new()));
        let mut counter = Counter(0);
        s.run_observed(SEC, &mut counter);
        assert_eq!(counter.0, s.metrics().accesses);
    }
}
