//! The system runner: drives one or more workloads over one machine
//! under one placement policy, interleaving application ops with daemon
//! ticks and accounting every nanosecond of memory stall back into
//! application throughput.
//!
//! Co-located workloads are several lanes on the same engine: the
//! paper's mechanisms (shared watermarks, one demotion daemon, promotion
//! into the shared local node) all operate machine-wide. Each lane runs
//! on its own virtual CPU; the scheduler always progresses the lane that
//! is furthest behind, so the interleaving is deterministic and fair, and
//! daemons and sampling follow the global (minimum) clock. A single lane
//! reduces to a plain sequential run.

use tiered_mem::{EventSink, Memory, NodeId, PageFlags, PageKey, PageLocation, Pfn, TraceEvent};
use tiered_sim::{
    Access, AccessKind, AccessObserver, LatencyModel, NullObserver, Op, Periodic, SimRng, Workload,
    WorkloadEvent,
};

use crate::metrics::RunMetrics;
use crate::policy::{PlacementPolicy, PolicyCtx, UnsupportedConfig};

/// One workload and its execution state.
struct Lane {
    workload: Box<dyn Workload>,
    /// This lane's virtual-CPU clock.
    clock_ns: u64,
    metrics: RunMetrics,
}

/// A complete simulated system: machine + policy + one or more workloads.
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
///
/// // Two services sharing one machine.
/// let a = tiered_workloads::cache1(2_000).build();
/// let b = tiered_workloads::data_warehouse(2_000).build();
/// let memory = configs::two_to_one(6_000);
/// let workloads: Vec<Box<dyn tiered_sim::Workload>> = vec![Box::new(a), Box::new(b)];
/// let mut system = System::colocated(memory, Box::new(Tpp::new()), workloads, 7)?;
/// system.run(2 * SEC);
/// assert_eq!(system.lane_count(), 2);
/// # Ok::<(), tpp::policy::UnsupportedConfig>(())
/// ```
pub struct System {
    memory: Memory,
    policy: Box<dyn PlacementPolicy>,
    lanes: Vec<Lane>,
    latency: LatencyModel,
    rng: SimRng,
    daemon_timer: Periodic,
    sample_timer: Periodic,
    /// Per-node access latency, indexed by `NodeId`. Node latencies are
    /// fixed when the machine is built, so the access path reads this
    /// array instead of chasing `memory.node(node)` per access.
    node_latency_ns: Vec<u64>,
    /// Whether each node is CPU-attached, indexed by `NodeId`.
    node_is_local: Vec<bool>,
    /// The op buffer every lane's workload generates into, reused so a
    /// steady-state op allocates nothing.
    op: Op,
}

impl System {
    /// Assembles a system running one workload, validating the policy
    /// against the machine and registering the workload's process.
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
        System::colocated(memory, policy, vec![workload], seed)
    }

    /// Assembles a system whose workloads share the machine, one lane
    /// each (lane order is `workloads` order).
    ///
    /// # Errors
    ///
    /// [`UnsupportedConfig`] if the policy refuses the machine.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or two workloads share a pid.
    pub fn colocated(
        mut memory: Memory,
        policy: Box<dyn PlacementPolicy>,
        workloads: Vec<Box<dyn Workload>>,
        seed: u64,
    ) -> Result<System, UnsupportedConfig> {
        assert!(!workloads.is_empty(), "at least one workload required");
        policy.validate_config(&memory)?;
        for w in &workloads {
            memory.create_process(w.pid());
        }
        // Topology ids are dense and in index order (the builder asserts
        // it), so these arrays index directly by `NodeId`.
        let (node_latency_ns, node_is_local) = memory
            .topology()
            .ids()
            .map(|id| (memory.node(id).latency_ns(), !memory.node(id).is_cpu_less()))
            .unzip();
        let lanes = workloads
            .into_iter()
            .map(|workload| Lane {
                workload,
                clock_ns: 0,
                metrics: RunMetrics::new(),
            })
            .collect();
        Ok(System {
            daemon_timer: Periodic::new(policy.tick_period_ns()),
            memory,
            policy,
            lanes,
            latency: LatencyModel::datacenter(),
            rng: SimRng::seed(seed),
            sample_timer: Periodic::new(RunMetrics::sample_period_ns()),
            node_latency_ns,
            node_is_local,
            op: Op::default(),
        })
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

    /// Collected metrics of the first lane (the only one of a system
    /// built with [`System::new`]).
    pub fn metrics(&self) -> &RunMetrics {
        self.lane_metrics(0)
    }

    /// Number of workloads sharing the machine.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Metrics of lane `i` (same order as construction).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lane_metrics(&self, i: usize) -> &RunMetrics {
        &self.lanes[i].metrics
    }

    /// Name of the workload in lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lane_name(&self, i: usize) -> &str {
        self.lanes[i].workload.name()
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Current simulated time: the furthest-behind lane's clock (every
    /// lane has fully executed up to this instant).
    pub fn now_ns(&self) -> u64 {
        self.lanes.iter().map(|l| l.clock_ns).min().unwrap_or(0)
    }

    /// Runs every lane for `duration_ns` of simulated time.
    pub fn run(&mut self, duration_ns: u64) {
        self.run_observed(duration_ns, &mut NullObserver);
    }

    /// Runs every lane for `duration_ns`, reporting every resolved access
    /// to `obs` (e.g. a Chameleon profiler).
    pub fn run_observed(&mut self, duration_ns: u64, obs: &mut dyn AccessObserver) {
        let end: Vec<u64> = self
            .lanes
            .iter()
            .map(|l| l.clock_ns + duration_ns)
            .collect();
        // Progress the lane that is furthest behind (deterministic, fair
        // interleave); stop when every lane reached its end.
        while let Some(i) = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(i, l)| l.clock_ns < end[*i])
            .min_by_key(|(i, l)| (l.clock_ns, *i))
            .map(|(i, _)| i)
        {
            let now = self.lanes[i].clock_ns;
            self.memory.set_trace_now(now);
            // Taken out of `self` while its events execute, then put back
            // so its capacity carries over to the next op.
            let mut op = std::mem::take(&mut self.op);
            self.lanes[i]
                .workload
                .next_op_into(now, &mut self.rng, &mut op);
            let mut mem_ns = 0u64;
            for event in &op.events {
                match *event {
                    WorkloadEvent::Access(access) => {
                        mem_ns += self.execute_access(i, now, &access, obs);
                    }
                    WorkloadEvent::Free { pid, vpn } => {
                        self.memory.release(pid, vpn);
                    }
                }
            }
            // A zero-cost op still takes a nanosecond, and the lane's
            // metrics record exactly the time its clock advanced.
            let op_ns = (op.cpu_ns + mem_ns).max(1);
            self.op = op;
            let lane = &mut self.lanes[i];
            lane.clock_ns += op_ns;
            lane.metrics.note_op(op_ns, mem_ns);
            // Daemons and sampling follow the global (min) clock.
            let global = self.now_ns();
            self.memory.set_trace_now(global);
            // Daemon wakeups (capped catch-up after long ops).
            let fires = self.daemon_timer.fire(global).min(4);
            for _ in 0..fires {
                let mut ctx = PolicyCtx {
                    memory: &mut self.memory,
                    latency: &self.latency,
                    now_ns: global,
                };
                self.policy.tick(&mut ctx);
            }
            if self.sample_timer.fire(global) > 0 {
                for lane in &mut self.lanes {
                    lane.metrics.sample(global, &self.memory);
                }
            }
        }
    }

    /// Resolves one access exactly as the run loop would, charging it to
    /// the first lane (for benchmarking the resolution hot path in
    /// isolation). Returns the latency charged to the op.
    pub fn resolve_access(&mut self, now_ns: u64, access: &Access) -> u64 {
        self.execute_access(0, now_ns, access, &mut NullObserver)
    }

    /// Resolves one access of lane `lane`: page fault if unmapped or
    /// swapped, a pending NUMA hint fault, the touch, and the serving
    /// node's latency. Returns the latency charged to the op.
    fn execute_access(
        &mut self,
        lane: usize,
        now: u64,
        access: &Access,
        obs: &mut dyn AccessObserver,
    ) -> u64 {
        let (mut pfn, mut cost) = match self.memory.space(access.pid).translate(access.vpn) {
            Some(PageLocation::Mapped(pfn)) => (pfn, 0),
            _ => self.fault(now, access),
        };
        if self
            .memory
            .frames()
            .frame(pfn)
            .flags()
            .contains(PageFlags::HINTED)
        {
            let (migrated, hint_cost) = self.hint_fault(now, access, pfn);
            pfn = migrated;
            cost += hint_cost;
        }
        let node = touch(&mut self.memory, now, pfn, access.kind);
        let node_latency = self.node_latency_ns[node.index()];
        self.lanes[lane].metrics.note_access(
            self.node_is_local[node.index()],
            access.page_type.is_anon(),
            node_latency,
        );
        obs.on_access(now, access, node);
        // One workload access stands for a bundle of LLC misses (see
        // `LatencyModel::access_bundle`); metrics record the per-miss
        // latency, the op is charged the whole stall.
        cost + node_latency * self.latency.access_bundle
    }

    /// The page fault of an unmapped or swapped page: the policy places
    /// it. Returns the page's frame and the fault's cost.
    fn fault(&mut self, now: u64, access: &Access) -> (Pfn, u64) {
        let mut ctx = PolicyCtx {
            memory: &mut self.memory,
            latency: &self.latency,
            now_ns: now,
        };
        let out = self
            .policy
            .handle_fault(&mut ctx, access.pid, access.vpn, access.page_type);
        (out.pfn, out.cost_ns)
    }

    /// The NUMA hint fault of a `HINTED` page: clears the hint, records
    /// it and lets the policy migrate the page. Returns the page's frame
    /// afterwards and the fault's cost.
    fn hint_fault(&mut self, now: u64, access: &Access, pfn: Pfn) -> (Pfn, u64) {
        let frame = self.memory.frames_mut().frame_mut(pfn);
        frame.flags_mut().remove(PageFlags::HINTED);
        let node = frame.node();
        self.memory.record(TraceEvent::HintFault {
            page: PageKey::new(access.pid, access.vpn),
            node,
        });
        let mut ctx = PolicyCtx {
            memory: &mut self.memory,
            latency: &self.latency,
            now_ns: now,
        };
        let cost = self.latency.hint_fault_ns + self.policy.on_hint_fault(&mut ctx, pfn);
        match self.memory.space(access.pid).translate(access.vpn) {
            Some(PageLocation::Mapped(migrated)) => (migrated, cost),
            other => panic!("page vanished during hint fault: {other:?}"),
        }
    }
}

/// Records a touch of `pfn` at `now` and returns the node that served
/// it. A touch anywhere in a compound page keeps the whole unit warm:
/// only the head has LRU standing, so a tail forwards its marks to it
/// (the kernel's `page_referenced` collects young bits over every PTE of
/// a THP).
fn touch(memory: &mut Memory, now: u64, pfn: Pfn, kind: AccessKind) -> NodeId {
    let mark = if kind == AccessKind::Store {
        PageFlags::REFERENCED | PageFlags::DIRTY
    } else {
        PageFlags::REFERENCED
    };
    let frame = memory.frames_mut().frame_mut(pfn);
    frame.flags_mut().insert(mark);
    frame.touch_hotness();
    frame.set_last_access_ns(now);
    let node = frame.node();
    if frame.flags().contains(PageFlags::TAIL) {
        let head = memory.compound_head(pfn);
        let head_frame = memory.frames_mut().frame_mut(head);
        head_frame.flags_mut().insert(mark);
        head_frame.touch_hotness();
        head_frame.set_last_access_ns(now);
    }
    node
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::policy::{LinuxDefault, Tpp};
    use tiered_mem::{NodeKind, PageType, Pid, ThpMode, Vpn, HUGE_PAGE_FRAMES};
    use tiered_sim::{Op, MS, SEC};

    fn quick_system(policy: Box<dyn PlacementPolicy>) -> System {
        let workload = tiered_workloads::uniform(2_000).build();
        let memory = configs::two_to_one(2_500);
        System::new(memory, policy, Box::new(workload), 7).unwrap()
    }

    fn colocated(policy: Box<dyn PlacementPolicy>) -> System {
        let a = tiered_workloads::cache1(1_500).build();
        let b = tiered_workloads::data_warehouse(1_500).build();
        let ws = 1_500 * 2 + 1_500; // regions + churn headroom
        System::colocated(
            configs::two_to_one(ws),
            policy,
            vec![Box::new(a), Box::new(b)],
            3,
        )
        .unwrap()
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
        for mut s in [
            quick_system(Box::new(LinuxDefault::new())),
            colocated(Box::new(LinuxDefault::new())),
        ] {
            let mut counter = Counter(0);
            s.run_observed(SEC, &mut counter);
            let accesses: u64 = (0..s.lane_count())
                .map(|i| s.lane_metrics(i).accesses)
                .sum();
            assert_eq!(counter.0, accesses);
        }
    }

    /// Emits only zero-cost compute ops.
    struct Idle;

    impl Workload for Idle {
        fn name(&self) -> &str {
            "idle"
        }

        fn pid(&self) -> Pid {
            Pid(21)
        }

        fn next_op(&mut self, _now_ns: u64, _rng: &mut SimRng) -> Op {
            Op::compute(0)
        }

        fn working_set_pages(&self) -> u64 {
            0
        }
    }

    #[test]
    fn zero_cost_ops_are_accounted_as_the_time_the_clock_advanced() {
        let mut s = System::new(
            configs::all_local(1_000),
            Box::new(LinuxDefault::new()),
            Box::new(Idle),
            1,
        )
        .unwrap();
        s.run(10_000);
        assert_eq!(s.metrics().ops_completed, 10_000);
        assert_eq!(s.metrics().total_op_ns, s.now_ns());
    }

    #[test]
    fn lanes_progress_together() {
        let mut s = colocated(Box::new(LinuxDefault::new()));
        s.run(3 * SEC);
        assert!(s.now_ns() >= 3 * SEC);
        for i in 0..s.lane_count() {
            assert!(
                s.lane_metrics(i).ops_completed > 100,
                "lane {i} ({}) starved",
                s.lane_name(i)
            );
        }
        s.memory().validate();
    }

    #[test]
    fn shared_machine_keeps_per_process_isolation() {
        let mut s = colocated(Box::new(Tpp::new()));
        s.run(2 * SEC);
        // Both processes have pages resident and no cross-owner mappings
        // (validate checks the rmap bijection).
        let m = s.memory();
        for pid in m.pids() {
            assert!(m.space(pid).resident_pages() > 0, "{pid} has no memory");
        }
        m.validate();
    }

    #[test]
    fn deterministic_interleave() {
        let run = || {
            let mut s = colocated(Box::new(Tpp::new()));
            s.run(SEC);
            (
                s.lane_metrics(0).ops_completed,
                s.lane_metrics(1).ops_completed,
                s.memory().vmstat().to_string(),
            )
        };
        assert_eq!(run(), run());
    }

    /// Loads one tail page of the 2 MiB unit at VPN 0 per op, cycling
    /// through VPNs 1..512 and never touching the head VPN.
    struct TailToucher {
        next: u64,
    }

    impl Workload for TailToucher {
        fn name(&self) -> &str {
            "tail_toucher"
        }

        fn pid(&self) -> Pid {
            Pid(20)
        }

        fn next_op(&mut self, _now_ns: u64, _rng: &mut SimRng) -> Op {
            let vpn = Vpn(1 + self.next % (HUGE_PAGE_FRAMES - 1));
            self.next += 1;
            Op {
                cpu_ns: 1_000,
                events: vec![WorkloadEvent::Access(Access {
                    pid: self.pid(),
                    vpn,
                    kind: AccessKind::Load,
                    page_type: PageType::Anon,
                })],
            }
        }

        fn working_set_pages(&self) -> u64 {
            HUGE_PAGE_FRAMES
        }
    }

    #[test]
    fn tail_touches_keep_the_compound_head_warm() {
        let memory = Memory::builder()
            .node(NodeKind::LocalDram, 4096)
            .node(NodeKind::Cxl, 4096)
            .swap_pages(4096)
            .thp_mode(ThpMode::Always)
            .build();
        let mut s = System::colocated(
            memory,
            Box::new(LinuxDefault::new()),
            vec![
                Box::new(TailToucher { next: 0 }),
                Box::new(tiered_workloads::uniform(1_000).build()),
            ],
            5,
        )
        .unwrap();
        s.run(50 * MS);
        let m = s.memory();
        let tail = m
            .space(Pid(20))
            .translate(Vpn(1))
            .and_then(|l| l.pfn())
            .expect("tail mapped");
        let head = m.compound_head(tail);
        assert_ne!(head, tail, "the unit was faulted in as a compound page");
        let head_frame = m.frames().frame(head);
        assert!(head_frame.flags().contains(PageFlags::HEAD));
        assert!(
            head_frame.flags().contains(PageFlags::REFERENCED),
            "tail touches must mark the head referenced"
        );
        assert!(head_frame.hotness() > 0, "tail touches must heat the head");
        m.validate();
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_lane_list_rejected() {
        let _ = System::colocated(
            configs::all_local(1_000),
            Box::new(LinuxDefault::new()),
            vec![],
            1,
        );
    }
}
