//! Co-located workloads: several services sharing one tiered machine.
//!
//! Datacenter hosts rarely run a single process; the paper's mechanisms
//! (shared watermarks, one demotion daemon, promotion into the shared
//! local node) all operate machine-wide. [`MultiSystem`] runs any number
//! of workloads over one [`Memory`] under one policy, each on its own
//! virtual CPU: workload-local clocks advance independently, and the
//! scheduler always progresses the workload that is furthest behind, so
//! the interleaving is deterministic and fair.

use tiered_mem::{EventSink, Memory, NodeId, PageFlags, PageKey, PageLocation, TraceEvent};
use tiered_sim::{
    AccessObserver, LatencyModel, NullObserver, Periodic, SimRng, Workload, WorkloadEvent,
};

use crate::metrics::RunMetrics;
use crate::policy::{PlacementPolicy, PolicyCtx, UnsupportedConfig};
use crate::system::touch;

/// One co-located workload and its execution state.
struct Lane {
    workload: Box<dyn Workload>,
    /// This lane's virtual-CPU clock.
    clock_ns: u64,
    metrics: RunMetrics,
}

/// A machine shared by several workloads under one placement policy.
///
/// # Examples
///
/// ```
/// use tiered_sim::SEC;
/// use tpp::{configs, policy::Tpp, MultiSystem};
///
/// let a = tiered_workloads::cache1(2_000).build();
/// let b = tiered_workloads::data_warehouse(2_000).build();
/// let memory = configs::two_to_one(6_000);
/// let mut system = MultiSystem::new(
///     memory,
///     Box::new(Tpp::new()),
///     vec![Box::new(a), Box::new(b)],
///     7,
/// )?;
/// system.run(2 * SEC);
/// assert_eq!(system.lane_count(), 2);
/// # Ok::<(), tpp::policy::UnsupportedConfig>(())
/// ```
pub struct MultiSystem {
    memory: Memory,
    policy: Box<dyn PlacementPolicy>,
    lanes: Vec<Lane>,
    latency: LatencyModel,
    rng: SimRng,
    daemon_timer: Periodic,
    sample_timer: Periodic,
}

impl MultiSystem {
    /// Assembles a co-located system.
    ///
    /// # Errors
    ///
    /// [`UnsupportedConfig`] if the policy rejects the machine.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or two workloads share a pid.
    pub fn new(
        memory: Memory,
        policy: Box<dyn PlacementPolicy>,
        workloads: Vec<Box<dyn Workload>>,
        seed: u64,
    ) -> Result<MultiSystem, UnsupportedConfig> {
        assert!(!workloads.is_empty(), "at least one workload required");
        policy.validate_config(&memory)?;
        let mut memory = memory;
        for w in &workloads {
            memory.create_process(w.pid());
        }
        let daemon_timer = Periodic::new(policy.tick_period_ns());
        let lanes = workloads
            .into_iter()
            .map(|workload| Lane {
                workload,
                clock_ns: 0,
                metrics: RunMetrics::new(),
            })
            .collect();
        Ok(MultiSystem {
            memory,
            policy,
            lanes,
            latency: LatencyModel::datacenter(),
            rng: SimRng::seed(seed),
            daemon_timer,
            sample_timer: Periodic::new(RunMetrics::sample_period_ns()),
        })
    }

    /// Number of co-located workloads.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Attaches a telemetry sink to the shared machine: every counted
    /// memory event is also emitted as a timestamped trace record.
    /// Disabled by default (`NullSink`), in which case runs are
    /// bit-identical to untraced ones.
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

    /// Global simulated time: the furthest-behind lane's clock (all lanes
    /// have fully executed up to this instant).
    pub fn now_ns(&self) -> u64 {
        self.lanes.iter().map(|l| l.clock_ns).min().unwrap_or(0)
    }

    /// Runs every lane for `duration_ns` of simulated time.
    pub fn run(&mut self, duration_ns: u64) {
        self.run_observed(duration_ns, &mut NullObserver);
    }

    /// Runs every lane for `duration_ns`, reporting accesses to `obs`.
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
            let op = self.lanes[i].workload.next_op(now, &mut self.rng);
            let mut mem_ns = 0u64;
            for event in &op.events {
                match *event {
                    WorkloadEvent::Access(access) => {
                        let (cost, node) = execute_access_shared(
                            &mut self.memory,
                            &mut *self.policy,
                            &self.latency,
                            now,
                            &access,
                            &mut self.rng,
                        );
                        let is_local = !self.memory.node(node).is_cpu_less();
                        let latency = self.memory.node(node).latency_ns();
                        mem_ns += cost;
                        self.lanes[i].metrics.note_access(
                            is_local,
                            access.page_type.is_anon(),
                            latency,
                        );
                        obs.on_access(now, &access, node);
                    }
                    WorkloadEvent::Free { pid, vpn } => {
                        self.memory.release(pid, vpn);
                    }
                }
            }
            let op_ns = (op.cpu_ns + mem_ns).max(1);
            self.lanes[i].clock_ns += op_ns;
            self.lanes[i].metrics.note_op(op_ns, mem_ns);
            // Daemons and sampling follow the global (min) clock.
            let global = self.now_ns();
            self.memory.set_trace_now(global);
            let fires = self.daemon_timer.fire(global).min(4);
            for _ in 0..fires {
                let mut ctx = PolicyCtx {
                    memory: &mut self.memory,
                    latency: &self.latency,
                    now_ns: global,
                    rng: &mut self.rng,
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
}

/// The shared access path (fault, hint fault, touch, charge); mirrors
/// `System::execute_access` for a machine with several processes.
/// Returns the latency charged to the op and the node that served it.
fn execute_access_shared(
    memory: &mut Memory,
    policy: &mut dyn PlacementPolicy,
    latency: &LatencyModel,
    now: u64,
    access: &tiered_sim::Access,
    rng: &mut SimRng,
) -> (u64, NodeId) {
    let mut cost = 0u64;
    let mut pfn = match memory.space(access.pid).translate(access.vpn) {
        Some(PageLocation::Mapped(pfn)) => pfn,
        _ => {
            let mut ctx = PolicyCtx {
                memory,
                latency,
                now_ns: now,
                rng,
            };
            let out = policy.handle_fault(&mut ctx, access.pid, access.vpn, access.page_type);
            cost += out.cost_ns;
            out.pfn
        }
    };
    if memory
        .frames()
        .frame(pfn)
        .flags()
        .contains(PageFlags::HINTED)
    {
        memory
            .frames_mut()
            .frame_mut(pfn)
            .flags_mut()
            .remove(PageFlags::HINTED);
        let hint_node = memory.frames().frame(pfn).node();
        memory.record(TraceEvent::HintFault {
            page: PageKey::new(access.pid, access.vpn),
            node: hint_node,
        });
        cost += latency.hint_fault_ns;
        let mut ctx = PolicyCtx {
            memory,
            latency,
            now_ns: now,
            rng,
        };
        cost += policy.on_hint_fault(&mut ctx, pfn);
        pfn = match memory.space(access.pid).translate(access.vpn) {
            Some(PageLocation::Mapped(p)) => p,
            other => panic!("page vanished during hint fault: {other:?}"),
        };
    }
    touch(memory, now, pfn, access.kind);
    let node = memory.frames().frame(pfn).node();
    (
        cost + memory.node(node).latency_ns() * latency.access_bundle,
        node,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::policy::{LinuxDefault, Tpp};
    use tiered_mem::{NodeKind, PageType, Pid, ThpMode, Vpn, HUGE_PAGE_FRAMES};
    use tiered_sim::{Access, AccessKind, Op, MS, SEC};

    fn colocated(policy: Box<dyn PlacementPolicy>) -> MultiSystem {
        let a = tiered_workloads::cache1(1_500).build();
        let b = tiered_workloads::data_warehouse(1_500).build();
        let ws = 1_500 * 2 + 1_500; // regions + churn headroom
        MultiSystem::new(
            configs::two_to_one(ws),
            policy,
            vec![Box::new(a), Box::new(b)],
            3,
        )
        .unwrap()
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
        let mut s = MultiSystem::new(
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
        let _ = MultiSystem::new(
            configs::all_local(1_000),
            Box::new(LinuxDefault::new()),
            vec![],
            1,
        );
    }
}
