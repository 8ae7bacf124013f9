//! # tiered-sim
//!
//! Deterministic simulation engine for tiered-memory experiments: the
//! nanosecond clock, the operation-cost latency model, access-trace
//! types, seeded randomness, and statistics collection.
//!
//! This crate sits between the mechanical substrate
//! ([`tiered_mem`]) and the policy/runner layer (`tpp`): it defines *how
//! time and cost are accounted* and *what a workload looks like*
//! ([`Workload`], [`Op`], [`Access`]) without prescribing any placement
//! behaviour.
//!
//! ## Example
//!
//! ```
//! use tiered_sim::{LatencyModel, Periodic, SimClock, SimRng, MS};
//!
//! let mut clock = SimClock::new();
//! let mut kswapd = Periodic::new(50 * MS);
//! let model = LatencyModel::datacenter();
//! let mut rng = SimRng::seed(1);
//!
//! clock.advance(120 * MS);
//! assert_eq!(kswapd.fire(clock.now_ns()), 2); // two missed wakeups
//! assert!(model.migrate_budget_pages(MS) > 100);
//! assert!(rng.chance(1.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod latency;
mod rng;
mod stats;
mod trace;

pub use clock::{Periodic, SimClock, MINUTE, MS, SEC, US};
pub use latency::{access_latency_ns, LatencyModel};
pub use rng::SimRng;
pub use stats::{fraction, percentile, rate_per_sec, LogHistogram, TimeSeries};
pub use trace::{Access, AccessKind, AccessObserver, NullObserver, Op, Workload, WorkloadEvent};

/// Structured event telemetry for simulation runs, re-exported from
/// [`tiered_mem::telemetry`]: kernel-style trace events ↔ vmstat counter
/// parity, plus the null/ring/JSONL-writer sinks.
pub use tiered_mem::telemetry;
