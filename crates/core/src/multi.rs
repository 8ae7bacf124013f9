//! The co-located entry point kept for callers that name it:
//! [`MultiSystem`] is a [`System`] built with [`System::colocated`].

use std::ops::{Deref, DerefMut};

use tiered_mem::Memory;
use tiered_sim::Workload;

use crate::policy::{PlacementPolicy, UnsupportedConfig};
use crate::system::System;

/// Several workloads sharing one machine under one placement policy: a
/// [`System`] with one lane per workload, which it derefs to.
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
pub struct MultiSystem(System);

impl MultiSystem {
    /// Assembles a co-located system; see [`System::colocated`].
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
        System::colocated(memory, policy, workloads, seed).map(MultiSystem)
    }
}

impl Deref for MultiSystem {
    type Target = System;

    fn deref(&self) -> &System {
        &self.0
    }
}

impl DerefMut for MultiSystem {
    fn deref_mut(&mut self) -> &mut System {
        &mut self.0
    }
}
