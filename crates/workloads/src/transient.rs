//! Short-lived allocation churn: request-processing pages that are
//! allocated, touched a few times, and freed within a minute.
//!
//! The paper leans on this behaviour twice: newly allocated pages are
//! "often related to request processing and, therefore, both short-lived
//! and hot" (§5.2 — why local allocation headroom matters), and Data
//! Warehouse's anon pages are mostly newly allocated rather than re-used
//! (§3.7).

use std::collections::VecDeque;

use tiered_mem::Vpn;

/// A pool of short-lived pages cycling through a dedicated VPN range.
///
/// # Examples
///
/// ```
/// use tiered_workloads::TransientPool;
///
/// let mut pool = TransientPool::new(1 << 32, 1024, 1_000_000);
/// let vpn = pool.allocate(0).expect("pool has room");
/// assert_eq!(pool.live_count(), 1);
/// let expired: Vec<_> = pool.drain_expired(2_000_000).collect();
/// assert_eq!(expired, vec![vpn]);
/// assert_eq!(pool.live_count(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct TransientPool {
    base_vpn: u64,
    range: u64,
    lifetime_ns: u64,
    next: u64,
    live: VecDeque<(Vpn, u64)>,
}

impl TransientPool {
    /// Creates a pool cycling through `range` VPNs starting at `base_vpn`,
    /// freeing each page `lifetime_ns` after allocation.
    ///
    /// # Panics
    ///
    /// Panics if `range` or `lifetime_ns` is zero.
    pub fn new(base_vpn: u64, range: u64, lifetime_ns: u64) -> TransientPool {
        assert!(range > 0, "transient range must be positive");
        assert!(lifetime_ns > 0, "lifetime must be positive");
        TransientPool {
            base_vpn,
            range,
            lifetime_ns,
            next: 0,
            live: VecDeque::new(),
        }
    }

    /// Number of pages currently live.
    #[inline]
    pub fn live_count(&self) -> u64 {
        self.live.len() as u64
    }

    /// The page lifetime.
    #[inline]
    pub fn lifetime_ns(&self) -> u64 {
        self.lifetime_ns
    }

    /// Allocates a fresh page at `now_ns`, scheduling its free.
    ///
    /// Returns `None` when every VPN in the range is still live — the pool
    /// is *self-limiting*: once saturated, new allocations proceed only as
    /// old pages expire, so the steady-state churn rate is
    /// `range / lifetime` pages per unit time regardless of how fast the
    /// workload runs.
    pub fn allocate(&mut self, now_ns: u64) -> Option<Vpn> {
        if self.live_count() >= self.range {
            return None;
        }
        let vpn = Vpn(self.base_vpn + self.next % self.range);
        self.next += 1;
        self.live.push_back((vpn, now_ns + self.lifetime_ns));
        Some(vpn)
    }

    /// A random live page, if any (re-touching in-flight request state).
    pub fn peek_live(&self, salt: u64) -> Option<Vpn> {
        if self.live.is_empty() {
            return None;
        }
        let i = (salt as usize) % self.live.len();
        Some(self.live[i].0)
    }

    /// Removes every page whose lifetime expired by `now_ns`, yielding
    /// each in expiry order.
    ///
    /// Pages are popped as the iterator advances, so one that is dropped
    /// early leaves the rest of the expired pages live.
    pub fn drain_expired(&mut self, now_ns: u64) -> impl Iterator<Item = Vpn> + '_ {
        std::iter::from_fn(move || {
            let (vpn, _) = self
                .live
                .pop_front_if(|&mut (_, deadline)| deadline <= now_ns)?;
            Some(vpn)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_distinct_while_live() {
        let mut pool = TransientPool::new(0, 100, 1000);
        let a = pool.allocate(0).unwrap();
        let b = pool.allocate(0).unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.live_count(), 2);
    }

    #[test]
    fn expiry_is_fifo_and_respects_deadlines() {
        let mut pool = TransientPool::new(0, 100, 1000);
        let a = pool.allocate(0).unwrap(); // expires at 1000
        let b = pool.allocate(500).unwrap(); // expires at 1500
        assert_eq!(pool.drain_expired(999).next(), None);
        assert_eq!(pool.drain_expired(1000).collect::<Vec<_>>(), vec![a]);
        assert_eq!(pool.drain_expired(10_000).collect::<Vec<_>>(), vec![b]);
        assert_eq!(pool.live_count(), 0);
    }

    #[test]
    fn vpns_recycle_after_expiry() {
        let mut pool = TransientPool::new(50, 2, 10);
        let a = pool.allocate(0).unwrap();
        let b = pool.allocate(0).unwrap();
        pool.drain_expired(100).for_each(drop);
        let c = pool.allocate(100).unwrap();
        assert_eq!(c, a); // wrapped around
        assert_ne!(c, b);
    }

    #[test]
    fn saturated_pool_declines_until_expiry() {
        let mut pool = TransientPool::new(0, 2, 100);
        assert!(pool.allocate(0).is_some());
        assert!(pool.allocate(0).is_some());
        assert_eq!(pool.allocate(0), None);
        pool.drain_expired(100).for_each(drop);
        assert!(pool.allocate(100).is_some());
    }

    #[test]
    fn peek_live_returns_member() {
        let mut pool = TransientPool::new(0, 16, 1000);
        assert_eq!(pool.peek_live(3), None);
        let a = pool.allocate(0).unwrap();
        let b = pool.allocate(0).unwrap();
        for salt in 0..10 {
            let v = pool.peek_live(salt).unwrap();
            assert!(v == a || v == b);
        }
    }
}
