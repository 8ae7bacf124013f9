//! Per-process address spaces: the virtual→physical mapping plus swap
//! entries, and the registry of processes.
//!
//! The mapping is a hand-rolled open-addressed hash table ([`VpnMap`])
//! rather than `std::collections::HashMap`: every simulated access funnels
//! through [`AddressSpace::translate`], so the lookup path is the hottest
//! code in the simulator. The table uses power-of-two capacities,
//! fibonacci (multiply-shift) hashing, linear probing, and tombstone-free
//! backshift deletion, and the fault path keeps a one-entry
//! last-translation cache in front of it.
//!
//! Next to the hash table sits an ordered occupancy index
//! ([`WindowIndex`]): one 512-bit bitmap per aligned huge-page window that
//! holds any entry. The background scanners (khugepaged, the hint
//! sampler) resume from a cursor in address order; the index lets them
//! enumerate windows, or a run of VPNs from any rank, without collecting
//! and sorting the whole table on every wakeup.

use std::cell::Cell;
use std::collections::btree_map::{BTreeMap, Entry};

use crate::frame::HUGE_PAGE_FRAMES;
use crate::swap::SwapSlot;
use crate::types::{Pfn, Pid, Vpn};

/// Where a virtual page currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageLocation {
    /// Resident in memory at the given frame.
    Mapped(Pfn),
    /// Paged out to the given swap slot.
    Swapped(SwapSlot),
}

impl PageLocation {
    /// The frame, if resident.
    pub fn pfn(self) -> Option<Pfn> {
        match self {
            PageLocation::Mapped(pfn) => Some(pfn),
            PageLocation::Swapped(_) => None,
        }
    }
}

/// Sentinel marking an empty slot. Valid VPNs never reach `u64::MAX`:
/// anon regions start at 0 and file regions at `1 << 32`, both far below.
const EMPTY: u64 = u64::MAX;

/// 2^64 / phi, the fibonacci hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

const MIN_CAP: usize = 8;

/// Open-addressed `Vpn -> PageLocation` table.
///
/// Layout: two parallel vectors (keys and values) of power-of-two length.
/// The home slot of a key is the top `log2(capacity)` bits of
/// `key * FIB` (multiply-shift), collisions probe linearly, and deletion
/// backshifts the following probe chain instead of leaving tombstones, so
/// lookup cost never degrades with churn. Iteration order is slot order —
/// a pure function of the insertion history, never of a randomized hash
/// seed, which keeps whole-table walks deterministic across runs.
#[derive(Clone, Debug)]
struct VpnMap {
    keys: Vec<u64>,
    vals: Vec<PageLocation>,
    len: usize,
    /// `64 - log2(capacity)`; multiply-shift uses the top bits.
    shift: u32,
}

impl VpnMap {
    fn new() -> VpnMap {
        VpnMap {
            keys: vec![EMPTY; MIN_CAP],
            vals: vec![PageLocation::Mapped(Pfn(0)); MIN_CAP],
            len: 0,
            shift: 64 - MIN_CAP.trailing_zeros(),
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, key: u64) -> Option<PageLocation> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, val: PageLocation) -> Option<PageLocation> {
        debug_assert_ne!(key, EMPTY, "Vpn(u64::MAX) collides with the empty sentinel");
        // Grow before the load factor exceeds 3/4 so probe chains stay short.
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            if k == key {
                return Some(std::mem::replace(&mut self.vals[i], val));
            }
            i = (i + 1) & mask;
        }
    }

    fn remove(&mut self, key: u64) -> Option<PageLocation> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return None;
            }
            if k == key {
                break;
            }
            i = (i + 1) & mask;
        }
        let old = self.vals[i];
        self.len -= 1;
        // Backshift deletion: slide each following chain member into the
        // hole unless that would move it before its home slot.
        let mut hole = i;
        let mut j = (i + 1) & mask;
        loop {
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            let home = self.home(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.keys[hole] = EMPTY;
        Some(old)
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals =
            std::mem::replace(&mut self.vals, vec![PageLocation::Mapped(Pfn(0)); new_cap]);
        self.shift -= 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, PageLocation)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }
}

/// Words in one window bitmap: one bit per VPN of a huge-page window.
const WINDOW_WORDS: usize = (HUGE_PAGE_FRAMES / 64) as usize;

/// Ordered occupancy index over a page table: for every aligned
/// [`HUGE_PAGE_FRAMES`]-VPN window holding at least one entry, a bitmap
/// with bit `vpn - base` set exactly when `vpn` has an entry. Windows
/// with no entries are absent, so walking the map is O(occupied windows).
#[derive(Clone, Debug, Default)]
struct WindowIndex {
    windows: BTreeMap<u64, [u64; WINDOW_WORDS]>,
}

impl WindowIndex {
    #[inline]
    fn split(vpn: u64) -> (u64, usize, u64) {
        let off = vpn % HUGE_PAGE_FRAMES;
        (vpn - off, (off / 64) as usize, 1 << (off % 64))
    }

    fn insert(&mut self, vpn: u64) {
        let (base, word, bit) = Self::split(vpn);
        let bits = self.windows.entry(base).or_insert([0; WINDOW_WORDS]);
        debug_assert_eq!(bits[word] & bit, 0, "Vpn({vpn}) indexed twice");
        bits[word] |= bit;
    }

    fn remove(&mut self, vpn: u64) {
        let (base, word, bit) = Self::split(vpn);
        let Entry::Occupied(mut e) = self.windows.entry(base) else {
            panic!("Vpn({vpn}) missing from the window index");
        };
        let bits = e.get_mut();
        debug_assert_ne!(
            bits[word] & bit,
            0,
            "Vpn({vpn}) missing from the window index"
        );
        bits[word] &= !bit;
        if bits.iter().all(|&w| w == 0) {
            e.remove();
        }
    }

    fn contains(&self, vpn: u64) -> bool {
        let (base, word, bit) = Self::split(vpn);
        self.windows
            .get(&base)
            .is_some_and(|bits| bits[word] & bit != 0)
    }

    fn count(bits: &[u64; WINDOW_WORDS]) -> usize {
        bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Pushes the VPNs of one window in ascending order, skipping the
    /// first `skip` and stopping once `out` holds `limit`.
    fn push_window(
        base: u64,
        bits: &[u64; WINDOW_WORDS],
        mut skip: usize,
        limit: usize,
        out: &mut Vec<Vpn>,
    ) {
        for (i, &word) in bits.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                if out.len() == limit {
                    return;
                }
                let bit = w.trailing_zeros() as u64;
                w &= w - 1;
                if skip > 0 {
                    skip -= 1;
                } else {
                    out.push(Vpn(base + i as u64 * 64 + bit));
                }
            }
        }
    }
}

/// One process' page table.
///
/// # Examples
///
/// ```
/// use tiered_mem::{AddressSpace, PageLocation, Pfn, Pid, Vpn};
///
/// let mut space = AddressSpace::new(Pid(1));
/// space.map(Vpn(0), Pfn(42));
/// assert_eq!(space.translate(Vpn(0)), Some(PageLocation::Mapped(Pfn(42))));
/// assert_eq!(space.unmap(Vpn(0)), Some(PageLocation::Mapped(Pfn(42))));
/// assert_eq!(space.translate(Vpn(0)), None);
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    pid: Pid,
    map: VpnMap,
    /// Ordered occupancy of `map`, updated only when an entry is added or
    /// removed (replacing an entry leaves it alone).
    index: WindowIndex,
    resident: u64,
    swapped: u64,
    /// One-entry last-translation cache: workloads re-touch the same page
    /// in bursts, and the sampler walks pages it just translated.
    last: Cell<Option<(Vpn, PageLocation)>>,
}

impl AddressSpace {
    /// Creates an empty address space for `pid`.
    pub fn new(pid: Pid) -> AddressSpace {
        AddressSpace {
            pid,
            map: VpnMap::new(),
            index: WindowIndex::default(),
            resident: 0,
            swapped: 0,
            last: Cell::new(None),
        }
    }

    /// The owning process.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Looks up where `vpn` lives, if anywhere.
    #[inline]
    pub fn translate(&self, vpn: Vpn) -> Option<PageLocation> {
        if let Some((v, loc)) = self.last.get() {
            if v == vpn {
                return Some(loc);
            }
        }
        let loc = self.map.get(vpn.0)?;
        self.last.set(Some((vpn, loc)));
        Some(loc)
    }

    /// Number of resident (mapped) pages.
    #[inline]
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Number of swapped-out pages.
    #[inline]
    pub fn swapped_pages(&self) -> u64 {
        self.swapped
    }

    /// Total pages with any backing (resident + swapped).
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.resident + self.swapped
    }

    /// Installs a resident mapping, replacing any previous entry.
    ///
    /// Returns the previous location, if any.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn) -> Option<PageLocation> {
        let loc = PageLocation::Mapped(pfn);
        let prev = self.map.insert(vpn.0, loc);
        self.account_replace(vpn, prev);
        self.resident += 1;
        self.last.set(Some((vpn, loc)));
        prev
    }

    /// Marks a page as swapped out, replacing any previous entry.
    ///
    /// Returns the previous location, if any.
    pub fn set_swapped(&mut self, vpn: Vpn, slot: SwapSlot) -> Option<PageLocation> {
        let loc = PageLocation::Swapped(slot);
        let prev = self.map.insert(vpn.0, loc);
        self.account_replace(vpn, prev);
        self.swapped += 1;
        self.last.set(Some((vpn, loc)));
        prev
    }

    /// Removes the entry for `vpn`, returning where it was.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<PageLocation> {
        let prev = self.map.remove(vpn.0);
        if prev.is_some() {
            self.index.remove(vpn.0);
        }
        self.account_remove(prev);
        if let Some((v, _)) = self.last.get() {
            if v == vpn {
                self.last.set(None);
            }
        }
        prev
    }

    /// Accounting for an insert over `prev`: a new entry is indexed, a
    /// replaced one only changes the resident/swapped split.
    fn account_replace(&mut self, vpn: Vpn, prev: Option<PageLocation>) {
        if prev.is_none() {
            self.index.insert(vpn.0);
        }
        self.account_remove(prev);
    }

    fn account_remove(&mut self, prev: Option<PageLocation>) {
        match prev {
            Some(PageLocation::Mapped(_)) => self.resident -= 1,
            Some(PageLocation::Swapped(_)) => self.swapped -= 1,
            None => {}
        }
    }

    /// Iterates all entries in unspecified (but deterministic) order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, PageLocation)> + '_ {
        self.map.iter().map(|(v, l)| (Vpn(v), l))
    }

    /// Base VPNs of the aligned [`HUGE_PAGE_FRAMES`]-VPN windows holding
    /// at least one entry (mapped or swapped), in ascending order.
    /// O(occupied windows).
    pub fn windows(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.index.windows.keys().map(|&base| Vpn(base))
    }

    /// Replaces `out` with up to `n` VPNs in ascending address order,
    /// starting at the `rank`-th entry (0-based, taken modulo the entry
    /// count) and wrapping past the last entry to the first. Never yields
    /// a VPN twice, so at most [`AddressSpace::total_pages`] are returned.
    /// O(occupied windows + n).
    pub fn ranked_vpns_into(&self, rank: usize, n: usize, out: &mut Vec<Vpn>) {
        out.clear();
        let total = self.map.len();
        if total == 0 {
            return;
        }
        let limit = n.min(total);
        out.reserve(limit);
        // Find the window holding the `rank`-th entry.
        let mut skip = rank % total;
        let mut start = 0;
        for (&base, bits) in &self.index.windows {
            let count = WindowIndex::count(bits);
            if skip < count {
                start = base;
                break;
            }
            skip -= count;
        }
        // From there to the end, then wrap round to (and into) the start
        // window; `limit <= total` stops the walk before any repeat.
        let tail = self.index.windows.range(start..);
        let head = self.index.windows.range(..=start);
        for (&base, bits) in tail.chain(head) {
            if out.len() == limit {
                break;
            }
            WindowIndex::push_window(base, bits, skip, limit, out);
            skip = 0;
        }
    }

    /// Asserts the window index matches the table: every entry's bit is
    /// set, no window is empty, and the set bits number exactly the
    /// entries. Part of [`crate::Memory::validate`].
    pub fn validate(&self) {
        let indexed: usize = self.index.windows.values().map(WindowIndex::count).sum();
        assert_eq!(
            indexed,
            self.map.len(),
            "{}: window index holds {indexed} VPNs, page table {}",
            self.pid,
            self.map.len()
        );
        for (base, bits) in &self.index.windows {
            assert!(
                bits.iter().any(|&w| w != 0),
                "{}: empty window {base}",
                self.pid
            );
        }
        for (vpn, _) in self.map.iter() {
            assert!(
                self.index.contains(vpn),
                "{}: Vpn({vpn}) mapped but not indexed",
                self.pid
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_unmap_accounting() {
        let mut s = AddressSpace::new(Pid(9));
        assert_eq!(s.pid(), Pid(9));
        s.map(Vpn(1), Pfn(100));
        s.map(Vpn(2), Pfn(101));
        assert_eq!(s.resident_pages(), 2);
        assert_eq!(s.total_pages(), 2);
        s.unmap(Vpn(1));
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.translate(Vpn(1)), None);
        assert_eq!(s.translate(Vpn(2)), Some(PageLocation::Mapped(Pfn(101))));
    }

    #[test]
    fn swap_transition_keeps_counts_consistent() {
        let mut s = AddressSpace::new(Pid(1));
        s.map(Vpn(5), Pfn(7));
        let prev = s.set_swapped(Vpn(5), SwapSlot(3));
        assert_eq!(prev, Some(PageLocation::Mapped(Pfn(7))));
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(s.swapped_pages(), 1);
        // Swap-in: back to mapped.
        let prev = s.map(Vpn(5), Pfn(8));
        assert_eq!(prev, Some(PageLocation::Swapped(SwapSlot(3))));
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.swapped_pages(), 0);
    }

    #[test]
    fn remap_replaces_without_leaking_counts() {
        let mut s = AddressSpace::new(Pid(1));
        s.map(Vpn(5), Pfn(7));
        s.map(Vpn(5), Pfn(9));
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.translate(Vpn(5)), Some(PageLocation::Mapped(Pfn(9))));
    }

    #[test]
    fn unmap_missing_is_none() {
        let mut s = AddressSpace::new(Pid(1));
        assert_eq!(s.unmap(Vpn(77)), None);
        assert_eq!(s.total_pages(), 0);
    }

    #[test]
    fn ranked_vpns_are_sorted_and_wrap() {
        let mut s = AddressSpace::new(Pid(1));
        for v in [9u64, 3, 7, 1] {
            s.map(Vpn(v), Pfn(v as u32));
        }
        // The buffer is fully replaced, not appended to.
        let mut buf = vec![Vpn(999)];
        s.ranked_vpns_into(0, usize::MAX, &mut buf);
        assert_eq!(buf, vec![Vpn(1), Vpn(3), Vpn(7), Vpn(9)]);
        // Start at rank 2, wrap past the end, never repeat.
        s.ranked_vpns_into(2, 3, &mut buf);
        assert_eq!(buf, vec![Vpn(7), Vpn(9), Vpn(1)]);
        s.ranked_vpns_into(6, 10, &mut buf);
        assert_eq!(buf, vec![Vpn(7), Vpn(9), Vpn(1), Vpn(3)]);
        s.ranked_vpns_into(1, 0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn page_location_pfn_helper() {
        assert_eq!(PageLocation::Mapped(Pfn(4)).pfn(), Some(Pfn(4)));
        assert_eq!(PageLocation::Swapped(SwapSlot(1)).pfn(), None);
    }

    #[test]
    fn translate_cache_tracks_remap_swap_and_unmap() {
        let mut s = AddressSpace::new(Pid(1));
        s.map(Vpn(5), Pfn(7));
        // Prime the one-entry cache, then mutate through every path and
        // check translate never serves a stale location.
        assert_eq!(s.translate(Vpn(5)), Some(PageLocation::Mapped(Pfn(7))));
        s.map(Vpn(5), Pfn(8));
        assert_eq!(s.translate(Vpn(5)), Some(PageLocation::Mapped(Pfn(8))));
        s.set_swapped(Vpn(5), SwapSlot(2));
        assert_eq!(
            s.translate(Vpn(5)),
            Some(PageLocation::Swapped(SwapSlot(2)))
        );
        s.unmap(Vpn(5));
        assert_eq!(s.translate(Vpn(5)), None);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = AddressSpace::new(Pid(1));
        a.map(Vpn(1), Pfn(10));
        let b = a.clone();
        a.unmap(Vpn(1));
        assert_eq!(b.translate(Vpn(1)), Some(PageLocation::Mapped(Pfn(10))));
        assert_eq!(a.translate(Vpn(1)), None);
    }

    /// Churn the open-addressed table against a `HashMap` reference model
    /// with a deterministic LCG driving inserts, overwrites, removals, and
    /// lookups across several growth boundaries.
    #[test]
    fn vpn_map_matches_reference_model_under_churn() {
        use std::collections::HashMap;

        let mut lcg: u64 = 0x1234_5678_9abc_def0;
        let mut step = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 16
        };
        let mut ours = VpnMap::new();
        let mut model: HashMap<u64, PageLocation> = HashMap::new();
        for _ in 0..20_000 {
            let r = step();
            // Small key domain forces heavy collision/overwrite/remove mix;
            // include keys offset by 1 << 32 to mimic file-region VPNs.
            let key = (r % 512) + if r & 1 == 0 { 1 << 32 } else { 0 };
            match (r >> 9) % 4 {
                0 | 1 => {
                    let val = PageLocation::Mapped(Pfn((r >> 20) as u32));
                    assert_eq!(ours.insert(key, val), model.insert(key, val));
                }
                2 => {
                    assert_eq!(ours.remove(key), model.remove(&key));
                }
                _ => {
                    assert_eq!(ours.get(key), model.get(&key).copied());
                }
            }
            assert_eq!(ours.len(), model.len());
        }
        // Full-table walk agrees with the model.
        let mut walked: Vec<(u64, PageLocation)> = ours.iter().collect();
        walked.sort_by_key(|&(k, _)| k);
        let mut expected: Vec<(u64, PageLocation)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        expected.sort_by_key(|&(k, _)| k);
        assert_eq!(walked, expected);
    }

    #[test]
    fn vpn_map_survives_growth_with_dense_keys() {
        let mut m = VpnMap::new();
        for i in 0..10_000u64 {
            assert_eq!(m.insert(i, PageLocation::Mapped(Pfn(i as u32))), None);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(i), Some(PageLocation::Mapped(Pfn(i as u32))));
        }
        // Delete every other key, then verify the survivors still resolve
        // (backshift must not break probe chains).
        for i in (0..10_000u64).step_by(2) {
            assert!(m.remove(i).is_some());
        }
        for i in 0..10_000u64 {
            let want = if i % 2 == 1 {
                Some(PageLocation::Mapped(Pfn(i as u32)))
            } else {
                None
            };
            assert_eq!(m.get(i), want);
        }
    }
}
