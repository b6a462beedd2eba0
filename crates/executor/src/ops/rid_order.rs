//! Rid ordering: the one route by which the executor sorts, deduplicates
//! and tests membership in rid lists.
//!
//! The improved index scan sorts rids into physical order (Figure 1),
//! System B's fetch "sorts rids very efficiently using a bitmap" and so
//! deduplicates them too (Figure 8), and the hash intersection tests probe
//! rids against a build-side set (Figures 5 and 7).  Each of these first
//! tries a [`DenseRidSet`] over the list's own `(page, slot)` universe,
//! which does the job in linear time but exists only when its bitmap is no
//! larger than the list.  Sparse lists fall back to the general structures:
//! a stable radix sort, a chunked [`RidBitmap`], a hash set.
//!
//! Both routes return exactly the same rids in the same order, and every
//! simulated charge on these paths is computed by the callers from list
//! lengths alone, so which route runs is invisible to the measurements.

use robustmap_storage::heap::Rid;
use robustmap_storage::{DenseRidSet, FxBuildHasher, FxHashSet, RidBitmap};

use crate::batch::radix_sort_by_u64_key;

/// Sort `rids` into `(page, slot)` order, keeping duplicates — the order a
/// stable sort by [`Rid::to_u64`] produces.  A list holding some rid twice
/// takes the radix sort, since the dense set would fold the copies.
pub fn sort_physical(rids: &mut Vec<Rid>) {
    match DenseRidSet::build(rids) {
        Some(set) if !set.had_duplicates() => set.write_sorted(rids),
        _ => radix_sort_by_u64_key(rids, |r| r.to_u64()),
    }
}

/// The distinct rids of `rids` in `(page, slot)` order — what
/// `RidBitmap::from_rids(rids).iter_rids()` yields.
pub fn sorted_unique(rids: &[Rid]) -> Vec<Rid> {
    match DenseRidSet::build(rids) {
        Some(set) => {
            let mut out = Vec::new();
            set.write_sorted(&mut out);
            out
        }
        None => RidBitmap::from_rids(rids.iter().copied()).iter_rids().collect(),
    }
}

/// The rids of `probe` that occur in `build`, in probe order (probe-side
/// duplicates kept).
pub fn probe_members(build: &[Rid], probe: &[Rid]) -> Vec<Rid> {
    match DenseRidSet::build(build) {
        Some(set) => probe.iter().copied().filter(|&r| set.contains(r)).collect(),
        None => {
            let mut set: FxHashSet<Rid> =
                FxHashSet::with_capacity_and_hasher(build.len(), FxBuildHasher::default());
            set.extend(build.iter().copied());
            probe.iter().copied().filter(|r| set.contains(r)).collect()
        }
    }
}
