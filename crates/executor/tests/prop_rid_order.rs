//! Property tests for the dense rid set and the executor's rid-ordering
//! route through it: sorting, deduplicating and membership must return
//! exactly what the general structures return — a stable radix sort, a
//! chunked `RidBitmap`, a hash-set filter — on dense inputs (which take
//! the bitmap), sparse inputs (which fall back), duplicates, empty and
//! single-rid lists, `max_slot == 0`, probes outside the build universe,
//! and rids at `u32::MAX`.

use proptest::prelude::*;
use robustmap_executor::batch::radix_sort_by_u64_key;
use robustmap_executor::ops::rid_order::{probe_members, sort_physical, sorted_unique};
use robustmap_storage::heap::Rid;
use robustmap_storage::{DenseRidSet, FxHashSet, RidBitmap};

// ---------------------------------------------------------------- references

fn reference_sort(rids: &[Rid]) -> Vec<Rid> {
    let mut v = rids.to_vec();
    radix_sort_by_u64_key(&mut v, |r| r.to_u64());
    v
}

fn reference_unique(rids: &[Rid]) -> Vec<Rid> {
    RidBitmap::from_rids(rids.iter().copied()).iter_rids().collect()
}

fn reference_members(build: &[Rid], probe: &[Rid]) -> Vec<Rid> {
    let set: FxHashSet<Rid> = build.iter().copied().collect();
    probe.iter().copied().filter(|r| set.contains(r)).collect()
}

/// Whether the density rule admits `rids`, in arithmetic that cannot
/// overflow: the bitmap's words must number no more than the rids.
fn admits(rids: &[Rid]) -> bool {
    let Some(max_page) = rids.iter().map(|r| r.page).max() else { return false };
    let max_slot = rids.iter().map(|r| r.slot).max().unwrap();
    let slot_bits = 32 - max_slot.leading_zeros();
    let bits = (max_page as u128 + 1) << slot_bits;
    bits.div_ceil(64) <= rids.len() as u128
}

// ---------------------------------------------------------------- strategies

fn rids(pages: u32, slots: u32, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Rid>> {
    prop::collection::vec((0..pages, 0..slots).prop_map(|(p, s)| Rid::new(p, s)), len)
}

/// Distinct rids of a `pages x 64`-slot universe in scrambled order: the
/// duplicate-free dense input the improved fetch's sort sees.
fn unique_rids(pages: u32) -> impl Strategy<Value = Vec<Rid>> {
    prop::collection::btree_set(0..pages * 64, 1..(pages as usize * 64)).prop_map(|set| {
        let mut v: Vec<u32> = set.into_iter().collect();
        v.sort_by_key(|&x| x.wrapping_mul(0x9e37_79b9));
        v.into_iter().map(|x| Rid::new(x / 64, x % 64)).collect()
    })
}

/// Rids at the edges of the `u32` range mixed with ordinary ones.
fn extreme_rids() -> impl Strategy<Value = Vec<Rid>> {
    let edge = prop_oneof![
        Just(Rid::new(u32::MAX, u32::MAX)),
        Just(Rid::new(u32::MAX, 0)),
        Just(Rid::new(0, u32::MAX)),
        Just(Rid::new(1 << 31, 1 << 31)),
        (0u32..4, 0u32..4).prop_map(|(p, s)| Rid::new(p, s)),
    ];
    prop::collection::vec(edge, 1..40)
}

fn rid_lists() -> impl Strategy<Value = Vec<Rid>> {
    prop_oneof![
        rids(1, 1, 0..3),           // empty, a single rid, max_slot == 0
        rids(3, 5, 1..40),          // dense, many duplicates
        rids(300, 1, 1..400),       // max_slot == 0 (one bit per page)
        rids(40, 200, 100..3000),   // around the density threshold
        rids(100_000, 256, 1..300), // sparse: must fall back
        unique_rids(8),             // dense, duplicate-free
        unique_rids(40),
        extreme_rids(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sort_matches_the_stable_radix_sort(v in rid_lists()) {
        let mut got = v.clone();
        sort_physical(&mut got);
        prop_assert_eq!(got, reference_sort(&v));
    }

    #[test]
    fn dedup_matches_the_chunked_bitmap(v in rid_lists()) {
        prop_assert_eq!(sorted_unique(&v), reference_unique(&v));
    }

    #[test]
    fn membership_matches_the_hash_set(build in rid_lists(), probe in rid_lists(), wide in rids(400, 300, 0..500)) {
        prop_assert_eq!(probe_members(&build, &probe), reference_members(&build, &probe));
        // Probes drawn from a wider universe than most builds.
        prop_assert_eq!(probe_members(&build, &wide), reference_members(&build, &wide));
    }

    #[test]
    fn dense_set_follows_the_density_rule(v in rid_lists()) {
        let set = DenseRidSet::build(&v);
        prop_assert_eq!(set.is_some(), admits(&v), "{} rids", v.len());
        if let Some(set) = set {
            let unique = reference_unique(&v);
            prop_assert_eq!(set.had_duplicates(), unique.len() < v.len());
            let mut out = Vec::new();
            set.write_sorted(&mut out);
            prop_assert_eq!(&out, &unique);
            for r in &v {
                prop_assert!(set.contains(*r));
            }
        }
    }
}

/// The generated lists reach the dense route (with and without
/// duplicates), the fallback, and the `u32::MAX` edge, so the properties
/// above exercise every route.
#[test]
fn strategies_reach_every_route() {
    let (mut dense, mut dense_dup, mut fallback, mut edge) = (0, 0, 0, 0);
    let strategy = rid_lists();
    proptest::run_proptest(&ProptestConfig::with_cases(256), "routes", |rng| {
        let v = strategy.generate(rng);
        match DenseRidSet::build(&v) {
            Some(set) if set.had_duplicates() => dense_dup += 1,
            Some(_) => dense += 1,
            None => fallback += 1,
        }
        edge += v.iter().any(|r| r.page == u32::MAX || r.slot == u32::MAX) as u32;
        Ok(())
    });
    assert!(
        dense > 20 && dense_dup > 20 && fallback > 20 && edge > 10,
        "dense {dense}, dense with duplicates {dense_dup}, fallback {fallback}, edge {edge}"
    );
}
