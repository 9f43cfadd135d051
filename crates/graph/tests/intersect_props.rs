//! Property-based tests of the intersection oracle.
//!
//! `sorted_intersection_size` is the reference the per-edge support index
//! (and every closeness-term test) is checked against; these properties pin
//! it to the naive definition over arbitrary sorted duplicate-free slices
//! (the shape of CSR adjacency), plus the set-algebra invariants any
//! intersection must satisfy.

use proptest::prelude::*;
use tlp_graph::intersect::sorted_intersection_size;
use tlp_graph::VertexId;

/// A sorted, duplicate-free vertex slice — the invariant CSR adjacency
/// guarantees (asserted by `properties.rs`). Lengths are skewed so the
/// merge runs both short-against-long and long-against-short.
fn arb_sorted_slice(max_len: usize) -> impl Strategy<Value = Vec<VertexId>> {
    prop::collection::vec(0u32..500, 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn naive(a: &[VertexId], b: &[VertexId]) -> usize {
    a.iter().filter(|x| b.contains(x)).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The merge agrees with the naive definition on arbitrary sorted
    /// slices, in both argument orders.
    #[test]
    fn merge_matches_naive(a in arb_sorted_slice(60), b in arb_sorted_slice(600)) {
        let expected = naive(&a, &b);
        prop_assert_eq!(sorted_intersection_size(&a, &b), expected);
        prop_assert_eq!(sorted_intersection_size(&b, &a), expected);
    }

    /// Empty operand: the intersection with nothing is empty.
    #[test]
    fn empty_side_yields_zero(a in arb_sorted_slice(200)) {
        let empty: Vec<VertexId> = Vec::new();
        prop_assert_eq!(sorted_intersection_size(&a, &empty), 0);
        prop_assert_eq!(sorted_intersection_size(&empty, &a), 0);
    }

    /// Identical operands: the intersection is the whole (duplicate-free)
    /// slice.
    #[test]
    fn self_intersection_is_identity(a in arb_sorted_slice(200)) {
        prop_assert_eq!(sorted_intersection_size(&a, &a), a.len());
    }

    /// Disjoint operands (built by offsetting `b` past `a`'s range) yield
    /// zero.
    #[test]
    fn disjoint_slices_yield_zero(a in arb_sorted_slice(100), b in arb_sorted_slice(100)) {
        let offset = a.last().map_or(0, |&x| x + 1);
        let shifted: Vec<VertexId> = b.iter().map(|&x| x + offset).collect();
        prop_assert_eq!(sorted_intersection_size(&a, &shifted), 0);
        prop_assert_eq!(sorted_intersection_size(&shifted, &a), 0);
    }

    /// Bounds: the count never exceeds either operand's length, and is
    /// symmetric in its arguments.
    #[test]
    fn count_is_bounded_and_symmetric(a in arb_sorted_slice(150), b in arb_sorted_slice(150)) {
        let c = sorted_intersection_size(&a, &b);
        prop_assert!(c <= a.len() && c <= b.len());
        prop_assert_eq!(sorted_intersection_size(&b, &a), c);
    }
}
