//! Property tests for the trace layer: the `Addr` overlap/coverage
//! algebra the checking rules are built on.

use deepmc_analysis::{Addr, FieldSel, ObjId};
use proptest::prelude::*;

fn sel_strategy() -> impl Strategy<Value = FieldSel> {
    prop_oneof![
        Just(FieldSel::Whole),
        (0u32..3).prop_map(FieldSel::Field),
        ((0u32..3), proptest::option::of(-1i64..3))
            .prop_map(|(field, index)| FieldSel::Elem { field, index }),
    ]
}

fn addr_strategy() -> impl Strategy<Value = Addr> {
    ((0u32..3).prop_map(ObjId), sel_strategy()).prop_map(|(obj, sel)| Addr { obj, sel })
}

proptest! {
    /// Definite coverage is a refinement of possible overlap.
    #[test]
    fn covers_implies_overlaps(a in addr_strategy(), b in addr_strategy()) {
        if a.covers(&b) {
            prop_assert!(a.overlaps(&b), "{a:?} covers {b:?} but does not overlap it");
        }
    }

    /// "May refer to the same bytes" cannot depend on argument order.
    #[test]
    fn overlaps_is_symmetric(a in addr_strategy(), b in addr_strategy()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    /// Every address overlaps itself; coverage is reflexive exactly for
    /// addresses without an unknown array index (an unknown element may
    /// be a different element on each evaluation).
    #[test]
    fn reflexivity(a in addr_strategy()) {
        prop_assert!(a.overlaps(&a));
        let unknown_elem = matches!(a.sel, FieldSel::Elem { index: None, .. });
        prop_assert_eq!(a.covers(&a), !unknown_elem);
    }

    /// An unknown-index element access `o.f[?]` may alias any access to
    /// field `f`, is covered by the whole-array address `Field(f)`, but
    /// itself guarantees coverage of nothing — not even another unknown
    /// access to the same field.
    #[test]
    fn unknown_elem_vs_field(obj in (0u32..3).prop_map(ObjId), field in 0u32..3,
                             index in proptest::option::of(-1i64..3)) {
        let unknown = Addr { obj, sel: FieldSel::Elem { field, index: None } };
        let array = Addr { obj, sel: FieldSel::Field(field) };
        let elem = Addr { obj, sel: FieldSel::Elem { field, index } };

        prop_assert!(unknown.overlaps(&array) && array.overlaps(&unknown));
        prop_assert!(unknown.overlaps(&elem) && elem.overlaps(&unknown));
        prop_assert!(array.covers(&unknown) && array.covers(&elem));
        prop_assert!(!unknown.covers(&array));
        prop_assert!(!unknown.covers(&elem));
    }
}
