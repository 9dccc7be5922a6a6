//! Property-based tests for the membership vector's set operations,
//! which the simulator and the membership service compute with.

use proptest::prelude::*;
use tta_types::MembershipVector;

proptest! {
    #[test]
    fn membership_set_laws(a in any::<u64>(), b in any::<u64>()) {
        let va = MembershipVector::from_bits(a);
        let vb = MembershipVector::from_bits(b);
        prop_assert_eq!(va.intersection(vb), vb.intersection(va));
        prop_assert!(va.difference(vb).intersection(vb).is_empty());
        prop_assert_eq!(va.difference(vb).len() + va.intersection(vb).len(), va.len());
    }
}
