//! Set-level closures derived from a set of ODs: the functional-dependency
//! closure (Lemma 1 gives one FD per OD), constant attributes (Definition 18),
//! and order-compatibility queries between single attributes — the ingredients
//! of the completeness construction of Section 4.

use crate::decide::Decider;
use crate::odset::OdSet;
use od_core::{AttrId, AttrSet, FunctionalDependency, OrderCompatibility};

/// The functional dependencies implied attribute-set-wise by the ODs of `ℳ`
/// (Lemma 1: `X ↦ Y` yields `set(X) → set(Y)`).
pub fn implied_fds(m: &OdSet) -> Vec<FunctionalDependency> {
    m.ods().iter().map(|od| od.implied_fd()).collect()
}

/// Closure of an attribute set under a collection of FDs (the classical
/// `X⁺` computation used by Ullman's completeness construction and by
/// `split(ℳ)`).
pub fn attr_closure(fds: &[FunctionalDependency], attrs: &AttrSet) -> AttrSet {
    let mut closure = *attrs;
    let mut changed = true;
    while changed {
        changed = false;
        for fd in fds {
            if fd.lhs.is_subset(&closure) && !fd.rhs.is_subset(&closure) {
                closure = closure.union(fd.rhs);
                changed = true;
            }
        }
    }
    closure
}

/// Closure of an attribute set under the FDs implied by `ℳ`.
pub fn fd_closure(m: &OdSet, attrs: &AttrSet) -> AttrSet {
    attr_closure(&implied_fds(m), attrs)
}

/// The constant attributes of `ℳ` (Definition 18): attributes `A` with
/// `[] ↦ [A]` in `ℳ⁺`.
pub fn constants(m: &OdSet) -> AttrSet {
    let d = Decider::new(m);
    m.attributes()
        .into_iter()
        .filter(|a| d.is_constant(*a))
        .collect()
}

/// Is the single-attribute compatibility `[A] ~ [B]` in `ℳ⁺`?
pub fn attrs_compatible(d: &Decider, a: AttrId, b: AttrId) -> bool {
    d.implies_compatibility(&OrderCompatibility::new(vec![a], vec![b]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd_bridge::fd_implied;
    use od_core::{AttrList, OrderDependency};

    fn od(lhs: &[u32], rhs: &[u32]) -> OrderDependency {
        OrderDependency::new(
            lhs.iter().map(|&i| AttrId(i)).collect::<AttrList>(),
            rhs.iter().map(|&i| AttrId(i)).collect::<AttrList>(),
        )
    }
    fn set(ids: &[u32]) -> AttrSet {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn closure_follows_fd_chains() {
        let m = OdSet::from_ods([od(&[0], &[1]), od(&[1], &[2]), od(&[3], &[4])]);
        assert_eq!(fd_closure(&m, &set(&[0])), set(&[0, 1, 2]));
        assert_eq!(fd_closure(&m, &set(&[3])), set(&[3, 4]));
        assert_eq!(fd_closure(&m, &set(&[2])), set(&[2]));
        assert!(fd_implied(
            &m,
            &FunctionalDependency::new(set(&[0]), set(&[2]))
        ));
        assert!(!fd_implied(
            &m,
            &FunctionalDependency::new(set(&[2]), set(&[0]))
        ));
    }

    #[test]
    fn constants_require_empty_lhs_derivation() {
        let mut m = OdSet::new();
        m.add_constant(AttrId(1));
        m.add_od(od(&[1], &[2])); // a constant orders 2, so 2 is constant as well
        let k = constants(&m);
        assert!(k.contains(AttrId(1)));
        assert!(k.contains(AttrId(2)));
        assert!(!k.contains(AttrId(0)));
    }

    #[test]
    fn single_attribute_compatibility() {
        let m = OdSet::from_ods([od(&[0], &[1])]);
        let d = Decider::new(&m);
        assert!(attrs_compatible(&d, AttrId(0), AttrId(1)));
        assert!(attrs_compatible(&d, AttrId(1), AttrId(0)));
        let empty = Decider::new(&OdSet::new());
        assert!(!attrs_compatible(&empty, AttrId(0), AttrId(1)));
        assert!(attrs_compatible(&empty, AttrId(0), AttrId(0)));
    }
}
