//! Dependency statements: order dependencies, order equivalences, order
//! compatibilities, and functional dependencies.
//!
//! * [`OrderDependency`] — `X ↦ Y` (Definition 4): any tuple ordering satisfying
//!   `ORDER BY X` also satisfies `ORDER BY Y`.
//! * [`OrderEquivalence`] — `X ↔ Y`: both `X ↦ Y` and `Y ↦ X`.
//! * [`OrderCompatibility`] — `X ~ Y` (Definition 5): `XY ↔ YX`.
//! * [`FunctionalDependency`] — `X → Y` over attribute *sets*; by Lemma 1 every
//!   OD implies the corresponding FD, and by Theorem 13 an FD corresponds to the
//!   OD `X' ↦ X'Y'` for arbitrary permutations `X'`, `Y'` of the two sides.

use crate::attr::{AttrId, Schema};
use crate::list::AttrList;
use crate::set::AttrSet;
use std::fmt;

/// An order dependency `X ↦ Y` ("X orders Y").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrderDependency {
    /// Left-hand side list `X`.
    pub lhs: AttrList,
    /// Right-hand side list `Y`.
    pub rhs: AttrList,
}

impl OrderDependency {
    /// Build an OD from anything convertible into attribute lists.
    pub fn new(lhs: impl Into<AttrList>, rhs: impl Into<AttrList>) -> Self {
        OrderDependency {
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// The OD with both sides normalized (duplicate attributes removed, keeping
    /// first occurrences).  Normalization preserves the OD's meaning (axiom OD3).
    pub fn normalize(&self) -> Self {
        OrderDependency {
            lhs: self.lhs.normalize(),
            rhs: self.rhs.normalize(),
        }
    }

    /// The reversed statement `Y ↦ X`.
    pub fn reversed(&self) -> Self {
        OrderDependency {
            lhs: self.rhs.clone(),
            rhs: self.lhs.clone(),
        }
    }

    /// True if the OD is *syntactically trivial*: satisfied by every instance
    /// because the normalized right-hand side is a prefix of the normalized
    /// left-hand side (e.g. `XY ↦ X`, `X ↦ []`, `[A,B,A] ↦ [A,B]`).
    ///
    /// By Theorem 15 the condition is also necessary: an OD is satisfied by
    /// every instance (`∅ ⊨ X ↦ Y`) exactly when it is syntactically trivial.
    /// The `od-infer` prover's tests check this against its decider,
    /// exhaustively over lists of up to two of three attributes.
    pub fn is_syntactically_trivial(&self) -> bool {
        self.rhs.normalize().is_prefix_of(&self.lhs.normalize())
    }

    /// All attributes mentioned on either side.
    pub fn attributes(&self) -> AttrSet {
        let mut s = self.lhs.to_set();
        s.extend(self.rhs.to_set());
        s
    }

    /// The functional dependency `set(X) → set(Y)` implied by this OD (Lemma 1).
    pub fn implied_fd(&self) -> FunctionalDependency {
        FunctionalDependency::new(self.lhs.to_set(), self.rhs.to_set())
    }

    /// The order-compatibility fragment `X ~ Y` of this OD (Theorem 15 splits an
    /// OD into its FD part and its order-compatibility part).
    pub fn compatibility_part(&self) -> OrderCompatibility {
        OrderCompatibility::new(self.lhs.clone(), self.rhs.clone())
    }

    /// Render with attribute names from a schema.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DisplayWithSchema<'a> {
        DisplayWithSchema {
            schema,
            kind: StatementRef::Od(self),
        }
    }
}

impl fmt::Display for OrderDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ↦ {}", self.lhs, self.rhs)
    }
}

/// An order equivalence `X ↔ Y` (both `X ↦ Y` and `Y ↦ X`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrderEquivalence {
    /// Left list.
    pub lhs: AttrList,
    /// Right list.
    pub rhs: AttrList,
}

impl OrderEquivalence {
    /// Build an order equivalence.
    pub fn new(lhs: impl Into<AttrList>, rhs: impl Into<AttrList>) -> Self {
        OrderEquivalence {
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// The two ODs whose conjunction this equivalence denotes.
    pub fn as_ods(&self) -> [OrderDependency; 2] {
        [
            OrderDependency::new(self.lhs.clone(), self.rhs.clone()),
            OrderDependency::new(self.rhs.clone(), self.lhs.clone()),
        ]
    }

    /// Render with attribute names from a schema.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DisplayWithSchema<'a> {
        DisplayWithSchema {
            schema,
            kind: StatementRef::Equiv(self),
        }
    }
}

impl fmt::Display for OrderEquivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ↔ {}", self.lhs, self.rhs)
    }
}

/// An order compatibility `X ~ Y`, defined as `XY ↔ YX` (Definition 5).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrderCompatibility {
    /// Left list.
    pub lhs: AttrList,
    /// Right list.
    pub rhs: AttrList,
}

impl OrderCompatibility {
    /// Build an order compatibility statement.
    pub fn new(lhs: impl Into<AttrList>, rhs: impl Into<AttrList>) -> Self {
        OrderCompatibility {
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// The defining order equivalence `XY ↔ YX`.
    pub fn as_equivalence(&self) -> OrderEquivalence {
        OrderEquivalence::new(self.lhs.concat(&self.rhs), self.rhs.concat(&self.lhs))
    }

    /// The two ODs whose conjunction this compatibility denotes.
    pub fn as_ods(&self) -> [OrderDependency; 2] {
        self.as_equivalence().as_ods()
    }

    /// Render with attribute names from a schema.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DisplayWithSchema<'a> {
        DisplayWithSchema {
            schema,
            kind: StatementRef::Compat(self),
        }
    }
}

impl fmt::Display for OrderCompatibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ~ {}", self.lhs, self.rhs)
    }
}

/// A functional dependency `X → Y` over attribute sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionalDependency {
    /// Determinant set.
    pub lhs: AttrSet,
    /// Dependent set.
    pub rhs: AttrSet,
}

impl FunctionalDependency {
    /// Build an FD from attribute collections.
    pub fn new(
        lhs: impl IntoIterator<Item = AttrId>,
        rhs: impl IntoIterator<Item = AttrId>,
    ) -> Self {
        FunctionalDependency {
            lhs: lhs.into_iter().collect(),
            rhs: rhs.into_iter().collect(),
        }
    }

    /// True if the FD is trivial (`Y ⊆ X`).
    pub fn is_trivial(&self) -> bool {
        self.rhs.is_subset(&self.lhs)
    }

    /// All attributes mentioned.
    pub fn attributes(&self) -> AttrSet {
        self.lhs.union(self.rhs)
    }

    /// The canonical OD representative of this FD per Theorem 13: `X' ↦ X'Y'`,
    /// where `X'`/`Y'` enumerate the sets in ascending attribute-id order.
    /// (Any other permutation is equivalent by the Permutation theorem.)
    pub fn to_od(&self) -> OrderDependency {
        let lhs: AttrList = self.lhs.iter().collect();
        let rhs: AttrList = lhs.concat(&self.rhs.iter().collect());
        OrderDependency { lhs, rhs }
    }

    /// Render with attribute names from a schema.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DisplayWithSchema<'a> {
        DisplayWithSchema {
            schema,
            kind: StatementRef::Fd(self),
        }
    }
}

impl fmt::Display for FunctionalDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let render = |s: &AttrSet| {
            let parts: Vec<String> = s.iter().map(|a| a.to_string()).collect();
            format!("{{{}}}", parts.join(", "))
        };
        write!(f, "{} → {}", render(&self.lhs), render(&self.rhs))
    }
}

enum StatementRef<'a> {
    Od(&'a OrderDependency),
    Equiv(&'a OrderEquivalence),
    Compat(&'a OrderCompatibility),
    Fd(&'a FunctionalDependency),
}

/// Helper returned by the `display` methods: renders a dependency with attribute
/// names resolved against a schema.
pub struct DisplayWithSchema<'a> {
    schema: &'a Schema,
    kind: StatementRef<'a>,
}

impl fmt::Display for DisplayWithSchema<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let list = |l: &AttrList| {
            let names: Vec<&str> = l.iter().map(|a| self.schema.attr_name(a)).collect();
            format!("[{}]", names.join(", "))
        };
        let set = |s: &AttrSet| {
            let names: Vec<&str> = s.iter().map(|a| self.schema.attr_name(a)).collect();
            format!("{{{}}}", names.join(", "))
        };
        match self.kind {
            StatementRef::Od(od) => write!(f, "{} ↦ {}", list(&od.lhs), list(&od.rhs)),
            StatementRef::Equiv(eq) => write!(f, "{} ↔ {}", list(&eq.lhs), list(&eq.rhs)),
            StatementRef::Compat(c) => write!(f, "{} ~ {}", list(&c.lhs), list(&c.rhs)),
            StatementRef::Fd(fd) => write!(f, "{} → {}", set(&fd.lhs), set(&fd.rhs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(ids: &[u32]) -> AttrList {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn od_construction_and_normalization() {
        let od = OrderDependency::new(l(&[0, 1, 0]), l(&[2, 2]));
        let n = od.normalize();
        assert_eq!(n.lhs, l(&[0, 1]));
        assert_eq!(n.rhs, l(&[2]));
        assert_eq!(od.reversed().lhs, od.rhs);
    }

    #[test]
    fn syntactic_triviality() {
        // XY ↦ X is the Reflexivity axiom shape.
        assert!(OrderDependency::new(l(&[0, 1]), l(&[0])).is_syntactically_trivial());
        assert!(OrderDependency::new(l(&[0, 1]), l(&[])).is_syntactically_trivial());
        assert!(OrderDependency::new(l(&[0, 1, 0]), l(&[0, 1])).is_syntactically_trivial());
        assert!(!OrderDependency::new(l(&[0]), l(&[1])).is_syntactically_trivial());
        assert!(!OrderDependency::new(l(&[0, 1]), l(&[1])).is_syntactically_trivial());
    }

    #[test]
    fn od_implies_fd_shape() {
        let od = OrderDependency::new(l(&[1, 0]), l(&[2, 0]));
        let fd = od.implied_fd();
        assert_eq!(fd.lhs, l(&[0, 1]).to_set());
        assert_eq!(fd.rhs, l(&[0, 2]).to_set());
    }

    #[test]
    fn compatibility_unfolds_to_equivalence_of_concatenations() {
        let c = OrderCompatibility::new(l(&[0]), l(&[1, 2]));
        let eq = c.as_equivalence();
        assert_eq!(eq.lhs, l(&[0, 1, 2]));
        assert_eq!(eq.rhs, l(&[1, 2, 0]));
        let ods = c.as_ods();
        assert_eq!(ods[0].lhs, l(&[0, 1, 2]));
        assert_eq!(ods[1].lhs, l(&[1, 2, 0]));
    }

    #[test]
    fn equivalence_unfolds_to_two_ods() {
        let eq = OrderEquivalence::new(l(&[0]), l(&[1]));
        let [a, b] = eq.as_ods();
        assert_eq!(a, OrderDependency::new(l(&[0]), l(&[1])));
        assert_eq!(b, OrderDependency::new(l(&[1]), l(&[0])));
    }

    #[test]
    fn fd_triviality_and_od_embedding() {
        let fd = FunctionalDependency::new([AttrId(0), AttrId(1)], [AttrId(1)]);
        assert!(fd.is_trivial());
        let fd2 = FunctionalDependency::new([AttrId(0)], [AttrId(2)]);
        assert!(!fd2.is_trivial());
        let od = fd2.to_od();
        assert_eq!(od.lhs, l(&[0]));
        assert_eq!(od.rhs, l(&[0, 2]));
    }

    #[test]
    fn display_with_schema_uses_names() {
        let mut s = Schema::new("t");
        let a = s.add_attr("year");
        let b = s.add_attr("month");
        let od = OrderDependency::new(vec![a], vec![b]);
        assert_eq!(od.display(&s).to_string(), "[year] ↦ [month]");
        let eq = OrderEquivalence::new(vec![a], vec![b]);
        assert_eq!(eq.display(&s).to_string(), "[year] ↔ [month]");
        let c = OrderCompatibility::new(vec![a], vec![b]);
        assert_eq!(c.display(&s).to_string(), "[year] ~ [month]");
        let fd = FunctionalDependency::new([a], [b]);
        assert_eq!(fd.display(&s).to_string(), "{year} → {month}");
    }

    #[test]
    fn plain_display_uses_ids() {
        let od = OrderDependency::new(l(&[0]), l(&[1]));
        assert_eq!(od.to_string(), "[#0] ↦ [#1]");
        let fd = FunctionalDependency::new([AttrId(0)], [AttrId(1)]);
        assert_eq!(fd.to_string(), "{#0} → {#1}");
    }

    #[test]
    fn attributes_collects_both_sides() {
        let od = OrderDependency::new(l(&[0, 1]), l(&[2]));
        let attrs = od.attributes();
        assert_eq!(attrs.len(), 3);
        let fd = FunctionalDependency::new([AttrId(4)], [AttrId(5)]);
        assert_eq!(fd.attributes().len(), 2);
    }
}
