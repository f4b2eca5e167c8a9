//! The constraint registry: declared order dependencies (the paper's new OD
//! *check constraint*), functional dependencies and keys, per table, together
//! with the interesting-order test used during plan selection.

use od_core::{AttrList, FunctionalDependency, OrderDependency, Schema};
use od_infer::{Decider, OdSet};
use std::collections::HashMap;

/// Declared constraints for one table.
#[derive(Debug, Clone, Default)]
pub struct TableConstraints {
    /// Declared order dependencies (includes FDs embedded per Theorem 13).
    pub ods: OdSet,
    /// Declared functional dependencies (kept separately so the FD-only baseline
    /// rewrites can be run without any OD knowledge).
    pub fds: Vec<FunctionalDependency>,
}

/// A registry of per-table constraints with cached deciders.
#[derive(Debug, Default)]
pub struct OdRegistry {
    tables: HashMap<String, TableConstraints>,
    deciders: HashMap<String, Decider>,
}

impl OdRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        OdRegistry::default()
    }

    /// Declare an OD constraint `X ↦ Y` on a table (by column names).
    pub fn declare_od(&mut self, schema: &Schema, lhs: &[&str], rhs: &[&str]) -> &mut Self {
        let od = OrderDependency::new(names_to_list(schema, lhs), names_to_list(schema, rhs));
        self.add_od(schema.name(), od)
    }

    /// Declare an order equivalence `X ↔ Y` on a table (by column names).
    pub fn declare_equivalence(
        &mut self,
        schema: &Schema,
        lhs: &[&str],
        rhs: &[&str],
    ) -> &mut Self {
        let l = names_to_list(schema, lhs);
        let r = names_to_list(schema, rhs);
        self.add_od(schema.name(), OrderDependency::new(l.clone(), r.clone()));
        self.add_od(schema.name(), OrderDependency::new(r, l))
    }

    /// Declare an FD `X → Y` on a table (by column names).  The FD is also
    /// registered as its OD embedding (Theorem 13) so OD-aware reasoning sees it.
    pub fn declare_fd(&mut self, schema: &Schema, lhs: &[&str], rhs: &[&str]) -> &mut Self {
        let fd = FunctionalDependency::new(
            names_to_list(schema, lhs).to_set(),
            names_to_list(schema, rhs).to_set(),
        );
        let od = fd.to_od();
        self.tables
            .entry(schema.name().to_string())
            .or_default()
            .fds
            .push(fd);
        self.add_od(schema.name(), od)
    }

    /// Add a raw OD to a table's constraint set (and to the table's cached
    /// decider, if one is built: premises only grow here).
    pub fn add_od(&mut self, table: &str, od: OrderDependency) -> &mut Self {
        if let Some(decider) = self.deciders.get_mut(table) {
            decider.add_premise(od.clone());
        }
        self.tables
            .entry(table.to_string())
            .or_default()
            .ods
            .add_od(od);
        self
    }

    /// Retract an OD from a table's constraint set (the streaming-monitor
    /// hook: a discovered OD whose live verdict flips to *reject* must stop
    /// licensing rewrites immediately).  Returns true if anything was removed;
    /// a premise cannot be retracted from a decider, so the table's cached
    /// one is dropped and the next [`Self::order_satisfies`] query rebuilds
    /// it without the OD.
    pub fn remove_od(&mut self, table: &str, od: &OrderDependency) -> bool {
        let Some(entry) = self.tables.get_mut(table) else {
            return false;
        };
        let removed = entry.ods.remove_od(od);
        if removed {
            self.deciders.remove(table);
        }
        removed
    }

    /// The constraints declared for a table (empty defaults if none).
    pub fn constraints(&self, table: &str) -> TableConstraints {
        self.tables.get(table).cloned().unwrap_or_default()
    }

    /// The declared FDs of a table.
    pub fn fds(&self, table: &str) -> Vec<FunctionalDependency> {
        self.tables
            .get(table)
            .map(|t| t.fds.clone())
            .unwrap_or_default()
    }

    /// The declared ODs of a table.
    pub fn ods(&self, table: &str) -> OdSet {
        self.tables
            .get(table)
            .map(|t| t.ods.clone())
            .unwrap_or_default()
    }

    /// Does the declared constraint set of `table` entail `provided ↦ required`,
    /// i.e. does a tuple stream ordered by `provided` satisfy an interesting
    /// order `required`?  This is the test used for sort elimination.
    pub fn order_satisfies(
        &mut self,
        table: &str,
        provided: &AttrList,
        required: &AttrList,
    ) -> bool {
        let decider = self.decider(table);
        decider.implies(&OrderDependency::new(provided.clone(), required.clone()))
    }

    /// Does the declared constraint set of `table` entail the OD?
    pub fn implies(&mut self, table: &str, od: &OrderDependency) -> bool {
        self.decider(table).implies(od)
    }

    fn decider(&mut self, table: &str) -> &Decider {
        if !self.deciders.contains_key(table) {
            let ods = self.ods(table);
            self.deciders.insert(table.to_string(), Decider::new(&ods));
        }
        &self.deciders[table]
    }
}

/// Resolve column names into an attribute list (panics on unknown names — these
/// are programming errors in constraint declarations).
pub fn names_to_list(schema: &Schema, names: &[&str]) -> AttrList {
    names
        .iter()
        .map(|n| {
            schema
                .attr_by_name(n)
                .unwrap_or_else(|_| panic!("unknown column '{n}'"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut s = Schema::new("date_dim");
        for c in ["d_date_sk", "d_date", "d_year", "d_quarter", "d_month"] {
            s.add_attr(c);
        }
        s
    }

    #[test]
    fn declare_and_query_ods() {
        let s = schema();
        let mut r = OdRegistry::new();
        r.declare_od(&s, &["d_month"], &["d_quarter"]);
        r.declare_equivalence(&s, &["d_date_sk"], &["d_date"]);
        assert_eq!(r.ods("date_dim").len(), 3);

        // Sort elimination test: a stream ordered by (year, month) satisfies
        // ORDER BY year, quarter, month.
        let provided = names_to_list(&s, &["d_year", "d_month"]);
        let required = names_to_list(&s, &["d_year", "d_quarter", "d_month"]);
        assert!(r.order_satisfies("date_dim", &provided, &required));
        // ...but not the other way round for a weaker provided order.
        let weak = names_to_list(&s, &["d_year"]);
        assert!(!r.order_satisfies("date_dim", &weak, &required));
        // Unknown tables have no constraints: only trivial orders are satisfied.
        assert!(!r.order_satisfies("other", &provided, &required));
        assert!(r.order_satisfies("other", &required, &provided.prefix(1)));
    }

    #[test]
    fn remove_od_withdraws_the_rewrite_license() {
        let s = schema();
        let mut r = OdRegistry::new();
        r.declare_od(&s, &["d_month"], &["d_quarter"]);
        let provided = names_to_list(&s, &["d_year", "d_month"]);
        let required = names_to_list(&s, &["d_year", "d_quarter", "d_month"]);
        assert!(r.order_satisfies("date_dim", &provided, &required));

        let od = OrderDependency::new(
            names_to_list(&s, &["d_month"]),
            names_to_list(&s, &["d_quarter"]),
        );
        assert!(r.remove_od("date_dim", &od));
        assert!(
            !r.order_satisfies("date_dim", &provided, &required),
            "the cached decider must be invalidated on retraction"
        );
        // Retracting again (or from an unknown table) is a no-op.
        assert!(!r.remove_od("date_dim", &od));
        assert!(!r.remove_od("nope", &od));
    }

    #[test]
    fn an_od_added_after_a_query_is_seen_by_the_next_query() {
        let s = schema();
        let mut r = OdRegistry::new();
        let provided = names_to_list(&s, &["d_year", "d_month"]);
        let required = names_to_list(&s, &["d_year", "d_quarter", "d_month"]);
        // The first query builds the table's decider over no premises.
        assert!(!r.order_satisfies("date_dim", &provided, &required));
        let od = OrderDependency::new(
            names_to_list(&s, &["d_month"]),
            names_to_list(&s, &["d_quarter"]),
        );
        r.add_od("date_dim", od.clone());
        assert!(r.order_satisfies("date_dim", &provided, &required));
        assert!(r.remove_od("date_dim", &od));
        assert!(!r.order_satisfies("date_dim", &provided, &required));
    }

    #[test]
    fn declare_fd_registers_both_views() {
        let s = schema();
        let mut r = OdRegistry::new();
        r.declare_fd(&s, &["d_month"], &["d_quarter"]);
        assert_eq!(r.fds("date_dim").len(), 1);
        assert_eq!(r.ods("date_dim").len(), 1);
        // The FD's OD embedding does NOT allow the order rewrite (Example 1!).
        let provided = names_to_list(&s, &["d_year", "d_month"]);
        let required = names_to_list(&s, &["d_year", "d_quarter", "d_month"]);
        assert!(!r.order_satisfies("date_dim", &provided, &required));
        // But it does allow the group-by style equivalence on the FD fragment.
        let fd_shape = OrderDependency::new(
            names_to_list(&s, &["d_month"]),
            names_to_list(&s, &["d_month", "d_quarter"]),
        );
        assert!(r.implies("date_dim", &fd_shape));
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn unknown_columns_panic() {
        let s = schema();
        names_to_list(&s, &["nope"]);
    }
}
