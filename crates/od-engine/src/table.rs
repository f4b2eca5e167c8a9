//! Tables, composite B-tree indexes, range partitioning, and the catalog.
//!
//! This is the physical-storage substrate the paper's query-optimization
//! use-cases assume: tables can carry ordered (tree) indexes over attribute
//! lists — the source of "interesting orders" — and a fact table can be range
//! partitioned by a column (the paper's distributed-warehouse scenario, where
//! partition pruning is only possible once a natural-date predicate has been
//! rewritten into a surrogate-key range).

use crate::expr::Expr;
use od_core::{lex_cmp, AttrId, AttrList, Relation, Schema, Tuple, Value};
use std::collections::HashMap;
use std::ops::Bound;

/// An ordered composite index over an attribute list.
///
/// Entries are kept sorted by key (then by row id for stability), so the index
/// supports both full ordered scans (providing the list as a physical order) and
/// range scans.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name.
    pub name: String,
    /// The key attribute list, in index order.
    pub key: AttrList,
    entries: Vec<(Vec<Value>, usize)>,
}

impl Index {
    /// Build an index over a relation.
    pub fn build(name: impl Into<String>, key: AttrList, rel: &Relation) -> Self {
        let mut entries: Vec<(Vec<Value>, usize)> = (0..rel.len())
            .map(|i| (rel.project_tuple(i, &key), i))
            .collect();
        entries.sort();
        Index {
            name: name.into(),
            key,
            entries,
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Row ids in index (key) order.
    pub fn ordered_row_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|(_, i)| *i)
    }

    /// Row ids whose key falls within the bounds on the *first* key column.
    pub fn range_row_ids(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<usize> {
        let in_lo = |v: &Value| match lo {
            Bound::Unbounded => true,
            Bound::Included(b) => v >= b,
            Bound::Excluded(b) => v > b,
        };
        let in_hi = |v: &Value| match hi {
            Bound::Unbounded => true,
            Bound::Included(b) => v <= b,
            Bound::Excluded(b) => v < b,
        };
        self.entries
            .iter()
            .filter(|(k, _)| !k.is_empty() && in_lo(&k[0]) && in_hi(&k[0]))
            .map(|(_, i)| *i)
            .collect()
    }

    /// Minimum and maximum first-column key values among rows matching a predicate
    /// on the indexed relation (used by the date-surrogate rewrite's two probes).
    pub fn min_max_matching(&self, rel: &Relation, pred: &Expr) -> Option<(Value, Value)> {
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for (key, row) in &self.entries {
            if pred.eval_bool(&rel.tuple(*row)) {
                let v = key.first()?.clone();
                if min.as_ref().map(|m| v < *m).unwrap_or(true) {
                    min = Some(v.clone());
                }
                if max.as_ref().map(|m| v > *m).unwrap_or(true) {
                    max = Some(v);
                }
            }
        }
        Some((min?, max?))
    }
}

/// Range partitioning of a table by a single column.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// The partitioning column.
    pub column: AttrId,
    /// Per-partition: (min, max) of the column plus the member row ids.
    pub partitions: Vec<Partition>,
}

/// One range partition.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Minimum value of the partitioning column within this partition.
    pub min: Value,
    /// Maximum value of the partitioning column within this partition.
    pub max: Value,
    /// Row ids belonging to the partition.
    pub rows: Vec<usize>,
}

impl Partitioning {
    /// Partition a relation into `n_partitions` equal-width ranges of the column
    /// (by sorted row order, so ranges are contiguous in the column's value
    /// order).
    pub fn build(rel: &Relation, column: AttrId, n_partitions: usize) -> Self {
        let mut ids: Vec<usize> = (0..rel.len()).collect();
        ids.sort_unstable_by(|&a, &b| rel.value(a, column).cmp(rel.value(b, column)));
        let n_partitions = n_partitions.max(1);
        let chunk = ids.len().div_ceil(n_partitions).max(1);
        let partitions = ids
            .chunks(chunk)
            .map(|rows| Partition {
                min: rel.value(rows[0], column).clone(),
                max: rel.value(rows[rows.len() - 1], column).clone(),
                rows: rows.to_vec(),
            })
            .collect();
        Partitioning { column, partitions }
    }

    /// Partitions overlapping the inclusive range `[lo, hi]`.
    pub fn prune(&self, lo: &Value, hi: &Value) -> Vec<&Partition> {
        self.partitions
            .iter()
            .filter(|p| !(p.max < *lo || p.min > *hi))
            .collect()
    }
}

/// A stored table: a relation plus its indexes and optional partitioning.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (matches the relation's schema name).
    pub name: String,
    /// The stored rows.
    pub relation: Relation,
    /// Secondary / clustered indexes.
    pub indexes: Vec<Index>,
    /// Optional range partitioning.
    pub partitioning: Option<Partitioning>,
}

impl Table {
    /// Create a table from a relation.
    pub fn new(relation: Relation) -> Self {
        Table {
            name: relation.schema().name().to_string(),
            relation,
            indexes: Vec::new(),
            partitioning: None,
        }
    }

    /// Add an index over the given key list.
    pub fn add_index(&mut self, name: impl Into<String>, key: AttrList) -> &mut Self {
        self.indexes.push(Index::build(name, key, &self.relation));
        self
    }

    /// Range partition the table by a column.
    pub fn partition_by(&mut self, column: AttrId, n_partitions: usize) -> &mut Self {
        self.partitioning = Some(Partitioning::build(&self.relation, column, n_partitions));
        self
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        self.relation.schema()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.relation.len()
    }

    /// Find an index whose key *starts with* the required order (so an ordered
    /// index scan satisfies `ORDER BY required` directly).
    pub fn index_providing_order(&self, required: &AttrList) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|ix| required.is_prefix_of(&ix.key))
    }

    /// Find an index whose leading key column is the given attribute (usable for
    /// a range scan on that attribute).
    pub fn index_on_leading(&self, attr: AttrId) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.key.head() == Some(attr))
    }

    /// Verify that the stored rows, read in the order of an index, are sorted by
    /// the index key (sanity check used in tests).
    pub fn index_order_is_sorted(&self, index: &Index) -> bool {
        let rows: Vec<Tuple> = index
            .ordered_row_ids()
            .map(|i| self.relation.tuple(i))
            .collect();
        rows.windows(2)
            .all(|w| lex_cmp(&w[0], &w[1], &index.key) != std::cmp::Ordering::Greater)
    }
}

/// A named collection of tables.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table (replacing any previous table of the same name).
    pub fn add_table(&mut self, table: Table) -> &mut Self {
        self.tables.insert(table.name.clone(), table);
        self
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn sample_table() -> Table {
        let mut schema = Schema::new("t");
        let a = schema.add_attr("a");
        let _b = schema.add_attr("b");
        let rel = Relation::from_rows(
            schema,
            (0..10)
                .map(|i| vec![Value::Int(9 - i), Value::Int(i * 10)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut t = Table::new(rel);
        t.add_index("ix_a", AttrList::new([a]));
        t
    }

    #[test]
    fn index_orders_rows() {
        let t = sample_table();
        let ix = &t.indexes[0];
        assert_eq!(ix.len(), 10);
        assert!(t.index_order_is_sorted(ix));
        let first = ix.ordered_row_ids().next().unwrap();
        assert_eq!(t.relation.value(first, AttrId(0)), &Value::Int(0));
    }

    #[test]
    fn index_range_scan() {
        let t = sample_table();
        let ix = &t.indexes[0];
        let rows = ix.range_row_ids(
            Bound::Included(&Value::Int(3)),
            Bound::Included(&Value::Int(5)),
        );
        assert_eq!(rows.len(), 3);
        for r in rows {
            let v = t.relation.value(r, AttrId(0)).as_int().unwrap();
            assert!((3..=5).contains(&v));
        }
        let all = ix.range_row_ids(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn min_max_probe() {
        let t = sample_table();
        let ix = &t.indexes[0];
        // Predicate on b: 20 <= b <= 50 corresponds to a in {7,6,5,4} → min 4 max 7.
        let pred = Expr::col(AttrId(1)).between(Expr::lit(20i64), Expr::lit(50i64));
        let (lo, hi) = ix.min_max_matching(&t.relation, &pred).unwrap();
        assert_eq!(lo, Value::Int(4));
        assert_eq!(hi, Value::Int(7));
        // No matching rows → None.
        let none = Expr::col(AttrId(1)).cmp(CmpOp::Gt, Expr::lit(10_000i64));
        assert!(ix.min_max_matching(&t.relation, &none).is_none());
    }

    #[test]
    fn partition_pruning() {
        let mut t = sample_table();
        t.partition_by(AttrId(0), 5);
        let p = t.partitioning.as_ref().unwrap();
        assert_eq!(p.partitions.len(), 5);
        assert_eq!(p.partitions.iter().map(|x| x.rows.len()).sum::<usize>(), 10);
        let pruned = p.prune(&Value::Int(2), &Value::Int(3));
        assert!(
            pruned.len() <= 2,
            "a narrow range should touch at most 2 of 5 partitions"
        );
        let all = p.prune(&Value::Int(-100), &Value::Int(100));
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn catalog_roundtrip_and_order_providing_index() {
        let mut c = Catalog::new();
        c.add_table(sample_table());
        assert!(c.table("t").is_some());
        assert!(c.table("missing").is_none());
        assert_eq!(c.table_names(), vec!["t"]);
        let t = c.table("t").unwrap();
        assert!(t
            .index_providing_order(&AttrList::new([AttrId(0)]))
            .is_some());
        assert!(t
            .index_providing_order(&AttrList::new([AttrId(1)]))
            .is_none());
        assert!(t.index_on_leading(AttrId(0)).is_some());
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.schema().name(), "t");
    }
}
