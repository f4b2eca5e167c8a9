//! Tuples and relation instances.
//!
//! A [`Relation`] is a concrete table instance: a [`Schema`] plus a sequence of
//! [`Tuple`]s.  The paper defines ODs over *sets* of tuples but notes that
//! nothing changes for multisets; we keep a plain `Vec` (a multiset) which also
//! matches the execution engine.
//!
//! Alongside the row store every relation carries a struct-of-arrays
//! [`ColumnarEncoding`] — per-attribute sorted dictionaries plus dense
//! order-preserving `u32` code columns — built once at construction
//! ([`Relation::from_rows`]) and rebuilt lazily after mutation.  The
//! row-oriented API ([`Relation::value`], [`Relation::tuple`], iteration) is
//! unchanged; hot paths ask for [`Relation::encoding`] or
//! [`Relation::rank_column`] and work on integer codes only.

use crate::attr::{AttrId, Schema};
use crate::columnar::ColumnarEncoding;
use crate::error::{CoreError, Result};
use crate::list::AttrList;
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, RwLock};

/// A tuple: one value per schema attribute, positionally aligned with the schema.
pub type Tuple = Vec<Value>;

/// The lazily (re)built columnar encoding slot.
type EncodingSlot = RwLock<Option<Arc<ColumnarEncoding>>>;

/// A relation instance: a schema, a bag of tuples, and their columnar encoding.
#[derive(Debug)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
    /// Interior mutability lets `&self` accessors rebuild the encoding after
    /// a mutation invalidated it; mutation itself always has `&mut self`, so
    /// a cached encoding can never go stale.
    encoding: EncodingSlot,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            // The encoding is immutable once built — share it, don't re-encode.
            encoding: RwLock::new(self.cached_encoding()),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // The encoding is derived state: logical equality is schema + tuples.
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Relation {
    /// Create an empty relation for a schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
            encoding: RwLock::new(None),
        }
    }

    /// Create a relation from rows, validating arity.  The columnar encoding
    /// is built eagerly, so the returned relation is immediately ready for
    /// code-path scans (and metric captures around later discovery runs see
    /// no construction-time `relation.encode` records).
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Tuple>) -> Result<Self> {
        let mut rel = Relation::new(schema);
        for row in rows {
            rel.push(row)?;
        }
        rel.encoding();
        Ok(rel)
    }

    /// Assemble a relation whose columnar encoding is already known (the wire
    /// snapshot decoder) — tuples and encoding arrive together, so nothing is
    /// re-encoded.  The caller guarantees the encoding matches the tuples.
    pub(crate) fn from_encoded(
        schema: Schema,
        tuples: Vec<Tuple>,
        encoding: ColumnarEncoding,
    ) -> Self {
        Relation {
            schema,
            tuples,
            encoding: RwLock::new(Some(Arc::new(encoding))),
        }
    }

    /// Serialize the relation as a **columnar snapshot** — schema, then per
    /// attribute the sorted dictionary plus the dense code column (see
    /// [`crate::wire::put_relation_snapshot`]).  The format the distributed
    /// lattice workers load their relation copy from at startup.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::wire::put_relation_snapshot(&mut buf, self);
        buf
    }

    /// Decode a columnar snapshot produced by [`Self::to_bytes`], rebuilding
    /// the row store through the dictionaries and attaching the transported
    /// encoding as-is.  `from_bytes(to_bytes(r)) == r` holds for every
    /// relation, including empty ones, NULL cells, and NaN floats (values
    /// travel as IEEE-754 bit patterns); trailing bytes are an error.
    pub fn from_bytes(bytes: &[u8]) -> crate::wire::WireResult<Relation> {
        let mut r = crate::wire::Reader::new(bytes);
        let rel = crate::wire::get_relation_snapshot(&mut r)?;
        r.finish()?;
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Approximate in-memory footprint in bytes: the row store (summing
    /// [`Value::approx_bytes`] over every cell) plus, when the columnar
    /// encoding is materialized, its dictionaries and code columns.
    /// Deterministic for logically equal instances on the same access history
    /// (lengths, never capacities), so memory-accounting metrics built on it
    /// diff clean across runs.
    pub fn approx_heap_bytes(&self) -> usize {
        let rows: usize = self
            .tuples
            .iter()
            .map(|t| t.iter().map(Value::approx_bytes).sum::<usize>())
            .sum();
        let encoding = self
            .cached_encoding()
            .map_or(0, |enc| enc.approx_heap_bytes());
        rows + encoding
    }

    /// Append a tuple, validating its arity against the schema.
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.len() != self.schema.arity() {
            return Err(CoreError::ArityMismatch {
                expected: self.schema.arity(),
                actual: tuple.len(),
            });
        }
        self.tuples.push(tuple);
        self.invalidate_encoding();
        Ok(())
    }

    /// The tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Mutable access to the tuples (used by the execution engine's sort
    /// operator).  Invalidates the columnar encoding — it is rebuilt on the
    /// next code access.
    pub fn tuples_mut(&mut self) -> &mut Vec<Tuple> {
        self.invalidate_encoding();
        &mut self.tuples
    }

    /// A single tuple by position.
    pub fn tuple(&self, idx: usize) -> &Tuple {
        &self.tuples[idx]
    }

    /// Value of attribute `attr` in tuple `idx`.
    pub fn value(&self, idx: usize, attr: AttrId) -> &Value {
        &self.tuples[idx][attr.index()]
    }

    /// Project a tuple onto an attribute list (the paper's `t[X]`), cloning values.
    pub fn project_tuple(&self, idx: usize, list: &AttrList) -> Vec<Value> {
        list.iter()
            .map(|a| self.tuples[idx][a.index()].clone())
            .collect()
    }

    /// Iterate over the tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Iterate over one attribute's column in tuple order (the column view used
    /// by the execution engine; discovery works on [`Self::encoding`] instead).
    pub fn column(&self, attr: AttrId) -> impl Iterator<Item = &Value> + '_ {
        self.tuples.iter().map(move |t| &t[attr.index()])
    }

    /// The columnar encoding: per-attribute dictionaries + dense
    /// order-preserving code columns.  Built once ([`Self::from_rows`] does it
    /// eagerly) and shared via `Arc`; mutation through [`Self::push`] /
    /// [`Self::tuples_mut`] invalidates it and the next call rebuilds.
    pub fn encoding(&self) -> Arc<ColumnarEncoding> {
        if let Some(enc) = self.cached_encoding() {
            return enc;
        }
        let mut slot = self.encoding.write().expect("encoding lock poisoned");
        if let Some(enc) = slot.as_ref() {
            return enc.clone();
        }
        let enc = Arc::new(ColumnarEncoding::build(&self.schema, &self.tuples));
        *slot = Some(enc.clone());
        enc
    }

    /// Dense, order-preserving integer codes for one column: the code of a cell
    /// is the rank of its value among the column's distinct values, so
    /// `code[i] < code[j] ⟺ value[i] < value[j]` and equal codes mean equal
    /// values.  NULLs receive the smallest code (they sort first).
    ///
    /// Partition-based discovery works on these codes instead of on [`Value`]s:
    /// equality tests and order comparisons become integer operations, and
    /// equivalence classes can be bucketed by code directly.  The codes are
    /// copied out of [`Self::encoding`]; callers that can hold the `Arc`
    /// should prefer `encoding().codes(attr.index())` and skip the copy.
    pub fn rank_column(&self, attr: AttrId) -> Vec<u32> {
        self.encoding().codes(attr.index()).to_vec()
    }

    /// Render the relation as a small ASCII table (diagnostics and examples).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self
            .schema
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| t.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let header: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{:width$}", n, width = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &header
                .iter()
                .map(|h| "-".repeat(h.len()))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &rendered {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        out
    }

    /// The cached encoding, if one is materialized (never builds).
    fn cached_encoding(&self) -> Option<Arc<ColumnarEncoding>> {
        self.encoding
            .read()
            .expect("encoding lock poisoned")
            .clone()
    }

    /// Drop the cached encoding after a mutation (`&mut self` guarantees no
    /// outstanding reader holds the lock).
    fn invalidate_encoding(&mut self) {
        *self.encoding.get_mut().expect("encoding lock poisoned") = None;
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} rows)", self.schema.name(), self.tuples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_abc() -> (Schema, AttrId, AttrId, AttrId) {
        let mut s = Schema::new("t");
        let a = s.add_attr("a");
        let b = s.add_attr("b");
        let c = s.add_attr("c");
        (s, a, b, c)
    }

    #[test]
    fn push_validates_arity() {
        let (s, ..) = schema_abc();
        let mut r = Relation::new(s);
        assert!(r
            .push(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
            .is_ok());
        let err = r.push(vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            err,
            CoreError::ArityMismatch {
                expected: 3,
                actual: 1
            }
        );
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn from_rows_builds_relation() {
        let (s, a, _, c) = schema_abc();
        let r = Relation::from_rows(
            s,
            vec![
                vec![Value::Int(1), Value::Int(2), Value::Int(3)],
                vec![Value::Int(4), Value::Int(5), Value::Int(6)],
            ],
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(1, a), &Value::Int(4));
        assert_eq!(r.value(0, c), &Value::Int(3));
    }

    #[test]
    fn projection_follows_list_order() {
        let (s, a, b, c) = schema_abc();
        let r = Relation::from_rows(s, vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]])
            .unwrap();
        let list = AttrList::new([c, a, b]);
        assert_eq!(
            r.project_tuple(0, &list),
            vec![Value::Int(3), Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn render_produces_table() {
        let (s, ..) = schema_abc();
        let r = Relation::from_rows(s, vec![vec![Value::Int(10), Value::Int(2), Value::Int(3)]])
            .unwrap();
        let text = r.render();
        assert!(text.contains('a'));
        assert!(text.contains("10"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn column_iterates_one_attribute() {
        let (s, _, b, _) = schema_abc();
        let r = Relation::from_rows(
            s,
            vec![
                vec![Value::Int(1), Value::Int(9), Value::Int(3)],
                vec![Value::Int(4), Value::Int(8), Value::Int(6)],
            ],
        )
        .unwrap();
        let col: Vec<&Value> = r.column(b).collect();
        assert_eq!(col, vec![&Value::Int(9), &Value::Int(8)]);
    }

    #[test]
    fn rank_column_preserves_order_and_equality() {
        let (s, a, ..) = schema_abc();
        let r = Relation::from_rows(
            s,
            vec![
                vec![Value::Int(30), Value::Int(0), Value::Int(0)],
                vec![Value::Int(10), Value::Int(0), Value::Int(0)],
                vec![Value::Int(30), Value::Int(0), Value::Int(0)],
                vec![Value::Null, Value::Int(0), Value::Int(0)],
                vec![Value::Int(20), Value::Int(0), Value::Int(0)],
            ],
        )
        .unwrap();
        let codes = r.rank_column(a);
        // NULL gets the smallest code; duplicates share a code; order is preserved.
        assert_eq!(codes, vec![3, 1, 3, 0, 2]);
        for i in 0..r.len() {
            for j in 0..r.len() {
                assert_eq!(codes[i].cmp(&codes[j]), r.value(i, a).cmp(r.value(j, a)));
            }
        }
        // The codes come straight out of the shared encoding.
        assert_eq!(codes, r.encoding().codes(a.index()));
    }

    #[test]
    fn mutation_invalidates_and_rebuilds_the_encoding() {
        let (s, a, b, _) = schema_abc();
        let mut r = Relation::from_rows(
            s,
            vec![
                vec![Value::Int(5), Value::Int(1), Value::Int(0)],
                vec![Value::Int(3), Value::Int(2), Value::Int(0)],
            ],
        )
        .unwrap();
        assert_eq!(r.rank_column(a), vec![1, 0]);
        r.push(vec![Value::Int(4), Value::Int(0), Value::Int(0)])
            .unwrap();
        assert_eq!(r.rank_column(a), vec![2, 0, 1], "push re-ranks");
        r.tuples_mut().reverse();
        assert_eq!(r.rank_column(b), vec![0, 2, 1], "tuples_mut re-ranks");
    }

    #[test]
    fn clone_and_eq_ignore_encoding_state() {
        let (s, a, ..) = schema_abc();
        let r = Relation::from_rows(s, vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]])
            .unwrap();
        let cloned = r.clone();
        assert_eq!(r, cloned);
        // A clone shares the already-built encoding rather than re-encoding.
        assert!(Arc::ptr_eq(&r.encoding(), &cloned.encoding()));
        assert_eq!(cloned.rank_column(a), vec![0]);
    }

    #[test]
    fn approx_heap_bytes_counts_rows_dicts_and_code_columns() {
        let (s, ..) = schema_abc();
        let mut r = Relation::new(s);
        r.push(vec![Value::Str("abcd".into()), Value::Int(1), Value::Null])
            .unwrap();
        r.push(vec![Value::Str("abcd".into()), Value::Int(2), Value::Null])
            .unwrap();
        // No encoding materialized yet: row cells only.
        let value_size = std::mem::size_of::<Value>();
        let rows_only = 6 * value_size + 2 * 4;
        assert_eq!(r.approx_heap_bytes(), rows_only);
        // Force the encoding: dictionaries ("abcd" ×1, ints ×2, NULL ×1 =
        // 4 entries + 4 string bytes) plus three u32 columns of two rows.
        r.encoding();
        let dict_bytes = 4 * value_size + 4;
        let code_bytes = 3 * 2 * std::mem::size_of::<u32>();
        assert_eq!(r.approx_heap_bytes(), rows_only + dict_bytes + code_bytes);
    }

    #[test]
    fn display_shows_row_count() {
        let (s, ..) = schema_abc();
        let r = Relation::new(s);
        assert_eq!(r.to_string(), "t (0 rows)");
    }
}
