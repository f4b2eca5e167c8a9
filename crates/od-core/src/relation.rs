//! Tuples and relation instances.
//!
//! A [`Relation`] is a concrete table instance: a [`Schema`] plus a sequence of
//! tuples.  The paper defines ODs over *sets* of tuples but notes that nothing
//! changes for multisets; rows keep their order and their duplicates, which
//! also matches the execution engine.
//!
//! The table is stored once, as a struct-of-arrays [`ColumnarEncoding`] —
//! per-attribute sorted dictionaries plus dense order-preserving `u32` code
//! columns — built by [`Relation::from_rows`] and immutable afterwards.  Hot
//! paths ask for [`Relation::encoding`] or [`Relation::rank_column`] and work
//! on integer codes only; the row readers ([`Relation::value`],
//! [`Relation::tuple`], iteration) decode through the dictionaries.
//!
//! **A cell reads back as its dictionary entry.**  A dictionary keeps one
//! representative per group of values that are equal under [`Value`]'s order,
//! so cells that are equal but are different variants — `Int(2)` and
//! `Float(2.0)`, `0.0` and `-0.0`, NaNs with different payloads — read back as
//! one representative.  Equality, [`Relation::len`], codes and every verdict
//! are unaffected, because [`Value`] equality already is order equality.

use crate::attr::{AttrId, Schema};
use crate::columnar::{ColumnarEncoding, EncodedColumn};
use crate::error::{CoreError, Result};
use crate::list::AttrList;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A tuple: one value per schema attribute, positionally aligned with the schema.
pub type Tuple = Vec<Value>;

/// A relation instance: a schema and the columnar encoding of its rows.
///
/// Derived `==` means "same schema, same rows": a dictionary is the sorted set
/// of a column's distinct values and the codes are ranks into it, so equal
/// rows give equal encodings and equal encodings give equal rows.  `clone()`
/// shares the encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    encoding: Arc<ColumnarEncoding>,
}

impl Relation {
    /// Create an empty relation for a schema.
    pub fn new(schema: Schema) -> Self {
        let columns = vec![EncodedColumn::from_parts(Vec::new(), Vec::new()); schema.arity()];
        Relation::from_encoding(schema, ColumnarEncoding::from_parts(columns, 0))
    }

    /// Create a relation from rows, validating arity.  The rows are encoded
    /// once and dropped; the relation keeps only their columnar encoding.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Tuple>) -> Result<Self> {
        let arity = schema.arity();
        let rows = rows
            .into_iter()
            .map(|t| {
                if t.len() == arity {
                    Ok(t)
                } else {
                    Err(CoreError::ArityMismatch {
                        expected: arity,
                        actual: t.len(),
                    })
                }
            })
            .collect::<Result<Vec<Tuple>>>()?;
        let encoding = ColumnarEncoding::build(&schema, &rows);
        Ok(Relation::from_encoding(schema, encoding))
    }

    /// Wrap an encoding that already matches `schema` (the wire snapshot
    /// decoder, which has validated it).
    pub(crate) fn from_encoding(schema: Schema, encoding: ColumnarEncoding) -> Self {
        Relation {
            schema,
            encoding: Arc::new(encoding),
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

    /// Decode a columnar snapshot produced by [`Self::to_bytes`], attaching
    /// the transported encoding as-is.  `from_bytes(to_bytes(r)) == r` holds
    /// for every relation, including empty ones, NULL cells, and NaN floats
    /// (values travel as IEEE-754 bit patterns); trailing bytes are an error.
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

    /// Number of tuples (kept by the encoding, so a zero-arity relation
    /// still counts its rows).
    pub fn len(&self) -> usize {
        self.encoding.n_rows()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate in-memory footprint in bytes: the encoding's dictionaries
    /// and code columns.  Deterministic for logically equal instances
    /// (lengths, never capacities), so memory-accounting metrics built on it
    /// diff clean across runs.
    pub fn approx_heap_bytes(&self) -> usize {
        self.encoding.approx_heap_bytes()
    }

    /// The tuples in row order, decoded.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.iter().collect()
    }

    /// A single tuple by position, decoded.
    pub fn tuple(&self, idx: usize) -> Tuple {
        self.schema
            .attr_ids()
            .map(|a| self.value(idx, a).clone())
            .collect()
    }

    /// Value of attribute `attr` in tuple `idx`.
    pub fn value(&self, idx: usize, attr: AttrId) -> &Value {
        let col = self.encoding.column(attr.index());
        &col.dict()[col.codes()[idx] as usize]
    }

    /// Project a tuple onto an attribute list (the paper's `t[X]`), cloning values.
    pub fn project_tuple(&self, idx: usize, list: &AttrList) -> Vec<Value> {
        list.iter().map(|a| self.value(idx, a).clone()).collect()
    }

    /// Iterate over the tuples in row order, decoding each.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len()).map(move |idx| self.tuple(idx))
    }

    /// Iterate over one attribute's column in tuple order (the column view used
    /// by the execution engine; discovery works on [`Self::encoding`] instead).
    pub fn column(&self, attr: AttrId) -> impl Iterator<Item = &Value> + '_ {
        let col = self.encoding.column(attr.index());
        col.codes().iter().map(|&code| &col.dict()[code as usize])
    }

    /// The columnar encoding: per-attribute dictionaries + dense
    /// order-preserving code columns, shared via `Arc`.
    pub fn encoding(&self) -> Arc<ColumnarEncoding> {
        self.encoding.clone()
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
        self.encoding.codes(attr.index()).to_vec()
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
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} rows)", self.schema.name(), self.len())
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
    fn from_rows_validates_arity() {
        let (s, ..) = schema_abc();
        let err = Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::Int(1), Value::Int(2), Value::Int(3)],
                vec![Value::Int(1)],
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::ArityMismatch {
                expected: 3,
                actual: 1
            }
        );
        let r = Relation::from_rows(s, vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]])
            .unwrap();
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
    fn equal_cells_read_back_as_one_representative() {
        let mut s = Schema::new("t");
        let x = s.add_attr("x");
        let cells = [
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(0.0),
            Value::Float(-0.0),
        ];
        let r = Relation::from_rows(s.clone(), cells.iter().map(|v| vec![v.clone()])).unwrap();
        // Same rows, other variants: still the same relation.
        let swapped = [
            Value::Float(2.0),
            Value::Int(2),
            Value::Float(-0.0),
            Value::Float(0.0),
        ];
        let other = Relation::from_rows(s, swapped.iter().map(|v| vec![v.clone()])).unwrap();
        assert_eq!(r, other);
        assert_eq!(r.rank_column(x), vec![1, 1, 0, 0]);
        for (row, cell) in cells.iter().enumerate() {
            assert_eq!(r.value(row, x), cell, "reads back equal");
        }
        // Each equal pair reads back as one variant, bit for bit.
        let bits = |v: &Value| match v {
            Value::Int(i) => (0, *i as u64),
            Value::Float(f) => (1, f.to_bits()),
            _ => unreachable!(),
        };
        assert_eq!(bits(r.value(0, x)), bits(r.value(1, x)));
        assert_eq!(bits(r.value(2, x)), bits(r.value(3, x)));
    }

    #[test]
    fn clone_and_eq_ignore_encoding_state() {
        let (s, a, ..) = schema_abc();
        let r = Relation::from_rows(s, vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]])
            .unwrap();
        let cloned = r.clone();
        assert_eq!(r, cloned);
        assert!(Arc::ptr_eq(&r.encoding(), &cloned.encoding()));
        assert_eq!(cloned.rank_column(a), vec![0]);
    }

    #[test]
    fn approx_heap_bytes_counts_rows_dicts_and_code_columns() {
        let (s, ..) = schema_abc();
        let r = Relation::from_rows(
            s,
            vec![
                vec![Value::Str("abcd".into()), Value::Int(1), Value::Null],
                vec![Value::Str("abcd".into()), Value::Int(2), Value::Null],
            ],
        )
        .unwrap();
        // Dictionaries ("abcd" ×1, ints ×2, NULL ×1 = 4 entries + 4 string
        // bytes) plus three u32 columns of two rows.
        let dict_bytes = 4 * std::mem::size_of::<Value>() + 4;
        let code_bytes = 3 * 2 * std::mem::size_of::<u32>();
        assert_eq!(r.approx_heap_bytes(), dict_bytes + code_bytes);
    }

    #[test]
    fn display_shows_row_count() {
        let (s, ..) = schema_abc();
        let r = Relation::new(s);
        assert_eq!(r.to_string(), "t (0 rows)");
        let zero_arity = Relation::from_rows(Schema::new("z"), vec![vec![], vec![]]).unwrap();
        assert_eq!(zero_arity.to_string(), "z (2 rows)");
    }
}
