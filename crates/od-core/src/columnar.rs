//! Dictionary-coded struct-of-arrays storage behind [`crate::Relation`].
//!
//! A [`ColumnarEncoding`] holds, per attribute, a sorted dictionary of the
//! column's distinct [`Value`]s plus a `Vec<u32>` of **order-preserving dense
//! codes**: `codes[i]` is the rank of row `i`'s value among the column's
//! distinct values, so
//!
//! * `codes[i] < codes[j] ⟺ value[i] < value[j]` (and equality likewise),
//! * `dict[codes[i]] == value[i]` — the dictionary decodes a cell without
//!   touching the row store.
//!
//! NULL sorts before every non-null value ([`Value`]'s `NULLS FIRST` order),
//! so when a column contains NULLs they receive the dedicated code `0` and
//! `dict[0] == Value::Null`.
//!
//! The encoder never compares `Value`s on its hot path when it can avoid it:
//! a column whose non-null values are all integers, all dates, or all
//! booleans is mapped to order-preserving `u64` keys and sorted with the LSB
//! [radix sort](crate::radix) (stable, so the resulting code assignment is
//! bit-identical to the comparison sort it replaces); heterogeneous, string,
//! and float columns fall back to a comparison sort on the `Value` order.
//! Either way the resulting codes are exactly what
//! [`Relation::rank_column`](crate::Relation::rank_column) historically
//! computed per call — discovery layers now share one eager encoding instead
//! of re-sorting per attribute.

use crate::attr::Schema;
use crate::radix;
use crate::relation::Tuple;
use crate::value::Value;

/// One attribute's dictionary and code column.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedColumn {
    /// Distinct values in ascending [`Value`] order; `dict[code]` decodes.
    dict: Vec<Value>,
    /// Per-row dense rank codes, aligned with the relation's tuple order.
    codes: Vec<u32>,
}

impl EncodedColumn {
    /// Reassemble a column from its parts (the wire snapshot decoder; the
    /// caller has already validated that `dict` is strictly sorted and every
    /// code indexes it).
    pub(crate) fn from_parts(dict: Vec<Value>, codes: Vec<u32>) -> Self {
        EncodedColumn { dict, codes }
    }

    /// The sorted dictionary of distinct values.
    pub fn dict(&self) -> &[Value] {
        &self.dict
    }

    /// The per-row code column.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of distinct values (the dictionary size).
    pub fn distinct_count(&self) -> usize {
        self.dict.len()
    }

    /// Approximate heap footprint: dictionary values plus the code column.
    pub fn approx_heap_bytes(&self) -> usize {
        self.dict.iter().map(Value::approx_bytes).sum::<usize>()
            + self.codes.len() * std::mem::size_of::<u32>()
    }
}

/// The struct-of-arrays encoding of a whole relation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarEncoding {
    columns: Vec<EncodedColumn>,
    n_rows: usize,
}

impl ColumnarEncoding {
    /// Encode every column of `tuples` (positionally aligned with `schema`).
    ///
    /// Emits `relation.encode` span metrics: per-column dictionary sizes into
    /// the `relation.encode.dict_entries` histogram, row/column totals, and
    /// the number of radix passes spent building code columns — all
    /// deterministic functions of the data.
    pub fn build(schema: &Schema, tuples: &[Tuple]) -> Self {
        let _span = od_obs::span("relation.encode");
        let arity = schema.arity();
        let mut columns = Vec::with_capacity(arity);
        let mut pairs: Vec<(u64, u32)> = Vec::new();
        let mut scratch: Vec<(u64, u32)> = Vec::new();
        let mut radix_passes = 0u64;
        for col in 0..arity {
            let encoded = encode_column(tuples, col, &mut pairs, &mut scratch, &mut radix_passes);
            od_obs::record("relation.encode.dict_entries", encoded.dict.len() as u64);
            columns.push(encoded);
        }
        od_obs::add("relation.encode.columns", arity as u64);
        od_obs::add("relation.encode.rows", tuples.len() as u64);
        od_obs::add("relation.encode.radix_passes", radix_passes);
        ColumnarEncoding {
            columns,
            n_rows: tuples.len(),
        }
    }

    /// Reassemble an encoding from decoded columns (the wire snapshot
    /// decoder's constructor; invariants validated by the caller).
    pub(crate) fn from_parts(columns: Vec<EncodedColumn>, n_rows: usize) -> Self {
        ColumnarEncoding { columns, n_rows }
    }

    /// Number of encoded rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of encoded columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// One attribute's encoding, by column index.
    pub fn column(&self, col: usize) -> &EncodedColumn {
        &self.columns[col]
    }

    /// One attribute's code column, by column index.
    pub fn codes(&self, col: usize) -> &[u32] {
        &self.columns[col].codes
    }

    /// One attribute's sorted dictionary, by column index.
    pub fn dict(&self, col: usize) -> &[Value] {
        &self.columns[col].dict
    }

    /// Approximate heap footprint of dictionaries plus code columns.
    pub fn approx_heap_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(EncodedColumn::approx_heap_bytes)
            .sum()
    }
}

/// The radix key classes a homogeneous column can map onto.
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyClass {
    Int,
    Date,
    Bool,
}

/// Order-preserving `u64` key for a non-null value of the given class
/// (`i64`/`i32` order maps onto `u64` order by flipping the sign bit).
#[inline]
fn radix_key(value: &Value, class: KeyClass) -> u64 {
    match (class, value) {
        (KeyClass::Int, Value::Int(v)) => (*v as u64) ^ (1u64 << 63),
        (KeyClass::Date, Value::Date(d)) => (*d as i64 as u64) ^ (1u64 << 63),
        (KeyClass::Bool, Value::Bool(b)) => *b as u64,
        _ => unreachable!("key class established by a full column scan"),
    }
}

/// The key class of a single non-null value, if it has one.
fn key_class(value: &Value) -> Option<KeyClass> {
    match value {
        Value::Int(_) => Some(KeyClass::Int),
        Value::Date(_) => Some(KeyClass::Date),
        Value::Bool(_) => Some(KeyClass::Bool),
        _ => None,
    }
}

fn encode_column(
    tuples: &[Tuple],
    col: usize,
    pairs: &mut Vec<(u64, u32)>,
    scratch: &mut Vec<(u64, u32)>,
    radix_passes: &mut u64,
) -> EncodedColumn {
    // A column qualifies for the radix path when every non-null value shares
    // one key class — cross-class `u64` keys cannot reproduce the mixed-type
    // `Value` order, and Float/Str stay on the comparison path.
    let mut class: Option<KeyClass> = None;
    let mut has_null = false;
    let mut radixable = true;
    for t in tuples {
        match &t[col] {
            Value::Null => has_null = true,
            v => match (key_class(v), class) {
                (Some(k), None) => class = Some(k),
                (Some(k), Some(c)) if k == c => {}
                _ => {
                    radixable = false;
                    break;
                }
            },
        }
    }
    match class {
        Some(class) if radixable => {
            encode_radix(tuples, col, class, has_null, pairs, scratch, radix_passes)
        }
        None if radixable => {
            // All-NULL (or empty) column: one dictionary entry at most.
            let dict = if has_null {
                vec![Value::Null]
            } else {
                Vec::new()
            };
            EncodedColumn {
                dict,
                codes: vec![0u32; tuples.len()],
            }
        }
        _ => encode_by_comparison(tuples, col),
    }
}

/// Radix path: NULL rows keep code 0, non-null rows are sorted as
/// `(u64 key, row)` pairs and runs of equal keys share a code.
fn encode_radix(
    tuples: &[Tuple],
    col: usize,
    class: KeyClass,
    has_null: bool,
    pairs: &mut Vec<(u64, u32)>,
    scratch: &mut Vec<(u64, u32)>,
    radix_passes: &mut u64,
) -> EncodedColumn {
    pairs.clear();
    pairs.extend(tuples.iter().enumerate().filter_map(|(row, t)| {
        let v = &t[col];
        (!v.is_null()).then(|| (radix_key(v, class), row as u32))
    }));
    *radix_passes += u64::from(radix::sort_pairs(pairs, scratch));
    let mut codes = vec![0u32; tuples.len()];
    let mut dict = Vec::new();
    if has_null {
        dict.push(Value::Null);
    }
    let mut prev_key: Option<u64> = None;
    for &(key, row) in pairs.iter() {
        if prev_key != Some(key) {
            dict.push(tuples[row as usize][col].clone());
            prev_key = Some(key);
        }
        codes[row as usize] = (dict.len() - 1) as u32;
    }
    EncodedColumn { dict, codes }
}

/// Comparison path for heterogeneous, string, and float columns: sort row
/// indices by the `Value` order (NULLs sort first on their own), then assign
/// dense ranks run by run.
fn encode_by_comparison(tuples: &[Tuple], col: usize) -> EncodedColumn {
    let mut order: Vec<u32> = (0..tuples.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| tuples[a as usize][col].cmp(&tuples[b as usize][col]));
    let mut codes = vec![0u32; tuples.len()];
    let mut dict = Vec::new();
    for (w, &row) in order.iter().enumerate() {
        let value = &tuples[row as usize][col];
        if w == 0 || *value != tuples[order[w - 1] as usize][col] {
            dict.push(value.clone());
        }
        codes[row as usize] = (dict.len() - 1) as u32;
    }
    EncodedColumn { dict, codes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Schema;

    fn schema(arity: usize) -> Schema {
        let mut s = Schema::new("t");
        for i in 0..arity {
            s.add_attr(format!("c{i}"));
        }
        s
    }

    /// The invariants every encoding must satisfy, checked cell by cell.
    fn assert_valid_encoding(tuples: &[Tuple], enc: &ColumnarEncoding) {
        for col in 0..enc.arity() {
            let dict = enc.dict(col);
            let codes = enc.codes(col);
            assert_eq!(codes.len(), tuples.len());
            assert!(dict.windows(2).all(|w| w[0] < w[1]), "dict strictly sorted");
            for (row, t) in tuples.iter().enumerate() {
                assert_eq!(&dict[codes[row] as usize], &t[col], "dict decodes");
            }
            for i in 0..tuples.len() {
                for j in 0..tuples.len() {
                    assert_eq!(
                        codes[i].cmp(&codes[j]),
                        tuples[i][col].cmp(&tuples[j][col]),
                        "codes preserve value order"
                    );
                }
            }
        }
    }

    #[test]
    fn int_column_with_nulls_uses_code_zero_for_null() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Int(30)],
            vec![Value::Int(10)],
            vec![Value::Null],
            vec![Value::Int(-5)],
            vec![Value::Int(10)],
        ];
        let enc = ColumnarEncoding::build(&schema(1), &tuples);
        assert_eq!(enc.codes(0), &[3, 2, 0, 1, 2]);
        assert_eq!(enc.dict(0)[0], Value::Null);
        assert_eq!(enc.column(0).distinct_count(), 4);
        assert_valid_encoding(&tuples, &enc);
    }

    #[test]
    fn negative_ints_dates_and_bools_take_the_radix_path() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Int(i64::MIN), Value::Date(-3), Value::Bool(true)],
            vec![Value::Int(i64::MAX), Value::Date(7), Value::Bool(false)],
            vec![Value::Int(0), Value::Null, Value::Bool(true)],
        ];
        let enc = ColumnarEncoding::build(&schema(3), &tuples);
        assert_eq!(enc.codes(0), &[0, 2, 1]);
        assert_eq!(enc.codes(1), &[1, 2, 0]);
        assert_eq!(enc.codes(2), &[1, 0, 1]);
        assert_valid_encoding(&tuples, &enc);
    }

    #[test]
    fn strings_floats_and_mixed_columns_fall_back_to_comparison() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Str("mar".into()), Value::Float(2.5), Value::Int(1)],
            vec![Value::Str("feb".into()), Value::Float(-0.5), Value::Date(0)],
            vec![Value::Null, Value::Float(f64::NAN), Value::Str("x".into())],
            vec![Value::Str("feb".into()), Value::Null, Value::Null],
        ];
        let enc = ColumnarEncoding::build(&schema(3), &tuples);
        assert_valid_encoding(&tuples, &enc);
        // NULL still smallest on the comparison path; NaN sorts last.
        assert_eq!(enc.codes(0), &[2, 1, 0, 1]);
        assert_eq!(enc.codes(1), &[2, 1, 3, 0]);
    }

    #[test]
    fn all_null_and_empty_columns() {
        let tuples: Vec<Tuple> = vec![vec![Value::Null], vec![Value::Null]];
        let enc = ColumnarEncoding::build(&schema(1), &tuples);
        assert_eq!(enc.codes(0), &[0, 0]);
        assert_eq!(enc.dict(0), &[Value::Null]);
        let empty = ColumnarEncoding::build(&schema(1), &[]);
        assert_eq!(empty.n_rows(), 0);
        assert!(empty.dict(0).is_empty());
    }

    #[test]
    fn heap_bytes_cover_dict_and_codes() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Str("abcd".into())],
            vec![Value::Str("abcd".into())],
        ];
        let enc = ColumnarEncoding::build(&schema(1), &tuples);
        // One dict entry (enum + 4 string bytes) + two u32 codes.
        assert_eq!(
            enc.approx_heap_bytes(),
            std::mem::size_of::<Value>() + 4 + 2 * std::mem::size_of::<u32>()
        );
    }

    /// The benchmark's per-layer encode metrics read these names; a renamed
    /// hook would silently zero them.
    #[test]
    fn encode_metrics_are_pinned() {
        let rel = crate::fixtures::example_5_taxes();
        let registry = std::sync::Arc::new(od_obs::Registry::new());
        od_obs::scoped(std::sync::Arc::clone(&registry), || {
            ColumnarEncoding::build(rel.schema(), rel.tuples())
        });
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters[&format!("relation.encode.{name}")];
        assert_eq!(
            [counter("columns"), counter("rows"), counter("radix_passes")],
            [3, 6, 6]
        );
        let dict = &snap.histograms["relation.encode.dict_entries"];
        assert_eq!((dict.count, dict.sum), (3, 16));
        let spans: Vec<&str> = snap.durations.keys().map(String::as_str).collect();
        assert_eq!(spans, ["relation.encode"]);
    }
}
