//! Dictionary-coded struct-of-arrays storage behind [`crate::Relation`].
//!
//! A [`ColumnarEncoding`] holds, per attribute, a sorted dictionary of the
//! column's distinct [`Value`]s plus a `Vec<u32>` of **order-preserving dense
//! codes**: `codes[i]` is the rank of row `i`'s value among the column's
//! distinct values, so
//!
//! * `codes[i] < codes[j] ⟺ value[i] < value[j]` (and equality likewise),
//! * `dict[codes[i]] == value[i]` — the dictionary decodes a cell; it is the
//!   only copy of the values a relation keeps.
//!
//! NULL sorts before every non-null value ([`Value`]'s `NULLS FIRST` order),
//! so when a column contains NULLs they receive the dedicated code `0` and
//! `dict[0] == Value::Null`.
//!
//! The encoder reads the rows once, and frees each row in that pass as soon
//! as it has read it.  The row-major pass classifies every column and
//! collects the order-preserving `u64` key of each cell of a column whose
//! non-null values are all integers, all dates, or all booleans.  Such a
//! column is sorted as `(key, row)` pairs with the stable LSB
//! [radix sort](crate::radix), which leaves key-ordered input (a presorted
//! column) as it is at no pass, and its dictionary entries are decoded from
//! the sorted keys.  Heterogeneous, string, and float columns move their
//! cells into a per-column vector, which one comparison sort on the `Value`
//! order encodes; a key column that meets such a cell late rebuilds its
//! earlier cells from their keys and continues as one of them.  Either way
//! the codes and dictionaries are the same, and every discovery layer shares
//! the one encoding a [`Relation`](crate::Relation) is built with instead of
//! re-sorting per attribute.

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
    /// Encode every column of `tuples` (each of exactly `schema`'s arity),
    /// dropping each row as soon as it has been read.
    ///
    /// Emits `relation.encode` span metrics: per-column dictionary sizes into
    /// the `relation.encode.dict_entries` histogram, row/column totals, and
    /// the number of radix passes spent building code columns — all
    /// deterministic functions of the data.
    pub(crate) fn build(schema: &Schema, tuples: Vec<Tuple>) -> Self {
        let _span = od_obs::span("relation.encode");
        let arity = schema.arity();
        let n_rows = tuples.len();
        let mut pairs: Vec<(u64, u32)> = Vec::new();
        let mut scratch: Vec<(u64, u32)> = Vec::new();
        let mut radix_passes = 0u64;
        let mut columns = Vec::with_capacity(arity);
        for scan in scan_columns(tuples, arity) {
            let encoded = match scan {
                ColumnScan::Keys {
                    class: Some(class),
                    keys,
                    nulls,
                } => encode_radix(
                    class,
                    keys,
                    &nulls,
                    n_rows,
                    &mut pairs,
                    &mut scratch,
                    &mut radix_passes,
                ),
                // All-NULL (or empty) column: one dictionary entry at most.
                ColumnScan::Keys { nulls, .. } => EncodedColumn {
                    dict: if nulls.is_empty() {
                        Vec::new()
                    } else {
                        vec![Value::Null]
                    },
                    codes: vec![0u32; n_rows],
                },
                ColumnScan::Comparison(cells) => encode_by_comparison(cells),
            };
            od_obs::record("relation.encode.dict_entries", encoded.dict.len() as u64);
            columns.push(encoded);
        }
        od_obs::add("relation.encode.columns", arity as u64);
        od_obs::add("relation.encode.rows", n_rows as u64);
        od_obs::add("relation.encode.radix_passes", radix_passes);
        ColumnarEncoding { columns, n_rows }
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

/// Flipping it maps `i64` order (and `i32` order, sign-extended) onto `u64`
/// order.
const SIGN: u64 = 1 << 63;

/// The key class and order-preserving `u64` key of a value that has one.
#[inline]
fn radix_key(value: &Value) -> Option<(KeyClass, u64)> {
    match *value {
        Value::Int(v) => Some((KeyClass::Int, v as u64 ^ SIGN)),
        Value::Date(d) => Some((KeyClass::Date, i64::from(d) as u64 ^ SIGN)),
        Value::Bool(b) => Some((KeyClass::Bool, u64::from(b))),
        _ => None,
    }
}

/// The inverse of [`radix_key`]: the value of `class` whose key is `key`.
#[inline]
fn key_value(class: KeyClass, key: u64) -> Value {
    match class {
        KeyClass::Int => Value::Int((key ^ SIGN) as i64),
        KeyClass::Date => Value::Date((key ^ SIGN) as i64 as i32),
        KeyClass::Bool => Value::Bool(key != 0),
    }
}

/// What the row pass learns about one column.
enum ColumnScan {
    /// Every non-null cell so far has a radix key of one class (`None` until
    /// the first such cell).  `keys` holds one key per non-null cell and
    /// `nulls` the NULL rows, both in row order.
    Keys {
        class: Option<KeyClass>,
        keys: Vec<u64>,
        nulls: Vec<u32>,
    },
    /// A float or string cell, or a second key class: cross-class `u64` keys
    /// cannot reproduce the mixed-type `Value` order, so the column keeps
    /// its cells, in row order, for the comparison path.
    Comparison(Vec<Value>),
}

impl ColumnScan {
    /// Take row `row`'s cell of a column of `n_rows` rows.
    #[inline]
    fn push(&mut self, row: usize, value: Value, n_rows: usize) {
        match self {
            ColumnScan::Comparison(cells) => cells.push(value),
            ColumnScan::Keys { class, keys, nulls } => match (&value, radix_key(&value)) {
                (Value::Null, _) => nulls.push(row as u32),
                // The first key class seen is the column's.
                (_, Some((k, key))) if *class.get_or_insert(k) == k => keys.push(key),
                _ => {
                    let mut cells = key_cells(*class, keys, nulls, row, n_rows);
                    cells.push(value);
                    *self = ColumnScan::Comparison(cells);
                }
            },
        }
    }
}

/// The rows below `n_rows` that are not in `nulls` (ascending), in order.
fn non_null_rows(nulls: &[u32], n_rows: usize) -> impl Iterator<Item = u32> + '_ {
    let mut null_rows = nulls.iter().copied().peekable();
    (0..n_rows as u32).filter(move |&row| null_rows.next_if_eq(&row).is_none())
}

/// The first `rows` cells of a key column, rebuilt from its keys and NULL
/// rows, with room reserved for all `capacity` cells of the column.
fn key_cells(
    class: Option<KeyClass>,
    keys: &[u64],
    nulls: &[u32],
    rows: usize,
    capacity: usize,
) -> Vec<Value> {
    let mut cells = Vec::with_capacity(capacity);
    cells.resize(rows, Value::Null);
    // Without a class the column has no key yet: every cell so far is NULL.
    if let Some(class) = class {
        for (row, &key) in non_null_rows(nulls, rows).zip(keys) {
            cells[row as usize] = key_value(class, key);
        }
    }
    cells
}

/// Classify every column and collect its radix keys or cells in one
/// row-major pass, which frees each row once it has been read.
fn scan_columns(tuples: Vec<Tuple>, arity: usize) -> Vec<ColumnScan> {
    let n_rows = tuples.len();
    let mut scans: Vec<ColumnScan> = (0..arity)
        .map(|_| ColumnScan::Keys {
            class: None,
            keys: Vec::with_capacity(n_rows),
            nulls: Vec::new(),
        })
        .collect();
    for (row, t) in tuples.into_iter().enumerate() {
        for (scan, value) in scans.iter_mut().zip(t) {
            scan.push(row, value, n_rows);
        }
    }
    scans
}

/// Radix path: NULL rows keep code 0, non-null rows are sorted as
/// `(u64 key, row)` pairs, runs of equal keys share a code, and each
/// dictionary entry is decoded from its run's key.
fn encode_radix(
    class: KeyClass,
    keys: Vec<u64>,
    nulls: &[u32],
    n_rows: usize,
    pairs: &mut Vec<(u64, u32)>,
    scratch: &mut Vec<(u64, u32)>,
    radix_passes: &mut u64,
) -> EncodedColumn {
    pairs.clear();
    pairs.extend(
        non_null_rows(nulls, n_rows)
            .zip(keys)
            .map(|(row, key)| (key, row)),
    );
    *radix_passes += u64::from(radix::sort_pairs(pairs, scratch));
    let runs = pairs.windows(2).filter(|w| w[0].0 != w[1].0).count() + 1;
    let mut dict = Vec::with_capacity(runs + usize::from(!nulls.is_empty()));
    if !nulls.is_empty() {
        dict.push(Value::Null);
    }
    let mut codes = vec![0u32; n_rows];
    let mut prev_key: Option<u64> = None;
    for &(key, row) in pairs.iter() {
        if prev_key != Some(key) {
            dict.push(key_value(class, key));
            prev_key = Some(key);
        }
        codes[row as usize] = (dict.len() - 1) as u32;
    }
    EncodedColumn { dict, codes }
}

/// Comparison path for heterogeneous, string, and float columns: sort row
/// indices by the `Value` order of the column's cells (NULLs sort first on
/// their own), then assign dense ranks run by run, moving each run's first
/// cell into the dictionary.
fn encode_by_comparison(mut cells: Vec<Value>) -> EncodedColumn {
    let mut order: Vec<u32> = (0..cells.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| cells[a as usize].cmp(&cells[b as usize]));
    let mut codes = vec![0u32; cells.len()];
    let mut dict: Vec<Value> = Vec::new();
    for &row in &order {
        let cell = &mut cells[row as usize];
        // Cells of one run are all equal to its first, the last entry.
        if dict.last() != Some(cell) {
            dict.push(std::mem::replace(cell, Value::Null));
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

    /// Column `col` of `tuples`, cloned.
    fn cells(tuples: &[Tuple], col: usize) -> Vec<Value> {
        tuples.iter().map(|t| t[col].clone()).collect()
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
        let enc = ColumnarEncoding::build(&schema(1), tuples.clone());
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
        let enc = ColumnarEncoding::build(&schema(3), tuples.clone());
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
        let enc = ColumnarEncoding::build(&schema(3), tuples.clone());
        assert_valid_encoding(&tuples, &enc);
        assert!(scan_columns(tuples.clone(), 3)
            .iter()
            .all(|scan| matches!(scan, ColumnScan::Comparison(_))));
        // NULL still smallest on the comparison path; NaN sorts last.
        assert_eq!(enc.codes(0), &[2, 1, 0, 1]);
        assert_eq!(enc.codes(1), &[2, 1, 3, 0]);
    }

    /// Every key class, shape and NULL placement of a radix column, checked
    /// against its input rows and against the comparison path.  At 300 rows
    /// the `Int` and `Date` codes span two radix bytes, and their extreme
    /// values catch a dictionary entry decoded with the wrong sign.
    #[test]
    fn radix_columns_match_their_rows_and_the_comparison_path() {
        const N: usize = 300;
        let int = |r: usize| {
            Value::Int(match r {
                0 => i64::MIN,
                r if r == N - 1 => i64::MAX,
                r => (r as i64 - 150) * 1_000_003,
            })
        };
        let date = |r: usize| {
            Value::Date(match r {
                0 => i32::MIN,
                r if r == N - 1 => i32::MAX,
                r => (r as i32 - 200) * 97,
            })
        };
        let boolean = |r: usize| Value::Bool(r >= N / 2);
        let classes: [&dyn Fn(usize) -> Value; 3] = [&int, &date, &boolean];
        let shapes: [fn(usize) -> usize; 5] = [
            |i| i,                              // ascending
            |i| N - 1 - i,                      // descending
            |_| N / 3,                          // constant
            |i| i * 7919 % N,                   // shuffled
            |i| if i == N - 1 { 0 } else { i }, // one descent, in the last pair
        ];
        let mut columns: Vec<Vec<Value>> = Vec::new();
        for class in classes {
            for shape in shapes {
                for null_row in [None, Some(0), Some(N / 2), Some(N - 1)] {
                    columns.push(
                        (0..N)
                            .map(|i| match null_row {
                                Some(r) if r == i => Value::Null,
                                _ => class(shape(i)),
                            })
                            .collect(),
                    );
                }
            }
        }
        let radix_columns = columns.len();
        // Two key classes, or a class and a float: the comparison path.
        columns.push(
            (0..N)
                .map(|i| match i % 2 {
                    0 => int(i * 7919 % N),
                    _ => date(i * 7919 % N),
                })
                .collect(),
        );
        columns.push(
            (0..N)
                .map(|i| match i % 3 {
                    0 => Value::Float(i as f64 + 0.5),
                    _ => Value::Int(i as i64 * 7919 % N as i64),
                })
                .collect(),
        );
        let tuples: Vec<Tuple> = (0..N)
            .map(|i| columns.iter().map(|c| c[i].clone()).collect())
            .collect();
        let enc = ColumnarEncoding::build(&schema(columns.len()), tuples.clone());
        assert_valid_encoding(&tuples, &enc);
        let scans = scan_columns(tuples.clone(), columns.len());
        for (col, scan) in scans.iter().enumerate() {
            if col < radix_columns {
                assert!(matches!(scan, ColumnScan::Keys { class: Some(_), .. }));
                // Debug output tells variants apart, which `==` does not.
                assert_eq!(
                    format!("{:?}", enc.column(col)),
                    format!("{:?}", encode_by_comparison(cells(&tuples, col))),
                    "column {col}"
                );
            } else {
                assert!(matches!(scan, ColumnScan::Comparison(_)), "column {col}");
            }
        }
    }

    /// A key column that meets a float, a string or a second key class late
    /// rebuilds its earlier cells from their keys.  Every key class turns
    /// at row 1, after 256 key cells and at the last row, with and without
    /// NULLs before and after the turn (a NULL at row 0 leaves a turn at row
    /// 1 with no key yet); each column must encode as the comparison path
    /// does over its original cells.
    #[test]
    fn key_columns_turning_late_rebuild_their_cells() {
        const N: usize = 300;
        let int = |r: usize| Value::Int((r as i64 * 7919 % N as i64 - 150) * 1_000_003);
        let date = |r: usize| Value::Date((r as i32 * 7919 % N as i32 - 200) * 97);
        let boolean = |r: usize| Value::Bool(r * 7919 % N >= N / 2);
        let classes: [&dyn Fn(usize) -> Value; 3] = [&int, &date, &boolean];
        let mut columns: Vec<Vec<Value>> = Vec::new();
        for (c, class) in classes.iter().enumerate() {
            let turns: [Value; 3] = [
                Value::Float(0.5),
                Value::Str("turn".into()),
                // A key of another class: dates for ints, ints otherwise.
                if c == 0 { date(7) } else { int(7) },
            ];
            for turn_row in [1, 256, N - 1] {
                for turn in &turns {
                    for nulls in [vec![], vec![turn_row / 2, turn_row + 1]] {
                        columns.push(
                            (0..N)
                                .map(|r| match r {
                                    r if nulls.contains(&r) => Value::Null,
                                    r if r == turn_row => turn.clone(),
                                    r => class(r),
                                })
                                .collect(),
                        );
                    }
                }
            }
        }
        let tuples: Vec<Tuple> = (0..N)
            .map(|i| columns.iter().map(|c| c[i].clone()).collect())
            .collect();
        let enc = ColumnarEncoding::build(&schema(columns.len()), tuples.clone());
        assert_valid_encoding(&tuples, &enc);
        let scans = scan_columns(tuples, columns.len());
        for (col, scan) in scans.into_iter().enumerate() {
            let ColumnScan::Comparison(rebuilt) = scan else {
                panic!("column {col} must turn comparison");
            };
            // Debug output tells variants apart, which `==` does not.
            assert_eq!(
                format!("{rebuilt:?}"),
                format!("{:?}", columns[col]),
                "column {col}"
            );
            assert_eq!(
                format!("{:?}", enc.column(col)),
                format!("{:?}", encode_by_comparison(columns[col].clone())),
                "column {col}"
            );
        }
    }

    /// `Int` and `Float` cells compare exactly, so a column holding
    /// a = `2^53 + 1`, b = `2.0^53` and c = `2^53` encodes alike in every row
    /// order: two entries, a above b = c, and a snapshot that decodes.
    #[test]
    fn int_float_cells_beyond_2_pow_53_encode_alike_in_every_row_order() {
        let cells = [
            Value::Int((1 << 53) + 1),
            Value::Float(9_007_199_254_740_992.0),
            Value::Int(1 << 53),
        ];
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let tuples: Vec<Tuple> = order.iter().map(|&i| vec![cells[i].clone()]).collect();
            let rel = crate::Relation::from_rows(schema(1), tuples.clone()).unwrap();
            let enc = rel.encoding();
            assert_valid_encoding(&tuples, &enc);
            assert_eq!(enc.dict(0).len(), 2, "row order {order:?}");
            let code = |cell: usize| enc.codes(0)[order.iter().position(|&i| i == cell).unwrap()];
            assert_eq!(
                (code(0), code(1), code(2)),
                (1, 0, 0),
                "row order {order:?}"
            );
            let back = crate::Relation::from_bytes(&rel.to_bytes()).expect("snapshot decodes");
            assert_eq!(back.encoding().codes(0), enc.codes(0));
        }
    }

    #[test]
    fn all_null_and_empty_columns() {
        let tuples: Vec<Tuple> = vec![vec![Value::Null], vec![Value::Null]];
        let enc = ColumnarEncoding::build(&schema(1), tuples);
        assert_eq!(enc.codes(0), &[0, 0]);
        assert_eq!(enc.dict(0), &[Value::Null]);
        let empty = ColumnarEncoding::build(&schema(1), Vec::new());
        assert_eq!(empty.n_rows(), 0);
        assert!(empty.dict(0).is_empty());
    }

    #[test]
    fn heap_bytes_cover_dict_and_codes() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Str("abcd".into())],
            vec![Value::Str("abcd".into())],
        ];
        let enc = ColumnarEncoding::build(&schema(1), tuples);
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
        let metrics = |schema: &Schema, tuples: Vec<Tuple>| {
            let registry = std::sync::Arc::new(od_obs::Registry::new());
            od_obs::scoped(std::sync::Arc::clone(&registry), || {
                ColumnarEncoding::build(schema, tuples)
            });
            registry.snapshot()
        };
        // The taxes table is sorted on all three columns: no radix pass.
        let rel = crate::fixtures::example_5_taxes();
        let snap = metrics(rel.schema(), rel.tuples());
        let counter = |name: &str| snap.counters[&format!("relation.encode.{name}")];
        assert_eq!(
            [counter("columns"), counter("rows"), counter("radix_passes")],
            [3, 6, 0]
        );
        let dict = &snap.histograms["relation.encode.dict_entries"];
        assert_eq!((dict.count, dict.sum), (3, 16));
        let spans: Vec<&str> = snap.durations.keys().map(String::as_str).collect();
        assert_eq!(spans, ["relation.encode"]);
        // One unsorted column beside a sorted one costs one pass, so a hook
        // that stopped counting would show here.
        let tuples: Vec<Tuple> = [(3, 1), (1, 2), (2, 3)]
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect();
        let snap = metrics(&schema(2), tuples);
        assert_eq!(snap.counters["relation.encode.radix_passes"], 1);
    }
}
