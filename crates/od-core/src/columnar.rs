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
//! *key column* is encoded by the first of four exact routes that its keys
//! allow, each chosen from a property of the input:
//!
//! 1. **Ordered**: the keys never descend (one scan, which stops at the
//!    first descent, tells).  Codes count the runs of equal keys in row
//!    order, with no sort.
//! 2. **Hashed**: few distinct keys.  A linear-probing table, keyed by a
//!    multiply-shift hash, gives each key a provisional id in
//!    first-appearance order; the distinct keys are sorted and the ids
//!    remapped to codes.  The route gives up once `n` keys show more than
//!    `max(n / 16, 16)` distinct ones or a probe passes 32 slots.  That
//!    bounds it at O(n) on any input, which matters because a server
//!    encodes the rows its clients send: keys chosen to share one bucket
//!    cost at most 32 probes each before the column falls through.
//! 3. **Packed**: the key span's bits plus the bits of a key index fit in
//!    64.  Each key becomes the word `(key − min) << index_bits | index`, and
//!    the words are sorted in place; they are distinct, so their order is
//!    the `(key, index)` order.
//! 4. **Wide**: any other span, such as a column holding both `i64::MIN` and
//!    `i64::MAX`, sorts `(key, row)` pairs with the stable LSB
//!    [radix sort](crate::radix).  Only this route adds to the
//!    `relation.encode.radix_passes` counter.
//!
//! Every route assigns the same codes, and decodes each dictionary entry from
//! its run's key into a dictionary counted before it is allocated, so its
//! capacity is its length.  The `relation.encode.route.*` counters record
//! which route each key column took.  Heterogeneous, string, and float
//! columns move their cells into a per-column vector, which one comparison
//! sort on the `Value` order encodes; a key column that meets such a cell
//! late rebuilds its earlier cells from their keys and continues as one of
//! them.  Either way the codes and dictionaries are the same, and every
//! discovery layer shares the one encoding a [`Relation`](crate::Relation) is
//! built with instead of re-sorting per attribute.

use crate::attr::Schema;
use crate::radix;
use crate::relation::Tuple;
use crate::value::Value;

/// One attribute's dictionary and code column.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedColumn {
    /// Distinct values in ascending [`Value`] order; `dict[code]` decodes.
    dict: Vec<Value>,
    /// Per-row dense rank codes, aligned with the relation's tuple order:
    /// every code indexes `dict`, and every entry of `dict` is some row's
    /// code.
    codes: Vec<u32>,
}

impl EncodedColumn {
    /// Reassemble a column from its parts (the wire snapshot decoder; the
    /// caller has already validated that `dict` is strictly sorted, that
    /// every code indexes it, and that every entry is some row's code).
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
    /// the `relation.encode.dict_entries` histogram, row/column totals, the
    /// key columns each route took (`relation.encode.route.*`), and the
    /// number of radix passes the wide route spent — all deterministic
    /// functions of the data.
    pub(crate) fn build(schema: &Schema, tuples: Vec<Tuple>) -> Self {
        let _span = od_obs::span("relation.encode");
        let arity = schema.arity();
        let n_rows = tuples.len();
        let mut routes = [0u64; Route::ALL.len()];
        let mut radix_passes = 0u64;
        let mut columns = Vec::with_capacity(arity);
        for scan in scan_columns(tuples, arity) {
            let encoded = match scan {
                ColumnScan::Keys {
                    class: Some(class),
                    keys,
                    nulls,
                } => {
                    let (route, encoded) =
                        encode_radix(class, keys, &nulls, n_rows, &mut radix_passes);
                    routes[route as usize] += 1;
                    encoded
                }
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
        for (route, count) in Route::ALL.into_iter().zip(routes) {
            od_obs::add(route.counter(), count);
        }
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

/// The exact routes a key column's codes can take, in the order
/// [`encode_radix`] tries them; each is counted under its
/// [`Route::counter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Ordered,
    Hashed,
    Packed,
    Wide,
}

impl Route {
    const ALL: [Route; 4] = [Route::Ordered, Route::Hashed, Route::Packed, Route::Wide];

    /// The counter of the columns that took this route.
    fn counter(self) -> &'static str {
        match self {
            Route::Ordered => "relation.encode.route.ordered",
            Route::Hashed => "relation.encode.route.hashed",
            Route::Packed => "relation.encode.route.packed",
            Route::Wide => "relation.encode.route.wide",
        }
    }
}

/// Key path: NULL rows keep code 0, and the non-null keys (`keys`, one per
/// non-null row in row order; never empty) take the first route that
/// applies.  Only the wide route adds to `radix_passes`.
fn encode_radix(
    class: KeyClass,
    keys: Vec<u64>,
    nulls: &[u32],
    n_rows: usize,
    radix_passes: &mut u64,
) -> (Route, EncodedColumn) {
    if keys.is_sorted() {
        return (Route::Ordered, encode_ordered(class, &keys, nulls, n_rows));
    }
    if let Some(column) = encode_hashed(class, &keys, nulls, n_rows) {
        return (Route::Hashed, column);
    }
    match encode_packed(class, keys, nulls, n_rows) {
        Ok(column) => (Route::Packed, column),
        Err(keys) => {
            let (column, passes) = encode_wide(class, keys, nulls, n_rows);
            *radix_passes += u64::from(passes);
            (Route::Wide, column)
        }
    }
}

/// Walk `(key, index)` pairs in ascending key order: each run of equal keys
/// gets the next code and one dictionary entry, decoded from its key, and
/// `codes[index]` gets its run's code.  The dictionary is counted before it
/// is allocated, so its capacity is its length; it starts with the NULL
/// entry when the column has `nulls`.
fn assign_runs(
    class: KeyClass,
    sorted: impl Iterator<Item = (u64, usize)> + Clone,
    nulls: &[u32],
    codes: &mut [u32],
) -> Vec<Value> {
    let mut runs = 0;
    let mut last = None;
    for (key, _) in sorted.clone() {
        runs += usize::from(last != Some(key));
        last = Some(key);
    }
    let mut dict = Vec::with_capacity(runs + usize::from(!nulls.is_empty()));
    if !nulls.is_empty() {
        dict.push(Value::Null);
    }
    let mut last = None;
    for (key, at) in sorted {
        if last != Some(key) {
            dict.push(key_value(class, key));
            last = Some(key);
        }
        codes[at] = (dict.len() - 1) as u32;
    }
    dict
}

/// Move the codes of the non-null cells, which fill the front of `codes` in
/// row order, to their rows, and give every NULL row (`nulls`, ascending)
/// code 0: one move per stretch of rows between two NULLs.
fn place_nulls(codes: &mut [u32], nulls: &[u32]) {
    let mut end = codes.len();
    for (before, &null) in nulls.iter().enumerate().rev() {
        let null = null as usize;
        // The cells after this NULL sit `before + 1` places too early.
        codes.copy_within(null - before..end - before - 1, null + 1);
        codes[null] = 0;
        end = null;
    }
}

/// Ordered route, for keys that never descend: codes count the runs of
/// equal keys in row order, with no sort.
fn encode_ordered(class: KeyClass, keys: &[u64], nulls: &[u32], n_rows: usize) -> EncodedColumn {
    let mut codes = vec![0u32; n_rows];
    let dict = assign_runs(class, keys.iter().copied().zip(0..), nulls, &mut codes);
    place_nulls(&mut codes, nulls);
    EncodedColumn { dict, codes }
}

/// The hashed route gives up past this many distinct keys per key…
const HASHED_KEYS_PER_DISTINCT: usize = 16;
/// …but always allows this many.
const HASHED_MIN_DISTINCT: usize = 16;
/// The hashed route gives up when a probe passes this many slots.
const HASHED_MAX_PROBE: usize = 32;
/// Multiply-shift hash multiplier: odd, `2^64 / φ`.
const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A linear-probing map from a column's distinct keys to ids in
/// first-appearance order, at most half full.
struct KeyIds {
    /// The distinct keys, by id.
    keys: Vec<u64>,
    /// A key's id plus one, or 0 for an empty slot; a power of two long.
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: a hash keeps the product's top bits.
    shift: u32,
}

impl KeyIds {
    fn new() -> Self {
        KeyIds {
            keys: Vec::new(),
            slots: vec![0; 64],
            shift: 64 - 6,
        }
    }

    /// The slot holding `key`, or the empty slot it would take; `None` when
    /// the probe passes [`HASHED_MAX_PROBE`] slots.
    fn probe(&self, key: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (key.wrapping_mul(HASH_MULTIPLIER) >> self.shift) as usize;
        for _ in 0..HASHED_MAX_PROBE {
            let id = self.slots[slot];
            if id == 0 || self.keys[id as usize - 1] == key {
                return Some(slot);
            }
            slot = (slot + 1) & mask;
        }
        None
    }

    /// `key`'s id, a new one when `key` is new; `None` when a probe passes
    /// [`HASHED_MAX_PROBE`] slots or the map would pass `max_distinct` keys.
    fn id(&mut self, key: u64, max_distinct: usize) -> Option<u32> {
        let slot = self.probe(key)?;
        if self.slots[slot] != 0 {
            return Some(self.slots[slot] - 1);
        }
        if self.keys.len() == max_distinct {
            return None;
        }
        self.keys.push(key);
        self.slots[slot] = self.keys.len() as u32;
        if 2 * self.keys.len() > self.slots.len() {
            self.shift -= 1;
            self.slots = vec![0; 2 * self.slots.len()];
            for id in 0..self.keys.len() {
                let slot = self.probe(self.keys[id])?;
                self.slots[slot] = id as u32 + 1;
            }
        }
        Some(self.keys.len() as u32 - 1)
    }
}

/// Hashed route, for keys with few distinct values: each key gets a
/// provisional id in first-appearance order, and the sorted distinct keys
/// remap the ids to codes.  `None` once `n` keys show more than
/// `max(n / 16, 16)` distinct ones or a probe passes [`HASHED_MAX_PROBE`]
/// slots, which bounds the route at O(n) on any keys, colliding ones
/// included.
fn encode_hashed(
    class: KeyClass,
    keys: &[u64],
    nulls: &[u32],
    n_rows: usize,
) -> Option<EncodedColumn> {
    let max_distinct = (keys.len() / HASHED_KEYS_PER_DISTINCT).max(HASHED_MIN_DISTINCT);
    let mut ids = KeyIds::new();
    let mut codes = Vec::with_capacity(n_rows);
    for &key in keys {
        codes.push(ids.id(key, max_distinct)?);
    }
    let mut order: Vec<u32> = (0..ids.keys.len() as u32).collect();
    order.sort_unstable_by_key(|&id| ids.keys[id as usize]);
    let mut code_of = vec![0u32; order.len()];
    let sorted = order.iter().map(|&id| (ids.keys[id as usize], id as usize));
    let dict = assign_runs(class, sorted, nulls, &mut code_of);
    for code in &mut codes {
        *code = code_of[*code as usize];
    }
    codes.resize(n_rows, 0);
    place_nulls(&mut codes, nulls);
    Some(EncodedColumn { dict, codes })
}

/// Packed route, for keys whose span fits beside a key index in 64 bits:
/// each key becomes the word `(key − min) << index_bits | index`, and one
/// in-place `sort_unstable` of the words orders them.  The words are
/// distinct, so their order is the `(key, index)` order.  `Err` gives the
/// keys back unchanged when the span does not fit.
fn encode_packed(
    class: KeyClass,
    mut keys: Vec<u64>,
    nulls: &[u32],
    n_rows: usize,
) -> Result<EncodedColumn, Vec<u64>> {
    let (min, max) = keys
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &key| (lo.min(key), hi.max(key)));
    let index_bits = u64::BITS - (keys.len() as u64 - 1).leading_zeros();
    let span_bits = u64::BITS - (max - min).leading_zeros();
    if span_bits + index_bits > u64::BITS {
        return Err(keys);
    }
    for (index, key) in keys.iter_mut().enumerate() {
        *key = (*key - min) << index_bits | index as u64;
    }
    keys.sort_unstable();
    let index_mask = (1u64 << index_bits) - 1;
    let sorted = keys
        .iter()
        .map(|&word| ((word >> index_bits) + min, (word & index_mask) as usize));
    let mut codes = vec![0u32; n_rows];
    let dict = assign_runs(class, sorted, nulls, &mut codes);
    place_nulls(&mut codes, nulls);
    Ok(EncodedColumn { dict, codes })
}

/// Wide route, for key spans too wide to pack: non-null rows are sorted as
/// `(u64 key, row)` pairs by the LSB [radix sort](crate::radix), which also
/// returns its pass count.
fn encode_wide(
    class: KeyClass,
    keys: Vec<u64>,
    nulls: &[u32],
    n_rows: usize,
) -> (EncodedColumn, u32) {
    let mut pairs: Vec<(u64, u32)> = non_null_rows(nulls, n_rows)
        .zip(keys)
        .map(|(row, key)| (key, row))
        .collect();
    let passes = radix::sort_pairs(&mut pairs, &mut Vec::new());
    let mut codes = vec![0u32; n_rows];
    let sorted = pairs.iter().map(|&(key, row)| (key, row as usize));
    let dict = assign_runs(class, sorted, nulls, &mut codes);
    (EncodedColumn { dict, codes }, passes)
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
        let mut routes = Vec::new();
        for (col, scan) in scans.iter().enumerate() {
            if col < radix_columns {
                assert!(matches!(scan, ColumnScan::Keys { class: Some(_), .. }));
                let (class, keys, nulls) = key_column(&columns[col]);
                routes.push(encode_radix(class, keys, &nulls, N, &mut 0).0);
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
        // Columns 12–15 hold shuffled `Int`s from `i64::MIN` to `i64::MAX`:
        // too many distinct keys to hash, too wide a span to pack.
        assert_eq!(routes[12..16], [Route::Wide; 4]);
        for route in Route::ALL {
            assert!(routes.contains(&route), "{route:?} is exercised");
        }
    }

    /// A key column's class, non-null keys and NULL rows, as the row pass
    /// collects them.
    fn key_column(cells: &[Value]) -> (KeyClass, Vec<u64>, Vec<u32>) {
        let mut class = None;
        let (mut keys, mut nulls) = (Vec::new(), Vec::new());
        for (row, cell) in cells.iter().enumerate() {
            match radix_key(cell) {
                Some((k, key)) => {
                    assert!(*class.get_or_insert(k) == k, "one key class");
                    keys.push(key);
                }
                None => nulls.push(row as u32),
            }
        }
        (class.expect("a non-null cell"), keys, nulls)
    }

    /// `column` is exactly what the comparison path makes of `cells`, and
    /// its dictionary was allocated at its final size.
    fn assert_matches_comparison(column: &EncodedColumn, cells: &[Value], what: &str) {
        // Debug output tells variants apart, which `==` does not.
        assert_eq!(
            format!("{column:?}"),
            format!("{:?}", encode_by_comparison(cells.to_vec())),
            "{what}: {cells:?}"
        );
        assert_eq!(
            column.dict.capacity(),
            column.dict.len(),
            "{what}: {cells:?}"
        );
    }

    /// Every route that accepts a column, called directly, encodes it as the
    /// comparison path does; the dispatcher's choice does too.  `accepts`
    /// lists the routes that must accept it; the packed route may refuse a
    /// wide span only, and then gives the keys back.
    fn check_every_route(cells: &[Value], accepts: &[Route]) {
        let (class, keys, nulls) = key_column(cells);
        let n = cells.len();
        if keys.is_sorted() {
            let column = encode_ordered(class, &keys, &nulls, n);
            assert_matches_comparison(&column, cells, "ordered");
        } else {
            assert!(!accepts.contains(&Route::Ordered), "{cells:?}");
        }
        match encode_hashed(class, &keys, &nulls, n) {
            Some(column) => assert_matches_comparison(&column, cells, "hashed"),
            None => assert!(!accepts.contains(&Route::Hashed), "{cells:?}"),
        }
        match encode_packed(class, keys.clone(), &nulls, n) {
            Ok(column) => assert_matches_comparison(&column, cells, "packed"),
            Err(back) => {
                assert!(!accepts.contains(&Route::Packed), "{cells:?}");
                assert_eq!(back, keys, "the keys come back unchanged");
                let span = keys.iter().max().unwrap() - keys.iter().min().unwrap();
                assert!(span.leading_zeros() < (keys.len() - 1).ilog2() + 1);
            }
        }
        let (column, _) = encode_wide(class, keys.clone(), &nulls, n);
        assert_matches_comparison(&column, cells, "wide");
        let (route, column) = encode_radix(class, keys, &nulls, n, &mut 0);
        assert_matches_comparison(&column, cells, "dispatched");
        if let Some(&first) = accepts.first() {
            assert_eq!(route, first, "{cells:?}");
        }
    }

    /// Every weak order of up to 5 rows (every column shape), as `Int`s of
    /// either sign, `Int`s out to `i64::MIN` and `i64::MAX`, negative and
    /// positive `Date`s and (up to two ranks) `Bool`s, with NULL at no row,
    /// before the first row or after the last, through every route.
    #[test]
    fn every_route_matches_the_comparison_path_on_every_small_column() {
        let int = |r: usize| Value::Int((r as i64 - 2) * 1_000_003);
        let extreme = |r: usize| Value::Int([i64::MIN, -1, 0, 1, i64::MAX][r]);
        let date = |r: usize| Value::Date((r as i32 - 3) * 97);
        let boolean = |r: usize| Value::Bool(r == 1);
        let maps: [(&dyn Fn(usize) -> Value, usize); 4] =
            [(&int, 5), (&extreme, 5), (&date, 5), (&boolean, 2)];
        let mut shapes = 0;
        for len in 1..=5u32 {
            for index in 0..len.pow(len) {
                let ranks: Vec<usize> = (0..len)
                    .map(|i| (index / len.pow(i) % len) as usize)
                    .collect();
                // A weak order ranks its rows 0..m with no rank skipped.
                let m = ranks.iter().max().unwrap() + 1;
                if !(0..m).all(|r| ranks.contains(&r)) {
                    continue;
                }
                shapes += 1;
                for (map, max_ranks) in maps {
                    if m > max_ranks {
                        continue;
                    }
                    let column: Vec<Value> = ranks.iter().map(|&r| map(r)).collect();
                    for null in [None, Some(0), Some(column.len())] {
                        let mut cells = column.clone();
                        if let Some(at) = null {
                            cells.insert(at, Value::Null);
                        }
                        check_every_route(&cells, &[]);
                    }
                }
            }
        }
        // 1 + 3 + 13 + 75 + 541: the ordered Bell numbers.
        assert_eq!(shapes, 633);
    }

    /// Keys built to collide: `j · M⁻¹` times the hash multiplier `M` is
    /// `j`, so keys `0..64` of that form all hash to slot 0 at every table
    /// size.  Spread over 2,000 rows, they stay under the distinct cap of
    /// 125, so only the probe cap stops the hashed route, and the column
    /// still encodes exactly (on the wide route: the keys span 64 bits).
    #[test]
    fn hashed_route_gives_up_at_the_probe_cap_on_colliding_keys() {
        // Newton's iteration doubles the correct low bits of the inverse
        // each step, from the 3 every odd number is its own inverse to.
        let mut inverse = HASH_MULTIPLIER;
        for _ in 0..5 {
            inverse =
                inverse.wrapping_mul(2u64.wrapping_sub(HASH_MULTIPLIER.wrapping_mul(inverse)));
        }
        assert_eq!(HASH_MULTIPLIER.wrapping_mul(inverse), 1);
        let key = |j: u64| j.wrapping_mul(inverse);
        let ids = KeyIds::new();
        assert!((0..64).all(|j| key(j).wrapping_mul(HASH_MULTIPLIER) >> ids.shift == 0));
        let cells: Vec<Value> = (0..2_000u64)
            .map(|row| key_value(KeyClass::Int, key(row * 37 % 64)))
            .collect();
        let (class, keys, nulls) = key_column(&cells);
        assert!(encode_hashed(class, &keys, &nulls, cells.len()).is_none());
        check_every_route(&cells, &[Route::Wide]);
    }

    /// The hashed route takes a column of exactly `max(n / 16, 16)` distinct
    /// keys and gives one more up, at 2,000 rows (a cap of 125) and at 100
    /// (the floor of 16); the packed route then takes the column.
    #[test]
    fn hashed_route_takes_exactly_its_distinct_cap() {
        for (n, cap) in [(2_000usize, 125usize), (100, 16)] {
            for (distinct, route) in [(cap, Route::Hashed), (cap + 1, Route::Packed)] {
                // Every value appears, in a shuffled (unsorted) order.
                let cells: Vec<Value> = (0..n)
                    .map(|row| Value::Int((row * 7919 % n % distinct) as i64 * -3))
                    .collect();
                check_every_route(&cells, &[route]);
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
    /// hook would silently zero them.  Each route's counter is pinned on a
    /// column that takes it.
    #[test]
    fn encode_metrics_are_pinned() {
        let metrics = |schema: &Schema, tuples: Vec<Tuple>| {
            let registry = std::sync::Arc::new(od_obs::Registry::new());
            od_obs::scoped(std::sync::Arc::clone(&registry), || {
                ColumnarEncoding::build(schema, tuples)
            });
            registry.snapshot()
        };
        let routes =
            |snap: &od_obs::MetricsSnapshot| Route::ALL.map(|route| snap.counters[route.counter()]);
        // The taxes table is sorted on all three columns: no sort at all.
        let rel = crate::fixtures::example_5_taxes();
        let snap = metrics(rel.schema(), rel.tuples());
        let counter = |name: &str| snap.counters[&format!("relation.encode.{name}")];
        assert_eq!(
            [counter("columns"), counter("rows"), counter("radix_passes")],
            [3, 6, 0]
        );
        assert_eq!(routes(&snap), [3, 0, 0, 0]);
        let dict = &snap.histograms["relation.encode.dict_entries"];
        assert_eq!((dict.count, dict.sum), (3, 16));
        let spans: Vec<&str> = snap.durations.keys().map(String::as_str).collect();
        assert_eq!(spans, ["relation.encode"]);
        // An unsorted column of three keys is hashed beside a sorted one.
        let tuples: Vec<Tuple> = [(3, 1), (1, 2), (2, 3)]
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect();
        let snap = metrics(&schema(2), tuples);
        assert_eq!(routes(&snap), [1, 1, 0, 0]);
        assert_eq!(snap.counters["relation.encode.radix_passes"], 0);
        // 17 distinct multiples of 2^59, shuffled, are too many to hash and
        // span too many bits to pack beside 5 index bits; they differ in
        // the top byte only, so the wide route's radix sort takes one pass.
        let tuples: Vec<Tuple> = (0..17i64)
            .map(|i| vec![Value::Int((i * 5 % 17 - 8) << 59)])
            .collect();
        let snap = metrics(&schema(1), tuples);
        assert_eq!(routes(&snap), [0, 0, 0, 1]);
        assert_eq!(snap.counters["relation.encode.radix_passes"], 1);
    }
}
