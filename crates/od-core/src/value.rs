//! Runtime values with a total order.
//!
//! The paper's definitions only require that each attribute's domain is totally
//! ordered.  [`Value`] provides a concrete, totally ordered value type covering
//! the domains used in the paper's examples (integers, floats, strings, dates,
//! booleans, and NULL).  The ordering rules are:
//!
//! * `Null` sorts **before** every non-null value (SQL `NULLS FIRST` under `ASC`),
//! * values of the same type compare naturally (strings lexicographically — which
//!   is exactly the `month_name` trap of the paper's Section 1),
//! * integers and floats compare exactly by numeric value (`Int(2) ==
//!   Float(2.0)`; an integer beyond 2^53 is never rounded to a float),
//! * values of different types compare by a fixed type rank (`Null < Boolean <
//!   Integer ≈ Float < Text < Date`); mixed-type columns are not meaningful in the
//!   workloads but a total order keeps sorting well-defined everywhere.

use std::cmp::Ordering;
use std::fmt;

/// A single column value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Sorts before every other value.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN compares greater than every other float.
    Float(f64),
    /// UTF-8 string, ordered lexicographically (byte-wise on chars).
    Str(String),
    /// Calendar date as days since the epoch 1970-01-01.
    Date(i32),
}

impl Value {
    /// Rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Date(_) => 4,
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate in-memory footprint in bytes: the enum itself plus owned
    /// heap payload.  Deliberately counts string *lengths*, not capacities, so
    /// the estimate is deterministic for logically equal values — memory
    /// accounting (e.g. stream-monitor compaction metrics) stays bit-identical
    /// across runs.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Value>()
            + match self {
                Value::Str(s) => s.len(),
                _ => 0,
            }
    }

    /// Interpret the value as an integer if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Date(d) => Some(*d as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Interpret the value as a float if it is numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Date(d) => Some(*d as f64),
            Value::Bool(b) => Some(*b as u8 as f64),
            _ => None,
        }
    }

    /// Interpret the value as a string slice if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Total-order comparison of two floats (NaN sorts last, -0.0 == 0.0).
    fn cmp_floats(a: f64, b: f64) -> Ordering {
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => a.partial_cmp(&b).expect("non-NaN floats are comparable"),
        }
    }

    /// Exact comparison of an integer with a float.  Rounding the integer to
    /// `f64` would not do: beyond 2^53 it makes distinct integers equal to
    /// one float, and the order stops being transitive.  NaN sorts last, a
    /// float beyond the `i64` range sorts beyond every integer, and any other
    /// float is compared by its integer part, then by its fraction.
    fn cmp_int_float(i: i64, f: f64) -> Ordering {
        // 2^63, exactly: every i64 lies in [-2^63, 2^63).
        const BOUND: f64 = 9_223_372_036_854_775_808.0;
        if f.is_nan() || f >= BOUND {
            return Ordering::Less;
        }
        if f < -BOUND {
            return Ordering::Greater;
        }
        let whole = f.trunc();
        // `whole` is integral and within range, so the cast is exact.
        i.cmp(&(whole as i64))
            .then_with(|| Value::cmp_floats(0.0, f - whole))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => Value::cmp_floats(*a, *b),
            (Int(a), Float(b)) => Value::cmp_int_float(*a, *b),
            (Float(a), Int(b)) => Value::cmp_int_float(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // Hash consistently with Int(i) == Float(i as f64): every NaN
                // is one value, and so are -0.0 and 0.0 (== Int(0)).
                let canonical = if f.is_nan() {
                    f64::NAN
                } else if *f == 0.0 {
                    0.0
                } else {
                    *f
                };
                canonical.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => {
                let (y, m, day) = date_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Convert a calendar date to days since 1970-01-01 (proleptic Gregorian).
///
/// Months are 1-based, days are 1-based. Dates before the epoch yield negative
/// day counts. The algorithm is the standard civil-from-days / days-from-civil
/// pair (Howard Hinnant's algorithm), implemented here so the crate stays
/// dependency-free.
pub fn days_from_date(year: i32, month: u32, day: u32) -> i32 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let mp = ((month + 9) % 12) as i64; // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + day as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Convert days since 1970-01-01 back to a `(year, month, day)` triple.
pub fn date_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + (m <= 2) as i64) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn ints_and_floats_compare_numerically() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Float(f64::NAN) > Value::Float(1e300));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(i64::MAX) < Value::Float(9.3e18));
        assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
        assert_eq!(
            Value::Int(i64::MIN),
            Value::Float(-9_223_372_036_854_775_808.0)
        );
        assert!(Value::Int(-3) < Value::Float(-2.5));
        assert!(Value::Int(-2) > Value::Float(-2.5));
        assert_eq!(Value::Float(-0.0), Value::Int(0));
    }

    #[test]
    fn int_float_order_is_exact_beyond_2_pow_53() {
        // `2^53 + 1` has no f64 of its own; rounding it to `2^53` made
        // a == b and b == c while a > c.
        let a = Value::Int((1 << 53) + 1);
        let b = Value::Float(9_007_199_254_740_992.0);
        let c = Value::Int(1 << 53);
        assert!(a > b);
        assert_eq!(b, c);
        assert!(a > c);
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let vals = [&a, &b, &c];
        for order in orders {
            let set: std::collections::BTreeSet<Value> =
                order.iter().map(|&i| vals[i].clone()).collect();
            assert_eq!(set.len(), 2, "insertion order {order:?}");
        }
    }

    #[test]
    fn strings_order_lexicographically_demonstrating_the_month_name_trap() {
        // Section 1: "April", "August" sort before "January" even though January
        // precedes them in the calendar — the reason FDs alone cannot justify
        // dropping `quarter` from an ORDER BY.
        let april = Value::from("April");
        let august = Value::from("August");
        let january = Value::from("January");
        assert!(april < august);
        assert!(august < january);
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1969, 12, 31),
            (2000, 2, 29),
            (1990, 1, 1),
            (2026, 6, 14),
            (1600, 3, 1),
            (2400, 12, 31),
        ] {
            let days = days_from_date(y, m, d);
            assert_eq!(date_from_days(days), (y, m, d), "roundtrip for {y}-{m}-{d}");
        }
        assert_eq!(days_from_date(1970, 1, 1), 0);
        assert_eq!(days_from_date(1970, 1, 2), 1);
        assert_eq!(days_from_date(1969, 12, 31), -1);
    }

    #[test]
    fn dates_order_chronologically() {
        let a = Value::Date(days_from_date(1999, 12, 31));
        let b = Value::Date(days_from_date(2000, 1, 1));
        assert!(a < b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::from("hi").to_string(), "'hi'");
        assert_eq!(
            Value::Date(days_from_date(2001, 2, 3)).to_string(),
            "2001-02-03"
        );
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::from("x").as_int(), None);
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::Int(1).as_str(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn hash_consistent_with_eq_for_int_float() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
    }

    #[test]
    fn signed_zeros_hash_and_group_as_one_value() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::HashMap;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        let zeros = [Value::Float(-0.0), Value::Float(0.0), Value::Int(0)];
        for zero in &zeros {
            assert_eq!(zero, &zeros[0]);
            assert_eq!(h(zero), h(&zeros[0]), "{zero:?} hashes apart");
        }
        let mut groups: HashMap<Value, usize> = HashMap::new();
        for zero in zeros {
            *groups.entry(zero).or_default() += 1;
        }
        assert_eq!(groups.len(), 1);
        assert_eq!(groups.into_values().next(), Some(3));
    }

    #[test]
    fn mixed_types_have_stable_total_order() {
        let mut vals = [
            Value::from("zzz"),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Date(10),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(5));
        assert_eq!(vals[3], Value::from("zzz"));
        assert_eq!(vals[4], Value::Date(10));
    }
}
