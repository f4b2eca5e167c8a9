//! Million-row scale workload for the columnar core.
//!
//! The paper's motivating workloads (dates, star, tax) are shaped for
//! *semantic* coverage; this module is shaped for *throughput* measurement:
//! seeded, deterministic relations of up to a million rows mixing the column
//! profiles that exercise the columnar encoder and radix partition refinement
//! differently:
//!
//! * `ts` — a strictly increasing event timestamp (row `i` draws from
//!   `[8i, 8i + 8)`), i.e. a key column: dense codes `0..n`, every partition
//!   strips to nothing;
//! * `ts_day` — `ts / 8192`, a coarsening of `ts`, so the exact OD
//!   `[ts] ↦ [ts_day]` holds by construction (the scale analogue of the
//!   date-hierarchy ODs of Figure 2);
//! * `zipf_key` — zipfian-distributed keys (a few values own most rows:
//!   large partition classes, the radix bucketing's worst/best case);
//! * `zipf_band` — `zipf_key / 32`, so `[zipf_key] ↦ [zipf_band]` holds;
//! * `noisy_rank` — `i` plus bounded noise: *sorted with noise*, making the
//!   empty-context compatibility `{} : ts ~ noisy_rank` an approximate OD
//!   (small g3) — the ε > 0 material;
//! * `payload` — near-unique uniform noise (wide dictionaries, tiny classes).
//!
//! Generation is `O(rows)` per column off one [`StdRng`] stream, so the same
//! `(rows, seed)` always produces the identical relation, bit for bit — the
//! `benchmark` package's `profile-scale` workload and the E17 experiment
//! set up from it, and od-setbased's `columnar_differential.rs` checks
//! partitions and products on a 20k-row cut of it.

use od_core::{DataType, OrderDependency, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of one scale relation: row count, RNG seed, and the zipfian profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Number of rows to generate.
    pub rows: usize,
    /// Seed of the single RNG stream all columns draw from.
    pub seed: u64,
    /// Distinct `zipf_key` values (codomain `0..zipf_domain`).
    pub zipf_domain: usize,
    /// Zipf exponent `s` (weight of value `k` is `1 / (k + 1)^s`).
    pub zipf_exponent: f64,
    /// Half-width of the `noisy_rank` perturbation: row `i` carries
    /// `i + u` with `u` uniform in `[-noise, noise]`.
    pub noise: i64,
}

/// The 1M-row preset.
pub const SCALE_1M: ScaleConfig = ScaleConfig {
    rows: 1_000_000,
    seed: 0x0D5C_A1E1,
    zipf_domain: 1024,
    zipf_exponent: 1.1,
    noise: 32,
};

impl ScaleConfig {
    /// The preset scaled down to `rows` rows (smoke runs and tests shrink
    /// the table this way rather than inventing a different distribution).
    pub fn with_rows(self, rows: usize) -> Self {
        ScaleConfig { rows, ..self }
    }
}

/// Column layout of the scale table (all integer-typed: the homogeneous
/// fast path of the columnar encoder).
pub fn scale_schema() -> Schema {
    let mut s = Schema::new("scale");
    s.add_typed_attr("ts", DataType::Integer);
    s.add_typed_attr("ts_day", DataType::Integer);
    s.add_typed_attr("zipf_key", DataType::Integer);
    s.add_typed_attr("zipf_band", DataType::Integer);
    s.add_typed_attr("noisy_rank", DataType::Integer);
    s.add_typed_attr("payload", DataType::Integer);
    s
}

/// Cumulative zipf weights over `0..domain`: `cum[k]` is the total weight of
/// values `0..=k`, so a uniform draw in `[0, cum[domain − 1])` inverts to a
/// zipf-distributed value by binary search.
fn zipf_cumulative(domain: usize, exponent: f64) -> Vec<f64> {
    let mut cum = Vec::with_capacity(domain);
    let mut total = 0.0f64;
    for k in 0..domain {
        total += 1.0 / ((k + 1) as f64).powf(exponent);
        cum.push(total);
    }
    cum
}

/// Generate the raw rows of a scale relation (benchmarks call this first so
/// [`Relation::from_rows`] — including its columnar encode — can be timed
/// separately from data generation).
pub fn generate_scale_rows(cfg: &ScaleConfig) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cum = zipf_cumulative(cfg.zipf_domain.max(1), cfg.zipf_exponent);
    let total = *cum.last().expect("domain >= 1");
    let mut rows = Vec::with_capacity(cfg.rows);
    for i in 0..cfg.rows as i64 {
        // Strictly increasing: rows draw from disjoint 8-wide windows.
        let ts = i * 8 + rng.gen_range(0i64..8);
        let ts_day = ts / 8192;
        // 53 uniform bits → [0, 1) → invert the cumulative weights.
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let zipf_key = cum.partition_point(|&c| c <= unit * total) as i64;
        let zipf_band = zipf_key / 32;
        let noisy_rank = i + rng.gen_range(-cfg.noise..=cfg.noise);
        let payload = rng.gen_range(0i64..1_000_000);
        rows.push(vec![
            Value::Int(ts),
            Value::Int(ts_day),
            Value::Int(zipf_key),
            Value::Int(zipf_band),
            Value::Int(noisy_rank),
            Value::Int(payload),
        ]);
    }
    rows
}

/// Generate a scale relation, encoded once by [`Relation::from_rows`].
pub fn scale_relation(cfg: &ScaleConfig) -> Relation {
    Relation::from_rows(scale_schema(), generate_scale_rows(cfg)).expect("schema-conformant rows")
}

/// The exact ODs the scale table satisfies by construction:
/// `[ts] ↦ [ts_day]` and `[zipf_key] ↦ [zipf_band]`.
pub fn scale_ods(schema: &Schema) -> Vec<OrderDependency> {
    let attr = |name: &str| {
        schema
            .attr_by_name(name)
            .unwrap_or_else(|_| panic!("scale schema has {name}"))
    };
    vec![
        OrderDependency::new(vec![attr("ts")], vec![attr("ts_day")]),
        OrderDependency::new(vec![attr("zipf_key")], vec![attr("zipf_band")]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::check::od_holds;
    use od_core::AttrId;

    fn tiny() -> ScaleConfig {
        SCALE_1M.with_rows(5_000)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_scale_rows(&tiny());
        let b = generate_scale_rows(&tiny());
        assert_eq!(a, b);
        let other = generate_scale_rows(&ScaleConfig { seed: 7, ..tiny() });
        assert_ne!(a, other, "a different seed must change the data");
    }

    #[test]
    fn constructed_ods_hold_and_ts_is_a_key() {
        let rel = scale_relation(&tiny());
        for od in scale_ods(rel.schema()) {
            assert!(od_holds(&rel, &od), "{od} must hold by construction");
        }
        // ts strictly increasing ⇒ dense codes are exactly 0..n.
        let ts_codes = rel.rank_column(AttrId(0));
        assert!(ts_codes.iter().enumerate().all(|(i, &c)| c == i as u32));
    }

    #[test]
    fn zipf_skews_and_noise_perturbs() {
        let rel = scale_relation(&tiny());
        let n = rel.len();
        // Zipf head: value 0 should own far more than a uniform share.
        let zipf = rel.rank_column(AttrId(2));
        let head = zipf.iter().filter(|&&c| c == 0).count();
        assert!(
            head * SCALE_1M.zipf_domain > 4 * n,
            "zipf head owns {head}/{n} rows — not skewed enough"
        );
        // noisy_rank is locally shuffled (some adjacent inversions exist) but
        // globally sorted: beyond the ±noise window, order is never violated.
        // That is exactly the "approximate OD with small g3" profile.
        let noisy = rel.rank_column(AttrId(4));
        let adjacent_inversions = noisy.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(
            adjacent_inversions > 0,
            "noise must produce some inversions"
        );
        let lag = 2 * SCALE_1M.noise as usize + 1;
        assert!(
            (0..n - lag).all(|i| noisy[i] < noisy[i + lag]),
            "beyond the noise window the column must be strictly increasing"
        );
    }
}
