//! Monotonicity analysis of derived-column expressions.
//!
//! Section 2.2 (and reference \[12\], the DB2 generated-columns work) observes that
//! ODs can be *derived automatically* when a column is computed from another by a
//! monotone expression — e.g. `G = A/100 + A - 3` is non-decreasing in `A`, so
//! `[A] ↦ [G]` holds by construction.  [`monotonicity`] performs that analysis
//! over the engine's [`Expr`] AST and [`derived_column_ods`] turns the result
//! into OD statements.

use od_core::{AttrId, OrderDependency, Value};
use od_engine::Expr;

/// Monotonicity of an expression with respect to one input column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonicity {
    /// Non-decreasing in the column.
    Increasing,
    /// Non-increasing in the column.
    Decreasing,
    /// Does not depend on the column.
    Constant,
    /// Unknown / not monotone.
    Unknown,
}

impl Monotonicity {
    fn negate(self) -> Monotonicity {
        match self {
            Monotonicity::Increasing => Monotonicity::Decreasing,
            Monotonicity::Decreasing => Monotonicity::Increasing,
            other => other,
        }
    }

    fn combine_add(self, other: Monotonicity) -> Monotonicity {
        use Monotonicity::*;
        match (self, other) {
            (Constant, x) | (x, Constant) => x,
            (Increasing, Increasing) => Increasing,
            (Decreasing, Decreasing) => Decreasing,
            _ => Unknown,
        }
    }
}

/// Determine the monotonicity of `expr` with respect to column `col`.
///
/// The analysis is conservative: `Unknown` is returned whenever monotonicity
/// cannot be established structurally (e.g. multiplication of two column-
/// dependent factors, comparisons, or division by a column).
pub fn monotonicity(expr: &Expr, col: AttrId) -> Monotonicity {
    use Monotonicity::*;
    match expr {
        Expr::Column(a) => {
            if *a == col {
                Increasing
            } else {
                Unknown
            }
        }
        Expr::Literal(_) => Constant,
        Expr::Add(a, b) => monotonicity(a, col).combine_add(monotonicity(b, col)),
        Expr::Sub(a, b) => monotonicity(a, col).combine_add(monotonicity(b, col).negate()),
        Expr::Mul(a, b) | Expr::Div(a, b) => {
            // Monotone only when one side is a non-negative (for Mul) or positive
            // (for Div) literal and the other side is monotone.
            let scale = |lit: &Expr, operand: &Expr| -> Monotonicity {
                match lit {
                    Expr::Literal(v) => match v.as_float() {
                        Some(x) if x > 0.0 => monotonicity(operand, col),
                        Some(x) if x == 0.0 && matches!(expr, Expr::Mul(..)) => Constant,
                        Some(_) => monotonicity(operand, col).negate(),
                        None => Unknown,
                    },
                    _ => Unknown,
                }
            };
            match (&**a, &**b) {
                (Expr::Literal(_), _) if matches!(expr, Expr::Mul(..)) => scale(a, b),
                (_, Expr::Literal(_)) => scale(b, a),
                _ => Unknown,
            }
        }
        _ => Unknown,
    }
}

/// A derived (generated) column definition: a name and its defining expression.
#[derive(Debug, Clone)]
pub struct DerivedColumn {
    /// Name of the generated column.
    pub name: String,
    /// Position the generated column will occupy.
    pub id: AttrId,
    /// Defining expression over the base columns.
    pub expr: Expr,
}

/// ODs that hold by construction between base columns and derived columns:
/// `[base] ↦ [derived]` when the defining expression is non-decreasing in
/// `base`, and `[derived] ↦ [base]`... is *not* emitted (monotonicity alone does
/// not make the mapping invertible).
pub fn derived_column_ods(columns: &[DerivedColumn], base_cols: &[AttrId]) -> Vec<OrderDependency> {
    let mut out = Vec::new();
    for dc in columns {
        for &base in base_cols {
            if monotonicity(&dc.expr, base) == Monotonicity::Increasing {
                out.push(OrderDependency::new(vec![base], vec![dc.id]));
            }
        }
    }
    out
}

/// Evaluate a derived column over a tuple (convenience used by tests and the
/// experiments to materialize generated columns).
pub fn evaluate_derived(dc: &DerivedColumn, tuple: &od_core::Tuple) -> Value {
    dc.expr.eval(tuple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::check::od_holds;
    use od_core::{Relation, Schema};

    /// The related-work example: G = A/100 + A - 3 is monotone in A.
    fn g_expr(a: AttrId) -> Expr {
        Expr::Add(
            Box::new(Expr::Div(
                Box::new(Expr::col(a)),
                Box::new(Expr::lit(100i64)),
            )),
            Box::new(Expr::Sub(Box::new(Expr::col(a)), Box::new(Expr::lit(3i64)))),
        )
    }

    #[test]
    fn the_db2_generated_column_example_is_increasing() {
        let a = AttrId(0);
        assert_eq!(monotonicity(&g_expr(a), a), Monotonicity::Increasing);
        assert_eq!(monotonicity(&g_expr(a), AttrId(1)), Monotonicity::Unknown);
    }

    #[test]
    fn scaling_and_negation() {
        let a = AttrId(0);
        let neg = Expr::Mul(Box::new(Expr::lit(-2i64)), Box::new(Expr::col(a)));
        assert_eq!(monotonicity(&neg, a), Monotonicity::Decreasing);
        let scaled = Expr::Div(Box::new(Expr::col(a)), Box::new(Expr::lit(4i64)));
        assert_eq!(monotonicity(&scaled, a), Monotonicity::Increasing);
        let constant = Expr::lit(7i64);
        assert_eq!(monotonicity(&constant, a), Monotonicity::Constant);
        let non_mono = Expr::Mul(Box::new(Expr::col(a)), Box::new(Expr::col(a)));
        assert_eq!(monotonicity(&non_mono, a), Monotonicity::Unknown);
    }

    #[test]
    fn emitted_ods_hold_on_materialized_data() {
        let a = AttrId(0);
        let dc = DerivedColumn {
            name: "g".into(),
            id: AttrId(1),
            expr: g_expr(a),
        };
        let ods = derived_column_ods(std::slice::from_ref(&dc), &[a]);
        assert_eq!(ods.len(), 1);
        // Materialize a relation (a, g) and verify the OD empirically.
        let mut schema = Schema::new("generated");
        schema.add_attr("a");
        schema.add_attr("g");
        let rows = [-250i64, -3, 0, 7, 100, 99_999].map(|v| {
            let g = evaluate_derived(&dc, &vec![Value::Int(v)]);
            vec![Value::Int(v), g]
        });
        let rel = Relation::from_rows(schema, rows).unwrap();
        assert!(od_holds(&rel, &ods[0]));
    }

    #[test]
    fn subtraction_of_column_from_literal_is_decreasing() {
        let a = AttrId(0);
        let e = Expr::Sub(Box::new(Expr::lit(10i64)), Box::new(Expr::col(a)));
        assert_eq!(monotonicity(&e, a), Monotonicity::Decreasing);
    }
}
