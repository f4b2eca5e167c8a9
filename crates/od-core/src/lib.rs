//! # od-core — core types for lexicographic order dependencies
//!
//! This crate provides the foundational vocabulary of the paper *Fundamentals of
//! Order Dependencies* (Szlichta, Godfrey, Gryz — PVLDB 5(11), 2012):
//!
//! * [`Attribute`]s and [`Schema`]s (the paper's set of attributes `U`),
//! * [`AttrList`] — **lists** of attributes (the paper works with lists, not sets,
//!   because `ORDER BY` is positional) and [`AttrSet`] — sets of attributes for the
//!   functional-dependency side of the theory,
//! * typed [`Value`]s, [`Tuple`]s and [`Relation`] instances,
//! * the lexicographic comparison operators `≼`, `≺` and `=_X` of Definitions 1–3
//!   ([`lex`] module),
//! * the dependency statements themselves: [`OrderDependency`] (`X ↦ Y`),
//!   [`OrderEquivalence`] (`X ↔ Y`), [`OrderCompatibility`] (`X ~ Y`) and
//!   [`FunctionalDependency`] (`X → Y`),
//! * instance-level satisfaction checking with explicit **split** / **swap**
//!   violation witnesses (Definitions 13–14, Theorem 15) in the [`check`] module.
//!
//! ## Evidence, not booleans: `Verdict` / `g3` semantics
//!
//! Validators across the workspace answer with **violation evidence**.  Here,
//! [`check::od_evidence`] returns exact split/swap pair counts and the
//! minimal number of tuples whose removal makes the OD hold — the numerator
//! of the TANE-style `g3` error (`removal / n`); an OD is ε-approximately
//! valid iff that count stays within `⌊ε·n⌋`.  The partition-backed layers
//! ([`Relation::rank_column`] supplies their order-preserving integer codes)
//! return the same measure per canonical statement as a `Verdict`, and the
//! streaming ledgers maintain it incrementally; differential tests pin all
//! three against each other.
//!
//! ## The set ↔ list canonical translation, briefly
//!
//! The paper works with attribute **lists**; the follow-up set-based
//! discovery line (implemented in `od-setbased`) works with context
//! statements over attribute **sets**.  The bridge is exact: a list OD
//! `X ↦ Y` holds iff all of its *constancy* statements (`set(X) : [] ↦ Bj` —
//! no splits; this is the FD `set(X) → set(Y)` of Lemma 1) and *compatibility*
//! statements (`{A1..Ai−1, B1..Bj−1} : Ai ~ Bj` — no swaps) hold.  The
//! translation and its round trip live in `od-setbased::canonical`; the
//! [`AttrList`] / [`AttrSet`] pair in this crate is what makes both sides
//! first-class.
//!
//! Higher layers build on this crate: `od-infer` implements the axiom system and
//! the implication machinery, `od-engine`/`od-optimizer` implement the query
//! processing substrate used by the paper's motivating examples, `od-workload`
//! generates the date-warehouse style data used in the experiments, and
//! `od-discovery`/`od-setbased` implement snapshot discovery plus streaming
//! maintenance on top of the rank codes and evidence checkers defined here.
//!
//! ## Quick example
//!
//! ```
//! use od_core::{Schema, Relation, Value, OrderDependency, check::check_od};
//!
//! let mut schema = Schema::new("taxes");
//! let income = schema.add_attr("income");
//! let bracket = schema.add_attr("bracket");
//!
//! let rows = [(10_000i64, 1i64), (50_000, 2), (90_000, 3)]
//!     .map(|(i, b)| vec![Value::from(i), Value::from(b)]);
//! let rel = Relation::from_rows(schema, rows).unwrap();
//!
//! // [income] orders [bracket]
//! let od = OrderDependency::new(vec![income], vec![bracket]);
//! assert!(check_od(&rel, &od).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod check;
pub mod columnar;
pub mod dep;
pub mod error;
pub mod fixtures;
pub mod lex;
pub mod list;
pub mod radix;
pub mod relation;
pub mod set;
pub mod value;
pub mod wire;

pub use attr::{AttrId, Attribute, DataType, Schema};
pub use check::{check_od, od_holds, Violation};
pub use columnar::{ColumnarEncoding, EncodedColumn};
pub use dep::{FunctionalDependency, OrderCompatibility, OrderDependency, OrderEquivalence};
pub use error::{CoreError, Result};
pub use lex::{lex_cmp, lex_eq, lex_le, lex_lt};
pub use list::AttrList;
pub use relation::{Relation, Tuple};
pub use set::{AttrSet, AttrSetIter};
pub use value::{date_from_days, days_from_date, Value};
