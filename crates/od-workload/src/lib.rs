//! # od-workload — synthetic workloads for the order-dependency experiments
//!
//! Data generators and query suites standing in for the artifacts the paper
//! evaluates against (see DESIGN.md for the substitution argument):
//!
//! * [`dates`] — the calendar / `date_dim` dimension with the Figure 2 hierarchy
//!   ODs (and the Section 1 month-name trap), plus the denormalized
//!   `daily_sales` table used by the Example 1 experiment;
//! * [`star`] — the TPC-DS-style star schema (fact table keyed by date
//!   surrogate) and the 18-query date-predicate suite of Section 2.3;
//! * [`tax`] — the Example 5 progressive-tax workload;
//! * [`scale`] — seeded million-row relations (zipfian + sorted-with-noise
//!   columns) for the columnar core: the `benchmark` package's
//!   `profile-scale` workload sets up from them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dates;
pub mod scale;
pub mod star;
pub mod tax;

pub use dates::{
    daily_sales_table, date_dim_table, figure_2_ods, figure_2_odset, generate_date_dim,
};
pub use scale::{
    generate_scale_rows, scale_ods, scale_relation, scale_schema, ScaleConfig, SCALE_1M,
};
pub use star::{build_warehouse, date_query_suite, SuiteQuery, Warehouse, WarehouseConfig};
pub use tax::{generate_taxes, tax_odset, tax_table};
