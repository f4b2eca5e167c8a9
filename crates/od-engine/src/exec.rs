//! Physical plans and a materializing executor.
//!
//! The operator repertoire is exactly what the paper's optimization scenarios
//! need: table scans, ordered and range index scans, partition-pruned scans,
//! filters, projections, sorts, a hash equi-join, hash- and stream-based
//! aggregation and distinct, and limit.  Every execution returns [`Metrics`]
//! recording how much work was done (rows scanned, sorts performed and their
//! input sizes, partitions touched, index probes) — the quantities the OD-aware
//! rewrites are supposed to reduce.

use crate::expr::Expr;
use crate::table::Catalog;
use od_core::{lex_cmp, AttrId, AttrList, Schema, Tuple, Value};
use std::collections::HashMap;
use std::ops::Bound;

/// A materialized intermediate result: a schema plus rows.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Column layout of `rows`.
    pub schema: Schema,
    /// The tuples.
    pub rows: Vec<Tuple>,
}

impl Batch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column index by name (panics if absent — executor-internal use).
    pub fn col(&self, name: &str) -> AttrId {
        self.schema.attr_by_name(name).expect("column exists")
    }
}

/// Work counters accumulated during execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Rows produced by the root operator.
    pub rows_output: u64,
    /// Number of explicit sort operations performed.
    pub sorts_performed: u64,
    /// Total rows fed into sort operations.
    pub sort_rows: u64,
    /// Partitions read (for partitioned scans).
    pub partitions_scanned: u64,
    /// Partitions that exist on scanned partitioned tables.
    pub partitions_total: u64,
    /// Point probes into indexes (e.g. the two probes of the date rewrite).
    pub index_probes: u64,
    /// Rows that crossed a join operator (both sides).
    pub join_input_rows: u64,
}

/// Aggregate functions supported by the aggregation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(column)`.
    Sum(AttrId),
    /// `MIN(column)`.
    Min(AttrId),
    /// `MAX(column)`.
    Max(AttrId),
}

/// A physical query plan.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Full scan of a stored table.
    TableScan {
        /// Table name in the catalog.
        table: String,
    },
    /// Scan a table in the order of one of its indexes (no sort needed afterwards).
    IndexOrderedScan {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
    },
    /// Range scan on the leading column of an index.
    IndexRangeScan {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Inclusive lower bound on the leading key column.
        lo: Value,
        /// Inclusive upper bound on the leading key column.
        hi: Value,
    },
    /// Scan of a partitioned table with partition pruning for an inclusive range
    /// on the partitioning column.
    PrunedPartitionScan {
        /// Table name.
        table: String,
        /// Inclusive lower bound on the partitioning column.
        lo: Value,
        /// Inclusive upper bound on the partitioning column.
        hi: Value,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate over the input schema.
        predicate: Expr,
    },
    /// Project (and rename) columns.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Columns to keep, in output order.
        columns: Vec<AttrId>,
        /// Output names (same length as `columns`).
        names: Vec<String>,
    },
    /// Explicit sort by an attribute list.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort key.
        by: AttrList,
    },
    /// Hash equi-join on single key columns; output schema is the concatenation
    /// of both input schemas (right columns prefixed by the right schema name).
    HashJoin {
        /// Left (probe) input.
        left: Box<PhysicalPlan>,
        /// Right (build) input.
        right: Box<PhysicalPlan>,
        /// Join key column in the left schema.
        left_key: AttrId,
        /// Join key column in the right schema.
        right_key: AttrId,
    },
    /// Aggregation over a *sorted* input stream: groups are emitted on the fly;
    /// requires the input to be sorted so that equal group keys are adjacent.
    StreamAggregate {
        /// Input plan (must be ordered compatibly with `group_by`).
        input: Box<PhysicalPlan>,
        /// Grouping columns, in order.
        group_by: AttrList,
        /// Aggregates to compute.
        aggregates: Vec<Aggregate>,
    },
    /// Hash aggregation (no ordering requirement).
    HashAggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping columns.
        group_by: Vec<AttrId>,
        /// Aggregates to compute.
        aggregates: Vec<Aggregate>,
    },
    /// First `n` rows.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Row budget.
        n: usize,
    },
}

impl PhysicalPlan {
    /// Count the sort operators in the plan (a static plan-quality metric used by
    /// the experiments alongside the runtime metrics).
    pub fn sort_count(&self) -> usize {
        match self {
            PhysicalPlan::Sort { input, .. } => 1 + input.sort_count(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::StreamAggregate { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.sort_count(),
            PhysicalPlan::HashJoin { left, right, .. } => left.sort_count() + right.sort_count(),
            _ => 0,
        }
    }

    /// Render the plan as an indented tree (for examples and EXPERIMENTS.md).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let line = match self {
            PhysicalPlan::TableScan { table } => format!("TableScan {table}"),
            PhysicalPlan::IndexOrderedScan { table, index } => {
                format!("IndexOrderedScan {table} via {index}")
            }
            PhysicalPlan::IndexRangeScan {
                table,
                index,
                lo,
                hi,
            } => {
                format!("IndexRangeScan {table} via {index} [{lo} .. {hi}]")
            }
            PhysicalPlan::PrunedPartitionScan { table, lo, hi } => {
                format!("PrunedPartitionScan {table} [{lo} .. {hi}]")
            }
            PhysicalPlan::Filter { .. } => "Filter".to_string(),
            PhysicalPlan::Project { names, .. } => format!("Project [{}]", names.join(", ")),
            PhysicalPlan::Sort { by, .. } => format!("Sort by {by}"),
            PhysicalPlan::HashJoin { .. } => "HashJoin".to_string(),
            PhysicalPlan::StreamAggregate { group_by, .. } => {
                format!("StreamAggregate group by {group_by}")
            }
            PhysicalPlan::HashAggregate { .. } => "HashAggregate".to_string(),
            PhysicalPlan::Limit { n, .. } => format!("Limit {n}"),
        };
        out.push_str(&pad);
        out.push_str(&line);
        out.push('\n');
        match self {
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::StreamAggregate { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.explain_into(out, depth + 1),
            PhysicalPlan::HashJoin { left, right, .. } => {
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            _ => {}
        }
    }
}

/// Execute a plan against a catalog, returning the result batch and metrics.
pub fn execute(plan: &PhysicalPlan, catalog: &Catalog) -> (Batch, Metrics) {
    let mut metrics = Metrics::default();
    let batch = run(plan, catalog, &mut metrics);
    metrics.rows_output = batch.rows.len() as u64;
    (batch, metrics)
}

fn run(plan: &PhysicalPlan, catalog: &Catalog, m: &mut Metrics) -> Batch {
    match plan {
        PhysicalPlan::TableScan { table } => {
            let t = catalog
                .table(table)
                .unwrap_or_else(|| panic!("unknown table {table}"));
            m.rows_scanned += t.row_count() as u64;
            Batch {
                schema: t.schema().clone(),
                rows: t.relation.tuples(),
            }
        }
        PhysicalPlan::IndexOrderedScan { table, index } => {
            let t = catalog
                .table(table)
                .unwrap_or_else(|| panic!("unknown table {table}"));
            let ix = t
                .indexes
                .iter()
                .find(|ix| ix.name == *index)
                .unwrap_or_else(|| panic!("unknown index {index}"));
            m.rows_scanned += t.row_count() as u64;
            let rows = ix.ordered_row_ids().map(|i| t.relation.tuple(i)).collect();
            Batch {
                schema: t.schema().clone(),
                rows,
            }
        }
        PhysicalPlan::IndexRangeScan {
            table,
            index,
            lo,
            hi,
        } => {
            let t = catalog
                .table(table)
                .unwrap_or_else(|| panic!("unknown table {table}"));
            let ix = t
                .indexes
                .iter()
                .find(|ix| ix.name == *index)
                .unwrap_or_else(|| panic!("unknown index {index}"));
            let ids = ix.range_row_ids(Bound::Included(lo), Bound::Included(hi));
            m.rows_scanned += ids.len() as u64;
            m.index_probes += 2;
            let rows = ids.into_iter().map(|i| t.relation.tuple(i)).collect();
            Batch {
                schema: t.schema().clone(),
                rows,
            }
        }
        PhysicalPlan::PrunedPartitionScan { table, lo, hi } => {
            let t = catalog
                .table(table)
                .unwrap_or_else(|| panic!("unknown table {table}"));
            let part = t
                .partitioning
                .as_ref()
                .unwrap_or_else(|| panic!("table {table} is not partitioned"));
            m.partitions_total += part.partitions.len() as u64;
            let live = part.prune(lo, hi);
            m.partitions_scanned += live.len() as u64;
            let mut rows = Vec::new();
            for p in live {
                for &r in &p.rows {
                    rows.push(t.relation.tuple(r));
                }
            }
            m.rows_scanned += rows.len() as u64;
            Batch {
                schema: t.schema().clone(),
                rows,
            }
        }
        PhysicalPlan::Filter { input, predicate } => {
            let mut b = run(input, catalog, m);
            b.rows.retain(|r| predicate.eval_bool(r));
            b
        }
        PhysicalPlan::Project {
            input,
            columns,
            names,
        } => {
            let b = run(input, catalog, m);
            let mut schema = Schema::new(b.schema.name().to_string());
            for (c, n) in columns.iter().zip(names) {
                let dt = b.schema.attr(*c).map(|a| a.data_type).unwrap_or_default();
                schema.add_typed_attr(n.clone(), dt);
            }
            let rows = b
                .rows
                .iter()
                .map(|r| columns.iter().map(|c| r[c.index()].clone()).collect())
                .collect();
            Batch { schema, rows }
        }
        PhysicalPlan::Sort { input, by } => {
            let mut b = run(input, catalog, m);
            m.sorts_performed += 1;
            m.sort_rows += b.rows.len() as u64;
            b.rows.sort_by(|x, y| lex_cmp(x, y, by));
            b
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = run(left, catalog, m);
            let r = run(right, catalog, m);
            m.join_input_rows += (l.len() + r.len()) as u64;
            // Build on the right.
            let mut build: HashMap<Value, Vec<usize>> = HashMap::new();
            for (i, row) in r.rows.iter().enumerate() {
                build
                    .entry(row[right_key.index()].clone())
                    .or_default()
                    .push(i);
            }
            let mut schema = Schema::new(format!("{}_join_{}", l.schema.name(), r.schema.name()));
            for a in l.schema.attributes() {
                schema.add_typed_attr(a.name.clone(), a.data_type);
            }
            for a in r.schema.attributes() {
                schema.add_typed_attr(format!("{}.{}", r.schema.name(), a.name), a.data_type);
            }
            let mut rows = Vec::new();
            for lrow in &l.rows {
                if let Some(matches) = build.get(&lrow[left_key.index()]) {
                    for &ri in matches {
                        let mut out = lrow.clone();
                        out.extend(r.rows[ri].iter().cloned());
                        rows.push(out);
                    }
                }
            }
            Batch { schema, rows }
        }
        PhysicalPlan::StreamAggregate {
            input,
            group_by,
            aggregates,
        } => {
            let b = run(input, catalog, m);
            let mut schema = aggregate_schema(&b.schema, group_by.as_slice(), aggregates);
            schema = rename_schema(schema, "stream_agg");
            let mut rows: Vec<Tuple> = Vec::new();
            let mut group_start = 0usize;
            for i in 0..=b.rows.len() {
                let boundary = i == b.rows.len()
                    || (i > 0
                        && lex_cmp(&b.rows[i], &b.rows[group_start], group_by)
                            != std::cmp::Ordering::Equal);
                if i == b.rows.len() && b.rows.is_empty() {
                    break;
                }
                if boundary {
                    rows.push(finish_group(
                        &b.rows[group_start..i],
                        group_by.as_slice(),
                        aggregates,
                    ));
                    group_start = i;
                }
            }
            Batch { schema, rows }
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggregates,
        } => {
            let b = run(input, catalog, m);
            let key_list: AttrList = group_by.iter().copied().collect();
            let mut schema = aggregate_schema(&b.schema, key_list.as_slice(), aggregates);
            schema = rename_schema(schema, "hash_agg");
            let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, row) in b.rows.iter().enumerate() {
                let key: Vec<Value> = group_by.iter().map(|a| row[a.index()].clone()).collect();
                groups.entry(key).or_default().push(i);
            }
            let mut rows: Vec<Tuple> = groups
                .values()
                .map(|ids| {
                    let members: Vec<Tuple> = ids.iter().map(|&i| b.rows[i].clone()).collect();
                    finish_group(&members, key_list.as_slice(), aggregates)
                })
                .collect();
            // Deterministic output order for testability.
            rows.sort();
            Batch { schema, rows }
        }
        PhysicalPlan::Limit { input, n } => {
            let mut b = run(input, catalog, m);
            b.rows.truncate(*n);
            b
        }
    }
}

fn rename_schema(schema: Schema, name: &str) -> Schema {
    let mut out = Schema::new(name);
    for a in schema.attributes() {
        out.add_typed_attr(a.name.clone(), a.data_type);
    }
    out
}

fn aggregate_schema(input: &Schema, group_by: &[AttrId], aggs: &[Aggregate]) -> Schema {
    let mut schema = Schema::new("agg");
    for a in group_by {
        let attr = input.attr(*a).expect("group-by column exists");
        schema.add_typed_attr(attr.name.clone(), attr.data_type);
    }
    for (i, agg) in aggs.iter().enumerate() {
        let name = match agg {
            Aggregate::CountStar => format!("count_{i}"),
            Aggregate::Sum(c) => format!("sum_{}", input.attr_name(*c)),
            Aggregate::Min(c) => format!("min_{}", input.attr_name(*c)),
            Aggregate::Max(c) => format!("max_{}", input.attr_name(*c)),
        };
        schema.add_attr(name);
    }
    schema
}

fn finish_group(rows: &[Tuple], group_by: &[AttrId], aggs: &[Aggregate]) -> Tuple {
    let mut out: Tuple = group_by
        .iter()
        .map(|a| rows[0][a.index()].clone())
        .collect();
    for agg in aggs {
        let v = match agg {
            Aggregate::CountStar => Value::Int(rows.len() as i64),
            Aggregate::Sum(c) => Value::Int(
                rows.iter()
                    .filter_map(|r| r[c.index()].as_int())
                    .sum::<i64>(),
            ),
            Aggregate::Min(c) => rows
                .iter()
                .map(|r| r[c.index()].clone())
                .min()
                .unwrap_or(Value::Null),
            Aggregate::Max(c) => rows
                .iter()
                .map(|r| r[c.index()].clone())
                .max()
                .unwrap_or(Value::Null),
        };
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::table::Table;
    use od_core::Relation;

    fn catalog() -> Catalog {
        // orders(day, item, qty) with an index on (day, item).
        let mut schema = Schema::new("orders");
        let day = schema.add_attr("day");
        let item = schema.add_attr("item");
        let _qty = schema.add_attr("qty");
        let rows: Vec<Tuple> = (0..20)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i % 3), Value::Int(i)])
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let mut t = Table::new(rel);
        t.add_index("ix_day_item", AttrList::new([day, item]));
        t.partition_by(day, 5);
        let mut c = Catalog::new();
        c.add_table(t);
        c
    }

    #[test]
    fn table_scan_and_filter() {
        let c = catalog();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::TableScan {
                table: "orders".into(),
            }),
            predicate: Expr::col(AttrId(0)).cmp(CmpOp::Eq, Expr::lit(2i64)),
        };
        let (batch, metrics) = execute(&plan, &c);
        assert_eq!(batch.len(), 4);
        assert_eq!(metrics.rows_scanned, 20);
        assert_eq!(metrics.rows_output, 4);
    }

    #[test]
    fn sort_and_index_scan_agree_and_sorts_are_counted() {
        let c = catalog();
        let by = AttrList::new([AttrId(0), AttrId(1)]);
        let sorted = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::TableScan {
                table: "orders".into(),
            }),
            by: by.clone(),
        };
        let via_index = PhysicalPlan::IndexOrderedScan {
            table: "orders".into(),
            index: "ix_day_item".into(),
        };
        let (b1, m1) = execute(&sorted, &c);
        let (b2, m2) = execute(&via_index, &c);
        assert_eq!(m1.sorts_performed, 1);
        assert_eq!(m2.sorts_performed, 0);
        assert_eq!(sorted.sort_count(), 1);
        assert_eq!(via_index.sort_count(), 0);
        // Same multiset of rows, both ordered by (day, item).
        let key = |r: &Tuple| (r[0].clone(), r[1].clone());
        let k1: Vec<_> = b1.rows.iter().map(key).collect();
        let k2: Vec<_> = b2.rows.iter().map(key).collect();
        assert_eq!(k1, k2);
    }

    #[test]
    fn range_scan_and_partition_pruning() {
        let c = catalog();
        let range = PhysicalPlan::IndexRangeScan {
            table: "orders".into(),
            index: "ix_day_item".into(),
            lo: Value::Int(1),
            hi: Value::Int(2),
        };
        let (b, m) = execute(&range, &c);
        assert_eq!(b.len(), 8);
        assert_eq!(m.index_probes, 2);

        let pruned = PhysicalPlan::PrunedPartitionScan {
            table: "orders".into(),
            lo: Value::Int(1),
            hi: Value::Int(2),
        };
        let (b2, m2) = execute(&pruned, &c);
        assert_eq!(b2.len(), 8);
        assert_eq!(m2.partitions_total, 5);
        assert_eq!(m2.partitions_scanned, 2);
    }

    #[test]
    fn hash_and_stream_aggregation_agree() {
        let c = catalog();
        let aggs = vec![Aggregate::CountStar, Aggregate::Sum(AttrId(2))];
        let hash = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::TableScan {
                table: "orders".into(),
            }),
            group_by: vec![AttrId(0)],
            aggregates: aggs.clone(),
        };
        let stream = PhysicalPlan::StreamAggregate {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::TableScan {
                    table: "orders".into(),
                }),
                by: AttrList::new([AttrId(0)]),
            }),
            group_by: AttrList::new([AttrId(0)]),
            aggregates: aggs,
        };
        let (hb, _) = execute(&hash, &c);
        let (mut sb, _) = execute(&stream, &c);
        sb.rows.sort();
        assert_eq!(hb.rows, sb.rows);
        assert_eq!(hb.len(), 5);
    }

    #[test]
    fn join_produces_combined_schema() {
        let mut c = catalog();
        let mut dim_schema = Schema::new("days");
        let dday = dim_schema.add_attr("day");
        let _name = dim_schema.add_attr("label");
        let rel = Relation::from_rows(
            dim_schema,
            (0..5)
                .map(|i| vec![Value::Int(i), Value::Str(format!("d{i}"))])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        c.add_table(Table::new(rel));
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::TableScan {
                table: "orders".into(),
            }),
            right: Box::new(PhysicalPlan::TableScan {
                table: "days".into(),
            }),
            left_key: AttrId(0),
            right_key: dday,
        };
        let (b, m) = execute(&plan, &c);
        assert_eq!(b.len(), 20);
        assert_eq!(b.schema.arity(), 5);
        assert!(b.schema.attr_by_name("days.label").is_ok());
        assert_eq!(m.join_input_rows, 25);
    }

    #[test]
    fn join_matches_keys_of_opposite_signed_zero() {
        // One-row tables keyed 0.0 and -0.0: the keys are equal, so the
        // join must return the combined row.
        let table = |name: &str, key: f64| {
            let mut schema = Schema::new(name);
            schema.add_attr("k");
            schema.add_attr("tag");
            let row = vec![Value::Float(key), Value::from(name)];
            Table::new(Relation::from_rows(schema, [row]).unwrap())
        };
        let mut c = Catalog::new();
        c.add_table(table("pos", 0.0));
        c.add_table(table("neg", -0.0));
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::TableScan {
                table: "pos".into(),
            }),
            right: Box::new(PhysicalPlan::TableScan {
                table: "neg".into(),
            }),
            left_key: AttrId(0),
            right_key: AttrId(0),
        };
        let (b, _) = execute(&plan, &c);
        assert_eq!(b.len(), 1, "0.0 and -0.0 keys must join");
        assert_eq!(b.rows[0][1], Value::from("pos"));
        assert_eq!(b.rows[0][3], Value::from("neg"));
    }

    #[test]
    fn project_and_limit() {
        let c = catalog();
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::TableScan {
                    table: "orders".into(),
                }),
                columns: vec![AttrId(2), AttrId(0)],
                names: vec!["qty".into(), "day".into()],
            }),
            n: 3,
        };
        let (b, _) = execute(&plan, &c);
        assert_eq!(b.len(), 3);
        assert_eq!(b.schema.arity(), 2);
        assert_eq!(b.schema.attr_name(AttrId(0)), "qty");
        assert_eq!(b.rows[0], vec![Value::Int(0), Value::Int(0)]);
    }

    #[test]
    fn stream_aggregate_on_empty_input() {
        let c = catalog();
        let plan = PhysicalPlan::StreamAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::TableScan {
                    table: "orders".into(),
                }),
                predicate: Expr::lit(false),
            }),
            group_by: AttrList::new([AttrId(0)]),
            aggregates: vec![Aggregate::CountStar],
        };
        let (b, _) = execute(&plan, &c);
        assert!(b.is_empty());
    }

    #[test]
    fn explain_renders_tree() {
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::TableScan {
                table: "orders".into(),
            }),
            by: AttrList::new([AttrId(0)]),
        };
        let text = plan.explain();
        assert!(text.contains("Sort"));
        assert!(text.contains("TableScan orders"));
    }

    #[test]
    fn min_max_aggregates() {
        let c = catalog();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::TableScan {
                table: "orders".into(),
            }),
            group_by: vec![],
            aggregates: vec![Aggregate::Min(AttrId(2)), Aggregate::Max(AttrId(2))],
        };
        let (b, _) = execute(&plan, &c);
        assert_eq!(b.rows, vec![vec![Value::Int(0), Value::Int(19)]]);
    }
}
