//! Property 8 — Heterogeneous Context (paper §3.3, Measure 8; Table 5).
//!
//! Tables mix textual and non-textual data; context (a subject column, the
//! neighbours, the whole table) disambiguates the non-textual parts —
//! Figure 4's "45.00" is probably a price because "RON" sits next to it.
//! The measure compares single-column embeddings against contextual
//! embeddings of the same column under four input settings:
//!
//! (a) only the column; (b) + subject column (or the first textual column
//! as proxy); (c) + immediate neighbours; (d) the entire table.
//!
//! One cosine distribution per (context setting × textual/non-textual).

use crate::framework::{EvalContext, Property, PropertyReport};
use crate::props::common::column_as_table;
use observatory_linalg::vector::cosine;
use observatory_models::TableEncoder;
use observatory_obs as obs;
use observatory_table::subject::{neighbor_columns, subject_column};
use observatory_table::Table;

/// Property 8 evaluator.
#[derive(Debug, Clone, Default)]
pub struct HeterogeneousContext;

/// The three contextual settings compared against the single column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextSetting {
    SubjectColumn,
    NeighboringColumns,
    EntireTable,
}

impl ContextSetting {
    /// All settings in the paper's order.
    pub const ALL: [ContextSetting; 3] = [
        ContextSetting::SubjectColumn,
        ContextSetting::NeighboringColumns,
        ContextSetting::EntireTable,
    ];

    /// Label used in report records.
    pub fn label(&self) -> &'static str {
        match self {
            ContextSetting::SubjectColumn => "subject",
            ContextSetting::NeighboringColumns => "neighbors",
            ContextSetting::EntireTable => "table",
        }
    }
}

/// Whether a column counts as textual for the report split: by annotation
/// when present (SOTAB), by value inspection otherwise.
fn is_textual(col: &observatory_table::Column) -> bool {
    match col.semantic_type.as_deref() {
        Some(ty) => observatory_data::sotab::SemanticType::ALL
            .iter()
            .find(|t| t.label() == ty)
            .map_or_else(|| col.is_textual(), |t| t.is_textual()),
        None => col.is_textual(),
    }
}

impl Property for HeterogeneousContext {
    fn id(&self) -> &'static str {
        "P8"
    }

    fn name(&self) -> &'static str {
        "Heterogeneous Context"
    }

    fn evaluate(
        &self,
        model: &dyn TableEncoder,
        corpus: &[Table],
        ctx: &EvalContext,
    ) -> PropertyReport {
        let _span = obs::span(obs::Level::Info, "props", "P8")
            .with("model", model.name())
            .with("tables", corpus.len());
        let mut report = PropertyReport::new(self.id(), model.name());
        // records[setting][textual? 1 : 0]
        let mut values: Vec<[Vec<f64>; 2]> =
            ContextSetting::ALL.iter().map(|_| [Vec::new(), Vec::new()]).collect();
        for table in corpus {
            // Cancellation checkpoint: one table's variants form one
            // encode_batch, as in P1.
            if ctx.control.should_stop() {
                break;
            }
            let subject = subject_column(table);
            // Every variant of this table goes into one batch: the full
            // table first, then per column the column alone and its
            // subject and neighbour projections. `plans[j]` holds the
            // batch positions of column `j`'s variants.
            let mut variants = vec![table.clone()];
            let mut plans = Vec::with_capacity(table.num_cols());
            for j in 0..table.num_cols() {
                let mut push = |t: Table| {
                    variants.push(t);
                    variants.len() - 1
                };
                let single = push(column_as_table("single", &table.columns[j]));
                let with_subject =
                    subject.filter(|&s| s != j).map(|s| push(table.project(&[s, j])));
                let mut cols = neighbor_columns(table, j);
                let with_neighbors = (!cols.is_empty()).then(|| {
                    let pos = cols.iter().filter(|&&c| c < j).count();
                    cols.insert(pos, j);
                    (push(table.project(&cols)), pos)
                });
                plans.push((single, with_subject, with_neighbors));
            }
            let encodings = ctx.engine.encode_batch(model, &variants);
            for (j, (single, with_subject, with_neighbors)) in plans.into_iter().enumerate() {
                let Some(single) = encodings[single].column(0) else {
                    continue;
                };
                let slot = usize::from(is_textual(&table.columns[j]));
                // In `ContextSetting::ALL` order.
                let contextual = [
                    with_subject.and_then(|i| encodings[i].column(1)),
                    with_neighbors.and_then(|(i, pos)| encodings[i].column(pos)),
                    encodings[0].column(j),
                ];
                for (si, c) in contextual.into_iter().enumerate() {
                    if let Some(c) = c {
                        values[si][slot].push(cosine(&single, &c));
                    }
                }
            }
            ctx.control.advance(1);
        }
        for (si, setting) in ContextSetting::ALL.iter().enumerate() {
            let [non_textual, textual] = &values[si];
            report
                .push_distribution(format!("{}/non-textual", setting.label()), non_textual.clone());
            report.push_distribution(format!("{}/textual", setting.label()), textual.clone());
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::RunControl;
    use crate::report::render_report;
    use observatory_data::sotab::SotabConfig;
    use observatory_models::registry::model_by_name;
    use observatory_runtime::{Engine, EngineConfig};
    use observatory_stats::descriptive::mean;
    use std::sync::Arc;

    fn corpus() -> Vec<Table> {
        SotabConfig { num_tables: 6, rows: 6, seed: 77 }.generate()
    }

    #[test]
    fn all_six_distributions_present() {
        let model = model_by_name("bert").unwrap();
        let report =
            HeterogeneousContext.evaluate(model.as_ref(), &corpus(), &EvalContext::default());
        for setting in ["subject", "neighbors", "table"] {
            for split in ["textual", "non-textual"] {
                let label = format!("{setting}/{split}");
                let d = report.distribution(&label).unwrap_or_else(|| panic!("missing {label}"));
                assert!(d.values.iter().all(|v| (-1.0..=1.0).contains(v)));
            }
        }
    }

    #[test]
    fn entire_table_context_changes_embeddings_most() {
        // Paper Table 5: "incorporating context, especially the entire
        // table, can change column embeddings significantly".
        let model = model_by_name("bert").unwrap();
        let report =
            HeterogeneousContext.evaluate(model.as_ref(), &corpus(), &EvalContext::default());
        let subject = mean(&report.distribution("subject/non-textual").unwrap().values);
        let table = mean(&report.distribution("table/non-textual").unwrap().values);
        assert!(
            table < subject,
            "entire-table context {table:.4} should move embeddings more than subject context {subject:.4}"
        );
    }

    #[test]
    fn context_changes_embeddings_at_all() {
        let model = model_by_name("tapas").unwrap();
        let report =
            HeterogeneousContext.evaluate(model.as_ref(), &corpus(), &EvalContext::default());
        let table = report.distribution("table/non-textual").unwrap();
        assert!(table.values.iter().any(|v| *v < 1.0 - 1e-6));
    }

    /// Cancels its control on the first encode, so P8 is cancelled while
    /// it works on the first corpus table.
    struct CancelOnEncode {
        inner: Box<dyn TableEncoder>,
        control: RunControl,
    }

    impl TableEncoder for CancelOnEncode {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn display_name(&self) -> &str {
            self.inner.display_name()
        }
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn capabilities(&self) -> observatory_models::Capabilities {
            self.inner.capabilities()
        }
        fn encode_table(&self, table: &Table) -> observatory_models::ModelEncoding {
            self.control.cancel();
            self.inner.encode_table(table)
        }
        fn encode_text(&self, text: &str) -> Vec<f64> {
            self.inner.encode_text(text)
        }
    }

    #[test]
    fn cancel_stops_within_one_table() {
        let corpus = corpus();
        let control = RunControl::armed(None);
        let model =
            CancelOnEncode { inner: model_by_name("bert").unwrap(), control: control.clone() };
        // A private uncached engine: every variant reaches the model.
        let engine = Arc::new(Engine::new(EngineConfig::serial_uncached()));
        let ctx = EvalContext { seed: 42, engine, control: control.clone() };
        let cancelled = HeterogeneousContext.evaluate(&model, &corpus, &ctx);
        assert_eq!(control.units_done(), 1, "exactly the table in flight completes");
        // The partial report is exactly the report of the first table.
        let first = HeterogeneousContext.evaluate(
            model.inner.as_ref(),
            &corpus[..1],
            &EvalContext::default(),
        );
        assert_eq!(render_report(&cancelled), render_report(&first));
    }

    #[test]
    fn single_column_tables_yield_nothing() {
        use observatory_table::{Column, Value};
        let t = Table::new("t", vec![Column::new("a", vec![Value::Int(1), Value::Int(2)])]);
        let model = model_by_name("bert").unwrap();
        let report = HeterogeneousContext.evaluate(model.as_ref(), &[t], &EvalContext::default());
        // No subject-other column, no neighbours; only entire-table — which
        // equals the single column itself here, cosine 1.
        if let Some(d) = report.distribution("table/non-textual") {
            assert!(d.values.iter().all(|v| *v > 0.99));
        }
    }
}
