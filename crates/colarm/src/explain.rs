//! Structured `EXPLAIN` and `EXPLAIN ANALYZE` for localized mining
//! queries: what the optimizer saw, what it estimated, why it chose the
//! plan it chose — and, for ANALYZE, what the execution actually cost,
//! operator by operator, predicted vs. measured. Rendered by the CLI's
//! `:explain` / `:analyze` and available programmatically for tooling
//! (JSON via [`AnalyzeReport::to_json`]).

use crate::cost::{CostEstimate, CostTerm};
use crate::framework::Colarm;
use crate::error::ColarmError;
use crate::ops::OpKind;
use crate::optimizer::PlanChoice;
use crate::plan::{PlanKind, QueryAnswer};
use crate::query::LocalizedQuery;
use crate::stats::StatsSource;
use colarm_data::metrics::OpMetrics;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The optimizer's full view of one query, before execution.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// `|DQ|`.
    pub subset_size: usize,
    /// `|DQ| / |D|`.
    pub subset_fraction: f64,
    /// Absolute local minimum support count.
    pub minsupp_count: usize,
    /// Number of prestored MIPs the index holds.
    pub num_mips: usize,
    /// All six estimates, cheapest first.
    pub estimates: Vec<CostEstimate>,
    /// The chosen plan.
    pub chosen: PlanKind,
}

impl Explanation {
    /// Ratio between the runner-up's and the winner's estimates — how
    /// confident the argmin decision is (1.0 = dead heat).
    pub fn decision_margin(&self) -> f64 {
        if self.estimates.len() < 2 {
            return f64::INFINITY;
        }
        let best = self.estimates[0].total();
        if best <= 0.0 {
            return f64::INFINITY;
        }
        self.estimates[1].total() / best
    }

    /// The estimate of a specific plan.
    pub fn estimate_for(&self, plan: PlanKind) -> &CostEstimate {
        self.estimates
            .iter()
            .find(|e| e.plan == plan)
            .expect("all plans estimated")
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "focal subset: {} records ({:.1}% of D); minsupp count {}; {} MIPs prestored",
            self.subset_size,
            self.subset_fraction * 100.0,
            self.minsupp_count,
            self.num_mips
        )?;
        writeln!(
            f,
            "decision margin: runner-up is estimated {:.2}x the winner",
            self.decision_margin()
        )?;
        for est in &self.estimates {
            let marker = if est.plan == self.chosen { "→" } else { " " };
            let terms: Vec<String> = est
                .terms
                .iter()
                .map(|t| format!("{} {:.2e}", t.op, t.seconds))
                .collect();
            writeln!(
                f,
                "{marker} {:<10} {:.3e} s   [{}]",
                est.plan.name(),
                est.total(),
                terms.join(" + ")
            )?;
        }
        Ok(())
    }
}

/// One operator's row in an `EXPLAIN ANALYZE` report: the cost model's
/// prediction next to what the executor measured. Predictions are absent
/// for operators the model carries no term for (CLASSIFY — its work is
/// priced into its neighbours).
///
/// `measured_units` and `metrics` are exact, thread-count-independent
/// quantities; the two `*_seconds` fields are wall-clock and vary run to
/// run. `OpKind` serializes as its name string, keeping the JSON wire
/// format identical to the string-keyed days.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzedOp {
    /// The operator this row measures (typed; renders as the same name
    /// string the trace reports).
    pub op: OpKind,
    /// Raw units the cost model predicted for this operator.
    pub predicted_units: Option<f64>,
    /// Seconds the cost model predicted for this operator.
    pub predicted_seconds: Option<f64>,
    /// Input cardinality the operator saw.
    pub input: usize,
    /// Output cardinality it produced.
    pub output: usize,
    /// Raw units it actually consumed (the calibration quantity).
    pub measured_units: f64,
    /// Wall-clock seconds it took.
    pub measured_seconds: f64,
    /// Execution counters (`None` when the run had metrics reporting off).
    pub metrics: Option<OpMetrics>,
    /// Where the prediction's cardinality inputs came from — the
    /// statistics catalog or the global-average fallback. Absent for
    /// operators without a cost-model term.
    #[serde(default)]
    pub stats_source: Option<StatsSource>,
}

impl AnalyzedOp {
    /// `measured_units / predicted_units` — how far off the cardinality
    /// model was (`None` without a prediction or with a zero prediction).
    pub fn units_error(&self) -> Option<f64> {
        match self.predicted_units {
            Some(p) if p > 0.0 => Some(self.measured_units / p),
            _ => None,
        }
    }
}

/// Roll-up of the per-operator predicted-vs-measured rows: one line for
/// tooling that wants the headline numbers without walking `ops`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AnalyzeTotals {
    /// Sum of the operators' predicted seconds (rows with a prediction).
    pub predicted_seconds: f64,
    /// Sum of the operators' measured wall-clock seconds.
    pub measured_seconds: f64,
    /// `(measured - predicted) / predicted × 100` — signed percentage
    /// error of the roll-up (`None` when nothing was predicted).
    pub error_pct: Option<f64>,
}

impl AnalyzeTotals {
    fn from_ops(ops: &[AnalyzedOp]) -> AnalyzeTotals {
        let predicted_seconds: f64 = ops.iter().filter_map(|o| o.predicted_seconds).sum();
        let measured_seconds: f64 = ops.iter().map(|o| o.measured_seconds).sum();
        let error_pct = (predicted_seconds > 0.0)
            .then(|| (measured_seconds - predicted_seconds) / predicted_seconds * 100.0);
        AnalyzeTotals {
            predicted_seconds,
            measured_seconds,
            error_pct,
        }
    }
}

impl fmt::Display for AnalyzeTotals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total: predicted {:.3e} s / measured {:.3e} s / error ",
            self.predicted_seconds, self.measured_seconds
        )?;
        match self.error_pct {
            Some(pct) => write!(f, "{pct:+.1}%"),
            None => write!(f, "n/a"),
        }
    }
}

/// The full `EXPLAIN ANALYZE` view of one executed query: the optimizer's
/// six estimates, the executed plan, and per-operator predicted-vs-actual
/// accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzeReport {
    /// The plan that ran.
    pub plan: PlanKind,
    /// Whether the optimizer picked it (false for forced-plan runs).
    pub chosen_by_optimizer: bool,
    /// `|DQ|`.
    pub subset_size: usize,
    /// Absolute local minimum support count.
    pub minsupp_count: usize,
    /// Rules the execution produced.
    pub num_rules: usize,
    /// The executed plan's total predicted seconds.
    pub predicted_seconds: f64,
    /// Measured wall-clock seconds for the whole plan.
    pub actual_seconds: f64,
    /// All six estimates, cheapest first.
    pub estimates: Vec<CostEstimate>,
    /// Per-operator predicted-vs-actual rows, pipeline order.
    pub ops: Vec<AnalyzedOp>,
    /// One-line roll-up over `ops` (summed predicted / measured seconds
    /// and signed error percentage).
    #[serde(default)]
    pub totals: AnalyzeTotals,
    /// Where the executed plan's cardinality inputs came from — the
    /// statistics catalog or the global-average fallback.
    #[serde(default)]
    pub stats_source: StatsSource,
    /// Worker-pool activity over this execution ([`colarm_data::par`]
    /// counter deltas; `workers` is the pool's current size). The pool is
    /// process-global, so concurrent executions' tasks land in whichever
    /// report is in flight — treat as observability, not accounting.
    pub pool: colarm_data::par::PoolStats,
}

impl AnalyzeReport {
    pub(crate) fn new(
        answer: &QueryAnswer,
        choice: &PlanChoice,
        minsupp_count: usize,
        chosen_by_optimizer: bool,
        pool: colarm_data::par::PoolStats,
    ) -> AnalyzeReport {
        let estimate = choice.estimate_for(answer.plan);
        let ops = answer
            .trace
            .ops
            .iter()
            .map(|o| {
                let term: Option<&CostTerm> = estimate.term(o.kind);
                AnalyzedOp {
                    op: o.kind,
                    predicted_units: term.map(|t| t.units),
                    predicted_seconds: term.map(|t| t.seconds),
                    input: o.input,
                    output: o.output,
                    measured_units: o.units,
                    measured_seconds: o.duration.as_secs_f64(),
                    metrics: o.metrics,
                    stats_source: term.map(|t| t.stats_source),
                }
            })
            .collect::<Vec<_>>();
        let totals = AnalyzeTotals::from_ops(&ops);
        let stats_source = estimate
            .terms
            .first()
            .map(|t| t.stats_source)
            .unwrap_or(StatsSource::GlobalFallback);
        AnalyzeReport {
            plan: answer.plan,
            chosen_by_optimizer,
            subset_size: answer.subset_size,
            minsupp_count,
            num_rules: answer.rules.len(),
            predicted_seconds: estimate.total(),
            actual_seconds: answer.trace.total.as_secs_f64(),
            estimates: choice.estimates.clone(),
            ops,
            totals,
            stats_source,
            pool,
        }
    }

    /// The row of the named operator, if the plan ran it. Resolves
    /// through the typed kind's name, so string lookups stay robust.
    pub fn op(&self, name: &str) -> Option<&AnalyzedOp> {
        self.ops.iter().find(|o| o.op.name() == name)
    }

    /// The row of the given operator kind, if the plan ran it.
    pub fn op_kind(&self, kind: OpKind) -> Option<&AnalyzedOp> {
        self.ops.iter().find(|o| o.op == kind)
    }

    /// Total measured raw units across operators — matches
    /// [`crate::plan::ExecutionTrace::total_units`] for the same run, and
    /// is the quantity the optimizer's feedback accounting sums.
    pub fn total_measured_units(&self) -> f64 {
        self.ops.iter().map(|o| o.measured_units).sum()
    }

    /// Fieldwise sum of the per-operator execution counters (zero when
    /// the run had metrics reporting off).
    pub fn metrics_total(&self) -> OpMetrics {
        OpMetrics::fold(self.ops.iter().filter_map(|o| o.metrics.as_ref()))
    }

    /// `actual_seconds / predicted_seconds` (`None` on a zero prediction).
    pub fn time_error(&self) -> Option<f64> {
        if self.predicted_seconds > 0.0 {
            Some(self.actual_seconds / self.predicted_seconds)
        } else {
            None
        }
    }

    /// The report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan {} ({}); {} records; minsupp count {}; {} rules",
            self.plan.name(),
            if self.chosen_by_optimizer {
                "optimizer choice"
            } else {
                "forced"
            },
            self.subset_size,
            self.minsupp_count,
            self.num_rules
        )?;
        match self.time_error() {
            Some(ratio) => writeln!(
                f,
                "predicted {:.3e} s, actual {:.3e} s ({ratio:.2}x)",
                self.predicted_seconds, self.actual_seconds
            )?,
            None => writeln!(f, "actual {:.3e} s (no prediction)", self.actual_seconds)?,
        }
        writeln!(
            f,
            "{:<18} {:>11} {:>11} {:>10} {:>10}  counters",
            "operator", "pred.units", "meas.units", "pred.s", "meas.s"
        )?;
        for op in &self.ops {
            let pu = match op.predicted_units {
                Some(u) => format!("{u:.1}"),
                None => "-".to_string(),
            };
            let ps = match op.predicted_seconds {
                Some(s) => format!("{s:.2e}"),
                None => "-".to_string(),
            };
            let counters = match &op.metrics {
                Some(m) => {
                    // Break total intersections down by the chunk-kernel
                    // container pairing (a=array, b=bitmap, r=runs),
                    // omitting pairs that never ran.
                    let mut kernels = String::new();
                    for (label, count) in [
                        ("a*a", m.isect_array_array),
                        ("a*b", m.isect_array_bitmap),
                        ("a*r", m.isect_array_runs),
                        ("b*b", m.isect_bitmap_bitmap),
                        ("b*r", m.isect_bitmap_runs),
                        ("r*r", m.isect_runs_runs),
                    ] {
                        if count > 0 {
                            let sep = if kernels.is_empty() { "" } else { " " };
                            kernels.push_str(&format!("{sep}{label} {count}"));
                        }
                    }
                    let isect = if kernels.is_empty() {
                        "isect 0".to_string()
                    } else {
                        format!("isect {} [{kernels}]", m.intersections())
                    };
                    format!(
                        "scan {} emit {} {} rtree {} lookups {} hits {}",
                        m.scanned,
                        m.emitted,
                        isect,
                        m.rtree_nodes,
                        m.support_lookups,
                        m.cache_hits
                    )
                }
                None => "off".to_string(),
            };
            writeln!(
                f,
                "{:<18} {:>11} {:>11.1} {:>10} {:>10.2e}  {}",
                op.op, pu, op.measured_units, ps, op.measured_seconds, counters
            )?;
        }
        writeln!(f, "{} (estimates from {})", self.totals, self.stats_source)?;
        writeln!(
            f,
            "pool: {} workers, {} tasks, {} steals, {} parks/{} unparks",
            self.pool.workers,
            self.pool.tasks_submitted,
            self.pool.steals,
            self.pool.parks,
            self.pool.unparks
        )?;
        Ok(())
    }
}

/// Explain a query against a built system without executing it.
pub fn explain(colarm: &Colarm, query: &LocalizedQuery) -> Result<Explanation, ColarmError> {
    query.validate(colarm.index().dataset().schema())?;
    let subset = colarm.index().resolve_subset(query.range.clone())?;
    if subset.is_empty() {
        return Err(ColarmError::EmptySubset);
    }
    let choice = colarm.optimizer().choose(colarm.index(), query, &subset);
    Ok(Explanation {
        subset_size: subset.len(),
        subset_fraction: subset.fraction(),
        minsupp_count: query.minsupp_count(subset.len()),
        num_mips: colarm.index().num_mips(),
        chosen: choice.chosen,
        estimates: choice.estimates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mip::MipIndexConfig;
    use colarm_data::synth::salary;

    fn system() -> Colarm {
        Colarm::build(
            salary(),
            MipIndexConfig {
                primary_support: 2.0 / 11.0,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn explanation_matches_execution() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.8)
            .build()
            .unwrap();
        let ex = explain(&colarm, &q).unwrap();
        assert_eq!(ex.subset_size, 4);
        assert_eq!(ex.estimates.len(), 6);
        assert!(ex.decision_margin() >= 1.0);
        let out = colarm
            .run(&crate::request::QueryRequest::query(&q))
            .unwrap();
        assert_eq!(ex.chosen, out.plan);
        // Render includes every plan name.
        let text = ex.to_string();
        for p in PlanKind::ALL {
            assert!(text.contains(p.name()), "missing {p} in explain output");
        }
    }

    #[test]
    fn explain_validates_inputs() {
        let colarm = system();
        // The builder refuses the bad threshold up front; a hand-built
        // query hits the same check inside `explain`.
        assert!(LocalizedQuery::builder().minsupp(0.0).build().is_err());
        let bad = LocalizedQuery {
            range: colarm_data::RangeSpec::all(),
            item_attrs: None,
            minsupp: 0.0,
            minconf: 0.8,
            semantics: crate::query::Semantics::Strict,
        };
        assert!(explain(&colarm, &bad).is_err());
    }

    #[test]
    fn analyze_reports_predicted_vs_actual_per_operator() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.8)
            .build()
            .unwrap();
        let out = colarm
            .run(
                &crate::request::QueryRequest::query(&q)
                    .with_analyze(true)
                    .with_trace(true),
            )
            .unwrap();
        let report = out.analyze.as_ref().expect("analyze report present");
        let trace = out.trace.as_ref().expect("trace requested");
        assert_eq!(report.plan, out.plan);
        assert!(report.chosen_by_optimizer);
        assert_eq!(report.estimates.len(), PlanKind::ALL.len());
        assert_eq!(report.ops.len(), trace.ops.len());
        // Measured units/metrics mirror the trace exactly.
        assert_eq!(report.total_measured_units(), trace.total_units());
        assert_eq!(report.metrics_total(), trace.metrics_total());
        for (row, op) in report.ops.iter().zip(&trace.ops) {
            assert_eq!(row.op, op.kind);
            assert_eq!(row.measured_units, op.units);
            assert!(row.metrics.is_some(), "ANALYZE forces metrics on");
        }
        // Every cost-model operator in the plan has a prediction.
        let estimate = out
            .choice
            .as_ref()
            .expect("optimizer ran")
            .estimate_for(report.plan);
        for row in &report.ops {
            assert_eq!(row.predicted_units.is_some(), estimate.term(row.op).is_some());
        }
        assert!(report.predicted_seconds > 0.0);
        assert!(report.actual_seconds > 0.0);
        // The rendering carries the plan and the operator names.
        let text = report.to_string();
        assert!(text.contains(report.plan.name()));
        for row in &report.ops {
            assert!(
                text.contains(row.op.name()),
                "missing {} in analyze output",
                row.op
            );
        }
        // The totals footer rolls up exactly the op rows, renders, and
        // names the estimate source (default build → catalog present).
        let pred_sum: f64 = report.ops.iter().filter_map(|o| o.predicted_seconds).sum();
        let meas_sum: f64 = report.ops.iter().map(|o| o.measured_seconds).sum();
        assert_eq!(report.totals.predicted_seconds, pred_sum);
        assert_eq!(report.totals.measured_seconds, meas_sum);
        assert!(report.totals.error_pct.is_some());
        assert!(text.contains("total: predicted"), "missing totals footer");
        assert_eq!(report.stats_source, StatsSource::Catalog);
        assert!(text.contains("estimates from catalog"));
        for row in &report.ops {
            assert_eq!(row.stats_source.is_some(), row.predicted_units.is_some());
        }
        // JSON round-trips through serde_json's parser.
        let json = report.to_json();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(value["plan"].is_string());
        assert!(value["totals"]["predicted_seconds"].is_number());
        assert_eq!(value["stats_source"].as_str(), Some("catalog"));
        assert_eq!(value["ops"].as_array().unwrap().len(), report.ops.len());
        assert_eq!(
            value["estimates"].as_array().unwrap().len(),
            PlanKind::ALL.len()
        );
    }

    #[test]
    fn analyze_forced_plan_is_flagged() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Boston"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap();
        let chosen = colarm
            .run(&crate::request::QueryRequest::query(&q).with_analyze(true))
            .unwrap()
            .analyze
            .expect("analyze report present")
            .plan;
        let other = PlanKind::ALL
            .into_iter()
            .find(|&p| p != chosen)
            .unwrap();
        let forced = colarm
            .run(
                &crate::request::QueryRequest::query(&q)
                    .with_plan(other)
                    .with_analyze(true),
            )
            .unwrap()
            .analyze
            .expect("analyze report present");
        assert_eq!(forced.plan, other);
        assert!(!forced.chosen_by_optimizer);
    }
}
