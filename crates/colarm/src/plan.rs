//! The six alternative mining plans (paper §4, Table 4) and their executor.
//!
//! | Plan      | Optimization                                            |
//! |-----------|---------------------------------------------------------|
//! | S-E-V     | basic SEARCH + ELIMINATE + VERIFY pipeline              |
//! | S-VS      | selection push-up (ELIMINATE merged into VERIFY)        |
//! | SS-E-V    | supported R-tree filter                                 |
//! | SS-VS     | supported filter + selection push-up                    |
//! | SS-E-U-V  | supported filter + differential contained/partial MIPs  |
//! | ARM       | traditional from-scratch mining over the focal subset   |
//!
//! All plans return the **same** rule set under strict semantics; they
//! differ only in execution cost. Plan equivalence is enforced by the
//! integration and property tests.

use crate::engine::{self, QueryLimits};
use crate::error::ColarmError;
use crate::mip::MipIndex;
use crate::ops::{ExecOptions, OpKind, OpTrace};
use crate::query::LocalizedQuery;
use colarm_data::FocalSubset;
use colarm_mine::rules::Rule;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One of the six mining plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanKind {
    /// Basic SEARCH → ELIMINATE → VERIFY.
    Sev,
    /// SEARCH → SUPPORTED-VERIFY (selection push-up).
    Svs,
    /// SUPPORTED-SEARCH → ELIMINATE → VERIFY.
    SsEv,
    /// SUPPORTED-SEARCH → SUPPORTED-VERIFY.
    SsVs,
    /// SUPPORTED-SEARCH → ELIMINATE (partial only) → UNION → VERIFY.
    SsEuv,
    /// SELECT → traditional ARM over the subset.
    Arm,
}

impl PlanKind {
    /// All six plans, in the paper's Table 4 order.
    pub const ALL: [PlanKind; 6] = [
        PlanKind::Sev,
        PlanKind::Svs,
        PlanKind::SsEv,
        PlanKind::SsVs,
        PlanKind::SsEuv,
        PlanKind::Arm,
    ];

    /// Short name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::Sev => "S-E-V",
            PlanKind::Svs => "S-VS",
            PlanKind::SsEv => "SS-E-V",
            PlanKind::SsVs => "SS-VS",
            PlanKind::SsEuv => "SS-E-U-V",
            PlanKind::Arm => "ARM",
        }
    }

    /// The optimization the plan embodies (paper Table 4's middle column).
    pub fn optimization(self) -> &'static str {
        match self {
            PlanKind::Sev => "Basic SEARCH+ELIMINATE+VERIFY plan",
            PlanKind::Svs => "Selection push-up",
            PlanKind::SsEv => "Supported R-tree filter",
            PlanKind::SsVs => "Supported R-tree filter + selection push-up",
            PlanKind::SsEuv => {
                "Supported R-tree filter + differential treatment of containment and overlap"
            }
            PlanKind::Arm => "Traditional rule mining over focal subset",
        }
    }

    /// The cost formula of paper Table 4's last column.
    pub fn cost_formula(self) -> &'static str {
        match self {
            PlanKind::Sev => "COST(S) + COST(E) + COST(V)",
            PlanKind::Svs => "COST(S) + COST(VS)",
            PlanKind::SsEv => "COST(SS) + COST(E) + COST(V)",
            PlanKind::SsVs => "COST(SS) + COST(VS)",
            PlanKind::SsEuv => "COST(SS) + COST(E) + COST(U) + COST(V)",
            PlanKind::Arm => "COST(σ) + COST(εAR)",
        }
    }
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-operator instrumentation of one plan execution. Part of the
/// server wire format (`QueryOutcome::trace`), so the field names are
/// wire-stable.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Operator traces in pipeline order.
    pub ops: Vec<OpTrace>,
    /// Total wall-clock time.
    pub total: Duration,
}

impl ExecutionTrace {
    /// The trace of the named operator, if it ran. Resolves through each
    /// trace's typed [`OpKind`] (`o.name()`), so lookups stay robust to
    /// how the trace was produced.
    pub fn op(&self, name: &str) -> Option<&OpTrace> {
        self.ops.iter().find(|o| o.name() == name)
    }

    /// The trace of the given operator kind, if it ran — the typed
    /// counterpart of [`ExecutionTrace::op`].
    pub fn op_kind(&self, kind: OpKind) -> Option<&OpTrace> {
        self.ops.iter().find(|o| o.kind == kind)
    }

    /// Total raw cost units across all operators — the quantity the
    /// optimizer's actual-units accounting sums for calibration. Exact
    /// (integer-valued f64 additions) and thread-count-independent.
    pub fn total_units(&self) -> f64 {
        self.ops.iter().map(|o| o.units).sum()
    }

    /// Fieldwise sum of the per-operator execution counters. Zero when the
    /// plan ran with metrics reporting disabled.
    pub fn metrics_total(&self) -> colarm_data::metrics::OpMetrics {
        colarm_data::metrics::OpMetrics::fold(self.ops.iter().filter_map(|o| o.metrics.as_ref()))
    }
}

/// The answer to a localized mining query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// The plan that produced the answer.
    pub plan: PlanKind,
    /// The localized rules, sorted by (antecedent, consequent).
    pub rules: Vec<Rule>,
    /// `|DQ|`.
    pub subset_size: usize,
    /// Per-operator instrumentation.
    pub trace: ExecutionTrace,
}

/// Execute one plan over a resolved focal subset with default execution
/// options (threads = session default; see [`ExecOptions`]) and no limits.
/// The answer — rules, ordering, per-operator units — is bit-identical at
/// every thread count; only durations vary. Callers that need options,
/// limits or a session column store call [`engine::execute`] directly.
pub fn execute_plan(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    plan: PlanKind,
) -> Result<QueryAnswer, ColarmError> {
    engine::execute(
        index,
        query,
        subset,
        plan,
        ExecOptions::default(),
        &QueryLimits::none(),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mip::MipIndexConfig;
    use colarm_data::synth::salary;

    fn setup() -> (MipIndex, LocalizedQuery) {
        let index = MipIndex::build(
            salary(),
            MipIndexConfig {
                primary_support: 2.0 / 11.0,
                ..MipIndexConfig::default()
            },
        )
        .unwrap();
        let schema = index.dataset().schema().clone();
        let query = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .minsupp(0.75)
            .minconf(0.9)
            .build().unwrap();
        (index, query)
    }

    #[test]
    fn all_six_plans_agree_on_the_paper_query() {
        let (index, query) = setup();
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        let answers: Vec<QueryAnswer> = PlanKind::ALL
            .iter()
            .map(|&p| execute_plan(&index, &query, &subset, p).unwrap())
            .collect();
        let reference = &answers[0].rules;
        assert!(!reference.is_empty(), "the paper query yields rules");
        for a in &answers[1..] {
            assert_eq!(&a.rules, reference, "plan {} diverged", a.plan);
        }
    }

    #[test]
    fn plan_metadata_is_table_4() {
        assert_eq!(PlanKind::ALL.len(), 6);
        for p in PlanKind::ALL {
            assert!(!p.name().is_empty());
            assert!(!p.optimization().is_empty());
            assert!(p.cost_formula().starts_with("COST("));
        }
        assert_eq!(PlanKind::SsEuv.name(), "SS-E-U-V");
        assert_eq!(PlanKind::SsEuv.to_string(), "SS-E-U-V");
    }

    #[test]
    fn traces_record_the_pipeline_shape() {
        let (index, query) = setup();
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        let a = execute_plan(&index, &query, &subset, PlanKind::SsEuv).unwrap();
        let names: Vec<&str> = a.trace.ops.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            ["SUPPORTED-SEARCH", "CLASSIFY", "ELIMINATE", "UNION", "VERIFY"]
        );
        assert!(a.trace.op("UNION").is_some());
        assert!(a.trace.total >= a.trace.ops.iter().map(|o| o.duration).sum());
    }

    #[test]
    fn empty_subset_is_an_error() {
        let (index, _) = setup();
        let schema = index.dataset().schema().clone();
        // SFO women between 30 and 40: no such record.
        let query = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["SFO"])
            .unwrap()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .range_named(&schema, "Age", &["30-40"])
            .unwrap()
            .build().unwrap();
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        assert!(matches!(
            execute_plan(&index, &query, &subset, PlanKind::Sev),
            Err(ColarmError::EmptySubset)
        ));
    }

    #[test]
    fn invalid_query_rejected_before_execution() {
        let (index, _) = setup();
        // The builder refuses this threshold, so hand-build the query to
        // prove execute_plan validates even adversarial inputs.
        let query = LocalizedQuery {
            range: colarm_data::RangeSpec::all(),
            item_attrs: None,
            minsupp: 2.0,
            minconf: 0.9,
            semantics: crate::query::Semantics::Strict,
        };
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        assert!(matches!(
            execute_plan(&index, &query, &subset, PlanKind::Sev),
            Err(ColarmError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn rules_are_sorted_deterministically() {
        let (index, _) = setup();
        let schema = index.dataset().schema().clone();
        let query = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Boston"])
            .unwrap()
            .minsupp(0.4)
            .minconf(0.6)
            .build().unwrap();
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        let a = execute_plan(&index, &query, &subset, PlanKind::SsVs).unwrap();
        for w in a.rules.windows(2) {
            assert!(
                (&w[0].antecedent, &w[0].consequent) <= (&w[1].antecedent, &w[1].consequent)
            );
        }
    }
}
