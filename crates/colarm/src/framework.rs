//! The COLARM framework facade (paper Figure 2): offline preprocessing +
//! online query processing with cost-based plan selection, execution
//! feedback, and `EXPLAIN ANALYZE`.

use crate::cost::{CostConstants, CostModel, SelectReuse};
use crate::engine::{self, QueryLimits};
use crate::error::ColarmError;
use crate::explain::AnalyzeReport;
use crate::mip::{MipIndex, MipIndexConfig};
use crate::ops::ExecOptions;
use crate::optimizer::{FeedbackLog, Optimizer, PlanChoice};
use crate::plan::{execute_plan, PlanKind, QueryAnswer};
use crate::query::LocalizedQuery;
use crate::request::{QueryOutcome, QueryRequest};
use crate::reuse::ColumnStore;
use colarm_data::{Dataset, FocalSubset};
use std::sync::Arc;

/// What one [`Colarm::run_inner`] execution produced, before it is shaped
/// for a caller: the answer, the optimizer's decision, and (for analyze
/// runs) the `EXPLAIN ANALYZE` report. Internal — public surfaces convert
/// it to a [`QueryOutcome`].
#[derive(Debug, Clone)]
pub(crate) struct RunOutput {
    pub(crate) answer: QueryAnswer,
    pub(crate) choice: PlanChoice,
    pub(crate) report: Option<AnalyzeReport>,
}

impl RunOutput {
    /// Shape for the unified API: decompose the answer, attach the
    /// requested extras. Sessions fill in [`QueryOutcome::session`].
    pub(crate) fn into_outcome(self, include_trace: bool) -> QueryOutcome {
        QueryOutcome {
            plan: self.answer.plan,
            subset_size: self.answer.subset_size,
            rules: self.answer.rules,
            choice: Some(self.choice),
            trace: include_trace.then_some(self.answer.trace),
            analyze: self.report,
            session: None,
        }
    }
}

/// The COLARM system: a MIP-index, a calibrated cost-based optimizer, and
/// the execution feedback log that closes the loop between them.
#[derive(Debug)]
pub struct Colarm {
    index: MipIndex,
    optimizer: Optimizer,
    feedback: FeedbackLog,
}

impl Colarm {
    /// Offline phase: build the MIP-index and an optimizer seeded with the
    /// default cost constants. Call [`Colarm::calibrate`] to fit the
    /// constants to this machine.
    pub fn build(dataset: Dataset, config: MipIndexConfig) -> Result<Self, ColarmError> {
        let index = MipIndex::build(dataset, config)?;
        Ok(Colarm::from_index(index))
    }

    /// Wrap an already-built (e.g. snapshot-restored) MIP-index.
    pub fn from_index(index: MipIndex) -> Self {
        let model = CostModel {
            stats: index.stats().clone(),
            constants: CostConstants::default(),
        };
        Colarm {
            index,
            optimizer: Optimizer::new(model),
            feedback: FeedbackLog::default(),
        }
    }

    /// Move the system behind an [`Arc`] for sharing across owned
    /// sessions and threads (see [`crate::session::QuerySession`]).
    pub fn into_shared(self) -> Arc<Colarm> {
        Arc::new(self)
    }

    /// The underlying MIP-index.
    pub fn index(&self) -> &MipIndex {
        &self.index
    }

    /// The cost-based optimizer.
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The execution feedback log: every query executed through this
    /// system is recorded as `(query, per-plan predictions, chosen plan,
    /// actual cost)`.
    pub fn feedback(&self) -> &FeedbackLog {
        &self.feedback
    }

    /// Persist the MIP-index to a binary snapshot at `path` (streamed,
    /// checksummed, atomic temp-file + `rename`; see [`crate::persist`]).
    /// The snapshot's STATS section carries the statistics catalog and the
    /// effective fitted cost constants ([`Colarm::fitted_constants`]), so
    /// everything calibration has learned survives the restart. Returns
    /// the snapshot size in bytes.
    pub fn save_index_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<u64, ColarmError> {
        crate::persist::save_index_with_constants(&self.index, self.fitted_constants(), path)
    }

    /// Build a system from an index snapshot at `path` (binary or legacy
    /// JSON, auto-detected). A v3 snapshot restores the statistics catalog
    /// and the persisted fitted cost constants bit-exactly; older
    /// snapshots start from defaults (call [`Colarm::calibrate`] to fit
    /// this machine).
    pub fn load_index_snapshot(path: impl AsRef<std::path::Path>) -> Result<Colarm, ColarmError> {
        Self::load_index_snapshot_with(path, crate::persist::ValidationMode::Lazy)
    }

    /// [`Colarm::load_index_snapshot`] with an explicit
    /// [`ValidationMode`](crate::persist::ValidationMode) for v4 mapped
    /// snapshots: `Eager` checksums the whole file before returning,
    /// `Lazy` (the default) returns in milliseconds and lets the first
    /// query pay the checksum pass. Ignored for v1–v3 / legacy JSON
    /// snapshots, which always validate fully at load.
    pub fn load_index_snapshot_with(
        path: impl AsRef<std::path::Path>,
        mode: crate::persist::ValidationMode,
    ) -> Result<Colarm, ColarmError> {
        let (index, constants) = crate::persist::load_index_with_mode(path, mode)?;
        let mut colarm = Colarm::from_index(index);
        if let Some(constants) = constants {
            colarm.set_cost_constants(constants);
        }
        Ok(colarm)
    }

    /// The cost constants this system would persist: the current model
    /// constants, refined by a fit over the feedback log when it holds
    /// observations. The fit is deterministic, so a system that has not
    /// executed anything since its last calibration returns its current
    /// constants unchanged — which is what makes save → load → query
    /// round-trips bit-exact.
    pub fn fitted_constants(&self) -> CostConstants {
        let observations = self.feedback.observations();
        if observations.is_empty() {
            return self.optimizer.model().constants;
        }
        let borrowed: Vec<(&str, f64, f64)> =
            observations.iter().map(|&(n, u, t)| (n, u, t)).collect();
        let mut model = self.optimizer.model().clone();
        model.fit(&borrowed);
        model.constants
    }

    /// Overwrite the cost model's unit constants (restoring persisted
    /// calibration, or adopting another system's via
    /// [`Colarm::adopt_calibration`]).
    pub fn set_cost_constants(&mut self, constants: CostConstants) {
        self.optimizer.model_mut().constants = constants;
    }

    /// Carry calibration across an index reload: adopt the effective
    /// fitted constants of `previous` (its current constants refined by
    /// its feedback log), so a SIGHUP swap does not forget what the
    /// retiring generation learned.
    pub fn adopt_calibration(&mut self, previous: &Colarm) {
        self.set_cost_constants(previous.fitted_constants());
    }

    /// The single validation path every execution funnels through:
    /// thresholds and schema references checked, the focal subset
    /// resolved, and empty subsets rejected.
    pub fn prepare(&self, query: &LocalizedQuery) -> Result<FocalSubset, ColarmError> {
        query.validate(self.index.dataset().schema())?;
        let subset = self.index.resolve_subset(query.range.clone())?;
        if subset.is_empty() {
            return Err(ColarmError::EmptySubset);
        }
        Ok(subset)
    }

    /// Run one [`QueryRequest`] — **the** online entry point. Resolves
    /// the query (text or parsed fields), validates it, lets the
    /// optimizer pick a plan (or honours the request's override),
    /// executes under the request's limits, records feedback, and
    /// returns a [`QueryOutcome`] carrying whatever extras the request
    /// asked for. Canceled executions propagate
    /// [`ColarmError::Canceled`] and are never recorded in the feedback
    /// log (a truncated run would poison calibration).
    ///
    /// Every other execution surface — the CLI, the REPL, and the HTTP
    /// server — funnels through the same inner path, so answers are
    /// bit-identical across transports. Session-aware runs go through
    /// [`crate::QuerySession::run`], which adds cache reuse on that
    /// path.
    pub fn run(&self, request: &QueryRequest) -> Result<QueryOutcome, ColarmError> {
        let query = request.resolve(self.index.dataset().schema())?;
        let subset = self.prepare(&query)?;
        let out = self.run_inner(
            &query,
            &subset,
            ExecOptions::default().with_metrics(request.metrics),
            &request.effective_limits(),
            None,
            SelectReuse::Fresh,
            request.plan,
            request.analyze,
        )?;
        Ok(out.into_outcome(request.trace))
    }

    /// Parse and run a query-language string — sugar for [`Colarm::run`]
    /// with [`QueryRequest::text`].
    pub fn run_text(&self, text: &str) -> Result<QueryOutcome, ColarmError> {
        self.run(&QueryRequest::text(text))
    }

    /// The single execution path every surface funnels through:
    /// reuse-aware plan choice, the Unrestricted→ARM coercion, the
    /// optional forced plan, hooked execution under limits, feedback
    /// recording, and (for analyze runs) the `EXPLAIN ANALYZE` report.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_inner(
        &self,
        query: &LocalizedQuery,
        subset: &FocalSubset,
        opts: ExecOptions,
        limits: &QueryLimits,
        store: Option<&dyn ColumnStore>,
        reuse: SelectReuse,
        plan_override: Option<PlanKind>,
        analyze: bool,
    ) -> Result<RunOutput, ColarmError> {
        let mut choice = self
            .optimizer
            .choose_with_reuse(&self.index, query, subset, reuse);
        if query.semantics == crate::query::Semantics::Unrestricted {
            // Only the from-scratch plan can see below the primary
            // threshold; the optimizer's estimates stay informational.
            choice.chosen = PlanKind::Arm;
        }
        if let Some(plan) = plan_override {
            choice.chosen = plan;
        }
        let chosen_by_optimizer = choice.chosen == choice.estimates[0].plan;
        if !analyze {
            let answer = engine::execute(
                &self.index,
                query,
                subset,
                choice.chosen,
                opts,
                limits,
                store,
            )?;
            self.feedback.record(query, &choice, &answer, chosen_by_optimizer);
            return Ok(RunOutput {
                answer,
                choice,
                report: None,
            });
        }
        let pool_before = colarm_data::par::pool_stats();
        let answer = engine::execute(
            &self.index,
            query,
            subset,
            choice.chosen,
            opts.with_metrics(true),
            limits,
            store,
        )?;
        let pool = colarm_data::par::pool_stats().delta_since(&pool_before);
        self.feedback.record(query, &choice, &answer, chosen_by_optimizer);
        let report = AnalyzeReport::new(
            &answer,
            &choice,
            query.minsupp_count(subset.len()),
            chosen_by_optimizer,
            pool,
        );
        Ok(RunOutput {
            answer,
            choice,
            report: Some(report),
        })
    }

    /// Execute all six plans on one query (the §5.1 experiment shape).
    /// Returns answers in [`PlanKind::ALL`] order. Every execution lands
    /// in the feedback log, so a follow-up [`FeedbackLog::mispicks`] tells
    /// whether the optimizer's pick was actually fastest.
    pub fn execute_all_plans(
        &self,
        query: &LocalizedQuery,
    ) -> Result<Vec<QueryAnswer>, ColarmError> {
        let subset = self.prepare(query)?;
        let choice = self.optimizer.choose(&self.index, query, &subset);
        PlanKind::ALL
            .iter()
            .map(|&p| {
                let answer = execute_plan(&self.index, query, &subset, p)?;
                self.feedback
                    .record(query, &choice, &answer, p == choice.chosen);
                Ok(answer)
            })
            .collect()
    }

    /// Calibrate the cost model's unit constants by executing the sample
    /// queries with every plan and fitting constants from the observed
    /// per-operator traces. Queries whose subsets are empty are skipped.
    pub fn calibrate(&mut self, samples: &[LocalizedQuery]) -> Result<(), ColarmError> {
        let mut observations: Vec<(String, f64, f64)> = Vec::new();
        for query in samples {
            query.validate(self.index.dataset().schema())?;
            let subset = self.index.resolve_subset(query.range.clone())?;
            if subset.is_empty() {
                continue;
            }
            for plan in PlanKind::ALL {
                // The ARM plan re-mines from scratch; calibrating it on
                // large subsets would cost more than every query it later
                // informs. Small subsets fit its unit constant just as well.
                if plan == PlanKind::Arm && subset.len() * 10 > self.index.dataset().num_records()
                {
                    continue;
                }
                let answer = execute_plan(&self.index, query, &subset, plan)?;
                for op in &answer.trace.ops {
                    observations.push((
                        op.name().to_string(),
                        op.units,
                        op.duration.as_secs_f64(),
                    ));
                }
            }
        }
        let borrowed: Vec<(&str, f64, f64)> = observations
            .iter()
            .map(|(n, u, t)| (n.as_str(), *u, *t))
            .collect();
        self.optimizer.model_mut().fit(&borrowed);
        Ok(())
    }

    /// Re-fit the cost constants from the executions already recorded in
    /// the feedback log — calibration from real workload traffic instead
    /// of dedicated sample queries. Returns the number of per-operator
    /// observations consumed (0 = nothing recorded yet, constants
    /// untouched).
    pub fn calibrate_from_feedback(&mut self) -> usize {
        let observations = self.feedback.observations();
        if observations.is_empty() {
            return 0;
        }
        let borrowed: Vec<(&str, f64, f64)> = observations
            .iter()
            .map(|&(n, u, t)| (n, u, t))
            .collect();
        self.optimizer.model_mut().fit(&borrowed);
        observations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colarm_data::synth::salary;

    fn system() -> Colarm {
        Colarm::build(
            salary(),
            MipIndexConfig {
                primary_support: 2.0 / 11.0,
                ..MipIndexConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_paper_walkthrough() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let query = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .minsupp(0.75)
            .minconf(0.9)
            .build()
            .unwrap();
        let out = colarm.run(&QueryRequest::query(&query)).unwrap();
        assert_eq!(out.subset_size, 4);
        // RL = (Age=30-40 → Salary=90K-120K) at 75% / 100%.
        let a1 = schema.encode_named("Age", "30-40").unwrap();
        let rl = out
            .rules
            .iter()
            .find(|r| r.antecedent.contains(a1))
            .expect("RL present");
        assert!((rl.support() - 0.75).abs() < 1e-12);
        assert!((rl.confidence() - 1.0).abs() < 1e-12);
        // The optimizer's decision covers all six plans.
        let choice = out.choice.as_ref().unwrap();
        assert_eq!(choice.estimates.len(), 6);
        assert_eq!(out.plan, choice.chosen);
    }

    #[test]
    fn text_interface_matches_builder_interface() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let via_text = colarm
            .run_text(
                "REPORT LOCALIZED ASSOCIATION RULES FROM Dataset salary \
                 WHERE RANGE Location = (Seattle), Gender = (F) \
                 HAVING minsupport = 75% AND minconfidence = 90%;",
            )
            .unwrap();
        let query = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .minsupp(0.75)
            .minconf(0.9)
            .build()
            .unwrap();
        let via_builder = colarm.run(&QueryRequest::query(&query)).unwrap();
        assert_eq!(via_text.rules, via_builder.rules);
    }

    #[test]
    fn all_plans_agree_and_calibration_runs() {
        let mut colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let query = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Boston"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap();
        let answers = colarm.execute_all_plans(&query).unwrap();
        assert_eq!(answers.len(), 6);
        for a in &answers[1..] {
            assert_eq!(a.rules, answers[0].rules, "{} diverged", a.plan);
        }
        colarm.calibrate(std::slice::from_ref(&query)).unwrap();
        // Constants were re-fitted and remain sane.
        let after = colarm.optimizer().model().constants;
        assert!(after.node > 0.0 && after.eliminate >= 0.0);
    }

    #[test]
    fn errors_propagate() {
        let colarm = system();
        assert!(matches!(
            colarm.run_text("DELETE EVERYTHING"),
            Err(ColarmError::QueryParse { .. })
        ));
        assert!(matches!(
            LocalizedQuery::builder().minconf(0.0).build(),
            Err(ColarmError::InvalidThreshold { .. })
        ));
        // Hand-built (non-builder) queries hit the same check in
        // `Colarm::prepare`.
        let bad = LocalizedQuery {
            range: colarm_data::RangeSpec::all(),
            item_attrs: None,
            minsupp: 0.5,
            minconf: 0.0,
            semantics: crate::query::Semantics::Strict,
        };
        assert!(matches!(
            colarm.run(&QueryRequest::query(&bad)),
            Err(ColarmError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn executions_land_in_the_feedback_log() {
        let mut colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let query = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap();
        assert!(colarm.feedback().is_empty());
        colarm.run(&QueryRequest::query(&query)).unwrap();
        assert_eq!(colarm.feedback().len(), 1);
        let entry = &colarm.feedback().snapshot()[0];
        assert!(entry.chosen_by_optimizer);
        assert_eq!(entry.predicted.len(), PlanKind::ALL.len());
        assert!(entry.total_units() > 0.0);
        // Forced-plan runs are recorded too, flagged by whether they match
        // the optimizer's pick.
        let chosen = entry.chosen;
        let other = PlanKind::ALL.into_iter().find(|&p| p != chosen).unwrap();
        colarm
            .run(&QueryRequest::query(&query).with_plan(other))
            .unwrap();
        assert_eq!(colarm.feedback().len(), 2);
        assert!(!colarm.feedback().snapshot()[1].chosen_by_optimizer);
        // Real-traffic calibration consumes the recorded observations.
        let consumed = colarm.calibrate_from_feedback();
        assert!(consumed > 0);
        let after = colarm.optimizer().model().constants;
        assert!(after.node > 0.0 && after.eliminate >= 0.0);
    }

    #[test]
    fn feedback_total_units_match_trace_accounting() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let query = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Boston"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap();
        let out = colarm
            .run(&QueryRequest::query(&query).with_trace(true))
            .unwrap();
        let entry = &colarm.feedback().snapshot()[0];
        assert_eq!(entry.total_units(), out.trace.unwrap().total_units());
    }

    #[test]
    fn shared_system_executes_from_plain_threads() {
        let colarm = system().into_shared();
        let schema = colarm.index().dataset().schema().clone();
        let handles: Vec<_> = ["Seattle", "Boston"]
            .into_iter()
            .map(|loc| {
                let colarm = colarm.clone();
                let schema = schema.clone();
                std::thread::spawn(move || {
                    let q = LocalizedQuery::builder()
                        .range_named(&schema, "Location", &[loc])
                        .unwrap()
                        .minsupp(0.5)
                        .minconf(0.7)
                        .build()
                        .unwrap();
                    colarm.run(&QueryRequest::query(&q)).unwrap().rules.len()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(colarm.feedback().len(), 2);
    }
}
