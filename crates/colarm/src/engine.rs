//! The streaming operator engine: ONE executor for all six mining plans.
//!
//! Before this module, the six [`PlanKind`] pipelines were six hand-wired
//! sequences of the free functions in [`crate::ops`], fully materializing
//! every intermediate `Vec` and duplicated across the executor, EXPLAIN
//! ANALYZE, and the sessions. Here each primitive (SEARCH,
//! SUPPORTED-SEARCH, CLASSIFY, ELIMINATE, ELIMINATE-PROJECTED, VERIFY,
//! SUPPORTED-VERIFY, UNION, SELECT, ARM) is a [`PlanOp`]; every plan
//! compiles to a declarative operator list ([`pipeline_ops`] — the single
//! wiring point); and [`execute`] threads one [`Ctx`] (execution options,
//! cost meter, budget, deadline, cancel token) through the operators.
//!
//! ## Batch flow
//!
//! Candidates stream through the per-candidate operators in bounded
//! batches of [`ENGINE_BATCH`], not monolithic `Vec`s: each batch is
//! projected/checked/verified, its meter folded in input order, and the
//! deadline/budget/cancel state re-checked before the next batch starts.
//! Cancellation therefore takes effect within one batch of the triggering
//! event and surfaces as [`ColarmError::Canceled`] naming the operator it
//! stopped in — never a panic, never a silently partial answer.
//!
//! ## Determinism
//!
//! Batching is bit-invisible in everything a plan reports. Batch
//! boundaries depend only on input size (never thread count or timing);
//! unit charges are exact integer-valued `f64`s and counters are `u64`s,
//! so per-batch folds sum to the same bits as one monolithic pass; the
//! projection dedup set and VERIFY's memo chunking (`ENGINE_BATCH` is a
//! multiple of the memo span, so per-batch chunk boundaries coincide with
//! global ones) persist across batches. Rules, traces, metrics and
//! `total_units()` are bit-identical to the pre-engine path at every
//! thread count — enforced by `tests/engine_equivalence.rs`.

use crate::error::ColarmError;
use crate::mip::MipIndex;
use crate::ops::{self, Candidate, ExecOptions, OpKind, OpTrace};
use crate::plan::{ExecutionTrace, PlanKind, QueryAnswer};
use crate::query::{LocalizedQuery, Semantics};
use crate::reuse::{ColumnReuse, ColumnStore};
use colarm_data::metrics::Meter;
use colarm_data::{FocalSubset, Itemset};
use colarm_mine::rules::Rule;
use colarm_mine::vertical::ItemTids;
use colarm_mine::CfiId;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Candidates processed between two cancellation checks. A multiple of
/// VERIFY's memo span (`ops::VERIFY_MEMO_SPAN`), so the memo-chunk
/// boundaries inside a batch coincide exactly with the boundaries of one
/// unbatched run — batching changes when the engine *checks*, never what
/// it computes.
pub const ENGINE_BATCH: usize = 256;
const _: () = assert!(ENGINE_BATCH.is_multiple_of(ops::VERIFY_MEMO_SPAN));

/// A shareable cancellation flag. Cloning shares the flag; arming it
/// makes every execution holding a clone fail with
/// [`ColarmError::Canceled`] at its next batch boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-armed token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Arm the token: executions observing it cancel at their next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the token is armed.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Disarm the token so subsequent executions run normally.
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// Per-query execution limits. The default is unlimited: no deadline, no
/// budget, an un-armed token — exactly the pre-engine behaviour.
///
/// Limits are part of the [`crate::request::QueryRequest`] wire format:
/// they serialize through [`QueryLimitsWire`] (deadline as integer
/// nanoseconds, budget as raw units). The cancel token is process-local
/// state and does not cross the wire — a deserialized `QueryLimits`
/// carries a fresh, un-armed token.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
#[serde(into = "QueryLimitsWire", try_from = "QueryLimitsWire")]
pub struct QueryLimits {
    /// Wall-clock deadline, measured from the start of [`execute`].
    pub timeout: Option<Duration>,
    /// Maximum raw cost units (the [`OpTrace::units`] scale) the query
    /// may consume before it is canceled.
    pub budget_units: Option<f64>,
    /// Cooperative cancellation flag, shared with whoever may cancel.
    pub cancel: CancelToken,
}

impl QueryLimits {
    /// No limits (the default).
    pub fn none() -> QueryLimits {
        QueryLimits::default()
    }

    /// Limit wall-clock time.
    pub fn with_timeout(mut self, timeout: Duration) -> QueryLimits {
        self.timeout = Some(timeout);
        self
    }

    /// Limit raw cost units.
    pub fn with_budget_units(mut self, units: f64) -> QueryLimits {
        self.budget_units = Some(units);
        self
    }

    /// Attach a shared cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> QueryLimits {
        self.cancel = cancel;
        self
    }

    /// Clamp these limits by server-wide caps: the effective deadline and
    /// budget are the minimum of the request's and the cap's (a cap with
    /// no request value applies as-is). The cancel token is untouched.
    pub fn clamped(mut self, timeout_cap: Option<Duration>, budget_cap: Option<f64>) -> QueryLimits {
        self.timeout = match (self.timeout, timeout_cap) {
            (Some(t), Some(cap)) => Some(t.min(cap)),
            (t, cap) => t.or(cap),
        };
        self.budget_units = match (self.budget_units, budget_cap) {
            (Some(b), Some(cap)) => Some(b.min(cap)),
            (b, cap) => b.or(cap),
        };
        self
    }
}

/// The serialized shape of [`QueryLimits`]: deadline in integer
/// nanoseconds, budget in raw cost units. Pinned by the wire-format
/// golden fixtures — field renames break clients.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct QueryLimitsWire {
    /// Wall-clock deadline in nanoseconds (`None` = no deadline).
    pub timeout_ns: Option<u64>,
    /// Maximum raw cost units (`None` = no budget).
    pub budget_units: Option<f64>,
}

impl From<QueryLimits> for QueryLimitsWire {
    fn from(limits: QueryLimits) -> QueryLimitsWire {
        QueryLimitsWire {
            timeout_ns: limits
                .timeout
                .map(|t| u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)),
            budget_units: limits.budget_units,
        }
    }
}

// Infallible by design, but the vendored serde_derive shim only supports
// `#[serde(try_from = "…")]`, not `#[serde(from = "…")]`.
#[allow(clippy::infallible_try_from)]
impl TryFrom<QueryLimitsWire> for QueryLimits {
    type Error = std::convert::Infallible;
    fn try_from(wire: QueryLimitsWire) -> Result<QueryLimits, Self::Error> {
        Ok(QueryLimits {
            timeout: wire.timeout_ns.map(Duration::from_nanos),
            budget_units: wire.budget_units,
            cancel: CancelToken::new(),
        })
    }
}

/// The execution context one plan run threads through its operators:
/// the query environment, execution options, the running cost meter, and
/// the deadline/budget/cancellation state checked at batch boundaries.
pub struct Ctx<'a> {
    /// The MIP-index being queried.
    pub index: &'a MipIndex,
    /// The localized query.
    pub query: &'a LocalizedQuery,
    /// The resolved focal subset `DQ`.
    pub subset: &'a FocalSubset,
    /// The local minimum support as an absolute count.
    pub minsupp_count: usize,
    /// Execution options (threads, metrics reporting).
    pub opts: ExecOptions,
    deadline: Option<Instant>,
    budget_units: Option<f64>,
    cancel: CancelToken,
    units: f64,
    traces: Vec<OpTrace>,
    /// Session column cache consulted by SELECT; `None` = always fresh.
    columns: Option<&'a dyn ColumnStore>,
}

impl<'a> Ctx<'a> {
    /// Open a context for one plan execution. The deadline clock starts
    /// here.
    pub fn new(
        index: &'a MipIndex,
        query: &'a LocalizedQuery,
        subset: &'a FocalSubset,
        opts: ExecOptions,
        limits: &QueryLimits,
    ) -> Ctx<'a> {
        Ctx {
            index,
            query,
            subset,
            minsupp_count: query.minsupp_count(subset.len()),
            opts,
            deadline: limits.timeout.and_then(|t| Instant::now().checked_add(t)),
            budget_units: limits.budget_units,
            cancel: limits.cancel.clone(),
            units: 0.0,
            traces: Vec::new(),
            columns: None,
        }
    }

    /// Attach a session's column store for SELECT reuse (`None` by
    /// default: every SELECT scans fresh).
    pub fn with_column_store(mut self, store: Option<&'a dyn ColumnStore>) -> Ctx<'a> {
        self.columns = store;
        self
    }

    /// Charge raw cost units against the budget.
    pub fn charge(&mut self, units: f64) {
        self.units += units;
    }

    /// Units consumed so far across all operators.
    pub fn units_spent(&self) -> f64 {
        self.units
    }

    /// The batch-boundary check: fail with [`ColarmError::Canceled`] when
    /// the token is armed, the deadline has passed, or the charged units
    /// exceed the budget. `op` is the operator the execution would stop in.
    pub fn check(&self, op: OpKind) -> Result<(), ColarmError> {
        let stop = self.cancel.is_canceled()
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.budget_units.is_some_and(|b| self.units > b);
        if stop {
            Err(ColarmError::Canceled {
                after_units: self.units,
                op,
            })
        } else {
            Ok(())
        }
    }

    /// Record one completed operator's trace (does not charge units —
    /// operators charge per batch as they go).
    pub fn emit(&mut self, trace: OpTrace) {
        self.traces.push(trace);
    }

    /// The recorded traces, pipeline order.
    pub fn into_traces(self) -> Vec<OpTrace> {
        self.traces
    }
}

/// The value flowing between operators. Plans are wired so each operator
/// receives exactly the shape it consumes ([`pipeline_ops`] is the only
/// producer of pipelines, and its shapes are unit-tested).
#[derive(Debug, Clone)]
pub enum Batch {
    /// The pipeline seed: source operators (SEARCH, SELECT) take no input.
    Seed,
    /// Raw candidate CFI ids out of SEARCH / SUPPORTED-SEARCH.
    Ids(Vec<CfiId>),
    /// Projected candidate bodies.
    Candidates(Vec<Candidate>),
    /// CLASSIFY's differential split (SS-E-U-V).
    Split {
        /// Fully contained candidates (local count free by Lemma 4.5).
        contained: Vec<Candidate>,
        /// Partially overlapping candidates, pending ELIMINATE.
        partial: Vec<Candidate>,
    },
    /// SELECT's restricted vertical columns, shared so a session cache
    /// can retain the materialization without copying a tid-list.
    Columns(Arc<Vec<ItemTids>>),
    /// Final rules.
    Rules(Vec<Rule>),
}

impl Batch {
    /// Cardinality of the batch, as operators report input/output sizes.
    pub fn len(&self) -> usize {
        match self {
            Batch::Seed => 0,
            Batch::Ids(v) => v.len(),
            Batch::Candidates(v) => v.len(),
            Batch::Split { contained, partial } => contained.len() + partial.len(),
            Batch::Columns(v) => v.len(),
            Batch::Rules(v) => v.len(),
        }
    }

    /// True when the batch carries no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One mining operator in a compiled plan pipeline.
pub trait PlanOp: Send + Sync {
    /// The operator's typed key (trace name, cancellation report).
    fn kind(&self) -> OpKind;

    /// The cost-model term predicting this operator, or `None` when the
    /// model prices its work into neighbouring operators (CLASSIFY).
    fn cost_term(&self) -> Option<OpKind> {
        Some(self.kind())
    }

    /// Run the operator over its input, charging and checking `ctx` at
    /// batch boundaries and emitting exactly one [`OpTrace`] on success.
    fn run(&self, ctx: &mut Ctx<'_>, input: Batch) -> Result<Batch, ColarmError>;
}

/// Pipeline-wiring invariant violation: an operator received a batch
/// shape [`pipeline_ops`] never produces upstream of it.
fn shape_mismatch(op: OpKind, got: &Batch) -> ! {
    unreachable!("pipeline wiring bug: {op} received incompatible batch {got:?}")
}

/// Drain a `Vec` as owned batches of at most [`ENGINE_BATCH`] elements.
fn owned_batches<T>(items: Vec<T>) -> impl Iterator<Item = Vec<T>> {
    let mut it = items.into_iter();
    std::iter::from_fn(move || {
        let batch: Vec<T> = it.by_ref().take(ENGINE_BATCH).collect();
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    })
}

/// SEARCH: hull range search. One shot — the R-tree query is itself the
/// unit of work the cost model prices.
struct SearchOp;

impl PlanOp for SearchOp {
    fn kind(&self) -> OpKind {
        OpKind::Search
    }

    fn run(&self, ctx: &mut Ctx<'_>, _input: Batch) -> Result<Batch, ColarmError> {
        let (ids, trace) = ops::search(ctx.index, ctx.subset);
        ctx.charge(trace.units);
        ctx.emit(trace);
        Ok(Batch::Ids(ids))
    }
}

/// SUPPORTED-SEARCH: range search with the Lemma 4.4 support bound.
struct SupportedSearchOp;

impl PlanOp for SupportedSearchOp {
    fn kind(&self) -> OpKind {
        OpKind::SupportedSearch
    }

    fn run(&self, ctx: &mut Ctx<'_>, _input: Batch) -> Result<Batch, ColarmError> {
        let (ids, trace) = ops::supported_search(ctx.index, ctx.subset, ctx.minsupp_count);
        ctx.charge(trace.units);
        ctx.emit(trace);
        Ok(Batch::Ids(ids))
    }
}

/// CLASSIFY: contained/partial split, streamed per batch of raw ids. The
/// projection dedup set spans batches, so the split equals one monolithic
/// classification.
struct ClassifyOp;

impl PlanOp for ClassifyOp {
    fn kind(&self) -> OpKind {
        OpKind::Classify
    }

    fn cost_term(&self) -> Option<OpKind> {
        None // priced into the neighbouring ELIMINATE/VERIFY terms
    }

    fn run(&self, ctx: &mut Ctx<'_>, input: Batch) -> Result<Batch, ColarmError> {
        let Batch::Ids(ids) = input else {
            shape_mismatch(self.kind(), &input)
        };
        let start = Instant::now();
        let input_len = ids.len();
        let mut seen: HashSet<Itemset> = HashSet::with_capacity(ids.len());
        let (mut contained, mut partial) = (Vec::new(), Vec::new());
        for chunk in ids.chunks(ENGINE_BATCH) {
            let mut bodies = Vec::with_capacity(chunk.len());
            ops::project_bodies_into(ctx.index, ctx.query, chunk, &mut seen, &mut bodies);
            ops::classify_bodies(ctx.index, ctx.subset, bodies, &mut contained, &mut partial);
            ctx.charge(chunk.len() as f64);
            ctx.check(OpKind::Classify)?;
        }
        ctx.emit(OpTrace {
            kind: OpKind::Classify,
            input: input_len,
            output: contained.len() + partial.len(),
            units: input_len as f64,
            duration: start.elapsed(),
            metrics: Some(colarm_data::metrics::OpMetrics {
                scanned: input_len as u64,
                emitted: (contained.len() + partial.len()) as u64,
                cache_hits: contained.len() as u64,
                ..Default::default()
            }),
        });
        Ok(Batch::Split { contained, partial })
    }
}

/// ELIMINATE over raw ids: `Aitem` projection + record-level support
/// checks, streamed per batch with a shared dedup set.
struct EliminateOp;

impl PlanOp for EliminateOp {
    fn kind(&self) -> OpKind {
        OpKind::Eliminate
    }

    fn run(&self, ctx: &mut Ctx<'_>, input: Batch) -> Result<Batch, ColarmError> {
        let Batch::Ids(ids) = input else {
            shape_mismatch(self.kind(), &input)
        };
        let start = Instant::now();
        let input_len = ids.len();
        let mut seen: HashSet<Itemset> = HashSet::with_capacity(ids.len());
        let mut out = Vec::new();
        let mut meter = Meter::default();
        for chunk in ids.chunks(ENGINE_BATCH) {
            let mut bodies = Vec::with_capacity(chunk.len());
            ops::project_bodies_into(ctx.index, ctx.query, chunk, &mut seen, &mut bodies);
            let (kept, m) = ops::eliminate_bodies(
                ctx.index,
                ctx.subset,
                bodies,
                ctx.minsupp_count,
                ctx.opts.threads,
            );
            out.extend(kept);
            meter += m;
            ctx.charge(m.units);
            ctx.check(OpKind::Eliminate)?;
        }
        ctx.emit(OpTrace {
            kind: OpKind::Eliminate,
            input: input_len,
            output: out.len(),
            units: meter.units,
            duration: start.elapsed(),
            metrics: Some(meter.metrics),
        });
        Ok(Batch::Candidates(out))
    }
}

/// ELIMINATE over CLASSIFY's already-projected partial candidates
/// (SS-E-U-V); contained candidates pass through untouched.
struct EliminatePartialOp;

impl PlanOp for EliminatePartialOp {
    fn kind(&self) -> OpKind {
        OpKind::Eliminate
    }

    fn run(&self, ctx: &mut Ctx<'_>, input: Batch) -> Result<Batch, ColarmError> {
        let Batch::Split { contained, partial } = input else {
            shape_mismatch(self.kind(), &input)
        };
        let start = Instant::now();
        let input_len = partial.len();
        let mut kept = Vec::new();
        let mut meter = Meter::default();
        for batch in owned_batches(partial) {
            let (k, m) = ops::eliminate_bodies(
                ctx.index,
                ctx.subset,
                batch,
                ctx.minsupp_count,
                ctx.opts.threads,
            );
            kept.extend(k);
            meter += m;
            ctx.charge(m.units);
            ctx.check(OpKind::Eliminate)?;
        }
        ctx.emit(OpTrace {
            kind: OpKind::Eliminate,
            input: input_len,
            output: kept.len(),
            units: meter.units,
            duration: start.elapsed(),
            metrics: Some(meter.metrics),
        });
        Ok(Batch::Split {
            contained,
            partial: kept,
        })
    }
}

/// UNION: constant-time merge of the disjoint contained/partial lists.
struct UnionOp;

impl PlanOp for UnionOp {
    fn kind(&self) -> OpKind {
        OpKind::Union
    }

    fn run(&self, ctx: &mut Ctx<'_>, input: Batch) -> Result<Batch, ColarmError> {
        let Batch::Split { contained, partial } = input else {
            shape_mismatch(self.kind(), &input)
        };
        let (merged, trace) = ops::union_lists(contained, partial);
        ctx.charge(trace.units);
        ctx.emit(trace);
        Ok(Batch::Candidates(merged))
    }
}

/// VERIFY: rule generation + confidence checks, streamed per batch.
/// Batches subdivide into the same memo chunks a monolithic run uses
/// (`ENGINE_BATCH` is a multiple of the memo span), so counters match.
struct VerifyOp;

impl PlanOp for VerifyOp {
    fn kind(&self) -> OpKind {
        OpKind::Verify
    }

    fn run(&self, ctx: &mut Ctx<'_>, input: Batch) -> Result<Batch, ColarmError> {
        let Batch::Candidates(cands) = input else {
            shape_mismatch(self.kind(), &input)
        };
        let start = Instant::now();
        let mut rules = Vec::new();
        let mut meter = Meter::default();
        for chunk in cands.chunks(ENGINE_BATCH) {
            let (r, m) = ops::verify_candidates(
                ctx.index,
                ctx.subset,
                chunk,
                ctx.query.minconf,
                ctx.opts.threads,
            );
            rules.extend(r);
            meter += m;
            ctx.charge(m.units);
            ctx.check(OpKind::Verify)?;
        }
        ctx.emit(OpTrace {
            kind: OpKind::Verify,
            input: cands.len(),
            output: rules.len(),
            units: meter.units,
            duration: start.elapsed(),
            metrics: Some(meter.metrics),
        });
        Ok(Batch::Rules(rules))
    }
}

/// SUPPORTED-VERIFY: the fused ELIMINATE+VERIFY (selection push-up).
/// Streams the eliminate half per id batch, materializes the qualified
/// list (the verify half's memo chunking is a function of the *complete*
/// qualified sequence), then streams the verify half per candidate batch.
struct SupportedVerifyOp;

impl PlanOp for SupportedVerifyOp {
    fn kind(&self) -> OpKind {
        OpKind::SupportedVerify
    }

    fn run(&self, ctx: &mut Ctx<'_>, input: Batch) -> Result<Batch, ColarmError> {
        let Batch::Ids(ids) = input else {
            shape_mismatch(self.kind(), &input)
        };
        let start = Instant::now();
        let input_len = ids.len();
        let mut seen: HashSet<Itemset> = HashSet::with_capacity(ids.len());
        let mut qualified = Vec::new();
        let mut elim = Meter::default();
        for chunk in ids.chunks(ENGINE_BATCH) {
            let mut bodies = Vec::with_capacity(chunk.len());
            ops::project_bodies_into(ctx.index, ctx.query, chunk, &mut seen, &mut bodies);
            let (kept, m) = ops::eliminate_bodies(
                ctx.index,
                ctx.subset,
                bodies,
                ctx.minsupp_count,
                ctx.opts.threads,
            );
            qualified.extend(kept);
            elim += m;
            ctx.charge(m.units);
            ctx.check(OpKind::SupportedVerify)?;
        }
        let mut rules = Vec::new();
        let mut ver = Meter::default();
        for chunk in qualified.chunks(ENGINE_BATCH) {
            let (r, m) = ops::verify_candidates(
                ctx.index,
                ctx.subset,
                chunk,
                ctx.query.minconf,
                ctx.opts.threads,
            );
            rules.extend(r);
            ver += m;
            ctx.charge(m.units);
            ctx.check(OpKind::SupportedVerify)?;
        }
        // The fused operator's interface counts are its own ends, not the
        // internal hand-off between the eliminate and verify halves.
        let mut metrics = elim.metrics + ver.metrics;
        metrics.scanned = input_len as u64;
        metrics.emitted = rules.len() as u64;
        ctx.emit(OpTrace {
            kind: OpKind::SupportedVerify,
            input: input_len,
            output: rules.len(),
            units: elim.units + ver.units,
            duration: start.elapsed(),
            metrics: Some(metrics),
        });
        Ok(Batch::Rules(rules))
    }
}

/// SELECT: focal-subset extraction for the traditional plan. One shot —
/// a pipeline breaker by nature (ARM needs every column).
///
/// With a [`ColumnStore`] attached, the materialization may be served
/// from an exact cached entry or derived from a cached parent subset's
/// columns. All three paths emit the same trace `units` (the fresh-scan
/// formula), so rules, unit accounting, and budget behaviour are
/// independent of cache state; only the metrics counters reveal which
/// path ran. Publication happens strictly after complete
/// materialization (never-cache-partial).
struct SelectOp;

impl PlanOp for SelectOp {
    fn kind(&self) -> OpKind {
        OpKind::Select
    }

    fn run(&self, ctx: &mut Ctx<'_>, _input: Batch) -> Result<Batch, ColarmError> {
        let reuse = match ctx.columns {
            Some(store) => store.fetch(ctx.query, ctx.subset),
            None => ColumnReuse::Fresh,
        };
        let (columns, trace) = match reuse {
            ColumnReuse::Fresh => {
                let (cols, trace) = ops::select(ctx.index, ctx.query, ctx.subset, ctx.opts);
                let cols = Arc::new(cols);
                if let Some(store) = ctx.columns {
                    store.publish(ctx.query, ctx.subset, &cols, false);
                }
                (cols, trace)
            }
            ColumnReuse::Exact(cols) => {
                let trace = ops::select_cached(ctx.index, ctx.subset, &cols);
                (cols, trace)
            }
            ColumnReuse::Derive(parent) => {
                let (cols, trace) = ops::select_derived(ctx.index, ctx.subset, &parent, ctx.opts);
                let cols = Arc::new(cols);
                if let Some(store) = ctx.columns {
                    store.publish(ctx.query, ctx.subset, &cols, true);
                }
                (cols, trace)
            }
        };
        ctx.charge(trace.units);
        ctx.emit(trace);
        Ok(Batch::Columns(columns))
    }
}

/// ARM: from-scratch mining over the subset. One shot — CHARM's
/// enumeration is inherently a pipeline breaker.
struct ArmOp;

impl PlanOp for ArmOp {
    fn kind(&self) -> OpKind {
        OpKind::Arm
    }

    fn run(&self, ctx: &mut Ctx<'_>, input: Batch) -> Result<Batch, ColarmError> {
        let Batch::Columns(columns) = input else {
            shape_mismatch(self.kind(), &input)
        };
        let (rules, trace) = ops::arm(
            ctx.index,
            ctx.query,
            ctx.subset,
            &columns,
            ctx.minsupp_count,
            ctx.query.minconf,
            ctx.opts,
        );
        ctx.charge(trace.units);
        ctx.emit(trace);
        Ok(Batch::Rules(rules))
    }
}

/// Compile a plan to its operator pipeline — the single place plan shapes
/// are wired (paper §4, Table 4).
pub fn pipeline_ops(plan: PlanKind) -> Vec<Box<dyn PlanOp>> {
    match plan {
        PlanKind::Sev => vec![
            Box::new(SearchOp),
            Box::new(EliminateOp),
            Box::new(VerifyOp),
        ],
        PlanKind::Svs => vec![Box::new(SearchOp), Box::new(SupportedVerifyOp)],
        PlanKind::SsEv => vec![
            Box::new(SupportedSearchOp),
            Box::new(EliminateOp),
            Box::new(VerifyOp),
        ],
        PlanKind::SsVs => vec![Box::new(SupportedSearchOp), Box::new(SupportedVerifyOp)],
        PlanKind::SsEuv => vec![
            Box::new(SupportedSearchOp),
            Box::new(ClassifyOp),
            Box::new(EliminatePartialOp),
            Box::new(UnionOp),
            Box::new(VerifyOp),
        ],
        PlanKind::Arm => vec![Box::new(SelectOp), Box::new(ArmOp)],
    }
}

/// Execute one plan through the operator engine under the given limits —
/// the one full-control entry point every execution path ends in.
///
/// `store` is an optional session [`ColumnStore`] the SELECT operator
/// consults for cross-query reuse. Rules, traces, and unit accounting are
/// bit-identical with or without a store; only metrics counters (and
/// wall-clock) differ. Validation (thresholds, empty subsets,
/// semantics/plan compatibility) runs before any operator; with default
/// [`QueryLimits`] the answer — rules, per-operator traces, metrics, unit
/// totals — is bit-identical at every thread count. A canceled execution
/// returns [`ColarmError::Canceled`] and produces no answer.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    plan: PlanKind,
    opts: ExecOptions,
    limits: &QueryLimits,
    store: Option<&dyn ColumnStore>,
) -> Result<QueryAnswer, ColarmError> {
    query.validate(index.dataset().schema())?;
    if subset.is_empty() {
        return Err(ColarmError::EmptySubset);
    }
    if query.semantics == Semantics::Unrestricted && plan != PlanKind::Arm {
        return Err(ColarmError::UnrestrictedRequiresArm {
            requested: plan.name(),
        });
    }
    let start = Instant::now();
    let mut ctx = Ctx::new(index, query, subset, opts, limits).with_column_store(store);
    let mut batch = Batch::Seed;
    for op in pipeline_ops(plan) {
        ctx.check(op.kind())?;
        batch = op.run(&mut ctx, batch)?;
    }
    let Batch::Rules(mut rules) = batch else {
        unreachable!("every plan pipeline ends in a Rules batch")
    };
    rules.sort_by(|a, b| (&a.antecedent, &a.consequent).cmp(&(&b.antecedent, &b.consequent)));
    let mut ops_trace = ctx.into_traces();
    if !opts.metrics {
        // Counters are collected unconditionally (they ride on work that
        // dwarfs them); the flag controls whether traces *report* them.
        for op in &mut ops_trace {
            op.metrics = None;
        }
    }
    Ok(QueryAnswer {
        plan,
        rules,
        subset_size: subset.len(),
        trace: ExecutionTrace {
            ops: ops_trace,
            total: start.elapsed(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mip::MipIndexConfig;
    use colarm_data::synth::salary;

    fn setup() -> (MipIndex, LocalizedQuery, FocalSubset) {
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
            .build()
            .unwrap();
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        (index, query, subset)
    }

    #[test]
    fn pipelines_match_table_4_shapes() {
        use OpKind::*;
        let shape = |plan: PlanKind| -> Vec<OpKind> {
            pipeline_ops(plan).iter().map(|o| o.kind()).collect()
        };
        assert_eq!(shape(PlanKind::Sev), [Search, Eliminate, Verify]);
        assert_eq!(shape(PlanKind::Svs), [Search, SupportedVerify]);
        assert_eq!(shape(PlanKind::SsEv), [SupportedSearch, Eliminate, Verify]);
        assert_eq!(shape(PlanKind::SsVs), [SupportedSearch, SupportedVerify]);
        assert_eq!(
            shape(PlanKind::SsEuv),
            [SupportedSearch, Classify, Eliminate, Union, Verify]
        );
        assert_eq!(shape(PlanKind::Arm), [Select, Arm]);
        // Every operator is predicted by a cost term except CLASSIFY.
        for plan in PlanKind::ALL {
            for op in pipeline_ops(plan) {
                assert_eq!(op.cost_term().is_none(), op.kind() == Classify);
            }
        }
    }

    #[test]
    fn cancel_token_is_shared_and_resettable() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_canceled());
        clone.cancel();
        assert!(token.is_canceled());
        token.reset();
        assert!(!clone.is_canceled());
    }

    #[test]
    fn zero_deadline_cancels_before_any_operator_runs() {
        let (index, query, subset) = setup();
        for plan in PlanKind::ALL {
            let limits = QueryLimits::none().with_timeout(Duration::ZERO);
            let err = execute(&index, &query, &subset, plan, ExecOptions::default(), &limits, None)
                .unwrap_err();
            let first = pipeline_ops(plan)[0].kind();
            assert_eq!(
                err,
                ColarmError::Canceled {
                    after_units: 0.0,
                    op: first
                },
                "plan {plan}"
            );
        }
    }

    #[test]
    fn armed_token_cancels_and_reset_restores() {
        let (index, query, subset) = setup();
        let token = CancelToken::new();
        let limits = QueryLimits::none().with_cancel(token.clone());
        token.cancel();
        let err = execute(
            &index,
            &query,
            &subset,
            PlanKind::SsVs,
            ExecOptions::default(),
            &limits,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ColarmError::Canceled { .. }));
        token.reset();
        let ok = execute(
            &index,
            &query,
            &subset,
            PlanKind::SsVs,
            ExecOptions::default(),
            &limits,
            None,
        )
        .unwrap();
        assert!(!ok.rules.is_empty());
    }

    #[test]
    fn tiny_budget_cancels_mid_pipeline_with_spent_units() {
        let (index, query, subset) = setup();
        // SEARCH charges its node accesses; a sub-unit budget trips the
        // check before the next operator starts.
        let limits = QueryLimits::none().with_budget_units(0.5);
        let err = execute(
            &index,
            &query,
            &subset,
            PlanKind::Sev,
            ExecOptions::default(),
            &limits,
            None,
        )
        .unwrap_err();
        match err {
            ColarmError::Canceled { after_units, op } => {
                assert!(after_units > 0.5, "SEARCH charged {after_units}");
                assert_eq!(op, OpKind::Eliminate);
            }
            other => panic!("expected Canceled, got {other:?}"),
        }
    }

    #[test]
    fn canceled_error_names_the_operator() {
        let err = ColarmError::Canceled {
            after_units: 1234.0,
            op: OpKind::Arm,
        };
        let text = err.to_string();
        assert!(text.contains("ARM"), "{text}");
        assert!(text.contains("1234"), "{text}");
    }

    #[test]
    fn batch_len_covers_every_shape() {
        assert_eq!(Batch::Seed.len(), 0);
        assert!(Batch::Seed.is_empty());
        assert_eq!(Batch::Ids(vec![CfiId(1)]).len(), 1);
        assert_eq!(Batch::Rules(Vec::new()).len(), 0);
        let split = Batch::Split {
            contained: Vec::new(),
            partial: Vec::new(),
        };
        assert!(split.is_empty());
    }
}
