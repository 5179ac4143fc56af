//! The isolated online-mining operators (paper §4).
//!
//! Each step of localized rule mining is an operator with precise inputs
//! and outputs, so plans can pipeline them differently and the cost model
//! can be validated operator by operator. Every operator returns an
//! [`OpTrace`] carrying cardinalities, raw cost units (the quantities the
//! cost formulae count) and wall-clock duration.
//!
//! * [`search`] — `S[Arange, R-tree] → {I_S^Q}`: hull range search.
//! * [`supported_search`] — `SS[Arange, minsupp] → {I_SS^Q}`: range search
//!   with the supported R-tree bound of Lemma 4.4.
//! * [`classify`] — splits candidates into contained / partial (exact,
//!   per §3.4) and drops hull false positives; used by SS-E-U-V.
//! * [`eliminate`] — `E[{I}, Aitem, minsupp] → {I_E^Q}`: `Aitem`
//!   projection plus record-level local-support checks.
//! * [`verify`] — `V[{I_E^Q}, minconf] → {R^Q}`: rule generation +
//!   confidence verification through IT-tree closure lookups.
//! * [`supported_verify`] — `VS[...]`: ELIMINATE merged into VERIFY
//!   (selection push-up, §4.2).
//! * [`union_lists`] — `U`: constant-time merge of disjoint lists.
//! * [`select`] / [`arm`] — the traditional plan: extract `DQ`, mine it
//!   from scratch, generate rules.
//!
//! ## Body semantics (see DESIGN.md)
//!
//! Rule bodies are the itemsets the MIP-index prestores, restricted to the
//! query's item attributes: itemsets that are **closed within the `Aitem`
//! projection of the whole dataset** (`B = closure_G(B) ∩ Aitem`) and meet
//! the primary support threshold (paper footnote 2 — the POQM contract).
//! The index plans derive them by projecting each hull-candidate CFI onto
//! `Aitem` and canonicalizing through one IT-tree closure lookup (the
//! closure's tidset *is* the body's global tidset, so local supports are
//! one tidset intersection); the ARM plan re-mines from scratch with CHARM
//! (the "traditional" `εAR`; see [`arm`]) and keeps exactly the bodies
//! passing the same projection-closure + primary tests. Every rule antecedent `X ⊆ B` has
//! `supp_G(X) ≥ supp_G(B) ≥ primary`, so local antecedent supports always
//! resolve through prestored tidsets.

use crate::mip::MipIndex;
use crate::query::{LocalizedQuery, Semantics};
use colarm_data::metrics::{Meter, OpMetrics};
use colarm_data::{FocalSubset, ItemId, Itemset, Overlap, Tidset};
use colarm_mine::ittree::ClosureSupportOracle;
use colarm_mine::rules::{rules_for_itemset, Rule, SupportOracle};
use colarm_mine::vertical::{derive_restricted_par, restricted_vertical_par, ItemTids};
use colarm_mine::CfiId;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// The nine mining operators, as a typed key. `Display` (and
/// [`OpKind::name`]) render exactly the names the cost model's term
/// names and the pre-engine string traces used, so rendered output is
/// unchanged — but trace and cost-term lookups compare this enum, never
/// display strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// `S`: hull range search.
    Search,
    /// `SS`: range search with the Lemma 4.4 support bound.
    SupportedSearch,
    /// Contained/partial split (SS-E-U-V); priced into its neighbours.
    Classify,
    /// `E`: projection + record-level local-support checks.
    Eliminate,
    /// `U`: constant-time merge of disjoint candidate lists.
    Union,
    /// `V`: rule generation + confidence verification.
    Verify,
    /// `VS`: ELIMINATE merged into VERIFY (selection push-up).
    SupportedVerify,
    /// `σ`: focal-subset extraction for the traditional plan.
    Select,
    /// `εAR`: from-scratch mining over the subset.
    Arm,
}

impl OpKind {
    /// All operators, in a fixed order.
    pub const ALL: [OpKind; 9] = [
        OpKind::Search,
        OpKind::SupportedSearch,
        OpKind::Classify,
        OpKind::Eliminate,
        OpKind::Union,
        OpKind::Verify,
        OpKind::SupportedVerify,
        OpKind::Select,
        OpKind::Arm,
    ];

    /// The operator's name — identical to the pre-`OpKind` trace strings
    /// and to the cost model's term names.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Search => "SEARCH",
            OpKind::SupportedSearch => "SUPPORTED-SEARCH",
            OpKind::Classify => "CLASSIFY",
            OpKind::Eliminate => "ELIMINATE",
            OpKind::Union => "UNION",
            OpKind::Verify => "VERIFY",
            OpKind::SupportedVerify => "SUPPORTED-VERIFY",
            OpKind::Select => "SELECT",
            OpKind::Arm => "ARM",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Serialized reports (EXPLAIN ANALYZE JSON) carried plain name strings
// before the typed key existed; keep the wire format identical.
impl serde::Serialize for OpKind {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.name())
    }
}

impl OpKind {
    /// The inverse of [`OpKind::name`] — resolves the wire name string
    /// back to the typed operator.
    pub fn from_name(name: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

// The typed key deserializes from the same name strings it serializes
// as, so analyze reports and wire traces round-trip through JSON.
impl<'de> serde::Deserialize<'de> for OpKind {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl serde::de::Visitor<'_> for V {
            type Value = OpKind;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("an operator name string")
            }
            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<OpKind, E> {
                OpKind::from_name(v)
                    .ok_or_else(|| E::custom(format!("unknown operator name `{v}`")))
            }
        }
        deserializer.deserialize_str(V)
    }
}

/// Instrumentation for one operator execution. Part of the server wire
/// format (`QueryOutcome::trace`), so the field names are wire-stable.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OpTrace {
    /// Which operator ran (its [`OpKind::name`] matches the cost model's
    /// term names).
    pub kind: OpKind,
    /// Input cardinality.
    pub input: usize,
    /// Output cardinality.
    pub output: usize,
    /// Raw cost units consumed (the quantity the cost formulae count:
    /// node accesses, record checks, …). Used for calibration.
    pub units: f64,
    /// Wall-clock time.
    pub duration: Duration,
    /// Execution counters (`Some` unless the executor stripped them
    /// because metrics reporting was disabled; see
    /// [`ExecOptions::with_metrics`]). Counter totals are bit-identical
    /// at every thread count — they fold in input order, and VERIFY's
    /// memo chunking depends only on input size.
    pub metrics: Option<OpMetrics>,
}

impl OpTrace {
    /// The operator's display name (`self.kind.name()`).
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }
}

/// Execution options for the operators that can spread their per-candidate
/// work across threads (`eliminate`, `verify`, `supported_verify`,
/// `select`, `arm`).
///
/// `threads == 0` defers to the session default
/// ([`colarm_data::par::max_threads`], overridable via the
/// `COLARM_THREADS` environment variable or
/// [`colarm_data::par::set_max_threads`]); `threads == 1` forces the
/// sequential path. Outputs — rule sets, candidate lists, and `OpTrace`
/// unit totals — are bit-identical at every setting; only wall-clock
/// durations vary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker-thread cap (`0` = session default, `1` = sequential).
    pub threads: usize,
    /// Report execution counters in each [`OpTrace`] (`false` = strip
    /// them). The counters themselves ride on work that dwarfs them —
    /// an integer add per tidset intersection or node visit — so the
    /// flag controls *reporting*, not a separate collection pass; the
    /// disabled path costs the same within measurement noise.
    pub metrics: bool,
}

impl ExecOptions {
    /// Options pinned to a specific thread count.
    pub fn with_threads(threads: usize) -> ExecOptions {
        ExecOptions {
            threads,
            ..ExecOptions::default()
        }
    }

    /// Toggle execution-counter reporting.
    pub fn with_metrics(mut self, metrics: bool) -> ExecOptions {
        self.metrics = metrics;
        self
    }
}

/// Below this many candidates the per-candidate work is cheaper than
/// spawning scoped threads, so the operators stay sequential.
pub(crate) const PAR_MIN_CANDIDATES: usize = 32;

/// A candidate body flowing between operators: the projection-closed
/// itemset plus the stored CFI whose tidset equals the body's global
/// tidset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The rule body.
    pub body: Itemset,
    /// A stored CFI whose tidset equals the body's global tidset.
    pub closure: CfiId,
    /// Local support count w.r.t. `DQ`, once established (by ELIMINATE,
    /// or for free by Lemma 4.5 on contained candidates).
    pub local_count: Option<usize>,
}

/// SEARCH: hull range search over the R-tree, no support bound. Outputs
/// raw candidate CFI ids ({I_S^Q} may contain false positives, never
/// false negatives).
pub fn search(index: &MipIndex, subset: &FocalSubset) -> (Vec<CfiId>, OpTrace) {
    run_search(OpKind::Search, index, subset, 0)
}

/// SUPPORTED-SEARCH: range search pruned by the global-support bound
/// `⌈minsupp · |DQ|⌉` (Lemma 4.4).
pub fn supported_search(
    index: &MipIndex,
    subset: &FocalSubset,
    minsupp_count: usize,
) -> (Vec<CfiId>, OpTrace) {
    run_search(OpKind::SupportedSearch, index, subset, minsupp_count as u32)
}

fn run_search(
    kind: OpKind,
    index: &MipIndex,
    subset: &FocalSubset,
    min_weight: u32,
) -> (Vec<CfiId>, OpTrace) {
    let start = Instant::now();
    let rect = index.range_rect(subset.spec());
    let (hits, counters) = index.rtree().query(&rect, min_weight);
    let out: Vec<CfiId> = hits.iter().map(|h| *h.payload).collect();
    let trace = OpTrace {
        kind,
        input: index.num_mips(),
        output: out.len(),
        units: counters.nodes_visited as f64,
        duration: start.elapsed(),
        metrics: Some(OpMetrics {
            scanned: index.num_mips() as u64,
            emitted: out.len() as u64,
            rtree_nodes: counters.nodes_visited as u64,
            ..OpMetrics::default()
        }),
    };
    (out, trace)
}

/// Project raw candidates onto `Aitem`, canonicalize through a closure
/// lookup, and deduplicate. Internal to ELIMINATE / SUPPORTED-VERIFY /
/// CLASSIFY (their traces absorb this work, as the paper folds the
/// `Aitem` filter into those operators).
fn project_bodies(
    index: &MipIndex,
    query: &LocalizedQuery,
    candidates: Vec<CfiId>,
) -> Vec<Candidate> {
    let mut seen: HashSet<Itemset> = HashSet::with_capacity(candidates.len());
    let mut out = Vec::with_capacity(candidates.len());
    project_bodies_into(index, query, &candidates, &mut seen, &mut out);
    out
}

/// Batch-friendly core of [`project_bodies`]: the dedup set persists
/// across calls, so a stream of candidate batches projects to exactly the
/// candidates (in the same order) one monolithic call would produce. The
/// engine's batched operators rely on this to stay bit-identical with the
/// free-function path.
pub(crate) fn project_bodies_into(
    index: &MipIndex,
    query: &LocalizedQuery,
    candidates: &[CfiId],
    seen: &mut HashSet<Itemset>,
    out: &mut Vec<Candidate>,
) {
    let schema = index.dataset().schema();
    let tree = index.ittree();
    for &id in candidates {
        let cfi = tree.get(id);
        let (body, closure) = match &query.item_attrs {
            None => (cfi.itemset.clone(), id),
            Some(_) => {
                let projected: Itemset = cfi
                    .itemset
                    .items()
                    .iter()
                    .copied()
                    .filter(|&i| query.admits_attribute(schema.item_attribute(i)))
                    .collect();
                if projected.is_empty() {
                    continue;
                }
                if projected.len() == cfi.itemset.len() {
                    (projected, id)
                } else {
                    // Canonicalize: body := closure(projection) ∩ Aitem.
                    let cl = tree
                        .closure(&projected)
                        .expect("projection of a stored CFI is covered");
                    let canonical: Itemset = tree
                        .get(cl)
                        .itemset
                        .items()
                        .iter()
                        .copied()
                        .filter(|&i| query.admits_attribute(schema.item_attribute(i)))
                        .collect();
                    (canonical, cl)
                }
            }
        };
        if seen.insert(body.clone()) {
            out.push(Candidate {
                body,
                closure,
                local_count: None,
            });
        }
    }
}

/// Split candidates into (contained, partial) per the exact §3.4 test,
/// dropping disjoint hull false positives. Contained candidates get their
/// local count for free (Lemma 4.5: `supp_Q = supp_G`).
pub fn classify(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    candidates: Vec<CfiId>,
) -> (Vec<Candidate>, Vec<Candidate>, OpTrace) {
    let start = Instant::now();
    let input = candidates.len();
    let bodies = project_bodies(index, query, candidates);
    let (mut contained, mut partial) = (Vec::new(), Vec::new());
    classify_bodies(index, subset, bodies, &mut contained, &mut partial);
    let trace = OpTrace {
        kind: OpKind::Classify,
        input,
        output: contained.len() + partial.len(),
        units: input as f64,
        duration: start.elapsed(),
        // Contained candidates leave with a free local count (Lemma 4.5) —
        // record checks the downstream ELIMINATE never has to pay.
        metrics: Some(OpMetrics {
            scanned: input as u64,
            emitted: (contained.len() + partial.len()) as u64,
            cache_hits: contained.len() as u64,
            ..OpMetrics::default()
        }),
    };
    (contained, partial, trace)
}

/// Batch-friendly core of [`classify`]: the contained/partial split over
/// already-projected bodies, appending to caller-held output lists so a
/// stream of body batches classifies to exactly what one monolithic call
/// would produce.
pub(crate) fn classify_bodies(
    index: &MipIndex,
    subset: &FocalSubset,
    bodies: Vec<Candidate>,
    contained: &mut Vec<Candidate>,
    partial: &mut Vec<Candidate>,
) {
    let schema = index.dataset().schema();
    for mut c in bodies {
        // Classification runs on the *closure's* full itemset: its box
        // bounds every record supporting the body, so containment makes
        // both the local support AND the local closure equal their global
        // counterparts (Lemma 4.5, extended) — no record-level work.
        match subset
            .spec()
            .classify(schema, &index.ittree().get(c.closure).itemset)
        {
            Overlap::Contained => {
                c.local_count = Some(index.ittree().get(c.closure).support());
                contained.push(c);
            }
            Overlap::Partial => partial.push(c),
            Overlap::Disjoint => {}
        }
    }
}

/// ELIMINATE over raw search output: `Aitem` projection plus record-level
/// local-support checks.
pub fn eliminate(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    candidates: Vec<CfiId>,
    minsupp_count: usize,
    opts: ExecOptions,
) -> (Vec<Candidate>, OpTrace) {
    let start = Instant::now();
    let input = candidates.len();
    let bodies = project_bodies(index, query, candidates);
    let (out, meter) = eliminate_bodies(index, subset, bodies, minsupp_count, opts.threads);
    let trace = OpTrace {
        kind: OpKind::Eliminate,
        input,
        output: out.len(),
        units: meter.units,
        duration: start.elapsed(),
        metrics: Some(meter.metrics),
    };
    (out, trace)
}

/// ELIMINATE over already-projected candidates (the SS-E-U-V path, where
/// CLASSIFY projected them while splitting contained from partial).
pub fn eliminate_projected(
    index: &MipIndex,
    subset: &FocalSubset,
    candidates: Vec<Candidate>,
    minsupp_count: usize,
    opts: ExecOptions,
) -> (Vec<Candidate>, OpTrace) {
    let start = Instant::now();
    let input = candidates.len();
    let (out, meter) = eliminate_bodies(index, subset, candidates, minsupp_count, opts.threads);
    let trace = OpTrace {
        kind: OpKind::Eliminate,
        input,
        output: out.len(),
        units: meter.units,
        duration: start.elapsed(),
        metrics: Some(meter.metrics),
    };
    (out, trace)
}

/// Per-candidate support check: the qualifying local count (if the
/// candidate survives the threshold) and the cost units charged. Pure in
/// the candidate, so ELIMINATE can fan checks out across threads.
fn check_body(
    index: &MipIndex,
    subset: &FocalSubset,
    c: &Candidate,
    minsupp_count: usize,
) -> (Option<usize>, Meter) {
    let mut meter = Meter::default();
    meter.metrics.scanned = 1;
    if let Some(local) = c.local_count {
        // Contained candidate: Lemma 4.5 already finalized it.
        meter.metrics.cache_hits = 1;
        let verdict = if local >= minsupp_count { Some(local) } else { None };
        return (verdict, meter);
    }
    // Record-level check: |t(body) ∩ t(DQ)|. The paper charges |DQ|
    // per candidate; the galloping intersection is cheaper but remains
    // the record-level term of the model.
    let tids = &index.ittree().get(c.closure).tids;
    meter.metrics.note_intersection(tids, subset.tids());
    let local = tids.intersect_count(subset.tids());
    meter.units = subset.len() as f64;
    let verdict = if local >= minsupp_count { Some(local) } else { None };
    (verdict, meter)
}

pub(crate) fn eliminate_bodies(
    index: &MipIndex,
    subset: &FocalSubset,
    bodies: Vec<Candidate>,
    minsupp_count: usize,
    threads: usize,
) -> (Vec<Candidate>, Meter) {
    let threads = if bodies.len() < PAR_MIN_CANDIDATES {
        1
    } else {
        colarm_data::par::resolve_threads(threads)
    };
    // In-order fold of per-candidate verdicts and charges. Every unit
    // increment is an integer-valued f64 far below 2^53, so the sum is
    // exact — the same bits — at any thread count, and the counter block
    // folds fieldwise the same way.
    let (checks, mut meter) = colarm_data::par::parallel_map_fold(&bodies, threads, |_, c| {
        check_body(index, subset, c, minsupp_count)
    });
    let mut out = Vec::new();
    for (mut c, verdict) in bodies.into_iter().zip(checks) {
        if let Some(local) = verdict {
            c.local_count = Some(local);
            out.push(c);
        }
    }
    meter.metrics.emitted = out.len() as u64;
    (out, meter)
}

/// VERIFY: generate rules from qualified candidates and keep those whose
/// local confidence meets `minconf`. Local antecedent supports come from
/// IT-tree closure lookups intersected with `DQ` (shared memo cache).
pub fn verify(
    index: &MipIndex,
    subset: &FocalSubset,
    candidates: &[Candidate],
    minconf: f64,
    opts: ExecOptions,
) -> (Vec<Rule>, OpTrace) {
    let start = Instant::now();
    let (rules, meter) = verify_candidates(index, subset, candidates, minconf, opts.threads);
    let trace = OpTrace {
        kind: OpKind::Verify,
        input: candidates.len(),
        output: rules.len(),
        units: meter.units,
        duration: start.elapsed(),
        metrics: Some(meter.metrics),
    };
    (rules, trace)
}

/// How many candidates share one closure-lookup memo in VERIFY. Chunk
/// boundaries are a function of input size **only** — never the thread
/// count — so each memo's hit/miss sequence (and the intersections the
/// misses trigger) is part of the deterministic output, not a scheduling
/// artifact. A sequential run executes the exact same chunks in order.
pub(crate) const VERIFY_MEMO_SPAN: usize = 32;

/// Shared VERIFY core: rule generation + confidence checks over qualified
/// candidates, optionally chunked across threads. Each chunk runs its own
/// [`ClosureSupportOracle`] (the memo only affects speed, never values);
/// rules, unit sums and counters merge in candidate order, so the output —
/// ordering and metrics included — is bit-identical at every thread count.
pub(crate) fn verify_candidates(
    index: &MipIndex,
    subset: &FocalSubset,
    candidates: &[Candidate],
    minconf: f64,
    threads: usize,
) -> (Vec<Rule>, Meter) {
    let threads = if candidates.len() < PAR_MIN_CANDIDATES {
        1
    } else {
        colarm_data::par::resolve_threads(threads)
    };
    let run_chunk = |chunk: &[Candidate]| -> (Vec<Rule>, Meter) {
        let mut oracle = ClosureSupportOracle::new(index.ittree(), Some(subset.tids()));
        let mut rules = Vec::new();
        let mut meter = Meter::default();
        for c in chunk {
            let local = c
                .local_count
                .expect("VERIFY requires established local counts");
            meter.units += (c.body.len() * subset.len()) as f64;
            rules_for_itemset(&c.body, local, &mut oracle, minconf, &mut rules);
        }
        meter.metrics = oracle.metrics();
        meter.metrics.scanned = chunk.len() as u64;
        meter.metrics.emitted = rules.len() as u64;
        (rules, meter)
    };
    if candidates.len() <= VERIFY_MEMO_SPAN {
        return run_chunk(candidates);
    }
    // Chunks amortize each memo over VERIFY_MEMO_SPAN candidates; spans
    // far shorter than the input keep skewed chunks balanced across
    // workers. The same chunking runs sequentially when threads == 1.
    let chunks: Vec<&[Candidate]> = candidates.chunks(VERIFY_MEMO_SPAN).collect();
    let (rule_blocks, meter) =
        colarm_data::par::parallel_map_fold(&chunks, threads, |_, chunk| run_chunk(chunk));
    (rule_blocks.into_iter().flatten().collect(), meter)
}

/// SUPPORTED-VERIFY: ELIMINATE merged into VERIFY (selection push-up).
/// Takes raw search output, projects onto `Aitem`, computes local
/// supports, checks `minsupp`, and generates/checks rules in one pass.
pub fn supported_verify(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    candidates: Vec<CfiId>,
    minsupp_count: usize,
    minconf: f64,
    opts: ExecOptions,
) -> (Vec<Rule>, OpTrace) {
    let start = Instant::now();
    let input = candidates.len();
    let bodies = project_bodies(index, query, candidates);
    let (qualified, eliminate_meter) =
        eliminate_bodies(index, subset, bodies, minsupp_count, opts.threads);
    let (rules, verify_meter) =
        verify_candidates(index, subset, &qualified, minconf, opts.threads);
    let mut metrics = eliminate_meter.metrics + verify_meter.metrics;
    // The fused operator's interface counts are its own ends, not the
    // internal hand-off between the eliminate and verify halves.
    metrics.scanned = input as u64;
    metrics.emitted = rules.len() as u64;
    let trace = OpTrace {
        kind: OpKind::SupportedVerify,
        input,
        output: rules.len(),
        units: eliminate_meter.units + verify_meter.units,
        duration: start.elapsed(),
        metrics: Some(metrics),
    };
    (rules, trace)
}

/// UNION: merge the contained and partial candidate lists (constant-time
/// bookkeeping — the two sets are mutually exclusive by construction, as
/// bodies are canonicalized and deduplicated before classification).
pub fn union_lists(mut a: Vec<Candidate>, mut b: Vec<Candidate>) -> (Vec<Candidate>, OpTrace) {
    let start = Instant::now();
    let input = a.len() + b.len();
    a.append(&mut b);
    let trace = OpTrace {
        kind: OpKind::Union,
        input,
        output: a.len(),
        units: 1.0,
        duration: start.elapsed(),
        metrics: Some(OpMetrics {
            scanned: input as u64,
            emitted: a.len() as u64,
            ..OpMetrics::default()
        }),
    };
    (a, trace)
}

/// SELECT (`σ`): extract the focal subset as a vertical database
/// restricted to the query's item attributes.
pub fn select(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    opts: ExecOptions,
) -> (Vec<ItemTids>, OpTrace) {
    let start = Instant::now();
    let attrs: Option<Vec<colarm_data::AttributeId>> = query.item_attrs.clone();
    let columns = restricted_vertical_par(
        index.dataset(),
        index.vertical(),
        Some(subset.tids()),
        attrs.as_deref(),
        opts.threads,
    );
    let trace = OpTrace {
        kind: OpKind::Select,
        input: index.dataset().num_records(),
        output: subset.len(),
        units: subset.len() as f64 * index.dataset().schema().num_attributes() as f64,
        duration: start.elapsed(),
        // Every restricted column is produced by one vertical-index
        // intersection against the focal tidset.
        metrics: Some({
            let mut m = OpMetrics {
                scanned: index.dataset().num_records() as u64,
                emitted: columns.len() as u64,
                ..OpMetrics::default()
            };
            for c in &columns {
                m.note_intersection(index.vertical().tids(c.item), subset.tids());
            }
            m
        }),
    };
    (columns, trace)
}

/// SELECT served from a session's **exact** cached materialization: no
/// tid-list is touched. The trace keeps the fresh scan's `units` formula
/// so rule answers, budgets, and traces are independent of cache state;
/// only the metrics counters reveal the cache (every emitted column is a
/// `cache_hits` entry and no intersection runs).
pub fn select_cached(index: &MipIndex, subset: &FocalSubset, columns: &[ItemTids]) -> OpTrace {
    let start = Instant::now();
    OpTrace {
        kind: OpKind::Select,
        input: index.dataset().num_records(),
        output: subset.len(),
        units: subset.len() as f64 * index.dataset().schema().num_attributes() as f64,
        duration: start.elapsed(),
        metrics: Some(OpMetrics {
            scanned: index.dataset().num_records() as u64,
            emitted: columns.len() as u64,
            cache_hits: columns.len() as u64,
            ..OpMetrics::default()
        }),
    }
}

/// SELECT **derived** from a cached parent materialization (drill-down
/// reuse): every parent column is intersected with the refined subset —
/// output bit-identical to the fresh scan (the
/// [`derive_restricted_par`] contract), same `units` formula, while the
/// metrics show the derivation: `cache_hits` counts reused parent
/// columns and the intersection counters classify the
/// parent-column ∩ subset kernels actually run.
pub fn select_derived(
    index: &MipIndex,
    subset: &FocalSubset,
    parent: &[ItemTids],
    opts: ExecOptions,
) -> (Vec<ItemTids>, OpTrace) {
    let start = Instant::now();
    let columns = derive_restricted_par(parent, subset.tids(), opts.threads);
    let trace = OpTrace {
        kind: OpKind::Select,
        input: index.dataset().num_records(),
        output: subset.len(),
        units: subset.len() as f64 * index.dataset().schema().num_attributes() as f64,
        duration: start.elapsed(),
        metrics: Some({
            let mut m = OpMetrics {
                scanned: index.dataset().num_records() as u64,
                emitted: columns.len() as u64,
                cache_hits: parent.len() as u64,
                ..OpMetrics::default()
            };
            for c in parent {
                m.note_intersection(&c.tids, subset.tids());
            }
            m
        }),
    };
    (columns, trace)
}

/// ARM (`εAR`): the traditional plan — re-mine from scratch, without the
/// MIP-index.
///
/// Under [`Semantics::Strict`] it must produce the POQM answer contract
/// (projection-closed, primary-frequent bodies), so it re-runs the
/// *offline* mining per query: CHARM over the full dataset restricted to
/// the items that are locally frequent in `DQ` (any body item must be),
/// at the primary threshold, followed by local threshold verification
/// against a freshly built throw-away IT-tree. This is exactly the
/// "prohibitively costly" work the POQM paradigm prestores (paper §1.3) —
/// but it shrinks with selective queries, which is why ARM can win on
/// very dense indexes at high minsupport (the paper's PUMSB cases).
///
/// Under [`Semantics::Unrestricted`] it is the classic two-step pipeline
/// over the subset alone: locally-closed bodies, including those below
/// the primary threshold (invisible to the index).
///
/// The CHARM runs fan their first-level branches out across
/// `opts.threads`.
pub fn arm(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    columns: &[ItemTids],
    minsupp_count: usize,
    minconf: f64,
    opts: ExecOptions,
) -> (Vec<Rule>, OpTrace) {
    let start = Instant::now();
    let mut rules = Vec::new();
    let mut units;
    let mut metrics = OpMetrics::default();
    match query.semantics {
        Semantics::Strict => {
            // `columns` are already restricted to DQ ∩ Aitem, so their
            // lengths are the local item supports.
            let miner_columns: Vec<ItemTids> = columns
                .iter()
                .filter(|c| c.tids.len() >= minsupp_count)
                .map(|c| ItemTids {
                    item: c.item,
                    tids: index.vertical().tids(c.item).clone(),
                })
                .collect();
            units = subset.len() as f64 * columns.len().max(1) as f64;
            units += miner_columns
                .iter()
                .map(|c| c.tids.len() as f64)
                .sum::<f64>();
            let mined =
                colarm_mine::charm_par(&miner_columns, index.primary_count(), opts.threads);
            // Mining work ∝ the tidset volume of what was enumerated.
            units += mined.iter().map(|c| c.tids.len() as f64).sum::<f64>();
            let schema = index.dataset().schema();
            let scratch_tree = colarm_mine::ClosedItTree::build(
                mined,
                schema.num_items(),
                index.dataset().num_records() as u32,
            );
            let mut oracle =
                ClosureSupportOracle::new(&scratch_tree, Some(subset.tids()));
            for (_, c) in scratch_tree.iter() {
                metrics.scanned += 1;
                if c.itemset.len() < 2 {
                    continue;
                }
                units += subset.len() as f64;
                metrics.note_intersection(&c.tids, subset.tids());
                let local = c.tids.intersect_count(subset.tids());
                if local >= minsupp_count {
                    rules_for_itemset(&c.itemset, local, &mut oracle, minconf, &mut rules);
                }
            }
            metrics += oracle.metrics();
        }
        Semantics::Unrestricted => {
            units = subset.len() as f64 * columns.len().max(1) as f64;
            // Classic two-step mining: closed local itemsets, then rules.
            let closed = colarm_mine::charm_par(columns, minsupp_count, opts.threads);
            units += closed.len() as f64;
            let mut oracle = SubsetOracle::new(columns, subset.len());
            for c in closed {
                metrics.scanned += 1;
                rules_for_itemset(&c.itemset, c.tids.len(), &mut oracle, minconf, &mut rules);
            }
            metrics += oracle.stats;
        }
    }
    metrics.emitted = rules.len() as u64;
    let trace = OpTrace {
        kind: OpKind::Arm,
        input: subset.len(),
        output: rules.len(),
        units,
        duration: start.elapsed(),
        metrics: Some(metrics),
    };
    (rules, trace)
}

/// Support oracle over an extracted subset's vertical columns (used by the
/// ARM plan: exact local supports, memoized).
struct SubsetOracle {
    tids: HashMap<ItemId, Tidset>,
    cache: HashMap<Itemset, Option<usize>>,
    universe: usize,
    stats: OpMetrics,
}

impl SubsetOracle {
    fn new(columns: &[ItemTids], universe: usize) -> Self {
        SubsetOracle {
            tids: columns.iter().map(|c| (c.item, c.tids.clone())).collect(),
            cache: HashMap::new(),
            universe,
            stats: OpMetrics::default(),
        }
    }
}

impl SupportOracle for SubsetOracle {
    fn support_count(&mut self, itemset: &Itemset) -> Option<usize> {
        self.stats.support_lookups += 1;
        if let Some(&c) = self.cache.get(itemset) {
            self.stats.cache_hits += 1;
            return c;
        }
        let mut lists: Vec<&Tidset> = Vec::with_capacity(itemset.len());
        for &item in itemset.items() {
            match self.tids.get(&item) {
                Some(t) => lists.push(t),
                None => {
                    self.cache.insert(itemset.clone(), Some(0));
                    return Some(0);
                }
            }
        }
        lists.sort_by_key(|t| t.len());
        let count = match lists.split_first() {
            None => self.universe,
            Some((first, rest)) => {
                let mut acc = (*first).clone();
                for t in rest {
                    if acc.is_empty() {
                        break;
                    }
                    self.stats.note_intersection(&acc, t);
                    acc = acc.intersect(t);
                }
                acc.len()
            }
        };
        self.cache.insert(itemset.clone(), Some(count));
        Some(count)
    }

    fn universe(&self) -> usize {
        self.universe
    }
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
            .build().unwrap();
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        (index, query, subset)
    }

    fn rule_key(r: &Rule) -> (Itemset, Itemset) {
        (r.antecedent.clone(), r.consequent.clone())
    }

    #[test]
    fn search_returns_superset_of_supported_search() {
        let (index, query, subset) = setup();
        let (s, ts) = search(&index, &subset);
        let (ss, tss) = supported_search(&index, &subset, query.minsupp_count(subset.len()));
        assert!(ss.len() <= s.len());
        assert!(tss.units <= ts.units, "support bound prunes node accesses");
        let s_ids: HashSet<u32> = s.iter().map(|c| c.0).collect();
        assert!(ss.iter().all(|c| s_ids.contains(&c.0)));
    }

    #[test]
    fn eliminate_establishes_exact_local_counts() {
        let opts = ExecOptions::default();
        let (index, query, subset) = setup();
        let (cands, _) = search(&index, &subset);
        let min = query.minsupp_count(subset.len());
        let (kept, trace) = eliminate(&index, &query, &subset, cands, min, opts);
        assert!(!kept.is_empty());
        assert!(trace.output <= trace.input);
        for c in &kept {
            let truth = index
                .ittree()
                .get(c.closure)
                .tids
                .intersect_count(subset.tids());
            assert_eq!(c.local_count, Some(truth));
            assert!(truth >= min);
        }
    }

    #[test]
    fn classify_splits_and_lemma_4_5_holds() {
        let (index, query, subset) = setup();
        let (cands, _) = search(&index, &subset);
        let (contained, partial, _) = classify(&index, &query, &subset, cands);
        for c in &contained {
            let cfi = index.ittree().get(c.closure);
            // Lemma 4.5: contained ⇒ local count = global count.
            assert_eq!(c.local_count, Some(cfi.tids.intersect_count(subset.tids())));
            assert_eq!(c.local_count, Some(cfi.support()));
        }
        for c in &partial {
            assert!(c.local_count.is_none());
        }
    }

    #[test]
    fn verify_finds_the_paper_rl_rule() {
        let opts = ExecOptions::default();
        let (index, query, subset) = setup();
        let min = query.minsupp_count(subset.len());
        let (cands, _) = search(&index, &subset);
        let (kept, _) = eliminate(&index, &query, &subset, cands, min, opts);
        let (rules, trace) = verify(&index, &subset, &kept, query.minconf, opts);
        assert_eq!(trace.output, rules.len());
        let s = index.dataset().schema();
        let a1 = s.encode_named("Age", "30-40").unwrap();
        let s2 = s.encode_named("Salary", "90K-120K").unwrap();
        let rl = rules
            .iter()
            .find(|r| r.antecedent.contains(a1) && r.consequent.contains(s2))
            .expect("RL = (A1 → S2) must be mined");
        assert!((rl.support() - 0.75).abs() < 1e-12);
        assert!((rl.confidence() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn supported_verify_equals_eliminate_plus_verify() {
        let opts = ExecOptions::default();
        let (index, query, subset) = setup();
        let min = query.minsupp_count(subset.len());
        let (cands, _) = search(&index, &subset);
        let (kept, _) = eliminate(&index, &query, &subset, cands.clone(), min, opts);
        let (mut via_ev, _) = verify(&index, &subset, &kept, query.minconf, opts);
        let (mut via_vs, _) =
            supported_verify(&index, &query, &subset, cands, min, query.minconf, opts);
        via_ev.sort_by_key(rule_key);
        via_vs.sort_by_key(rule_key);
        assert_eq!(via_ev, via_vs);
    }

    #[test]
    fn arm_strict_matches_index_pipeline() {
        let opts = ExecOptions::default();
        let (index, query, subset) = setup();
        let min = query.minsupp_count(subset.len());
        let (cands, _) = search(&index, &subset);
        let (mut via_index, _) =
            supported_verify(&index, &query, &subset, cands, min, query.minconf, opts);
        let (columns, _) = select(&index, &query, &subset, opts);
        let (mut via_arm, _) = arm(&index, &query, &subset, &columns, min, query.minconf, opts);
        via_index.sort_by_key(rule_key);
        via_arm.sort_by_key(rule_key);
        assert_eq!(via_index, via_arm);
    }

    #[test]
    fn item_attr_projection_yields_projection_closed_rules() {
        let opts = ExecOptions::default();
        // With Aitem = {Age, Salary}, the Seattle women's (Age=30-40 →
        // Salary=90K-120K) rule must survive even though its *global*
        // closure also pins Location and Gender.
        let (index, _, _) = setup();
        let schema = index.dataset().schema().clone();
        let query = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .item_attrs_named(&schema, &["Age", "Salary"])
            .unwrap()
            .minsupp(0.75)
            .minconf(0.9)
            .build().unwrap();
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        let min = query.minsupp_count(subset.len());
        let (cands, _) = search(&index, &subset);
        let (rules, _) =
            supported_verify(&index, &query, &subset, cands, min, query.minconf, opts);
        assert!(!rules.is_empty(), "projection must not erase local rules");
        let age = schema.attribute_by_name("Age").unwrap();
        let sal = schema.attribute_by_name("Salary").unwrap();
        for r in &rules {
            for &item in r.body().items() {
                let a = schema.item_attribute(item);
                assert!(a == age || a == sal, "rule escaped Aitem: {r}");
            }
        }
        let a1 = schema.encode_named("Age", "30-40").unwrap();
        assert!(rules.iter().any(|r| r.antecedent.contains(a1)));
        // And ARM agrees under projection too.
        let (columns, _) = select(&index, &query, &subset, opts);
        let (mut via_arm, _) = arm(&index, &query, &subset, &columns, min, query.minconf, opts);
        let mut via_index = rules.clone();
        via_index.sort_by_key(rule_key);
        via_arm.sort_by_key(rule_key);
        assert_eq!(via_index, via_arm);
    }

    #[test]
    fn parallel_operators_are_bit_identical() {
        // A synthetic dataset dense enough that the candidate list crosses
        // PAR_MIN_CANDIDATES, so the parallel paths actually run.
        let config = colarm_data::synth::SynthConfig {
            name: "ops-par".into(),
            seed: 9,
            records: 400,
            domains: vec![3, 3, 4, 2, 3],
            top_mass: 0.6,
            skew: 1.0,
            clusters: 2,
            cluster_focus: 0.5,
            focus_strength: 0.9,
            templates: 3,
            template_len: 3,
            template_prob: 0.3,
        };
        let dataset = colarm_data::synth::generate(&config);
        let schema = dataset.schema().clone();
        let index = MipIndex::build(
            dataset,
            MipIndexConfig {
                primary_support: 0.02,
                ..MipIndexConfig::default()
            },
        )
        .unwrap();
        let query = LocalizedQuery::builder()
            .range_named(&schema, "a0", &["v0"])
            .unwrap()
            .minsupp(0.05)
            .minconf(0.5)
            .build().unwrap();
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        let min = query.minsupp_count(subset.len());
        let (cands, _) = search(&index, &subset);
        assert!(
            cands.len() >= PAR_MIN_CANDIDATES,
            "need ≥{PAR_MIN_CANDIDATES} candidates to exercise the parallel path, got {}",
            cands.len()
        );
        let seq = ExecOptions::with_threads(1);
        let (kept_seq, el_seq) =
            eliminate(&index, &query, &subset, cands.clone(), min, seq);
        let (rules_seq, v_seq) = verify(&index, &subset, &kept_seq, query.minconf, seq);
        let (sv_rules_seq, sv_seq) = supported_verify(
            &index, &query, &subset, cands.clone(), min, query.minconf, seq,
        );
        assert!(!rules_seq.is_empty());
        for threads in [2, 3, 8] {
            let par = ExecOptions::with_threads(threads);
            let (kept_par, el_par) =
                eliminate(&index, &query, &subset, cands.clone(), min, par);
            assert_eq!(kept_par, kept_seq, "ELIMINATE diverged at {threads} threads");
            assert_eq!(el_par.units.to_bits(), el_seq.units.to_bits());
            let (rules_par, v_par) = verify(&index, &subset, &kept_par, query.minconf, par);
            assert_eq!(rules_par, rules_seq, "VERIFY diverged at {threads} threads");
            assert_eq!(v_par.units.to_bits(), v_seq.units.to_bits());
            let (sv_rules_par, sv_par) = supported_verify(
                &index, &query, &subset, cands.clone(), min, query.minconf, par,
            );
            assert_eq!(sv_rules_par, sv_rules_seq);
            assert_eq!(sv_par.units.to_bits(), sv_seq.units.to_bits());
        }
    }

    #[test]
    fn union_concatenates_disjoint_lists() {
        let mk = |id: u32| Candidate {
            body: Itemset::singleton(ItemId(id)),
            closure: CfiId(id),
            local_count: Some(3),
        };
        let (u, trace) = union_lists(vec![mk(1)], vec![mk(2)]);
        assert_eq!(u.len(), 2);
        assert_eq!(trace.input, 2);
        assert_eq!(trace.output, 2);
    }

    #[test]
    fn arm_unrestricted_can_find_more_rules() {
        let opts = ExecOptions::default();
        // With a high primary threshold the index sees few itemsets; the
        // unrestricted ARM plan mines the subset without that blinder.
        let index = MipIndex::build(
            salary(),
            MipIndexConfig {
                primary_support: 0.5,
                ..MipIndexConfig::default()
            },
        )
        .unwrap();
        let schema = index.dataset().schema().clone();
        let base = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.75)
            .minconf(0.9);
        let strict = base.clone().semantics(Semantics::Strict).build().unwrap();
        let unrestricted = base.semantics(Semantics::Unrestricted).build().unwrap();
        let subset = index.resolve_subset(strict.range.clone()).unwrap();
        let min = strict.minsupp_count(subset.len());
        let (columns, _) = select(&index, &strict, &subset, opts);
        let (strict_rules, _) =
            arm(&index, &strict, &subset, &columns, min, strict.minconf, opts);
        let (open_rules, _) = arm(
            &index,
            &unrestricted,
            &subset,
            &columns,
            min,
            unrestricted.minconf,
            opts,
        );
        assert!(open_rules.len() >= strict_rules.len());
        assert!(
            !open_rules.is_empty(),
            "locally-closed rules exist in the Seattle subset"
        );
    }
}
