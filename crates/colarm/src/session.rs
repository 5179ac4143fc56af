//! Multi-query sessions — the paper's future-work item (b): "multi-query
//! optimization in the context of localized association rule mining" (§7).
//!
//! Interactive exploration issues bursts of related queries: the analyst
//! drills into one region with varying thresholds, or sweeps neighbouring
//! regions. A [`QuerySession`] amortizes that workload two ways:
//!
//! * **subset reuse** — resolved focal subsets (`DQ` tidsets) are cached
//!   per range spec, so threshold-only refinements skip the SELECT work;
//! * **answer reuse** — full answers are cached per (range, item
//!   attributes, thresholds, semantics), so repeated questions are free.
//!
//! Both caches are **bounded** ([`SessionConfig`]) with deterministic
//! least-recently-used eviction ([`crate::lru::LruCache`]), so a
//! long-lived session's memory stays proportional to its working set, not
//! its history. Sessions **own** their system behind an
//! [`Arc<Colarm>`] — `Send + Sync + 'static` — so they move freely into
//! worker threads and async tasks; clones of the `Arc` can serve multiple
//! sessions at once.

use crate::cost::SelectReuse;
use crate::engine::CancelToken;
use crate::error::ColarmError;
use crate::framework::Colarm;
use crate::lru::LruCache;
use crate::ops::ExecOptions;
use crate::plan::QueryAnswer;
use crate::query::{LocalizedQuery, Semantics};
use crate::request::{QueryOutcome, QueryRequest};
use crate::reuse::{ColumnReuse, ColumnStore};
use colarm_data::{AttributeId, FocalSubset, RangeSpec};
use colarm_mine::vertical::ItemTids;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cache key: the query with thresholds in hashable (bit) form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AnswerKey {
    range: RangeSpec,
    item_attrs: Option<Vec<AttributeId>>,
    minsupp_bits: u64,
    minconf_bits: u64,
    semantics: Semantics,
}

impl AnswerKey {
    fn of(query: &LocalizedQuery) -> AnswerKey {
        AnswerKey {
            range: query.range.clone(),
            item_attrs: query.item_attrs.clone(),
            minsupp_bits: query.minsupp.to_bits(),
            minconf_bits: query.minconf.to_bits(),
            semantics: query.semantics,
        }
    }
}

/// Cache key of one restricted-column materialization: the query inputs
/// that determine it (the focal range and the `Aitem` restriction —
/// thresholds and semantics don't change the columns).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ColumnsKey {
    range: RangeSpec,
    item_attrs: Option<Vec<AttributeId>>,
}

impl ColumnsKey {
    fn of(query: &LocalizedQuery) -> ColumnsKey {
        ColumnsKey {
            range: query.range.clone(),
            item_attrs: query.item_attrs.clone(),
        }
    }
}

/// Total tids across a materialization's columns — the work a derivation
/// from it would scan, and the deterministic parent-choice score.
fn column_volume(columns: &[ItemTids]) -> usize {
    columns.iter().map(|c| c.tids.len()).sum()
}

/// Capacity knobs for one session's caches. `0` disables a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum cached answers (default 256).
    pub max_answers: usize,
    /// Maximum cached focal subsets (default 64).
    pub max_subsets: usize,
    /// Maximum cached restricted-column materializations (default 16).
    /// These are the heaviest entries — each holds a restricted vertical
    /// DB — so the default is deliberately small.
    pub max_columns: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_answers: 256,
            max_subsets: 64,
            max_columns: 16,
        }
    }
}

/// Hit/miss/eviction counters of one session. Part of the server wire
/// format (`QueryOutcome::session`, `GET /sessions/{id}`), so the field
/// names are wire-stable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SessionStats {
    /// Focal subsets served from cache.
    pub subset_hits: usize,
    /// Focal subsets resolved fresh.
    pub subset_misses: usize,
    /// Focal subsets evicted to stay within [`SessionConfig::max_subsets`].
    pub subset_evictions: usize,
    /// Answers served from cache.
    pub answer_hits: usize,
    /// Answers executed fresh.
    pub answer_misses: usize,
    /// Answers evicted to stay within [`SessionConfig::max_answers`].
    pub answer_evictions: usize,
    /// Focal subsets derived from a cached parent by intersecting only
    /// the refining delta selections (neither a hit nor a miss).
    pub subsets_derived: usize,
    /// Restricted-column sets served exactly from cache.
    pub column_hits: usize,
    /// Restricted-column sets materialized by a fresh scan.
    pub column_misses: usize,
    /// Restricted-column sets derived from a cached parent
    /// materialization (neither a hit nor a miss).
    pub columns_derived: usize,
    /// Column materializations evicted to stay within
    /// [`SessionConfig::max_columns`].
    pub column_evictions: usize,
}

/// An owned, bounded caching façade over a shared [`Colarm`] for
/// interactive query bursts.
pub struct QuerySession {
    colarm: Arc<Colarm>,
    config: SessionConfig,
    /// Worker threads for plan operators (0 = process default, 1 =
    /// sequential). Answers are bit-identical at any setting, so cached
    /// entries stay valid across changes.
    threads: AtomicUsize,
    /// Per-query deadline in nanoseconds; 0 = none. Applied to every
    /// execution this session runs.
    timeout_ns: AtomicU64,
    /// Cooperative cancellation flag shared with every execution this
    /// session runs; armed via [`QuerySession::cancel`].
    cancel: CancelToken,
    subsets: Mutex<LruCache<RangeSpec, Arc<FocalSubset>>>,
    answers: Mutex<LruCache<AnswerKey, Arc<QueryAnswer>>>,
    /// Restricted-column materializations (the ARM plan's SELECT output),
    /// shared with the engine via the [`ColumnStore`] hook.
    columns: Mutex<LruCache<ColumnsKey, Arc<Vec<ItemTids>>>>,
    subset_hits: AtomicUsize,
    subset_misses: AtomicUsize,
    subsets_derived: AtomicUsize,
    answer_hits: AtomicUsize,
    answer_misses: AtomicUsize,
    column_hits: AtomicUsize,
    column_misses: AtomicUsize,
    columns_derived: AtomicUsize,
}

impl QuerySession {
    /// Open a session over a shared system with default cache bounds.
    pub fn new(colarm: Arc<Colarm>) -> Self {
        QuerySession::with_config(colarm, SessionConfig::default())
    }

    /// Open a session with explicit cache bounds.
    pub fn with_config(colarm: Arc<Colarm>, config: SessionConfig) -> Self {
        QuerySession {
            colarm,
            config,
            threads: AtomicUsize::new(0),
            timeout_ns: AtomicU64::new(0),
            cancel: CancelToken::new(),
            subsets: Mutex::new(LruCache::new(config.max_subsets)),
            answers: Mutex::new(LruCache::new(config.max_answers)),
            columns: Mutex::new(LruCache::new(config.max_columns)),
            subset_hits: AtomicUsize::new(0),
            subset_misses: AtomicUsize::new(0),
            subsets_derived: AtomicUsize::new(0),
            answer_hits: AtomicUsize::new(0),
            answer_misses: AtomicUsize::new(0),
            column_hits: AtomicUsize::new(0),
            column_misses: AtomicUsize::new(0),
            columns_derived: AtomicUsize::new(0),
        }
    }

    /// The shared system this session queries.
    pub fn colarm(&self) -> &Arc<Colarm> {
        &self.colarm
    }

    /// The session's cache bounds.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Cap the worker threads used by this session's plan executions
    /// (`0` = process default, `1` = sequential). Safe to flip at any
    /// point: answers don't depend on the thread count.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads, Ordering::Relaxed);
    }

    fn exec_options(&self) -> ExecOptions {
        ExecOptions::with_threads(self.threads.load(Ordering::Relaxed))
    }

    /// Set (or clear, with `None`) the per-query deadline applied to
    /// every execution this session runs. A timed-out execution fails
    /// with [`ColarmError::Canceled`] naming the operator it stopped in;
    /// canceled answers are never cached, so a later retry without the
    /// deadline re-executes fully. `Some(Duration::ZERO)` is a valid
    /// setting: every execution cancels before its first operator.
    pub fn set_timeout(&self, timeout: Option<Duration>) {
        let ns = timeout.map_or(0, |t| {
            u64::try_from(t.as_nanos()).unwrap_or(u64::MAX).max(1)
        });
        self.timeout_ns.store(ns, Ordering::Relaxed);
    }

    /// The session's current per-query deadline, if one is set.
    pub fn timeout(&self) -> Option<Duration> {
        match self.timeout_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Arm the session's cancel token: in-flight and subsequent
    /// executions fail with [`ColarmError::Canceled`] at their next batch
    /// boundary until [`QuerySession::reset_cancel`] disarms it. The
    /// session itself stays fully usable — caches, stats, and later
    /// queries are unaffected.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Disarm the cancel token so executions run normally again.
    pub fn reset_cancel(&self) {
        self.cancel.reset();
    }

    /// The session's cancel token — clone it into whatever (signal
    /// handler, watchdog thread) may need to cancel from outside.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Resolve (or reuse) the focal subset of a range spec. A drill-down
    /// refinement of a cached subset is *derived* — the cached tidset is
    /// intersected with only the delta selections' tid-lists instead of
    /// re-resolving every conjunct (bit-identical result; see
    /// [`FocalSubset::derive_refinement`]). Counted in
    /// [`SessionStats::subsets_derived`], separate from hits and misses.
    pub fn subset(&self, range: &RangeSpec) -> Result<Arc<FocalSubset>, ColarmError> {
        if let Some(cached) = self.subsets.lock().get(range) {
            self.subset_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached.clone());
        }
        if let Some(derived) = self.derive_subset(range)? {
            let derived = Arc::new(derived);
            self.subsets_derived.fetch_add(1, Ordering::Relaxed);
            self.subsets.lock().insert(range.clone(), derived.clone());
            return Ok(derived);
        }
        let resolved = Arc::new(self.colarm.index().resolve_subset(range.clone())?);
        self.subset_misses.fetch_add(1, Ordering::Relaxed);
        self.subsets.lock().insert(range.clone(), resolved.clone());
        Ok(resolved)
    }

    /// Try to derive `range`'s subset from the best cached parent it
    /// refines. Parent choice is deterministic: the smallest parent tidset
    /// (least intersection work), recency stamps breaking exact-size ties
    /// — stamps are unique, so the backing map's iteration order never
    /// shows through.
    fn derive_subset(&self, range: &RangeSpec) -> Result<Option<FocalSubset>, ColarmError> {
        let parent: Option<Arc<FocalSubset>> = {
            let cache = self.subsets.lock();
            cache
                .iter()
                .filter(|(spec, _, _)| range.refinement_delta(spec).is_some())
                .min_by_key(|(_, subset, stamp)| (subset.len(), *stamp))
                .map(|(_, subset, _)| subset.clone())
        };
        let Some(parent) = parent else {
            return Ok(None);
        };
        let index = self.colarm.index();
        Ok(FocalSubset::derive_refinement(
            &parent,
            range.clone(),
            index.dataset(),
            index.vertical(),
        )?)
    }

    /// Run one [`QueryRequest`] through this session — the session-aware
    /// twin of [`Colarm::run`]. Adds three things to the direct path:
    /// the session's subset / answer / column caches (so drill-downs
    /// derive instead of re-resolving), the session's own limits
    /// (deadline and cancel token, clamped together with the request's),
    /// and a [`SessionStats`] snapshot on the outcome.
    ///
    /// Plain runs (no forced plan, no analyze, no metrics) are served
    /// from — and land in — the answer cache; cache-hit outcomes carry
    /// no [`crate::PlanChoice`] (the optimizer didn't run). Forced-plan,
    /// analyze, and metrics runs bypass the answer cache so plan
    /// comparisons and measurements stay honest, while still reusing
    /// cached subsets and columns.
    pub fn run(&self, request: &QueryRequest) -> Result<QueryOutcome, ColarmError> {
        let schema = self.colarm.index().dataset().schema();
        let query = request.resolve(schema)?;
        query.validate(schema)?;
        let plain = request.plan.is_none() && !request.analyze && !request.metrics;
        let key = AnswerKey::of(&query);
        if plain {
            // Clone the hit out and drop the guard first: `stats()` below
            // re-locks the answer cache, and the scrutinee temporary of an
            // `if let` lives for the whole body — holding it across
            // `stats()` self-deadlocks.
            let hit = self.answers.lock().get(&key).cloned();
            if let Some(cached) = hit {
                self.answer_hits.fetch_add(1, Ordering::Relaxed);
                let answer = (*cached).clone();
                return Ok(QueryOutcome {
                    plan: answer.plan,
                    subset_size: answer.subset_size,
                    rules: answer.rules,
                    choice: None,
                    trace: request.trace.then_some(answer.trace),
                    analyze: None,
                    session: Some(self.stats()),
                });
            }
        }
        let subset = self.subset(&query.range)?;
        if subset.is_empty() {
            return Err(ColarmError::EmptySubset);
        }
        // Request limits clamped by the session's deadline; executions
        // answer to the session's cancel token (the request's token is
        // process-local and never crosses the wire).
        let limits = request
            .effective_limits()
            .clamped(self.timeout(), None)
            .with_cancel(self.cancel.clone());
        let out = self.colarm.run_inner(
            &query,
            &subset,
            self.exec_options().with_metrics(request.metrics),
            &limits,
            Some(self),
            self.probe_reuse(&query),
            request.plan,
            request.analyze,
        )?;
        // A canceled execution propagated above before anything was
        // cached: partial work never masquerades as an answer.
        if plain {
            self.answer_misses.fetch_add(1, Ordering::Relaxed);
            let cached = Arc::new(out.answer.clone());
            self.answers.lock().insert(key, cached);
        }
        Ok(QueryOutcome {
            session: Some(self.stats()),
            ..out.into_outcome(request.trace)
        })
    }

    /// How this session's column cache would serve the query's SELECT —
    /// the [`SelectReuse`] hint handed to the optimizer before execution.
    /// Purely observational: counts nothing, refreshes no recency.
    fn probe_reuse(&self, query: &LocalizedQuery) -> SelectReuse {
        let key = ColumnsKey::of(query);
        let cache = self.columns.lock();
        let mut best: Option<usize> = None;
        for (k, cols, _) in cache.iter() {
            if *k == key {
                return SelectReuse::Cached;
            }
            if k.item_attrs == key.item_attrs
                && query.range.refinement_delta(&k.range).is_some()
            {
                let vol = column_volume(cols);
                best = Some(best.map_or(vol, |b| b.min(vol)));
            }
        }
        match best {
            Some(volume) => SelectReuse::Derive {
                volume: volume as f64,
            },
            None => SelectReuse::Fresh,
        }
    }

    /// Session cache statistics.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            subset_hits: self.subset_hits.load(Ordering::Relaxed),
            subset_misses: self.subset_misses.load(Ordering::Relaxed),
            subset_evictions: self.subsets.lock().evictions() as usize,
            answer_hits: self.answer_hits.load(Ordering::Relaxed),
            answer_misses: self.answer_misses.load(Ordering::Relaxed),
            answer_evictions: self.answers.lock().evictions() as usize,
            subsets_derived: self.subsets_derived.load(Ordering::Relaxed),
            column_hits: self.column_hits.load(Ordering::Relaxed),
            column_misses: self.column_misses.load(Ordering::Relaxed),
            columns_derived: self.columns_derived.load(Ordering::Relaxed),
            column_evictions: self.columns.lock().evictions() as usize,
        }
    }

    /// Drop all cached state (e.g. after the analyst switches task). The
    /// lifetime hit/miss/eviction counters are preserved.
    pub fn clear(&self) {
        self.subsets.lock().clear();
        self.answers.lock().clear();
        self.columns.lock().clear();
    }
}

impl ColumnStore for QuerySession {
    fn fetch(&self, query: &LocalizedQuery, _subset: &FocalSubset) -> ColumnReuse {
        let key = ColumnsKey::of(query);
        let mut cache = self.columns.lock();
        if let Some(cols) = cache.get(&key) {
            self.column_hits.fetch_add(1, Ordering::Relaxed);
            return ColumnReuse::Exact(cols.clone());
        }
        // Parent scan: same item restriction, range refined by this
        // query. Deterministic choice — smallest tid volume (least
        // derivation work), unique recency stamps breaking ties.
        let parent = cache
            .iter()
            .filter(|(k, _, _)| {
                k.item_attrs == key.item_attrs
                    && query.range.refinement_delta(&k.range).is_some()
            })
            .min_by_key(|(_, cols, stamp)| (column_volume(cols), *stamp))
            .map(|(_, cols, _)| cols.clone());
        match parent {
            Some(cols) => ColumnReuse::Derive(cols),
            None => ColumnReuse::Fresh,
        }
    }

    fn publish(
        &self,
        query: &LocalizedQuery,
        _subset: &FocalSubset,
        columns: &Arc<Vec<ItemTids>>,
        derived: bool,
    ) {
        if derived {
            self.columns_derived.fetch_add(1, Ordering::Relaxed);
        } else {
            self.column_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.columns
            .lock()
            .insert(ColumnsKey::of(query), columns.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mip::MipIndexConfig;
    use crate::plan::PlanKind;
    use colarm_data::synth::salary;

    /// A plain (answer-cacheable) session run that reports its trace.
    fn run(session: &QuerySession, q: &LocalizedQuery) -> Result<QueryOutcome, ColarmError> {
        session.run(&QueryRequest::query(q).with_trace(true))
    }

    fn system() -> Arc<Colarm> {
        Colarm::build(
            salary(),
            MipIndexConfig {
                primary_support: 2.0 / 11.0,
                ..Default::default()
            },
        )
        .unwrap()
        .into_shared()
    }

    #[test]
    fn threshold_refinement_reuses_the_subset() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm);
        let base = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap();
        for minsupp in [0.5, 0.6, 0.75] {
            let q = base.clone().minsupp(minsupp).minconf(0.8).build().unwrap();
            run(&session, &q).unwrap();
        }
        let stats = session.stats();
        assert_eq!(stats.subset_misses, 1, "one range → one resolution");
        assert_eq!(stats.subset_hits, 2);
        assert_eq!(stats.answer_misses, 3);
        assert_eq!(stats.answer_evictions, 0);
    }

    #[test]
    fn identical_queries_hit_the_answer_cache() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm);
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.8)
            .build()
            .unwrap();
        let a = run(&session, &q).unwrap();
        let b = run(&session, &q).unwrap();
        assert_eq!(a.rules, b.rules);
        assert!(a.choice.is_some(), "first answer ran the optimizer");
        assert!(b.choice.is_none(), "second answer must come from cache");
        assert_eq!(session.stats().answer_hits, 1);
        // Different threshold → different key.
        let q2 = LocalizedQuery::builder()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .minsupp(0.6)
            .minconf(0.8)
            .build()
            .unwrap();
        run(&session, &q2).unwrap();
        assert_eq!(session.stats().answer_misses, 2);
    }

    #[test]
    fn cached_answers_match_uncached_execution() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm.clone());
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Company", &["Google"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap();
        let via_session = run(&session, &q).unwrap();
        let direct = colarm
            .run(&crate::request::QueryRequest::query(&q))
            .unwrap();
        assert_eq!(via_session.rules, direct.rules);
    }

    #[test]
    fn thread_knob_does_not_change_answers() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap();
        let sequential = QuerySession::new(colarm.clone());
        sequential.set_threads(1);
        let a = run(&sequential, &q).unwrap();
        let parallel = QuerySession::new(colarm);
        parallel.set_threads(4);
        let b = run(&parallel, &q).unwrap();
        assert_eq!(a.rules, b.rules);
    }

    #[test]
    fn clear_resets_the_caches() {
        let colarm = system();
        let session = QuerySession::new(colarm);
        let q = LocalizedQuery::builder()
            .minsupp(0.5)
            .minconf(0.8)
            .build()
            .unwrap();
        run(&session, &q).unwrap();
        session.clear();
        run(&session, &q).unwrap();
        assert_eq!(session.stats().answer_misses, 2);
    }

    #[test]
    fn bounded_answer_cache_evicts_lru_deterministically() {
        let colarm = system();
        let session = QuerySession::with_config(
            colarm,
            SessionConfig {
                max_answers: 2,
                max_subsets: 16,
                ..Default::default()
            },
        );
        let query = |minsupp: f64| {
            LocalizedQuery::builder()
                .minsupp(minsupp)
                .minconf(0.7)
                .build()
                .unwrap()
        };
        let (q1, q2, q3) = (query(0.3), query(0.4), query(0.5));
        run(&session, &q1).unwrap();
        run(&session, &q2).unwrap();
        run(&session, &q3).unwrap(); // evicts q1's answer
        assert_eq!(session.stats().answer_evictions, 1);
        run(&session, &q2).unwrap(); // hit: refreshes q2, q3 becomes LRU
        assert_eq!(session.stats().answer_hits, 1);
        run(&session, &q1).unwrap(); // miss again, evicts q3 (q2 refreshed)
        let stats = session.stats();
        assert_eq!(stats.answer_misses, 4);
        assert_eq!(stats.answer_evictions, 2);
        run(&session, &q2).unwrap();
        assert_eq!(session.stats().answer_hits, 2, "q2 survived both evictions");
    }

    #[test]
    fn bounded_subset_cache_evicts_and_recounts() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::with_config(
            colarm,
            SessionConfig {
                max_answers: 16,
                max_subsets: 1,
                ..Default::default()
            },
        );
        let range = |loc: &str| {
            RangeSpec::all()
                .with_named(&schema, "Location", &[loc])
                .unwrap()
        };
        session.subset(&range("Seattle")).unwrap();
        session.subset(&range("Boston")).unwrap(); // evicts Seattle
        session.subset(&range("Seattle")).unwrap(); // miss again
        let stats = session.stats();
        assert_eq!(stats.subset_misses, 3);
        assert_eq!(stats.subset_hits, 0);
        assert_eq!(stats.subset_evictions, 2);
    }

    #[test]
    fn zero_capacity_disables_caching_but_not_execution() {
        let colarm = system();
        let session = QuerySession::with_config(
            colarm,
            SessionConfig {
                max_answers: 0,
                max_subsets: 0,
                max_columns: 0,
            },
        );
        let q = LocalizedQuery::builder()
            .minsupp(0.5)
            .minconf(0.8)
            .build()
            .unwrap();
        let a = run(&session, &q).unwrap();
        let b = run(&session, &q).unwrap();
        assert_eq!(a.rules, b.rules);
        let stats = session.stats();
        assert_eq!(stats.answer_hits, 0);
        assert_eq!(stats.answer_misses, 2);
        assert_eq!(stats.answer_evictions, 0);
    }

    #[test]
    fn sessions_are_owned_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<QuerySession>();
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm);
        // An owned session moves into a spawned (non-scoped) thread.
        let handle = std::thread::spawn(move || {
            let q = LocalizedQuery::builder()
                .range_named(&schema, "Location", &["Seattle"])
                .unwrap()
                .minsupp(0.5)
                .minconf(0.7)
                .build()
                .unwrap();
            let answer = run(&session, &q).unwrap();
            answer.rules.len()
        });
        handle.join().unwrap();
    }

    #[test]
    fn sessions_are_shareable_across_threads() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm);
        std::thread::scope(|scope| {
            for loc in ["Seattle", "Boston", "SFO"] {
                let session = &session;
                let schema = schema.clone();
                scope.spawn(move || {
                    let q = LocalizedQuery::builder()
                        .range_named(&schema, "Location", &[loc])
                        .unwrap()
                        .minsupp(0.5)
                        .minconf(0.7)
                        .build()
                        .unwrap();
                    // SFO has 2 records; every location subset is nonempty.
                    run(session, &q).unwrap();
                });
            }
        });
        assert_eq!(session.stats().answer_misses, 3);
    }

    #[test]
    fn zero_timeout_cancels_and_clearing_it_restores_the_session() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm);
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap();
        session.set_timeout(Some(Duration::ZERO));
        let err = run(&session, &q).unwrap_err();
        assert!(
            matches!(err, ColarmError::Canceled { .. }),
            "expected Canceled, got {err:?}"
        );
        assert!(err.to_string().contains("canceled in"));
        // The canceled run was never cached...
        assert_eq!(session.stats().answer_misses, 0);
        // ...and the session works again once the deadline is lifted.
        session.set_timeout(None);
        assert_eq!(session.timeout(), None);
        run(&session, &q).unwrap();
        assert_eq!(session.stats().answer_misses, 1);
    }

    #[test]
    fn armed_cancel_token_blocks_until_reset() {
        let colarm = system();
        let session = QuerySession::new(colarm);
        let q = LocalizedQuery::builder()
            .minsupp(0.5)
            .minconf(0.8)
            .build()
            .unwrap();
        session.cancel();
        let err = run(&session, &q).unwrap_err();
        assert!(matches!(err, ColarmError::Canceled { .. }));
        // Cached state and stats are untouched by the cancellation; a
        // reset session executes (and caches) normally.
        session.reset_cancel();
        run(&session, &q).unwrap();
        run(&session, &q).unwrap();
        let stats = session.stats();
        assert_eq!(stats.answer_misses, 1);
        assert_eq!(stats.answer_hits, 1);
    }

    #[test]
    fn session_analyze_reuses_subset_and_reports_metrics() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm.clone());
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap();
        run(&session, &q).unwrap();
        let analyzed = session
            .run(&QueryRequest::query(&q).with_analyze(true))
            .unwrap();
        assert_eq!(session.stats().subset_hits, 1, "analyze reused the subset");
        let report = analyzed.analyze.expect("analyze runs carry a report");
        assert!(report.ops.iter().all(|o| o.metrics.is_some()));
        assert!(!colarm.feedback().is_empty());
    }

    #[test]
    fn drill_down_derives_subsets_and_columns_bit_identically() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm.clone());
        // Unrestricted semantics forces the ARM plan, so SELECT (and the
        // column cache) runs on every query of the chain.
        let q1 = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .semantics(Semantics::Unrestricted)
            .build()
            .unwrap();
        let q2 = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .semantics(Semantics::Unrestricted)
            .build()
            .unwrap();
        run(&session, &q1).unwrap();
        let drilled = run(&session, &q2).unwrap();
        let stats = session.stats();
        assert_eq!(stats.subset_misses, 1, "only q1 resolved from scratch");
        assert_eq!(stats.subsets_derived, 1, "q2's subset derived from q1's");
        assert_eq!(stats.column_misses, 1, "only q1 scanned the vertical DB");
        assert_eq!(stats.columns_derived, 1, "q2's columns derived from q1's");
        // Bit-identical to a cold session that does everything fresh.
        let cold = run(&QuerySession::new(colarm), &q2).unwrap();
        assert_eq!(drilled.rules, cold.rules);
        assert_eq!(drilled.subset_size, cold.subset_size);
        let (drilled, cold) = (drilled.trace.unwrap(), cold.trace.unwrap());
        assert_eq!(drilled.ops.len(), cold.ops.len());
        for (a, b) in drilled.ops.iter().zip(&cold.ops) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.units.to_bits(), b.units.to_bits(), "{} units drifted", a.name());
        }
    }

    #[test]
    fn repeated_forced_arm_hits_the_exact_column_cache() {
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm);
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap();
        let forced = QueryRequest::query(&q).with_plan(PlanKind::Arm).with_trace(true);
        let a = session.run(&forced).unwrap();
        let b = session.run(&forced).unwrap();
        assert_eq!(a.rules, b.rules);
        let stats = session.stats();
        assert_eq!(stats.column_misses, 1);
        assert_eq!(stats.column_hits, 1, "second run reused the exact columns");
        // Reuse shows only in wall-clock and counters — units are pinned.
        let (a, b) = (a.trace.unwrap(), b.trace.unwrap());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.units.to_bits(), y.units.to_bits());
        }
    }

    #[test]
    fn warmed_cache_lowers_the_predicted_select_cost() {
        use crate::ops::OpKind;
        let colarm = system();
        let schema = colarm.index().dataset().schema().clone();
        let session = QuerySession::new(colarm);
        let q = LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .semantics(Semantics::Unrestricted)
            .build()
            .unwrap();
        let analyze = QueryRequest::query(&q).with_analyze(true);
        let cold = session.run(&analyze).unwrap();
        let warm = session.run(&analyze).unwrap();
        let select_secs = |a: &QueryOutcome| {
            a.choice
                .as_ref()
                .unwrap()
                .estimate_for(PlanKind::Arm)
                .term(OpKind::Select)
                .unwrap()
                .seconds
        };
        assert!(
            select_secs(&warm) < select_secs(&cold),
            "optimizer must price the cached SELECT cheaper"
        );
        // The executed SELECT reveals the exact hit through its counters.
        let report = warm.analyze.as_ref().unwrap();
        let m = report.op_kind(OpKind::Select).unwrap().metrics.unwrap();
        assert!(m.cache_hits > 0, "exact column reuse recorded");
        assert_eq!(session.stats().column_hits, 1);
    }
}
