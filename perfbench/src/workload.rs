//! The three workloads: their datasets, their seeded request streams and
//! the in-process answers every served response is checked against.

use colarm::data::synth::{generate, SynthConfig};
use colarm::data::{AttributeId, Dataset, DatasetBuilder, RangeSpec};
use colarm::mine::Rule;
use colarm::{Colarm, LocalizedQuery, QueryRequest, QuerySession, Semantics, SessionConfig};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Adhoc,
    Drilldown,
    Wide,
}

/// Refinement steps per drill-down session.
pub const CHAIN_LEN: usize = 8;
/// Distinct drill-down chains a run cycles through (one fresh session per
/// round, so cycling never lets one session reuse another's caches). Enough
/// that the mix of cheap and costly chains is alike from seed to seed.
const CHAINS: usize = 256;
/// Every drill-down step keeps at least this many records in focus.
const MIN_CHAIN_RECORDS: usize = 100;
/// No drill-down step answers with more rules than this: the workload is
/// about cache reuse, and huge answers belong to `wide`.
const MAX_CHAIN_RULES: usize = 1_000;
/// `wide` answers must fall in this rule-count band.
const WIDE_RULES: std::ops::RangeInclusive<usize> = 5_000..=31_000;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "adhoc" => Some(Workload::Adhoc),
            "drilldown" => Some(Workload::Drilldown),
            "wide" => Some(Workload::Wide),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Adhoc => "adhoc",
            Workload::Drilldown => "drilldown",
            Workload::Wide => "wide",
        }
    }

    /// Records of the `server-bench` dataset this workload indexes.
    pub fn records(self) -> usize {
        match self {
            Workload::Adhoc => 100_000,
            Workload::Drilldown | Workload::Wide => 10_000,
        }
    }

    /// Primary support threshold of the MIP-index.
    pub fn primary_support(self) -> f64 {
        match self {
            Workload::Adhoc => 0.1,
            Workload::Drilldown | Workload::Wide => 0.05,
        }
    }
}

/// SplitMix64 finalizer: decorrelates (seed, index) pairs into rng seeds.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `server-bench` dataset: the generator's latent structure (clusters,
/// templates) is fixed so every seed indexes the same CFI catalog, and the
/// seed permutes the record order, so tidsets and snapshot bytes differ
/// per seed while the workload's shape does not.
pub fn dataset(workload: Workload, seed: u64) -> Dataset {
    let base = generate(&SynthConfig {
        name: "server-bench".into(),
        seed: 4242,
        records: workload.records(),
        domains: vec![5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4],
        top_mass: 0.6,
        skew: 1.0,
        clusters: 3,
        cluster_focus: 0.5,
        focus_strength: 0.9,
        templates: 4,
        template_len: 3,
        template_prob: 0.3,
    });
    let mut order: Vec<u32> = (0..base.num_records() as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(mix(seed, u64::MAX)));
    let mut builder = DatasetBuilder::new(base.schema().clone());
    for tid in order {
        builder
            .push(base.record(tid))
            .expect("generated records fit the schema");
    }
    builder.build()
}

/// One query of a workload, with its wire body.
pub struct StreamQuery {
    pub request: QueryRequest,
    pub query: LocalizedQuery,
    pub body: Vec<u8>,
    /// [`digest`] of the in-process answer, when the generator had to
    /// compute it.
    pub expected: Option<u64>,
}

impl StreamQuery {
    pub fn new(query: LocalizedQuery, expected: Option<u64>) -> StreamQuery {
        let request = QueryRequest::query(&query);
        let body = serde_json::to_string(&request)
            .expect("requests serialize")
            .into_bytes();
        StreamQuery {
            request,
            query,
            body,
            expected,
        }
    }
}

/// Order-sensitive FNV-1a digest of a rule list's content (itemsets and
/// counts), independent of how the list was encoded on the wire. A correct
/// response's rules digest to the in-process answer's.
pub fn digest(rules: &[Rule]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    };
    eat(rules.len() as u64);
    for r in rules {
        for side in [&r.antecedent, &r.consequent] {
            eat(side.items().len() as u64);
            for item in side.items() {
                eat(item.0 as u64);
            }
        }
        let c = &r.counts;
        for v in [c.body, c.antecedent, c.consequent, c.universe] {
            eat(v as u64);
        }
    }
    h
}

/// Run `f` over `0..n` on two threads, results in index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<(usize, T)> = std::thread::scope(|s| {
        let f = &f;
        let halves: Vec<_> = (0..2)
            .map(|half| {
                s.spawn(move || (half..n).step_by(2).map(|i| (i, f(i))).collect::<Vec<_>>())
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// `adhoc` query number `i`: a `random_subset_spec` region of 5–50 % of
/// the records, Strict semantics, minsupp 0.6–0.8. Every index gives a
/// fresh region, so no query of a run repeats.
fn adhoc_query(colarm: &Colarm, seed: u64, i: usize) -> StreamQuery {
    let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
    let index = colarm.index();
    let frac = rng.gen_range(0.05..0.5);
    let (range, _) =
        colarm_bench::random_subset_spec(index.dataset(), index.vertical(), frac, &mut rng);
    let query = LocalizedQuery::builder()
        .range(range)
        .minsupp(rng.gen_range(0.6..0.8))
        .minconf(0.8)
        .semantics(Semantics::Strict)
        .build()
        .expect("valid adhoc query");
    StreamQuery::new(query, None)
}

/// `wide` candidate number `i`: a broad Unrestricted query (50–100 % of
/// the records, minsupp 0.2–0.3). Returns `None` when its answer falls
/// outside the workload's rule-count band; the in-process answer that
/// decides this is kept as the expected one.
fn wide_query(colarm: &Colarm, seed: u64, i: usize) -> Option<StreamQuery> {
    let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
    let index = colarm.index();
    let frac = rng.gen_range(0.5..1.0);
    let (range, _) =
        colarm_bench::random_subset_spec(index.dataset(), index.vertical(), frac, &mut rng);
    let query = LocalizedQuery::builder()
        .range(range)
        .minsupp(rng.gen_range(0.2..0.3))
        .minconf(0.6)
        .semantics(Semantics::Unrestricted)
        .build()
        .expect("valid wide query");
    let outcome = colarm.run(&QueryRequest::query(&query)).ok()?;
    WIDE_RULES
        .contains(&outcome.rules.len())
        .then(|| StreamQuery::new(query, Some(digest(&outcome.rules))))
}

/// Grow a sessionless stream to `target` queries, generating on two
/// threads. Indices are drawn in order so the stream depends only on the
/// seed, never on thread timing.
pub fn extend_stream(
    workload: Workload,
    colarm: &Colarm,
    seed: u64,
    stream: &mut Vec<StreamQuery>,
    next_index: &mut usize,
    target: usize,
) {
    while stream.len() < target {
        let missing = target - stream.len();
        // wide rejects roughly half of its candidates.
        let batch = if workload == Workload::Wide {
            missing * 2
        } else {
            missing
        };
        let start = *next_index;
        let made = par_map(batch, |k| match workload {
            Workload::Adhoc => Some(adhoc_query(colarm, seed, start + k)),
            Workload::Wide => wide_query(colarm, seed, start + k),
            Workload::Drilldown => unreachable!("drilldown streams are chains"),
        });
        *next_index += batch;
        stream.extend(made.into_iter().flatten().take(missing));
    }
}

/// One drill-down chain: eight refining Unrestricted queries (each step
/// narrows one more attribute) and their in-process answers, computed by
/// walking the chain through a fresh [`QuerySession`].
pub struct Chain {
    pub steps: Vec<StreamQuery>,
}

/// Eight nested regions, each keeping a drawn share of its parent's
/// records (never fewer than [`MIN_CHAIN_RECORDS`]); `None` if the
/// attributes run out first.
fn refinements(colarm: &Colarm, rng: &mut StdRng) -> Option<Vec<LocalizedQuery>> {
    let index = colarm.index();
    let schema = index.dataset().schema();
    let mut attrs: Vec<usize> = (0..schema.num_attributes()).collect();
    attrs.shuffle(rng);
    let mut range = RangeSpec::all();
    let mut size = index.dataset().num_records();
    let mut queries = Vec::with_capacity(CHAIN_LEN);
    for aid in attrs.into_iter().map(|a| AttributeId(a as u16)) {
        if queries.len() == CHAIN_LEN {
            break;
        }
        // Keep the prefix of a shuffled value order whose retained share
        // of the current focus is closest to a drawn target.
        let mut values: Vec<u16> = (0..schema.attribute(aid).domain_size() as u16).collect();
        values.shuffle(rng);
        let target = rng.gen_range(0.5..0.9) * size as f64;
        let best = (1..values.len())
            .map(|k| {
                let candidate = range.clone().with(aid, values[..k].iter().copied());
                let kept = index
                    .resolve_subset(candidate.clone())
                    .map_or(0, |s| s.len());
                (candidate, kept)
            })
            .filter(|(_, kept)| *kept >= MIN_CHAIN_RECORDS)
            .min_by(|a, b| {
                (a.1 as f64 - target)
                    .abs()
                    .total_cmp(&(b.1 as f64 - target).abs())
            });
        let Some((refined, kept)) = best else {
            continue;
        };
        range = refined;
        size = kept;
        queries.push(
            LocalizedQuery::builder()
                .range(range.clone())
                .minsupp(0.75)
                .minconf(0.6)
                .semantics(Semantics::Unrestricted)
                .build()
                .expect("valid drill-down query"),
        );
    }
    (queries.len() == CHAIN_LEN).then_some(queries)
}

/// The `drilldown` chains of a seed.
pub fn chains(colarm: &Arc<Colarm>, seed: u64, session: SessionConfig) -> Vec<Chain> {
    par_map(CHAINS, |c| chain(colarm, seed, c, session))
}

fn chain(colarm: &Arc<Colarm>, seed: u64, c: usize, config: SessionConfig) -> Chain {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0xD211_1D0E, c as u64));
    // Redraw a chain that runs out of attributes before eight steps, or
    // whose answers outgrow the drill-down's working set.
    loop {
        let Some(queries) = refinements(colarm, &mut rng) else {
            continue;
        };
        let session = QuerySession::with_config(colarm.clone(), config);
        let steps: Vec<StreamQuery> = queries
            .into_iter()
            .map_while(|q| {
                let outcome = session
                    .run(&QueryRequest::query(&q))
                    .expect("chain step runs");
                (outcome.rules.len() <= MAX_CHAIN_RULES)
                    .then(|| StreamQuery::new(q, Some(digest(&outcome.rules))))
            })
            .collect();
        if steps.len() == CHAIN_LEN {
            return Chain { steps };
        }
    }
}
