//! CHARM: closed frequent itemset mining (Zaki & Hsiao, SDM 2002 — the
//! paper's reference \[24\]).
//!
//! CHARM explores the itemset–tidset (IT) search tree over a vertical
//! database, pruning with four properties of IT-pairs `(Xi, t(Xi))` and
//! `(Xj, t(Xj))` when forming `Y = Xi ∪ Xj`:
//!
//! 1. `t(Xi) = t(Xj)` — `Xj` can be merged into `Xi` and dropped;
//! 2. `t(Xi) ⊂ t(Xj)` — `Xi` can be replaced by `Y` (`Xj` stays);
//! 3. `t(Xi) ⊃ t(Xj)` — `Xj` is dropped, `Y` becomes a child of `Xi`;
//! 4. otherwise `Y` becomes a child of `Xi` if frequent.
//!
//! Generated closed candidates are checked for subsumption against a hash
//! table keyed by the sum of tids (Zaki's trick): a candidate is subsumed
//! iff an already-found closed set has the identical tidset and is a
//! superset.

use crate::vertical::ItemTids;
use colarm_data::{Itemset, Tidset};
use std::collections::HashMap;

/// A mined closed frequent itemset together with its exact tidset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedItemset {
    /// The closed itemset.
    pub itemset: Itemset,
    /// Records containing it (`t(I)`); `support = tids.len()`.
    pub tids: Tidset,
}

impl ClosedItemset {
    /// Absolute support count.
    pub fn support(&self) -> usize {
        self.tids.len()
    }
}

/// An IT-pair during the search: the itemset grown so far plus its tidset.
#[derive(Debug, Clone)]
struct ItPair {
    itemset: Itemset,
    tids: Tidset,
}

/// Accumulates closed sets with Zaki's tid-sum subsumption hash.
#[derive(Default)]
struct ClosedAccumulator {
    sets: Vec<ClosedItemset>,
    by_hash: HashMap<u64, Vec<usize>>,
}

impl ClosedAccumulator {
    fn tid_hash(tids: &Tidset) -> u64 {
        tids.iter().map(u64::from).sum()
    }

    /// Insert unless an existing closed set subsumes the candidate
    /// (identical tidset, superset itemset).
    fn insert(&mut self, itemset: Itemset, tids: Tidset) {
        let h = Self::tid_hash(&tids);
        if let Some(bucket) = self.by_hash.get(&h) {
            for &idx in bucket {
                let c = &self.sets[idx];
                if c.tids.len() == tids.len()
                    && itemset.is_subset_of(&c.itemset)
                    && c.tids == tids
                {
                    return; // subsumed
                }
            }
        }
        let idx = self.sets.len();
        self.sets.push(ClosedItemset { itemset, tids });
        self.by_hash.entry(h).or_default().push(idx);
    }
}

/// Mine all closed itemsets with absolute support ≥ `min_count` from a
/// vertical database. `min_count` must be ≥ 1.
///
/// The result is unordered; every itemset is closed w.r.t. the records
/// covered by `columns` (for COLARM's offline phase that is the full
/// dataset; for the ARM plan it is the focal subset).
pub fn charm(columns: &[ItemTids], min_count: usize) -> Vec<ClosedItemset> {
    charm_par(columns, min_count, 1)
}

/// [`charm`] with the first-level branches of the IT-tree fanned out
/// across up to `threads` workers (`0` = the session default from
/// [`colarm_data::par::max_threads`]; `1` = fully sequential).
///
/// The output vector is **bit-identical** to the sequential miner at any
/// thread count: the first-level property loop runs sequentially (it
/// rewrites the sibling list as properties 1 and 3 fire), each surviving
/// branch explores its subtree into a worker-local accumulator, and the
/// locals are merged *in branch order* through the global accumulator's
/// subsumption-checking insert. A candidate dropped locally would also be
/// dropped sequentially (its subsumer precedes it in the same branch),
/// and the merge re-check sees exactly the sets the sequential run had
/// inserted before it — so the global insertion sequence, and with it CFI
/// numbering, R-tree layout and persisted snapshots, never depend on the
/// thread count.
pub fn charm_par(columns: &[ItemTids], min_count: usize, threads: usize) -> Vec<ClosedItemset> {
    assert!(min_count >= 1, "min_count must be at least 1");
    let mut pairs: Vec<ItPair> = columns
        .iter()
        .filter(|c| c.tids.len() >= min_count)
        .map(|c| ItPair {
            itemset: Itemset::singleton(c.item),
            tids: c.tids.clone(),
        })
        .collect();
    // Process in increasing support order (CHARM's recommended order: it
    // maximizes the chance of properties 1/2 firing early).
    pairs.sort_by_key(|p| p.tids.len());
    let threads = colarm_data::par::resolve_threads(threads);
    let mut closed = ClosedAccumulator::default();
    if threads <= 1 || pairs.len() < 2 {
        charm_extend(pairs, min_count, &mut closed);
        return closed.sets;
    }
    let branches = first_level_branches(pairs, min_count);
    let locals = colarm_data::par::parallel_map(&branches, threads, |_, branch| {
        let mut local = ClosedAccumulator::default();
        if !branch.children.is_empty() {
            charm_extend(branch.children.clone(), min_count, &mut local);
        }
        local.insert(branch.x.itemset.clone(), branch.x.tids.clone());
        local.sets
    });
    for sets in locals {
        for c in sets {
            closed.insert(c.itemset, c.tids);
        }
    }
    closed.sets
}

/// One first-level branch: the grown prefix `X` plus its child IT-pairs,
/// ready for independent subtree exploration.
struct Branch {
    x: ItPair,
    children: Vec<ItPair>,
}

/// Run the first-level property loop to completion, collecting every
/// branch instead of recursing — the sequential part of [`charm_par`].
fn first_level_branches(mut pairs: Vec<ItPair>, min_count: usize) -> Vec<Branch> {
    let mut branches = Vec::new();
    let mut i = 0usize;
    while i < pairs.len() {
        let (x, children) = explore_siblings(&mut pairs, i, min_count);
        branches.push(Branch { x, children });
        i += 1;
    }
    branches
}

fn charm_extend(mut pairs: Vec<ItPair>, min_count: usize, closed: &mut ClosedAccumulator) {
    let mut i = 0usize;
    while i < pairs.len() {
        let (x, children) = explore_siblings(&mut pairs, i, min_count);
        if !children.is_empty() {
            charm_extend(children, min_count, closed);
        }
        closed.insert(x.itemset, x.tids);
        i += 1;
    }
}

/// Grow `pairs[i]` against its right siblings with Zaki's four IT-pair
/// properties, mutating the sibling list in place (properties 1 and 3
/// remove siblings). Returns the fully grown `X` and its child pairs,
/// sorted by support for recursion.
///
/// The inner loop is allocation-free except where a child is actually
/// kept: the intersection lands in a reused scratch tidset, property 3
/// recycles the removed sibling's tidset (`t(X) ∩ t(Xj) = t(Xj)` there),
/// and only property 4 surrenders the scratch buffer.
fn explore_siblings(
    pairs: &mut Vec<ItPair>,
    i: usize,
    min_count: usize,
) -> (ItPair, Vec<ItPair>) {
    // Take Xi out; it may grow via properties 1 and 2.
    let mut x = pairs[i].clone();
    // Children store only the items beyond `x` plus the combined tidset,
    // so later growth of `x` (properties 1/2) automatically applies to
    // them when materialized below.
    let mut children: Vec<(Itemset, Tidset)> = Vec::new();
    let mut scratch = Tidset::new();
    let mut j = i + 1;
    while j < pairs.len() {
        x.tids.intersect_into(&pairs[j].tids, &mut scratch);
        if scratch.len() < min_count {
            j += 1;
            continue;
        }
        let xi_len = x.tids.len();
        let xj_len = pairs[j].tids.len();
        if scratch.len() == xi_len && scratch.len() == xj_len {
            // Property 1: identical tidsets — absorb Xj into X.
            x.itemset = x.itemset.union(&pairs[j].itemset);
            pairs.remove(j);
        } else if scratch.len() == xi_len {
            // Property 2: t(X) ⊂ t(Xj) — X's closure includes Xj.
            x.itemset = x.itemset.union(&pairs[j].itemset);
            j += 1;
        } else if scratch.len() == xj_len {
            // Property 3: t(Xj) ⊂ t(X) — drop Xj, Y is a child of X; the
            // intersection equals t(Xj), so reuse it as-is.
            let xj = pairs.remove(j);
            children.push((xj.itemset, xj.tids));
        } else {
            // Property 4: incomparable — Y is a child of X.
            children.push((pairs[j].itemset.clone(), std::mem::take(&mut scratch)));
            j += 1;
        }
    }
    let mut child_pairs: Vec<ItPair> = children
        .into_iter()
        .map(|(extra, tids)| ItPair {
            itemset: x.itemset.union(&extra),
            tids,
        })
        .collect();
    child_pairs.sort_by_key(|p| p.tids.len());
    (x, child_pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{brute_force_closed, brute_force_frequent};
    use crate::vertical::full_vertical;
    use colarm_data::synth::{generate, salary, SynthConfig};
    use colarm_data::VerticalIndex;

    fn mine_salary(min_count: usize) -> Vec<ClosedItemset> {
        let d = salary();
        let v = VerticalIndex::build(&d);
        charm(&full_vertical(&v), min_count)
    }

    fn sorted_sets(mut v: Vec<ClosedItemset>) -> Vec<(Itemset, usize)> {
        let mut out: Vec<(Itemset, usize)> = v
            .drain(..)
            .map(|c| (c.itemset.clone(), c.support()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn salary_closed_sets_match_brute_force() {
        let d = salary();
        let v = VerticalIndex::build(&d);
        for min_count in [1usize, 2, 3, 5] {
            let got = sorted_sets(mine_salary(min_count));
            let expected = sorted_sets(brute_force_closed(&v, min_count));
            assert_eq!(got, expected, "min_count {min_count}");
        }
    }

    #[test]
    fn all_outputs_are_closed_and_frequent() {
        let d = salary();
        let v = VerticalIndex::build(&d);
        let min_count = 2;
        let frequent = sorted_sets(brute_force_frequent(&v, min_count));
        for c in mine_salary(min_count) {
            assert!(c.support() >= min_count);
            assert_eq!(v.itemset_tids(&c.itemset), c.tids, "tidset must be exact");
            // Every closed set is a frequent set, with the same support.
            let key = (c.itemset.clone(), c.support());
            assert!(frequent.binary_search(&key).is_ok(), "not frequent: {}", c.itemset);
            // Closure check: no item outside extends it with equal support.
            for i in 0..d.schema().num_items() as u32 {
                let item = colarm_data::ItemId(i);
                if !c.itemset.contains(item) {
                    assert!(
                        !c.tids.is_subset_of(v.tids(item)),
                        "{} not closed: extendable by item {item}",
                        c.itemset
                    );
                }
            }
        }
    }

    #[test]
    fn no_duplicates_in_output() {
        let sets = mine_salary(1);
        let mut seen = std::collections::HashSet::new();
        for c in &sets {
            assert!(seen.insert(c.itemset.clone()), "duplicate {}", c.itemset);
        }
        assert!(sets.len() > 20, "salary at min_count 1 has many closed sets");
    }

    #[test]
    fn threshold_monotonicity() {
        let a = mine_salary(2).len();
        let b = mine_salary(4).len();
        assert!(b <= a);
    }

    #[test]
    #[should_panic(expected = "min_count")]
    fn zero_threshold_rejected() {
        mine_salary(0);
    }

    #[test]
    fn parallel_fanout_is_bit_identical() {
        // Not just the same rule *set*: the same vector, in the same
        // order — CFI numbering depends on it.
        let d = salary();
        let v = VerticalIndex::build(&d);
        let cols = full_vertical(&v);
        for min_count in [1usize, 2, 3] {
            let seq = charm(&cols, min_count);
            for threads in [2usize, 3, 8] {
                let par = charm_par(&cols, min_count, threads);
                assert_eq!(seq, par, "min_count {min_count} threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_fanout_matches_on_random_data() {
        for seed in 0..4u64 {
            let cfg = SynthConfig {
                name: "t".into(),
                seed,
                records: 80,
                domains: vec![3, 2, 4, 2, 3],
                top_mass: 0.5,
                skew: 1.0,
                clusters: 2,
                cluster_focus: 0.6,
                focus_strength: 0.9,
                templates: 2,
                template_len: 2,
                template_prob: 0.3,
            };
            let d = generate(&cfg);
            let v = VerticalIndex::build(&d);
            let cols = full_vertical(&v);
            for min_count in [2usize, 8] {
                let seq = charm(&cols, min_count);
                let par = charm_par(&cols, min_count, 4);
                assert_eq!(seq, par, "seed {seed} min_count {min_count}");
            }
        }
    }

    #[test]
    fn random_datasets_match_brute_force() {
        for seed in 0..6u64 {
            let cfg = SynthConfig {
                name: "t".into(),
                seed,
                records: 60,
                domains: vec![2, 3, 2, 4],
                top_mass: 0.5,
                skew: 1.0,
                clusters: 2,
                cluster_focus: 0.6,
                focus_strength: 0.9,
                templates: 2,
                template_len: 2,
                template_prob: 0.3,
            };
            let d = generate(&cfg);
            let v = VerticalIndex::build(&d);
            for min_count in [2usize, 6, 15] {
                let got = sorted_sets(charm(&full_vertical(&v), min_count));
                let expected = sorted_sets(brute_force_closed(&v, min_count));
                assert_eq!(got, expected, "seed {seed} min_count {min_count}");
            }
        }
    }
}
