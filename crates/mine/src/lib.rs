//! Itemset-mining substrate for COLARM (EDBT 2014).
//!
//! COLARM's offline phase mines **closed frequent itemsets** (CFIs) at a
//! primary support threshold with the CHARM algorithm \[24\] and stores them
//! in a closed IT-tree; its online ARM baseline plan re-runs the same miner
//! over the extracted focal subset (§4.6). None of this exists as a usable
//! offline crate, so the substrate is hand-rolled:
//!
//! * [`charm`][mod@charm] — CHARM closed-itemset mining over vertical tid-lists with
//!   Zaki–Hsiao's four IT-pair properties and hash-based subsumption.
//! * [`reference`][mod@reference] — brute-force closed/frequent miners used as oracles by
//!   the property tests.
//! * [`ittree`] — the closed itemset–tidset tree: closure lookup (the key
//!   to computing any itemset's local support from prestored CFIs) and
//!   level organisation (paper Lemma 4.3).
//! * [`rules`] — rule generation (`ap-genrules` with confidence pruning)
//!   parameterized by a [`rules::SupportOracle`], so the same machinery
//!   serves global mining and COLARM's focal-subset VERIFY operator.
//! * [`measures`] — support, confidence, lift, leverage and conviction.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod charm;
pub mod ittree;
pub mod measures;
pub mod reference;
pub mod rules;
pub mod vertical;

pub use charm::{charm, charm_par, ClosedItemset};
pub use ittree::{CfiId, ClosedItTree};
pub use rules::{Rule, SupportOracle};
pub use vertical::ItemTids;
