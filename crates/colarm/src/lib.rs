//! # COLARM — Cost-based Optimization for Localized Association Rule Mining
//!
//! A from-scratch Rust implementation of the COLARM system (Mukherji,
//! Rundensteiner & Ward, *EDBT 2014*): online mining of association rules
//! that hold inside a user-chosen **focal subset** of a relational dataset
//! — rules that are locally significant yet hidden in the global context
//! (Simpson's paradox).
//!
//! ## Architecture (paper Figure 2)
//!
//! * **Offline**: [`mip::MipIndex::build`] mines closed frequent itemsets
//!   at a *primary support threshold* (CHARM) and stores each itemset's
//!   multidimensional bounding box in a packed **Supported R-tree** and
//!   its composition + tidset in a **closed IT-tree**, together with the
//!   index statistics the cost model needs.
//! * **Online**: a [`query::LocalizedQuery`] (built fluently or parsed
//!   from the paper's `REPORT LOCALIZED ASSOCIATION RULES …` language) is
//!   executed by one of **six plans** ([`plan::PlanKind`]) pipelining the
//!   isolated operators of [`ops`]; the [`optimizer::Optimizer`] picks the
//!   plan with the lowest estimated cost from the formulae in [`cost`].
//!
//! ## Quickstart
//!
//! ```
//! use colarm::{Colarm, MipIndexConfig};
//!
//! // Offline: index the paper's Table 1 salary dataset.
//! let colarm = Colarm::build(
//!     colarm::data::synth::salary(),
//!     MipIndexConfig { primary_support: 2.0 / 11.0, ..Default::default() },
//! )
//! .unwrap();
//!
//! // Online: localized rules for female employees in Seattle.
//! let out = colarm
//!     .run_text(
//!         "REPORT LOCALIZED ASSOCIATION RULES FROM Dataset salary \
//!          WHERE RANGE Location = (Seattle), Gender = (F) \
//!          HAVING minsupport = 75% AND minconfidence = 90%;",
//!     )
//!     .unwrap();
//! assert!(!out.rules.is_empty()); // RL = (Age=30-40 → Salary=90K-120K)
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod advisor;
pub mod cost;
pub mod engine;
pub mod error;
pub mod explain;
pub mod framework;
pub mod lru;
pub mod mip;
pub mod ops;
pub mod optimizer;
pub mod paradox;
pub mod persist;
pub mod parse;
pub mod plan;
pub mod query;
pub mod request;
pub mod reuse;
pub mod server;
pub mod session;
pub mod stats;

pub use cost::{CostEstimate, CostTerm, SelectReuse};
pub use engine::{pipeline_ops, Batch, CancelToken, Ctx, PlanOp, QueryLimits, ENGINE_BATCH};
pub use error::ColarmError;
pub use explain::{explain, AnalyzeReport, AnalyzedOp, Explanation};
pub use framework::Colarm;
pub use mip::{MipIndex, MipIndexConfig, Packing};
pub use optimizer::{FeedbackEntry, FeedbackLog, Mispick, Optimizer, PlanChoice};
pub use parse::parse_query;
pub use persist::{
    load_index, load_index_with_constants, load_index_with_mode, save_index,
    save_index_v3_with_constants, save_index_with_constants, IndexSnapshot, SnapshotHeader,
    SnapshotReader, SnapshotStats, SnapshotWriter, ValidationMode,
};
pub use stats::{CatalogHints, StatsCatalog, StatsSource};
pub use ops::{ExecOptions, OpKind, OpTrace};
pub use plan::{execute_plan, ExecutionTrace, PlanKind, QueryAnswer};
pub use query::{LocalizedQuery, Semantics};
pub use request::{QueryOutcome, QueryRequest};
pub use server::{
    Clock, ColarmServer, MockClock, ServerConfig, ServerHandle, SystemClock, TransportConfig,
    TransportStats, DEFAULT_INDEX,
};
pub use reuse::{ColumnReuse, ColumnStore};
pub use session::{QuerySession, SessionConfig, SessionStats};

pub use colarm_data::metrics::OpMetrics;
pub use colarm_data::par::{pool_stats, PoolStats};

// Re-export the substrate crates so downstream users need only `colarm`.
pub use colarm_data as data;
pub use colarm_mine as mine;
pub use colarm_rtree as rtree;
