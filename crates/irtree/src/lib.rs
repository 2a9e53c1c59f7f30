#![warn(missing_docs)]
//! The IR²-Tree and MIR²-Tree, and the algorithms that answer top-k
//! spatial keyword queries — the paper's contribution (Sections 4 and 5).
//!
//! An IR²-Tree "is a combination of an R-Tree and signature files": every
//! entry of the underlying [`RTree`](ir2_rtree::RTree) carries a signature;
//! a node's signature is the superimposition of its entries', so one
//! containment test prunes a whole subtree during incremental
//! nearest-neighbor traversal. This crate supplies:
//!
//! * [`Ir2Payload`] — uniform signature length at every level (the
//!   IR²-Tree), where parent signatures fold cheaply from children;
//! * [`MirPayload`] — per-level optimal lengths (the MIR²-Tree,
//!   "multi-level superimposed coding"), whose maintenance must re-access
//!   underlying objects across level boundaries — the trade-off Section 4
//!   discusses;
//! * object-level insert/delete/bulk-load helpers that tokenize documents
//!   and maintain signatures ([`insert_object`], [`delete_object`],
//!   [`bulk_load_objects`]);
//! * the query algorithms, one entry point each:
//!
//!   | entry point | algorithm |
//!   |---|---|
//!   | [`distance_first_topk`] | distance-first IR² (Figure 8's `IR2TopK`) |
//!   | [`rtree_baseline_topk`] | R-Tree baseline (Section 5.1) |
//!   | [`general_topk_limited_traced`] | general IR², ranked by `f(distance, IRscore)` (Section 5.3) |
//!   | [`keyword_window_query`] | Boolean keywords within a window |
//!
//!   [`general_topk_traced`] is the general algorithm without limits.
//!   The two distance-first entry points take a region (point or area),
//!   normalized keywords, `k`, [`QueryLimits`](ir2_model::QueryLimits) and
//!   a [`TraceSink`], and share one top-k collector; their incremental
//!   forms are [`DistanceFirstIter`] and [`RtreeBaselineIter`].
//!
//! Both signature algorithms "can also operate on MIR²-Trees with no
//! modification" — they are generic over the payload via [`SigPayload`].
//!
//! An unlimited run passes [`QueryLimits::none`](ir2_model::QueryLimits::none),
//! which never trips; an untraced run passes [`NopSink`], whose empty
//! `record` monomorphizes away. The sink receives one [`TraceEvent`] per
//! node visit, signature test, and object fetch.

mod baseline;
mod diagnostics;
mod distance_first;
mod general;
mod objects;
mod payloads;
pub mod trace;
mod window;

pub use baseline::{rtree_baseline_topk, RtreeBaselineIter};
pub use diagnostics::{density_profile, LevelDensity};
pub use distance_first::{
    distance_first_topk, BoundedStep, DistanceFirstIter, LimitedTopk, SearchCounters,
};
pub use general::{general_topk_limited_traced, general_topk_traced, GeneralQuery, ScoredResult};
pub use objects::{bulk_load_objects, delete_object, insert_object};
pub use payloads::{Ir2Payload, MirPayload, SigPayload};
pub use trace::{LevelPruning, NopSink, StatsSink, TraceEvent, TraceSink, TraceStats, VecSink};
pub use window::keyword_window_query;

/// An IR²-Tree: an augmented R-Tree with uniform signatures.
pub type Ir2Tree<const N: usize, D> = ir2_rtree::RTree<N, D, Ir2Payload>;

/// A MIR²-Tree: an augmented R-Tree with per-level signature schemes.
pub type Mir2Tree<const N: usize, D> = ir2_rtree::RTree<N, D, MirPayload<N>>;
