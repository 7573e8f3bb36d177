//! # rpq-graph
//!
//! Proximity-graph (PG) substrate for the RPQ reproduction. The paper
//! integrates its learned quantizer with three mainstream PGs — **Vamana**
//! (DiskANN), **HNSW** and **NSG** — so all three are implemented here from
//! scratch, over a common representation:
//!
//! * [`ProximityGraph`] — frozen CSR adjacency + entry vertex (paper Def. 2),
//! * [`beam::beam_search`] — the routing procedure (paper §3.1 / Alg. 2's
//!   outer loop) generic over a [`beam::DistanceEstimator`], so the same
//!   code routes with exact distances, PQ/ADC distances, or anything else,
//! * [`pool::CandidatePool`] — the sorted candidate set `b` of Alg. 2 that
//!   every beam loop (search, construction, the disk engine, `rpq-core`'s
//!   routing-feature sampler) routes with; the paper's *routing features*
//!   (Def. 6) are its best `h` at each next-hop decision of that one beam,
//! * [`knn`] — brute-force and NN-Descent k-NN graphs (construction seeds
//!   for NSG),
//! * [`hnsw`], [`nsg`], [`vamana`] — the three builders.
//!
//! HNSW's base layer is the graph's CSR and its hierarchical entry point
//! the PG entry; its upper layers stay as levels that an unfiltered search
//! descends greedily to pick where its base-layer beam starts
//! ([`GraphView::start_vertex`], DESIGN.md §6.2). The beam itself — and
//! the routing features recorded from it — is the same on every graph.

pub mod beam;
mod construction;
pub mod dynamic;
pub mod hnsw;
pub mod knn;
pub mod nsg;
pub mod pg;
pub mod pool;
pub mod vamana;

pub use beam::{
    beam_search, beam_search_filtered, DistanceEstimator, ExactEstimator, Neighbor, SearchScratch,
    SearchStats, VertexFilter,
};
pub use dynamic::DynamicGraph;
pub use hnsw::HnswConfig;
pub use knn::{brute_force_knn_graph, knn_graph_recall, nn_descent};
pub use nsg::build_nsg;
pub use pg::{GraphView, ProximityGraph};
pub use pool::CandidatePool;
pub use vamana::VamanaConfig;
