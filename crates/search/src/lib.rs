//! # observatory-search
//!
//! Value-overlap measures, nearest-neighbour search, and the join-discovery
//! pipeline.
//!
//! - [`overlap`]: the three syntactic joinability measures of Property 3 —
//!   containment, Jaccard, multiset Jaccard (paper Measure 3).
//! - [`knn`]: an exact cosine k-nearest-neighbour index, used by Property 6
//!   (entity stability = K-NN overlap between embedding spaces) and by the
//!   downstream join-discovery experiment.
//! - [`join`]: embedding-based join discovery à la WarpGate (paper §6,
//!   connection for P5): index candidate column embeddings, query by
//!   column, evaluate precision/recall against overlap ground truth.
//! - [`minhash`]: MinHash sketches with Jaccard/containment estimation
//!   (the constant-space overlap estimates of the JOSIE / LSH Ensemble
//!   line the paper builds on).
//! - [`quant`]: int8 scalar quantization of stored vectors (8× smaller
//!   scan payload, exact integer dot products) feeding the graph walk.
//! - [`ann`]: sharded HNSW graphs over quantized vectors with exact f64
//!   re-ranking, behind the [`ann::AnnIndex`] trait that the flat
//!   [`KnnIndex`] also implements (the recall-1 oracle). HNSW is the
//!   workspace's one approximate index — the sublinear regime the
//!   paper's LSH-Ensemble citations target.

pub mod ann;
pub mod join;
pub mod knn;
pub mod minhash;
pub mod overlap;
pub mod quant;

pub use ann::{AnnIndex, HnswConfig, HnswIndex, SearchParams, ShardedHnsw};
pub use knn::KnnIndex;
pub use overlap::{containment, jaccard, multiset_jaccard};
