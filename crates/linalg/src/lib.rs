//! # observatory-linalg
//!
//! Dense linear algebra kernels for the Observatory workspace.
//!
//! Everything in this crate is self-contained (no external dependencies) and
//! operates on `f64`. The crate provides exactly what the Observatory
//! measures and the from-scratch Transformer need:
//!
//! - [`vector`]: dot products, norms, cosine similarity, L1/L2 distances,
//!   elementwise arithmetic and mean vectors.
//! - [`matrix`]: a row-major dense [`matrix::Matrix`] with multiplication,
//!   transpose, row views and per-row map/reduce helpers.
//! - [`kernels`]: the fused, tiled, serial encoder kernels (register-tiled
//!   bias/GELU-fused linear maps, head-batched attention) plus their scalar
//!   reference implementations and the kernel timing counters.
//! - [`fastmath`]: branch-light, vectorizable polynomial `exp`/`tanh`/GELU
//!   approximations with documented, regression-tested ULP bounds — the
//!   kernels' softmax and GELU epilogue run on these.
//! - [`parallel`]: the scoped worker-pool primitive (ordered results,
//!   dynamic self-scheduling) that `observatory-runtime`'s table-batch
//!   pool and the ANN build run on.
//! - [`moments`]: mean vector and covariance matrix of a sample of vectors
//!   (the inputs to the multivariate coefficient of variation).
//! - [`pca`]: principal component analysis via power iteration with
//!   deflation (used to regenerate the paper's Figures 6 and 8).
//! - [`solve`]: Gaussian-elimination inverse/solver (used by the ablation
//!   MCV estimator that, unlike Albert–Zhang's, requires `Σ⁻¹`).
//! - [`rng`]: a tiny deterministic `SplitMix64` generator plus Box–Muller
//!   normal sampling, used for reproducible weight initialization.
//! - [`simd`]: runtime CPU-feature dispatch (scalar reference and one
//!   AVX2 fast tier, `OBSERVATORY_SIMD` override, decided once per
//!   process) and the fixed-order vector backends both tiers share —
//!   the tiers are **byte-identical**, only throughput differs.
//! - [`reduce`]: tier-dispatched dot / squared-norm / cosine reductions in
//!   the fixed 8-lane accumulation order (adopted by search, stats and the
//!   serving kNN path).
//! - [`workspace`]: per-thread scratch-buffer pool that removes steady-state
//!   heap allocations from the serial encoder hot path.

pub mod fastmath;
pub mod kernels;
pub mod matrix;
pub mod moments;
pub mod parallel;
pub mod pca;
pub mod reduce;
pub mod rng;
pub mod simd;
pub mod solve;
pub mod vector;
pub mod workspace;

pub use matrix::Matrix;
pub use rng::SplitMix64;
