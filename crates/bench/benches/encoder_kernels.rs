//! `encoder_kernels`: the fused, tiled encoder kernels against the
//! naive scalar reference, over a seq-len × dim grid.
//!
//! Two configurations per point:
//! - `reference` — the naive scalar path (strided slices, no repacking,
//!   no fusion): the shape of the implementation before the kernel layer.
//! - `serial`    — the fused kernels (always serial; parallelism is
//!   table-level, in the runtime engine).
//!
//! Recorded numbers live in DESIGN.md §9: ~2× where libm transcendentals
//! dominated (dim-64 FFN), ~1.4–1.7× on GEMM-bound dim-128 shapes, where
//! the naive i-k-j loop already sits near the no-FMA f64 roofline.
//! A whole-encoder forward pass is benched last.
//!
//! Since the SIMD backend (DESIGN.md §11) the serial rows are additionally
//! swept across dispatch tiers via `simd::force_tier` — `scalar` vs
//! `avx2` rows on the same shapes, same process, same buffers, so
//! the tier delta is the only variable. `bench_simd` (a `src/bin` tool)
//! emits the machine-readable `BENCH_simd.json` counterpart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use observatory_linalg::kernels::{self, reference, AttentionSpec};
use observatory_linalg::simd;
use observatory_linalg::{Matrix, SplitMix64};
use observatory_transformer::config::TransformerConfig;
use observatory_transformer::encoder::{Encoder, TokenInput};
use std::hint::black_box;

const GRID: [(usize, usize); 4] = [(32, 64), (128, 64), (128, 128), (256, 128)];
const N_HEADS: usize = 4;

fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = rng.next_normal_with(0.0, 0.5);
        }
    }
    m
}

fn tier_label(tier: simd::Tier) -> String {
    format!("{tier:?}").to_lowercase()
}

/// GEMM microkernel across SIMD tiers: `linear_bias` (seq×dim · dim×dim)
/// with each available tier forced, same buffers — the per-tier rows
/// DESIGN.md §11's speedup table quotes.
fn bench_gemm_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoder_kernels/gemm");
    group.sample_size(10);
    for (seq, dim) in GRID {
        let mut rng = SplitMix64::new(16);
        let a = random_matrix(&mut rng, seq, dim);
        let b = random_matrix(&mut rng, dim, dim);
        let bias = vec![0.0; dim];
        let param = format!("seq{seq}_dim{dim}");
        for tier in simd::available_tiers() {
            group.bench_function(BenchmarkId::new(tier_label(tier), &param), |bch| {
                simd::force_tier(Some(tier));
                bch.iter(|| black_box(kernels::linear_bias(&a, &b, &bias)));
                simd::force_tier(None);
            });
        }
    }
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoder_kernels/attention");
    group.sample_size(10);
    for (seq, dim) in GRID {
        let mut rng = SplitMix64::new(17);
        let q = random_matrix(&mut rng, seq, dim);
        let k = random_matrix(&mut rng, seq, dim);
        let v = random_matrix(&mut rng, seq, dim);
        let spec = AttentionSpec {
            n_heads: N_HEADS,
            head_dim: dim / N_HEADS,
            scale: 1.0 / ((dim / N_HEADS) as f64).sqrt(),
            bias: None,
            mask: None,
        };
        let param = format!("seq{seq}_dim{dim}");
        group.bench_function(BenchmarkId::new("reference", &param), |b| {
            b.iter(|| black_box(reference::attention(&q, &k, &v, &spec)))
        });
        group.bench_function(BenchmarkId::new("serial", &param), |b| {
            b.iter(|| black_box(kernels::attention(&q, &k, &v, &spec)))
        });
        group.bench_function(BenchmarkId::new("serial_scalar", &param), |b| {
            simd::force_tier(Some(simd::Tier::Scalar));
            b.iter(|| black_box(kernels::attention(&q, &k, &v, &spec)));
            simd::force_tier(None);
        });
    }
    group.finish();
}

fn bench_ffn(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoder_kernels/ffn");
    group.sample_size(10);
    for (seq, dim) in GRID {
        let ffn_dim = 2 * dim;
        let mut rng = SplitMix64::new(18);
        let x = random_matrix(&mut rng, seq, dim);
        let w1 = random_matrix(&mut rng, dim, ffn_dim);
        let b1: Vec<f64> = (0..ffn_dim).map(|_| rng.next_normal_with(0.0, 0.1)).collect();
        let w2 = random_matrix(&mut rng, ffn_dim, dim);
        let b2: Vec<f64> = (0..dim).map(|_| rng.next_normal_with(0.0, 0.1)).collect();
        let param = format!("seq{seq}_dim{dim}");
        group.bench_function(BenchmarkId::new("reference", &param), |b| {
            b.iter(|| {
                let h = reference::linear_bias_gelu(&x, &w1, &b1);
                black_box(reference::linear_bias(&h, &w2, &b2))
            })
        });
        group.bench_function(BenchmarkId::new("serial", &param), |b| {
            b.iter(|| {
                let h = kernels::linear_bias_gelu(&x, &w1, &b1);
                black_box(kernels::linear_bias(&h, &w2, &b2))
            })
        });
        group.bench_function(BenchmarkId::new("serial_scalar", &param), |b| {
            simd::force_tier(Some(simd::Tier::Scalar));
            b.iter(|| {
                let h = kernels::linear_bias_gelu(&x, &w1, &b1);
                black_box(kernels::linear_bias(&h, &w2, &b2))
            });
            simd::force_tier(None);
        });
    }
    group.finish();
}

fn bench_full_encoder(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoder_kernels/encode");
    group.sample_size(10);
    for (seq, dim) in [(128usize, 64usize), (256, 64)] {
        let encoder = Encoder::new(TransformerConfig {
            dim,
            n_heads: N_HEADS,
            n_layers: 2,
            ffn_dim: 2 * dim,
            max_len: seq,
            vocab_size: 512,
            seed_label: "bench-kernels".into(),
            ..Default::default()
        });
        let tokens: Vec<TokenInput> =
            (0..seq).map(|i| TokenInput::plain((i % 512) as u32)).collect();
        let param = format!("seq{seq}_dim{dim}");
        group.bench_function(BenchmarkId::new("serial", &param), |b| {
            b.iter(|| black_box(encoder.encode(black_box(&tokens))));
        });
        // Whole-encoder tier delta: scalar tier forced vs the
        // auto-detected tier above.
        group.bench_function(BenchmarkId::new("serial_scalar", &param), |b| {
            simd::force_tier(Some(simd::Tier::Scalar));
            b.iter(|| black_box(encoder.encode(black_box(&tokens))));
            simd::force_tier(None);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm_tiers, bench_attention, bench_ffn, bench_full_encoder);
criterion_main!(benches);
