//! SIMD-vs-scalar bitwise equivalence for the tier-dispatched kernels.
//!
//! The contract under test is the one DESIGN.md §11 promises: both SIMD
//! tiers (`scalar` and, where the CPU has it, `avx2`) produce
//! **byte-identical** results —
//! not "close", identical — because the vector kernels preserve the
//! scalar fallback's exact floating-point operation order (fixed 8-lane
//! reduction structure, mul-then-add with no FMA contraction).
//!
//! Coverage deliberately includes the awkward cases:
//! - **Unaligned pointers**: slices taken at every offset `0..8` into a
//!   parent buffer, so the vector loads are mostly unaligned (`loadu`).
//! - **Tail lengths**: lengths spanning `0..=15` exercise every remainder
//!   path of the 8-lane main loop (0–7 leftover elements per tier).
//! - **Non-finite data**: NaN and ±inf injected at random positions. A
//!   non-NaN result (including ±inf and ±0) must have the *same bits* in
//!   every tier; a NaN result must be NaN in every tier. NaN *payloads*
//!   are the one place bit-identity is not promised: IEEE 754 leaves the
//!   propagated payload unspecified and LLVM freely commutes scalar
//!   `mul`/`add` operands, so the scalar reference itself has no defined
//!   payload to match.
//!
//! CI runs this suite twice: once auto-detected (AVX2 where available)
//! and once with `OBSERVATORY_SIMD=off`, which must pin the dispatch
//! decision to the scalar tier (`env_off_pins_scalar_tier`).

use observatory::linalg::kernels;
use observatory::linalg::simd::{self, Tier};
use observatory::linalg::{reduce, Matrix, SplitMix64};
use proptest::prelude::*;
use std::sync::Mutex;

/// `simd::force_tier` is process-global; serialize every test that
/// installs a forced tier so concurrent test threads cannot interleave.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fill `len` values starting at a deterministic mix of normals and
/// injected specials (NaN, ±inf, ±0, denormal-scale) controlled by
/// `special_mask` bits.
fn fill(rng: &mut SplitMix64, len: usize, special_every: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            if special_every != 0 && i % special_every == special_every - 1 {
                match i / special_every % 5 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    _ => 1e-310, // subnormal
                }
            } else {
                rng.next_normal_with(0.0, 1.0)
            }
        })
        .collect()
}

fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = rng.next_normal_with(0.0, 0.5);
        }
    }
    m
}

fn assert_bits_eq(got: f64, want: f64, what: &str) {
    if got.is_nan() && want.is_nan() {
        return; // NaN payload/sign is unspecified (see module docs)
    }
    assert!(
        got.to_bits() == want.to_bits(),
        "{what}: {got:?} ({:#018x}) vs {want:?} ({:#018x})",
        got.to_bits(),
        want.to_bits()
    );
}

fn assert_matrix_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(g.to_bits() == w.to_bits(), "{what}: element {i} differs: {g:?} vs {w:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Dot and squared-norm: every available tier, every alignment offset
    /// 0..8, lengths covering all 8-lane tails, with specials injected.
    #[test]
    fn reductions_bitwise_across_tiers(
        seed in any::<u64>(),
        len in 0usize..48,
        offset in 0usize..8,
        special_every in 0usize..7,
    ) {
        let mut rng = SplitMix64::new(seed);
        let xs = fill(&mut rng, offset + len, special_every);
        let ys = fill(&mut rng, offset + len, special_every.saturating_sub(1));
        let a = &xs[offset..];
        let b = &ys[offset..];
        let want_dot = reduce::dot_with_tier(a, b, Tier::Scalar);
        let want_sq = reduce::sq_norm_with_tier(a, Tier::Scalar);
        for tier in simd::available_tiers() {
            assert_bits_eq(
                reduce::dot_with_tier(a, b, tier),
                want_dot,
                &format!("dot len={len} offset={offset} tier={tier:?}"),
            );
            assert_bits_eq(
                reduce::sq_norm_with_tier(a, tier),
                want_sq,
                &format!("sq_norm len={len} offset={offset} tier={tier:?}"),
            );
        }
    }

    /// Softmax (fastmath exp pass): bitwise across tiers, rows covering
    /// every vector tail, with NaN logits (saturated) and -inf included.
    #[test]
    fn softmax_bitwise_across_tiers(
        seed in any::<u64>(),
        len in 1usize..40,
        special_every in 0usize..6,
    ) {
        let _g = lock();
        let mut rng = SplitMix64::new(seed);
        let base = fill(&mut rng, len, special_every);
        simd::force_tier(Some(Tier::Scalar));
        let mut want = base.clone();
        kernels::softmax_fast_inplace(&mut want);
        for tier in simd::available_tiers() {
            simd::force_tier(Some(tier));
            let mut got = base.clone();
            kernels::softmax_fast_inplace(&mut got);
            simd::force_tier(None);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits(),
                    "softmax len={len} tier={tier:?} element {i}: {g:?} vs {w:?}"
                );
            }
        }
        simd::force_tier(None);
    }

    /// GEMM (through `linear_bias`, the live kernel that wraps it):
    /// bitwise across every tier, shapes spanning the 8-wide column
    /// strip, its remainder columns, and the row-quad remainder.
    #[test]
    fn gemm_bitwise_across_tiers(
        seed in any::<u64>(),
        n in 1usize..24,
        kd in 1usize..20,
        m in 1usize..36,
    ) {
        let _g = lock();
        let mut rng = SplitMix64::new(seed);
        let a = random_matrix(&mut rng, n, kd);
        let b = random_matrix(&mut rng, kd, m);
        let bias: Vec<f64> = (0..m).map(|_| rng.next_normal_with(0.0, 1.0)).collect();
        simd::force_tier(Some(Tier::Scalar));
        let want = kernels::linear_bias(&a, &b, &bias);
        for tier in simd::available_tiers() {
            simd::force_tier(Some(tier));
            let got = kernels::linear_bias(&a, &b, &bias);
            simd::force_tier(None);
            assert_matrix_bits_eq(&got, &want, &format!("gemm {n}x{kd}x{m} tier={tier:?}"));
        }
        simd::force_tier(None);
    }
}

/// `OBSERVATORY_SIMD=off` must pin the process-wide dispatch decision to
/// the scalar tier (the CI matrix leg runs this whole suite under that
/// override, so here the decision itself is checked, not just kernel
/// output). Without the override the decision must match CPU detection.
#[test]
fn env_off_pins_scalar_tier() {
    let d = simd::decision();
    match std::env::var("OBSERVATORY_SIMD").ok().as_deref() {
        Some("off") => {
            assert_eq!(d.tier, Tier::Scalar, "OBSERVATORY_SIMD=off must force scalar");
        }
        None => assert_eq!(d.tier, d.detected, "no override: decision follows detection"),
        Some(_) => {} // other overrides exercised by simd's unit tests
    }
}

/// End-to-end: a whole encoder forward pass is bitwise identical between
/// the scalar tier and the widest available tier. This is the property
/// the paper reproduction actually depends on — measure outputs cannot
/// depend on which CPU ran the encode.
#[test]
fn encoder_forward_bitwise_across_tiers() {
    use observatory::transformer::{Encoder, TokenInput, TransformerConfig};
    let _g = lock();
    let seq = 48usize;
    let encoder = Encoder::new(TransformerConfig {
        dim: 32,
        n_heads: 4,
        n_layers: 2,
        ffn_dim: 64,
        max_len: seq,
        vocab_size: 128,
        seed_label: "simd-equivalence".into(),
        ..Default::default()
    });
    let tokens: Vec<TokenInput> = (0..seq).map(|i| TokenInput::plain((i % 128) as u32)).collect();
    simd::force_tier(Some(Tier::Scalar));
    let scalar = encoder.encode(&tokens);
    let widest = *simd::available_tiers().last().unwrap();
    simd::force_tier(Some(widest));
    let vector = encoder.encode(&tokens);
    simd::force_tier(None);
    assert_matrix_bits_eq(&vector, &scalar, &format!("encoder scalar vs {widest:?}"));
}
