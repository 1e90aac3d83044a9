//! Tier-dispatched vector reductions with a **fixed 8-lane accumulation
//! order** shared by every backend.
//!
//! The PR-3 kernels left reductions (`vector::dot`, per-row softmax
//! normalizers, kNN cosine scores) on a strictly sequential
//! left-to-right sum. That order is the one thing a SIMD backend cannot
//! keep: an 8-wide register sums elements `8t + l` into lane `l`, which
//! is a *different* (still deterministic) parenthesization. Rather than
//! accept tier-dependent bits, this module fixes the accumulation
//! structure once — eight striped partial sums combined by the balanced
//! tree `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then a sequential
//! scalar tail — and implements **that** structure in scalar and AVX2
//! code. Both tiers produce byte-identical results; the active tier
//! only changes throughput. See DESIGN.md §11.
//!
//! FMA is deliberately excluded: `vfmadd` contracts `a*b + c` into one
//! rounding, which would desynchronize the vector tiers from the
//! two-rounding scalar reference.
//!
//! NaN/±inf propagate exactly as the arithmetic dictates — there is no
//! zero-skip or shortcut anywhere in this module (preserving the PR-3
//! NaN-propagation fixes).

use crate::simd::{self, Tier};

/// Dot product `Σ a[i]·b[i]` in the fixed 8-lane order, dispatched on
/// the process-wide [`simd::tier`].
///
/// Panics if the slices differ in length (same contract as
/// [`crate::vector::dot`]).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_with_tier(a, b, simd::tier())
}

/// [`dot`] forced onto a specific tier. All tiers are bitwise
/// identical; this entry point exists for equivalence tests and
/// benchmarks. `tier` wider than the host CPU supports falls back to
/// the widest available tier (never faults).
#[inline]
pub fn dot_with_tier(a: &[f64], b: &[f64], tier: Tier) -> f64 {
    assert_eq!(a.len(), b.len(), "reduce::dot: length mismatch {} vs {}", a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if tier.min(simd::detect()) == Tier::Avx2 {
        // SAFETY: tier is clamped to the detected CPU features.
        return unsafe { simd::x86::dot_avx2(a, b) };
    }
    let _ = tier;
    simd::dot_scalar(a, b)
}

/// Squared Euclidean norm `Σ a[i]²` in the fixed 8-lane order.
#[inline]
pub fn sq_norm(a: &[f64]) -> f64 {
    sq_norm_with_tier(a, simd::tier())
}

/// [`sq_norm`] forced onto a specific tier (clamped to the host CPU).
#[inline]
pub fn sq_norm_with_tier(a: &[f64], tier: Tier) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if tier.min(simd::detect()) == Tier::Avx2 {
        // SAFETY: tier is clamped to the detected CPU features.
        return unsafe { simd::x86::sq_norm_avx2(a) };
    }
    let _ = tier;
    simd::sq_norm_scalar(a)
}

/// Euclidean norm `√(Σ a[i]²)`. One `sqrt` on top of [`sq_norm`], so it
/// inherits bit-identity across tiers.
#[inline]
pub fn norm_l2(a: &[f64]) -> f64 {
    sq_norm(a).sqrt()
}

/// Cosine similarity with the same degenerate-input contract as
/// [`crate::vector::cosine`]: returns `0.0` when either vector has zero
/// norm, clamps the quotient into `[-1, 1]`.
///
/// Panics on length mismatch.
#[inline]
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = norm_l2(a);
    let nb = norm_l2(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine from a precomputed pair of L2 norms (the kNN hot path hoists
/// norms once per item set instead of recomputing them per query).
/// Same degenerate-input contract as [`cosine`]; the caller is
/// responsible for the norms actually matching the vectors.
#[inline]
pub fn cosine_prenormed(dotp: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dotp / (na * nb)).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn all_tiers_bitwise_identical_dot() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let a = pattern(n, 1);
            let b = pattern(n, 2);
            let want = simd::dot_scalar(&a, &b);
            for tier in simd::available_tiers() {
                let got = dot_with_tier(&a, &b, tier);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "dot n={n} tier={tier}: {got:?} vs scalar {want:?}"
                );
            }
        }
    }

    #[test]
    fn all_tiers_bitwise_identical_sq_norm() {
        for n in [0usize, 1, 5, 8, 13, 24, 40, 83] {
            let a = pattern(n, 3);
            let want = simd::sq_norm_scalar(&a);
            for tier in simd::available_tiers() {
                let got = sq_norm_with_tier(&a, tier);
                assert_eq!(got.to_bits(), want.to_bits(), "sq_norm n={n} tier={tier}");
            }
        }
    }

    #[test]
    fn nan_and_inf_propagate() {
        let mut a = pattern(19, 4);
        let b = pattern(19, 5);
        a[6] = f64::NAN;
        for tier in simd::available_tiers() {
            assert!(dot_with_tier(&a, &b, tier).is_nan(), "NaN must propagate on {tier}");
        }
        let mut c = pattern(19, 6);
        c[17] = f64::INFINITY; // tail region
        let d = pattern(19, 7);
        for tier in simd::available_tiers() {
            let got = dot_with_tier(&c, &d, tier);
            let want = dot_with_tier(&c, &d, Tier::Scalar);
            assert_eq!(got.to_bits(), want.to_bits(), "inf tail must match on {tier}");
        }
    }

    #[test]
    fn cosine_degenerate_and_clamp() {
        assert_eq!(cosine(&[0.0; 4], &[1.0, 2.0, 3.0, 4.0]), 0.0);
        assert_eq!(cosine(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
        let v = pattern(33, 8);
        let c = cosine(&v, &v);
        assert!((c - 1.0).abs() < 1e-12 && c <= 1.0, "self-cosine clamped to 1: {c}");
        // Mirrors vector::cosine on generic input.
        let a = pattern(21, 9);
        let b = pattern(21, 10);
        let want = crate::vector::cosine(&a, &b);
        assert!((cosine(&a, &b) - want).abs() < 1e-12);
    }

    #[test]
    fn cosine_prenormed_matches_cosine() {
        let a = pattern(29, 11);
        let b = pattern(29, 12);
        let na = norm_l2(&a);
        let nb = norm_l2(&b);
        let via = cosine_prenormed(dot(&a, &b), na, nb);
        assert_eq!(via.to_bits(), cosine(&a, &b).to_bits());
        assert_eq!(cosine_prenormed(1.0, 0.0, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0, 2.0], &[1.0]);
    }
}
