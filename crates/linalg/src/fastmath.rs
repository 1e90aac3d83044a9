//! Branch-light, vectorizable transcendental approximations for the
//! encoder kernels.
//!
//! Profiling the scalar encoder showed `libm` transcendentals dominating
//! both halves of a layer: `exp` was ~40% of attention (the softmax over
//! `n_heads · n` rows of `n` logits) and the reference GELU's `tanh`
//! ~35% of the feed-forward. Both libm calls are precise to < 1 ULP but
//! are opaque function calls the optimizer can neither inline nor
//! vectorize.
//!
//! The replacements here are classic range-reduction + polynomial
//! evaluations written as straight-line arithmetic (no data-dependent
//! branches, no table lookups), so the compiler can inline them into the
//! kernels' loops; the AVX2 tier transcribes them lane for lane
//! (`simd::x86`). [`gelu_approx`] needs no `tanh`: it is rewritten in
//! terms of one [`exp_approx`]. Neither is a substitute for `f64::exp`
//! in general numeric code:
//!
//! - [`exp_approx`] is specified on `[-∞, 709]` with a **flush-to-zero
//!   cutoff**: any input below ≈ -708 (including `-∞`, and `NaN` after
//!   the kernels' NaN-saturation) returns exactly `0.0`. This is the
//!   contract softmax needs — masked (`-∞`) logits must contribute *no*
//!   mass, bit-exactly — and it is the only deliberate deviation from
//!   `f64::exp` beyond rounding.
//! - Relative error is bounded and *regression-tested* (see module
//!   tests): ≤ 1e-14 vs `f64::exp` over the full reduced domain, in
//!   practice ≤ ~5e-15. DESIGN.md §9 documents how this ULP bound
//!   surfaces in the kernel-vs-reference equivalence tests.
//!
//! Determinism is unaffected: every approximation is a fixed sequence of
//! IEEE-754 double operations, so identical inputs give identical bits on
//! every run and at every `--jobs` count.

/// Inputs below this return exactly `0.0` from [`exp_approx`].
/// `exp(-708) ≈ 3.3e-308` is the edge of the normal range; anything
/// smaller cannot influence a softmax normalization.
pub const EXP_FLUSH_CUTOFF: f64 = -708.0;

/// `2^52 · 1.5`: adding then subtracting this constant rounds a `f64`
/// with magnitude < 2^51 to the nearest integer using pure FP ops (no
/// `round()` libcall, no SSE4.1 requirement).
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// `ln 2` split hi/lo so `n · LN2_HI` is exact for |n| ≤ 1100. The
/// literals keep their full derivation digits (they round to the
/// intended bit patterns; clippy would truncate the documentation away).
#[allow(clippy::excessive_precision)]
const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
#[allow(clippy::excessive_precision)]
const LN2_LO: f64 = 1.908_214_929_270_587_700_0e-10;

/// Polynomial `exp` with a flush-to-zero cutoff.
///
/// Domain: `x ∈ [-∞, 709]`; larger inputs are clamped to `709` (≈ the
/// overflow edge). `x < `[`EXP_FLUSH_CUTOFF`] — including `-∞` — and
/// `NaN` return exactly `0.0` (the kernels saturate NaN logits to `-∞`
/// before exponentiation, so NaN-as-zero matches that contract).
///
/// Relative error vs `f64::exp` ≤ 1e-14 (tested at ≤ ~5e-15).
///
/// Method: `x = n·ln2 + r` with `|r| ≤ ln2/2`, `e^r` by a degree-13
/// Taylor polynomial (truncation ≈ 4e-18), scaled by `2^n` via exponent
/// bit assembly. All steps are branchless FP/integer ops — the flush is
/// a `0.0/1.0` multiplicative factor, not a select — so the function
/// auto-vectorizes when inlined into a softmax row loop.
#[inline]
#[allow(clippy::manual_clamp)] // `clamp` propagates NaN; `max.min` maps NaN in-domain, which the flush relies on
pub fn exp_approx(x: f64) -> f64 {
    // NaN and the deep-underflow tail flush to an exact zero. `keep` is
    // a 0.0/1.0 factor instead of a late select so the whole function is
    // straight-line FP ops; `f64::max` ignores a NaN operand, so `xc` is
    // always finite and in-domain even for NaN input.
    let keep = (x >= EXP_FLUSH_CUTOFF) as u8 as f64;
    let xc = x.max(EXP_FLUSH_CUTOFF).min(709.0);
    // n = round(x / ln 2) via the shift trick; the rounded integer also
    // sits in the low mantissa bits of `shifted`.
    let shifted = xc * std::f64::consts::LOG2_E + SHIFT;
    let nf = shifted - SHIFT;
    let r = (xc - nf * LN2_HI) - nf * LN2_LO;
    // Degree-13 Taylor for e^r on |r| ≤ ln2/2 (coefficients are
    // reciprocal factorials), evaluated Estrin-style: the dependency
    // chain is ~4 multiply-adds deep instead of Horner's 13, which is
    // what lets out-of-order execution overlap neighbouring softmax
    // lanes (Horner made the fast exp no faster than libm).
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let q0 = 1.0 + r; // c0 + c1·r
    let q1 = 5.0e-1 + 1.666_666_666_666_666_6e-1 * r;
    let q2 = 4.166_666_666_666_666_4e-2 + 8.333_333_333_333_333e-3 * r;
    let q3 = 1.388_888_888_888_889e-3 + 1.984_126_984_126_984e-4 * r;
    let q4 = 2.480_158_730_158_73e-5 + 2.755_731_922_398_589e-6 * r;
    let q5 = 2.755_731_922_398_589e-7 + 2.505_210_838_544_172e-8 * r;
    let q6 = 2.087_675_698_786_81e-9 + 1.605_904_383_682_161_5e-10 * r;
    let p = (q0 + q1 * r2) + (q2 + q3 * r2) * r4 + ((q4 + q5 * r2) + q6 * r4) * r8;
    // 2^n assembled directly into the exponent field. n ∈ [-1022, 1023]
    // for the clamped domain, so the biased exponent stays normal.
    let n = shifted.to_bits() as u32 as i32;
    let scale = f64::from_bits(((1023 + n as i64) as u64) << 52);
    // `p * scale` is finite on the clamped domain, so `* keep` yields an
    // exact `0.0` (not NaN) for flushed inputs.
    p * scale * keep
}

/// `√(2/π)`, the outer factor of the GELU tanh argument.
pub(crate) const GELU_C: f64 = 0.797_884_560_802_865_4;
/// The cubic coefficient of the GELU tanh argument.
pub(crate) const GELU_K: f64 = 0.044_715;

/// Fast GELU (tanh form), algebraically rearranged so the negative tail
/// never cancels: with `t = √(2/π)·(x + 0.044715·x³)` and
/// `e = exp(-2|t|)`,
///
/// ```text
/// gelu(x) = 0.5·x·(1 + tanh t) = x · (t ≥ 0 ? 1 : e) / (1 + e)
/// ```
///
/// The `1 + tanh t` form loses all precision for `t ≪ 0` (tanh → -1);
/// this form keeps full relative precision on both tails. Agrees with
/// the reference [`crate::kernels::gelu`] to ≤ 1e-13 relative (tested),
/// the bound coming from [`exp_approx`].
#[inline]
pub fn gelu_approx(x: f64) -> f64 {
    let t = GELU_C * (x + GELU_K * x * x * x);
    let e = exp_approx(-2.0 * t.abs());
    let num = if t >= 0.0 { 1.0 } else { e };
    x * num / (1.0 + e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(got: f64, want: f64) -> f64 {
        if want == 0.0 {
            got.abs()
        } else {
            ((got - want) / want).abs()
        }
    }

    #[test]
    fn exp_matches_libm_within_bound() {
        // Dense sweep over the softmax-relevant range plus the positive
        // side up to the overflow edge.
        let mut worst = 0.0f64;
        let mut x = -700.0;
        while x < 700.0 {
            let e = rel_err(exp_approx(x), x.exp());
            worst = worst.max(e);
            x += 0.000_7 * x.abs().max(1.0);
        }
        assert!(worst <= 1e-14, "exp_approx worst relative error {worst:e} > 1e-14");
    }

    #[test]
    fn exp_flushes_dead_inputs_to_exact_zero() {
        assert_eq!(exp_approx(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_approx(-1.0e9), 0.0);
        assert_eq!(exp_approx(-709.0), 0.0);
        assert_eq!(exp_approx(f64::NAN), 0.0, "NaN = saturated -inf logit");
        assert!(exp_approx(-707.9) > 0.0, "just above cutoff stays positive");
    }

    #[test]
    fn exp_fixed_points() {
        assert_eq!(exp_approx(0.0), 1.0);
        assert!(rel_err(exp_approx(1.0), std::f64::consts::E) < 1e-15);
        assert!(exp_approx(709.5).is_finite(), "clamped, never overflows to inf");
    }

    #[test]
    fn gelu_matches_reference_within_bound() {
        let mut x = -25.0;
        while x < 25.0 {
            let got = gelu_approx(x);
            let want = crate::kernels::gelu(x);
            let err = (got - want).abs() / want.abs().max(1.0);
            assert!(err <= 1e-13, "gelu_approx({x}) = {got}, reference {want}, err {err:e}");
            x += 0.01;
        }
        assert_eq!(gelu_approx(0.0), 0.0);
    }
}
