//! Runtime-dispatched SIMD backend for the hot kernels.
//!
//! Two instruction tiers are supported, selected **once** per process
//! (cached in a `OnceLock`, never re-probed in a hot loop):
//!
//! - [`Tier::Scalar`] — portable Rust and the bit-exact reference. On
//!   x86-64 the compiler still emits SSE2 *scalar* instructions (that
//!   is the baseline ABI), but no hand-written vector code runs. It is
//!   also the only tier on CPUs without AVX2.
//! - [`Tier::Avx2`] — explicit 256-bit `__m256d` paths (4 × f64 per
//!   vector, two vectors per 8-lane structure); the one fast tier.
//!
//! ## Bit-identity contract
//!
//! Both tiers produce **byte-identical** results. Two mechanisms:
//!
//! 1. **Column-vectorized GEMM** ([`gemm_strip8_avx2`]): the microkernel
//!    vectorizes across *output columns*, so each output element still
//!    accumulates its `k` products in exactly the scalar order —
//!    `mul` then `add` per step, one rounding each. FMA is deliberately
//!    **excluded**: `vfmadd` contracts mul+add into one rounding and
//!    would break identity with the scalar (and naive-reference) paths.
//! 2. **Fixed 8-lane reductions** ([`dot`], [`sq_norm`],
//!    [`exp_sum_inplace`]): reductions that vectorize across `k` use a
//!    *fixed* 8-lane accumulation structure — lane `l` owns elements
//!    `8·t + l` — and a fixed combine tree
//!    `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, followed by a sequential
//!    scalar tail. The scalar fallback implements the *same* structure,
//!    so `OBSERVATORY_SIMD=off` cannot drift from the vector paths.
//!
//! ## Dispatch
//!
//! [`decision`] resolves the tier once: the `OBSERVATORY_SIMD` env var
//! (`off`/`scalar`, `avx2`) wins over CPU detection; a forced
//! tier the CPU cannot execute is downgraded to the best detected tier
//! (never a crash). The decision — tier, detection result, and source —
//! is recorded in the obs provenance manifest, the CLI runtime footer,
//! and `serve`'s `/healthz` by their respective call sites.
//! [`force_tier`] exists so benches and equivalence tests can compare
//! tiers inside one process without re-execing.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// An instruction-set tier. Ordering is meaningful: higher = wider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable Rust, no explicit vector intrinsics.
    Scalar = 0,
    /// Explicit 256-bit AVX2 paths (no FMA — see module docs).
    Avx2 = 1,
}

impl Tier {
    /// Stable lower-case name (`scalar`, `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the active tier was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// CPU feature detection picked the widest supported tier.
    Detected,
    /// `OBSERVATORY_SIMD` forced the tier.
    EnvOverride,
    /// `OBSERVATORY_SIMD` asked for a tier the CPU lacks; downgraded.
    EnvDowngraded,
    /// `OBSERVATORY_SIMD` held an unrecognized value; fell back to
    /// detection.
    EnvInvalid,
}

impl Source {
    /// Stable name for manifests and footers.
    pub fn name(self) -> &'static str {
        match self {
            Source::Detected => "detected",
            Source::EnvOverride => "env",
            Source::EnvDowngraded => "env-downgraded",
            Source::EnvInvalid => "env-invalid",
        }
    }
}

/// The one-time dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The tier all kernels run on.
    pub tier: Tier,
    /// The widest tier the CPU supports.
    pub detected: Tier,
    /// How `tier` was chosen.
    pub source: Source,
}

impl Decision {
    /// One-line description for footers / banners / health endpoints,
    /// e.g. `avx2 (detected)` or `scalar (env, cpu avx2)`.
    pub fn describe(&self) -> String {
        if self.tier == self.detected && self.source == Source::Detected {
            format!("{} ({})", self.tier, self.source.name())
        } else {
            format!("{} ({}, cpu {})", self.tier, self.source.name(), self.detected)
        }
    }
}

/// Widest tier the executing CPU supports. Probed once per process by
/// [`decision`]; callers needing the raw capability can call this
/// directly (it is cheap but not cached).
pub fn detect() -> Tier {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Tier::Avx2;
    }
    Tier::Scalar
}

/// Pure resolution of (env override, detected capability) → decision.
/// Split out from [`decision`] so the precedence rules are unit-testable
/// without mutating process-global state.
pub fn resolve(env: Option<&str>, detected: Tier) -> Decision {
    // Unset and empty/whitespace both mean "no override" — CI matrices
    // and shell scripts routinely materialize `OBSERVATORY_SIMD=""`.
    let raw = match env {
        None => return Decision { tier: detected, detected, source: Source::Detected },
        Some(s) if s.trim().is_empty() => {
            return Decision { tier: detected, detected, source: Source::Detected }
        }
        Some(s) => s,
    };
    let requested = match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "scalar" | "none" | "0" => Some(Tier::Scalar),
        "avx2" => Some(Tier::Avx2),
        _ => None,
    };
    match requested {
        None => Decision { tier: detected, detected, source: Source::EnvInvalid },
        Some(t) if t <= detected => Decision { tier: t, detected, source: Source::EnvOverride },
        // Requested wider than the CPU supports: never crash on an
        // unsupported instruction — run the best we actually have.
        Some(_) => Decision { tier: detected, detected, source: Source::EnvDowngraded },
    }
}

static DECISION: OnceLock<Decision> = OnceLock::new();

/// The process-wide dispatch decision, resolved exactly once (env read +
/// CPU probe happen on the first call only — hot loops must go through
/// [`tier`], never re-detect).
///
/// The decision is logged to stderr exactly once per process, from inside
/// the `OnceLock` init (so concurrent first callers cannot double-log).
/// Invalid or downgraded `OBSERVATORY_SIMD` values get a louder line —
/// silently ignoring an explicit operator request would be worse than the
/// one-line cost.
pub fn decision() -> &'static Decision {
    DECISION.get_or_init(|| {
        let env = std::env::var("OBSERVATORY_SIMD").ok();
        let d = resolve(env.as_deref(), detect());
        match d.source {
            Source::EnvInvalid => eprintln!(
                "observatory: ignoring invalid OBSERVATORY_SIMD={:?} (expected off|avx2); using {}",
                env.as_deref().unwrap_or(""),
                d.describe(),
            ),
            Source::EnvDowngraded => eprintln!(
                "observatory: OBSERVATORY_SIMD={:?} not supported by this CPU; using {}",
                env.as_deref().unwrap_or(""),
                d.describe(),
            ),
            _ => eprintln!("observatory: simd dispatch = {}", d.describe()),
        }
        d
    })
}

/// Test/bench-only override: `1 + tier` in an atomic, `0` = none.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Force a specific tier for the current process (benches and the
/// equivalence suites compare tiers in-process with this). `None`
/// restores the [`decision`] tier. Forcing a tier the CPU cannot run
/// clamps to the detected capability.
pub fn force_tier(tier: Option<Tier>) {
    let v = match tier {
        None => 0,
        Some(t) => 1 + t.min(detect()) as u8,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// The tier kernels should use *right now*: the forced override when one
/// is installed, else the cached [`decision`]. One relaxed atomic load —
/// called once per kernel invocation, never per element.
#[inline]
pub fn tier() -> Tier {
    match FORCED.load(Ordering::Relaxed) {
        0 => decision().tier,
        1 => Tier::Scalar,
        _ => Tier::Avx2,
    }
}

/// Tiers available for in-process equivalence testing on this CPU:
/// every tier up to [`detect`].
pub fn available_tiers() -> Vec<Tier> {
    [Tier::Scalar, Tier::Avx2].into_iter().filter(|&t| t <= detect()).collect()
}

// ---------------------------------------------------------------------
// 8-lane reduction structure (shared by every tier)
// ---------------------------------------------------------------------

/// Combine the 8 accumulation lanes with the fixed tree
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. Every tier funnels its
/// lanes through this exact function so the reduction order is defined
/// in one place.
#[inline]
pub(crate) fn combine8(l: [f64; 8]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Scalar 8-lane dot product: the *reference structure* the vector
/// tiers must match bit-for-bit. Lane `l` accumulates elements
/// `8·t + l` (mul then add, two roundings per step), lanes combine via
/// [`combine8`], and the `len % 8` tail is added sequentially.
pub(crate) fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f64; 8];
    let chunks = a.len() / 8;
    for t in 0..chunks {
        let (ac, bc) = (&a[8 * t..8 * t + 8], &b[8 * t..8 * t + 8]);
        for l in 0..8 {
            lanes[l] += ac[l] * bc[l];
        }
    }
    let mut total = combine8(lanes);
    for i in 8 * chunks..a.len() {
        total += a[i] * b[i];
    }
    total
}

/// Scalar 8-lane squared norm (`Σ xᵢ²`), same structure as
/// [`dot_scalar`].
pub(crate) fn sq_norm_scalar(a: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let chunks = a.len() / 8;
    for t in 0..chunks {
        let ac = &a[8 * t..8 * t + 8];
        for l in 0..8 {
            lanes[l] += ac[l] * ac[l];
        }
    }
    let mut total = combine8(lanes);
    for &x in &a[8 * chunks..] {
        total += x * x;
    }
    total
}

/// Scalar 8-lane fused exponentiate-and-sum: `xs[i] ← exp(xs[i] − max)`
/// via [`crate::fastmath::exp_approx`], returning the sum in the fixed
/// 8-lane order. The structure (lanes, combine tree, sequential tail)
/// is what the AVX2 path replicates exactly.
pub(crate) fn exp_sum_scalar(xs: &mut [f64], max: f64) -> f64 {
    let mut lanes = [0.0f64; 8];
    let chunks = xs.len() / 8;
    for t in 0..chunks {
        let c = &mut xs[8 * t..8 * t + 8];
        for l in 0..8 {
            let e = crate::fastmath::exp_approx(c[l] - max);
            c[l] = e;
            lanes[l] += e;
        }
    }
    let mut total = combine8(lanes);
    for x in &mut xs[8 * chunks..] {
        let e = crate::fastmath::exp_approx(*x - max);
        *x = e;
        total += e;
    }
    total
}

// ---------------------------------------------------------------------
// x86-64 vector tiers
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! Explicit AVX2 implementations of the 8-lane primitives and the
    //! column-vectorized GEMM strip.
    //!
    //! Safety discipline: every `#[target_feature]` function is `unsafe
    //! fn`; callers in `reduce`/`kernels` guard on [`super::Tier`]
    //! (which [`super::detect`] clamps to real CPU capability), so the
    //! required instructions are always present when these run. All
    //! memory access stays through slice indexing (bounds-checked in
    //! debug, eliminated in release by the strip-mined loop shapes).

    use super::combine8;
    use std::arch::x86_64::*;

    /// `2^52 · 1.5` bit pattern — see `fastmath::SHIFT`.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
    #[allow(clippy::excessive_precision)]
    const LN2_LO: f64 = 1.908_214_929_270_587_700_0e-10;
    const CUTOFF: f64 = crate::fastmath::EXP_FLUSH_CUTOFF;

    // ---------------- dot / sq_norm ----------------

    /// AVX2 8-lane dot: two `__m256d` accumulators own lanes 0–3 and
    /// 4–7; the combine tree and tail run through the shared scalar
    /// code so all tiers agree bit-for-bit.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let chunks = a.len() / 8;
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for t in 0..chunks {
            let i = 8 * t;
            let a0 = _mm256_loadu_pd(a.as_ptr().add(i));
            let a1 = _mm256_loadu_pd(a.as_ptr().add(i + 4));
            let b0 = _mm256_loadu_pd(b.as_ptr().add(i));
            let b1 = _mm256_loadu_pd(b.as_ptr().add(i + 4));
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(a0, b0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(a1, b1));
        }
        let mut lanes = [0.0f64; 8];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc0);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc1);
        let mut total = combine8(lanes);
        for i in 8 * chunks..a.len() {
            total += a[i] * b[i];
        }
        total
    }

    /// AVX2 8-lane squared norm.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_norm_avx2(a: &[f64]) -> f64 {
        let chunks = a.len() / 8;
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for t in 0..chunks {
            let i = 8 * t;
            let a0 = _mm256_loadu_pd(a.as_ptr().add(i));
            let a1 = _mm256_loadu_pd(a.as_ptr().add(i + 4));
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(a0, a0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(a1, a1));
        }
        let mut lanes = [0.0f64; 8];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc0);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc1);
        let mut total = combine8(lanes);
        for &x in &a[8 * chunks..] {
            total += x * x;
        }
        total
    }

    // ---------------- vectorized exp_approx ----------------
    //
    // Bit-exact transcriptions of `fastmath::exp_approx`: the same
    // operations in the same order, four elements at a time. The `n = shifted.to_bits() as u32 as i32` extraction
    // becomes `bits(shifted) − bits(SHIFT)` in 64-bit integer lanes —
    // identical for the clamped domain because the shift trick stores
    // `n` exactly in the low mantissa bits.

    /// One exp step on 4 lanes. Inputs must already be `x − max`.
    #[target_feature(enable = "avx2")]
    unsafe fn exp4_avx2(x: __m256d) -> __m256d {
        let cutoff = _mm256_set1_pd(CUTOFF);
        let one = _mm256_set1_pd(1.0);
        // keep = (x >= CUTOFF) ? 1.0 : 0.0 — NaN compares false, same
        // as the scalar `(x >= CUTOFF) as u8 as f64`.
        let keep = _mm256_and_pd(_mm256_cmp_pd(x, cutoff, _CMP_GE_OQ), one);
        // xc = min(max(x, CUTOFF), 709): max/min with the constant in
        // the *second* operand position return the constant for NaN,
        // matching `f64::max`/`f64::min` NaN-ignoring semantics with a
        // NaN receiver.
        let xc = _mm256_min_pd(_mm256_max_pd(x, cutoff), _mm256_set1_pd(709.0));
        let shift = _mm256_set1_pd(SHIFT);
        let shifted =
            _mm256_add_pd(_mm256_mul_pd(xc, _mm256_set1_pd(std::f64::consts::LOG2_E)), shift);
        let nf = _mm256_sub_pd(shifted, shift);
        let r = _mm256_sub_pd(
            _mm256_sub_pd(xc, _mm256_mul_pd(nf, _mm256_set1_pd(LN2_HI))),
            _mm256_mul_pd(nf, _mm256_set1_pd(LN2_LO)),
        );
        // Estrin evaluation, exact operation order of the scalar code.
        let r2 = _mm256_mul_pd(r, r);
        let r4 = _mm256_mul_pd(r2, r2);
        let r8 = _mm256_mul_pd(r4, r4);
        let c = |v: f64| _mm256_set1_pd(v);
        let q0 = _mm256_add_pd(one, r);
        let q1 = _mm256_add_pd(c(5.0e-1), _mm256_mul_pd(c(1.666_666_666_666_666_6e-1), r));
        let q2 = _mm256_add_pd(
            c(4.166_666_666_666_666_4e-2),
            _mm256_mul_pd(c(8.333_333_333_333_333e-3), r),
        );
        let q3 = _mm256_add_pd(
            c(1.388_888_888_888_889e-3),
            _mm256_mul_pd(c(1.984_126_984_126_984e-4), r),
        );
        let q4 = _mm256_add_pd(
            c(2.480_158_730_158_73e-5),
            _mm256_mul_pd(c(2.755_731_922_398_589e-6), r),
        );
        let q5 = _mm256_add_pd(
            c(2.755_731_922_398_589e-7),
            _mm256_mul_pd(c(2.505_210_838_544_172e-8), r),
        );
        let q6 = _mm256_add_pd(
            c(2.087_675_698_786_81e-9),
            _mm256_mul_pd(c(1.605_904_383_682_161_5e-10), r),
        );
        // p = (q0 + q1·r2) + (q2 + q3·r2)·r4 + ((q4 + q5·r2) + q6·r4)·r8
        let p = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_add_pd(q0, _mm256_mul_pd(q1, r2)),
                _mm256_mul_pd(_mm256_add_pd(q2, _mm256_mul_pd(q3, r2)), r4),
            ),
            _mm256_mul_pd(
                _mm256_add_pd(_mm256_add_pd(q4, _mm256_mul_pd(q5, r2)), _mm256_mul_pd(q6, r4)),
                r8,
            ),
        );
        // scale = 2^n via exponent assembly: n = bits(shifted) − bits(SHIFT).
        let n = _mm256_sub_epi64(
            _mm256_castpd_si256(shifted),
            _mm256_set1_epi64x(SHIFT.to_bits() as i64),
        );
        let expo = _mm256_slli_epi64(_mm256_add_epi64(n, _mm256_set1_epi64x(1023)), 52);
        let scale = _mm256_castsi256_pd(expo);
        _mm256_mul_pd(_mm256_mul_pd(p, scale), keep)
    }

    /// AVX2 fused exponentiate-and-sum (8-lane structure).
    #[target_feature(enable = "avx2")]
    pub unsafe fn exp_sum_avx2(xs: &mut [f64], max: f64) -> f64 {
        let chunks = xs.len() / 8;
        let maxv = _mm256_set1_pd(max);
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for t in 0..chunks {
            let i = 8 * t;
            let p = xs.as_mut_ptr().add(i);
            let e0 = exp4_avx2(_mm256_sub_pd(_mm256_loadu_pd(p), maxv));
            let e1 = exp4_avx2(_mm256_sub_pd(_mm256_loadu_pd(p.add(4)), maxv));
            _mm256_storeu_pd(p, e0);
            _mm256_storeu_pd(p.add(4), e1);
            acc0 = _mm256_add_pd(acc0, e0);
            acc1 = _mm256_add_pd(acc1, e1);
        }
        let mut lanes = [0.0f64; 8];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc0);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc1);
        let mut total = combine8(lanes);
        for x in &mut xs[8 * chunks..] {
            let e = crate::fastmath::exp_approx(*x - max);
            *x = e;
            total += e;
        }
        total
    }

    // ---------------- GEMM column strip ----------------

    /// AVX2 GEMM strip: full 4-row quads over the 8 output columns
    /// `[j0, j0+8)`. Vectorization is across columns, so each output
    /// element keeps the exact ascending-`k` mul-then-add sequence of
    /// the scalar microkernel — bitwise identity needs no restructure
    /// here. Eight accumulators (4 rows × 2 vectors) plus two B vectors
    /// and one broadcast stay inside the 16 ymm registers.
    ///
    /// Handles only `rows / 4 * 4` rows; callers cover remainder rows
    /// and columns with the scalar paths.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_strip8_avx2(
        c: &mut [f64],
        ldc: usize,
        a: &[f64],
        lda: usize,
        b: &[f64],
        rows: usize,
        kd: usize,
        m: usize,
        j0: usize,
    ) {
        let mut r0 = 0;
        while r0 + 4 <= rows {
            let mut s00 = _mm256_setzero_pd();
            let mut s01 = _mm256_setzero_pd();
            let mut s10 = _mm256_setzero_pd();
            let mut s11 = _mm256_setzero_pd();
            let mut s20 = _mm256_setzero_pd();
            let mut s21 = _mm256_setzero_pd();
            let mut s30 = _mm256_setzero_pd();
            let mut s31 = _mm256_setzero_pd();
            for k in 0..kd {
                let bp = b.as_ptr().add(k * m + j0);
                let b0 = _mm256_loadu_pd(bp);
                let b1 = _mm256_loadu_pd(bp.add(4));
                let x0 = _mm256_set1_pd(*a.get_unchecked(r0 * lda + k));
                s00 = _mm256_add_pd(s00, _mm256_mul_pd(x0, b0));
                s01 = _mm256_add_pd(s01, _mm256_mul_pd(x0, b1));
                let x1 = _mm256_set1_pd(*a.get_unchecked((r0 + 1) * lda + k));
                s10 = _mm256_add_pd(s10, _mm256_mul_pd(x1, b0));
                s11 = _mm256_add_pd(s11, _mm256_mul_pd(x1, b1));
                let x2 = _mm256_set1_pd(*a.get_unchecked((r0 + 2) * lda + k));
                s20 = _mm256_add_pd(s20, _mm256_mul_pd(x2, b0));
                s21 = _mm256_add_pd(s21, _mm256_mul_pd(x2, b1));
                let x3 = _mm256_set1_pd(*a.get_unchecked((r0 + 3) * lda + k));
                s30 = _mm256_add_pd(s30, _mm256_mul_pd(x3, b0));
                s31 = _mm256_add_pd(s31, _mm256_mul_pd(x3, b1));
            }
            let pairs = [(0usize, s00, s01), (1, s10, s11), (2, s20, s21), (3, s30, s31)];
            for (r, lo, hi) in pairs {
                let cp = c.as_mut_ptr().add((r0 + r) * ldc + j0);
                _mm256_storeu_pd(cp, lo);
                _mm256_storeu_pd(cp.add(4), hi);
            }
            r0 += 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_wins_over_detection() {
        // The satellite contract: OBSERVATORY_SIMD beats the CPU probe.
        let d = resolve(Some("off"), Tier::Avx2);
        assert_eq!(d.tier, Tier::Scalar);
        assert_eq!(d.source, Source::EnvOverride);
        assert_eq!(d.detected, Tier::Avx2);
        let d = resolve(Some("sse2"), Tier::Avx2);
        assert_eq!((d.tier, d.source), (Tier::Avx2, Source::EnvInvalid), "sse2 is no tier");
        let d = resolve(Some("AVX2"), Tier::Avx2);
        assert_eq!((d.tier, d.source), (Tier::Avx2, Source::EnvOverride));
    }

    #[test]
    fn unset_env_uses_detection() {
        for t in [Tier::Scalar, Tier::Avx2] {
            let d = resolve(None, t);
            assert_eq!((d.tier, d.source), (t, Source::Detected));
        }
    }

    #[test]
    fn empty_env_means_unset() {
        // CI matrices materialize OBSERVATORY_SIMD="" for the auto leg;
        // that must not count as an invalid override.
        for raw in ["", "  ", "\t"] {
            let d = resolve(Some(raw), Tier::Avx2);
            assert_eq!((d.tier, d.source), (Tier::Avx2, Source::Detected), "raw={raw:?}");
        }
    }

    #[test]
    fn forced_tier_downgrades_never_crashes() {
        let d = resolve(Some("avx2"), Tier::Scalar);
        assert_eq!(d.tier, Tier::Scalar, "cannot run what the CPU lacks");
        assert_eq!(d.source, Source::EnvDowngraded);
    }

    #[test]
    fn invalid_env_falls_back_to_detection() {
        let d = resolve(Some("avx512-please"), Tier::Avx2);
        assert_eq!((d.tier, d.source), (Tier::Avx2, Source::EnvInvalid));
    }

    #[test]
    fn decision_is_cached_and_tier_is_stable() {
        // The OnceLock must hand back the same decision every time (the
        // env/CPU probe happens exactly once per process).
        let a = decision() as *const Decision;
        let b = decision() as *const Decision;
        assert_eq!(a, b, "decision re-resolved");
        assert_eq!(tier(), decision().tier);
    }

    #[test]
    fn force_tier_overrides_and_restores() {
        let base = tier();
        force_tier(Some(Tier::Scalar));
        assert_eq!(tier(), Tier::Scalar);
        force_tier(None);
        assert_eq!(tier(), base);
    }

    #[test]
    fn describe_mentions_tier_and_source() {
        let d = Decision { tier: Tier::Scalar, detected: Tier::Avx2, source: Source::EnvOverride };
        let s = d.describe();
        assert!(s.contains("scalar") && s.contains("env") && s.contains("avx2"), "{s}");
    }

    #[test]
    fn scalar_lane_structure_matches_naive_on_exact_values() {
        // Powers of two: no rounding anywhere, so the 8-lane regrouping
        // must equal the sequential sum exactly.
        let a: Vec<f64> = (0..19).map(|i| (1u64 << (i % 7)) as f64).collect();
        let b: Vec<f64> = (0..19).map(|i| (1u64 << (i % 5)) as f64).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot_scalar(&a, &b), naive);
        let naive_sq: f64 = a.iter().map(|x| x * x).sum();
        assert_eq!(sq_norm_scalar(&a), naive_sq);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_tiers_match_scalar_bitwise() {
        if detect() < Tier::Avx2 {
            return;
        }
        let mut rng = crate::rng::SplitMix64::new(99);
        for len in 0..40usize {
            let a: Vec<f64> = (0..len).map(|_| rng.next_normal_with(0.0, 2.0)).collect();
            let b: Vec<f64> = (0..len).map(|_| rng.next_normal_with(0.0, 2.0)).collect();
            let want = dot_scalar(&a, &b);
            let got = unsafe { x86::dot_avx2(&a, &b) };
            assert_eq!(got.to_bits(), want.to_bits(), "avx2 dot len={len}");
            assert_eq!(
                unsafe { x86::sq_norm_avx2(&a) }.to_bits(),
                sq_norm_scalar(&a).to_bits(),
                "avx2 sq_norm len={len}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_exp_sum_matches_scalar_bitwise() {
        if detect() < Tier::Avx2 {
            return;
        }
        let mut rng = crate::rng::SplitMix64::new(7);
        for len in 0..40usize {
            let mut base: Vec<f64> = (0..len).map(|_| rng.next_normal_with(0.0, 3.0)).collect();
            if len > 3 {
                base[1] = f64::NEG_INFINITY;
                base[3] = -800.0; // below the flush cutoff
            }
            let max = 1.5;
            let mut want = base.clone();
            let ws = exp_sum_scalar(&mut want, max);
            let mut got = base.clone();
            let gs = unsafe { x86::exp_sum_avx2(&mut got, max) };
            assert_eq!(gs.to_bits(), ws.to_bits(), "avx2 sum len={len}");
            assert_eq!(got, want, "avx2 values len={len}");
        }
    }
}
