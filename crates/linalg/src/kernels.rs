//! Fused, tiled encoder kernels.
//!
//! This module is the hot path of the whole system: every Observatory
//! property (P1–P8) and downstream task re-encodes thousands of table
//! variants, and each encode is a stack of the three operations here —
//! bias-fused linear maps, the GELU feed-forward, and multi-head
//! attention. The kernels are written for speed *without* giving up the
//! workspace's determinism guarantee:
//!
//! - **Register-tiled GEMM** ([`linear_bias`], [`linear_bias_gelu`]): a
//!   4×4 output tile accumulates in registers across the whole `k` loop
//!   (`gemm`), so the inner loop does no stores at all — the naive AXPY
//!   formulation streams the output row through memory once *per `k`*.
//!   The per-element accumulation order (ascending `k`) is **identical**
//!   to the naive `i,k,j` loop, so `linear_bias` matches the reference
//!   path bit-for-bit (up to the sign of zero — the naive path's
//!   `a == 0.0` skip adds nothing where the kernel adds `±0.0`).
//! - **Fused epilogues**: bias addition and GELU run on the output block
//!   while it is still cache-hot, in the same order as the unfused
//!   reference (`Σ`, then `+bias`, then `gelu`).
//! - **Fast transcendentals** ([`crate::fastmath`]): the kernel-internal
//!   softmax and the fused GELU epilogue use one branch-light polynomial
//!   `exp` — profiling showed libm `exp`/`tanh` at ~40% of scalar
//!   attention and ~35% of the scalar feed-forward. This is the **only**
//!   numerical deviation from the reference path and it is ULP-bounded
//!   and regression-tested (≤ 1e-14 relative on `exp`, ≤ 1e-13 on GELU;
//!   see `fastmath`).
//! - **Head-batched attention** ([`attention`], [`attention_context`]):
//!   per-head K/V panels are repacked contiguously once per call (`Kᵀ`
//!   per head, so the Q·Kᵀ logits accumulate over contiguous rows), and
//!   per-head bias/mask matrices arrive **materialized** (no closure
//!   calls in the inner loop). The head-summed weights are optional:
//!   the encode path asks for none and skips their `n × n` pass.
//! - **Runtime SIMD dispatch** ([`crate::simd`]): on an AVX2 CPU the
//!   GEMM inner loop runs 8-column `__m256d` strips, the softmax runs a
//!   vectorized max scan and `exp`, and the GELU epilogue runs a
//!   vectorized `gelu_approx`; all are **byte-identical** to the scalar
//!   tier (column-wise vectorization keeps per-element ascending-`k`
//!   order; reductions share a fixed 8-lane structure; element-wise
//!   maps keep the scalar operation order; FMA is excluded).
//!   `OBSERVATORY_SIMD=off|avx2` overrides detection.
//! - **Workspace-pooled, serial** ([`crate::workspace`]): every kernel
//!   runs on the calling thread and writes into per-thread pooled
//!   scratch instead of fresh `Vec`s, so a steady-state encode performs
//!   zero heap allocations after warmup. Parallelism lives one level up,
//!   across tables (`Engine::encode_batch`, property runners): every
//!   supported sequence is at most 192 tokens, too small for splitting
//!   rows across threads to pay for the spawns.
//!
//! Every public kernel records its wall time in [`stats`], which the
//! bench harness and CLI surface in their runtime reports.
//!
//! ## Numerical edge cases (fixed here, regression-tested)
//!
//! - [`softmax_inplace`] saturates NaN logits to `-∞` (zero mass)
//!   instead of letting a single NaN corrupt the whole distribution
//!   through the `exp`/normalize pass.
//! - [`attention`] gives **fully-masked** query rows a self-only
//!   attention distribution instead of the uniform fallback that used to
//!   leak *masked* key content into the output.

use crate::fastmath;
use crate::matrix::Matrix;
use crate::simd;
use crate::workspace;

/// GELU activation (tanh approximation), applied elementwise.
///
/// This is the *reference* GELU (libm `tanh`); the fused kernel epilogue
/// uses [`fastmath::gelu_approx`], which agrees to ≤ 1e-13 relative.
#[inline]
pub fn gelu(x: f64) -> f64 {
    0.5 * x * (1.0 + ((2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x * x * x)).tanh())
}

/// Numerically-stable softmax over a slice, in place.
///
/// Edge cases:
/// - **NaN logits** are saturated to `-∞` (zero probability mass) before
///   the max/exp pass. The previous implementation's `f64::max` fold
///   silently ignored NaN, found a finite max, and then `exp(NaN)`
///   poisoned the entire distribution during normalization.
/// - **All-`-∞` rows** (and all-NaN rows, after saturation) become
///   uniform — standalone callers use this for "no permitted targets";
///   the attention kernel handles that case itself *before* softmax so
///   masked keys receive no mass (see [`attention`]).
pub fn softmax_inplace(xs: &mut [f64]) {
    let Some(max) = saturate_nan_logits(xs) else {
        return;
    };
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// Kernel-internal softmax, deferred-normalization form: identical NaN
/// saturation to [`softmax_inplace`], but exponentiates with
/// [`fastmath::exp_approx`] (≤ 1e-14 relative; `-∞` still maps to an
/// exact `0.0`, so masked keys receive exactly zero mass). Leaves the
/// *unnormalized* exponentials in `xs` and returns the `1/sum` factor
/// so the caller can fold the normalizing multiply into its next pass
/// over the row (the attention kernel fuses it with the head-summed
/// weights accumulation). The uniform fallback writes final values and
/// returns `1.0`. Normalizing by a precomputed reciprocal is one extra
/// rounding vs the reference's per-element division — inside the
/// documented bound.
fn softmax_fast_scaled(xs: &mut [f64]) -> f64 {
    let Some(max) = saturate_nan_logits(xs) else {
        return 1.0;
    };
    // Exponentiation and summation fused in one tier-dispatched pass,
    // eight lanes wide (the fixed reduction structure shared by scalar
    // and AVX2 — see `crate::simd`). Both tiers are byte-identical;
    // vs a left-fold sum the fixed lane split differs only within the
    // documented fastmath rounding budget.
    1.0 / exp_sum_inplace(xs, max)
}

/// Tier-dispatched `xs[i] ← exp(xs[i] − max)` returning the sum in the
/// fixed 8-lane order. Both tiers produce identical bits.
#[inline]
fn exp_sum_inplace(xs: &mut [f64], max: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == simd::Tier::Avx2 {
        // SAFETY: `simd::tier()` never exceeds the detected CPU
        // capability, so the required instructions exist.
        return unsafe { simd::x86::exp_sum_avx2(xs, max) };
    }
    simd::exp_sum_scalar(xs, max)
}

/// Tier-dispatched NaN-skipping max and NaN flag of `xs`. The tiers
/// fold in different orders, which can only flip the sign of a `±0.0`
/// max; every caller subtracts the max before `exp`, so no output bit
/// depends on it.
#[inline]
fn max_nan_scan(xs: &[f64]) -> (f64, bool) {
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == simd::Tier::Avx2 {
        // SAFETY: `simd::tier()` never exceeds the detected CPU
        // capability, so the required instructions exist.
        return unsafe { simd::x86::max_nan_scan_avx2(xs) };
    }
    simd::max_nan_scan_scalar(xs)
}

/// [`softmax_fast_scaled`] with the normalization applied — the form the
/// equivalence suites exercise directly (`tests/simd_equivalence.rs`
/// asserts it bitwise across tiers). Same NaN/-∞ contract as
/// [`softmax_inplace`], evaluated with [`fastmath::exp_approx`].
pub fn softmax_fast_inplace(xs: &mut [f64]) {
    let inv = softmax_fast_scaled(xs);
    for x in xs.iter_mut() {
        *x *= inv;
    }
}

/// Shared softmax prologue: saturate NaNs to `-∞`, return the finite max
/// or — when there is none — write the uniform fallback and return None.
fn saturate_nan_logits(xs: &mut [f64]) -> Option<f64> {
    let (max, saw_nan) = max_nan_scan(xs);
    if saw_nan {
        for x in xs.iter_mut() {
            if x.is_nan() {
                *x = f64::NEG_INFINITY;
            }
        }
    }
    if !max.is_finite() {
        let u = 1.0 / xs.len() as f64;
        xs.iter_mut().for_each(|x| *x = u);
        return None;
    }
    Some(max)
}

#[inline]
fn axpy(out: &mut [f64], a: f64, b: &[f64]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// Register-tiled GEMM: `C[r][j] = Σ_k A[r][k] · B[k][j]`. Every output
/// element of the `rows × m` block is assigned; nothing is read from `c`.
///
/// `a` is `rows × kd` with row stride `lda`, `b` is `kd × m` flat
/// row-major, `c` has row stride `ldc` (≥ `m`). The 4×4 micro-tile keeps
/// sixteen partial sums in registers across the entire `k` loop — the
/// inner loop issues no stores — and loads each B value once per four
/// output rows. Edge rows/columns fall back to AXPY/dot loops.
///
/// **Loop order:** column tiles outermost, row quads inside. One B
/// column strip (`kd` rows × 4 values ≈ `kd` cache lines) stays hot in
/// L1 across every row quad, and A (`rows × kd`, the smaller operand)
/// is what gets re-streamed per tile. The reverse order re-reads *all of
/// B* — the large operand — once per row quad, which is an order of
/// magnitude more memory traffic at FFN shapes.
///
/// **Determinism:** every output element accumulates in ascending-`k`
/// order exactly like the scalar triple loop, so results are
/// bit-identical to the naive path (up to the sign of zero) and
/// independent of tile traversal order.
#[allow(clippy::too_many_arguments)]
fn gemm(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    rows: usize,
    kd: usize,
    m: usize,
) {
    debug_assert!(ldc >= m && lda >= kd);
    debug_assert!(b.len() >= kd * m);
    let mut j0 = 0;
    // AVX2 tier: 8-column vector strips over the full row quads first.
    // Vectorization is across output *columns*, so every element keeps
    // the scalar ascending-`k` mul-then-add order — the tiers are
    // byte-identical and the choice below affects throughput only.
    // Remainder columns/rows fall through to the scalar paths.
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == simd::Tier::Avx2 {
        while j0 + 8 <= m {
            // SAFETY: the tier is clamped to detected CPU capability.
            unsafe { simd::x86::gemm_strip8_avx2(c, ldc, a, lda, b, rows, kd, m, j0) };
            j0 += 8;
        }
    }
    while j0 + 4 <= m {
        let mut r0 = 0;
        while r0 + 4 <= rows {
            let a0 = &a[r0 * lda..][..kd];
            let a1 = &a[(r0 + 1) * lda..][..kd];
            let a2 = &a[(r0 + 2) * lda..][..kd];
            let a3 = &a[(r0 + 3) * lda..][..kd];
            let (mut s00, mut s01, mut s02, mut s03) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            let (mut s10, mut s11, mut s12, mut s13) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            let (mut s20, mut s21, mut s22, mut s23) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            let (mut s30, mut s31, mut s32, mut s33) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for k in 0..kd {
                let bk = &b[k * m + j0..k * m + j0 + 4];
                let (b0, b1, b2, b3) = (bk[0], bk[1], bk[2], bk[3]);
                let x0 = a0[k];
                s00 += x0 * b0;
                s01 += x0 * b1;
                s02 += x0 * b2;
                s03 += x0 * b3;
                let x1 = a1[k];
                s10 += x1 * b0;
                s11 += x1 * b1;
                s12 += x1 * b2;
                s13 += x1 * b3;
                let x2 = a2[k];
                s20 += x2 * b0;
                s21 += x2 * b1;
                s22 += x2 * b2;
                s23 += x2 * b3;
                let x3 = a3[k];
                s30 += x3 * b0;
                s31 += x3 * b1;
                s32 += x3 * b2;
                s33 += x3 * b3;
            }
            c[r0 * ldc + j0..][..4].copy_from_slice(&[s00, s01, s02, s03]);
            c[(r0 + 1) * ldc + j0..][..4].copy_from_slice(&[s10, s11, s12, s13]);
            c[(r0 + 2) * ldc + j0..][..4].copy_from_slice(&[s20, s21, s22, s23]);
            c[(r0 + 3) * ldc + j0..][..4].copy_from_slice(&[s30, s31, s32, s33]);
            r0 += 4;
        }
        j0 += 4;
    }
    // Column remainder: one strided B column shared by four rows.
    let mut r0 = 0;
    while r0 + 4 <= rows {
        let a0 = &a[r0 * lda..][..kd];
        let a1 = &a[(r0 + 1) * lda..][..kd];
        let a2 = &a[(r0 + 2) * lda..][..kd];
        let a3 = &a[(r0 + 3) * lda..][..kd];
        for j in j0..m {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for k in 0..kd {
                let bv = b[k * m + j];
                s0 += a0[k] * bv;
                s1 += a1[k] * bv;
                s2 += a2[k] * bv;
                s3 += a3[k] * bv;
            }
            c[r0 * ldc + j] = s0;
            c[(r0 + 1) * ldc + j] = s1;
            c[(r0 + 2) * ldc + j] = s2;
            c[(r0 + 3) * ldc + j] = s3;
        }
        r0 += 4;
    }
    // Row remainder: AXPY over B rows (same ascending-k element order).
    for r in r0..rows {
        let ar = &a[r * lda..][..kd];
        let cr = &mut c[r * ldc..r * ldc + m];
        cr.fill(0.0);
        for (k, &av) in ar.iter().enumerate() {
            axpy(cr, av, &b[k * m..(k + 1) * m]);
        }
    }
}

/// Epilogue applied to a finished output block, row by row.
enum Epilogue<'a> {
    Bias(&'a [f64]),
    BiasGelu(&'a [f64]),
}

/// Apply an epilogue to a finished `rows × m` block while it is
/// cache-hot.
fn apply_epilogue(buf: &mut [f64], m: usize, epilogue: &Epilogue<'_>) {
    match epilogue {
        Epilogue::Bias(bias) => {
            for row in buf.chunks_exact_mut(m) {
                for (o, &bv) in row.iter_mut().zip(*bias) {
                    *o += bv;
                }
            }
        }
        Epilogue::BiasGelu(bias) => {
            // The AVX2 epilogue transcribes `gelu_approx` lane-wise in the
            // same operation order, so both tiers give identical bits.
            #[cfg(target_arch = "x86_64")]
            if simd::tier() == simd::Tier::Avx2 {
                for row in buf.chunks_exact_mut(m) {
                    // SAFETY: the tier is clamped to detected CPU capability.
                    unsafe { simd::x86::bias_gelu_avx2(row, bias) };
                }
                return;
            }
            for row in buf.chunks_exact_mut(m) {
                for (o, &bv) in row.iter_mut().zip(*bias) {
                    *o = fastmath::gelu_approx(*o + bv);
                }
            }
        }
    }
}

/// `A · B` with a fused per-row epilogue; the shared engine under
/// [`linear_bias`] and [`linear_bias_gelu`]. The whole product is
/// computed into one [`workspace`]-pooled buffer (zero steady-state heap
/// allocations).
fn matmul_fused(a: &Matrix, b: &Matrix, epilogue: &Epilogue<'_>) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimension mismatch");
    let (n, kdim, m) = (a.rows(), a.cols(), b.cols());
    let (Epilogue::Bias(bias) | Epilogue::BiasGelu(bias)) = epilogue;
    assert_eq!(bias.len(), m, "matmul: bias/out dimension mismatch");
    let mut data = workspace::take_f64(n * m);
    gemm(&mut data, m, a.as_slice(), kdim, b.as_slice(), n, kdim, m);
    apply_epilogue(&mut data, m, epilogue);
    Matrix::from_vec(n, m, data)
}

/// Fused affine map `X · W + bias`: the bias lands while the output
/// block is cache-hot. Same accumulation order as the unfused
/// reference, `(Σ_k x·w) + bias`, so bit-identical to it. Unlike
/// [`Matrix::matmul`] there is no `a == 0.0` skip, so non-finite values
/// in `W` always propagate.
pub fn linear_bias(x: &Matrix, w: &Matrix, bias: &[f64]) -> Matrix {
    let t = std::time::Instant::now();
    let out = matmul_fused(x, w, &Epilogue::Bias(bias));
    stats::record(stats::Kernel::LinearBias, t.elapsed());
    out
}

/// Fused `GELU(X · W + bias)` — the first half of the Transformer
/// feed-forward block in one pass. The GELU is evaluated with
/// [`fastmath::gelu_approx`]: ≤ 1e-13 relative vs the reference
/// [`gelu`] (the matmul+bias underneath is still bit-identical).
pub fn linear_bias_gelu(x: &Matrix, w: &Matrix, bias: &[f64]) -> Matrix {
    let t = std::time::Instant::now();
    let out = matmul_fused(x, w, &Epilogue::BiasGelu(bias));
    stats::record(stats::Kernel::LinearBiasGelu, t.elapsed());
    out
}

/// Materialized attention adjustments for one forward call.
///
/// Producers (the encoder) evaluate their bias/mask *functions* once per
/// forward into these flat buffers; the kernel's inner loops then run
/// pure slice arithmetic with no dynamic dispatch.
pub struct AttentionSpec<'a> {
    /// Number of attention heads (`n_heads · head_dim == dim`).
    pub n_heads: usize,
    /// Per-head subspace width.
    pub head_dim: usize,
    /// Logit scale (sharpness / √head_dim).
    pub scale: f64,
    /// Per-head additive logit bias, head-major `[h][i][j]`
    /// (`n_heads · n · n` entries), or `None`.
    pub bias: Option<&'a [f64]>,
    /// Attention permission matrix `[i][j]` (`n · n` entries,
    /// `true` = query `i` may attend key `j`), or `None` (all permitted).
    pub mask: Option<&'a [bool]>,
}

/// Head-batched multi-head attention core.
///
/// Inputs are the already-projected `Q`, `K`, `V` (each `n × dim`);
/// `V` is assumed finite (masked keys contribute an exact `0 · v` term
/// in the blocked aggregation rather than being skipped). Returns the
/// pre-output-projection context (`n × dim`) and the **head-summed**
/// attention weights (`n × n`; divide by `n_heads` for the
/// head-averaged map). [`attention_context`] runs the same body without
/// the weights and returns bit-identical context.
///
/// Per call, `K` and `V` are repacked into per-head contiguous panels
/// (`Kᵀ` per head for the logit GEMM, `V` per head for the value
/// aggregation); each head then runs three register-tiled steps over
/// all query rows: logits (`Q·Kᵀ`, ascending-`d` order), per-row softmax
/// ([`fastmath::exp_approx`], ≤ 1e-14 relative), value aggregation
/// (`W·V`, ascending-`j` order). Vs the scalar reference the only
/// deviation is the documented softmax ULP bound.
///
/// **Fully-masked queries** (a row of the mask with no permitted key)
/// attend only themselves: the former uniform-softmax fallback attended
/// *every* key, leaking forbidden token content through the value
/// aggregation.
///
/// # Panics
/// Panics on shape mismatches between `q`/`k`/`v`/`spec`.
pub fn attention(q: &Matrix, k: &Matrix, v: &Matrix, spec: &AttentionSpec<'_>) -> (Matrix, Matrix) {
    let (out, weights) = attention_impl(q, k, v, spec, true);
    (out, weights.expect("weights were requested"))
}

/// [`attention`] without the head-summed weights: the context alone,
/// bit-identical to `attention(..).0`. The encode path asks for no
/// attention map, so it skips the `n × n` zero-fill and accumulation.
pub fn attention_context(q: &Matrix, k: &Matrix, v: &Matrix, spec: &AttentionSpec<'_>) -> Matrix {
    attention_impl(q, k, v, spec, false).0
}

fn attention_impl(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    spec: &AttentionSpec<'_>,
    want_weights: bool,
) -> (Matrix, Option<Matrix>) {
    let t = std::time::Instant::now();
    let n = q.rows();
    let dim = q.cols();
    assert_eq!(spec.n_heads * spec.head_dim, dim, "attention: heads × head_dim != dim");
    assert_eq!((k.rows(), k.cols()), (n, dim), "attention: K shape mismatch");
    assert_eq!((v.rows(), v.cols()), (n, dim), "attention: V shape mismatch");
    if let Some(bias) = spec.bias {
        assert_eq!(bias.len(), spec.n_heads * n * n, "attention: bias length mismatch");
    }
    if let Some(mask) = spec.mask {
        assert_eq!(mask.len(), n * n, "attention: mask length mismatch");
    }
    let (n_heads, head_dim) = (spec.n_heads, spec.head_dim);

    // Pre-scale Q once: folding `· scale` into the GEMM's A operand is
    // one O(n·dim) pass instead of an O(heads·n²) per-logit multiply
    // sweep. `(Σ qk)·s` and `Σ (qs)k` differ only in rounding, inside
    // the documented softmax ULP budget. The panel buffers come from the
    // per-thread workspace pool (zero steady-state allocations).
    let mut qs = workspace::take_f64(n * dim);
    for (o, &x) in qs.iter_mut().zip(q.as_slice()) {
        *o = x * spec.scale;
    }

    // Repack K as per-head transposed panels (head-major, each
    // `head_dim × n`) and V as per-head row panels (each `n × head_dim`):
    // both GEMM steps then stream contiguous panel rows.
    let mut kt = workspace::take_f64(dim * n);
    let mut vh = workspace::take_f64(dim * n);
    for j in 0..n {
        let k_row = k.row(j);
        let v_row = v.row(j);
        for h in 0..n_heads {
            let lo = h * head_dim;
            for d in 0..head_dim {
                kt[(h * head_dim + d) * n + j] = k_row[lo + d];
                vh[(h * n + j) * head_dim + d] = v_row[lo + d];
            }
        }
    }

    let mut out = workspace::take_f64(n * dim);
    let mut weights = want_weights.then(|| workspace::take_f64(n * n));
    let mut wh = workspace::take_f64(n * n);
    attention_rows(n, &qs, &kt, &vh, spec, &mut out, weights.as_deref_mut(), &mut wh);
    let result = (Matrix::from_vec(n, dim, out), weights.map(|w| Matrix::from_vec(n, n, w)));
    workspace::give_f64(wh);
    workspace::give_f64(vh);
    workspace::give_f64(kt);
    workspace::give_f64(qs);
    stats::record(stats::Kernel::Attention, t.elapsed());
    result
}

/// The attention body over all `n` query rows: logits GEMM, bias/mask,
/// softmax, head-summed weights (when `weights` is given), value
/// aggregation. `out` is `n × dim`, `weights` (zero-initialized) and
/// `wh` (scratch) are `n × n`.
#[allow(clippy::too_many_arguments)]
fn attention_rows(
    n: usize,
    q_flat: &[f64],
    kt: &[f64],
    vh: &[f64],
    spec: &AttentionSpec<'_>,
    out: &mut [f64],
    mut weights: Option<&mut [f64]>,
    wh: &mut [f64],
) {
    let (n_heads, head_dim) = (spec.n_heads, spec.head_dim);
    let dim = n_heads * head_dim;
    for h in 0..n_heads {
        let lo = h * head_dim;
        // Logits for every query row in one register-tiled GEMM:
        // wh[i][j] = Σ_d q[i][lo+d] · ktʰ[d][j] — the same ascending-d
        // order as the scalar dot.
        let kt_panel = &kt[lo * n..(lo + head_dim) * n];
        gemm(wh, n, &q_flat[lo..], dim, kt_panel, n, head_dim, n);
        // Bias, mask, softmax — per query row (the logit scale is
        // already folded into the pre-scaled Q panel).
        for i in 0..n {
            let lrow = &mut wh[i * n..(i + 1) * n];
            if let Some(bias) = spec.bias {
                let b_row = &bias[(h * n + i) * n..(h * n + i + 1) * n];
                for (l, &bv) in lrow.iter_mut().zip(b_row) {
                    *l += bv;
                }
            }
            let mut permitted = n;
            if let Some(mask) = spec.mask {
                let mask_row = &mask[i * n..(i + 1) * n];
                permitted = 0;
                for (l, &ok) in lrow.iter_mut().zip(mask_row) {
                    if ok {
                        permitted += 1;
                    } else {
                        *l = f64::NEG_INFINITY;
                    }
                }
            }
            let inv = if permitted == 0 {
                // Fully-masked query: attend only itself. The uniform
                // fallback would aggregate *masked* values — an
                // information leak — so the only defensible
                // distribution is the self-delta. Already normalized,
                // so the deferred scale is 1.0 (`x · 1.0` is
                // bit-exact).
                lrow.fill(0.0);
                lrow[i] = 1.0;
                1.0
            } else {
                softmax_fast_scaled(lrow)
            };
            // One fused pass while the row is cache-hot: apply the
            // deferred softmax normalization and accumulate the
            // head-summed weights (ascending-h order). Without weights
            // the row is normalized by the same multiply.
            match weights.as_deref_mut() {
                Some(weights) => {
                    let w_acc = &mut weights[i * n..(i + 1) * n];
                    for (wa, x) in w_acc.iter_mut().zip(lrow.iter_mut()) {
                        let wv = *x * inv;
                        *x = wv;
                        *wa += wv;
                    }
                }
                None => lrow.iter_mut().for_each(|x| *x *= inv),
            }
        }
        // Value aggregation, register-tiled:
        // out[i][lo+d] = Σ_j wh[i][j] · vhʰ[j][d] (ascending j; each
        // head writes a disjoint column range of `out`).
        let vh_panel = &vh[h * n * head_dim..(h + 1) * n * head_dim];
        gemm(&mut out[lo..], dim, wh, n, vh_panel, n, n, head_dim);
    }
}

/// Naive scalar reference implementations.
///
/// These are the semantic ground truth the fused kernels must never
/// drift from: CI runs an equivalence job comparing each kernel against
/// its reference on randomized inputs. They implement the *fixed*
/// semantics (self-delta for fully-masked queries) with libm
/// transcendentals — `linear_bias` must match bit-for-bit,
/// `attention`/`linear_bias_gelu` to the documented [`crate::fastmath`]
/// ULP bounds.
pub mod reference {
    use super::{gelu, softmax_inplace, AttentionSpec};
    use crate::matrix::Matrix;

    /// Unfused `X · W + bias`.
    pub fn linear_bias(x: &Matrix, w: &Matrix, bias: &[f64]) -> Matrix {
        let mut y = x.matmul(w);
        for i in 0..y.rows() {
            for (o, &b) in y.row_mut(i).iter_mut().zip(bias) {
                *o += b;
            }
        }
        y
    }

    /// Unfused `GELU(X · W + bias)`.
    pub fn linear_bias_gelu(x: &Matrix, w: &Matrix, bias: &[f64]) -> Matrix {
        let mut y = linear_bias(x, w, bias);
        for i in 0..y.rows() {
            for o in y.row_mut(i) {
                *o = gelu(*o);
            }
        }
        y
    }

    /// Scalar head-by-head attention with strided slices and no
    /// repacking — the shape of the pre-kernel implementation, with the
    /// fully-masked fix applied.
    pub fn attention(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        spec: &AttentionSpec<'_>,
    ) -> (Matrix, Matrix) {
        let n = q.rows();
        let dim = q.cols();
        let mut out = Matrix::zeros(n, dim);
        let mut weights = Matrix::zeros(n, n);
        let mut logits = vec![0.0f64; n];
        for i in 0..n {
            for h in 0..spec.n_heads {
                let lo = h * spec.head_dim;
                let hi = lo + spec.head_dim;
                let qi = &q.row(i)[lo..hi];
                let mut permitted = 0usize;
                for (j, logit) in logits.iter_mut().enumerate() {
                    let ok = spec.mask.is_none_or(|m| m[i * n + j]);
                    *logit = if ok {
                        permitted += 1;
                        let mut l = crate::vector::dot(qi, &k.row(j)[lo..hi]) * spec.scale;
                        if let Some(b) = spec.bias {
                            l += b[(h * n + i) * n + j];
                        }
                        l
                    } else {
                        f64::NEG_INFINITY
                    };
                }
                if permitted == 0 {
                    weights[(i, i)] += 1.0;
                    let out_row = out.row_mut(i);
                    for (o, &vv) in out_row[lo..hi].iter_mut().zip(&v.row(i)[lo..hi]) {
                        *o += vv;
                    }
                    continue;
                }
                softmax_inplace(&mut logits);
                let out_row = out.row_mut(i);
                for (j, &w) in logits.iter().enumerate() {
                    weights[(i, j)] += w;
                    if w == 0.0 {
                        continue;
                    }
                    for (o, &vv) in out_row[lo..hi].iter_mut().zip(&v.row(j)[lo..hi]) {
                        *o += w * vv;
                    }
                }
            }
        }
        (out, weights)
    }
}

/// Lock-free kernel timing counters, surfaced by the CLI and bench
/// harness runtime reports.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// The instrumented kernel families.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kernel {
        /// [`super::linear_bias`].
        LinearBias = 0,
        /// [`super::linear_bias_gelu`].
        LinearBiasGelu = 1,
        /// [`super::attention`].
        Attention = 2,
    }

    const N: usize = 3;
    const NAMES: [&str; N] = ["linear_bias", "linear_bias_gelu", "attention"];

    static CALLS: [AtomicU64; N] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
    static NANOS: [AtomicU64; N] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

    /// Record one kernel invocation. `sum` accumulation saturates, like
    /// the runtime latency histograms.
    pub fn record(kernel: Kernel, elapsed: Duration) {
        let i = kernel as usize;
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        CALLS[i].fetch_add(1, Ordering::Relaxed);
        let _ = NANOS[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| Some(c.saturating_add(ns)));
    }

    /// Zero all counters (benches call this between configurations).
    pub fn reset() {
        for i in 0..N {
            CALLS[i].store(0, Ordering::Relaxed);
            NANOS[i].store(0, Ordering::Relaxed);
        }
    }

    /// One kernel family's totals.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct KernelTotals {
        /// Invocations.
        pub calls: u64,
        /// Total wall time, ns (saturating).
        pub total_ns: u64,
    }

    /// Frozen totals for all kernel families.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct KernelStats {
        /// `(name, totals)` per family, in fixed order.
        pub kernels: [(&'static str, KernelTotals); N],
    }

    impl KernelStats {
        /// Sum of all kernel invocations.
        pub fn total_calls(&self) -> u64 {
            self.kernels.iter().map(|(_, t)| t.calls).sum()
        }

        /// Sum of all kernel wall time, ns.
        pub fn total_ns(&self) -> u64 {
            self.kernels.iter().fold(0u64, |a, (_, t)| a.saturating_add(t.total_ns))
        }

        /// One-line report: `linear_bias 12×/3.4ms attention 4×/9.1ms …`
        /// (families with zero calls are omitted; empty → `none`).
        pub fn render(&self) -> String {
            let parts: Vec<String> = self
                .kernels
                .iter()
                .filter(|(_, t)| t.calls > 0)
                .map(|(name, t)| format!("{name} {}x/{:.1}ms", t.calls, t.total_ns as f64 / 1.0e6))
                .collect();
            if parts.is_empty() {
                "none".to_string()
            } else {
                parts.join("  ")
            }
        }
    }

    /// Snapshot the current counters.
    pub fn snapshot() -> KernelStats {
        KernelStats {
            kernels: std::array::from_fn(|i| {
                (
                    NAMES[i],
                    KernelTotals {
                        calls: CALLS[i].load(Ordering::Relaxed),
                        total_ns: NANOS[i].load(Ordering::Relaxed),
                    },
                )
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = rng.next_normal_with(0.0, 1.0);
            }
        }
        m
    }

    /// `==` on the flat buffers: NaN-free outputs, ±0.0 compares equal.
    fn assert_matrix_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(x == y, "{what}: element {i} differs: {x} vs {y}");
        }
    }

    /// Relative-or-absolute closeness: the documented fastmath ULP bound
    /// for paths through softmax/GELU.
    fn assert_matrix_close(a: &Matrix, b: &Matrix, tol: f64, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            let err = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
            assert!(err <= tol, "{what}: element {i}: {x} vs {y} (rel err {err:e})");
        }
    }

    #[test]
    fn linear_bias_zero_bias_matches_reference_exactly() {
        let mut rng = SplitMix64::new(11);
        for (n, k, m) in [(1, 1, 1), (3, 5, 2), (33, 65, 17), (70, 40, 70)] {
            let a = random_matrix(&mut rng, n, k);
            let b = random_matrix(&mut rng, k, m);
            let zero = vec![0.0; m];
            assert_matrix_eq(
                &linear_bias(&a, &b, &zero),
                &reference::linear_bias(&a, &b, &zero),
                &format!("linear_bias {n}x{k}x{m}"),
            );
        }
    }

    #[test]
    fn linear_kernels_match_reference() {
        let mut rng = SplitMix64::new(13);
        let x = random_matrix(&mut rng, 50, 32);
        let w = random_matrix(&mut rng, 32, 48);
        let bias: Vec<f64> = (0..48).map(|_| rng.next_normal_with(0.0, 0.5)).collect();
        // The fused matmul+bias path is bit-identical; the GELU epilogue
        // carries the documented fastmath bound.
        assert_matrix_eq(
            &linear_bias(&x, &w, &bias),
            &reference::linear_bias(&x, &w, &bias),
            "linear_bias",
        );
        assert_matrix_close(
            &linear_bias_gelu(&x, &w, &bias),
            &reference::linear_bias_gelu(&x, &w, &bias),
            1e-12,
            "linear_bias_gelu",
        );
    }

    fn attention_case(
        rng: &mut SplitMix64,
        n: usize,
        n_heads: usize,
        head_dim: usize,
        with_bias: bool,
        with_mask: bool,
    ) {
        let dim = n_heads * head_dim;
        let q = random_matrix(rng, n, dim);
        let k = random_matrix(rng, n, dim);
        let v = random_matrix(rng, n, dim);
        let bias: Vec<f64> = (0..n_heads * n * n).map(|_| rng.next_normal_with(0.0, 0.3)).collect();
        let mask: Vec<bool> = (0..n * n).map(|_| rng.next_u64() % 4 != 0).collect();
        let spec = AttentionSpec {
            n_heads,
            head_dim,
            scale: 1.0 / (head_dim as f64).sqrt(),
            bias: with_bias.then_some(bias.as_slice()),
            mask: with_mask.then_some(mask.as_slice()),
        };
        let (ro, rw) = reference::attention(&q, &k, &v, &spec);
        let (o, w) = attention(&q, &k, &v, &spec);
        let tag = format!("attention n={n} h={n_heads} bias={with_bias} mask={with_mask}");
        // Skipping the weights must not move a single bit of the context.
        let ctx = attention_context(&q, &k, &v, &spec);
        assert!(
            ctx.as_slice().iter().zip(o.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{tag}: attention_context differs from attention"
        );
        // vs reference: the documented softmax ULP bound.
        assert_matrix_close(&o, &ro, 1e-12, &format!("{tag} out"));
        assert_matrix_close(&w, &rw, 1e-12, &format!("{tag} weights"));
    }

    #[test]
    fn attention_matches_reference_within_bound() {
        let mut rng = SplitMix64::new(14);
        for (n, h, d) in [(1, 1, 4), (5, 2, 3), (17, 4, 8), (40, 2, 16)] {
            for (wb, wm) in [(false, false), (true, false), (false, true), (true, true)] {
                attention_case(&mut rng, n, h, d, wb, wm);
            }
        }
    }

    #[test]
    fn attention_fully_masked_rows_attend_only_self() {
        let mut rng = SplitMix64::new(15);
        let n = 6;
        let (h, d) = (2, 4);
        let q = random_matrix(&mut rng, n, h * d);
        let k = random_matrix(&mut rng, n, h * d);
        let v = random_matrix(&mut rng, n, h * d);
        // Query 2 may attend nothing at all.
        let mask: Vec<bool> = (0..n * n).map(|idx| idx / n != 2).collect();
        let spec =
            AttentionSpec { n_heads: h, head_dim: d, scale: 0.5, bias: None, mask: Some(&mask) };
        let (out, w) = attention(&q, &k, &v, &spec);
        for j in 0..n {
            let want = if j == 2 { h as f64 } else { 0.0 };
            assert_eq!(w[(2, j)], want, "fully-masked query must be a self-delta");
        }
        // The output of the fully-masked query is exactly its own value
        // vector (per head, weight 1 on self): no other token leaks in.
        assert_eq!(out.row(2), v.row(2), "self-only aggregation");
    }

    #[test]
    fn softmax_saturates_nan_logits() {
        let mut xs = vec![1.0, f64::NAN, 3.0];
        softmax_inplace(&mut xs);
        assert!(xs.iter().all(|x| x.is_finite()), "no NaN may survive: {xs:?}");
        assert_eq!(xs[1], 0.0, "NaN logit gets zero mass");
        assert!((xs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(xs[2] > xs[0]);
    }

    #[test]
    fn softmax_all_nan_is_uniform() {
        let mut xs = vec![f64::NAN, f64::NAN];
        softmax_inplace(&mut xs);
        assert_eq!(xs, vec![0.5, 0.5]);
    }

    #[test]
    fn softmax_fast_matches_exact_softmax() {
        let mut rng = SplitMix64::new(19);
        for len in [1usize, 2, 7, 64, 257] {
            let mut a: Vec<f64> = (0..len).map(|_| rng.next_normal_with(0.0, 3.0)).collect();
            let mut b = a.clone();
            // Sprinkle masked entries.
            if len > 4 {
                a[1] = f64::NEG_INFINITY;
                b[1] = f64::NEG_INFINITY;
                a[3] = f64::NAN;
                b[3] = f64::NAN;
            }
            softmax_inplace(&mut a);
            softmax_fast_inplace(&mut b);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                let err = (x - y).abs() / x.abs().max(1.0);
                assert!(err <= 1e-13, "len={len} i={i}: {x} vs {y}");
            }
            if len > 4 {
                assert_eq!(b[1], 0.0, "masked logit keeps exactly zero mass");
                assert_eq!(b[3], 0.0, "NaN logit keeps exactly zero mass");
            }
        }
    }

    #[test]
    fn softmax_preserves_standard_behavior() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut xs);
        assert!((xs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
        let mut masked = vec![f64::NEG_INFINITY, f64::NEG_INFINITY];
        softmax_inplace(&mut masked);
        assert_eq!(masked, vec![0.5, 0.5]);
    }

    #[test]
    fn linear_bias_propagates_nonfinite_w() {
        // a == 0.0 rows must not swallow NaN/inf coming from W.
        let a = Matrix::from_rows(&[vec![0.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![f64::INFINITY, 2.0], vec![3.0, 4.0]]);
        let c = linear_bias(&a, &b, &[0.0, 0.0]);
        assert!(c[(0, 0)].is_nan(), "0 × ∞ must produce NaN, got {}", c[(0, 0)]);
        assert_eq!(c[(0, 1)], 4.0);
    }

    #[test]
    fn stats_accumulate_and_render() {
        stats::reset();
        let mut rng = SplitMix64::new(16);
        let a = random_matrix(&mut rng, 8, 8);
        let _ = linear_bias(&a, &a, &[0.0; 8]);
        let _ = linear_bias_gelu(&a, &a, &[0.0; 8]);
        let snap = stats::snapshot();
        assert!(snap.total_calls() >= 2);
        let text = snap.render();
        assert!(text.contains("linear_bias_gelu"), "render mentions kernels: {text}");
        stats::reset();
        assert_eq!(stats::snapshot().total_calls(), 0);
        assert_eq!(stats::snapshot().render(), "none");
    }
}
