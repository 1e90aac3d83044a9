//! Cross-crate kernel equivalence: the fused, tiled encoder kernels
//! against their naive scalar references, on randomized inputs (CI runs
//! this file as the dedicated equivalence job).
//!
//! `linear_bias` must match the naive implementation *bit for bit* (same
//! ascending-`k` accumulation order, only regrouped into register
//! tiles). `linear_bias_gelu` and `attention` run on the `fastmath`
//! polynomial transcendentals and must stay within the documented ULP
//! bound (≤ 1e-12 relative) of the libm references. Engine-level
//! `--jobs` determinism is covered by `tests/runtime_engine.rs`.

use observatory::linalg::kernels::{self, reference, AttentionSpec};
use observatory::linalg::{Matrix, SplitMix64};
use proptest::prelude::*;

fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = rng.next_normal_with(0.0, 0.5);
        }
    }
    m
}

/// Exact equality, reported element-wise (`==`, so `-0.0 == 0.0`).
fn assert_bit_identical(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(g == w, "{what}: element {i} differs: {g:?} vs {w:?}");
    }
}

/// Relative-or-absolute closeness for the fastmath-backed kernels.
fn assert_close(got: &Matrix, want: &Matrix, tol: f64, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    for (i, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let err = (g - w).abs() / g.abs().max(w.abs()).max(1.0);
        assert!(err <= tol, "{what}: element {i}: {g} vs {w} (err {err:e})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The fused GEMM alone (a zero bias) ≡ naive matmul, bitwise.
    #[test]
    fn linear_bias_zero_bias_matches_naive_bitwise(
        seed in any::<u64>(),
        n in 1usize..40,
        kd in 1usize..24,
        m in 1usize..40,
    ) {
        let mut rng = SplitMix64::new(seed);
        let a = random_matrix(&mut rng, n, kd);
        let b = random_matrix(&mut rng, kd, m);
        let zero = vec![0.0; m];
        let want = reference::linear_bias(&a, &b, &zero);
        let got = kernels::linear_bias(&a, &b, &zero);
        assert_bit_identical(&got, &want, "linear_bias zero bias vs naive");
    }

    /// Fused linear layers vs naive: bias exactly, GELU within the
    /// documented fastmath bound.
    #[test]
    fn linear_kernels_match_naive(
        seed in any::<u64>(),
        n in 1usize..32,
        d_in in 1usize..20,
        d_out in 1usize..28,
    ) {
        let mut rng = SplitMix64::new(seed);
        let x = random_matrix(&mut rng, n, d_in);
        let w = random_matrix(&mut rng, d_in, d_out);
        let bias: Vec<f64> = (0..d_out).map(|_| rng.next_normal_with(0.0, 0.2)).collect();

        let want = reference::linear_bias(&x, &w, &bias);
        let got = kernels::linear_bias(&x, &w, &bias);
        assert_bit_identical(&got, &want, "linear_bias vs naive");

        let want_g = reference::linear_bias_gelu(&x, &w, &bias);
        let got_g = kernels::linear_bias_gelu(&x, &w, &bias);
        assert_close(&got_g, &want_g, 1e-12, "linear_bias_gelu vs naive");
    }

    /// Fused attention vs naive (ULP-bounded via fastmath softmax), with
    /// random mask/bias — including fully-masked query rows, which must
    /// attend only themselves.
    #[test]
    fn attention_matches_naive(
        seed in any::<u64>(),
        n in 2usize..24,
        head_dim in 1usize..8,
        n_heads in 1usize..4,
        use_bias in any::<bool>(),
        mask_bits in proptest::collection::vec(any::<bool>(), 24 * 24),
        mask_a_row in any::<bool>(),
        masked_row_pick in any::<u8>(),
    ) {
        // The vendored proptest has no `Arbitrary for Option<T>`; model the
        // optional fully-masked row as a (bool, pick) pair instead.
        let fully_mask_row = mask_a_row.then_some(masked_row_pick);
        let dim = n_heads * head_dim;
        let mut rng = SplitMix64::new(seed);
        let q = random_matrix(&mut rng, n, dim);
        let k = random_matrix(&mut rng, n, dim);
        let v = random_matrix(&mut rng, n, dim);
        let bias: Vec<f64> =
            (0..n_heads * n * n).map(|_| rng.next_normal_with(0.0, 0.3)).collect();
        let mut mask: Vec<bool> = mask_bits[..n * n].to_vec();
        // Keep at least one permitted key per row except the deliberately
        // fully-masked one, so both softmax branches are exercised.
        for i in 0..n {
            if !mask[i * n..(i + 1) * n].iter().any(|&b| b) {
                mask[i * n + i] = true;
            }
        }
        if let Some(r) = fully_mask_row {
            let r = r as usize % n;
            mask[r * n..(r + 1) * n].fill(false);
        }
        let spec = AttentionSpec {
            n_heads,
            head_dim,
            scale: 1.0 / (head_dim as f64).sqrt(),
            bias: use_bias.then_some(&bias[..]),
            mask: Some(&mask),
        };
        let (want_out, want_w) = reference::attention(&q, &k, &v, &spec);
        let (got_out, got_w) = kernels::attention(&q, &k, &v, &spec);
        assert_close(&got_out, &want_out, 1e-12, "attention out vs naive");
        assert_close(&got_w, &want_w, 1e-12, "attention weights vs naive");

        if let Some(r) = fully_mask_row {
            let r = r as usize % n;
            // The fully-masked query's output is exactly its own value
            // row — no mass on any other (masked) token.
            for (d, (&g, &vv)) in got_out.row(r).iter().zip(v.row(r)).enumerate() {
                prop_assert!(
                    g == vv,
                    "fully-masked row {r} col {d}: {g} != own value {vv}"
                );
            }
        }
    }
}
