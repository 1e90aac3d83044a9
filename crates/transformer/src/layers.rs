//! Transformer building blocks: linear maps, layer normalization,
//! multi-head self-attention and the GELU feed-forward network.
//!
//! All dense math runs on the fused, tiled kernels in
//! [`observatory_linalg::kernels`], serially on the calling thread.
//! Parallelism lives one level up, across tables (`Engine::encode_batch`
//! and the property runners), so one encode never spawns threads.
//! Kernel-level spans are emitted at `Level::Trace` under the `kernels`
//! target.

use observatory_linalg::{kernels, workspace, Matrix, SplitMix64};
use observatory_obs as obs;

pub use observatory_linalg::kernels::{gelu, softmax_inplace};

/// Standard deviation of initialized projection weights. Trained encoders
/// are strongly contextual: the attention value/output path must carry
/// enough signal to survive the residual stream, or every model degenerates
/// into a bag-of-tokens. 0.06 at dim 64 puts the attention branch at
/// roughly a third of the residual magnitude per layer, matching the
/// qualitative contextuality of trained checkpoints.
const INIT_STD: f64 = 0.06;

/// Draw an `rows × cols` weight matrix from the stream.
pub fn init_matrix(rng: &mut SplitMix64, rows: usize, cols: usize, std: f64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = rng.next_normal_with(0.0, std);
        }
    }
    m
}

/// A dense affine map `y = x W + b` applied row-wise.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,
    b: Vec<f64>,
}

impl Linear {
    /// Initialize with `in_dim × out_dim` weights and zero bias.
    pub fn new(rng: &mut SplitMix64, in_dim: usize, out_dim: usize) -> Self {
        Self::with_std(rng, in_dim, out_dim, INIT_STD)
    }

    /// Initialize with an explicit weight scale.
    pub fn with_std(rng: &mut SplitMix64, in_dim: usize, out_dim: usize, std: f64) -> Self {
        Self { w: init_matrix(rng, in_dim, out_dim, std), b: vec![0.0; out_dim] }
    }

    /// Apply to every row of `x` (`n × in_dim` → `n × out_dim`) through
    /// the fused bias kernel.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let _span = obs::span(obs::Level::Trace, "kernels", "linear")
            .with("rows", x.rows())
            .with("out_dim", self.w.cols());
        kernels::linear_bias(x, &self.w, &self.b)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }
}

/// Layer normalization with learned gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Vec<f64>,
    beta: Vec<f64>,
    eps: f64,
}

impl LayerNorm {
    /// Identity-initialized layer norm (γ = 1, β = 0), the standard start.
    pub fn new(dim: usize) -> Self {
        Self { gamma: vec![1.0; dim], beta: vec![0.0; dim], eps: 1e-5 }
    }

    /// Normalize each row of `x` in place.
    pub fn forward_inplace(&self, x: &mut Matrix) {
        let d = self.gamma.len();
        debug_assert_eq!(x.cols(), d, "LayerNorm: dim mismatch");
        for i in 0..x.rows() {
            let row = x.row_mut(i);
            let mean = row.iter().sum::<f64>() / d as f64;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / d as f64;
            let inv = 1.0 / (var + self.eps).sqrt();
            for ((v, g), b) in row.iter_mut().zip(&self.gamma).zip(&self.beta) {
                *v = (*v - mean) * inv * g + b;
            }
        }
    }
}

/// Multi-head self-attention.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    o: Linear,
    n_heads: usize,
    head_dim: usize,
    /// Logit multiplier: > 1 makes attention sharper (more selective),
    /// emulating the peaked attention patterns of trained encoders.
    sharpness: f64,
}

/// Optional per-pair attention-logit adjustments.
pub struct AttentionBias<'a> {
    /// `bias(head, i, j)` added to the logit of query `i` attending key `j`.
    pub bias: Option<&'a dyn Fn(usize, usize, usize) -> f64>,
    /// `mask(i, j)`: whether query `i` may attend key `j` at all.
    pub mask: Option<&'a dyn Fn(usize, usize) -> bool>,
}

impl<'a> AttentionBias<'a> {
    /// No bias, no mask.
    pub fn none() -> Self {
        Self { bias: None, mask: None }
    }
}

impl MultiHeadAttention {
    /// Initialize all four projections from the weight stream.
    pub fn new(rng: &mut SplitMix64, dim: usize, n_heads: usize) -> Self {
        Self::with_sharpness(rng, dim, n_heads, 1.0)
    }

    /// Initialize with an explicit attention sharpness.
    pub fn with_sharpness(
        rng: &mut SplitMix64,
        dim: usize,
        n_heads: usize,
        sharpness: f64,
    ) -> Self {
        assert_eq!(dim % n_heads, 0, "attention: heads must divide dim");
        Self {
            // Q/K are hotter than the default so attention logits are
            // content-selective rather than near-uniform.
            q: Linear::with_std(rng, dim, dim, 2.0 * INIT_STD),
            k: Linear::with_std(rng, dim, dim, 2.0 * INIT_STD),
            v: Linear::new(rng, dim, dim),
            o: Linear::new(rng, dim, dim),
            n_heads,
            head_dim: dim / n_heads,
            sharpness,
        }
    }

    /// Full self-attention over the rows of `x` (`n × dim`). Computes no
    /// attention weights; the output is bit-identical to
    /// [`MultiHeadAttention::forward_with_weights`]'s.
    pub fn forward(&self, x: &Matrix, extras: &AttentionBias<'_>) -> Matrix {
        self.forward_impl(x, extras, false).0
    }

    /// Self-attention returning both the output and the attention weights
    /// averaged over heads (`n × n`, rows = queries). Used by attention
    /// introspection (the Koleva et al. style analysis the paper's related
    /// work discusses).
    ///
    /// The bias/mask closures in `extras` are evaluated **once** into
    /// flat per-head matrices, then the head-batched
    /// [`kernels::attention`] runs pure slice arithmetic. Fully-masked
    /// queries attend only themselves (see the kernel docs — the former
    /// uniform fallback leaked masked key content into the output).
    pub fn forward_with_weights(&self, x: &Matrix, extras: &AttentionBias<'_>) -> (Matrix, Matrix) {
        let (out, weights) = self.forward_impl(x, extras, true);
        (out, weights.expect("weights were requested"))
    }

    fn forward_impl(
        &self,
        x: &Matrix,
        extras: &AttentionBias<'_>,
        want_weights: bool,
    ) -> (Matrix, Option<Matrix>) {
        let n = x.rows();
        let _span = obs::span(obs::Level::Trace, "kernels", "attention")
            .with("rows", n)
            .with("heads", self.n_heads);
        let q = self.q.forward(x);
        let k = self.k.forward(x);
        let v = self.v.forward(x);
        let scale = self.sharpness / (self.head_dim as f64).sqrt();
        // Materialize the dynamic bias/mask once per forward call into
        // workspace-pooled buffers; the kernel's inner loops never see a
        // closure, and after warmup no allocation happens here.
        let mask_buf: Option<Vec<bool>> = extras.mask.map(|m| {
            let mut buf = workspace::take_bool(n * n);
            for (idx, slot) in buf.iter_mut().enumerate() {
                *slot = m(idx / n, idx % n);
            }
            buf
        });
        let bias_buf: Option<Vec<f64>> = extras.bias.map(|b| {
            let mut buf = workspace::take_f64(self.n_heads * n * n);
            let mut idx = 0;
            for h in 0..self.n_heads {
                for i in 0..n {
                    for j in 0..n {
                        buf[idx] = b(h, i, j);
                        idx += 1;
                    }
                }
            }
            buf
        });
        let spec = kernels::AttentionSpec {
            n_heads: self.n_heads,
            head_dim: self.head_dim,
            scale,
            bias: bias_buf.as_deref(),
            mask: mask_buf.as_deref(),
        };
        let (ctx, weights) = if want_weights {
            let (ctx, weights) = kernels::attention(&q, &k, &v, &spec);
            (ctx, Some(weights))
        } else {
            (kernels::attention_context(&q, &k, &v, &spec), None)
        };
        // The projected Q/K/V are dead once the kernel returns: hand
        // their capacity back to the pool for the next forward.
        workspace::recycle_matrix(q);
        workspace::recycle_matrix(k);
        workspace::recycle_matrix(v);
        if let Some(buf) = bias_buf {
            workspace::give_f64(buf);
        }
        if let Some(buf) = mask_buf {
            workspace::give_bool(buf);
        }
        let weights = weights.map(|mut w| {
            w.scale_assign(1.0 / self.n_heads as f64);
            w
        });
        let out = self.o.forward(&ctx);
        workspace::recycle_matrix(ctx);
        (out, weights)
    }
}

/// The position-wise feed-forward network `GELU(x W₁ + b₁) W₂ + b₂`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    fc1: Linear,
    fc2: Linear,
}

impl FeedForward {
    /// Initialize both projections.
    pub fn new(rng: &mut SplitMix64, dim: usize, ffn_dim: usize) -> Self {
        Self { fc1: Linear::new(rng, dim, ffn_dim), fc2: Linear::new(rng, ffn_dim, dim) }
    }

    /// Apply to every row: the first projection, bias and GELU run as
    /// one fused kernel pass, then the second fused bias projection.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let _span = obs::span(obs::Level::Trace, "kernels", "ffn")
            .with("rows", x.rows())
            .with("ffn_dim", self.fc1.w.cols());
        let h = kernels::linear_bias_gelu(x, &self.fc1.w, &self.fc1.b);
        let out = kernels::linear_bias(&h, &self.fc2.w, &self.fc2.b);
        // The hidden activation is dead: recycle its capacity.
        workspace::recycle_matrix(h);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shape_and_determinism() {
        let mut r1 = SplitMix64::new(1);
        let mut r2 = SplitMix64::new(1);
        let l1 = Linear::new(&mut r1, 4, 6);
        let l2 = Linear::new(&mut r2, 4, 6);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]);
        assert_eq!(l1.forward(&x).cols(), 6);
        assert_eq!(l1.forward(&x), l2.forward(&x));
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let ln = LayerNorm::new(4);
        let mut x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]);
        ln.forward_inplace(&mut x);
        let row = x.row(0);
        let mean: f64 = row.iter().sum::<f64>() / 4.0;
        let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn layernorm_constant_row_is_finite() {
        let ln = LayerNorm::new(3);
        let mut x = Matrix::from_rows(&[vec![5.0, 5.0, 5.0]]);
        ln.forward_inplace(&mut x);
        assert!(x.row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gelu_reference_points() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-5.0).abs() < 1e-3);
        assert!((gelu(5.0) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut xs);
        assert!((xs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_handles_extremes() {
        let mut xs = vec![1000.0, -1000.0];
        softmax_inplace(&mut xs);
        assert!((xs[0] - 1.0).abs() < 1e-12);
        let mut masked = vec![f64::NEG_INFINITY, f64::NEG_INFINITY];
        softmax_inplace(&mut masked);
        assert!((masked[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn attention_shape_and_determinism() {
        let mut rng = SplitMix64::new(3);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = Matrix::from_rows(&[vec![0.1; 8], vec![0.2; 8], vec![0.3; 8]]);
        let y1 = attn.forward(&x, &AttentionBias::none());
        let y2 = attn.forward(&x, &AttentionBias::none());
        assert_eq!(y1.rows(), 3);
        assert_eq!(y1.cols(), 8);
        assert_eq!(y1, y2);
    }

    #[test]
    fn attention_mask_blocks_information_flow() {
        let mut rng = SplitMix64::new(3);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        // Token 0 may only attend itself; changing token 1 must not change
        // token 0's output.
        let mask = |i: usize, j: usize| i != 0 || j == 0;
        let a = Matrix::from_rows(&[vec![0.5; 8], vec![1.0; 8]]);
        let b = Matrix::from_rows(&[vec![0.5; 8], vec![-2.0; 8]]);
        let extras = AttentionBias { bias: None, mask: Some(&mask) };
        let ya = attn.forward(&a, &extras);
        let yb = attn.forward(&b, &extras);
        assert_eq!(ya.row(0), yb.row(0));
        assert_ne!(ya.row(1), yb.row(1));

        // Fully-masked query: token 0 may attend *nothing*. The old
        // uniform-softmax fallback attended every key — including the
        // masked ones — leaking token 1's content through the value
        // aggregation. A fully-masked query must now be insensitive to
        // every other token.
        let none_mask = |i: usize, _j: usize| i != 0;
        let extras = AttentionBias { bias: None, mask: Some(&none_mask) };
        let ya = attn.forward(&a, &extras);
        let yb = attn.forward(&b, &extras);
        assert_eq!(
            ya.row(0),
            yb.row(0),
            "fully-masked query leaked masked key content into its output"
        );
    }

    #[test]
    fn fully_masked_query_attends_only_itself() {
        let mut rng = SplitMix64::new(3);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = Matrix::from_rows(&[vec![0.5; 8], vec![1.0; 8], vec![-1.5; 8]]);
        let none_mask = |i: usize, _j: usize| i != 1;
        let extras = AttentionBias { bias: None, mask: Some(&none_mask) };
        let (_, weights) = attn.forward_with_weights(&x, &extras);
        // Head-averaged weights: the fully-masked row is a self-delta.
        assert_eq!(weights.row(1), &[0.0, 1.0, 0.0]);
        // Unmasked rows remain proper distributions.
        for i in [0usize, 2] {
            let sum: f64 = weights.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn attention_bias_changes_output() {
        let mut rng = SplitMix64::new(3);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = Matrix::from_rows(&[vec![0.5; 8], vec![1.5; 8], vec![-0.5; 8]]);
        let bias = |_h: usize, i: usize, j: usize| (i as f64 - j as f64) * 0.5;
        let plain = attn.forward(&x, &AttentionBias::none());
        let biased = attn.forward(&x, &AttentionBias { bias: Some(&bias), mask: None });
        assert_ne!(plain, biased);
    }

    #[test]
    fn ffn_shape() {
        let mut rng = SplitMix64::new(4);
        let ffn = FeedForward::new(&mut rng, 8, 16);
        let x = Matrix::from_rows(&[vec![0.3; 8]]);
        let y = ffn.forward(&x);
        assert_eq!(y.rows(), 1);
        assert_eq!(y.cols(), 8);
    }
}
