//! Machine-readable SIMD-tier microbenchmark: emits `BENCH_simd.json`.
//!
//! Measures ns/op for the tier-dispatched kernels — `dot`, `softmax`
//! (the fastmath exp pass), `gemm` (`linear_bias` with a zero bias) and
//! a whole 2-layer encoder forward — at the same seq×dim grid as the
//! `encoder_kernels` criterion bench, with every available tier forced
//! in turn (`scalar`, plus `avx2` where the CPU supports it).
//!
//! Same process, same buffers, tier forced via `simd::force_tier`: the
//! dispatch tier is the only variable between rows. Output is one JSON
//! document (written to the path in `argv[1]`, default
//! `BENCH_simd.json`) with per-row `ns_per_op` and per-kernel speedup
//! summaries; DESIGN.md §11's table quotes it directly.
//!
//! Methodology: per row, warm up, then repeat timed batches (each sized
//! to ≥ ~20 ms) and keep the **minimum** ns/op across batches — the
//! standard noise floor estimator for a single-core container where the
//! only perturbation is external preemption (which only ever slows a
//! batch down).

use observatory_bench::harness::banner;
use observatory_linalg::kernels;
use observatory_linalg::simd;
use observatory_linalg::{reduce, Matrix, SplitMix64};
use observatory_transformer::config::TransformerConfig;
use observatory_transformer::encoder::{Encoder, TokenInput};
use std::hint::black_box;
use std::time::Instant;

const GRID: [(usize, usize); 4] = [(32, 64), (128, 64), (128, 128), (256, 128)];
const BATCH_TARGET_NS: u128 = 20_000_000; // ≥ 20 ms per timed batch
const BATCHES: usize = 5;

fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = rng.next_normal_with(0.0, 0.5);
        }
    }
    m
}

/// Minimum ns/op over `BATCHES` auto-sized batches of `f`.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Warmup + batch sizing: grow the iteration count until one batch
    // costs at least BATCH_TARGET_NS.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t.elapsed().as_nanos();
        if ns >= BATCH_TARGET_NS {
            break;
        }
        iters = (iters * 2).max((iters as u128 * BATCH_TARGET_NS / ns.max(1)) as u64 + 1);
    }
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

struct Row {
    kernel: &'static str,
    shape: String,
    tier: &'static str,
    ns_per_op: f64,
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_simd.json".into());
    banner("bench_simd: SIMD tier microbenchmarks", "DESIGN.md §11");
    let tiers = simd::available_tiers();
    let mut rows: Vec<Row> = Vec::new();

    for (seq, dim) in GRID {
        let shape = format!("seq{seq}_dim{dim}");
        let mut rng = SplitMix64::new(42);

        // dot: the reduction every kNN/ANN/stats scan is built from.
        let a: Vec<f64> = (0..dim).map(|_| rng.next_normal_with(0.0, 1.0)).collect();
        let b: Vec<f64> = (0..dim).map(|_| rng.next_normal_with(0.0, 1.0)).collect();
        for &tier in &tiers {
            let ns = time_ns(|| {
                black_box(reduce::dot_with_tier(black_box(&a), black_box(&b), tier));
            });
            rows.push(Row {
                kernel: "dot",
                shape: shape.clone(),
                tier: tier.name(),
                ns_per_op: ns,
            });
        }

        // softmax: one length-`seq` fastmath exp row, the attention inner pass.
        let logits: Vec<f64> = (0..seq).map(|_| rng.next_normal_with(0.0, 2.0)).collect();
        for &tier in &tiers {
            simd::force_tier(Some(tier));
            let ns = time_ns(|| {
                let mut xs = black_box(logits.clone());
                kernels::softmax_fast_inplace(&mut xs);
                black_box(xs);
            });
            // Subtract the clone cost so the row isolates the softmax pass.
            let clone_ns = time_ns(|| {
                black_box(black_box(logits.clone()));
            });
            simd::force_tier(None);
            rows.push(Row {
                kernel: "softmax",
                shape: shape.clone(),
                tier: tier.name(),
                ns_per_op: (ns - clone_ns).max(0.0),
            });
        }

        // gemm: seq×dim · dim×dim fused linear map (the encoder's QKV shape).
        let x = random_matrix(&mut rng, seq, dim);
        let w = random_matrix(&mut rng, dim, dim);
        let bias = vec![0.0; dim];
        for &tier in &tiers {
            simd::force_tier(Some(tier));
            let ns = time_ns(|| {
                black_box(kernels::linear_bias(black_box(&x), black_box(&w), black_box(&bias)));
            });
            simd::force_tier(None);
            rows.push(Row {
                kernel: "gemm",
                shape: shape.clone(),
                tier: tier.name(),
                ns_per_op: ns,
            });
        }
    }

    // Whole-encoder forward: 2 layers at the two encode-bench shapes.
    for (seq, dim) in [(128usize, 64usize), (256, 64)] {
        let shape = format!("seq{seq}_dim{dim}");
        let encoder = Encoder::new(TransformerConfig {
            dim,
            n_heads: 4,
            n_layers: 2,
            ffn_dim: 2 * dim,
            max_len: seq,
            vocab_size: 512,
            seed_label: "bench-simd".into(),
            ..Default::default()
        });
        let tokens: Vec<TokenInput> =
            (0..seq).map(|i| TokenInput::plain((i % 512) as u32)).collect();
        for &tier in &tiers {
            simd::force_tier(Some(tier));
            let ns = time_ns(|| {
                black_box(encoder.encode(black_box(&tokens)));
            });
            simd::force_tier(None);
            rows.push(Row {
                kernel: "encode",
                shape: shape.clone(),
                tier: tier.name(),
                ns_per_op: ns,
            });
        }
    }

    // Per-kernel speedup of the widest tier over scalar (min/max across shapes).
    let widest = tiers.last().expect("at least the scalar tier").name();
    let mut speedups = String::new();
    for kernel in ["dot", "softmax", "gemm", "encode"] {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for r in rows.iter().filter(|r| r.kernel == kernel && r.tier == widest) {
            if let Some(s) =
                rows.iter().find(|p| p.kernel == kernel && p.shape == r.shape && p.tier == "scalar")
            {
                if r.ns_per_op > 0.0 {
                    let f = s.ns_per_op / r.ns_per_op;
                    lo = lo.min(f);
                    hi = hi.max(f);
                }
            }
        }
        if hi > 0.0 {
            if !speedups.is_empty() {
                speedups.push(',');
            }
            speedups.push_str(&format!(
                "\"{kernel}\":{{\"tier\":\"{widest}\",\"min\":{lo:.2},\"max\":{hi:.2}}}"
            ));
            println!("{kernel:8} {widest} over scalar: {lo:.2}x – {hi:.2}x");
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"simd\": \"{}\",\n", simd::decision().describe()));
    json.push_str(&format!(
        "  \"tiers\": [{}],\n",
        tiers.iter().map(|&t| format!("\"{}\"", t.name())).collect::<Vec<_>>().join(",")
    ));
    json.push_str("  \"unit\": \"ns_per_op\",\n");
    json.push_str(&format!("  \"speedups\": {{{speedups}}},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\":\"{}\",\"shape\":\"{}\",\"tier\":\"{}\",\"ns_per_op\":{:.1}}}{}\n",
            r.kernel,
            r.shape,
            r.tier,
            r.ns_per_op,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_simd.json");
    println!("wrote {} rows -> {out_path}", rows.len());
}
