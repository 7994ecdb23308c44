//! `kernel_bench` — attention and GEMM kernels, each against its simpler
//! path.
//!
//! **Attention.** Sweeps sequence length x heads x precision and times the
//! forward and backward of both attention paths on identical inputs:
//!
//! * **naive** — `AttnPath::Reference`: materializes the `T x T` score
//!   matrix per head (matmul_nt -> scale -> softmax -> matmul), which is
//!   exactly the pre-fused-kernel implementation and remains the
//!   gradient-check oracle.
//! * **fused** — `AttnPath::Fused`: streaming KV tiles with online softmax,
//!   parallel over heads x query-row blocks, scratch from a pooled
//!   [`Workspace`] (zero steady-state allocation).
//!
//! Besides wall-clock, each cell records what the cache keeps *resident*
//! for the backward (`MhaCache::resident_bytes`): quadratic in `T` for
//! naive, linear for fused — the ratio must shrink as `T` grows.
//!
//! **GEMM.** Times the three transpose variants (`NN` = `A·B`, `NT` =
//! `A·Bᵀ`, `TN` = `Aᵀ·B`) on the packed and the legacy path at the shapes
//! the `train_longseq` benchmark workload runs (transformer block and
//! front-end weight gradients), reports GFLOP/s, and checks that the two
//! paths give bit-identical results.
//!
//! Writes `results/kernel_bench.json` (also under `--smoke`, which CI
//! asserts on). Usage:
//!
//! ```text
//! kernel_bench [--smoke]
//! ```

use orbit_bench::report::{print_table, write_json};
use orbit_comm::json;
use orbit_tensor::init::Rng;
use orbit_tensor::kernels::attention::{mha_backward_ws, mha_forward_path, AttnPath};
use orbit_tensor::matmul::{gemm_on_path, GemmOp, GemmPath};
use orbit_tensor::{Precision, Tensor, Workspace};
use std::hint::black_box;
use std::time::Instant;

const D_HEAD: usize = 64;

struct Cell {
    tokens: usize,
    heads: usize,
    prec: Precision,
}

fn prec_name(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f32",
        Precision::BF16Mixed => "bf16_mixed",
    }
}

struct Measurement {
    fwd_s: f64,
    bwd_s: f64,
    resident_bytes: usize,
    ws_peak_bytes: usize,
}

/// Time `iters` forward+backward pairs of one path after a warmup pair
/// (the warmup also fills the workspace pool, so the measured iterations
/// see the steady state the training loop runs in).
fn measure(cell: &Cell, path: AttnPath, iters: usize) -> Measurement {
    let d_model = cell.heads * D_HEAD;
    let mut rng = Rng::seed(4242 + cell.tokens as u64);
    let q = rng.normal_tensor(cell.tokens, d_model, 0.7);
    let k = rng.normal_tensor(cell.tokens, d_model, 0.7);
    let v = rng.normal_tensor(cell.tokens, d_model, 0.7);
    let dy = rng.normal_tensor(cell.tokens, d_model, 1.0);
    let ws = Workspace::new();

    let fwd = |ws: &Workspace| mha_forward_path(&q, &k, &v, cell.heads, None, cell.prec, path, ws);
    let (_, cache) = fwd(&ws);
    black_box(mha_backward_ws(&cache, None, &dy, &ws));
    let resident_bytes = cache.resident_bytes();
    ws.reset_peak();

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(fwd(&ws).0);
    }
    let fwd_s = t0.elapsed().as_secs_f64() / iters as f64;

    let t1 = Instant::now();
    for _ in 0..iters {
        black_box(mha_backward_ws(&cache, None, &dy, &ws));
    }
    let bwd_s = t1.elapsed().as_secs_f64() / iters as f64;

    Measurement {
        fwd_s,
        bwd_s,
        resident_bytes,
        ws_peak_bytes: ws.peak_bytes(),
    }
}

/// GEMM shapes as `(k, m, n)`: `C` is `m x n` and `k` is the reduction.
/// At 512 tokens and embed 128: a block's `Wq/Wk/Wv/Wo` (512x128x128),
/// `W1` (512x128x512) and `W2` (512x512x128); the front-end's stacked
/// 8-channel K/V projection (4096x128x128) and patch embedding (512x16x128).
const GEMM_SHAPES: [(usize, usize, usize); 5] = [
    (512, 128, 128),
    (512, 128, 512),
    (512, 512, 128),
    (4096, 128, 128),
    (512, 16, 128),
];

fn op_name(op: GemmOp) -> &'static str {
    match op {
        GemmOp::Nn => "NN",
        GemmOp::Nt => "NT",
        GemmOp::Tn => "TN",
    }
}

/// Median seconds of `reps` timed calls after one warm-up call, and the
/// warm-up's result.
fn time_gemm(op: GemmOp, a: &Tensor, b: &Tensor, path: GemmPath, reps: usize) -> (f64, Tensor) {
    let c = gemm_on_path(op, a, b, path);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(gemm_on_path(op, black_box(a), black_box(b), path));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[reps / 2], c)
}

/// Packed vs legacy for every variant and shape: table rows and JSON rows.
fn gemm_section(smoke: bool) -> (Vec<Vec<String>>, Vec<json::Value>) {
    let reps = if smoke { 5 } else { 15 };
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for op in [GemmOp::Nn, GemmOp::Nt, GemmOp::Tn] {
        for &(k, m, n) in &GEMM_SHAPES {
            let mut rng = Rng::seed(777 + (k * m + n) as u64);
            let (a_shape, b_shape) = match op {
                GemmOp::Nn => ((m, k), (k, n)),
                GemmOp::Nt => ((m, k), (n, k)),
                GemmOp::Tn => ((k, m), (k, n)),
            };
            let mut a = rng.normal_tensor(a_shape.0, a_shape.1, 1.0);
            // Exact zeros (every 7th element) run the zero-skip lanes.
            for v in a.data_mut().iter_mut().step_by(7) {
                *v = 0.0;
            }
            let b = rng.normal_tensor(b_shape.0, b_shape.1, 1.0);
            let (legacy_s, c_legacy) = time_gemm(op, &a, &b, GemmPath::Legacy, reps);
            let (packed_s, c_packed) = time_gemm(op, &a, &b, GemmPath::Packed, reps);
            let bit_identical = c_legacy == c_packed;
            let gflop = 2.0 * (m * k * n) as f64 / 1e9;
            let speedup = legacy_s / packed_s;
            rows.push(vec![
                op_name(op).to_string(),
                format!("{k}x{m}x{n}"),
                format!("{:.2}", legacy_s * 1e3),
                format!("{:.2}", packed_s * 1e3),
                format!("{:.1}", gflop / legacy_s),
                format!("{:.1}", gflop / packed_s),
                format!("{speedup:.2}x"),
                bit_identical.to_string(),
            ]);
            artifacts.push(json!({
                "op": op_name(op),
                "k": k,
                "m": m,
                "n": n,
                "legacy_ms": legacy_s * 1e3,
                "packed_ms": packed_s * 1e3,
                "legacy_gflop_per_s": gflop / legacy_s,
                "packed_gflop_per_s": gflop / packed_s,
                "speedup": speedup,
                "bit_identical": bit_identical,
            }));
        }
    }
    (rows, artifacts)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cells: Vec<Cell> = if smoke {
        vec![
            Cell {
                tokens: 256,
                heads: 8,
                prec: Precision::F32,
            },
            Cell {
                tokens: 512,
                heads: 8,
                prec: Precision::F32,
            },
            Cell {
                tokens: 1024,
                heads: 8,
                prec: Precision::F32,
            },
            Cell {
                tokens: 1024,
                heads: 8,
                prec: Precision::BF16Mixed,
            },
        ]
    } else {
        let mut v: Vec<Cell> = [256usize, 512, 1024, 2048]
            .iter()
            .flat_map(|&t| {
                [8usize, 16].iter().map(move |&h| Cell {
                    tokens: t,
                    heads: h,
                    prec: Precision::F32,
                })
            })
            .collect();
        v.push(Cell {
            tokens: 1024,
            heads: 8,
            prec: Precision::BF16Mixed,
        });
        v
    };

    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    let mut headline = None;
    for cell in &cells {
        let iters = if cell.tokens >= 2048 {
            3
        } else if cell.tokens >= 1024 {
            5
        } else {
            10
        };
        let naive = measure(cell, AttnPath::Reference, iters);
        let fused = measure(cell, AttnPath::Fused, iters);
        let fwd_speedup = naive.fwd_s / fused.fwd_s;
        let bwd_speedup = naive.bwd_s / fused.bwd_s;
        let resident_ratio = fused.resident_bytes as f64 / naive.resident_bytes as f64;
        if cell.tokens == 1024 && cell.heads == 8 && cell.prec == Precision::F32 {
            headline = Some(fwd_speedup);
        }
        rows.push(vec![
            cell.tokens.to_string(),
            cell.heads.to_string(),
            prec_name(cell.prec).to_string(),
            format!("{:.2}", naive.fwd_s * 1e3),
            format!("{:.2}", fused.fwd_s * 1e3),
            format!("{fwd_speedup:.2}x"),
            format!("{bwd_speedup:.2}x"),
            format!("{:.1}", naive.resident_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", fused.resident_bytes as f64 / (1 << 20) as f64),
            format!("{resident_ratio:.3}"),
        ]);
        artifacts.push(json!({
            "tokens": cell.tokens,
            "heads": cell.heads,
            "precision": prec_name(cell.prec),
            "naive_fwd_ms": naive.fwd_s * 1e3,
            "fused_fwd_ms": fused.fwd_s * 1e3,
            "naive_bwd_ms": naive.bwd_s * 1e3,
            "fused_bwd_ms": fused.bwd_s * 1e3,
            "fwd_speedup": fwd_speedup,
            "bwd_speedup": bwd_speedup,
            "naive_resident_bytes": naive.resident_bytes,
            "fused_resident_bytes": fused.resident_bytes,
            "resident_ratio": resident_ratio,
            "fused_ws_peak_bytes": fused.ws_peak_bytes,
        }));
    }

    print_table(
        "attention: naive (materialized probs) vs fused (streaming tiles)",
        &[
            "T",
            "heads",
            "prec",
            "naive fwd ms",
            "fused fwd ms",
            "fwd x",
            "bwd x",
            "naive res MB",
            "fused res MB",
            "res ratio",
        ],
        &rows,
    );
    if let Some(s) = headline {
        println!("\nheadline: T=1024 heads=8 f32 fused forward speedup: {s:.2}x");
    }

    let (gemm_rows, gemm_artifacts) = gemm_section(smoke);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    print_table(
        "GEMM: legacy loop vs packed path (k x m x n, C is m x n)",
        &[
            "op",
            "k x m x n",
            "legacy ms",
            "packed ms",
            "legacy GFLOP/s",
            "packed GFLOP/s",
            "speedup",
            "bit-identical",
        ],
        &gemm_rows,
    );

    let v = json!({
        "smoke": smoke,
        "d_head": D_HEAD,
        "note": "naive = AttnPath::Reference (materialized T x T probs, the \
                 pre-fused implementation); fused = streaming KV tiles with \
                 online softmax. resident_bytes is what each path's cache \
                 keeps live for the backward.",
        "headline_fwd_speedup_t1024_h8_f32": headline,
        "rows": artifacts,
        "gemm_threads": threads,
        "gemm": gemm_artifacts,
    });
    write_json("kernel_bench", &v);
}
