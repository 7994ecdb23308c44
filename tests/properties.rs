//! Property tests on the core mathematical invariants: the Hybrid-STOP
//! chain identities (paper Eqns. (2)/(3)), collective semantics, shard
//! partitioning, BF16 rounding, and metric bounds.
//!
//! Each property runs a fixed number of cases; case `i` draws its inputs
//! from `Rng::seed(i)`, and a failing case prints that seed so it can be
//! replayed alone.

use orbit::comm::Cluster;
use orbit::core::GroupComm;
use orbit::data::metrics::{lat_weights, wacc};
use orbit::tensor::bf16::{bf16_to_f32, f32_to_bf16, round_bf16};
use orbit::tensor::dtensor::{flat_shard, flat_unshard, shard_columns, shard_rows};
use orbit::tensor::dtensor::{DTensor, DeviceMesh, Layout};
use orbit::tensor::init::Rng;
use orbit::tensor::kernels::{mha_backward_ws, mha_forward_path, QkNorm};
use orbit::tensor::{matmul, matmul_nt, matmul_tn, AttnPath, Precision, Tensor, Workspace};
use std::panic::{self, AssertUnwindSafe};

/// Run `property` on `cases` seeded streams, naming the seed of the first
/// case that fails.
fn check(name: &str, cases: u64, mut property: impl FnMut(&mut Rng)) {
    for seed in 0..cases {
        let mut rng = Rng::seed(seed);
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("{name}: failed on case seed {seed}");
            panic::resume_unwind(p);
        }
    }
}

/// Uniform integer in `lo..hi`.
fn range(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + rng.index(hi - lo)
}

/// One element of `options`, uniformly.
fn pick<T: Copy>(rng: &mut Rng, options: &[T]) -> T {
    options[rng.index(options.len())]
}

fn uniform_vec(rng: &mut Rng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(lo, hi)).collect()
}

fn tensor(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, uniform_vec(rng, rows * cols, -3.0, 3.0))
}

/// Paper Eqn. (2): x A B == sum_k (x A_{*,k})(B_{k,*}) for any shard
/// count dividing the inner dimension.
#[test]
fn eqn2_chain_identity() {
    check("eqn2_chain_identity", 24, |rng| {
        let x = tensor(rng, 3, 4);
        let a = tensor(rng, 4, 8);
        let b = tensor(rng, 8, 5);
        let shards = pick(rng, &[1usize, 2, 4, 8]);
        let full = matmul(&matmul(&x, &a), &b);
        let mut acc = Tensor::zeros(3, 5);
        for k in 0..shards {
            let ak = shard_columns(&a, shards, k).unwrap();
            let bk = shard_rows(&b, shards, k).unwrap();
            acc.add_assign(&matmul(&matmul(&x, &ak), &bk));
        }
        assert!(acc.allclose(&full, 1e-3, 1e-3));
    });
}

/// Paper Eqn. (3): the gradient through the chain decomposes over the
/// same shards: dX = sum_k dY B_{k,*}^T A_{*,k}^T.
#[test]
fn eqn3_gradient_identity() {
    check("eqn3_gradient_identity", 24, |rng| {
        let dy = tensor(rng, 3, 5);
        let a = tensor(rng, 4, 8);
        let b = tensor(rng, 8, 5);
        let shards = pick(rng, &[1usize, 2, 4]);
        // Full: dX = dY B^T A^T.
        let full = matmul_nt(&matmul_nt(&dy, &b), &a);
        let mut acc = Tensor::zeros(3, 4);
        for k in 0..shards {
            let ak = shard_columns(&a, shards, k).unwrap();
            let bk = shard_rows(&b, shards, k).unwrap();
            acc.add_assign(&matmul_nt(&matmul_nt(&dy, &bk), &ak));
        }
        assert!(acc.allclose(&full, 1e-3, 1e-3));
    });
}

/// Flat sharding is a partition: unshard(concat(shards)) == original.
fn assert_flat_shard_partition(data: &[f32], shards: usize) {
    let parts: Vec<Vec<f32>> = (0..shards).map(|k| flat_shard(data, shards, k)).collect();
    // All shards equal length.
    for p in &parts {
        assert_eq!(p.len(), parts[0].len());
    }
    let concat: Vec<f32> = parts.concat();
    assert_eq!(flat_unshard(&concat, data.len()), data);
}

#[test]
fn flat_shard_partition() {
    // More shards than elements once failed; keep it pinned.
    assert_flat_shard_partition(&[0.0], 3);
    check("flat_shard_partition", 24, |rng| {
        let len = range(rng, 1, 80);
        let data = uniform_vec(rng, len, -10.0, 10.0);
        let shards = range(rng, 1, 6);
        assert_flat_shard_partition(&data, shards);
    });
}

/// BF16 round-trip is idempotent and monotone.
#[test]
fn bf16_idempotent_and_monotone() {
    check("bf16_idempotent_and_monotone", 24, |rng| {
        let a = rng.uniform(-1e30, 1e30);
        let b = rng.uniform(-1e30, 1e30);
        let ra = round_bf16(a);
        assert_eq!(round_bf16(ra), ra, "idempotent");
        assert_eq!(bf16_to_f32(f32_to_bf16(ra)), ra);
        let rb = round_bf16(b);
        if a <= b {
            assert!(ra <= rb, "monotone: {a} -> {ra}, {b} -> {rb}");
        }
    });
}

/// wACC is always within [-1, 1].
#[test]
fn wacc_bounded() {
    check("wacc_bounded", 24, |rng| {
        let p = tensor(rng, 6, 8);
        let t = tensor(rng, 6, 8);
        let c = tensor(rng, 6, 8);
        let w = lat_weights(6);
        let a = wacc(&p, &t, &c, &w);
        assert!((-1.0..=1.0).contains(&a) || a == 0.0, "wacc {a}");
    });
}

/// matmul transpose variants agree with explicit transposition.
#[test]
fn matmul_variants_consistent() {
    check("matmul_variants_consistent", 24, |rng| {
        let a = tensor(rng, 3, 5);
        let b = tensor(rng, 3, 4);
        // A^T B via matmul_tn == transpose-then-multiply.
        let fast = matmul_tn(&a, &b);
        let slow = matmul(&a.transpose(), &b);
        assert!(fast.allclose(&slow, 1e-4, 1e-4));
    });
}

/// `matmul_tn` is bit-identical to the plain `A^T B` loop on random shapes
/// on both sides of the packed-path threshold, with exact zeros in `A`.
#[test]
fn matmul_tn_bit_identical_to_loop() {
    check("matmul_tn_bit_identical_to_loop", 16, |rng| {
        // Each case draws, at random, a shape that takes the legacy loop
        // (< 2^17 mul-adds) or one that takes the packed path.
        let (k, m, n) = if rng.index(2) == 0 {
            (range(rng, 1, 64), range(rng, 1, 32), range(rng, 1, 64))
        } else {
            (
                range(rng, 100, 300),
                range(rng, 16, 80),
                range(rng, 100, 300),
            )
        };
        let mut a = tensor(rng, k, m);
        for v in a.data_mut().iter_mut().step_by(7) {
            *v = 0.0;
        }
        let b = tensor(rng, k, n);
        let mut want = Tensor::zeros(m, n);
        for i in 0..m {
            let crow = want.row_mut(i);
            for kk in 0..k {
                let av = a.get(kk, i);
                if av == 0.0 {
                    continue;
                }
                for (cv, &bv) in crow.iter_mut().zip(b.row(kk)) {
                    *cv += av * bv;
                }
            }
        }
        assert_eq!(matmul_tn(&a, &b), want, "{k}x{m}x{n}");
    });
}

/// Run both attention paths on identical inputs and return
/// `((y_ref, grads_ref), (y_fused, grads_fused))`.
#[allow(clippy::type_complexity)]
fn both_attention_paths(
    seed: u64,
    tokens: usize,
    kv_tokens: usize,
    heads: usize,
    d_head: usize,
    qk_norm: bool,
    prec: Precision,
) -> (
    (Tensor, orbit::tensor::kernels::MhaGrads),
    (Tensor, orbit::tensor::kernels::MhaGrads),
) {
    let d_model = heads * d_head;
    let mut rng = Rng::seed(seed);
    let q = rng.normal_tensor(tokens, d_model, 1.0);
    let k = rng.normal_tensor(kv_tokens, d_model, 1.0);
    let v = rng.normal_tensor(kv_tokens, d_model, 1.0);
    let dy = rng.normal_tensor(tokens, d_model, 1.0);
    let norm = qk_norm.then(|| QkNorm::identity(d_head));
    let ws = Workspace::new();
    let run = |path| {
        let (y, cache) = mha_forward_path(&q, &k, &v, heads, norm.as_ref(), prec, path, &ws);
        let grads = mha_backward_ws(&cache, norm.as_ref(), &dy, &ws);
        (y, grads)
    };
    (run(AttnPath::Reference), run(AttnPath::Fused))
}

/// The streaming fused kernel is numerically equivalent to the
/// probs-materializing reference on random shapes: self- and
/// cross-attention (kv length independent of T, exercising partial KV
/// tiles), QK norm on/off, any head count dividing d_model.
#[test]
fn fused_matches_reference_attention() {
    check("fused_matches_reference_attention", 12, |rng| {
        let seed = rng.index(1_000) as u64;
        let tokens = pick(rng, &[3usize, 31, 64, 97, 160]);
        let kv_tokens = pick(rng, &[5usize, 64, 77, 128, 130]);
        let heads = pick(rng, &[1usize, 2, 4]);
        let d_head = pick(rng, &[4usize, 8, 16]);
        let qk_norm = pick(rng, &[false, true]);
        let ((y_ref, g_ref), (y_fused, g_fused)) = both_attention_paths(
            seed,
            tokens,
            kv_tokens,
            heads,
            d_head,
            qk_norm,
            Precision::F32,
        );
        assert!(y_fused.allclose(&y_ref, 1e-4, 1e-5), "forward diverged");
        assert!(g_fused.dq.allclose(&g_ref.dq, 1e-3, 1e-4), "dq diverged");
        assert!(g_fused.dk.allclose(&g_ref.dk, 1e-3, 1e-4), "dk diverged");
        assert!(g_fused.dv.allclose(&g_ref.dv, 1e-3, 1e-4), "dv diverged");
        assert_eq!(g_fused.dqk_norm.is_some(), qk_norm);
        if let (Some(f), Some(r)) = (&g_fused.dqk_norm, &g_ref.dqk_norm) {
            assert!(f.0.allclose(&r.0, 1e-3, 1e-4), "dgamma_q diverged");
            assert!(f.2.allclose(&r.2, 1e-3, 1e-4), "dgamma_k diverged");
        }
    });
}

/// Same equivalence under BF16Mixed: both paths round inputs to bf16
/// identically at entry, so they must still agree to the same
/// tolerances after the shared rounding.
#[test]
fn fused_matches_reference_attention_bf16() {
    check("fused_matches_reference_attention_bf16", 12, |rng| {
        let seed = rng.index(1_000) as u64;
        let tokens = pick(rng, &[17usize, 64, 96]);
        let heads = pick(rng, &[2usize, 4]);
        let qk_norm = pick(rng, &[false, true]);
        let ((y_ref, g_ref), (y_fused, g_fused)) = both_attention_paths(
            seed,
            tokens,
            tokens,
            heads,
            8,
            qk_norm,
            Precision::BF16Mixed,
        );
        assert!(y_fused.allclose(&y_ref, 1e-4, 1e-5), "forward diverged");
        assert!(g_fused.dq.allclose(&g_ref.dq, 1e-3, 1e-4), "dq diverged");
        assert!(g_fused.dk.allclose(&g_ref.dk, 1e-3, 1e-4), "dk diverged");
        assert!(g_fused.dv.allclose(&g_ref.dv, 1e-3, 1e-4), "dv diverged");
    });
}

/// Collective semantics on the real threaded cluster: all-gather of
/// random shards concatenates in rank order; reduce-scatter sums.
#[test]
fn collectives_random_sizes() {
    check("collectives_random_sizes", 8, |rng| {
        let world = pick(rng, &[2usize, 3, 4]);
        let chunk = range(rng, 1, 20);
        let results = Cluster::frontier().run(world, |ctx| {
            let mut g = ctx.world_group();
            let mut clock = std::mem::take(&mut ctx.clock);
            let mine: Vec<f32> = (0..chunk).map(|i| (ctx.rank * 100 + i) as f32).collect();
            let gathered = g.all_gather(&mut clock, &mine).unwrap();
            let summed = g.all_reduce(&mut clock, &mine).unwrap();
            (gathered, summed)
        });
        let (gathered, _) = &results[0];
        assert_eq!(gathered.len(), world * chunk);
        for r in 0..world {
            for i in 0..chunk {
                assert_eq!(gathered[r * chunk + i], (r * 100 + i) as f32);
            }
        }
        // all_reduce sums rank-wise: element i = sum_r (r*100 + i).
        let (_, summed) = &results[0];
        for i in 0..chunk {
            let expect: f32 = (0..world).map(|r| (r * 100 + i) as f32).sum();
            assert_eq!(summed[i], expect);
        }
        // Every rank sees identical results.
        for r in &results[1..] {
            assert_eq!(&r.0, gathered);
        }
    });
}

/// DTensor reshard roundtrip on the real threaded cluster: for every
/// pair of non-Partial layouts, `A -> B -> A` lands bit-identically on
/// the direct placement of the global tensor (reshards only move and
/// slice data, so no tolerance is needed).
#[test]
fn reshard_roundtrips_are_bit_identical() {
    check("reshard_roundtrips_are_bit_identical", 6, |rng| {
        let world = pick(rng, &[2usize, 4]);
        let rows_per = range(rng, 1, 3);
        let cols_per = range(rng, 1, 3);
        let rows = rows_per * world;
        let cols = cols_per * world;
        let global = Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| i as f32 - 7.0).collect(),
        );
        let layouts = [
            Layout::Replicate,
            Layout::Shard(0),
            Layout::Shard(1),
            Layout::ShardFlat,
        ];
        let results = Cluster::frontier().run(world, |ctx| {
            let mesh = DeviceMesh::one("x", ctx.world, ctx.rank);
            let mut group = ctx.world_group();
            let mut clock = std::mem::take(&mut ctx.clock);
            let mut ok = Vec::new();
            for from in layouts {
                for to in layouts {
                    let placed = DTensor::from_global(&global, mesh.clone(), "x", from).unwrap();
                    let mut comm = GroupComm::new(&mut group, &mut clock);
                    let there = placed.reshard("x", to, &mut comm).unwrap();
                    let back = there.reshard("x", from, &mut comm).unwrap();
                    ok.push(
                        back.local().data() == placed.local().data()
                            && back.global_shape() == (rows, cols)
                            && back.layout_on("x").unwrap() == from,
                    );
                }
            }
            ctx.clock = clock;
            ok
        });
        for ranks in &results {
            assert!(
                ranks.iter().all(|&b| b),
                "some roundtrip diverged: {ranks:?}"
            );
        }
    });
}

/// Resolving a Partial over the real cluster: `Partial -> Replicate`
/// is the element-wise sum of every rank's addend, and `Partial ->
/// ShardFlat` is this rank's padded flat shard of that sum — exact
/// for integer-valued addends regardless of reduction order.
#[test]
fn partial_resolution_matches_sum() {
    check("partial_resolution_matches_sum", 6, |rng| {
        let world = pick(rng, &[2usize, 3, 4]);
        let len = range(rng, 1, 12);
        let results = Cluster::frontier().run(world, |ctx| {
            let mesh = DeviceMesh::one("x", ctx.world, ctx.rank);
            let mut group = ctx.world_group();
            let mut clock = std::mem::take(&mut ctx.clock);
            let addend: Vec<f32> = (0..len)
                .map(|i| ((ctx.rank + 1) * (i + 1)) as f32)
                .collect();
            let make = || {
                DTensor::partial(Tensor::from_vec(1, len, addend.clone()), mesh.clone(), "x")
                    .unwrap()
            };
            let mut comm = GroupComm::new(&mut group, &mut clock);
            let repl = make()
                .reshard("x", Layout::Replicate, &mut comm)
                .unwrap()
                .into_local()
                .into_vec();
            let flat = make()
                .reshard("x", Layout::ShardFlat, &mut comm)
                .unwrap()
                .into_local()
                .into_vec();
            ctx.clock = clock;
            (repl, flat)
        });
        let sum: Vec<f32> = (0..len)
            .map(|i| (0..world).map(|r| ((r + 1) * (i + 1)) as f32).sum())
            .collect();
        for (rank, (repl, flat)) in results.iter().enumerate() {
            assert_eq!(repl, &sum);
            assert_eq!(flat, &flat_shard(&sum, world, rank));
        }
    });
}

/// The fleet response cache never serves stale weights: under any
/// interleaving of inserts (including entries produced by an older
/// generation, as an in-flight batch completing across an update
/// would), lookups, eager route invalidations, and *missed*
/// invalidations (a bare generation bump — the tag check alone must
/// protect), a hit always carries the route's current generation,
/// the LRU bound holds, and the hit/miss counters account for every
/// lookup.
#[test]
fn response_cache_never_serves_stale() {
    use orbit::fleet::{CacheKey, ResponseCache};
    check("response_cache_never_serves_stale", 64, |rng| {
        let capacity = range(rng, 1, 6);
        let n_ops = range(rng, 1, 200);
        let ops: Vec<u64> = (0..n_ops).map(|_| rng.index(192) as u64).collect();
        let mut cache: ResponseCache<u64> = ResponseCache::new(capacity);
        let mut gens = [0u64; 3];
        let mut lookups = 0usize;
        for code in ops {
            // Decode (op, route, key kind, key value) from one draw:
            // 4 ops x 3 routes x 2 kinds x 8 values = 192 codes.
            let op = code % 4;
            let route = (code / 4 % 3) as usize;
            let exact = code / 12 % 2;
            let v = code / 24 % 8;
            let key = if exact == 1 {
                CacheKey::Exact(v)
            } else {
                CacheKey::Climatology { window: v }
            };
            match op {
                0 => {
                    // Insert tagged with the current generation, or (when
                    // v is odd) one generation behind — a straggler batch
                    // that finished after the route's weights advanced.
                    let tag = gens[route].saturating_sub(v % 2);
                    cache.insert(route, key, tag, tag);
                }
                1 => {
                    lookups += 1;
                    if let Some(tag) = cache.lookup(route, key, gens[route]) {
                        assert_eq!(tag, gens[route], "stale serve");
                    }
                }
                2 => {
                    gens[route] += 1;
                    cache.invalidate_route(route, gens[route]);
                }
                _ => {
                    // Missed invalidation: the generation advances but
                    // nobody tells the cache.
                    gens[route] += 1;
                }
            }
            assert!(cache.len() <= capacity, "LRU bound violated");
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, lookups);
        assert!(s.stale_rejected <= s.misses);
    });
}
