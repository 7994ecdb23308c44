//! The paper's correctness claim, tested across the whole engine zoo:
//! every parallelism strategy trains *exactly* like the single-device
//! reference (same losses, same parameters), for multiple steps, on a
//! non-trivial model.

use orbit::comm::Cluster;
use orbit::core::{
    build_engine, DataParallelEngine, Engine, EngineSpec, HybridStopEngine, ParallelLayout,
    TrainOptions,
};
use orbit::tensor::init::Rng;
use orbit::tensor::kernels::AdamW;
use orbit::vit::loss::lat_weights;
use orbit::vit::{Batch, VitConfig, VitModel};

fn make_batch(cfg: &VitConfig, n: usize, seed: u64) -> Batch {
    let mut rng = Rng::seed(seed);
    Batch {
        inputs: (0..n)
            .map(|_| {
                (0..cfg.dims.channels)
                    .map(|_| rng.normal_tensor(cfg.dims.img_h, cfg.dims.img_w, 1.0))
                    .collect()
            })
            .collect(),
        targets: (0..n)
            .map(|_| {
                (0..cfg.dims.out_channels)
                    .map(|_| rng.normal_tensor(cfg.dims.img_h, cfg.dims.img_w, 1.0))
                    .collect()
            })
            .collect(),
    }
}

fn reference_losses(cfg: VitConfig, batch: &Batch, steps: usize) -> Vec<f32> {
    let w = lat_weights(cfg.dims.img_h);
    let opt = AdamW::default();
    let mut model = VitModel::init(cfg, 42);
    let mut state = model.init_adam_state();
    (0..steps)
        .map(|_| model.train_step(batch, &w, &opt, &mut state))
        .collect()
}

fn assert_close(label: &str, got: &[f32], want: &[f32], tol: f32) {
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "{label}: step {i}: {a} vs {b}"
        );
    }
}

/// A slightly larger model than the unit tests use, so head-count and
/// layer-count asymmetries are exercised.
fn cfg() -> VitConfig {
    let mut c = VitConfig::ladder(0, 8);
    c.dims.img_h = 16;
    c.dims.img_w = 32;
    c.dims.patch = 4; // 4x8 = 32 tokens
    c
}

#[test]
fn all_engines_match_reference() {
    let cfg = cfg();
    let batch = make_batch(&cfg, 4, 3);
    let steps = 2;
    let want = reference_losses(cfg, &batch, steps);
    let opt = AdamW::default();
    let opts = TrainOptions::none();

    // The whole engine zoo behind one generic driver: each case is just a
    // strategy spec and the world size it runs at. Hybrid-STOP activates
    // all three orthogonal levels (2 tensor x 2 shard x 2 data).
    let cases: [(EngineSpec, usize); 6] = [
        (EngineSpec::Single, 1),
        (EngineSpec::Ddp, 4),
        (EngineSpec::Fsdp, 4),
        (EngineSpec::TensorParallel, 4), // 4 heads
        (EngineSpec::Pipeline, 2),       // 2 layers -> 1 per stage
        (EngineSpec::HybridStop(ParallelLayout::new(2, 2, 2)), 8),
    ];
    for (spec, world) in cases {
        let results = Cluster::frontier().run(world, |ctx| {
            let mut e: Box<dyn Engine> = build_engine(ctx, spec, cfg, opt, opts, 42).unwrap();
            (0..steps)
                .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                .collect::<Vec<_>>()
        });
        // Every engine reports the same (global) loss on every rank.
        for ranks in &results {
            assert_close(spec.name(), ranks, &want, 1e-3);
        }
    }
}

#[test]
fn engines_match_reference_across_world_sizes() {
    // The DTensor refactor's acceptance bar: every engine stays
    // loss-identical to the single-device reference at worlds 1, 4 and 8
    // (tensor parallelism is capped at the 4 attention heads, so its
    // world-8 coverage is the tp=2 axis of the hybrid grid).
    let cfg = cfg();
    let batch = make_batch(&cfg, 8, 13);
    let steps = 2;
    let want = reference_losses(cfg, &batch, steps);
    let opt = AdamW::default();
    let opts = TrainOptions::none();

    let cases: [(EngineSpec, usize); 8] = [
        (EngineSpec::Single, 1),
        (EngineSpec::Ddp, 4),
        (EngineSpec::Ddp, 8),
        (EngineSpec::Fsdp, 4),
        (EngineSpec::Fsdp, 8),
        (EngineSpec::TensorParallel, 4),
        (EngineSpec::HybridStop(ParallelLayout::new(1, 2, 2)), 4),
        (EngineSpec::HybridStop(ParallelLayout::new(2, 2, 2)), 8),
    ];
    for (spec, world) in cases {
        let results = Cluster::frontier().run(world, |ctx| {
            let mut e: Box<dyn Engine> = build_engine(ctx, spec, cfg, opt, opts, 42).unwrap();
            (0..steps)
                .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                .collect::<Vec<_>>()
        });
        for ranks in &results {
            assert_close(&format!("{}@{world}", spec.name()), ranks, &want, 1e-3);
        }
    }
}

#[test]
fn hybrid_stop_final_params_match_reference() {
    let cfg = cfg();
    let batch = make_batch(&cfg, 4, 5);
    let w = lat_weights(cfg.dims.img_h);
    let opt = AdamW::default();
    let mut reference = VitModel::init(cfg, 42);
    let mut state = reference.init_adam_state();
    for _ in 0..2 {
        reference.train_step(&batch, &w, &opt, &mut state);
    }
    let want = reference.flatten_params();

    let layout = ParallelLayout::new(4, 2, 1);
    let results = Cluster::frontier().run(8, |ctx| {
        let mut e = HybridStopEngine::new(ctx, layout, cfg, opt, TrainOptions::none(), 42).unwrap();
        for _ in 0..2 {
            e.train_step(ctx, &batch).unwrap();
        }
        e.gather_full_params(ctx).unwrap()
    });
    for params in &results {
        assert_eq!(params.len(), want.len());
        let max_err = params
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 1e-3, "max param error {max_err}");
    }
}

#[test]
fn hybrid_stop_tp1_fsdp_n_equals_layer_wrapped_fsdp() {
    // Hybrid-STOP degenerates to layer-wrapped FSDP at tp=1: its losses
    // must match vanilla FSDP's (same math, different gather granularity).
    let cfg = cfg();
    let batch = make_batch(&cfg, 4, 7);
    let opt = AdamW::default();
    let fsdp = Cluster::frontier().run(4, |ctx| {
        let mut e =
            DataParallelEngine::new(ctx, EngineSpec::Fsdp, cfg, opt, TrainOptions::none(), 42)
                .unwrap();
        (0..2)
            .map(|_| e.train_step(ctx, &batch).unwrap().loss)
            .collect::<Vec<_>>()
    });
    let hs = Cluster::frontier().run(4, |ctx| {
        let layout = ParallelLayout::new(1, 4, 1);
        let opts = TrainOptions {
            layer_wrapping: true,
            ..TrainOptions::none()
        };
        let mut e = HybridStopEngine::new(ctx, layout, cfg, opt, opts, 42).unwrap();
        (0..2)
            .map(|_| e.train_step(ctx, &batch).unwrap().loss)
            .collect::<Vec<_>>()
    });
    assert_close("hs(tp=1) vs fsdp", &hs[0], &fsdp[0], 1e-3);
}

#[test]
fn checkpointed_hybrid_stop_matches_uncheckpointed() {
    let cfg = cfg();
    let batch = make_batch(&cfg, 2, 11);
    let opt = AdamW::default();
    let layout = ParallelLayout::new(2, 2, 1);
    let run = |ckpt: bool| {
        Cluster::frontier().run(4, |ctx| {
            let opts = TrainOptions {
                activation_checkpointing: ckpt,
                layer_wrapping: true,
                ..TrainOptions::none()
            };
            let mut e = HybridStopEngine::new(ctx, layout, cfg, opt, opts, 42).unwrap();
            (0..2)
                .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                .collect::<Vec<_>>()
        })
    };
    let with = run(true);
    let without = run(false);
    assert_close("ckpt", &with[0], &without[0], 1e-4);
}
