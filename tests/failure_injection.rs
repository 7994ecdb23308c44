//! Failure-mode tests: simulated OOM surfaces as a typed error (never a
//! deadlock/panic) and the dynamic gradient scaler skips steps on
//! non-finite gradients, then recovers — the paper's BF16 safety net.

use orbit::comm::Cluster;
use orbit::core::{
    DataParallelEngine, Engine, EngineSpec, GradScaler, HybridStopEngine, ParallelLayout,
    TrainOptions,
};
use orbit::tensor::init::Rng;
use orbit::tensor::kernels::AdamW;
use orbit::vit::{Batch, VitConfig, VitModel};

fn make_batch(cfg: &VitConfig, n: usize, scale: f32) -> Batch {
    let mut rng = Rng::seed(21);
    Batch {
        inputs: (0..n)
            .map(|_| {
                (0..cfg.dims.channels)
                    .map(|_| rng.normal_tensor(cfg.dims.img_h, cfg.dims.img_w, scale))
                    .collect()
            })
            .collect(),
        targets: (0..n)
            .map(|_| {
                (0..cfg.dims.out_channels)
                    .map(|_| rng.normal_tensor(cfg.dims.img_h, cfg.dims.img_w, scale))
                    .collect()
            })
            .collect(),
    }
}

#[test]
fn oom_at_construction_is_a_typed_error_on_every_rank() {
    let cfg = VitConfig::test_tiny();
    let results = Cluster::frontier()
        .with_device_capacity(1024)
        .run(4, |ctx| {
            let layout = ParallelLayout::new(2, 2, 1);
            HybridStopEngine::new(ctx, layout, cfg, AdamW::default(), TrainOptions::none(), 1).err()
        });
    for err in results {
        let err = err.expect("tiny capacity must OOM");
        assert_eq!(err.capacity, 1024);
        assert!(err.requested > 0);
    }
}

#[test]
fn oom_mid_step_reports_capacity_pressure() {
    // Enough memory for the persistent shards but not for the activation
    // allocation: the step itself must fail cleanly.
    let cfg = VitConfig::test_tiny();
    let batch = make_batch(&cfg, 2, 1.0);
    let persistent_bytes = {
        let mut m = VitModel::init(cfg, 1);
        16 * m.param_count() as u64
    };
    let results = Cluster::frontier()
        .with_device_capacity(persistent_bytes + 1024)
        .run(1, |ctx| {
            let mut e = DataParallelEngine::new(
                ctx,
                EngineSpec::Single,
                cfg,
                AdamW::default(),
                TrainOptions::none(),
                1,
            )
            .expect("persistent state fits");
            e.train_step(ctx, &batch).err()
        });
    assert!(results[0].is_some(), "activation alloc must OOM");
}

#[test]
fn grad_scaler_skips_and_recovers_under_injected_overflow() {
    let mut scaler = GradScaler::with_scale(1024.0);
    // Healthy steps.
    for _ in 0..3 {
        let mut g = vec![1.0f32, -2.0];
        assert!(scaler.unscale_and_check(&mut g));
    }
    // Injected overflow: skip + backoff.
    let mut bad = vec![f32::INFINITY, 1.0];
    assert!(!scaler.unscale_and_check(&mut bad));
    assert_eq!(scaler.skipped_steps, 1);
    assert_eq!(scaler.scale(), 512.0);
    // Recovery: healthy steps proceed at the reduced scale.
    let mut g = vec![1.0f32];
    assert!(scaler.unscale_and_check(&mut g));
}

#[test]
fn mixed_precision_training_survives_extreme_inputs() {
    // Inputs large enough to stress BF16 dynamic range: training must not
    // produce NaN parameters; the scaler may skip steps but the run
    // completes and parameters stay finite.
    let cfg = VitConfig::test_tiny();
    let batch = make_batch(&cfg, 2, 50.0);
    let results = Cluster::frontier().run(2, |ctx| {
        let layout = ParallelLayout::new(1, 2, 1);
        let opts = TrainOptions {
            mixed_precision: true,
            layer_wrapping: true,
            ..TrainOptions::none()
        };
        let mut e = HybridStopEngine::new(ctx, layout, cfg, AdamW::default(), opts, 42).unwrap();
        let mut applied = 0;
        for _ in 0..4 {
            let s = e.train_step(ctx, &batch).unwrap();
            assert!(s.loss.is_finite(), "loss must stay finite");
            if s.applied {
                applied += 1;
            }
        }
        applied
    });
    // At least one step must eventually apply on every rank (the scaler
    // backs off until gradients are representable).
    for applied in results {
        assert!(applied >= 1, "training must make progress");
    }
}

#[test]
fn allocation_guard_frees_on_early_exit() {
    // An error path mid-step must not leak simulated memory.
    let results = Cluster::frontier()
        .with_device_capacity(10_000)
        .run(1, |ctx| {
            let before = ctx.device.in_use();
            {
                let _a = ctx.device.alloc(5000).unwrap();
                let err = ctx.device.alloc(8000);
                assert!(err.is_err());
            } // guard drops here
            ctx.device.in_use() == before
        });
    assert!(results[0]);
}
