//! Checkpoint portability: a checkpoint captured under one parallel layout
//! restores bit-exactly into *any* other layout — Hybrid-STOP to single
//! device, to DDP, and to a differently-factored Hybrid-STOP grid — and
//! survives a file round trip through the bulk binary format.

use orbit::comm::{Cluster, SimError};
use orbit::core::{build_engine, EngineSpec, ParallelLayout, TrainOptions};
use orbit::tensor::init::Rng;
use orbit::tensor::kernels::AdamW;
use orbit::vit::{Batch, Checkpoint, VitConfig};

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

/// Train a few steps under `spec`, capture, and return the checkpoint
/// (identical on every rank — asserted here).
fn train_and_capture(spec: EngineSpec, world: usize, cfg: VitConfig, steps: u64) -> Checkpoint {
    let outcomes = Cluster::frontier().try_run(world, |ctx| {
        let mut engine = build_engine(ctx, spec, cfg, AdamW::default(), TrainOptions::none(), 42)?;
        for step in 0..steps {
            ctx.begin_step(step)?;
            engine.train_step(ctx, &make_batch(&cfg, 4, 500 + step))?;
        }
        engine.capture_checkpoint(ctx)
    });
    let mut cks: Vec<Checkpoint> = outcomes
        .into_iter()
        .map(|o| o.ok().expect("no faults in this run"))
        .collect();
    let first = cks.remove(0);
    for (r, ck) in cks.into_iter().enumerate() {
        assert_eq!(first, ck, "checkpoint must be identical on rank {}", r + 1);
    }
    first
}

/// Restore `ck` into `spec`, immediately re-capture, and return the result
/// — the round trip must be the identity for every layout.
fn restore_and_recapture(
    spec: EngineSpec,
    world: usize,
    cfg: VitConfig,
    ck: &Checkpoint,
) -> Checkpoint {
    let outcomes = Cluster::frontier().try_run(world, |ctx| {
        let mut engine = build_engine(ctx, spec, cfg, AdamW::default(), TrainOptions::none(), 7)?;
        engine.restore_checkpoint(ctx, ck)?;
        engine.capture_checkpoint(ctx)
    });
    outcomes
        .into_iter()
        .next()
        .unwrap()
        .ok()
        .expect("no faults in this run")
}

/// The headline portability test: a Hybrid-STOP 2x2x1 run interrupted
/// mid-epoch hands its checkpoint to a single device, a DDP pair, and a
/// re-factored Hybrid-STOP grid, and every layout reproduces it bit-exactly
/// on re-capture (restore followed by capture is a pure permutation).
#[test]
fn hybrid_checkpoint_restores_into_every_layout_bit_exactly() {
    let cfg = VitConfig::test_tiny();
    let hybrid = EngineSpec::HybridStop(ParallelLayout::new(2, 2, 1));
    let ck = train_and_capture(hybrid, 4, cfg, 3);
    assert!(ck.matches_config(&cfg));

    for (label, spec, world) in [
        ("single", EngineSpec::Single, 1),
        ("ddp", EngineSpec::Ddp, 2),
        ("fsdp", EngineSpec::Fsdp, 2),
        (
            "hybrid 1x2x2",
            EngineSpec::HybridStop(ParallelLayout::new(1, 2, 2)),
            4,
        ),
    ] {
        let round = restore_and_recapture(spec, world, cfg, &ck);
        assert_eq!(ck, round, "{label}: restore->capture must be the identity");
    }
}

/// GradScaler state rides along in the checkpoint: a mixed-precision run
/// captures `Some(state)`, the state survives restore into a *different*
/// engine (and a file round trip), and full-precision runs keep the field
/// `None`.
#[test]
fn grad_scaler_state_survives_capture_restore_across_engines() {
    let cfg = VitConfig::test_tiny();
    let amp = TrainOptions {
        mixed_precision: true,
        ..TrainOptions::none()
    };

    // Train three mixed-precision steps under DDP and capture.
    let outcomes = Cluster::frontier().try_run(2, |ctx| {
        let mut engine = build_engine(ctx, EngineSpec::Ddp, cfg, AdamW::default(), amp, 42)?;
        for step in 0..3u64 {
            ctx.begin_step(step)?;
            engine.train_step(ctx, &make_batch(&cfg, 4, 500 + step))?;
        }
        engine.capture_checkpoint(ctx)
    });
    let ck = outcomes
        .into_iter()
        .next()
        .unwrap()
        .ok()
        .expect("no faults in this run");
    let state = ck
        .scaler
        .expect("mixed-precision capture must record scaler state");
    assert!(state.scale > 0.0);

    // File round trip preserves the scaler section.
    let path = std::env::temp_dir().join(format!("orbit_scaler_test_{}.bin", std::process::id()));
    ck.save_to_path(&path).unwrap();
    let loaded = Checkpoint::load_from_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        loaded.scaler,
        Some(state),
        "scaler must survive the file format"
    );

    // Restore into an FSDP pair and immediately recapture: the scaler
    // state comes back unchanged.
    let outcomes = Cluster::frontier().try_run(2, |ctx| {
        let mut engine = build_engine(ctx, EngineSpec::Fsdp, cfg, AdamW::default(), amp, 7)?;
        engine.restore_checkpoint(ctx, &loaded)?;
        engine.capture_checkpoint(ctx)
    });
    let round = outcomes
        .into_iter()
        .next()
        .unwrap()
        .ok()
        .expect("no faults in this run");
    assert_eq!(
        round.scaler,
        Some(state),
        "restore -> capture must be the identity on scaler state"
    );

    // Full-precision runs don't carry scaler state.
    let plain = train_and_capture(EngineSpec::Single, 1, cfg, 1);
    assert!(plain.scaler.is_none(), "no scaler without mixed precision");
}

/// The same checkpoint survives the bulk binary file format, and training
/// continues identically from the loaded copy.
#[test]
fn checkpoint_file_roundtrip_then_resume_matches_in_memory_resume() {
    let cfg = VitConfig::test_tiny();
    let ck = train_and_capture(EngineSpec::Ddp, 2, cfg, 2);

    let path =
        std::env::temp_dir().join(format!("orbit_portability_test_{}.bin", std::process::id()));
    ck.save_to_path(&path).unwrap();
    let loaded = Checkpoint::load_from_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(ck, loaded, "file round trip must be exact");

    // Resume two more steps from the loaded checkpoint on a single device
    // and from the in-memory one under DDP: identical losses either way.
    let resume = |spec: EngineSpec, world: usize, ck: &Checkpoint| -> Vec<f32> {
        let outcomes = Cluster::frontier().try_run(world, |ctx| {
            let mut engine =
                build_engine(ctx, spec, cfg, AdamW::default(), TrainOptions::none(), 9)?;
            engine.restore_checkpoint(ctx, ck)?;
            let mut losses = Vec::new();
            for step in 2..4u64 {
                ctx.begin_step(step)?;
                losses.push(
                    engine
                        .train_step(ctx, &make_batch(&cfg, 4, 500 + step))?
                        .loss,
                );
            }
            Ok(losses)
        });
        outcomes
            .into_iter()
            .next()
            .unwrap()
            .ok()
            .expect("no faults in this run")
    };
    let from_file = resume(EngineSpec::Single, 1, &loaded);
    let from_memory = resume(EngineSpec::Ddp, 2, &ck);
    for (i, (a, b)) in from_file.iter().zip(&from_memory).enumerate() {
        assert!(
            (a - b).abs() < 1e-5 * b.abs().max(1.0),
            "resumed step {i}: single-from-file {a} vs ddp-from-memory {b}"
        );
    }
}

/// Every engine validates a checkpoint before restoring it: one whose
/// `adam_m` is an element short is a typed `SimError::State` on every
/// rank, never a panic in the next optimizer step.
#[test]
fn short_adam_moment_is_a_typed_error_in_every_engine() {
    let cfg = VitConfig::test_tiny();
    let mut ck = train_and_capture(EngineSpec::Single, 1, cfg, 1);
    ck.adam_m.pop();
    for (spec, world) in [
        (EngineSpec::Single, 1),
        (EngineSpec::Ddp, 2),
        (EngineSpec::Fsdp, 2),
        (EngineSpec::TensorParallel, 2),
        (EngineSpec::HybridStop(ParallelLayout::new(1, 2, 1)), 2),
    ] {
        let outcomes = Cluster::frontier().try_run(world, |ctx| {
            let mut engine =
                build_engine(ctx, spec, cfg, AdamW::default(), TrainOptions::none(), 7)?;
            engine.restore_checkpoint(ctx, &ck)
        });
        for outcome in &outcomes {
            match outcome.sim_error() {
                Some(SimError::State(msg)) => assert!(msg.contains("adam_m"), "{msg}"),
                other => panic!("{}: expected a State error, got {other:?}", spec.name()),
            }
        }
    }
}
