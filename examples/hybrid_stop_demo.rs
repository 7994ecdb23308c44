//! Hybrid-STOP on a simulated 8-GPU cluster, verified against the
//! single-device reference.
//!
//! Demonstrates the paper's central claims in miniature:
//! - the distributed losses match the single-device reference exactly;
//! - the per-GPU persistent memory shrinks with the shard count;
//! - vanilla FSDP's transient full-model gather spikes peak memory, while
//!   Hybrid-STOP's layer-shard gathers keep it flat (paper Figs. 2 vs 3).
//!
//! ```text
//! cargo run --release --example hybrid_stop_demo
//! ```

use orbit::comm::Cluster;
use orbit::core::{
    DataParallelEngine, Engine, EngineSpec, HybridStopEngine, ParallelLayout, TrainOptions,
};
use orbit::tensor::init::Rng;
use orbit::tensor::kernels::AdamW;
use orbit::vit::loss::lat_weights;
use orbit::vit::{Batch, VitConfig, VitModel};

fn make_batch(cfg: &VitConfig, n: usize) -> Batch {
    let mut rng = Rng::seed(9);
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

fn main() {
    let cfg = VitConfig::ladder(0, 8);
    let batch = make_batch(&cfg, 8);
    let opt = AdamW::default();
    let steps = 3;

    // Single-device reference.
    let weights = lat_weights(cfg.dims.img_h);
    let mut reference = VitModel::init(cfg, 42);
    let mut state = reference.init_adam_state();
    let ref_losses: Vec<f32> = (0..steps)
        .map(|_| reference.train_step(&batch, &weights, &opt, &mut state))
        .collect();
    println!("single-device reference losses: {ref_losses:?}");

    // Hybrid-STOP on 8 simulated GPUs: tp=2 (in-node), fsdp=2 (cross-node),
    // ddp=2 (sub-clusters) — every level of paper Fig. 4 active at once.
    let layout = ParallelLayout::new(2, 2, 2);
    let results = Cluster::frontier().run(layout.world(), |ctx| {
        let mut engine = HybridStopEngine::new(ctx, layout, cfg, opt, TrainOptions::none(), 42)
            .expect("engine fits");
        let losses: Vec<f32> = (0..steps)
            .map(|_| engine.train_step(ctx, &batch).expect("step").loss)
            .collect();
        (losses, ctx.device.peak(), ctx.clock.now())
    });
    let (hs_losses, hs_peak, sim_t) = &results[0];
    println!("hybrid-STOP (tp=2,fsdp=2,ddp=2)     : {hs_losses:?}");
    println!(
        "  per-GPU peak memory: {:.2} MB, simulated time: {:.3} s",
        *hs_peak as f64 / 1e6,
        sim_t
    );
    for (a, b) in hs_losses.iter().zip(&ref_losses) {
        assert!(
            (a - b).abs() < 1e-3 * b.abs().max(1.0),
            "distributed != reference"
        );
    }
    println!("  losses match the reference (paper Eqns. (2)/(3) verified)");

    // Vanilla FSDP on 4 GPUs for the memory contrast.
    let fsdp_peak = Cluster::frontier().run(4, |ctx| {
        let mut engine =
            DataParallelEngine::new(ctx, EngineSpec::Fsdp, cfg, opt, TrainOptions::none(), 42)
                .unwrap();
        engine.train_step(ctx, &batch).unwrap();
        ctx.device.peak()
    })[0];
    let hs4_peak = Cluster::frontier().run(4, |ctx| {
        let mut engine = HybridStopEngine::new(
            ctx,
            ParallelLayout::new(2, 2, 1),
            cfg,
            opt,
            TrainOptions::all_on(),
            42,
        )
        .unwrap();
        engine.train_step(ctx, &batch).unwrap();
        ctx.device.peak()
    })[0];
    println!(
        "\npeak memory on 4 GPUs: vanilla FSDP {:.2} MB vs Hybrid-STOP (all opts) {:.2} MB",
        fsdp_peak as f64 / 1e6,
        hs4_peak as f64 / 1e6
    );
    assert!(
        hs4_peak < fsdp_peak,
        "Hybrid-STOP must beat vanilla FSDP's peak"
    );
    println!("Hybrid-STOP avoids the full-model gather: lower peak, as in paper Fig. 3");
}
