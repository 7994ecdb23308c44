//! Cross-validation between the analytic Frontier model (used for the
//! at-scale Table I / Figs. 5-7 numbers) and the executable simulator:
//! where both can observe the same phenomenon at small scale, they must
//! agree on its *direction*.

use orbit::comm::Cluster;
use orbit::core::{
    DataParallelEngine, Engine, EngineSpec, HybridStopEngine, ParallelLayout, TrainOptions,
};
use orbit::frontier::{PerfModel, Strategy};
use orbit::tensor::init::Rng;
use orbit::tensor::kernels::AdamW;
use orbit::vit::{Batch, VitConfig};

fn make_batch(cfg: &VitConfig, n: usize) -> Batch {
    let mut rng = Rng::seed(13);
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

fn cfg() -> VitConfig {
    VitConfig::ladder(0, 8)
}

/// Run Hybrid-STOP at a layout and return (peak_mem, sim_time) of rank 0.
fn run_hs(layout: ParallelLayout, opts: TrainOptions, batch: &Batch) -> (u64, f64) {
    let results = Cluster::frontier().run(layout.world(), |ctx| {
        let mut e = HybridStopEngine::new(ctx, layout, cfg(), AdamW::default(), opts, 42).unwrap();
        let s = e.train_step(ctx, batch).unwrap();
        (s.peak_mem, s.sim_time)
    });
    results[0]
}

#[test]
fn both_agree_layer_wrapping_reduces_peak_memory() {
    let batch = make_batch(&cfg(), 4);
    let layout = ParallelLayout::new(2, 2, 1);
    let wrapped_opts = TrainOptions {
        layer_wrapping: true,
        ..TrainOptions::none()
    };
    // Simulator.
    let (peak_wrapped, _) = run_hs(layout, wrapped_opts, &batch);
    let (peak_unwrapped, _) = run_hs(layout, TrainOptions::none(), &batch);
    assert!(
        peak_wrapped < peak_unwrapped,
        "simulator: {peak_wrapped} !< {peak_unwrapped}"
    );
    // Analytic model (at paper scale).
    let pm = PerfModel::default();
    let dims = orbit::frontier::ModelDims::orbit_113b(48);
    let big = ParallelLayout::new(8, 64, 1);
    let m_wrapped = pm.memory(&dims, &big, Strategy::HybridStop, &wrapped_opts, 2);
    let m_unwrapped = pm.memory(&dims, &big, Strategy::HybridStop, &TrainOptions::none(), 2);
    assert!(m_wrapped.gather < m_unwrapped.gather);
}

#[test]
fn both_agree_hybrid_stop_beats_fsdp_peak() {
    let batch = make_batch(&cfg(), 4);
    // Simulator at world 4.
    let fsdp_peak = Cluster::frontier().run(4, |ctx| {
        let mut e = DataParallelEngine::new(
            ctx,
            EngineSpec::Fsdp,
            cfg(),
            AdamW::default(),
            TrainOptions::none(),
            42,
        )
        .unwrap();
        e.train_step(ctx, &batch).unwrap().peak_mem
    })[0];
    let (hs_peak, _) = run_hs(
        ParallelLayout::new(2, 2, 1),
        TrainOptions {
            layer_wrapping: true,
            ..TrainOptions::none()
        },
        &batch,
    );
    assert!(hs_peak < fsdp_peak, "simulator: {hs_peak} !< {fsdp_peak}");
    // Analytic model.
    let pm = PerfModel::default();
    let dims = orbit::frontier::ModelDims::orbit_113b(48);
    let opts = TrainOptions::all_on();
    let vanilla = TrainOptions {
        layer_wrapping: false,
        ..opts
    };
    let m_fsdp = pm.memory(
        &dims,
        &ParallelLayout::new(1, 512, 1),
        Strategy::Fsdp,
        &vanilla,
        2,
    );
    let m_hs = pm.memory(
        &dims,
        &ParallelLayout::new(8, 64, 1),
        Strategy::HybridStop,
        &opts,
        2,
    );
    assert!(m_hs.total() < m_fsdp.total());
}

#[test]
fn both_agree_mixed_precision_cuts_compute_and_comm() {
    // At toy scale the simulated collectives are latency-dominated, so
    // total step time barely moves — but BF16 must strictly reduce both
    // the modeled compute seconds and the bandwidth component of comm.
    let batch = make_batch(&cfg(), 4);
    let layout = ParallelLayout::new(2, 2, 1);
    let mixed = TrainOptions {
        layer_wrapping: true,
        mixed_precision: true,
        ..TrainOptions::none()
    };
    let plain = TrainOptions {
        layer_wrapping: true,
        ..TrainOptions::none()
    };
    let run_parts = |opts: TrainOptions| {
        Cluster::frontier().run(layout.world(), |ctx| {
            let mut e =
                HybridStopEngine::new(ctx, layout, cfg(), AdamW::default(), opts, 42).unwrap();
            e.train_step(ctx, &batch).unwrap();
            (ctx.clock.compute_seconds(), ctx.clock.comm_seconds())
        })[0]
    };
    let (c_mixed, m_mixed) = run_parts(mixed);
    let (c_plain, m_plain) = run_parts(plain);
    assert!(
        c_mixed < 0.6 * c_plain,
        "simulator compute: {c_mixed} !< {c_plain}"
    );
    assert!(m_mixed < m_plain, "simulator comm: {m_mixed} !< {m_plain}");
    // Analytic model at paper scale agrees.
    let pm = PerfModel::default();
    let dims = orbit::frontier::ModelDims::orbit_113b(48);
    let big = ParallelLayout::new(8, 64, 1);
    let st_mixed = pm.step_time(&dims, &big, Strategy::HybridStop, &mixed, 2);
    let st_plain = pm.step_time(&dims, &big, Strategy::HybridStop, &plain, 2);
    assert!(st_mixed.compute < st_plain.compute);
    assert!(st_mixed.total() < st_plain.total());
}

#[test]
fn both_agree_sharding_reduces_persistent_memory_proportionally() {
    // Doubling the total shard count should roughly halve persistent
    // state in both views.
    let batch = make_batch(&cfg(), 8);
    let (p2, _) = run_hs(ParallelLayout::new(2, 1, 1), TrainOptions::none(), &batch);
    let (p4, _) = run_hs(ParallelLayout::new(2, 2, 1), TrainOptions::none(), &batch);
    // Peaks include activations (same in both), so only expect a drop.
    assert!(p4 < p2, "simulator: {p4} !< {p2}");
    let pm = PerfModel::default();
    let dims = orbit::frontier::ModelDims::orbit_113b(48);
    let m2 = pm.memory(
        &dims,
        &ParallelLayout::new(8, 32, 1),
        Strategy::HybridStop,
        &TrainOptions::all_on(),
        2,
    );
    let m4 = pm.memory(
        &dims,
        &ParallelLayout::new(8, 64, 1),
        Strategy::HybridStop,
        &TrainOptions::all_on(),
        2,
    );
    let ratio = m2.persistent as f64 / m4.persistent as f64;
    assert!(
        (ratio - 2.0).abs() < 0.05,
        "analytic persistent ratio {ratio}"
    );
}

#[test]
fn simulated_comm_time_tracks_analytic_collective_formulas() {
    // The simulator's clock charges the same ring formulas the analytic
    // model uses, so an isolated collective must agree almost exactly.
    use orbit::frontier::{FrontierMachine, LinkKind};
    let machine = FrontierMachine::default();
    let n = 1 << 16;
    let expect = machine.reduce_scatter_time(4, n as u64 * 4, LinkKind::IntraNode);
    let results = Cluster::new(machine).run(4, |ctx| {
        let mut g = ctx.world_group();
        let mut clock = std::mem::take(&mut ctx.clock);
        let buf = vec![1.0f32; n];
        let _ = g.reduce_scatter(&mut clock, &buf);
        clock.now()
    });
    for t in results {
        assert!(
            (t - expect).abs() < 0.05 * expect,
            "simulated {t} vs analytic {expect}"
        );
    }
}
