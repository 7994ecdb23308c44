//! The data-parallel engine: single-device, DDP and vanilla FSDP (the
//! paper's Fig. 2 baselines) as one engine.
//!
//! All three train one full model replica per rank over a one-axis `dp`
//! mesh and differ only in where the persistent parameters live. The
//! [`EngineSpec`] picks the [`Layout`]:
//!
//! | spec | mesh | parameters, gradients and Adam moments |
//! |---|---|---|
//! | `Single` | 1 rank | `Replicate` |
//! | `Ddp` | the world | `Replicate` |
//! | `Fsdp` | the world | `ShardFlat`, `1/N` per rank |
//!
//! Every step is the same four moves: reshard the parameters to
//! `Replicate` (free when replicated; FSDP's full-model all-gather and the
//! Fig. 2 peak-memory spike when sharded), run the shared microbatch
//! pass, resolve the `Partial` gradient sum to the parameter layout (an
//! all-reduce for `Replicate`, a reduce-scatter for `ShardFlat`), and
//! step AdamW on the local slice. A one-rank mesh has no process group,
//! so the single-device engine issues no collective at all.

use crate::dcomm::{comm_err, AxisComm};
use crate::stats::StepStats;
use orbit_comm::{Allocation, CommError, OomError, ProcessGroup, RankCtx, SimError};
use orbit_frontier::TrainOptions;
use orbit_tensor::dtensor::{flat_shard, padded_len, DTensor, DeviceMesh, Layout};
use orbit_tensor::kernels::{AdamState, AdamW};
use orbit_tensor::Tensor;
use orbit_vit::{config_fingerprint, Batch, Checkpoint, ShardData, VitConfig, VitModel};

use super::trainer::{configure_precision, norm, Trainer};
use super::{Engine, EngineSpec};

/// The data-parallel mesh axis.
const AXIS: &str = "dp";

/// Single-device, DDP or vanilla FSDP, by parameter layout (see the
/// module docs).
pub struct DataParallelEngine {
    /// Compute structure, and the home of the parameters when they are
    /// replicated. A sharded engine reloads it from the all-gather before
    /// every step and predict.
    pub model: VitModel,
    /// The one-axis `dp` mesh.
    mesh: DeviceMesh,
    /// This rank's persistent `ShardFlat` parameter shard, or `None` when
    /// the parameters are replicated: the model's own parameters are then
    /// the replica, with no second copy.
    shard: Option<Vec<f32>>,
    param_len: usize,
    /// Adam moments, in the parameters' layout.
    state: AdamState,
    /// The mesh's process group; `None` on a one-rank mesh.
    group: Option<ProcessGroup>,
    trainer: Trainer,
    name: &'static str,
    _persistent: Allocation,
}

impl DataParallelEngine {
    /// Build the calling rank's part of the engine `spec` describes, which
    /// must be `Single`, `Ddp` or `Fsdp` (other specs panic). Every rank
    /// must pass the same `seed` so replicas start identical. Charges the
    /// persistent weights, gradients and Adam moments of the local slice.
    pub fn new(
        ctx: &RankCtx,
        spec: EngineSpec,
        mut cfg: VitConfig,
        opt: AdamW,
        opts: TrainOptions,
        seed: u64,
    ) -> Result<Self, OomError> {
        let (ranks, index, layout) = match spec {
            EngineSpec::Single => (1, 0, Layout::Replicate),
            EngineSpec::Ddp => (ctx.world, ctx.rank, Layout::Replicate),
            EngineSpec::Fsdp => (ctx.world, ctx.rank, Layout::ShardFlat),
            other => panic!("{} is not a data-parallel engine", other.name()),
        };
        configure_precision(&mut cfg, &opts);
        let mut model = VitModel::init(cfg, seed);
        let param_len = model.param_count();
        let shard = (layout == Layout::ShardFlat)
            .then(|| flat_shard(&model.flatten_params(), ranks, index));
        let local_len = shard.as_ref().map_or(param_len, Vec::len);
        let persistent = ctx.device.alloc(16 * local_len as u64)?;
        let group = (ranks > 1).then(|| {
            let mut group = ctx.world_group();
            if opts.mixed_precision {
                group.set_wire_bytes(2.0);
            }
            group
        });
        Ok(DataParallelEngine {
            trainer: Trainer::with_replicas(&cfg, opt, opts, index, ranks),
            model,
            mesh: DeviceMesh::one(AXIS, ranks, index),
            shard,
            param_len,
            state: AdamState::new(local_len),
            group,
            name: spec.name(),
            _persistent: persistent,
        })
    }

    fn layout(&self) -> Layout {
        if self.shard.is_some() {
            Layout::ShardFlat
        } else {
            Layout::Replicate
        }
    }

    /// This rank's slice of every vector in the parameters' layout, as
    /// `(index, count)` of the flat split: its `ShardFlat` shard when
    /// sharded, the whole vector (shard 0 of 1) when replicated.
    fn slice(&self) -> (usize, usize) {
        let axis = self.mesh.axis(AXIS).expect("dp axis");
        match self.shard {
            Some(_) => (axis.index, axis.size),
            None => (0, 1),
        }
    }

    /// A copy of this rank's slice of the parameters.
    fn local_params(&mut self) -> Vec<f32> {
        match &self.shard {
            Some(shard) => shard.clone(),
            None => self.model.flatten_params(),
        }
    }

    /// Reshard a vector in the parameters' layout (the parameters or an
    /// Adam moment) to the full `Replicate` vector. A slice that is the
    /// whole vector already is one.
    fn replicate(
        &mut self,
        ctx: &mut RankCtx,
        local: Vec<f32>,
        prefetch: bool,
    ) -> Result<Vec<f32>, CommError> {
        if self.slice().1 == 1 {
            return Ok(local);
        }
        let t = DTensor::from_local_shard(
            Tensor::from_vec(1, local.len(), local),
            self.mesh.clone(),
            AXIS,
            self.layout(),
            1,
            self.param_len,
        )
        .expect("the slice is in the parameters' layout");
        let mut comm = AxisComm::new(self.group.as_mut(), &mut ctx.clock);
        Ok(
            t.reshard_start(AXIS, Layout::Replicate, &mut comm, prefetch)
                .map_err(comm_err)?
                .wait(&mut comm)
                .map_err(comm_err)?
                .into_local()
                .into_vec(),
        )
    }

    /// This rank's slice of a full vector, in the parameters' layout.
    fn localize(&self, full: &[f32]) -> Vec<f32> {
        let (index, count) = self.slice();
        flat_shard(full, count, index)
    }

    /// Gather and return the current full parameter vector.
    pub fn gather_full_params(&mut self, ctx: &mut RankCtx) -> Result<Vec<f32>, CommError> {
        let local = self.local_params();
        self.replicate(ctx, local, false)
    }

    /// A transient buffer the size of the whole (padded) model.
    fn full_buffer(&self, ctx: &RankCtx) -> Result<Allocation, OomError> {
        let ranks = self.mesh.axis(AXIS).expect("dp axis").size;
        let len = padded_len(self.param_len, ranks) as u64;
        ctx.device.alloc(len * self.trainer.param_bytes())
    }

    /// Bring the parameters to `Replicate` in the model. Replicated
    /// parameters already live there, so this is free. Sharded ones are
    /// all-gathered into a transient full-model buffer — the vanilla-FSDP
    /// peak of Fig. 2 — which the caller holds until its compute is done.
    fn replicate_params(
        &mut self,
        ctx: &mut RankCtx,
        prefetch: bool,
    ) -> Result<Option<Allocation>, SimError> {
        let Some(shard) = &self.shard else {
            return Ok(None);
        };
        let local = shard.clone();
        let buffer = self.full_buffer(ctx)?;
        let full = self.replicate(ctx, local, prefetch)?;
        self.model.load_flat_params(&full);
        Ok(Some(buffer))
    }
}

impl Engine for DataParallelEngine {
    /// One step over the global batch: each rank trains on its round-robin
    /// slice, then the gradients resolve to the parameter layout.
    fn train_step(&mut self, ctx: &mut RankCtx, global: &Batch) -> Result<StepStats, SimError> {
        let local = self.trainer.partition(global);
        let t0 = ctx.clock.now();
        let layout = self.layout();
        let sharded = layout == Layout::ShardFlat;

        // 1. Parameters to `Replicate`; a sharded step also holds a
        //    full-size gradient buffer.
        let _gathered = self.replicate_params(ctx, self.trainer.opts.prefetch)?;
        let dims = self.model.cfg.dims;
        let _act = self.trainer.alloc_activations(ctx, &dims, local.len())?;
        let _grad_buffer = sharded.then(|| self.full_buffer(ctx)).transpose()?;

        // 2. Forward and backward. Per-sample gradients are already scaled
        //    by 1/global_batch, so the `Partial` sum is the global mean.
        let local_loss = self
            .trainer
            .microbatch_pass(&mut self.model, &local, global.len());
        self.trainer
            .charge_compute(ctx, local.len(), self.trainer.dense_flops_per_obs(&dims));
        ctx.clock.flush_prefetch();

        // 3. `Partial` gradients to the parameter layout. A sharded
        //    reduce-scatter stays in flight under the loss all-reduce; a
        //    replicated all-reduce completes first.
        let mut comm = AxisComm::new(self.group.as_mut(), &mut ctx.clock);
        let pending = DTensor::partial(
            Tensor::from_vec(1, self.param_len, self.model.flatten_grads()),
            self.mesh.clone(),
            AXIS,
        )
        .expect("dp axis")
        .reshard_start(AXIS, layout, &mut comm, false)
        .map_err(comm_err)?;
        let (loss, grads) = if sharded {
            let loss = comm.all_reduce_scalar(local_loss)?;
            (loss, pending.wait(&mut comm).map_err(comm_err)?)
        } else {
            let grads = pending.wait(&mut comm).map_err(comm_err)?;
            (comm.all_reduce_scalar(local_loss)?, grads)
        };
        let mut grads = grads.into_local().into_vec();

        // 4. AdamW on the local slice. Sharded gradients differ per rank,
        //    so their finiteness is voted across the group; replicated
        //    ones are identical everywhere and decide locally.
        let applied = match self.group.as_mut().filter(|_| sharded) {
            Some(group) => self
                .trainer
                .unscale_synced(&mut ctx.clock, group, &mut [&mut grads])?,
            None => self.trainer.unscale_local(&mut grads),
        };
        let grad_norm = norm(&grads);
        if applied {
            let opt = &self.trainer.opt;
            match &mut self.shard {
                Some(shard) => opt.step(&mut self.state, shard, &grads),
                None => {
                    let mut params = self.model.flatten_params();
                    opt.step(&mut self.state, &mut params, &grads);
                    self.model.load_flat_params(&params);
                }
            }
        }
        Ok(self.trainer.finish_step(ctx, t0, loss, grad_norm, applied))
    }

    /// Inference-only forward. Replicated parameters serve locally with
    /// no collective, so each DDP rank answers requests on its own (the
    /// serving layer's retry-on-surviving-replica relies on this). Sharded
    /// ones are all-gathered first, collectively: every rank must call with
    /// identical inputs, and each returns the full predictions.
    fn predict(
        &mut self,
        ctx: &mut RankCtx,
        inputs: &[Vec<Tensor>],
    ) -> Result<Vec<Vec<Tensor>>, SimError> {
        let _gathered = self.replicate_params(ctx, false)?;
        let dims = self.model.cfg.dims;
        let preds = self.model.predict_batch(inputs);
        self.trainer
            .charge_compute(ctx, inputs.len(), dims.forward_flops() as f64);
        Ok(preds)
    }

    /// Reshard parameters and Adam moments to `Replicate`: three
    /// all-gathers when sharded. A replicated capture is local, and a
    /// barrier keeps it collective (every rank reaches the same step
    /// before any of them persists state). Identical on every rank.
    fn capture_checkpoint(&mut self, ctx: &mut RankCtx) -> Result<Checkpoint, SimError> {
        if self.shard.is_none() {
            AxisComm::new(self.group.as_mut(), &mut ctx.clock).barrier()?;
        }
        let params = self.gather_full_params(ctx)?;
        let m = self.replicate(ctx, self.state.m.clone(), false)?;
        let v = self.replicate(ctx, self.state.v.clone(), false)?;
        Ok(
            Checkpoint::from_parts(&self.model.cfg, params, m, v, self.state.step)
                .with_scaler(self.trainer.scaler_state()),
        )
    }

    /// The gather-free fast path: when the requested slice is the one this
    /// rank already holds — its `ShardFlat` shard, or the whole replica as
    /// shard 0 of 1 — copy it out with **no collective at all**, which is
    /// what makes sharded checkpointing scale. Any other slicing gathers
    /// the full checkpoint and slices it.
    fn capture_shard(
        &mut self,
        ctx: &mut RankCtx,
        index: usize,
        count: usize,
    ) -> Result<ShardData, SimError> {
        if (index, count) != self.slice() {
            let ck = self.capture_checkpoint(ctx)?;
            return Ok(ShardData::from_checkpoint(&ck, index, count));
        }
        Ok(ShardData::from_local_shards(
            index,
            count,
            config_fingerprint(&self.model.cfg),
            self.state.step,
            self.trainer.scaler_state(),
            self.param_len,
            self.local_params(),
            self.state.m.clone(),
            self.state.v.clone(),
        ))
    }

    /// Slice the full checkpoint into the parameter layout. Shard padding
    /// is zero-filled, matching a freshly trained shard bit for bit (pad
    /// positions only ever see zero gradients, so AdamW keeps them at 0).
    fn restore_checkpoint(&mut self, ctx: &mut RankCtx, ck: &Checkpoint) -> Result<(), SimError> {
        if self.shard.is_none() {
            AxisComm::new(self.group.as_mut(), &mut ctx.clock).barrier()?;
        }
        ck.validate(&self.model.cfg)
            .map_err(|e| SimError::State(e.to_string()))?;
        if self.shard.is_some() {
            self.shard = Some(self.localize(&ck.params));
        }
        self.model.load_flat_params(&ck.params);
        self.state.m = self.localize(&ck.adam_m);
        self.state.v = self.localize(&ck.adam_v);
        self.state.step = ck.adam_step;
        self.trainer.restore_scaler(ck.scaler);
        self.trainer.restore_generation(ck.adam_step);
        Ok(())
    }

    fn generation(&self) -> u64 {
        self.trainer.generation()
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit_comm::Cluster;
    use orbit_tensor::init::Rng;
    use orbit_vit::loss::lat_weights;

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

    #[test]
    fn runs_and_reports() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 2, 1);
        let stats = Cluster::frontier().run(1, |ctx| {
            let mut e = DataParallelEngine::new(
                ctx,
                EngineSpec::Single,
                cfg,
                AdamW::default(),
                TrainOptions::none(),
                42,
            )
            .unwrap();
            e.train_step(ctx, &batch).unwrap()
        });
        assert!(stats[0].loss > 0.0);
        assert!(stats[0].sim_time > 0.0);
        assert!(stats[0].peak_mem > 0);
        assert!(stats[0].applied);
    }

    #[test]
    fn checkpointing_gives_same_loss_lower_memory() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 2, 1);
        let run = |ckpt: bool| {
            Cluster::frontier().run(1, |ctx| {
                let opts = TrainOptions {
                    activation_checkpointing: ckpt,
                    ..TrainOptions::none()
                };
                let mut e = DataParallelEngine::new(
                    ctx,
                    EngineSpec::Single,
                    cfg,
                    AdamW::default(),
                    opts,
                    42,
                )
                .unwrap();
                e.train_step(ctx, &batch).unwrap()
            })[0]
        };
        let with = run(true);
        let without = run(false);
        assert!((with.loss - without.loss).abs() < 1e-5);
        assert!(
            with.peak_mem < without.peak_mem,
            "{} !< {}",
            with.peak_mem,
            without.peak_mem
        );
        assert!(with.sim_time > without.sim_time, "recompute costs time");
    }

    #[test]
    fn matches_reference_train_step() {
        // The engine and the bare VitModel::train_step agree on losses.
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 2, 3);
        let w = lat_weights(cfg.dims.img_h);
        let opt = AdamW::default();
        let engine_losses = Cluster::frontier().run(1, |ctx| {
            let mut e = DataParallelEngine::new(
                ctx,
                EngineSpec::Single,
                cfg,
                opt,
                TrainOptions::none(),
                42,
            )
            .unwrap();
            (0..3)
                .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                .collect::<Vec<_>>()
        });
        let mut model = VitModel::init(cfg, 42);
        let mut state = model.init_adam_state();
        let ref_losses: Vec<f32> = (0..3)
            .map(|_| model.train_step(&batch, &w, &opt, &mut state))
            .collect();
        for (a, b) in engine_losses[0].iter().zip(&ref_losses) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let cfg = VitConfig::test_tiny();
        let result = Cluster::frontier().with_device_capacity(100).run(1, |ctx| {
            DataParallelEngine::new(
                ctx,
                EngineSpec::Single,
                cfg,
                AdamW::default(),
                TrainOptions::none(),
                1,
            )
            .err()
            .map(|e| e.capacity)
        });
        assert_eq!(result[0], Some(100));
        let _ = Tensor::zeros(1, 1);
    }

    #[test]
    fn ddp_matches_single_device_losses() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 4, 7);
        let opt = AdamW::default();
        let w = lat_weights(cfg.dims.img_h);

        let mut reference = VitModel::init(cfg, 42);
        let mut state = reference.init_adam_state();
        let ref_losses: Vec<f32> = (0..3)
            .map(|_| reference.train_step(&batch, &w, &opt, &mut state))
            .collect();

        for world in [1usize, 2, 4] {
            let results = Cluster::frontier().run(world, |ctx| {
                let mut e = DataParallelEngine::new(
                    ctx,
                    EngineSpec::Ddp,
                    cfg,
                    opt,
                    TrainOptions::none(),
                    42,
                )
                .unwrap();
                (0..3)
                    .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                    .collect::<Vec<_>>()
            });
            for losses in &results {
                for (a, b) in losses.iter().zip(&ref_losses) {
                    assert!(
                        (a - b).abs() < 5e-4 * b.abs().max(1.0),
                        "world={world}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn replicas_stay_in_sync() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 2, 9);
        let results = Cluster::frontier().run(2, |ctx| {
            let mut e = DataParallelEngine::new(
                ctx,
                EngineSpec::Ddp,
                cfg,
                AdamW::default(),
                TrainOptions::none(),
                1,
            )
            .unwrap();
            for _ in 0..2 {
                e.train_step(ctx, &batch).unwrap();
            }
            e.model.flatten_params()
        });
        assert_eq!(results[0], results[1], "replicas must remain bit-identical");
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn rejects_undividable_batch() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 3, 9);
        Cluster::frontier().run(2, |ctx| {
            let mut e = DataParallelEngine::new(
                ctx,
                EngineSpec::Ddp,
                cfg,
                AdamW::default(),
                TrainOptions::none(),
                1,
            )
            .unwrap();
            let _ = e.train_step(ctx, &batch);
        });
    }

    #[test]
    fn fsdp_matches_single_device() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 4, 11);
        let opt = AdamW::default();
        let w = lat_weights(cfg.dims.img_h);

        let mut reference = VitModel::init(cfg, 42);
        let mut state = reference.init_adam_state();
        let ref_losses: Vec<f32> = (0..3)
            .map(|_| reference.train_step(&batch, &w, &opt, &mut state))
            .collect();
        let ref_params = reference.flatten_params();

        let results = Cluster::frontier().run(4, |ctx| {
            let mut e =
                DataParallelEngine::new(ctx, EngineSpec::Fsdp, cfg, opt, TrainOptions::none(), 42)
                    .unwrap();
            let losses: Vec<f32> = (0..3)
                .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                .collect();
            let params = e.gather_full_params(ctx).unwrap();
            (losses, params)
        });
        for (losses, params) in &results {
            for (a, b) in losses.iter().zip(&ref_losses) {
                assert!((a - b).abs() < 5e-4 * b.abs().max(1.0), "{a} vs {b}");
            }
            // The sharded optimizer reproduces the reference parameters.
            for (a, b) in params.iter().zip(&ref_params) {
                assert!((a - b).abs() < 5e-4 * b.abs().max(1e-3), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn local_capture_shard_matches_checkpoint_slicing() {
        // The gather-free path must produce the same bytes as gathering
        // the full checkpoint and slicing this rank's shard out of it.
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 4, 7);
        let results = Cluster::frontier().run(4, |ctx| {
            let mut e = DataParallelEngine::new(
                ctx,
                EngineSpec::Fsdp,
                cfg,
                AdamW::default(),
                TrainOptions::none(),
                3,
            )
            .unwrap();
            e.train_step(ctx, &batch).unwrap();
            let ck = e.capture_checkpoint(ctx).unwrap();
            let local = e.capture_shard(ctx, ctx.rank, ctx.world).unwrap();
            (ck, local)
        });
        for (rank, (ck, local)) in results.iter().enumerate() {
            let sliced = ShardData::from_checkpoint(ck, rank, 4);
            assert_eq!(&sliced, local, "rank {rank}");
        }
    }

    #[test]
    fn peak_memory_shows_full_model_gather() {
        // Persistent state is 1/N but peak includes the full gather: with
        // 4 ranks, peak must far exceed persistent.
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 4, 1);
        let results = Cluster::frontier().run(4, |ctx| {
            let mut e = DataParallelEngine::new(
                ctx,
                EngineSpec::Fsdp,
                cfg,
                AdamW::default(),
                TrainOptions::none(),
                1,
            )
            .unwrap();
            let persistent = ctx.device.in_use();
            let stats = e.train_step(ctx, &batch).unwrap();
            (persistent, stats.peak_mem)
        });
        for (persistent, peak) in results {
            assert!(
                peak as f64 > persistent as f64 * 1.4,
                "peak {peak} should spike well above persistent {persistent}"
            );
        }
    }
}
