//! The shared training scaffold every engine delegates to.
//!
//! A [`Trainer`] owns the pieces that are identical across parallelism
//! strategies — the optimizer configuration, the [`GradScaler`], the
//! latitude loss weights, the performance [`Calibration`], and the data
//! replica coordinates — and provides the common step machinery: batch
//! partitioning, the per-sample forward/backward loop, mixed-precision
//! loss scaling and the cross-rank finiteness vote, simulated compute
//! charging, and [`StepStats`] assembly. Engine files keep only their
//! distinct shard layout and collective choreography.

use crate::scaler::GradScaler;
use crate::stats::StepStats;
use orbit_comm::{Allocation, CommError, OomError, ProcessGroup, RankCtx, SimClock};
use orbit_frontier::perfmodel::Calibration;
use orbit_frontier::{FrontierMachine, ModelDims, TrainOptions};
use orbit_tensor::kernels::AdamW;
use orbit_tensor::{Precision, Tensor};
use orbit_vit::loss::{lat_weights, weighted_mse, weighted_mse_grad};
use orbit_vit::{Batch, ScalerState, VitConfig, VitModel};

use super::{local_batch, sustained_flops};

/// Switch the model config to BF16 compute when mixed precision is
/// requested. Every engine applies this before `VitModel::init`.
pub(crate) fn configure_precision(cfg: &mut VitConfig, opts: &TrainOptions) {
    if opts.mixed_precision {
        cfg.precision = Precision::BF16Mixed;
    }
}

/// L2 norm of a flat gradient vector (f64 accumulation).
pub(crate) fn norm(v: &[f32]) -> f32 {
    v.iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt() as f32
}

/// Shared per-rank training scaffold (see module docs).
pub struct Trainer {
    /// Optimizer configuration, shared by every engine's update rule.
    pub opt: AdamW,
    /// The Table I feature switches.
    pub opts: TrainOptions,
    /// Dynamic loss scaler (active only under `opts.mixed_precision`).
    pub scaler: GradScaler,
    /// Latitude loss weights for the model's grid.
    pub(crate) lat_w: Vec<f32>,
    calib: Calibration,
    replica_id: usize,
    n_replicas: usize,
    /// Committed checkpoint generation the current weights came from
    /// (== the global step at commit); 0 for fresh initialization.
    generation: u64,
}

impl Trainer {
    /// Scaffold for an engine that sees the whole batch (one data replica).
    pub fn new(cfg: &VitConfig, opt: AdamW, opts: TrainOptions) -> Self {
        Self::with_replicas(cfg, opt, opts, 0, 1)
    }

    /// Scaffold for data replica `replica_id` of `n_replicas`.
    pub fn with_replicas(
        cfg: &VitConfig,
        opt: AdamW,
        opts: TrainOptions,
        replica_id: usize,
        n_replicas: usize,
    ) -> Self {
        assert!(replica_id < n_replicas);
        Trainer {
            opt,
            opts,
            scaler: GradScaler::default(),
            lat_w: lat_weights(cfg.dims.img_h),
            calib: Calibration::default(),
            replica_id,
            n_replicas,
            generation: 0,
        }
    }

    /// Replace the default performance calibration (e.g. to sweep MFU
    /// assumptions without recompiling).
    pub fn with_calibration(mut self, calib: Calibration) -> Self {
        self.calib = calib;
        self
    }

    /// This replica's slice of the global batch. Lockstep engines need
    /// every replica to run the same number of microbatches, so an even
    /// split is asserted here (unlike the raw [`local_batch`], which
    /// supports uneven remainders).
    pub fn partition(&self, global: &Batch) -> Batch {
        assert!(!global.is_empty());
        assert_eq!(
            global.len() % self.n_replicas,
            0,
            "global batch {} must divide by {} replicas",
            global.len(),
            self.n_replicas
        );
        local_batch(global, self.replica_id, self.n_replicas)
    }

    /// Loss-gradient multiplier: the scaler's factor under mixed precision,
    /// otherwise 1.
    pub fn loss_scale(&self) -> f32 {
        if self.opts.mixed_precision {
            self.scaler.scale()
        } else {
            1.0
        }
    }

    /// wMSE gradient w.r.t. predictions, scaled by `scale * loss_scale` —
    /// the backward entry point shared by every engine.
    pub(crate) fn loss_grad(
        &self,
        preds: &[Tensor],
        targets: &[Tensor],
        scale: f32,
    ) -> Vec<Tensor> {
        let mut d = weighted_mse_grad(preds, targets, &self.lat_w);
        let s = scale * self.loss_scale();
        for g in &mut d {
            g.scale(s);
        }
        d
    }

    /// Charge the standard (dense, un-sharded model) activation memory for
    /// `n_samples` in-flight samples.
    pub(crate) fn alloc_activations(
        &self,
        ctx: &RankCtx,
        dims: &ModelDims,
        n_samples: usize,
    ) -> Result<Allocation, OomError> {
        let act_floats = if self.opts.activation_checkpointing {
            dims.tokens() * dims.embed * (dims.layers + 2)
        } else {
            dims.tokens() * dims.embed * (8 * dims.layers + dims.channels)
        };
        ctx.device.alloc((n_samples * act_floats) as u64 * 4)
    }

    /// Forward + backward over `local`, accumulating per-sample gradients
    /// into the model, each scaled by `1 / global_n` (and the loss scale
    /// under mixed precision). Returns this replica's loss contribution,
    /// already scaled by `1 / global_n`.
    pub(crate) fn microbatch_pass(
        &self,
        model: &mut VitModel,
        local: &Batch,
        global_n: usize,
    ) -> f32 {
        model.zero_grads();
        let scale = 1.0 / global_n as f32;
        let mut loss = 0.0f32;
        for (images, targets) in local.inputs.iter().zip(&local.targets) {
            if self.opts.activation_checkpointing {
                let (preds, boundaries) = model.forward_ckpt(images);
                loss += weighted_mse(&preds, targets, &self.lat_w) * scale;
                let d = self.loss_grad(&preds, targets, scale);
                model.backward_ckpt(images, &boundaries, &d);
            } else {
                let fwd = model.forward(images);
                loss += weighted_mse(&fwd.preds, targets, &self.lat_w) * scale;
                let d = self.loss_grad(&fwd.preds, targets, scale);
                model.backward(&fwd, &d);
            }
        }
        loss
    }

    /// Extra FLOPs multiplier when activation checkpointing recomputes the
    /// forward pass during backward.
    pub(crate) fn recompute_factor(&self) -> f64 {
        if self.opts.activation_checkpointing {
            4.0 / 3.0
        } else {
            1.0
        }
    }

    /// Training FLOPs per observation for an engine executing the whole
    /// model (fwd + bwd, plus checkpoint recompute).
    pub(crate) fn dense_flops_per_obs(&self, dims: &ModelDims) -> f64 {
        dims.train_flops() as f64 * self.recompute_factor()
    }

    /// Sustained per-GPU throughput under the trainer's calibration.
    pub fn sustained(&self, machine: &FrontierMachine) -> f64 {
        sustained_flops(machine, &self.calib, self.opts.mixed_precision)
    }

    /// Charge simulated compute time for `n_obs` observations.
    pub(crate) fn charge_compute(&self, ctx: &mut RankCtx, n_obs: usize, flops_per_obs: f64) {
        let sustained = self.sustained(ctx.machine());
        ctx.clock
            .charge_compute(n_obs as f64 * flops_per_obs, sustained);
    }

    /// Bytes per parameter moved by gathers / transient buffers (bf16 on
    /// the wire under mixed precision).
    pub(crate) fn param_bytes(&self) -> u64 {
        if self.opts.mixed_precision {
            2
        } else {
            4
        }
    }

    /// Mixed-precision epilogue for engines whose (all-reduced or local)
    /// gradients are identical on every participating rank: un-scale in
    /// place, decide finiteness locally, and update the scaler. Returns
    /// whether the optimizer step should run. No-op (`true`) outside mixed
    /// precision.
    pub(crate) fn unscale_local(&mut self, grads: &mut [f32]) -> bool {
        if !self.opts.mixed_precision {
            return true;
        }
        self.scaler.unscale_and_check(grads)
    }

    /// Mixed-precision epilogue for sharded gradients: un-scale every shard
    /// in place, agree on finiteness across `group` (any rank voting
    /// non-finite skips the step everywhere), and update the scaler.
    /// No-op (`true`) outside mixed precision — no collective is issued.
    pub(crate) fn unscale_synced(
        &mut self,
        clock: &mut SimClock,
        group: &mut ProcessGroup,
        shards: &mut [&mut [f32]],
    ) -> Result<bool, CommError> {
        if !self.opts.mixed_precision {
            return Ok(true);
        }
        let inv = 1.0 / self.scaler.scale();
        let mut nonfinite = 0.0f32;
        for shard in shards.iter_mut() {
            for g in shard.iter_mut() {
                *g *= inv;
                if !g.is_finite() {
                    nonfinite = 1.0;
                }
            }
        }
        let total = group.all_reduce_scalar(clock, nonfinite)?;
        let applied = total == 0.0;
        self.scaler.update(applied);
        Ok(applied)
    }

    /// Dynamic scaler state to attach to a checkpoint: `Some` only under
    /// mixed precision (other runs have no scale schedule to resume).
    pub(crate) fn scaler_state(&self) -> Option<ScalerState> {
        self.opts.mixed_precision.then(|| ScalerState {
            scale: self.scaler.scale(),
            clean_steps: self.scaler.clean_steps(),
            skipped_steps: self.scaler.skipped_steps,
        })
    }

    /// Resume the scale schedule recorded in a checkpoint, if any.
    pub(crate) fn restore_scaler(&mut self, state: Option<ScalerState>) {
        if let Some(s) = state {
            self.scaler
                .restore_state(s.scale, s.clean_steps, s.skipped_steps);
        }
    }

    /// Record the generation of the checkpoint the engine just restored
    /// (its `adam_step`, the global step it was captured at).
    /// [`Engine::generation`] reports it so the
    /// serving layer can tag predictions for cache invalidation.
    ///
    /// [`Engine::generation`]: super::Engine::generation
    pub(crate) fn restore_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// The committed generation of the current weights (0 = fresh init).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Assemble the step statistics every engine returns.
    pub(crate) fn finish_step(
        &self,
        ctx: &RankCtx,
        t0: f64,
        loss: f32,
        grad_norm: f32,
        applied: bool,
    ) -> StepStats {
        StepStats {
            loss,
            grad_norm,
            sim_time: ctx.clock.now() - t0,
            peak_mem: ctx.device.peak(),
            applied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trainer(opts: TrainOptions) -> Trainer {
        Trainer::new(&VitConfig::test_tiny(), AdamW::default(), opts)
    }

    #[test]
    fn loss_scale_is_identity_without_mixed_precision() {
        assert_eq!(trainer(TrainOptions::none()).loss_scale(), 1.0);
        let t = trainer(TrainOptions {
            mixed_precision: true,
            ..TrainOptions::none()
        });
        assert_eq!(t.loss_scale(), t.scaler.scale());
    }

    #[test]
    fn unscale_local_without_mixed_is_a_no_op() {
        let mut t = trainer(TrainOptions::none());
        let mut g = vec![f32::INFINITY];
        assert!(t.unscale_local(&mut g), "non-mixed never skips");
        assert!(g[0].is_infinite(), "gradients untouched");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn partition_rejects_uneven_batches() {
        let t = Trainer::with_replicas(
            &VitConfig::test_tiny(),
            AdamW::default(),
            TrainOptions::none(),
            0,
            2,
        );
        let g = Batch {
            inputs: vec![vec![Tensor::zeros(2, 2)]; 3],
            targets: vec![vec![Tensor::zeros(2, 2)]; 3],
        };
        let _ = t.partition(&g);
    }
}
