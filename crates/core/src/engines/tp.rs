//! Megatron-style tensor parallelism (the paper's Sec. II baseline).
//!
//! Block weights are permanently sharded across the tensor-parallel group
//! (columns of Wq/Wk/Wv/W1 — i.e. a slice of heads and MLP hidden units —
//! rows of Wo/W2); activations are summed by all-reduce every sub-layer.
//! All ranks process the *same* data (one model replica). Scalability is
//! capped by the attention head count — the limitation Hybrid-STOP removes.

use crate::dcomm::{comm_err, GroupComm};
use crate::stats::StepStats;
use crate::tp_block::TpBlock;
use orbit_comm::{Allocation, CommError, ProcessGroup, RankCtx, SimClock, SimError};
use orbit_frontier::TrainOptions;
use orbit_tensor::dtensor::{DTensor, Layout};
use orbit_tensor::kernels::{AdamState, AdamW};
use orbit_tensor::Tensor;
use orbit_vit::block::Param;
use orbit_vit::loss::weighted_mse;
use orbit_vit::{Batch, Checkpoint, VitConfig, VitModel};

use super::trainer::{configure_precision, norm, Trainer};
use super::Engine;

/// Flatten a TpBlock's parameter values in visit order.
pub(crate) fn tp_flatten(block: &mut TpBlock) -> Vec<f32> {
    let mut out = Vec::new();
    block.visit_params("", &mut |_, p: &mut Param| {
        out.extend_from_slice(p.value.data())
    });
    out
}

/// Flatten a TpBlock's gradients in visit order.
pub(crate) fn tp_flatten_grads(block: &mut TpBlock) -> Vec<f32> {
    let mut out = Vec::new();
    block.visit_params("", &mut |_, p: &mut Param| {
        out.extend_from_slice(p.grad.data())
    });
    out
}

/// Load a TpBlock's parameter values from a flat vector in visit order.
pub(crate) fn tp_load(block: &mut TpBlock, flat: &[f32]) {
    let mut off = 0;
    block.visit_params("", &mut |_, p: &mut Param| {
        let n = p.len();
        p.value.data_mut().copy_from_slice(&flat[off..off + n]);
        off += n;
    });
    assert_eq!(off, flat.len(), "flat length mismatch");
}

/// Load a TpBlock's gradients from a flat vector in visit order.
pub(crate) fn tp_load_grads(block: &mut TpBlock, flat: &[f32]) {
    let mut off = 0;
    block.visit_params("", &mut |_, p: &mut Param| {
        let n = p.len();
        p.grad.data_mut().copy_from_slice(&flat[off..off + n]);
        off += n;
    });
    assert_eq!(off, flat.len(), "flat length mismatch");
}

/// All-reduce the QK-norm parameter gradients across the tensor-parallel
/// group: each rank only saw its local heads, and the parameters are
/// shared across heads.
pub(crate) fn sync_qk_grads(
    block: &mut TpBlock,
    tp_group: &mut ProcessGroup,
    clock: &mut SimClock,
) -> Result<(), CommError> {
    if tp_group.size() <= 1 {
        return Ok(());
    }
    let mesh = block.mesh.clone();
    if let Some(qk) = block.qk.as_mut() {
        for p in qk.iter_mut() {
            let partial = DTensor::partial(p.grad.clone(), mesh.clone(), "tp").expect("tp axis");
            let mut comm = GroupComm::new(tp_group, clock);
            p.grad = partial
                .reshard("tp", Layout::Replicate, &mut comm)
                .map_err(comm_err)?
                .into_local();
        }
    }
    Ok(())
}

/// Reassemble a full transformer block's flat parameters (reference visit
/// order) from all TP ranks' shard blocks.
pub(crate) fn reassemble_block(shards: &mut [TpBlock]) -> Vec<f32> {
    let tp = shards.len();
    // Collect (name, value) per shard in visit order.
    let mut per_shard: Vec<Vec<(String, Tensor)>> = Vec::with_capacity(tp);
    for s in shards.iter_mut() {
        let mut entries = Vec::new();
        s.visit_params("", &mut |name: &str, p: &mut Param| {
            entries.push((name.to_string(), p.value.clone()));
        });
        per_shard.push(entries);
    }
    let n_tensors = per_shard[0].len();
    let mut out = Vec::new();
    for t in 0..n_tensors {
        let name = per_shard[0][t].0.clone();
        let parts: Vec<&Tensor> = per_shard.iter().map(|s| &s[t].1).collect();
        let full = if TpBlock::is_replicated(&name) {
            parts[0].clone()
        } else if name.ends_with(".wo") || name.ends_with(".w2") {
            Tensor::concat_rows(&parts)
        } else {
            // Column-sharded: wq/bq/wk/bk/wv/bv/w1/b1.
            Tensor::concat_cols(&parts)
        };
        out.extend_from_slice(full.data());
    }
    out
}

/// Assemble a reference-ordered full flat vector from TP-sharded pieces:
/// `front_flat` is the replicated front-end/head flat (visit order: front
/// then head), `block_flats[l]` is this rank's TP-shard flat for block `l`.
/// All-gathers each block across the TP group, reassembles the column/row
/// shards into full matrices, and splices the head back after the blocks
/// (reference order). The same routine serves parameters and Adam moments
/// — any vector laid out like the parameters. Result is identical on every
/// rank.
pub(crate) fn assemble_reference(
    cfg: &VitConfig,
    blocks: &[TpBlock],
    tp_group: &mut ProcessGroup,
    clock: &mut SimClock,
    front_flat: &[f32],
    block_flats: &[Vec<f32>],
) -> Result<Vec<f32>, CommError> {
    let d = cfg.dims;
    let out_c = d.out_channels * d.patch * d.patch;
    let head_len = d.embed * out_c + out_c;
    let pre_len = front_flat.len() - head_len;
    let tp = tp_group.size();
    let mut full = Vec::new();
    full.extend_from_slice(&front_flat[..pre_len]);
    for (l, flat) in block_flats.iter().enumerate() {
        let all_tp = tp_group.all_gather(clock, flat)?;
        let shard_len = flat.len();
        // Load each TP rank's flat into a scratch TpBlock to recover
        // tensor shapes, then reassemble the full block tensors.
        let mut scratch: Vec<TpBlock> = (0..tp).map(|_| blocks[l].clone()).collect();
        for (k, s) in scratch.iter_mut().enumerate() {
            tp_load(s, &all_tp[k * shard_len..(k + 1) * shard_len]);
        }
        full.extend(reassemble_block(&mut scratch));
    }
    full.extend_from_slice(&front_flat[pre_len..]);
    Ok(full)
}

/// The inverse of [`assemble_reference`]: re-shard a reference-ordered full
/// flat vector into this TP rank's local layout. Returns the front
/// flat (front-end + head, visit order) and one TP-shard flat per block.
/// Pure slicing/permutation of the input values, so restoring into the
/// same layout that captured a checkpoint is bit-exact.
pub(crate) fn reshard_reference(
    cfg: &VitConfig,
    tp: usize,
    tp_idx: usize,
    full: &[f32],
) -> (Vec<f32>, Vec<Vec<f32>>) {
    // A scratch reference model recovers tensor shapes; every value is
    // overwritten by `full` before slicing.
    let mut reference = VitModel::init(*cfg, 0);
    reference.load_flat_params(full);
    let block_flats: Vec<Vec<f32>> = reference
        .blocks
        .iter()
        .map(|b| {
            let mut tb = TpBlock::from_reference(b, tp, tp_idx);
            tp_flatten(&mut tb)
        })
        .collect();
    let mut front = reference;
    front.blocks = Vec::new();
    (front.flatten_params(), block_flats)
}

/// Pure tensor parallelism over the world group (one model replica).
pub struct TensorParallelEngine {
    /// Front-end + head (replicated on every rank; `blocks` is empty).
    pub front: VitModel,
    /// This rank's tensor-parallel block shards.
    pub blocks: Vec<TpBlock>,
    tp_group: ProcessGroup,
    state: AdamState,
    trainer: Trainer,
    tp: usize,
    _persistent: Allocation,
}

impl TensorParallelEngine {
    /// Build rank `ctx.rank`'s shard; the whole world is one TP group.
    /// Requires `world` to divide the head count.
    pub fn new(
        ctx: &RankCtx,
        mut cfg: VitConfig,
        opt: AdamW,
        opts: TrainOptions,
        seed: u64,
    ) -> Result<Self, orbit_comm::OomError> {
        configure_precision(&mut cfg, &opts);
        let tp = ctx.world;
        let reference = VitModel::init(cfg, seed);
        let blocks: Vec<TpBlock> = reference
            .blocks
            .iter()
            .map(|b| TpBlock::from_reference(b, tp, ctx.rank))
            .collect();
        let mut front = reference;
        front.blocks = Vec::new();
        let mut n = front.param_count() as u64;
        for b in &blocks {
            let mut b = b.clone();
            n += tp_flatten(&mut b).len() as u64;
        }
        let persistent = ctx.device.alloc(16 * n)?;
        let state = AdamState::new(n as usize);
        let mut tp_group = ctx.world_group();
        if opts.mixed_precision {
            tp_group.set_wire_bytes(2.0);
        }
        Ok(TensorParallelEngine {
            tp_group,
            trainer: Trainer::new(&cfg, opt, opts),
            front,
            blocks,
            state,
            tp,
            _persistent: persistent,
        })
    }

    fn flatten_all(&mut self) -> (Vec<f32>, Vec<f32>) {
        let mut params = self.front.flatten_params();
        let mut grads = self.front.flatten_grads();
        for b in &mut self.blocks {
            params.extend(tp_flatten(b));
            grads.extend(tp_flatten_grads(b));
        }
        (params, grads)
    }

    fn load_all(&mut self, params: &[f32]) {
        let front_len = {
            let mut n = 0;
            self.front.visit_params(&mut |_, p| n += p.len());
            n
        };
        self.front.load_flat_params(&params[..front_len]);
        let mut off = front_len;
        for b in &mut self.blocks {
            let len = {
                let mut n = 0;
                b.visit_params("", &mut |_, p: &mut Param| n += p.len());
                n
            };
            tp_load(b, &params[off..off + len]);
            off += len;
        }
    }
}

impl Engine for TensorParallelEngine {
    /// One training step; every rank receives the same (whole) batch.
    fn train_step(&mut self, ctx: &mut RankCtx, batch: &Batch) -> Result<StepStats, SimError> {
        assert!(!batch.is_empty());
        let dims = self.front.cfg.dims;
        let t0 = ctx.clock.now();
        // Activations: wide intermediates sharded /tp, residual replicated.
        let act_floats = dims.tokens()
            * dims.embed
            * (6 * dims.layers / self.tp + 2 * dims.layers + dims.channels);
        let _act = ctx.device.alloc((batch.len() * act_floats) as u64 * 4)?;

        self.front.zero_grads();
        for b in &mut self.blocks {
            b.zero_grads();
        }
        let scale = 1.0 / batch.len() as f32;
        let mut loss = 0.0f32;
        for (images, targets) in batch.inputs.iter().zip(&batch.targets) {
            let (x0, front_cache) = self.front.front_forward(images);
            let mut x = x0;
            let mut caches = Vec::with_capacity(self.blocks.len());
            for b in &self.blocks {
                let (y, c) = b.forward(&x, &mut self.tp_group, &mut ctx.clock)?;
                caches.push(c);
                x = y;
            }
            let preds = self.front.head_forward(&x);
            loss += weighted_mse(&preds, targets, &self.trainer.lat_w) * scale;
            let d = self.trainer.loss_grad(&preds, targets, scale);
            let mut dy = self.front.head_backward(&x, &d);
            for (b, c) in self.blocks.iter_mut().zip(caches.iter()).rev() {
                dy = b.backward(c, &dy, &mut self.tp_group, &mut ctx.clock)?;
            }
            self.front.front_backward(&front_cache, &dy);
        }
        // QK-norm grads are partial per head slice: sum across the group.
        for b in &mut self.blocks {
            sync_qk_grads(b, &mut self.tp_group, &mut ctx.clock)?;
        }
        // Compute: this rank executed ~1/tp of the block FLOPs plus the
        // replicated front-end.
        let per_obs = dims.train_flops() as f64 / self.tp as f64;
        self.trainer.charge_compute(ctx, batch.len(), per_obs);

        let (mut params, mut grads) = self.flatten_all();
        let applied =
            self.trainer
                .unscale_synced(&mut ctx.clock, &mut self.tp_group, &mut [&mut grads])?;
        let grad_norm = norm(&grads);
        if applied {
            self.trainer.opt.step(&mut self.state, &mut params, &grads);
            self.load_all(&params);
        }
        Ok(self.trainer.finish_step(ctx, t0, loss, grad_norm, applied))
    }

    /// Inference-only forward through the sharded blocks. Collective:
    /// every TP rank must call this together with identical inputs (the
    /// block forwards all-reduce activations every sub-layer); each rank
    /// returns the full predictions. Charges ~1/tp of the forward FLOPs.
    fn predict(
        &mut self,
        ctx: &mut RankCtx,
        inputs: &[Vec<Tensor>],
    ) -> Result<Vec<Vec<Tensor>>, SimError> {
        let dims = self.front.cfg.dims;
        let mut preds = Vec::with_capacity(inputs.len());
        for images in inputs {
            let (x0, _front_cache) = self.front.front_forward(images);
            let mut x = x0;
            for b in &self.blocks {
                let (y, _c) = b.forward(&x, &mut self.tp_group, &mut ctx.clock)?;
                x = y;
            }
            preds.push(self.front.head_forward(&x));
        }
        let per_obs = dims.forward_flops() as f64 / self.tp as f64;
        self.trainer.charge_compute(ctx, inputs.len(), per_obs);
        Ok(preds)
    }

    /// Assemble the full reference model: the front is replicated locally;
    /// blocks (parameters and Adam moments alike) are TP all-gathered and
    /// reassembled into reference order. Moments of TP-replicated tensors
    /// are identical across ranks (their gradients are synced every step),
    /// so taking one copy is exact.
    fn capture_checkpoint(&mut self, ctx: &mut RankCtx) -> Result<Checkpoint, SimError> {
        let front_len = self.front.flatten_params().len();
        let front_flat = self.front.flatten_params();
        let mut block_flats = Vec::with_capacity(self.blocks.len());
        for b in &mut self.blocks {
            block_flats.push(tp_flatten(b));
        }
        let cfg = self.front.cfg;
        let assemble = |vec: &[f32],
                        tp_group: &mut ProcessGroup,
                        blocks: &[TpBlock],
                        clock: &mut SimClock|
         -> Result<Vec<f32>, CommError> {
            // Split a local-layout flat [front, block 0, ..] into pieces.
            let front_part = &vec[..front_len];
            let mut parts = Vec::with_capacity(block_flats.len());
            let mut off = front_len;
            for f in &block_flats {
                parts.push(vec[off..off + f.len()].to_vec());
                off += f.len();
            }
            assemble_reference(&cfg, blocks, tp_group, clock, front_part, &parts)
        };
        let local: Vec<f32> = {
            let mut v = front_flat.clone();
            for f in &block_flats {
                v.extend_from_slice(f);
            }
            v
        };
        let params = assemble(&local, &mut self.tp_group, &self.blocks, &mut ctx.clock)?;
        let m = assemble(
            &self.state.m.clone(),
            &mut self.tp_group,
            &self.blocks,
            &mut ctx.clock,
        )?;
        let v = assemble(
            &self.state.v.clone(),
            &mut self.tp_group,
            &self.blocks,
            &mut ctx.clock,
        )?;
        Ok(Checkpoint::from_parts(&cfg, params, m, v, self.state.step)
            .with_scaler(self.trainer.scaler_state()))
    }

    /// Re-shard the full checkpoint into this rank's TP layout (front
    /// replicated, blocks column/row sliced) — parameters and both Adam
    /// moments.
    fn restore_checkpoint(&mut self, _ctx: &mut RankCtx, ck: &Checkpoint) -> Result<(), SimError> {
        ck.validate(&self.front.cfg)
            .map_err(|e| SimError::State(e.to_string()))?;
        let cfg = self.front.cfg;
        let tp = self.tp;
        let tp_idx = self.tp_group.local_index();
        let reshard = |full: &[f32]| -> Vec<f32> {
            let (front, blocks) = reshard_reference(&cfg, tp, tp_idx, full);
            let mut local = front;
            for b in blocks {
                local.extend_from_slice(&b);
            }
            local
        };
        let params = reshard(&ck.params);
        self.load_all(&params);
        self.state.m = reshard(&ck.adam_m);
        self.state.v = reshard(&ck.adam_v);
        self.state.step = ck.adam_step;
        self.trainer.restore_scaler(ck.scaler);
        self.trainer.restore_generation(ck.adam_step);
        Ok(())
    }

    fn generation(&self) -> u64 {
        self.trainer.generation()
    }

    fn name(&self) -> &str {
        "tensor_parallel"
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
    fn tp_matches_single_device_losses() {
        let cfg = VitConfig::test_tiny(); // 2 heads -> tp up to 2
        let batch = make_batch(&cfg, 2, 13);
        let opt = AdamW::default();
        let w = lat_weights(cfg.dims.img_h);
        let mut reference = VitModel::init(cfg, 42);
        let mut state = reference.init_adam_state();
        let ref_losses: Vec<f32> = (0..3)
            .map(|_| reference.train_step(&batch, &w, &opt, &mut state))
            .collect();
        for tp in [1usize, 2] {
            let results = Cluster::frontier().run(tp, |ctx| {
                let mut e =
                    TensorParallelEngine::new(ctx, cfg, opt, TrainOptions::none(), 42).unwrap();
                (0..3)
                    .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                    .collect::<Vec<_>>()
            });
            for losses in &results {
                for (a, b) in losses.iter().zip(&ref_losses) {
                    assert!(
                        (a - b).abs() < 5e-4 * b.abs().max(1.0),
                        "tp={tp}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn tp_shards_reduce_persistent_memory() {
        let cfg = VitConfig::test_tiny();
        let persistent_1 = Cluster::frontier().run(1, |ctx| {
            let _e = TensorParallelEngine::new(ctx, cfg, AdamW::default(), TrainOptions::none(), 1)
                .unwrap();
            ctx.device.in_use()
        })[0];
        let persistent_2 = Cluster::frontier().run(2, |ctx| {
            let _e = TensorParallelEngine::new(ctx, cfg, AdamW::default(), TrainOptions::none(), 1)
                .unwrap();
            ctx.device.in_use()
        })[0];
        assert!(
            persistent_2 < persistent_1,
            "sharding must shrink per-rank state: {persistent_2} !< {persistent_1}"
        );
    }
}
