//! Hybrid Sharded Tensor-Data Orthogonal Parallelism — the paper's
//! contribution (Sec. III, Figs. 3 and 4).
//!
//! Three orthogonal group kinds partition the world
//! (`world = tp * fsdp * ddp`, tp fastest-varying so TP groups sit inside
//! a node):
//!
//! - **Tensor parallel** (intra-node): block weights split in the
//!   alternating column/row shards of Eqn. (2); partial activations summed
//!   every sub-layer.
//! - **FSDP** (across nodes): each rank's *tensor-parallel shard* is
//!   further flat-sharded across the FSDP group. Before a layer runs, the
//!   group all-gathers that layer's TP shard — never the full model, which
//!   is the decisive memory advantage over vanilla FSDP (Fig. 2 vs 3).
//!   Gradients return by reduce-scatter.
//! - **DDP** (across sub-clusters): independent data replicas whose
//!   sharded gradients are all-reduced once per step.
//!
//! The four Table I optimizations are honored: layer wrapping (gather one
//! block at a time vs everything at once), BF16 mixed precision with
//! dynamic gradient scaling, gather prefetching (the next block's gather is
//! *issued* before the current block computes, so the rendezvous genuinely
//! proceeds in the background while this rank works, and its modeled time
//! is overlapped with compute on the simulated clock), and activation
//! checkpointing (boundaries only; block caches recomputed in the backward
//! pass).

use crate::dcomm::{comm_err, GroupComm};
use crate::stats::StepStats;
use crate::tp_block::TpBlock;
use orbit_comm::{Allocation, CommError, PendingCollective, ProcessGroup, RankCtx, SimError};
use orbit_frontier::{ParallelLayout, RankMapping, TrainOptions};
use orbit_tensor::dtensor::{flat_shard, padded_len};
use orbit_tensor::dtensor::{DTensor, DeviceMesh, Layout, PendingReshard};
use orbit_tensor::kernels::{AdamState, AdamW};
use orbit_tensor::Tensor;
use orbit_vit::loss::weighted_mse;
use orbit_vit::{Batch, Checkpoint, VitConfig, VitModel};

use super::tp::{
    assemble_reference, reshard_reference, sync_qk_grads, tp_flatten, tp_flatten_grads, tp_load,
    tp_load_grads,
};
use super::trainer::{configure_precision, norm, Trainer};
use super::Engine;

/// A unit gather in flight: the pending `ShardFlat -> Replicate` reshard
/// plus its transient allocation (gathered parameters + gradient staging
/// buffer).
struct InflightGather {
    unit: usize,
    pending: PendingReshard<PendingCollective>,
    alloc: Allocation,
}

/// The Hybrid-STOP training engine for one rank.
pub struct HybridStopEngine {
    layout: ParallelLayout,
    /// The full `tp x fsdp x ddp` device mesh this rank lives on (tp
    /// fastest-varying, paper Fig. 4). Weight shards live on the `fsdp`
    /// axis; gradient partials resolve on `fsdp` then `ddp`.
    mesh: DeviceMesh,
    /// Front-end + head (replicated across TP, FSDP-sharded at rest).
    pub front: VitModel,
    /// This rank's TP block shards (values refreshed by FSDP gathers).
    pub blocks: Vec<TpBlock>,
    /// Each unit's persistent parameters: `ShardFlat` DTensors over the
    /// mesh's `fsdp` axis (unit 0 = front-end/head, unit 1+l = block l;
    /// the "global" of each is this rank's TP shard flat).
    unit_params: Vec<DTensor>,
    /// Unsharded flat length of each unit (this rank's TP shard).
    unit_lens: Vec<usize>,
    states: Vec<AdamState>,
    tp_group: ProcessGroup,
    fsdp_group: ProcessGroup,
    ddp_group: ProcessGroup,
    world_group: ProcessGroup,
    trainer: Trainer,
    _persistent: Allocation,
}

impl HybridStopEngine {
    /// Build rank `ctx.rank`'s engine for the given layout
    /// (`layout.world()` must equal `ctx.world`; all ranks pass the same
    /// seed). `layout.tp` must divide the model's head count.
    pub fn new(
        ctx: &RankCtx,
        layout: ParallelLayout,
        mut cfg: VitConfig,
        opt: AdamW,
        opts: TrainOptions,
        seed: u64,
    ) -> Result<Self, orbit_comm::OomError> {
        assert_eq!(layout.world(), ctx.world, "layout/world mismatch");
        configure_precision(&mut cfg, &opts);
        let mapping = RankMapping::new(layout);
        let coords = mapping.coords(ctx.rank);
        let reference = VitModel::init(cfg, seed);
        let mut blocks: Vec<TpBlock> = reference
            .blocks
            .iter()
            .map(|b| TpBlock::from_reference(b, layout.tp, coords.tp_idx))
            .collect();
        let mut front = reference;
        front.blocks = Vec::new();

        // Flat units: [front, block 0, ..., block L-1].
        let mut unit_flats = vec![front.flatten_params()];
        for b in &mut blocks {
            unit_flats.push(tp_flatten(b));
        }
        let unit_lens: Vec<usize> = unit_flats.iter().map(|f| f.len()).collect();
        let mesh = DeviceMesh::grid(&[
            ("tp", layout.tp, coords.tp_idx),
            ("fsdp", layout.fsdp, coords.fsdp_idx),
            ("ddp", layout.ddp, coords.ddp_idx),
        ]);
        let fsdp_mesh = mesh.sub(&["fsdp"]).expect("fsdp axis");
        let unit_params: Vec<DTensor> = unit_flats
            .into_iter()
            .map(|f| {
                let n = f.len();
                DTensor::from_global(
                    &Tensor::from_vec(1, n, f),
                    fsdp_mesh.clone(),
                    "fsdp",
                    Layout::ShardFlat,
                )
                .expect("flat sharding is always legal")
            })
            .collect();
        let states: Vec<AdamState> = unit_params
            .iter()
            .map(|p| AdamState::new(p.local().len()))
            .collect();
        let total_shard: u64 = unit_params.iter().map(|p| p.local().len() as u64).sum();
        // Persistent: weights + grads + Adam moments of the owned shards
        // only — the Fig. 3 property.
        let persistent = ctx.device.alloc(16 * total_shard)?;

        let mut tp_group = ctx.group(mapping.tp_group(ctx.rank));
        let mut fsdp_group = ctx.group(mapping.fsdp_group(ctx.rank));
        let mut ddp_group = ctx.group(mapping.ddp_group(ctx.rank));
        if opts.mixed_precision {
            // Parameters, gradients and activations travel as bf16.
            tp_group.set_wire_bytes(2.0);
            fsdp_group.set_wire_bytes(2.0);
            ddp_group.set_wire_bytes(2.0);
        }
        Ok(HybridStopEngine {
            tp_group,
            fsdp_group,
            ddp_group,
            world_group: ctx.world_group(),
            layout,
            mesh,
            trainer: Trainer::with_replicas(
                &cfg,
                opt,
                opts,
                coords.ddp_idx * layout.fsdp + coords.fsdp_idx,
                layout.fsdp * layout.ddp,
            ),
            front,
            blocks,
            unit_params,
            unit_lens,
            states,
            _persistent: persistent,
        })
    }

    /// Reshard one unit's parameters to `Replicate` within the FSDP group
    /// and return the unsharded flat vector, charging a transient
    /// allocation.
    fn gather_unit(
        &mut self,
        ctx: &mut RankCtx,
        unit: usize,
        prefetched: bool,
    ) -> Result<(Vec<f32>, Allocation), SimError> {
        // Transient buffer: gathered parameters + a same-sized gradient
        // staging buffer for the backward reduce-scatter.
        let full = padded_len(self.unit_lens[unit], self.layout.fsdp) as u64;
        let alloc = ctx.device.alloc(2 * full * self.trainer.param_bytes())?;
        let prefetch = prefetched && self.trainer.opts.prefetch;
        let flat = {
            let mut comm = GroupComm::new(&mut self.fsdp_group, &mut ctx.clock);
            self.unit_params[unit]
                .reshard_start("fsdp", Layout::Replicate, &mut comm, prefetch)
                .map_err(comm_err)?
                .wait(&mut comm)
                .map_err(comm_err)?
                .into_local()
                .into_vec()
        };
        Ok((flat, alloc))
    }

    /// Issue one unit's FSDP parameter gather without blocking. The
    /// transient allocation is charged at issue time, so with pipelining
    /// the next unit's buffer is resident while the current unit computes
    /// — the memory cost of the overlap.
    fn gather_unit_start(
        &mut self,
        ctx: &mut RankCtx,
        unit: usize,
    ) -> Result<InflightGather, SimError> {
        let full = padded_len(self.unit_lens[unit], self.layout.fsdp) as u64;
        let alloc = ctx.device.alloc(2 * full * self.trainer.param_bytes())?;
        let pending = {
            let mut comm = GroupComm::new(&mut self.fsdp_group, &mut ctx.clock);
            self.unit_params[unit]
                .reshard_start(
                    "fsdp",
                    Layout::Replicate,
                    &mut comm,
                    self.trainer.opts.prefetch,
                )
                .map_err(comm_err)?
        };
        Ok(InflightGather {
            unit,
            pending,
            alloc,
        })
    }

    /// Complete an in-flight unit gather and return the unsharded flat
    /// parameters plus their transient allocation.
    fn gather_unit_finish(
        &mut self,
        ctx: &mut RankCtx,
        inflight: InflightGather,
    ) -> Result<(Vec<f32>, Allocation), SimError> {
        let flat = {
            let mut comm = GroupComm::new(&mut self.fsdp_group, &mut ctx.clock);
            inflight
                .pending
                .wait(&mut comm)
                .map_err(comm_err)?
                .into_local()
                .into_vec()
        };
        Ok((flat, inflight.alloc))
    }

    /// Resolve a unit's `Partial` gradient flat to `ShardFlat` within the
    /// FSDP group — a reduce-scatter, with the padding supplied by the
    /// layout lowering rather than hand-rolled here.
    fn scatter_grads(&mut self, ctx: &mut RankCtx, grads: Vec<f32>) -> Result<Vec<f32>, CommError> {
        let n = grads.len();
        let fsdp_mesh = self.mesh.sub(&["fsdp"]).expect("fsdp axis");
        let partial =
            DTensor::partial(Tensor::from_vec(1, n, grads), fsdp_mesh, "fsdp").expect("fsdp axis");
        let mut comm = GroupComm::new(&mut self.fsdp_group, &mut ctx.clock);
        Ok(partial
            .reshard("fsdp", Layout::ShardFlat, &mut comm)
            .map_err(comm_err)?
            .into_local()
            .into_vec())
    }

    /// FSDP-unshard one flat per unit from `shards` (this rank's FSDP
    /// shard of each unit, in the parameters' flat layout), then hand
    /// front + blocks to the shared TP reassembly. The same routine serves
    /// parameters and Adam moments.
    fn assemble_full(
        &mut self,
        ctx: &mut RankCtx,
        shards: &[&[f32]],
    ) -> Result<Vec<f32>, CommError> {
        let fsdp_mesh = self.mesh.sub(&["fsdp"]).expect("fsdp axis");
        let mut unit_flats = Vec::with_capacity(shards.len());
        for (unit, shard) in shards.iter().enumerate() {
            let t = DTensor::from_local_shard(
                Tensor::from_vec(1, shard.len(), shard.to_vec()),
                fsdp_mesh.clone(),
                "fsdp",
                Layout::ShardFlat,
                1,
                self.unit_lens[unit],
            )
            .expect("unit shard matches parameter layout");
            let mut comm = GroupComm::new(&mut self.fsdp_group, &mut ctx.clock);
            unit_flats.push(
                t.reshard("fsdp", Layout::Replicate, &mut comm)
                    .map_err(comm_err)?
                    .into_local()
                    .into_vec(),
            );
        }
        let front_flat = unit_flats.remove(0);
        assemble_reference(
            &self.front.cfg,
            &self.blocks,
            &mut self.tp_group,
            &mut ctx.clock,
            &front_flat,
            &unit_flats,
        )
    }

    /// Reconstruct the full (reference-ordered) parameter vector: FSDP
    /// gather each unit, TP all-gather block shards, and reassemble the
    /// column/row shards into full matrices. Used by tests and for
    /// checkpointing.
    pub fn gather_full_params(&mut self, ctx: &mut RankCtx) -> Result<Vec<f32>, CommError> {
        let shards: Vec<Vec<f32>> = self
            .unit_params
            .iter()
            .map(|p| p.local().data().to_vec())
            .collect();
        let refs: Vec<&[f32]> = shards.iter().map(|s| s.as_slice()).collect();
        self.assemble_full(ctx, &refs)
    }

    /// Expose the gradient flats for diagnostics (test support).
    pub fn load_grad_shards(&mut self, unit: usize, grads: &[f32]) {
        if unit == 0 {
            self.front.load_flat_grads(&grads[..self.unit_lens[0]]);
        } else {
            tp_load_grads(&mut self.blocks[unit - 1], &grads[..self.unit_lens[unit]]);
        }
    }
}

impl Engine for HybridStopEngine {
    /// One training step over the global batch. Global batch size must
    /// divide evenly by `fsdp * ddp` data replicas.
    fn train_step(&mut self, ctx: &mut RankCtx, global: &Batch) -> Result<StepStats, SimError> {
        let local = self.trainer.partition(global);
        let global_n = global.len();
        let b = local.len();
        let dims = self.front.cfg.dims;
        let layers = self.blocks.len();
        let t0 = ctx.clock.now();

        // Activation accounting: wide intermediates sharded by tp;
        // boundaries replicated; tokenizer stage checkpointable.
        let act_floats = if self.trainer.opts.activation_checkpointing {
            dims.tokens() * dims.embed * (layers + 2 + 8 / self.layout.tp)
        } else {
            dims.tokens() * dims.embed * (8 * layers / self.layout.tp + 2 * layers + dims.channels)
        };
        let _act = ctx.device.alloc((b * act_floats) as u64 * 4)?;

        self.front.zero_grads();
        for blk in &mut self.blocks {
            blk.zero_grads();
        }

        // ---- Parameter gathers (forward) ----
        // Layer wrapping gathers one unit at a time; without it, all units
        // are gathered at once and the combined transient allocation is
        // held for the entire step (the Table I column-1 OOM).
        let mut whole_model_allocs: Vec<Allocation> = Vec::new();
        if !self.trainer.opts.layer_wrapping {
            let mut gathered = Vec::with_capacity(1 + layers);
            for unit in 0..=layers {
                let (flat, alloc) = self.gather_unit(ctx, unit, false)?;
                gathered.push(flat);
                whole_model_allocs.push(alloc);
            }
            self.front.load_flat_params(&gathered[0]);
            for (l, flat) in gathered[1..].iter().enumerate() {
                tp_load(&mut self.blocks[l], flat);
            }
        }

        // With both layer wrapping and prefetch, gathers are pipelined:
        // block l+1's gather is *issued* before block l computes (forward
        // and backward-recompute), so the rendezvous — and, on the last
        // arriver, the concatenation — runs while this rank works.
        let pipeline = self.trainer.opts.layer_wrapping && self.trainer.opts.prefetch;
        let mut inflight: Option<InflightGather> = None;

        // Front-end always needed first and last: gather it (wrapped mode).
        let front_alloc = if self.trainer.opts.layer_wrapping {
            let (flat, alloc) = if pipeline {
                let front_gather = self.gather_unit_start(ctx, 0)?;
                if layers > 0 {
                    inflight = Some(self.gather_unit_start(ctx, 1)?);
                }
                self.gather_unit_finish(ctx, front_gather)?
            } else {
                self.gather_unit(ctx, 0, true)?
            };
            self.front.load_flat_params(&flat);
            Some(alloc)
        } else {
            None
        };

        let scale = 1.0 / global_n as f32;

        // Front-end forward for the whole local batch.
        let mut front_caches = Vec::with_capacity(b);
        let mut boundaries: Vec<Vec<Tensor>> = Vec::with_capacity(b);
        for images in &local.inputs {
            let (x0, fc) = self.front.front_forward(images);
            front_caches.push(fc);
            boundaries.push(vec![x0]);
        }

        // Blocks forward, one layer at a time across the batch so each
        // gather serves every sample (paper: "layer wrapping").
        let mut stored_caches: Vec<Vec<crate::tp_block::TpBlockCache>> = Vec::new();
        for l in 0..layers {
            let _unit_alloc = if self.trainer.opts.layer_wrapping {
                let (flat, alloc) = if pipeline {
                    let cur = inflight.take().expect("forward gather pipelined");
                    debug_assert_eq!(cur.unit, 1 + l);
                    if l + 1 < layers {
                        inflight = Some(self.gather_unit_start(ctx, 1 + l + 1)?);
                    }
                    self.gather_unit_finish(ctx, cur)?
                } else {
                    self.gather_unit(ctx, 1 + l, true)?
                };
                tp_load(&mut self.blocks[l], &flat);
                Some(alloc)
            } else {
                None
            };
            let mut layer_caches = Vec::with_capacity(b);
            for boundary in boundaries.iter_mut() {
                let x = boundary.last().expect("boundary present").clone();
                let (y, cache) = self.blocks[l].forward(&x, &mut self.tp_group, &mut ctx.clock)?;
                boundary.push(y);
                if !self.trainer.opts.activation_checkpointing {
                    layer_caches.push(cache);
                }
            }
            if !self.trainer.opts.activation_checkpointing {
                stored_caches.push(layer_caches);
            }
            // `_unit_alloc` drops here: parameters reshard after use.
        }

        // Backward re-gathers the deepest block first: issue it before the
        // head compute so the rendezvous overlaps the head + loss work.
        if pipeline && layers > 0 {
            inflight = Some(self.gather_unit_start(ctx, 1 + layers - 1)?);
        }

        // Head + loss + head backward (front params still resident).
        let mut local_loss = 0.0f32;
        let mut dys: Vec<Tensor> = Vec::with_capacity(b);
        for (s, boundary) in boundaries.iter().enumerate() {
            let top = boundary.last().expect("top boundary");
            let preds = self.front.head_forward(top);
            local_loss += weighted_mse(&preds, &local.targets[s], &self.trainer.lat_w) * scale;
            let d = self.trainer.loss_grad(&preds, &local.targets[s], scale);
            dys.push(self.front.head_backward(top, &d));
        }

        // Charge forward+backward compute for this rank's share.
        let per_obs =
            dims.train_flops() as f64 * self.trainer.recompute_factor() / self.layout.tp as f64;
        self.trainer.charge_compute(ctx, b, per_obs);

        // ---- Blocks backward (reverse layer order), with re-gather and
        // reduce-scatter per layer. ----
        let mut unit_grad_shards: Vec<Vec<f32>> = vec![Vec::new(); 1 + layers];
        for l in (0..layers).rev() {
            let _unit_alloc = if self.trainer.opts.layer_wrapping {
                let (flat, alloc) = if pipeline {
                    let cur = inflight.take().expect("backward gather pipelined");
                    debug_assert_eq!(cur.unit, 1 + l);
                    if l > 0 {
                        inflight = Some(self.gather_unit_start(ctx, 1 + l - 1)?);
                    }
                    self.gather_unit_finish(ctx, cur)?
                } else {
                    self.gather_unit(ctx, 1 + l, true)?
                };
                tp_load(&mut self.blocks[l], &flat);
                Some(alloc)
            } else {
                None
            };
            for s in 0..b {
                let cache = if self.trainer.opts.activation_checkpointing {
                    // Recompute this block's cache from the boundary
                    // (all ranks re-issue the same collectives).
                    let (_, cache) = self.blocks[l].forward(
                        &boundaries[s][l],
                        &mut self.tp_group,
                        &mut ctx.clock,
                    )?;
                    cache
                } else {
                    stored_caches[l].remove(0)
                };
                dys[s] =
                    self.blocks[l].backward(&cache, &dys[s], &mut self.tp_group, &mut ctx.clock)?;
            }
            sync_qk_grads(&mut self.blocks[l], &mut self.tp_group, &mut ctx.clock)?;
            // This layer's gradients are `Partial` over the FSDP axis:
            // resolve straight to `ShardFlat` (a reduce-scatter).
            let grads = tp_flatten_grads(&mut self.blocks[l]);
            unit_grad_shards[1 + l] = self.scatter_grads(ctx, grads)?;
        }

        // Front-end backward and its gradient reduce-scatter.
        for s in 0..b {
            self.front.front_backward(&front_caches[s], &dys[s]);
        }
        let front_grads = self.front.flatten_grads();
        unit_grad_shards[0] = self.scatter_grads(ctx, front_grads)?;
        drop(front_alloc);
        drop(whole_model_allocs);
        ctx.clock.flush_prefetch();

        // ---- DDP level: the owned gradient shards are still `Partial`
        // across data replicas; resolve to `Replicate` on the `ddp` axis.
        if self.layout.ddp > 1 {
            let ddp_mesh = self.mesh.sub(&["ddp"]).expect("ddp axis");
            for shard in unit_grad_shards.iter_mut() {
                let n = shard.len();
                let partial = DTensor::partial(
                    Tensor::from_vec(1, n, std::mem::take(shard)),
                    ddp_mesh.clone(),
                    "ddp",
                )
                .expect("ddp axis");
                let mut comm = GroupComm::new(&mut self.ddp_group, &mut ctx.clock);
                *shard = partial
                    .reshard("ddp", Layout::Replicate, &mut comm)
                    .map_err(comm_err)?
                    .into_local()
                    .into_vec();
            }
        }

        // ---- Mixed precision: unscale and agree on finiteness globally.
        let applied = {
            let mut shard_refs: Vec<&mut [f32]> = unit_grad_shards
                .iter_mut()
                .map(|s| s.as_mut_slice())
                .collect();
            self.trainer
                .unscale_synced(&mut ctx.clock, &mut self.world_group, &mut shard_refs)?
        };
        let grad_norm = norm(&unit_grad_shards.concat());

        // ---- Sharded optimizer step: each rank updates only its shards.
        if applied {
            for (unit, grads) in unit_grad_shards.iter().enumerate() {
                self.trainer.opt.step(
                    &mut self.states[unit],
                    self.unit_params[unit].local_mut().data_mut(),
                    grads,
                );
            }
        }

        // Loss: each TP rank computed the identical local loss, so the
        // world sum over-counts by tp.
        let loss = self
            .world_group
            .all_reduce_scalar(&mut ctx.clock, local_loss)?
            / self.layout.tp as f32;
        Ok(self.trainer.finish_step(ctx, t0, loss, grad_norm, applied))
    }

    /// Assemble the layout-independent checkpoint: FSDP all-gather + TP
    /// reassembly of the parameters and both Adam moments. Identical on
    /// every rank of any `tp x fsdp x ddp` layout, which is what makes
    /// restarting under a *different* layout possible.
    fn capture_checkpoint(&mut self, ctx: &mut RankCtx) -> Result<Checkpoint, SimError> {
        let params = self.gather_full_params(ctx)?;
        let m = {
            let shards: Vec<Vec<f32>> = self.states.iter().map(|s| s.m.clone()).collect();
            let refs: Vec<&[f32]> = shards.iter().map(|s| s.as_slice()).collect();
            self.assemble_full(ctx, &refs)?
        };
        let v = {
            let shards: Vec<Vec<f32>> = self.states.iter().map(|s| s.v.clone()).collect();
            let refs: Vec<&[f32]> = shards.iter().map(|s| s.as_slice()).collect();
            self.assemble_full(ctx, &refs)?
        };
        Ok(
            Checkpoint::from_parts(&self.front.cfg, params, m, v, self.states[0].step)
                .with_scaler(self.trainer.scaler_state()),
        )
    }

    /// Re-shard the checkpoint into this rank's layout: TP slice each
    /// block, then FSDP flat-shard every unit — parameters and both Adam
    /// moments. Restoring into the capturing layout is a pure permutation
    /// (bit-exact); restoring into a different layout only re-slices the
    /// same values.
    fn restore_checkpoint(&mut self, _ctx: &mut RankCtx, ck: &Checkpoint) -> Result<(), SimError> {
        ck.validate(&self.front.cfg)
            .map_err(|e| SimError::State(e.to_string()))?;
        let cfg = self.front.cfg;
        let tp = self.layout.tp;
        let tp_idx = self.tp_group.local_index();
        let fsdp = self.layout.fsdp;
        let fsdp_idx = self.fsdp_group.local_index();
        // full reference flat -> per-unit flats in this rank's TP layout.
        let reshard_units = |full: &[f32]| -> Vec<Vec<f32>> {
            let (front, blocks) = reshard_reference(&cfg, tp, tp_idx, full);
            let mut units = vec![front];
            units.extend(blocks);
            units
        };
        let fsdp_mesh = self.mesh.sub(&["fsdp"]).expect("fsdp axis");
        for (unit, full) in reshard_units(&ck.params).into_iter().enumerate() {
            let n = full.len();
            self.unit_params[unit] = DTensor::from_global(
                &Tensor::from_vec(1, n, full),
                fsdp_mesh.clone(),
                "fsdp",
                Layout::ShardFlat,
            )
            .expect("flat sharding is always legal");
        }
        let m_units: Vec<Vec<f32>> = reshard_units(&ck.adam_m)
            .iter()
            .map(|u| flat_shard(u, fsdp, fsdp_idx))
            .collect();
        let v_units: Vec<Vec<f32>> = reshard_units(&ck.adam_v)
            .iter()
            .map(|u| flat_shard(u, fsdp, fsdp_idx))
            .collect();
        for (unit, (m, v)) in m_units.into_iter().zip(v_units).enumerate() {
            self.states[unit].m = m;
            self.states[unit].v = v;
            self.states[unit].step = ck.adam_step;
        }
        self.trainer.restore_scaler(ck.scaler);
        self.trainer.restore_generation(ck.adam_step);
        Ok(())
    }

    fn generation(&self) -> u64 {
        self.trainer.generation()
    }

    fn name(&self) -> &str {
        "hybrid_stop"
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

    fn reference_run(cfg: VitConfig, batch: &Batch, steps: usize) -> (Vec<f32>, Vec<f32>) {
        let w = lat_weights(cfg.dims.img_h);
        let opt = AdamW::default();
        let mut model = VitModel::init(cfg, 42);
        let mut state = model.init_adam_state();
        let losses = (0..steps)
            .map(|_| model.train_step(batch, &w, &opt, &mut state))
            .collect();
        (losses, model.flatten_params())
    }

    /// The headline correctness test: Hybrid-STOP with every non-trivial
    /// layout reproduces the single-device reference losses AND parameters.
    #[test]
    fn hybrid_stop_matches_reference_across_layouts() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 4, 17);
        let (ref_losses, ref_params) = reference_run(cfg, &batch, 2);

        for (tp, fsdp, ddp) in [
            (1, 1, 1),
            (2, 1, 1),
            (1, 2, 1),
            (1, 1, 2),
            (2, 2, 1),
            (2, 1, 2),
            (1, 2, 2),
            (2, 2, 2),
        ] {
            let layout = ParallelLayout::new(tp, fsdp, ddp);
            let results = Cluster::frontier().run(layout.world(), |ctx| {
                let mut e = HybridStopEngine::new(
                    ctx,
                    layout,
                    cfg,
                    AdamW::default(),
                    TrainOptions::none(),
                    42,
                )
                .unwrap();
                let losses: Vec<f32> = (0..2)
                    .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                    .collect();
                let params = e.gather_full_params(ctx).unwrap();
                (losses, params)
            });
            for (losses, params) in &results {
                for (a, b) in losses.iter().zip(&ref_losses) {
                    assert!(
                        (a - b).abs() < 1e-3 * b.abs().max(1.0),
                        "tp={tp} fsdp={fsdp} ddp={ddp}: loss {a} vs {b}"
                    );
                }
                assert_eq!(
                    params.len(),
                    ref_params.len(),
                    "tp={tp} fsdp={fsdp} ddp={ddp}"
                );
                for (i, (a, b)) in params.iter().zip(&ref_params).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-3 * b.abs().max(1e-2),
                        "tp={tp} fsdp={fsdp} ddp={ddp}: param {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpointing_and_wrapping_preserve_losses() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 2, 19);
        let (ref_losses, _) = reference_run(cfg, &batch, 2);
        let layout = ParallelLayout::new(2, 2, 1);
        for (wrap, ckpt) in [(true, true), (true, false), (false, true)] {
            let opts = TrainOptions {
                layer_wrapping: wrap,
                activation_checkpointing: ckpt,
                prefetch: wrap,
                ..TrainOptions::none()
            };
            let results = Cluster::frontier().run(4, |ctx| {
                let mut e =
                    HybridStopEngine::new(ctx, layout, cfg, AdamW::default(), opts, 42).unwrap();
                (0..2)
                    .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                    .collect::<Vec<_>>()
            });
            for losses in &results {
                for (a, b) in losses.iter().zip(&ref_losses) {
                    assert!(
                        (a - b).abs() < 1e-3 * b.abs().max(1.0),
                        "wrap={wrap} ckpt={ckpt}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn layer_wrapping_lowers_peak_memory() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 2, 23);
        let layout = ParallelLayout::new(2, 2, 1);
        let peak = |wrap: bool| {
            let opts = TrainOptions {
                layer_wrapping: wrap,
                ..TrainOptions::none()
            };
            Cluster::frontier().run(4, |ctx| {
                let mut e =
                    HybridStopEngine::new(ctx, layout, cfg, AdamW::default(), opts, 42).unwrap();
                e.train_step(ctx, &batch).unwrap().peak_mem
            })[0]
        };
        let wrapped = peak(true);
        let unwrapped = peak(false);
        assert!(
            wrapped < unwrapped,
            "layer wrapping must cut peak memory: {wrapped} !< {unwrapped}"
        );
    }

    #[test]
    fn mixed_precision_trains_and_stays_close() {
        let cfg = VitConfig::test_tiny();
        let batch = make_batch(&cfg, 2, 29);
        let (ref_losses, _) = reference_run(cfg, &batch, 3);
        let layout = ParallelLayout::new(2, 2, 1);
        let opts = TrainOptions::all_on();
        let results = Cluster::frontier().run(4, |ctx| {
            let mut e =
                HybridStopEngine::new(ctx, layout, cfg, AdamW::default(), opts, 42).unwrap();
            (0..3)
                .map(|_| {
                    let s = e.train_step(ctx, &batch).unwrap();
                    assert!(s.applied, "healthy grads should not be skipped");
                    s.loss
                })
                .collect::<Vec<_>>()
        });
        // BF16 rounding perturbs the trajectory, but losses stay close.
        for losses in &results {
            for (a, b) in losses.iter().zip(&ref_losses) {
                assert!((a - b).abs() < 0.05 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn persistent_memory_scales_down_with_sharding() {
        let cfg = VitConfig::test_tiny();
        let persist = |tp: usize, fsdp: usize| {
            let layout = ParallelLayout::new(tp, fsdp, 1);
            Cluster::frontier().run(layout.world(), |ctx| {
                let _e = HybridStopEngine::new(
                    ctx,
                    layout,
                    cfg,
                    AdamW::default(),
                    TrainOptions::none(),
                    42,
                )
                .unwrap();
                ctx.device.in_use()
            })[0]
        };
        let p11 = persist(1, 1);
        let p22 = persist(2, 2);
        // tp*fsdp = 4 shards the block weights ~4x (front-end only by fsdp).
        assert!(
            (p22 as f64) < 0.5 * p11 as f64,
            "sharded persistent {p22} should be well under {p11}"
        );
    }
}
