//! Pipeline parallelism (GPipe-style) — the second baseline of the
//! paper's Sec. II comparison.
//!
//! The model is split into stages by *layer*: stage 0 owns the front-end
//! (tokenizer, aggregation, positional embedding), every stage owns a
//! contiguous slice of transformer blocks, and the last stage owns the
//! prediction head and the loss. Activations flow stage-to-stage with
//! point-to-point sends; gradients flow back the same way.
//!
//! Its defining limitation — the reason the paper contrasts it with
//! Hybrid-STOP — is that the stage count cannot exceed the layer count,
//! and pipeline bubbles waste time at small microbatch counts. Both are
//! observable here: construction asserts the stage bound, and the
//! simulated clock exposes the bubble.

use crate::stats::StepStats;
use orbit_comm::{Allocation, ProcessGroup, RankCtx, SimError};
use orbit_frontier::TrainOptions;
use orbit_tensor::kernels::{AdamState, AdamW};
use orbit_tensor::Tensor;
use orbit_vit::block::BlockCache;
use orbit_vit::loss::{weighted_mse, weighted_mse_grad};
use orbit_vit::model::FrontCache;
use orbit_vit::{Batch, Checkpoint, VitConfig, VitModel};

use super::trainer::Trainer;
use super::Engine;

/// One pipeline stage (rank `stage` of `n_stages`).
pub struct PipelineEngine {
    stage: usize,
    n_stages: usize,
    /// Full model structure; this stage only *uses and updates* its part
    /// (front-end on stage 0, its block slice, head on the last stage).
    model: VitModel,
    /// Layer range [lo, hi) owned by this stage.
    lo: usize,
    hi: usize,
    group: ProcessGroup,
    state: AdamState,
    trainer: Trainer,
    _persistent: Allocation,
}

impl PipelineEngine {
    /// Split the model into `ctx.world` stages. The stage count must not
    /// exceed the layer count — pipeline parallelism's structural limit.
    pub fn new(
        ctx: &RankCtx,
        cfg: VitConfig,
        opt: AdamW,
        opts: TrainOptions,
        seed: u64,
    ) -> Result<Self, orbit_comm::OomError> {
        let n_stages = ctx.world;
        assert!(
            n_stages <= cfg.dims.layers,
            "pipeline stages ({n_stages}) cannot exceed layers ({}) — the Sec. II limitation",
            cfg.dims.layers
        );
        let stage = ctx.rank;
        let model = VitModel::init(cfg, seed);
        // Contiguous block split, remainder to the early stages.
        let per = cfg.dims.layers / n_stages;
        let extra = cfg.dims.layers % n_stages;
        let lo = stage * per + stage.min(extra);
        let hi = lo + per + usize::from(stage < extra);
        // Persistent memory: owned blocks (+ front on stage 0, head on
        // the last stage).
        let d = cfg.dims;
        let mut owned: u64 = (hi - lo) as u64 * d.block_params();
        if stage == 0 {
            owned += d.tokenizer_params() + d.aggregation_params() + d.pos_embed_params();
        }
        if stage == n_stages - 1 {
            owned += d.head_params();
        }
        let persistent = ctx.device.alloc(16 * owned)?;
        let mut model = model;
        let state = AdamState::new(model.param_count());
        Ok(PipelineEngine {
            stage,
            n_stages,
            model,
            lo,
            hi,
            group: ctx.world_group(),
            state,
            trainer: Trainer::new(&cfg, opt, opts),
            _persistent: persistent,
        })
    }

    fn is_first(&self) -> bool {
        self.stage == 0
    }

    fn is_last(&self) -> bool {
        self.stage == self.n_stages - 1
    }

    /// Does this stage own parameter `name`? Blocks belong to their layer
    /// range; the head to the last stage; everything else (front-end) to
    /// stage 0. Mirrors the optimizer-step ownership rule in
    /// [`Engine::train_step`].
    fn owns(&self, name: &str) -> bool {
        if let Some(rest) = name.strip_prefix("block") {
            let idx: usize = rest
                .split('.')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(usize::MAX);
            (self.lo..self.hi).contains(&idx)
        } else if name.starts_with("head_") {
            self.is_last()
        } else {
            self.is_first()
        }
    }

    /// Per-parameter `(offset, len, owned)` ranges of the flat layout.
    fn ownership_ranges(&mut self) -> Vec<(usize, usize, bool)> {
        let mut ranges = Vec::new();
        let mut owned_names: Vec<(String, usize)> = Vec::new();
        self.model.visit_params(&mut |name, p| {
            owned_names.push((name.to_string(), p.len()));
        });
        let mut off = 0;
        for (name, n) in owned_names {
            ranges.push((off, n, self.owns(&name)));
            off += n;
        }
        ranges
    }
}

impl Engine for PipelineEngine {
    /// One GPipe step: all microbatch forwards, then all backwards, then a
    /// local optimizer step on the owned parameters. Every rank receives
    /// the whole batch; only stage 0 reads the inputs, only the last stage
    /// reads the targets. Returns the global loss on every rank.
    fn train_step(&mut self, ctx: &mut RankCtx, batch: &Batch) -> Result<StepStats, SimError> {
        assert!(!batch.is_empty());
        let b = batch.len();
        let dims = self.model.cfg.dims;
        let tokens = dims.tokens();
        let d = dims.embed;
        let t0 = ctx.clock.now();
        // Activation accounting: each stage stores caches for every
        // in-flight microbatch — the GPipe memory cost.
        let my_layers = self.hi - self.lo;
        let _act = ctx
            .device
            .alloc((b * tokens * d * (8 * my_layers + 2)) as u64 * 4)?;

        self.model.zero_grads();
        let scale = 1.0 / b as f32;

        // ---- Forward wave ----
        let mut front_caches: Vec<Option<FrontCache>> = Vec::new();
        let mut block_caches: Vec<Vec<BlockCache>> = Vec::new();
        let mut tops: Vec<Tensor> = Vec::new();
        let mut local_loss = 0.0f32;
        let mut d_tops: Vec<Tensor> = Vec::new();
        for s in 0..b {
            let mut x = if self.is_first() {
                let (x0, fc) = self.model.front_forward(&batch.inputs[s]);
                front_caches.push(Some(fc));
                x0
            } else {
                let data = self.group.recv(&mut ctx.clock, self.stage - 1)?;
                Tensor::from_vec(tokens, d, data)
            };
            let mut caches = Vec::with_capacity(self.hi - self.lo);
            for l in self.lo..self.hi {
                let (y, c) = self.model.blocks[l].forward(&x);
                caches.push(c);
                x = y;
            }
            block_caches.push(caches);
            if self.is_last() {
                let preds = self.model.head_forward(&x);
                local_loss += weighted_mse(&preds, &batch.targets[s], &self.trainer.lat_w) * scale;
                // No loss-scaling here: the pipeline baseline runs the
                // optimizer in full precision.
                let mut dp = weighted_mse_grad(&preds, &batch.targets[s], &self.trainer.lat_w);
                for g in &mut dp {
                    g.scale(scale);
                }
                d_tops.push(self.model.head_backward(&x, &dp));
                tops.push(x);
            } else {
                self.group.send(&mut ctx.clock, self.stage + 1, x.data())?;
            }
        }

        // ---- Backward wave ----
        for s in 0..b {
            let mut dy = if self.is_last() {
                d_tops[s].clone()
            } else {
                let data = self.group.recv(&mut ctx.clock, self.stage + 1)?;
                Tensor::from_vec(tokens, d, data)
            };
            for (l, cache) in (self.lo..self.hi).zip(block_caches[s].iter()).rev() {
                dy = self.model.blocks[l].backward(cache, &dy);
            }
            if self.is_first() {
                let fc = front_caches[s].take().expect("front cache");
                self.model.front_backward(&fc, &dy);
            } else {
                self.group.send(&mut ctx.clock, self.stage - 1, dy.data())?;
            }
        }
        drop(tops);

        // Compute charge: this stage's share of the FLOPs.
        let share = (self.hi - self.lo) as f64 / dims.layers as f64;
        self.trainer
            .charge_compute(ctx, b, dims.train_flops() as f64 * share);

        // ---- Local optimizer step on owned parameters only ----
        // (Grads of parameters owned by other stages are zero here; apply
        // the update selectively so weight decay does not touch them.)
        let lo = self.lo;
        let hi = self.hi;
        let stage_first = self.is_first();
        let stage_last = self.is_last();
        let opt = self.trainer.opt;
        let state = &mut self.state;
        let mut offset = 0usize;
        let mut grad_sq = 0.0f64;
        self.model.visit_params(&mut |name, p| {
            let owned = if name.starts_with("block") {
                let idx: usize = name
                    .trim_start_matches("block")
                    .split('.')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(usize::MAX);
                (lo..hi).contains(&idx)
            } else if name.starts_with("head_") {
                stage_last
            } else {
                stage_first
            };
            let n = p.len();
            if owned {
                let mut vals = p.value.data().to_vec();
                // Slice the flat Adam state for this parameter's range.
                let mut sub = AdamState {
                    m: state.m[offset..offset + n].to_vec(),
                    v: state.v[offset..offset + n].to_vec(),
                    step: state.step,
                };
                opt.step(&mut sub, &mut vals, p.grad.data());
                state.m[offset..offset + n].copy_from_slice(&sub.m);
                state.v[offset..offset + n].copy_from_slice(&sub.v);
                p.value.data_mut().copy_from_slice(&vals);
                grad_sq += p
                    .grad
                    .data()
                    .iter()
                    .map(|&g| (g as f64) * (g as f64))
                    .sum::<f64>();
            }
            offset += n;
        });
        self.state.step += 1;

        // Share the loss: broadcast from the last stage.
        let loss_v = self
            .group
            .broadcast(&mut ctx.clock, &[local_loss], self.n_stages - 1)?;
        Ok(self
            .trainer
            .finish_step(ctx, t0, loss_v[0], grad_sq.sqrt() as f32, true))
    }

    /// Assemble the full checkpoint by summing stage contributions: each
    /// rank zeroes the parameter ranges it does not own (they are stale
    /// there — never updated), then one world all-reduce recovers every
    /// stage's authoritative values. Adam moments of non-owned ranges are
    /// already zero (the local optimizer never touches them), so they
    /// all-reduce directly.
    fn capture_checkpoint(&mut self, ctx: &mut RankCtx) -> Result<Checkpoint, SimError> {
        let ranges = self.ownership_ranges();
        let mut params = self.model.flatten_params();
        for &(off, n, owned) in &ranges {
            if !owned {
                params[off..off + n].fill(0.0);
            }
        }
        let params = self.group.all_reduce(&mut ctx.clock, &params)?.to_vec();
        let m = self
            .group
            .all_reduce(&mut ctx.clock, &self.state.m)?
            .to_vec();
        let v = self
            .group
            .all_reduce(&mut ctx.clock, &self.state.v)?
            .to_vec();
        Ok(
            Checkpoint::from_parts(&self.model.cfg, params, m, v, self.state.step)
                .with_scaler(self.trainer.scaler_state()),
        )
    }

    /// Load the full parameters everywhere (non-owned ranges act as frozen
    /// pass-through weights) but keep only the owned slices of the Adam
    /// moments, preserving the zero-moment invariant capture relies on.
    fn restore_checkpoint(&mut self, _ctx: &mut RankCtx, ck: &Checkpoint) -> Result<(), SimError> {
        ck.validate(&self.model.cfg)
            .map_err(|e| SimError::State(e.to_string()))?;
        self.model.load_flat_params(&ck.params);
        let ranges = self.ownership_ranges();
        let mut m = ck.adam_m.clone();
        let mut v = ck.adam_v.clone();
        for &(off, n, owned) in &ranges {
            if !owned {
                m[off..off + n].fill(0.0);
                v[off..off + n].fill(0.0);
            }
        }
        self.state.m = m;
        self.state.v = v;
        self.state.step = ck.adam_step;
        self.trainer.restore_scaler(ck.scaler);
        self.trainer.restore_generation(ck.adam_step);
        Ok(())
    }

    fn generation(&self) -> u64 {
        self.trainer.generation()
    }

    fn name(&self) -> &str {
        "pipeline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit_comm::Cluster;
    use orbit_tensor::init::Rng;
    use orbit_vit::loss::lat_weights;

    fn make_batch(cfg: &VitConfig, n: usize) -> Batch {
        let mut rng = Rng::seed(31);
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
    fn pipeline_matches_reference() {
        let cfg = VitConfig::test_tiny(); // 2 layers -> up to 2 stages
        let batch = make_batch(&cfg, 3);
        let w = lat_weights(cfg.dims.img_h);
        let opt = AdamW::default();
        let mut reference = VitModel::init(cfg, 42);
        let mut state = reference.init_adam_state();
        let ref_losses: Vec<f32> = (0..3)
            .map(|_| reference.train_step(&batch, &w, &opt, &mut state))
            .collect();
        for stages in [1usize, 2] {
            let results = Cluster::frontier().run(stages, |ctx| {
                let mut e = PipelineEngine::new(ctx, cfg, opt, TrainOptions::none(), 42).unwrap();
                (0..3)
                    .map(|_| e.train_step(ctx, &batch).unwrap().loss)
                    .collect::<Vec<_>>()
            });
            for losses in &results {
                for (i, (a, b)) in losses.iter().zip(&ref_losses).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-3 * b.abs().max(1.0),
                        "stages={stages} step {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn rejects_more_stages_than_layers() {
        let cfg = VitConfig::test_tiny(); // 2 layers
        Cluster::frontier().run(3, |ctx| {
            let _ = PipelineEngine::new(ctx, cfg, AdamW::default(), TrainOptions::none(), 1);
        });
    }

    #[test]
    fn stage_memory_smaller_than_whole_model() {
        let cfg = VitConfig::test_tiny();
        let whole = Cluster::frontier().run(1, |ctx| {
            let _e =
                PipelineEngine::new(ctx, cfg, AdamW::default(), TrainOptions::none(), 1).unwrap();
            ctx.device.in_use()
        })[0];
        let staged = Cluster::frontier().run(2, |ctx| {
            let _e =
                PipelineEngine::new(ctx, cfg, AdamW::default(), TrainOptions::none(), 1).unwrap();
            ctx.device.in_use()
        });
        for s in staged {
            assert!(s < whole, "stage persistent {s} !< whole {whole}");
        }
    }
}
