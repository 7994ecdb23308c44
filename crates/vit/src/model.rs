//! The assembled ORBIT ViT and its single-device reference trainer.

use crate::block::{BlockCache, Param, TransformerBlock};
use crate::config::VitConfig;
use crate::loss::{weighted_mse, weighted_mse_grad};
use crate::tokenizer::{AggregationCache, TokenizerCache, VariableAggregation, VariableTokenizer};
use orbit_tensor::init::Rng;
use orbit_tensor::kernels::{
    fold_patches, linear, linear_backward, unfold_patches, AdamState, AdamW,
};
use orbit_tensor::{Tensor, Workspace};

/// One training batch: per-sample input channel images and target output
/// channel images.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// `inputs[s][c]` is sample `s`'s image for input channel `c`.
    pub inputs: Vec<Vec<Tensor>>,
    /// `targets[s][o]` is sample `s`'s image for output channel `o`.
    pub targets: Vec<Vec<Tensor>>,
}

impl Batch {
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// Front-end (tokenizer + aggregation) caches.
pub struct FrontCache {
    tok: TokenizerCache,
    agg: AggregationCache,
}

/// Per-sample forward state (caches for backward + predictions).
pub struct Forward {
    front: FrontCache,
    blocks: Vec<BlockCache>,
    /// Final block output (input to the head).
    top: Tensor,
    /// Predicted images, one per output channel.
    pub preds: Vec<Tensor>,
}

/// The full model.
#[derive(Debug, Clone)]
pub struct VitModel {
    pub cfg: VitConfig,
    pub tokenizer: VariableTokenizer,
    pub aggregation: VariableAggregation,
    /// Learnable positional embedding, `tokens x d`.
    pub pos_embed: Param,
    pub blocks: Vec<TransformerBlock>,
    pub head_w: Param,
    pub head_b: Param,
    /// Scratch arena shared by every block's kernels: after the first
    /// step the pool is warm and the hot path stops allocating. Clones of
    /// the model share the pool (it holds no model state — only recycled
    /// scratch buffers), and it is deliberately not serialized.
    pub ws: Workspace,
}

impl VitModel {
    /// Deterministic initialization from a seed.
    pub fn init(cfg: VitConfig, seed: u64) -> Self {
        let master = Rng::seed(seed);
        let mut rng_tok = master.derive(1);
        let mut rng_agg = master.derive(2);
        let mut rng_pos = master.derive(3);
        let mut rng_head = master.derive(4);
        let d = cfg.dims.embed;
        let out = cfg.dims.out_channels * cfg.dims.patch * cfg.dims.patch;
        let blocks = (0..cfg.dims.layers)
            .map(|l| {
                let mut r = master.derive(100 + l as u64);
                TransformerBlock::init(&cfg, &mut r)
            })
            .collect();
        VitModel {
            tokenizer: VariableTokenizer::init(&cfg, &mut rng_tok),
            aggregation: VariableAggregation::init(&cfg, &mut rng_agg),
            pos_embed: Param::new(rng_pos.trunc_normal_tensor(cfg.tokens(), d, cfg.init_std)),
            blocks,
            head_w: Param::new(rng_head.trunc_normal_tensor(d, out, cfg.init_std)),
            head_b: Param::new(Tensor::zeros(1, out)),
            ws: Workspace::new(),
            cfg,
        }
    }

    /// Front-end forward: tokenizer + aggregation + positional embedding.
    /// Returns the block-0 input `x0` and the caches needed for
    /// [`Self::front_backward`].
    pub fn front_forward(&self, images: &[Tensor]) -> (Tensor, FrontCache) {
        let (embs, tok) = self.tokenizer.forward(images);
        let (agg_out, agg) = self.aggregation.forward(&embs);
        let x0 = agg_out.add(&self.pos_embed.value);
        (x0, FrontCache { tok, agg })
    }

    /// Front-end backward: accumulates tokenizer/aggregation/pos-embed
    /// gradients from `dL/dx0`.
    pub fn front_backward(&mut self, cache: &FrontCache, dx0: &Tensor) {
        self.pos_embed.accumulate(dx0);
        let d_embs = self.aggregation.backward(&cache.agg, dx0);
        self.tokenizer.backward(&cache.tok, &d_embs);
    }

    /// Head forward: project the final block output to per-channel images.
    pub fn head_forward(&self, top: &Tensor) -> Vec<Tensor> {
        let out = linear(
            top,
            &self.head_w.value,
            Some(&self.head_b.value),
            self.cfg.precision,
        );
        let pp = self.cfg.dims.patch * self.cfg.dims.patch;
        (0..self.cfg.dims.out_channels)
            .map(|oc| {
                let patches = out.slice_cols(oc * pp, (oc + 1) * pp);
                fold_patches(
                    &patches,
                    self.cfg.dims.patch,
                    self.cfg.dims.img_h,
                    self.cfg.dims.img_w,
                )
            })
            .collect()
    }

    /// Head backward: accumulates head gradients and returns `dL/dtop`.
    pub fn head_backward(&mut self, top: &Tensor, d_preds: &[Tensor]) -> Tensor {
        let d_out = Tensor::concat_cols(
            &d_preds
                .iter()
                .map(|g| unfold_patches(g, self.cfg.dims.patch))
                .collect::<Vec<_>>()
                .iter()
                .collect::<Vec<_>>(),
        );
        let gh = linear_backward(top, &self.head_w.value, &d_out, true);
        self.head_w.accumulate(&gh.dw);
        self.head_b.accumulate(&gh.db.expect("bias grad"));
        gh.dx
    }

    /// Forward pass for one observation (a `C`-vector of `H x W` images).
    pub fn forward(&self, images: &[Tensor]) -> Forward {
        let (x0, front) = self.front_forward(images);
        let mut x = x0.clone();
        let mut caches = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let (y, c) = b.forward_ws(&x, &self.ws);
            caches.push(c);
            x = y;
        }
        let preds = self.head_forward(&x);
        let _ = x0;
        Forward {
            front,
            blocks: caches,
            top: x,
            preds,
        }
    }

    /// Backward pass for one observation given `dL/dpred` per output
    /// channel. Accumulates parameter gradients.
    pub fn backward(&mut self, fwd: &Forward, d_preds: &[Tensor]) {
        let mut dx = self.head_backward(&fwd.top, d_preds);
        let ws = self.ws.clone();
        for (b, c) in self.blocks.iter_mut().zip(fwd.blocks.iter()).rev() {
            dx = b.backward_ws(c, &dx, &ws);
        }
        self.front_backward(&fwd.front, &dx);
    }

    /// Memory-lean forward for activation checkpointing: stores only the
    /// block-boundary activations; [`Self::backward_ckpt`] re-runs each
    /// block's forward to rebuild its cache (paper Sec. III-B).
    pub fn forward_ckpt(&self, images: &[Tensor]) -> (Vec<Tensor>, Vec<Tensor>) {
        let (x0, _) = self.front_forward(images);
        let mut x = x0;
        let mut boundaries = vec![x.clone()];
        for b in &self.blocks {
            let (y, _) = b.forward_ws(&x, &self.ws);
            boundaries.push(y.clone());
            x = y;
        }
        let preds = self.head_forward(&x);
        (preds, boundaries)
    }

    /// Backward matching [`Self::forward_ckpt`]: recomputes per-block
    /// caches from the stored boundaries. The tokenizer/aggregation stage
    /// is also recomputed.
    pub fn backward_ckpt(&mut self, images: &[Tensor], boundaries: &[Tensor], d_preds: &[Tensor]) {
        let top = boundaries.last().expect("boundaries include the top");
        let mut dx = self.head_backward(top, d_preds);
        let ws = self.ws.clone();
        for l in (0..self.blocks.len()).rev() {
            // Recompute this block's cache from its input boundary.
            let (_, cache) = self.blocks[l].forward_ws(&boundaries[l], &ws);
            dx = self.blocks[l].backward_ws(&cache, &dx, &ws);
        }
        // Recompute the front-end caches.
        let (_, front) = self.front_forward(images);
        self.front_backward(&front, &dx);
    }

    /// Visit all parameters in deterministic order.
    pub fn visit_params(&mut self, v: &mut dyn FnMut(&str, &mut Param)) {
        self.tokenizer.visit_params(v);
        self.aggregation.visit_params(v);
        v("pos_embed", &mut self.pos_embed);
        for (i, b) in self.blocks.iter_mut().enumerate() {
            b.visit_params(&format!("block{i}"), v);
        }
        v("head_w", &mut self.head_w);
        v("head_b", &mut self.head_b);
    }

    /// Total parameter count (actual tensors).
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, p| n += p.len());
        n
    }

    /// Zero all gradient accumulators.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |_, p| p.zero_grad());
    }

    /// Flatten all parameter values in visit order.
    pub fn flatten_params(&mut self) -> Vec<f32> {
        let mut flat = Vec::new();
        self.visit_params(&mut |_, p| flat.extend_from_slice(p.value.data()));
        flat
    }

    /// Flatten all gradients in visit order.
    pub fn flatten_grads(&mut self) -> Vec<f32> {
        let mut flat = Vec::new();
        self.visit_params(&mut |_, p| flat.extend_from_slice(p.grad.data()));
        flat
    }

    /// Load parameter values from a flat vector in visit order.
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        let mut off = 0;
        self.visit_params(&mut |_, p| {
            let n = p.len();
            p.value.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "flat parameter length mismatch");
    }

    /// Load gradients from a flat vector in visit order.
    pub fn load_flat_grads(&mut self, flat: &[f32]) {
        let mut off = 0;
        self.visit_params(&mut |_, p| {
            let n = p.len();
            p.grad.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "flat gradient length mismatch");
    }

    /// Fresh Adam state for the whole model (one state, flat layout).
    pub fn init_adam_state(&mut self) -> AdamState {
        AdamState::new(self.param_count())
    }

    /// Apply one AdamW update using flat state.
    pub fn adam_step(&mut self, opt: &AdamW, state: &mut AdamState) {
        let mut params = self.flatten_params();
        let grads = self.flatten_grads();
        opt.step(state, &mut params, &grads);
        self.load_flat_params(&params);
    }

    /// One reference training step: mean wMSE over the batch, gradient
    /// accumulation, AdamW update. Returns the batch loss.
    pub fn train_step(
        &mut self,
        batch: &Batch,
        lat_weights: &[f32],
        opt: &AdamW,
        state: &mut AdamState,
    ) -> f32 {
        assert!(!batch.is_empty());
        self.zero_grads();
        let scale = 1.0 / batch.len() as f32;
        let mut loss = 0.0;
        for (images, targets) in batch.inputs.iter().zip(&batch.targets) {
            let fwd = self.forward(images);
            loss += weighted_mse(&fwd.preds, targets, lat_weights) * scale;
            let mut d_preds = weighted_mse_grad(&fwd.preds, targets, lat_weights);
            for g in &mut d_preds {
                g.scale(scale);
            }
            self.backward(&fwd, &d_preds);
        }
        self.adam_step(opt, state);
        loss
    }

    /// Inference: predictions for one observation.
    pub fn predict(&self, images: &[Tensor]) -> Vec<Tensor> {
        self.forward(images).preds
    }

    /// Inference over a batch of observations (the serving path). The
    /// model math is per-sample, so a batched forward is exactly the
    /// per-sample forwards grouped — batching changes scheduling, never
    /// numerics, and the serving layer's batched-vs-unbatched
    /// bit-identity tests pin that down.
    pub fn predict_batch(&self, inputs: &[Vec<Tensor>]) -> Vec<Vec<Tensor>> {
        inputs.iter().map(|images| self.predict(images)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::lat_weights;
    use orbit_tensor::kernels::fd::{assert_grad_close, numerical_grad};

    fn cfg() -> VitConfig {
        VitConfig::test_tiny()
    }

    fn sample(rng: &mut Rng, c: &VitConfig) -> (Vec<Tensor>, Vec<Tensor>) {
        let imgs = (0..c.dims.channels)
            .map(|_| rng.normal_tensor(c.dims.img_h, c.dims.img_w, 1.0))
            .collect();
        let targets = (0..c.dims.out_channels)
            .map(|_| rng.normal_tensor(c.dims.img_h, c.dims.img_w, 1.0))
            .collect();
        (imgs, targets)
    }

    #[test]
    fn forward_produces_image_shaped_predictions() {
        let c = cfg();
        let model = VitModel::init(c, 42);
        let mut rng = Rng::seed(1);
        let (imgs, _) = sample(&mut rng, &c);
        let fwd = model.forward(&imgs);
        assert_eq!(fwd.preds.len(), c.dims.out_channels);
        for p in &fwd.preds {
            assert_eq!(p.shape(), (c.dims.img_h, c.dims.img_w));
            assert!(p.all_finite());
        }
        let _ = &fwd.top;
    }

    #[test]
    fn param_count_matches_closed_form() {
        let c = cfg();
        let mut model = VitModel::init(c, 42);
        assert_eq!(model.param_count() as u64, c.dims.param_count());
    }

    #[test]
    fn config_param_count_matches_model_with_and_without_qk_norm() {
        for qk_norm in [true, false] {
            let mut c = VitConfig::ladder(1, 8);
            c.qk_norm = qk_norm;
            let mut model = VitModel::init(c, 42);
            assert_eq!(model.param_count(), c.param_count(), "qk_norm {qk_norm}");
        }
    }

    #[test]
    fn flatten_load_roundtrip() {
        let c = cfg();
        let mut model = VitModel::init(c, 42);
        let flat = model.flatten_params();
        let mut model2 = VitModel::init(c, 99);
        assert_ne!(model2.flatten_params(), flat);
        model2.load_flat_params(&flat);
        assert_eq!(model2.flatten_params(), flat);
    }

    #[test]
    fn pos_embed_gradient_matches_fd() {
        let c = cfg();
        let mut model = VitModel::init(c, 42);
        let mut rng = Rng::seed(3);
        let (imgs, targets) = sample(&mut rng, &c);
        let w = lat_weights(c.dims.img_h);
        model.zero_grads();
        let fwd = model.forward(&imgs);
        let d_preds = weighted_mse_grad(&fwd.preds, &targets, &w);
        model.backward(&fwd, &d_preds);
        let analytic = model.pos_embed.grad.clone();
        let base = model.pos_embed.value.clone();
        let numerical = numerical_grad(
            &base,
            |pe| {
                let mut m2 = model.clone();
                m2.pos_embed.value = pe.clone();
                let f = m2.forward(&imgs);
                weighted_mse(&f.preds, &targets, &w)
            },
            1e-2,
        );
        assert_grad_close(&analytic, &numerical, 5e-2);
    }

    #[test]
    fn training_reduces_loss() {
        let c = cfg();
        let mut model = VitModel::init(c, 42);
        let mut rng = Rng::seed(4);
        let (imgs, targets) = sample(&mut rng, &c);
        let batch = Batch {
            inputs: vec![imgs],
            targets: vec![targets],
        };
        let w = lat_weights(c.dims.img_h);
        let opt = AdamW {
            lr: 1e-2,
            ..AdamW::default()
        };
        let mut state = model.init_adam_state();
        let first = model.train_step(&batch, &w, &opt, &mut state);
        let mut last = first;
        for _ in 0..20 {
            last = model.train_step(&batch, &w, &opt, &mut state);
        }
        assert!(
            last < 0.5 * first,
            "loss should drop when memorizing one sample: {first} -> {last}"
        );
    }

    #[test]
    fn checkpointed_backward_matches_standard() {
        let c = cfg();
        let mut rng = Rng::seed(5);
        let (imgs, targets) = sample(&mut rng, &c);
        let w = lat_weights(c.dims.img_h);

        let mut a = VitModel::init(c, 42);
        a.zero_grads();
        let fwd = a.forward(&imgs);
        let d_preds = weighted_mse_grad(&fwd.preds, &targets, &w);
        a.backward(&fwd, &d_preds);

        let mut b = VitModel::init(c, 42);
        b.zero_grads();
        let (preds, boundaries) = b.forward_ckpt(&imgs);
        // Same predictions...
        for (pa, pb) in fwd.preds.iter().zip(&preds) {
            assert!(pa.allclose(pb, 1e-5, 1e-6));
        }
        let d_preds2 = weighted_mse_grad(&preds, &targets, &w);
        b.backward_ckpt(&imgs, &boundaries, &d_preds2);
        // ...and the same gradients.
        let ga = a.flatten_grads();
        let gb = b.flatten_grads();
        for (x, y) in ga.iter().zip(&gb) {
            assert!((x - y).abs() <= 1e-5 + 1e-4 * y.abs(), "{x} vs {y}");
        }
    }

    #[test]
    fn steady_state_training_stops_allocating_scratch() {
        // After one warm-up step the model's workspace pool holds every
        // scratch shape the kernels need; further steps must be all hits.
        let c = cfg();
        let mut model = VitModel::init(c, 42);
        let mut rng = Rng::seed(8);
        let (imgs, targets) = sample(&mut rng, &c);
        let batch = Batch {
            inputs: vec![imgs],
            targets: vec![targets],
        };
        let w = lat_weights(c.dims.img_h);
        let opt = AdamW::default();
        let mut state = model.init_adam_state();
        model.train_step(&batch, &w, &opt, &mut state);
        let misses_after_warmup = model.ws.misses();
        for _ in 0..3 {
            model.train_step(&batch, &w, &opt, &mut state);
        }
        assert_eq!(
            model.ws.misses(),
            misses_after_warmup,
            "steady-state training must reuse pooled scratch, not allocate"
        );
    }

    #[test]
    fn deterministic_training() {
        let c = cfg();
        let mut rng = Rng::seed(6);
        let (imgs, targets) = sample(&mut rng, &c);
        let batch = Batch {
            inputs: vec![imgs],
            targets: vec![targets],
        };
        let w = lat_weights(c.dims.img_h);
        let opt = AdamW::default();
        let run = || {
            let mut m = VitModel::init(c, 42);
            let mut s = m.init_adam_state();
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(m.train_step(&batch, &w, &opt, &mut s));
            }
            (losses, m.flatten_params())
        };
        let (l1, p1) = run();
        let (l2, p2) = run();
        assert_eq!(l1, l2);
        assert_eq!(p1, p2);
    }
}
