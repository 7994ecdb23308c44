//! Variable tokenization and cross-attention aggregation (paper Fig. 1).
//!
//! Each climate variable's `H x W` field is independently patchified and
//! embedded with its own weights; then, per spatial token, a learnable
//! query cross-attends over the `C` channel embeddings to produce a single
//! embedding per token. This is the ClimaX front-end that lets one model
//! consume heterogeneous variable sets.

use crate::block::Param;
use crate::config::VitConfig;
use orbit_tensor::init::Rng;
use orbit_tensor::kernels::{
    linear, linear_backward, softmax_row, softmax_row_backward, unfold_patches,
};
use orbit_tensor::{matmul_nt, matmul_tn_acc, Precision, Tensor};

/// Per-variable patch embedding.
#[derive(Debug, Clone)]
pub struct VariableTokenizer {
    /// One `(p*p) x d` weight per channel.
    pub weights: Vec<Param>,
    /// One `1 x d` bias per channel.
    pub biases: Vec<Param>,
    pub patch: usize,
    pub precision: Precision,
}

/// Cache for the tokenizer backward: the unfolded patches per channel.
pub struct TokenizerCache {
    patches: Vec<Tensor>,
}

impl VariableTokenizer {
    pub fn init(cfg: &VitConfig, rng: &mut Rng) -> Self {
        let d = cfg.dims.embed;
        let pp = cfg.dims.patch * cfg.dims.patch;
        let weights = (0..cfg.dims.channels)
            .map(|i| {
                let mut r = rng.derive(1000 + i as u64);
                Param::new(r.trunc_normal_tensor(pp, d, cfg.init_std))
            })
            .collect();
        let biases = (0..cfg.dims.channels)
            .map(|_| Param::new(Tensor::zeros(1, d)))
            .collect();
        VariableTokenizer {
            weights,
            biases,
            patch: cfg.dims.patch,
            precision: cfg.precision,
        }
    }

    /// Embed one observation: `channels` images of `H x W` -> per-channel
    /// token embeddings (`tokens x d` each).
    pub fn forward(&self, images: &[Tensor]) -> (Vec<Tensor>, TokenizerCache) {
        assert_eq!(images.len(), self.weights.len(), "channel count mismatch");
        let mut embeddings = Vec::with_capacity(images.len());
        let mut patches = Vec::with_capacity(images.len());
        for (i, img) in images.iter().enumerate() {
            let p = unfold_patches(img, self.patch);
            let e = linear(
                &p,
                &self.weights[i].value,
                Some(&self.biases[i].value),
                self.precision,
            );
            embeddings.push(e);
            patches.push(p);
        }
        (embeddings, TokenizerCache { patches })
    }

    /// Backward: accumulate per-variable weight grads. Input-image grads
    /// are not needed (images are data), so they are dropped.
    pub fn backward(&mut self, cache: &TokenizerCache, d_embeddings: &[Tensor]) {
        assert_eq!(d_embeddings.len(), self.weights.len());
        for (i, de) in d_embeddings.iter().enumerate() {
            let g = linear_backward(&cache.patches[i], &self.weights[i].value, de, true);
            self.weights[i].accumulate(&g.dw);
            self.biases[i].accumulate(&g.db.expect("bias grad"));
        }
    }

    pub fn visit_params(&mut self, v: &mut dyn FnMut(&str, &mut Param)) {
        for (i, p) in self.weights.iter_mut().enumerate() {
            v(&format!("tokenizer.w{i}"), p);
        }
        for (i, p) in self.biases.iter_mut().enumerate() {
            v(&format!("tokenizer.b{i}"), p);
        }
    }
}

/// Cross-attention channel aggregation: a learnable query pools the C
/// channel embeddings at each spatial token.
///
/// Every token's attention is one query over `C` keys, so the whole
/// sequence runs as plain loops over `tokens x heads` plus one `Wo` GEMM
/// each way. The loops do, per token, exactly the arithmetic of the
/// reference attention path (`mha_forward`/`mha_backward` with one query
/// row): every accumulator starts at `0.0` and adds in ascending index
/// order, with the matmul kernels' `a == 0.0` skips, the scale applied
/// after the dot product, and the softmax row kernels themselves. Results
/// are bit-identical to running that path token by token.
#[derive(Debug, Clone)]
pub struct VariableAggregation {
    /// Learnable query, `1 x d`.
    pub query: Param,
    pub wq: Param,
    pub wk: Param,
    pub wv: Param,
    pub wo: Param,
    pub heads: usize,
    pub precision: Precision,
}

/// Cache for the aggregation backward.
pub struct AggregationCache {
    /// Stacked channel embeddings, `(C * tokens) x d`, channel-major.
    stacked: Tensor,
    /// Projected keys/values for the full stack, same layout.
    k: Tensor,
    v: Tensor,
    /// Projected query (shared across tokens), `1 x d`.
    q: Tensor,
    /// Attention probabilities, `tokens x (heads * C)`: head `h` of token
    /// `t` is row `t`, columns `h * C .. (h + 1) * C`.
    probs: Tensor,
    /// Attention output, the input to `Wo`, `tokens x d`.
    attn: Tensor,
    channels: usize,
    tokens: usize,
}

impl VariableAggregation {
    pub fn init(cfg: &VitConfig, rng: &mut Rng) -> Self {
        let d = cfg.dims.embed;
        let std = cfg.init_std;
        VariableAggregation {
            query: Param::new(rng.trunc_normal_tensor(1, d, std)),
            wq: Param::new(rng.trunc_normal_tensor(d, d, std)),
            wk: Param::new(rng.trunc_normal_tensor(d, d, std)),
            wv: Param::new(rng.trunc_normal_tensor(d, d, std)),
            wo: Param::new(rng.trunc_normal_tensor(d, d, std)),
            heads: cfg.dims.heads,
            precision: cfg.precision,
        }
    }

    /// Aggregate per-channel embeddings (`C` tensors of `tokens x d`) into
    /// one `tokens x d` embedding.
    pub fn forward(&self, embeddings: &[Tensor]) -> (Tensor, AggregationCache) {
        let channels = embeddings.len();
        assert!(channels > 0, "aggregation needs at least one channel");
        let (tokens, d) = embeddings[0].shape();
        for (c, e) in embeddings.iter().enumerate() {
            assert_eq!(
                e.shape(),
                (tokens, d),
                "aggregation: channel {c} embedding must be {tokens}x{d}"
            );
        }
        let heads = self.heads;
        assert!(
            heads > 0 && d % heads == 0,
            "aggregation: heads ({heads}) must divide the embedding width ({d})"
        );
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let stacked = Tensor::concat_rows(&embeddings.iter().collect::<Vec<_>>());
        let k = linear(&stacked, &self.wk.value, None, self.precision);
        let v = linear(&stacked, &self.wv.value, None, self.precision);
        let q = linear(&self.query.value, &self.wq.value, None, self.precision);
        let mut probs = Tensor::zeros(tokens, heads * channels);
        let mut attn = Tensor::zeros(tokens, d);
        let mut scores = vec![0.0f32; channels];
        for t in 0..tokens {
            for h in 0..heads {
                let cols = h * dh..(h + 1) * dh;
                let qh = &q.row(0)[cols.clone()];
                for (c, s) in scores.iter_mut().enumerate() {
                    let kh = &k.row(c * tokens + t)[cols.clone()];
                    let mut acc = 0.0f32;
                    for (&a, &b) in qh.iter().zip(kh) {
                        acc += a * b;
                    }
                    *s = acc * scale;
                }
                let p = &mut probs.row_mut(t)[h * channels..(h + 1) * channels];
                softmax_row(&scores, p);
                let out = &mut attn.row_mut(t)[cols.clone()];
                for (c, &pc) in p.iter().enumerate() {
                    if pc == 0.0 {
                        continue;
                    }
                    let vh = &v.row(c * tokens + t)[cols.clone()];
                    for (o, &vv) in out.iter_mut().zip(vh) {
                        *o += pc * vv;
                    }
                }
            }
        }
        let out = linear(&attn, &self.wo.value, None, self.precision);
        (
            out,
            AggregationCache {
                stacked,
                k,
                v,
                q,
                probs,
                attn,
                channels,
                tokens,
            },
        )
    }

    /// Backward: returns gradients for the per-channel embeddings.
    pub fn backward(&mut self, cache: &AggregationCache, dy: &Tensor) -> Vec<Tensor> {
        let (channels, tokens, heads) = (cache.channels, cache.tokens, self.heads);
        let d = cache.attn.cols();
        assert_eq!(dy.shape(), (tokens, d), "aggregation backward: dy shape");
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();

        // `Wo` for the whole sequence. `dWo` lands in `wo.grad` token by
        // token in ascending order, as per-token accumulation did. That path
        // added `0.0 + a·dy` where this adds `a·dy` (or skips `a == 0.0`);
        // the two differ only on a gradient holding -0.0, which a gradient
        // accumulated from +0.0 never does.
        let d_attn = matmul_nt(dy, &self.wo.value);
        matmul_tn_acc(&cache.attn, dy, &mut self.wo.grad);

        let mut dk_full = Tensor::zeros(channels * tokens, d);
        let mut dv_full = Tensor::zeros(channels * tokens, d);
        let mut dq_total = Tensor::zeros(1, d);
        // Per-token scratch, reused: token t's query gradient is summed
        // whole before it joins `dq_total`, which keeps the token order.
        let mut dq_t = vec![0.0f32; d];
        let mut d_probs = vec![0.0f32; channels];
        let mut d_scores = vec![0.0f32; channels];
        let q = cache.q.row(0);
        for t in 0..tokens {
            dq_t.fill(0.0);
            for h in 0..heads {
                let cols = h * dh..(h + 1) * dh;
                let d_oh = &d_attn.row(t)[cols.clone()];
                let p = &cache.probs.row(t)[h * channels..(h + 1) * channels];
                // out = probs · v
                for (c, (dp, &pc)) in d_probs.iter_mut().zip(p).enumerate() {
                    let row = c * tokens + t;
                    let vh = &cache.v.row(row)[cols.clone()];
                    let mut acc = 0.0f32;
                    for (&a, &b) in d_oh.iter().zip(vh) {
                        acc += a * b;
                    }
                    *dp = acc;
                    if pc != 0.0 {
                        let dv = &mut dv_full.row_mut(row)[cols.clone()];
                        for (o, &g) in dv.iter_mut().zip(d_oh) {
                            *o += pc * g;
                        }
                    }
                }
                // probs = softmax(scale · q kᵀ)
                softmax_row_backward(p, &d_probs, &mut d_scores);
                for s in d_scores.iter_mut() {
                    *s *= scale;
                }
                let dq_h = &mut dq_t[cols.clone()];
                let qh = &q[cols.clone()];
                for (c, &ds) in d_scores.iter().enumerate() {
                    if ds == 0.0 {
                        continue;
                    }
                    let row = c * tokens + t;
                    let kh = &cache.k.row(row)[cols.clone()];
                    for (o, &kv) in dq_h.iter_mut().zip(kh) {
                        *o += ds * kv;
                    }
                    let dk = &mut dk_full.row_mut(row)[cols.clone()];
                    for (o, &qv) in dk.iter_mut().zip(qh) {
                        *o += ds * qv;
                    }
                }
            }
            for (acc, &g) in dq_total.row_mut(0).iter_mut().zip(&dq_t) {
                *acc += g;
            }
        }
        let gq = linear_backward(&self.query.value, &self.wq.value, &dq_total, false);
        self.wq.accumulate(&gq.dw);
        self.query.accumulate(&gq.dx);
        let gk = linear_backward(&cache.stacked, &self.wk.value, &dk_full, false);
        self.wk.accumulate(&gk.dw);
        let gv = linear_backward(&cache.stacked, &self.wv.value, &dv_full, false);
        self.wv.accumulate(&gv.dw);
        let mut d_stacked = gk.dx;
        d_stacked.add_assign(&gv.dx);
        // Unstack back into per-channel gradients.
        (0..channels)
            .map(|c| d_stacked.slice_rows(c * tokens, (c + 1) * tokens))
            .collect()
    }

    pub fn visit_params(&mut self, v: &mut dyn FnMut(&str, &mut Param)) {
        v("agg.query", &mut self.query);
        v("agg.wq", &mut self.wq);
        v("agg.wk", &mut self.wk);
        v("agg.wv", &mut self.wv);
        v("agg.wo", &mut self.wo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit_tensor::kernels::attention::{mha_backward, mha_forward};
    use orbit_tensor::kernels::fd::{assert_grad_close, numerical_grad};

    fn cfg() -> VitConfig {
        VitConfig::test_tiny()
    }

    fn images(rng: &mut Rng, cfg: &VitConfig) -> Vec<Tensor> {
        (0..cfg.dims.channels)
            .map(|_| rng.normal_tensor(cfg.dims.img_h, cfg.dims.img_w, 1.0))
            .collect()
    }

    #[test]
    fn tokenizer_shapes() {
        let c = cfg();
        let mut rng = Rng::seed(11);
        let tok = VariableTokenizer::init(&c, &mut rng);
        let imgs = images(&mut rng, &c);
        let (embs, _) = tok.forward(&imgs);
        assert_eq!(embs.len(), c.dims.channels);
        for e in &embs {
            assert_eq!(e.shape(), (c.tokens(), c.dims.embed));
        }
    }

    #[test]
    fn tokenizer_per_variable_weights_are_independent() {
        let c = cfg();
        let mut rng = Rng::seed(12);
        let tok = VariableTokenizer::init(&c, &mut rng);
        assert_ne!(tok.weights[0].value, tok.weights[1].value);
    }

    #[test]
    fn tokenizer_grads_match_fd() {
        let c = cfg();
        let mut rng = Rng::seed(13);
        let mut tok = VariableTokenizer::init(&c, &mut rng);
        let imgs = images(&mut rng, &c);
        let masks: Vec<Tensor> = (0..c.dims.channels)
            .map(|_| rng.normal_tensor(c.tokens(), c.dims.embed, 1.0))
            .collect();
        let (_, cache) = tok.forward(&imgs);
        tok.backward(&cache, &masks);
        let analytic = tok.weights[1].grad.clone();
        let base = tok.weights[1].value.clone();
        let numerical = numerical_grad(
            &base,
            |w_| {
                let mut t2 = tok.clone();
                t2.weights[1].value = w_.clone();
                let (embs, _) = t2.forward(&imgs);
                embs.iter()
                    .zip(&masks)
                    .map(|(e, m)| e.hadamard(m).sum())
                    .sum()
            },
            1e-3,
        );
        assert_grad_close(&analytic, &numerical, 3e-2);
    }

    #[test]
    fn aggregation_shapes_and_grads() {
        let c = cfg();
        let mut rng = Rng::seed(14);
        let mut agg = VariableAggregation::init(&c, &mut rng);
        let embs: Vec<Tensor> = (0..c.dims.channels)
            .map(|_| rng.normal_tensor(c.tokens(), c.dims.embed, 1.0))
            .collect();
        let m = rng.normal_tensor(c.tokens(), c.dims.embed, 1.0);
        let (y, cache) = agg.forward(&embs);
        assert_eq!(y.shape(), (c.tokens(), c.dims.embed));
        let d_embs = agg.backward(&cache, &m);
        assert_eq!(d_embs.len(), c.dims.channels);

        // FD check on the embedding gradient of channel 0.
        let numerical = numerical_grad(
            &embs[0],
            |e_| {
                let mut e2: Vec<Tensor> = embs.clone();
                e2[0] = e_.clone();
                agg.forward(&e2).0.hadamard(&m).sum()
            },
            1e-3,
        );
        assert_grad_close(&d_embs[0], &numerical, 4e-2);

        // FD check on the learnable query gradient.
        let analytic_q = agg.query.grad.clone();
        let numerical_q = numerical_grad(
            &agg.query.value.clone(),
            |q_| {
                let mut a2 = agg.clone();
                a2.query.value = q_.clone();
                a2.forward(&embs).0.hadamard(&m).sum()
            },
            1e-3,
        );
        assert_grad_close(&analytic_q, &numerical_q, 4e-2);
    }

    #[test]
    fn aggregation_is_permutation_sensitive_via_weights_only() {
        // Cross-attention is permutation-equivariant over channels when
        // keys/values are permuted together: output must be identical.
        let c = cfg();
        let mut rng = Rng::seed(15);
        let agg = VariableAggregation::init(&c, &mut rng);
        let embs: Vec<Tensor> = (0..c.dims.channels)
            .map(|_| rng.normal_tensor(c.tokens(), c.dims.embed, 1.0))
            .collect();
        let (y1, _) = agg.forward(&embs);
        let mut shuffled = embs.clone();
        shuffled.rotate_left(1);
        let (y2, _) = agg.forward(&shuffled);
        assert!(
            y1.allclose(&y2, 1e-4, 1e-5),
            "channel pooling is order-invariant"
        );
    }

    /// The per-token aggregation, built from the public attention and
    /// linear kernels: each token runs its own one-query `mha_forward`, its
    /// own 1-row `Wo` and, backward, its own `mha_backward` and `dWo`.
    /// Runs one forward and backward, accumulating into `agg`'s grads, and
    /// returns the output and the per-channel embedding grads.
    fn per_token_oracle(
        agg: &mut VariableAggregation,
        embs: &[Tensor],
        dy: &Tensor,
    ) -> (Tensor, Vec<Tensor>) {
        let channels = embs.len();
        let (tokens, d) = embs[0].shape();
        let stacked = Tensor::concat_rows(&embs.iter().collect::<Vec<_>>());
        let k = linear(&stacked, &agg.wk.value, None, agg.precision);
        let v = linear(&stacked, &agg.wv.value, None, agg.precision);
        let q = linear(&agg.query.value, &agg.wq.value, None, agg.precision);
        let mut out = Tensor::zeros(tokens, d);
        let mut dk_full = Tensor::zeros(channels * tokens, d);
        let mut dv_full = Tensor::zeros(channels * tokens, d);
        let mut dq_total = Tensor::zeros(1, d);
        for t in 0..tokens {
            let mut kt = Tensor::zeros(channels, d);
            let mut vt = Tensor::zeros(channels, d);
            for c in 0..channels {
                kt.row_mut(c).copy_from_slice(k.row(c * tokens + t));
                vt.row_mut(c).copy_from_slice(v.row(c * tokens + t));
            }
            let (a, mha) = mha_forward(&q, &kt, &vt, agg.heads, None);
            let o = linear(&a, &agg.wo.value, None, agg.precision);
            out.row_mut(t).copy_from_slice(o.row(0));

            let go = linear_backward(&a, &agg.wo.value, &dy.slice_rows(t, t + 1), false);
            agg.wo.accumulate(&go.dw);
            let mg = mha_backward(&mha, None, &go.dx);
            dq_total.add_assign(&mg.dq);
            for c in 0..channels {
                dk_full
                    .row_mut(c * tokens + t)
                    .copy_from_slice(mg.dk.row(c));
                dv_full
                    .row_mut(c * tokens + t)
                    .copy_from_slice(mg.dv.row(c));
            }
        }
        let gq = linear_backward(&agg.query.value, &agg.wq.value, &dq_total, false);
        agg.wq.accumulate(&gq.dw);
        agg.query.accumulate(&gq.dx);
        let gk = linear_backward(&stacked, &agg.wk.value, &dk_full, false);
        agg.wk.accumulate(&gk.dw);
        let gv = linear_backward(&stacked, &agg.wv.value, &dv_full, false);
        agg.wv.accumulate(&gv.dw);
        let mut d_stacked = gk.dx;
        d_stacked.add_assign(&gv.dx);
        let d_embs = (0..channels)
            .map(|c| d_stacked.slice_rows(c * tokens, (c + 1) * tokens))
            .collect();
        (out, d_embs)
    }

    /// Three samples through the whole-sequence aggregation and through the
    /// per-token oracle, accumulating into the same parameters: outputs,
    /// embedding grads and all five parameter grads must agree to the bit.
    fn assert_matches_per_token_oracle(mut c: VitConfig, prec: Precision) {
        c.precision = prec;
        // Wide init so the softmax over channels is far from uniform.
        c.init_std = 0.5;
        let mut rng = Rng::seed(16);
        let mut fast = VariableAggregation::init(&c, &mut rng);
        let mut slow = fast.clone();
        for sample in 0..3 {
            let embs: Vec<Tensor> = (0..c.dims.channels)
                .map(|_| rng.normal_tensor(c.tokens(), c.dims.embed, 1.0))
                .collect();
            let dy = rng.normal_tensor(c.tokens(), c.dims.embed, 1.0);
            let (y, cache) = fast.forward(&embs);
            let d_embs = fast.backward(&cache, &dy);
            let (y_ref, d_ref) = per_token_oracle(&mut slow, &embs, &dy);
            assert_eq!(y, y_ref, "output, sample {sample} {prec:?}");
            for (ch, (a, b)) in d_embs.iter().zip(&d_ref).enumerate() {
                assert_eq!(a, b, "d_embs[{ch}], sample {sample} {prec:?}");
            }
        }
        let mut grads = Vec::new();
        fast.visit_params(&mut |name, p| grads.push((name.to_string(), p.grad.clone())));
        let mut i = 0;
        slow.visit_params(&mut |name, p| {
            assert_eq!(grads[i].0, name);
            assert_eq!(grads[i].1, p.grad, "{name} grad {prec:?}");
            i += 1;
        });
        assert_eq!(i, 5);
    }

    #[test]
    fn aggregation_is_bit_identical_to_per_token_oracle_tiny() {
        for prec in [Precision::F32, Precision::BF16Mixed] {
            assert_matches_per_token_oracle(cfg(), prec);
        }
    }

    #[test]
    fn aggregation_is_bit_identical_to_per_token_oracle_longseq() {
        // The `train_longseq` front-end: 8 channels of a 64x128 grid at
        // patch 4 (512 tokens), embed 128, 2 heads.
        let c = VitConfig::new(orbit_frontier::ModelDims {
            embed: 128,
            layers: 2,
            heads: 2,
            channels: 8,
            patch: 4,
            img_h: 64,
            img_w: 128,
            out_channels: 8,
        });
        assert_eq!(c.tokens(), 512);
        for prec in [Precision::F32, Precision::BF16Mixed] {
            assert_matches_per_token_oracle(c, prec);
        }
    }

    #[test]
    #[should_panic(expected = "channel 1 embedding must be")]
    fn aggregation_rejects_mismatched_channel_shape() {
        let c = cfg();
        let mut rng = Rng::seed(17);
        let agg = VariableAggregation::init(&c, &mut rng);
        let mut embs: Vec<Tensor> = (0..c.dims.channels)
            .map(|_| rng.normal_tensor(c.tokens(), c.dims.embed, 1.0))
            .collect();
        embs[1] = rng.normal_tensor(c.tokens() - 1, c.dims.embed, 1.0);
        let _ = agg.forward(&embs);
    }

    #[test]
    #[should_panic(expected = "must divide the embedding width")]
    fn aggregation_rejects_heads_not_dividing_width() {
        let c = cfg();
        let mut rng = Rng::seed(18);
        let mut agg = VariableAggregation::init(&c, &mut rng);
        agg.heads = 3;
        let embs: Vec<Tensor> = (0..c.dims.channels)
            .map(|_| rng.normal_tensor(c.tokens(), c.dims.embed, 1.0))
            .collect();
        let _ = agg.forward(&embs);
    }
}
