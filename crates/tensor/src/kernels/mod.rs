//! Layer kernels with explicit forward/backward pairs.
//!
//! Every kernel follows the same convention:
//! `forward(inputs, params) -> (output, Cache)` and
//! `backward(&Cache, dOutput) -> (dInputs, dParams)`.
//! Caches hold exactly what the backward pass needs; activation
//! checkpointing (paper Sec. III-B) drops caches and re-runs `forward`.

pub mod activation;
pub mod attention;
pub mod embed;
pub mod linear;
pub mod norm;
pub mod optimizer;

pub use activation::{
    gelu, gelu_backward, softmax_row, softmax_row_backward, softmax_rows, softmax_rows_backward,
};
pub use attention::{
    mha_backward, mha_backward_ws, mha_forward, mha_forward_path, mha_forward_ws, AttnPath,
    MhaCache, MhaGrads, QkNorm,
};
pub use embed::{fold_patches, unfold_patches};
pub use linear::{linear, linear_backward, LinearGrads};
pub use norm::{layernorm, layernorm_backward, LayerNormCache, LayerNormGrads};
pub use optimizer::{AdamState, AdamW};

pub mod fd {
    //! Finite-difference gradient checking, shared by kernel tests here and
    //! by the model/engine tests in downstream crates.
    use crate::tensor::Tensor;

    /// Central-difference numerical gradient of `f` w.r.t. `x`, where `f`
    /// returns a scalar loss.
    pub fn numerical_grad(x: &Tensor, mut f: impl FnMut(&Tensor) -> f32, eps: f32) -> Tensor {
        let mut g = Tensor::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(i, j, x.get(i, j) + eps);
                let mut xm = x.clone();
                xm.set(i, j, x.get(i, j) - eps);
                g.set(i, j, (f(&xp) - f(&xm)) / (2.0 * eps));
            }
        }
        g
    }

    /// Assert analytic and numerical gradients agree to mixed tolerance.
    pub fn assert_grad_close(analytic: &Tensor, numerical: &Tensor, tol: f32) {
        assert_eq!(analytic.shape(), numerical.shape());
        for i in 0..analytic.rows() {
            for j in 0..analytic.cols() {
                let a = analytic.get(i, j);
                let n = numerical.get(i, j);
                let denom = 1.0f32.max(a.abs()).max(n.abs());
                assert!(
                    (a - n).abs() / denom < tol,
                    "grad mismatch at ({i},{j}): analytic {a}, numerical {n}"
                );
            }
        }
    }
}
