//! GeLU and row-softmax with backward passes.
//!
//! The paper's feed-forward sub-layer is `GeLU(x A) B` and the attention
//! sub-layer is `softmax(Q K^T) V`; both nonlinearities sit *between* the
//! two sharded matrices of the Hybrid-STOP chain, which is why the chain
//! identity of Eqn. (2) still applies around them.

use crate::tensor::Tensor;

/// Exact GeLU using the error function: `gelu(x) = x * Phi(x)`.
///
/// We evaluate `Phi` through the tanh approximation used by the original
/// ViT/GPT codebases (and ClimaX), which is what "GeLU" means in the paper.
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of [`gelu_scalar`].
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044_715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// Element-wise GeLU.
pub fn gelu(x: &Tensor) -> Tensor {
    let data = x.data().iter().map(|&v| gelu_scalar(v)).collect();
    Tensor::from_vec(x.rows(), x.cols(), data)
}

/// Backward of [`gelu`]: `dx = dy * gelu'(x)`.
pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(x.shape(), dy.shape(), "gelu_backward shape mismatch");
    let data = x
        .data()
        .iter()
        .zip(dy.data())
        .map(|(&xv, &dv)| dv * gelu_grad_scalar(xv))
        .collect();
    Tensor::from_vec(x.rows(), x.cols(), data)
}

/// Numerically-stable softmax applied independently to each row.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        softmax_row(x.row(r), out.row_mut(r));
    }
    out
}

/// Softmax of one row: `out = softmax(x)`. The kernel behind
/// [`softmax_rows`], for callers that keep rows in their own buffers.
pub fn softmax_row(x: &[f32], out: &mut [f32]) {
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &v) in out.iter_mut().zip(x) {
        let e = (v - max).exp();
        *o = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Backward of [`softmax_rows`] given the *forward output* `y`:
/// `dx_i = y_i * (dy_i - sum_j dy_j y_j)` per row.
pub fn softmax_rows_backward(y: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(y.shape(), dy.shape(), "softmax backward shape mismatch");
    let mut dx = Tensor::zeros(y.rows(), y.cols());
    for r in 0..y.rows() {
        softmax_row_backward(y.row(r), dy.row(r), dx.row_mut(r));
    }
    dx
}

/// Backward of [`softmax_row`] for one row, given its output `y`.
pub fn softmax_row_backward(y: &[f32], dy: &[f32], dx: &mut [f32]) {
    let dot: f32 = y.iter().zip(dy).map(|(a, b)| a * b).sum();
    for ((o, &yv), &dv) in dx.iter_mut().zip(y).zip(dy) {
        *o = yv * (dv - dot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Rng;
    use crate::kernels::fd::{assert_grad_close, numerical_grad};

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
        // Large positive -> identity; large negative -> 0.
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_scalar(-10.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_fd() {
        let mut rng = Rng::seed(41);
        let x = rng.normal_tensor(4, 5, 1.5);
        let dy = Tensor::full(4, 5, 1.0);
        let g = gelu_backward(&x, &dy);
        let n = numerical_grad(&x, |x_| gelu(x_).sum(), 1e-3);
        assert_grad_close(&g, &n, 1e-2);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_stable() {
        let x = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let y = softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
        // Huge logits don't overflow thanks to max subtraction.
        assert!(y.all_finite());
        assert!((y.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_monotone_in_logits() {
        let x = Tensor::from_vec(1, 3, vec![0.0, 1.0, 2.0]);
        let y = softmax_rows(&x);
        assert!(y.get(0, 0) < y.get(0, 1));
        assert!(y.get(0, 1) < y.get(0, 2));
    }

    #[test]
    fn softmax_grad_matches_fd() {
        let mut rng = Rng::seed(43);
        let x = rng.normal_tensor(3, 4, 1.0);
        let m = rng.normal_tensor(3, 4, 1.0);
        let y = softmax_rows(&x);
        let dy = m.clone();
        let g = softmax_rows_backward(&y, &dy);
        let n = numerical_grad(&x, |x_| softmax_rows(x_).hadamard(&m).sum(), 1e-3);
        assert_grad_close(&g, &n, 2e-2);
    }

    #[test]
    fn softmax_grad_orthogonal_to_ones() {
        // Softmax output lives on the simplex, so its Jacobian annihilates
        // constant shifts: each row of dx must sum to ~0.
        let mut rng = Rng::seed(47);
        let x = rng.normal_tensor(5, 7, 2.0);
        let dy = rng.normal_tensor(5, 7, 1.0);
        let dx = softmax_rows_backward(&softmax_rows(&x), &dy);
        for r in 0..5 {
            let s: f32 = dx.row(r).iter().sum();
            assert!(s.abs() < 1e-5, "row {r} grad sum {s}");
        }
    }
}
