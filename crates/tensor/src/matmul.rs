//! Blocked, packed, parallel GEMM.
//!
//! Each simulated GPU executes its shard's matmuls through these kernels.
//! Two code paths share every kernel:
//!
//! - a **legacy** `i-k-j` loop (output-row outer, reduction middle, output-col
//!   inner) for small problems, where the innermost loop streams both `B`'s
//!   row and `C`'s row — the cache-friendly order for row-major data;
//! - a **packed** path for large problems, one per transpose variant:
//!   - `C = A·B` ([`matmul_p`]) copies `B` into contiguous `KC x NC` panels
//!     (GEBP-style), then drives a 4x-unrolled inner kernel over `MC`-row
//!     chunks of `A`/`C` distributed across the [`crate::par`] pool;
//!   - `C = A·Bᵀ` ([`matmul_nt`]) interleaves 4 rows of `B` lane by lane so
//!     the inner loop runs 4 independent dot products at once;
//!   - `C = Aᵀ·B` ([`matmul_tn`], the weight gradient `dW = Xᵀ·dY`)
//!     transposes `A` into an `m x k` buffer with a cache-blocked copy and
//!     then runs the `A·B` GEBP kernel on it.
//!
//! Determinism is sacred here: for every output element the packed path
//! performs *exactly* the same additions in *exactly* the same (ascending
//! `k`) order as the legacy path, so the two paths are bit-identical and
//! path selection can depend on shape without perturbing any
//! engine-equivalence test. For NN that includes the `a == 0.0` skip; NT
//! keeps one accumulator per dot product, starting at zero, as the legacy
//! scalar dot does; TN reads `a[kk][i]` from the transposed copy at the same
//! ascending `kk` and keeps the NN skip, which is exactly the legacy TN loop.
//! All three variants choose their path with the same rule (`use_packed`).
//! Parallel dispatch is **work-based** (`m*k*n` mul-adds) rather than
//! row-based, so tall-skinny and short-wide shapes both dispatch sensibly.

use crate::bf16::{round_bf16, Precision};
use crate::par;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Mul-adds above which parallel dispatch overhead pays for itself.
const PAR_MIN_WORK: usize = 1 << 15;
/// Mul-adds above which panel-packing `B` pays for itself.
const PACK_MIN_WORK: usize = 1 << 17;
/// Minimum output rows for the packed path (packing amortizes across rows).
const PACK_MIN_ROWS: usize = 8;
/// Output-row chunk per pool task in the packed path.
const MC: usize = 64;
/// Reduction-dimension panel height.
const KC: usize = 128;
/// Output-column panel width.
const NC: usize = 256;

#[inline]
fn use_parallel(m: usize, k: usize, n: usize) -> bool {
    m >= 2 && m.saturating_mul(k).saturating_mul(n) >= PAR_MIN_WORK
}

#[inline]
fn use_packed(m: usize, k: usize, n: usize) -> bool {
    m >= PACK_MIN_ROWS && m.saturating_mul(k).saturating_mul(n) >= PACK_MIN_WORK
}

/// `C = A * B` where `A` is `m x k` and `B` is `k x n`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_p(a, b, Precision::F32)
}

/// `C = A * B` with the given precision mode.
///
/// In [`Precision::BF16Mixed`], every input element is rounded through
/// bfloat16 before use while the accumulator stays f32 — matching the
/// MI250X BF16 MFMA pipeline the paper runs on. The packed path rounds `B`
/// once at pack time (rounding is idempotent, so this is bit-identical to
/// rounding at every use).
pub fn matmul_p(a: &Tensor, b: &Tensor, prec: Precision) -> Tensor {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul inner dim mismatch: {k} vs {k2}");
    let mut c = Tensor::zeros(m, n);
    if use_packed(m, k, n) {
        gemm_nn_packed(a.data(), b.data(), c.data_mut(), m, k, n, prec);
    } else {
        gemm_nn_legacy(a.data(), b.data(), c.data_mut(), m, k, n, prec);
    }
    c
}

/// Legacy `i-k-j` kernel; rows go parallel when the work warrants it.
fn gemm_nn_legacy(
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    prec: Precision,
) {
    let body = |(i, crow): (usize, &mut [f32])| {
        let arow = &ad[i * k..(i + 1) * k];
        match prec {
            Precision::F32 => {
                for (kk, &av) in arow.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &bd[kk * n..(kk + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
            Precision::BF16Mixed => {
                for (kk, &av_raw) in arow.iter().enumerate() {
                    let av = round_bf16(av_raw);
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &bd[kk * n..(kk + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * round_bf16(bv);
                    }
                }
            }
        }
    };
    if use_parallel(m, k, n) {
        par::for_each_chunk(cd, n, body);
    } else {
        cd.chunks_mut(n).enumerate().for_each(body);
    }
}

/// Packed GEBP kernel: `B` is copied into contiguous `KC x NC` panels once,
/// then `MC`-row chunks of `C` are filled in parallel. Additions per output
/// element happen in ascending-`k` order with the `a == 0.0` skip — exactly
/// the legacy order — so the result is bit-identical to the legacy path.
fn gemm_nn_packed(
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
    _m: usize,
    k: usize,
    n: usize,
    prec: Precision,
) {
    let ws = Workspace::global();
    let mut packed = ws.take(k * n);
    // Panel (J, Kb) starts at `k*j0 + k0*ncw`: all columns left of this panel
    // occupy `k*j0` slots and earlier k-panels of this column block occupy
    // `k0*ncw` — a closed form both pack and compute derive independently.
    for j0 in (0..n).step_by(NC) {
        let ncw = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kcw = KC.min(k - k0);
            let base = k * j0 + k0 * ncw;
            for kk in 0..kcw {
                let src = &bd[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + ncw];
                let dst = &mut packed[base + kk * ncw..base + (kk + 1) * ncw];
                match prec {
                    Precision::F32 => dst.copy_from_slice(src),
                    Precision::BF16Mixed => {
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = round_bf16(s);
                        }
                    }
                }
            }
        }
    }

    let packed_ref = &packed;
    par::for_each_chunk(cd, MC * n, |(chunk, cchunk)| {
        let i0 = chunk * MC;
        let rows = cchunk.len() / n;
        for j0 in (0..n).step_by(NC) {
            let ncw = NC.min(n - j0);
            for k0 in (0..k).step_by(KC) {
                let kcw = KC.min(k - k0);
                let panel = &packed_ref[k * j0 + k0 * ncw..k * j0 + k0 * ncw + kcw * ncw];
                for i in 0..rows {
                    let arow = &ad[(i0 + i) * k + k0..(i0 + i) * k + k0 + kcw];
                    let crow = &mut cchunk[i * n + j0..i * n + j0 + ncw];
                    gebp_row(arow, panel, crow, kcw, ncw, prec);
                }
            }
        }
    });
    ws.put(packed);
}

/// One row of the packed micro-kernel: `crow += arow * panel`, 4x-unrolled
/// over `k`, keeping each `C` element in a register across the 4 lanes.
/// Additions stay in ascending-`k` order; zero `a` values are skipped.
#[inline]
fn gebp_row(
    arow: &[f32],
    panel: &[f32],
    crow: &mut [f32],
    kcw: usize,
    ncw: usize,
    prec: Precision,
) {
    let load = |v: f32| match prec {
        Precision::F32 => v,
        Precision::BF16Mixed => round_bf16(v),
    };
    let mut kk = 0;
    while kk + 4 <= kcw {
        let a0 = load(arow[kk]);
        let a1 = load(arow[kk + 1]);
        let a2 = load(arow[kk + 2]);
        let a3 = load(arow[kk + 3]);
        let b0 = &panel[kk * ncw..(kk + 1) * ncw];
        let b1 = &panel[(kk + 1) * ncw..(kk + 2) * ncw];
        let b2 = &panel[(kk + 2) * ncw..(kk + 3) * ncw];
        let b3 = &panel[(kk + 3) * ncw..(kk + 4) * ncw];
        if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
            for j in 0..ncw {
                let mut cj = crow[j];
                cj += a0 * b0[j];
                cj += a1 * b1[j];
                cj += a2 * b2[j];
                cj += a3 * b3[j];
                crow[j] = cj;
            }
        } else {
            // Preserve the zero-skip semantics lane by lane.
            for (al, bl) in [(a0, b0), (a1, b1), (a2, b2), (a3, b3)] {
                if al == 0.0 {
                    continue;
                }
                for (cv, &bv) in crow.iter_mut().zip(bl) {
                    *cv += al * bv;
                }
            }
        }
        kk += 4;
    }
    while kk < kcw {
        let av = load(arow[kk]);
        if av != 0.0 {
            let brow = &panel[kk * ncw..(kk + 1) * ncw];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
        kk += 1;
    }
}

/// `C = A^T * B` where `A` is `k x m` and `B` is `k x n`. This is the
/// gradient kernel `dW = X^T dY`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(a.cols(), b.cols());
    matmul_tn_acc(a, b, &mut c);
    c
}

/// `C += A^T * B` into an existing `m x n` accumulator such as a parameter
/// gradient. Each element of `C` receives its products one at a time in
/// ascending `k`, skipping `a == 0.0`, so accumulating a whole batch here
/// performs the same additions, in the same order, as accumulating it one
/// row of `A`/`B` at a time.
pub fn matmul_tn_acc(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (k, m) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul_tn inner dim mismatch: {k} vs {k2}");
    assert_eq!(c.shape(), (m, n), "matmul_tn accumulator shape");
    if use_packed(m, k, n) {
        gemm_tn_packed(a.data(), b.data(), c.data_mut(), m, k, n);
    } else {
        gemm_tn_legacy(a.data(), b.data(), c.data_mut(), m, k, n);
    }
}

/// Legacy TN loop: output row `i` reads column `i` of `A` (stride `m`) and
/// streams all of `B`; rows go parallel when the work warrants it, and the
/// serial `k` loop keeps the sum order fixed.
fn gemm_tn_legacy(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    let body = |(i, crow): (usize, &mut [f32])| {
        for kk in 0..k {
            let av = ad[kk * m + i];
            if av == 0.0 {
                continue;
            }
            let brow = &bd[kk * n..(kk + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    };
    if use_parallel(m, k, n) {
        par::for_each_chunk(cd, n, body);
    } else {
        cd.chunks_mut(n).enumerate().for_each(body);
    }
}

/// Packed TN: `Aᵀ` goes into a pooled `m x k` buffer, then the NN GEBP
/// kernel runs on it. Row `i` of the copy is column `i` of `A`, so each
/// output element sees the same `a` values in the same ascending-`k` order,
/// with the same zero skip, as [`gemm_tn_legacy`].
fn gemm_tn_packed(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    let ws = Workspace::global();
    let mut at = ws.take(m * k);
    transpose_into(ad, k, m, &mut at);
    gemm_nn_packed(&at, bd, cd, m, k, n, Precision::F32);
    ws.put(at);
}

/// Square tile edge of [`transpose_into`]: a 32x32 f32 tile is 4 KiB.
const TRANSPOSE_TILE: usize = 32;

/// `dst = srcᵀ` for a row-major `rows x cols` source, one 32x32 tile at a
/// time. Each tile writes 32-element runs of `dst` rows and reads a short
/// strip of `src` rows, so neither side walks memory at a large power-of-two
/// stride. Bands of `dst` rows go to the pool.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    par::for_each_chunk(dst, TRANSPOSE_TILE * rows, |(band, dband)| {
        let c0 = band * TRANSPOSE_TILE;
        for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
            let r1 = (r0 + TRANSPOSE_TILE).min(rows);
            for (c, drow) in dband.chunks_mut(rows).enumerate() {
                for (o, r) in drow[r0..r1].iter_mut().zip(r0..r1) {
                    *o = src[r * cols + c0 + c];
                }
            }
        }
    });
}

/// `C = A * B^T` where `A` is `m x k` and `B` is `n x k`. This is the
/// gradient kernel `dX = dY W^T` and the attention-score kernel `Q K^T`.
///
/// The packed path interleaves 4 rows of `B` lane-by-lane so the inner loop
/// computes 4 independent dot products at once (vectorizable across lanes);
/// each dot product still accumulates in ascending-`k` order with a single
/// accumulator, bit-identical to the legacy scalar dot.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(k, k2, "matmul_nt inner dim mismatch: {k} vs {k2}");
    let mut c = Tensor::zeros(m, n);
    if use_packed(m, k, n) {
        gemm_nt_packed(a.data(), b.data(), c.data_mut(), m, k, n);
    } else {
        gemm_nt_legacy(a.data(), b.data(), c.data_mut(), m, k, n);
    }
    c
}

fn gemm_nt_legacy(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    let body = |(i, crow): (usize, &mut [f32])| {
        let arow = &ad[i * k..(i + 1) * k];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *cv = acc;
        }
    };
    if use_parallel(m, k, n) {
        par::for_each_chunk(cd, n, body);
    } else {
        cd.chunks_mut(n).enumerate().for_each(body);
    }
}

/// Lane width of the packed NT kernel: 4 rows of `B` share the inner loop.
const NT_LANES: usize = 4;

fn gemm_nt_packed(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    let ws = Workspace::global();
    let mut packed = ws.take(k * n);
    // Group `B` rows in fours; group `g` (rows j0..j0+lanes) lives at
    // `j0 * k`, stored lane-interleaved: packed[j0*k + kk*lanes + l].
    for j0 in (0..n).step_by(NT_LANES) {
        let lanes = NT_LANES.min(n - j0);
        let dst = &mut packed[j0 * k..j0 * k + lanes * k];
        for l in 0..lanes {
            let src = &bd[(j0 + l) * k..(j0 + l + 1) * k];
            for (kk, &v) in src.iter().enumerate() {
                dst[kk * lanes + l] = v;
            }
        }
    }

    let packed_ref = &packed;
    let body = |(i, crow): (usize, &mut [f32])| {
        let arow = &ad[i * k..(i + 1) * k];
        for j0 in (0..n).step_by(NT_LANES) {
            let lanes = NT_LANES.min(n - j0);
            let panel = &packed_ref[j0 * k..j0 * k + lanes * k];
            if lanes == NT_LANES {
                let mut acc = [0.0f32; NT_LANES];
                let mut kk = 0;
                while kk + 4 <= k {
                    let a0 = arow[kk];
                    let a1 = arow[kk + 1];
                    let a2 = arow[kk + 2];
                    let a3 = arow[kk + 3];
                    let p = &panel[kk * NT_LANES..(kk + 4) * NT_LANES];
                    for (l, s) in acc.iter_mut().enumerate() {
                        let mut sl = *s;
                        sl += a0 * p[l];
                        sl += a1 * p[NT_LANES + l];
                        sl += a2 * p[2 * NT_LANES + l];
                        sl += a3 * p[3 * NT_LANES + l];
                        *s = sl;
                    }
                    kk += 4;
                }
                while kk < k {
                    let av = arow[kk];
                    let p = &panel[kk * NT_LANES..(kk + 1) * NT_LANES];
                    for (l, s) in acc.iter_mut().enumerate() {
                        *s += av * p[l];
                    }
                    kk += 1;
                }
                crow[j0..j0 + NT_LANES].copy_from_slice(&acc);
            } else {
                for l in 0..lanes {
                    let mut acc = 0.0f32;
                    for (kk, &av) in arow.iter().enumerate() {
                        acc += av * panel[kk * lanes + l];
                    }
                    crow[j0 + l] = acc;
                }
            }
        }
    };
    if use_parallel(m, k, n) {
        par::for_each_chunk(cd, n, body);
    } else {
        cd.chunks_mut(n).enumerate().for_each(body);
    }
    ws.put(packed);
}

/// A GEMM transpose variant, for [`gemm_on_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmOp {
    /// `C = A·B`, as [`matmul`].
    Nn,
    /// `C = A·Bᵀ`, as [`matmul_nt`].
    Nt,
    /// `C = Aᵀ·B`, as [`matmul_tn`].
    Tn,
}

/// Which body a GEMM runs. The entry points pick one by shape; forcing it
/// lets `kernel_bench` time the two against each other and check that
/// their bits agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPath {
    Legacy,
    Packed,
}

/// Run one f32 GEMM variant on a forced path. Every shape gives the same
/// bits on either path, and the same bits as the variant's entry point.
pub fn gemm_on_path(op: GemmOp, a: &Tensor, b: &Tensor, path: GemmPath) -> Tensor {
    let packed = path == GemmPath::Packed;
    let (m, k, k2, n) = match op {
        GemmOp::Nn => (a.rows(), a.cols(), b.rows(), b.cols()),
        GemmOp::Nt => (a.rows(), a.cols(), b.cols(), b.rows()),
        GemmOp::Tn => (a.cols(), a.rows(), b.rows(), b.cols()),
    };
    assert_eq!(k, k2, "{op:?} inner dim mismatch: {k} vs {k2}");
    let mut c = Tensor::zeros(m, n);
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    match (op, packed) {
        (GemmOp::Nn, true) => gemm_nn_packed(ad, bd, cd, m, k, n, Precision::F32),
        (GemmOp::Nn, false) => gemm_nn_legacy(ad, bd, cd, m, k, n, Precision::F32),
        (GemmOp::Nt, true) => gemm_nt_packed(ad, bd, cd, m, k, n),
        (GemmOp::Nt, false) => gemm_nt_legacy(ad, bd, cd, m, k, n),
        (GemmOp::Tn, true) => gemm_tn_packed(ad, bd, cd, m, k, n),
        (GemmOp::Tn, false) => gemm_tn_legacy(ad, bd, cd, m, k, n),
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn matches_naive_small() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c, naive(&a, &b));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matches_naive_random_rectangular() {
        let mut rng = Rng::seed(7);
        for &(m, k, n) in &[
            (5usize, 9usize, 4usize),
            (17, 3, 23),
            (32, 32, 32),
            (1, 64, 1),
        ] {
            let a = rng.normal_tensor(m, k, 1.0);
            let b = rng.normal_tensor(k, n, 1.0);
            let c = matmul(&a, &b);
            assert!(c.allclose(&naive(&a, &b), 1e-5, 1e-5), "{m}x{k}x{n}");
        }
    }

    /// `rows x cols` normal tensor with every 7th element an exact zero,
    /// so the zero-skip lanes run.
    fn sparse_normal(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
        let mut a = rng.normal_tensor(rows, cols, 1.0);
        for v in a.data_mut().iter_mut().step_by(7) {
            *v = 0.0;
        }
        a
    }

    #[test]
    fn packed_path_is_bit_identical_to_legacy() {
        // The engine bit-identity suites rely on path selection never
        // changing numerics: packed and legacy must agree to the bit,
        // including the a == 0.0 skip semantics. k = 130 and 301 are
        // multiples of neither 4 nor KC; n = 257 and 300 are not multiples
        // of NC; m = 9 is just above PACK_MIN_ROWS; the last two shapes sit
        // either side of PACK_MIN_WORK, so the entry points take the legacy
        // path on one and the packed path on the other.
        let mut rng = Rng::seed(19);
        let shapes = [
            (16usize, 130usize, 257usize),
            (64, 96, 300),
            (9, 301, 40),
            (128, 512, 128),
            (16, 64, 127),
            (16, 64, 128),
        ];
        assert!(!use_packed(16, 64, 127) && use_packed(16, 64, 128));
        for &(m, k, n) in &shapes {
            let a = sparse_normal(&mut rng, m, k);
            let b = rng.normal_tensor(k, n, 1.0);
            for prec in [Precision::F32, Precision::BF16Mixed] {
                let mut c_packed = Tensor::zeros(m, n);
                let mut c_legacy = Tensor::zeros(m, n);
                gemm_nn_packed(a.data(), b.data(), c_packed.data_mut(), m, k, n, prec);
                gemm_nn_legacy(a.data(), b.data(), c_legacy.data_mut(), m, k, n, prec);
                assert_eq!(c_packed, c_legacy, "{m}x{k}x{n} {prec:?}");
            }
            let bt = rng.normal_tensor(n, k, 1.0);
            assert_eq!(
                gemm_on_path(GemmOp::Nt, &a, &bt, GemmPath::Packed),
                gemm_on_path(GemmOp::Nt, &a, &bt, GemmPath::Legacy),
                "nt {m}x{k}x{n}"
            );

            let at = sparse_normal(&mut rng, k, m);
            let legacy = gemm_on_path(GemmOp::Tn, &at, &b, GemmPath::Legacy);
            assert_eq!(
                gemm_on_path(GemmOp::Tn, &at, &b, GemmPath::Packed),
                legacy,
                "tn {m}x{k}x{n}"
            );
            assert_eq!(matmul_tn(&at, &b), legacy, "matmul_tn {m}x{k}x{n}");
            // Accumulating into a nonzero C matches accumulating one row of
            // A/B at a time, the way per-sample gradients used to arrive.
            let c0 = rng.normal_tensor(m, n, 1.0);
            let mut whole = c0.clone();
            matmul_tn_acc(&at, &b, &mut whole);
            let mut by_row = c0;
            for kk in 0..k {
                let ar = at.slice_rows(kk, kk + 1);
                let br = b.slice_rows(kk, kk + 1);
                gemm_tn_legacy(ar.data(), br.data(), by_row.data_mut(), m, 1, n);
            }
            assert_eq!(whole, by_row, "tn accumulate {m}x{k}x{n}");
        }
    }

    #[test]
    fn shape_sweep_tall_skinny_and_short_wide() {
        // Work-based dispatch must stay correct across shapes that the old
        // rows-based threshold classified badly: tall-skinny (many rows,
        // tiny work) and short-wide (few rows, huge work).
        let mut rng = Rng::seed(23);
        for &(m, k, n) in &[
            (1024usize, 4usize, 4usize), // tall-skinny: rows >> work/row
            (257, 3, 5),
            (3, 129, 257), // short-wide: few rows, wide panels
            (4, 300, 300), // crosses PAR_MIN_WORK with m < old PAR_THRESHOLD
            (2, 70, 70),
            (8, 64, 512), // crosses PACK_MIN_WORK exactly at PACK_MIN_ROWS
            (100, 100, 100),
        ] {
            let a = rng.normal_tensor(m, k, 1.0);
            let b = rng.normal_tensor(k, n, 1.0);
            assert!(
                matmul(&a, &b).allclose(&naive(&a, &b), 1e-4, 1e-4),
                "nn {m}x{k}x{n}"
            );
            let bt = rng.normal_tensor(n, k, 1.0);
            assert!(
                matmul_nt(&a, &bt).allclose(&naive(&a, &bt.transpose()), 1e-4, 1e-4),
                "nt {m}x{k}x{n}"
            );
            let at = rng.normal_tensor(k, m, 1.0);
            assert!(
                matmul_tn(&at, &b).allclose(&naive(&at.transpose(), &b), 1e-4, 1e-4),
                "tn {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let mut rng = Rng::seed(11);
        let a = rng.normal_tensor(6, 5, 1.0);
        let b = rng.normal_tensor(6, 7, 1.0);
        let fast = matmul_tn(&a, &b);
        let slow = matmul(&a.transpose(), &b);
        assert!(fast.allclose(&slow, 1e-5, 1e-6));
    }

    #[test]
    fn nt_equals_explicit_transpose() {
        let mut rng = Rng::seed(13);
        let a = rng.normal_tensor(6, 5, 1.0);
        let b = rng.normal_tensor(7, 5, 1.0);
        let fast = matmul_nt(&a, &b);
        let slow = matmul(&a, &b.transpose());
        assert!(fast.allclose(&slow, 1e-5, 1e-6));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed(3);
        let a = rng.normal_tensor(9, 9, 1.0);
        assert!(matmul(&a, &Tensor::eye(9)).allclose(&a, 1e-6, 1e-6));
        assert!(matmul(&Tensor::eye(9), &a).allclose(&a, 1e-6, 1e-6));
    }

    #[test]
    fn bf16_mode_differs_but_stays_close() {
        let mut rng = Rng::seed(5);
        let a = rng.normal_tensor(16, 16, 1.0);
        let b = rng.normal_tensor(16, 16, 1.0);
        let exact = matmul(&a, &b);
        let mixed = matmul_p(&a, &b, Precision::BF16Mixed);
        // bf16 keeps ~2-3 decimal digits; relative error should be small but
        // generally nonzero.
        assert!(mixed.allclose(&exact, 0.05, 0.05));
        assert_ne!(mixed, exact);
    }

    #[test]
    fn column_shard_sum_identity_eqn2() {
        // The heart of Hybrid-STOP (paper Eqn. (2)):
        //   x A B == sum_k x A_{*,k} B_{k,*}
        let mut rng = Rng::seed(17);
        let x = rng.normal_tensor(4, 6, 1.0);
        let a = rng.normal_tensor(6, 8, 1.0);
        let b = rng.normal_tensor(8, 5, 1.0);
        let full = matmul(&matmul(&x, &a), &b);
        for shards in [1usize, 2, 4, 8] {
            let mut acc = Tensor::zeros(4, 5);
            let w = 8 / shards;
            for s in 0..shards {
                let ak = a.slice_cols(s * w, (s + 1) * w);
                let bk = b.slice_rows(s * w, (s + 1) * w);
                acc.add_assign(&matmul(&matmul(&x, &ak), &bk));
            }
            assert!(acc.allclose(&full, 1e-4, 1e-4), "shards={shards}");
        }
    }
}
