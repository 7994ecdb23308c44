//! Blocked, packed, parallel GEMM.
//!
//! Each simulated GPU executes its shard's matmuls through these kernels:
//! `C = A·B` ([`matmul_p`]), `C = A·Bᵀ` ([`matmul_nt`], `dX = dY·Wᵀ` and
//! `Q·Kᵀ`) and `C = Aᵀ·B` ([`matmul_tn`], the weight gradient `dW = Xᵀ·dY`).
//! Each variant has two bodies:
//!
//! - a **legacy** loop for small problems: `i-k-j` for NN and TN (the inner
//!   loop streams a row of `B` into a row of `C`), one scalar dot per element
//!   for NT. It is also the oracle the packed body is tested against;
//! - one **packed** register-tiled kernel shared by all three variants. `B` is
//!   copied once into `NR`-wide strips of `KC`-deep panels; the same packer
//!   reads `B` as `k x n` (NN, TN) or as `n x k` (NT). `A` is read through a
//!   row stride and a `k` stride, so TN reads `Xᵀ` in place. `MC`-row chunks
//!   of `C` go to the [`crate::par`] pool, and each keeps an `MR x NR` tile of
//!   `C` in registers across a panel.
//!
//! The tile body is plain safe Rust, compiled twice from one source: with
//! AVX2 enabled (chosen at run time when the CPU has it) and for the baseline
//! target. Multiplies and adds stay separate, never fused, so both compute
//! the same bits.
//!
//! Determinism is sacred here: for every output element the packed body
//! performs *exactly* the legacy arithmetic — each product rounded, then
//! added one at a time in ascending `k` — so the two bodies are bit-identical
//! and body selection can depend on shape without perturbing any
//! engine-equivalence test. NN and TN start from the existing `C` and skip
//! `a == 0.0` (tested after bf16 rounding in [`Precision::BF16Mixed`]) per row
//! of the tile; NT starts at `0.0` and never skips, as the legacy dot does.
//! All three variants choose their body with the same rule (`use_packed`).
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
/// Reduction-dimension panel depth.
const KC: usize = 128;
/// Rows of the `C` tile held in registers.
const MR: usize = 4;
/// Columns of the `C` tile held in registers: one packed strip of `B`.
const NR: usize = 16;

#[inline]
fn use_parallel(m: usize, k: usize, n: usize) -> bool {
    m >= 2 && m.saturating_mul(k).saturating_mul(n) >= PAR_MIN_WORK
}

#[inline]
fn use_packed(m: usize, k: usize, n: usize) -> bool {
    m >= PACK_MIN_ROWS && m.saturating_mul(k).saturating_mul(n) >= PACK_MIN_WORK
}

/// Whether the CPU runs the AVX2 build of the tile body.
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
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
/// once at pack time and `A` as it loads it (rounding is idempotent, so this
/// is bit-identical to rounding at every use).
pub fn matmul_p(a: &Tensor, b: &Tensor, prec: Precision) -> Tensor {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul inner dim mismatch: {k} vs {k2}");
    let mut c = Tensor::zeros(m, n);
    if use_packed(m, k, n) {
        let dims = (m, k, n);
        gemm_packed(
            GemmOp::Nn,
            a.data(),
            b.data(),
            c.data_mut(),
            dims,
            prec,
            true,
        );
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

/// How a pool task of [`gemm_packed`] reads its operands: element `(i, kk)`
/// of `A` is `a[i * a_rs + kk * a_ks]`, and `b` is `B` packed into panels of
/// `NR`-wide strips.
#[derive(Clone, Copy)]
struct Operands<'a> {
    a: &'a [f32],
    a_rs: usize,
    a_ks: usize,
    b: &'a [f32],
    k: usize,
    n: usize,
    bf16: bool,
    skip_zero_a: bool,
}

/// The packed body of every variant: `C (m x n) += A·B`, with `A` and `B`
/// laid out as `op` says. NN and TN skip zero `a` values; NT relies on `C`
/// starting at zero. With `simd` the AVX2 build runs when the CPU has it.
fn gemm_packed(
    op: GemmOp,
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
    (m, k, n): (usize, usize, usize),
    prec: Precision,
    simd: bool,
) {
    // Element (kk, j) of B is bd[kk * b_ks + j * b_js].
    let (a_rs, a_ks) = if op == GemmOp::Tn { (1, m) } else { (k, 1) };
    let (b_ks, b_js) = if op == GemmOp::Nt { (1, k) } else { (n, 1) };
    let bf16 = prec == Precision::BF16Mixed;
    let strips = n.div_ceil(NR);
    let ws = Workspace::global();
    // Panel `k0` is `strips` consecutive `kc x NR` strips starting at
    // `k0 * strips * NR`; the columns past `n` in the last strip stay zero.
    let mut packed = ws.take(k * strips * NR);
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let panel = &mut packed[k0 * strips * NR..(k0 + kc) * strips * NR];
        for (s, strip) in panel.chunks_exact_mut(kc * NR).enumerate() {
            let j0 = s * NR;
            for (kk, row) in strip.chunks_exact_mut(NR).enumerate() {
                for (jj, d) in row.iter_mut().enumerate().take(n - j0) {
                    *d = operand(bd[(k0 + kk) * b_ks + (j0 + jj) * b_js], bf16);
                }
            }
        }
    }
    let ops = Operands {
        a: ad,
        a_rs,
        a_ks,
        b: &packed,
        k,
        n,
        bf16,
        skip_zero_a: op != GemmOp::Nt,
    };
    let simd = simd && avx2();
    par::for_each_chunk(cd, MC * n, |(chunk, c)| {
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: `simd` is true only when the CPU reports AVX2.
            return unsafe { fill_chunk_avx2(ops, chunk * MC, c) };
        }
        fill_chunk(ops, chunk * MC, c);
    });
    ws.put(packed);
}

/// `v` as the packed kernel multiplies it: rounded through bf16 in mixed
/// precision.
#[inline(always)]
fn operand(v: f32, bf16: bool) -> f32 {
    if bf16 {
        round_bf16(v)
    } else {
        v
    }
}

/// [`fill_chunk`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_chunk_avx2(ops: Operands, i0: usize, c: &mut [f32]) {
    fill_chunk(ops, i0, c);
}

/// Fill the rows of `C` starting at row `i0`, one `KC` panel at a time:
/// gather an `MR x kc` block of `A`, then run the tile body over every strip.
#[inline(always)]
fn fill_chunk(ops: Operands, i0: usize, c: &mut [f32]) {
    let Operands {
        a,
        a_rs,
        a_ks,
        b,
        k,
        n,
        bf16,
        ..
    } = ops;
    let strips = n.div_ceil(NR);
    let rows = c.len() / n;
    let mut ablock = [[0.0f32; MR]; KC];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let panel = &b[k0 * strips * NR..(k0 + kc) * strips * NR];
        for r0 in (0..rows).step_by(MR) {
            let mr = MR.min(rows - r0);
            // Rows past the chunk's end read as zero; their results are dropped.
            for (kk, ak) in ablock[..kc].iter_mut().enumerate() {
                for (r, av) in ak.iter_mut().enumerate() {
                    *av = if r < mr {
                        operand(a[(i0 + r0 + r) * a_rs + (k0 + kk) * a_ks], bf16)
                    } else {
                        0.0
                    };
                }
            }
            // A block without zeros needs no skip test in the hot loop.
            let skip = ops.skip_zero_a && ablock[..kc].as_flattened().contains(&0.0);
            for (s, strip) in panel.chunks_exact(kc * NR).enumerate() {
                let j0 = s * NR;
                let nr = NR.min(n - j0);
                let mut tile = [[0.0f32; NR]; MR];
                for (r, t) in tile[..mr].iter_mut().enumerate() {
                    t[..nr].copy_from_slice(&c[(r0 + r) * n + j0..][..nr]);
                }
                let (ab, b) = (&ablock[..kc], strip.as_chunks::<NR>().0);
                if skip {
                    tile_body::<true>(ab, b, &mut tile);
                } else {
                    tile_body::<false>(ab, b, &mut tile);
                }
                for (r, t) in tile[..mr].iter().enumerate() {
                    c[(r0 + r) * n + j0..][..nr].copy_from_slice(&t[..nr]);
                }
            }
        }
    }
}

/// The register tile: `c[r][j] += a[kk][r] * b[kk][j]` for ascending `kk`,
/// one rounded product and one rounded add at a time. With `SKIP`, a row
/// whose `a` value is zero takes no addition at that `kk`.
#[inline(always)]
fn tile_body<const SKIP: bool>(a: &[[f32; MR]], b: &[[f32; NR]], c: &mut [[f32; NR]; MR]) {
    let mut acc = *c;
    for (ak, bk) in a.iter().zip(b) {
        for (row, &av) in acc.iter_mut().zip(ak) {
            if SKIP && av == 0.0 {
                continue;
            }
            for (cv, &bv) in row.iter_mut().zip(bk) {
                *cv += av * bv;
            }
        }
    }
    *c = acc;
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
        let dims = (m, k, n);
        gemm_packed(
            GemmOp::Tn,
            a.data(),
            b.data(),
            c.data_mut(),
            dims,
            Precision::F32,
            true,
        );
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

/// `C = A * B^T` where `A` is `m x k` and `B` is `n x k`. This is the
/// gradient kernel `dX = dY W^T` and the attention-score kernel `Q K^T`.
/// Each element is one dot product in ascending `k` from a `0.0` start.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(k, k2, "matmul_nt inner dim mismatch: {k} vs {k2}");
    let mut c = Tensor::zeros(m, n);
    if use_packed(m, k, n) {
        let dims = (m, k, n);
        gemm_packed(
            GemmOp::Nt,
            a.data(),
            b.data(),
            c.data_mut(),
            dims,
            Precision::F32,
            true,
        );
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
/// their bits agree. `Packed` is the register-tiled kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPath {
    Legacy,
    Packed,
}

/// Run one f32 GEMM variant on a forced path. Every shape gives the same
/// bits on either path, and the same bits as the variant's entry point.
pub fn gemm_on_path(op: GemmOp, a: &Tensor, b: &Tensor, path: GemmPath) -> Tensor {
    let (m, k, k2, n) = match op {
        GemmOp::Nn => (a.rows(), a.cols(), b.rows(), b.cols()),
        GemmOp::Nt => (a.rows(), a.cols(), b.cols(), b.rows()),
        GemmOp::Tn => (a.cols(), a.rows(), b.rows(), b.cols()),
    };
    assert_eq!(k, k2, "{op:?} inner dim mismatch: {k} vs {k2}");
    let mut c = Tensor::zeros(m, n);
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    match (op, path) {
        (_, GemmPath::Packed) => gemm_packed(op, ad, bd, cd, (m, k, n), Precision::F32, true),
        (GemmOp::Nn, GemmPath::Legacy) => gemm_nn_legacy(ad, bd, cd, m, k, n, Precision::F32),
        (GemmOp::Nt, GemmPath::Legacy) => gemm_nt_legacy(ad, bd, cd, m, k, n),
        (GemmOp::Tn, GemmPath::Legacy) => gemm_tn_legacy(ad, bd, cd, m, k, n),
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

    /// The bits of every element, with every NaN as one pattern: Rust
    /// leaves the sign and payload of a NaN result unspecified, so two
    /// builds of the same loop may differ there and nowhere else.
    fn bits(t: &Tensor) -> Vec<u32> {
        let canon = |v: f32| if v.is_nan() { f32::NAN } else { v };
        t.data().iter().map(|&v| canon(v).to_bits()).collect()
    }

    /// `c0 op= A·B` on the packed body, on the AVX2 build of the tile when
    /// `simd` and the CPU allow it, else on the baseline build.
    fn run_packed(
        op: GemmOp,
        a: &Tensor,
        b: &Tensor,
        c0: &Tensor,
        prec: Precision,
        simd: bool,
    ) -> Tensor {
        let k = if op == GemmOp::Tn { a.rows() } else { a.cols() };
        let (m, n) = c0.shape();
        let mut c = c0.clone();
        gemm_packed(op, a.data(), b.data(), c.data_mut(), (m, k, n), prec, simd);
        c
    }

    /// Where the CPU has AVX2, the baseline build of the tile body gives the
    /// same bits as the AVX2 build.
    fn assert_builds_agree(op: GemmOp, a: &Tensor, b: &Tensor, c0: &Tensor, prec: Precision) {
        if avx2() {
            let plain = run_packed(op, a, b, c0, prec, false);
            let simd = run_packed(op, a, b, c0, prec, true);
            assert_eq!(
                bits(&plain),
                bits(&simd),
                "{op:?} {:?} {prec:?}",
                c0.shape()
            );
        }
    }

    #[test]
    fn packed_path_is_bit_identical_to_legacy() {
        // The engine bit-identity suites rely on path selection never
        // changing numerics: packed and legacy must agree to the bit,
        // including the a == 0.0 skip semantics. k = 130, 301 and 259 are
        // multiples of neither 4 nor KC; n = 257, 300, 40 and 37 are not
        // multiples of NR; m = 9 is just above PACK_MIN_ROWS, and m = 9, 13
        // and 67 are not multiples of MR (67 also leaves a 3-row last MC
        // chunk); (16, 64, 127) and (16, 64, 128) sit either side of
        // PACK_MIN_WORK, so the entry points take the legacy path on one and
        // the packed path on the other.
        let mut rng = Rng::seed(19);
        let shapes = [
            (16usize, 130usize, 257usize),
            (64, 96, 300),
            (9, 301, 40),
            (128, 512, 128),
            (16, 64, 127),
            (16, 64, 128),
            (13, 259, 37),
            (67, 200, 50),
        ];
        assert!(!use_packed(16, 64, 127) && use_packed(16, 64, 128));
        for &(m, k, n) in &shapes {
            let a = sparse_normal(&mut rng, m, k);
            let b = rng.normal_tensor(k, n, 1.0);
            let zeros = Tensor::zeros(m, n);
            for prec in [Precision::F32, Precision::BF16Mixed] {
                let c_packed = run_packed(GemmOp::Nn, &a, &b, &zeros, prec, true);
                let mut c_legacy = Tensor::zeros(m, n);
                gemm_nn_legacy(a.data(), b.data(), c_legacy.data_mut(), m, k, n, prec);
                assert_eq!(c_packed, c_legacy, "{m}x{k}x{n} {prec:?}");
                assert_builds_agree(GemmOp::Nn, &a, &b, &zeros, prec);
            }
            let bt = rng.normal_tensor(n, k, 1.0);
            assert_eq!(
                gemm_on_path(GemmOp::Nt, &a, &bt, GemmPath::Packed),
                gemm_on_path(GemmOp::Nt, &a, &bt, GemmPath::Legacy),
                "nt {m}x{k}x{n}"
            );
            assert_builds_agree(GemmOp::Nt, &a, &bt, &zeros, Precision::F32);

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
            let mut by_row = c0.clone();
            for kk in 0..k {
                let ar = at.slice_rows(kk, kk + 1);
                let br = b.slice_rows(kk, kk + 1);
                gemm_tn_legacy(ar.data(), br.data(), by_row.data_mut(), m, 1, n);
            }
            assert_eq!(whole, by_row, "tn accumulate {m}x{k}x{n}");
            assert_builds_agree(GemmOp::Tn, &at, &b, &c0, Precision::F32);
        }

        // Zeros in A lined up against ±inf and NaN in B: the skip keeps NN
        // and TN finite, while NT never skips and carries the NaN through.
        // In bf16 a subnormal 1e-45 rounds to zero, so it is skipped too.
        let (m, k, n) = (18, 300, 40);
        let mut a = rng.normal_tensor(m, k, 1.0);
        let mut b = rng.normal_tensor(k, n, 1.0);
        let mut bt = rng.normal_tensor(n, k, 1.0);
        for (kk, bad) in [
            (3, f32::INFINITY),
            (140, f32::NEG_INFINITY),
            (299, f32::NAN),
        ] {
            for i in 0..m {
                a.set(i, kk, 0.0);
            }
            for j in 0..n {
                b.set(kk, j, bad);
                bt.set(j, kk, bad);
            }
        }
        let at = a.transpose();
        let zeros = Tensor::zeros(m, n);
        for (op, a, b) in [
            (GemmOp::Nn, &a, &b),
            (GemmOp::Tn, &at, &b),
            (GemmOp::Nt, &a, &bt),
        ] {
            let legacy = gemm_on_path(op, a, b, GemmPath::Legacy);
            let packed = gemm_on_path(op, a, b, GemmPath::Packed);
            assert_eq!(bits(&packed), bits(&legacy), "{op:?} with inf/NaN in B");
            assert_eq!(
                packed.all_finite(),
                op != GemmOp::Nt,
                "{op:?} with inf/NaN in B"
            );
            assert_builds_agree(op, a, b, &zeros, Precision::F32);
        }
        for i in 0..m {
            a.set(i, 7, 1e-45);
            b.set(7, i, f32::INFINITY);
        }
        let mut legacy = Tensor::zeros(m, n);
        gemm_nn_legacy(
            a.data(),
            b.data(),
            legacy.data_mut(),
            m,
            k,
            n,
            Precision::BF16Mixed,
        );
        let packed = run_packed(GemmOp::Nn, &a, &b, &zeros, Precision::BF16Mixed, true);
        assert_eq!(bits(&packed), bits(&legacy), "bf16 subnormal against inf");
        assert!(
            packed.all_finite(),
            "bf16 rounds 1e-45 to zero and skips it"
        );
        assert_builds_agree(GemmOp::Nn, &a, &b, &zeros, Precision::BF16Mixed);

        // A -0.0 accumulator keeps its sign in the row whose column of A is
        // all zeros, where every product is skipped.
        let mut at = sparse_normal(&mut rng, k, m);
        for kk in 0..k {
            at.set(kk, 1, 0.0);
        }
        let b = rng.normal_tensor(k, n, 1.0);
        let neg_zero = Tensor::from_vec(m, n, vec![-0.0; m * n]);
        let mut whole = neg_zero.clone();
        matmul_tn_acc(&at, &b, &mut whole);
        let mut legacy = neg_zero.clone();
        gemm_tn_legacy(at.data(), b.data(), legacy.data_mut(), m, k, n);
        assert_eq!(bits(&whole), bits(&legacy), "tn accumulate from -0.0");
        assert!(whole.data()[n..2 * n]
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert_builds_agree(GemmOp::Tn, &at, &b, &neg_zero, Precision::F32);
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
