//! The deterministic parallel compute core: cache-blocked, thread-parallel
//! f32 GEMM kernels plus an im2col convolution lowering.
//!
//! # Bit-exactness contract (DESIGN.md Contract 9)
//!
//! Every fast kernel here produces output **bit-identical** to its naive
//! counterpart in [`mod@reference`] for all finite inputs, at every thread
//! count (including 1). The trick: blocking and parallelism only ever
//! re-tile the *independent* output dimensions; the floating-point
//! accumulation chain of each individual output element keeps exactly
//! the reference order:
//!
//! * `gemm_nn` (`A×B`): element `(i,j)` accumulates over `p = 0..k`
//!   ascending. k-blocks are visited in order and continue the chain in
//!   place; the 4-way unroll fuses four chain links without reassociating
//!   (`(((o+t₀)+t₁)+t₂)+t₃`).
//! * `gemm_nt` (`G×Bᵀ`): element `(i,p)` is a single sequential
//!   reduction over `j = 0..n`; speed comes from running many
//!   *independent* chains (4 columns × 2 rows) through the pipeline at
//!   once, never from splitting one chain.
//! * `gemm_tn` (`Aᵀ×G`): element `(p,j)` accumulates over `i = 0..m`
//!   ascending, same in-place chaining as NN.
//! * conv forward: the reference kernel forms a per-input-channel
//!   partial in a register chain and adds per-channel partials in order.
//!   The direct 3×3 stride-1 kernel keeps that grouping with SIMD lanes
//!   along output rows; the im2col path (every other geometry) keeps it
//!   with one small GEMM per input channel.
//! * conv backward: `gx` element chains run `co` ascending, then `ki`
//!   descending, then `kj` descending; `gw` element chains run over
//!   `(bi, oi, oj)` ascending. The direct 3×3 stride-1 kernel keeps both
//!   (SIMD lanes along rows for `gx`, over input channels for `gw`).
//!
//! **The ±0.0 lemma.** Zero padding contributes explicit `w·(±0.0)`
//! terms the reference skips — bit-safe because an IEEE-754
//! accumulation chain that starts at `+0.0` can never sit at `-0.0` (a
//! sum is `-0.0` only when both addends are), so adding `±0.0` never
//! changes the stored bits. The same argument covers the dropped
//! `g == 0.0` skip of the conv backward and the removed `a == 0.0`
//! zero-skips of the naive matmuls (both defeat vectorization, and the
//! conv skip mispredicts on a ReLU mask).
//!
//! Inputs containing NaN/±inf are outside the contract (`0·inf = NaN`).
//!
//! # SIMD tiers (DESIGN.md Contract 12)
//!
//! The scalar block kernels in this file are one tier of a
//! runtime-dispatched family: [`mod@simd`] adds explicit `std::arch`
//! SSE2/AVX2 microkernels for the same inner loops, selected once per
//! process by CPU capability (overridable with `CV_SIMD=scalar|sse2|avx2`
//! or [`set_simd_level`]). Every tier preserves every accumulation
//! chain, so Contract 9 bit-identity holds unchanged at every SIMD level.

use crate::arena::ScratchArena;
use cv_pool::WorkerPool;
use std::sync::atomic::{AtomicBool, Ordering};

pub mod simd;

pub use simd::{
    cpu_features, detected_level, gemm_nn_at, gemm_nt_at, gemm_tn_at, set_simd_level, simd_level,
    SimdLevel,
};

/// k-dimension cache block: 256 f32 rows of B keep the streamed panel
/// comfortably in L1/L2 while the unrolled inner loops run.
const KC: usize = 256;

/// Below this many flops a dispatch to the pool costs more than the
/// kernel; run single-threaded inline.
const MIN_PAR_FLOPS: usize = 1 << 17;

static FORCE_REFERENCE: AtomicBool = AtomicBool::new(false);

/// Routes the graph's matmul/conv ops through the retained naive
/// [`mod@reference`] kernels instead of the fast ones. **A/B benchmarking
/// and equivalence testing only** — results are bit-identical either
/// way, so flipping this can only make things slower.
pub fn set_reference_kernels(on: bool) {
    FORCE_REFERENCE.store(on, Ordering::Relaxed);
}

/// Whether [`set_reference_kernels`] currently forces the naive path.
pub fn reference_kernels() -> bool {
    FORCE_REFERENCE.load(Ordering::Relaxed)
}

fn par_chunks(pool: &WorkerPool, rows: usize, flops: usize) -> usize {
    if pool.threads() <= 1 || flops < MIN_PAR_FLOPS || WorkerPool::on_worker_thread() {
        1
    } else {
        pool.threads().min(rows.max(1))
    }
}

/// The number of row chunks the fast kernels dispatch for a product
/// with `rows` parallelizable rows and `flops` total flops on `pool` —
/// i.e. the effective parallelism of that timed region (1 when the
/// product is too small to amortize a dispatch). Exposed so perf
/// reporting can record what actually ran instead of the pool size.
pub fn planned_chunks(pool: &WorkerPool, rows: usize, flops: usize) -> usize {
    par_chunks(pool, rows, flops)
}

// ---------------------------------------------------------------------
// NN: out[m,n] += a[m,k] × b[k,n]
// ---------------------------------------------------------------------

/// Row-block inner kernel at SIMD tier `level`; chains per element stay
/// in ascending-`p` reference order.
fn nn_block(level: SimdLevel, out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    simd::dispatch_nn(level, out, a, b, k, n);
}

/// Scalar (autovectorized) tier of [`nn_block`]: accumulates
/// `a_rows × b` into `out_rows`, element chains in ascending-`p` order.
fn nn_block_scalar(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let mut p0 = 0;
    while p0 < k {
        let p_end = (p0 + KC).min(k);
        for (orow, arow) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
            let mut p = p0;
            while p + 4 <= p_end {
                let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                // Coarse zero-skip: only when all four chain links vanish
                // (common for post-ReLU activations), so the vectorized
                // inner loop stays branch-free. Skipping `±0.0` adds is
                // bit-safe — see the module contract.
                if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                    p += 4;
                    continue;
                }
                let b0 = &b[p * n..(p + 1) * n];
                let b1 = &b[(p + 1) * n..(p + 2) * n];
                let b2 = &b[(p + 2) * n..(p + 3) * n];
                let b3 = &b[(p + 3) * n..(p + 4) * n];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = (((*o + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
                }
                p += 4;
            }
            while p < p_end {
                let ap = arow[p];
                if ap == 0.0 {
                    p += 1;
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += ap * bv;
                }
                p += 1;
            }
        }
        p0 = p_end;
    }
}

/// `out[m,n] += a[m,k] × b[k,n]`, parallel over row blocks on `pool`.
/// Pass a zeroed `out` for a plain product. Bit-identical to
/// [`reference::gemm_nn`] (which writes a fresh product) for finite
/// inputs at any thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions.
pub fn gemm_nn_with(
    pool: &WorkerPool,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm_nn a length");
    assert_eq!(b.len(), k * n, "gemm_nn b length");
    assert_eq!(out.len(), m * n, "gemm_nn out length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let level = simd::simd_level();
    let chunks = par_chunks(pool, m, 2 * m * k * n);
    if chunks <= 1 {
        nn_block(level, out, a, b, k, n);
        return;
    }
    let rows_per = m.div_ceil(chunks);
    pool.scatter(out, rows_per * n, |c, ochunk| {
        let r0 = c * rows_per;
        let rows = ochunk.len() / n;
        nn_block(level, ochunk, &a[r0 * k..(r0 + rows) * k], b, k, n);
    });
}

/// [`gemm_nn_with`] on the process-global pool.
pub fn gemm_nn(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    gemm_nn_with(WorkerPool::global(), out, a, b, m, k, n);
}

// ---------------------------------------------------------------------
// NT: out[m,kk] = g[m,n] × b[kk,n]ᵀ
// ---------------------------------------------------------------------

/// One output row of NT: `o[p] = Σ_j grow[j]·b[p,j]`, each chain
/// sequential in `j`, four independent chains in flight.
fn nt_row(orow: &mut [f32], grow: &[f32], b: &[f32], n: usize, kk: usize) {
    let mut p = 0;
    while p + 4 <= kk {
        let b0 = &b[p * n..(p + 1) * n];
        let b1 = &b[(p + 1) * n..(p + 2) * n];
        let b2 = &b[(p + 2) * n..(p + 3) * n];
        let b3 = &b[(p + 3) * n..(p + 4) * n];
        let (mut s0, mut s1, mut s2, mut s3) = (0f32, 0f32, 0f32, 0f32);
        for (j, &gv) in grow.iter().enumerate() {
            if gv == 0.0 {
                continue; // bit-safe ±0.0 skip; g is ReLU-sparse in backward
            }
            s0 += gv * b0[j];
            s1 += gv * b1[j];
            s2 += gv * b2[j];
            s3 += gv * b3[j];
        }
        orow[p] = s0;
        orow[p + 1] = s1;
        orow[p + 2] = s2;
        orow[p + 3] = s3;
        p += 4;
    }
    while p < kk {
        let brow = &b[p * n..(p + 1) * n];
        let mut s = 0f32;
        for (&gv, &bv) in grow.iter().zip(brow) {
            if gv == 0.0 {
                continue;
            }
            s += gv * bv;
        }
        orow[p] = s;
        p += 1;
    }
}

/// Two output rows of NT at once (eight independent chains).
fn nt_rows2(
    o0: &mut [f32],
    o1: &mut [f32],
    g0: &[f32],
    g1: &[f32],
    b: &[f32],
    n: usize,
    kk: usize,
) {
    let mut p = 0;
    while p + 4 <= kk {
        let b0 = &b[p * n..(p + 1) * n];
        let b1 = &b[(p + 1) * n..(p + 2) * n];
        let b2 = &b[(p + 2) * n..(p + 3) * n];
        let b3 = &b[(p + 3) * n..(p + 4) * n];
        let (mut s00, mut s01, mut s02, mut s03) = (0f32, 0f32, 0f32, 0f32);
        let (mut s10, mut s11, mut s12, mut s13) = (0f32, 0f32, 0f32, 0f32);
        for j in 0..n {
            let (x0, x1) = (g0[j], g1[j]);
            if x0 == 0.0 && x1 == 0.0 {
                continue;
            }
            s00 += x0 * b0[j];
            s01 += x0 * b1[j];
            s02 += x0 * b2[j];
            s03 += x0 * b3[j];
            s10 += x1 * b0[j];
            s11 += x1 * b1[j];
            s12 += x1 * b2[j];
            s13 += x1 * b3[j];
        }
        o0[p] = s00;
        o0[p + 1] = s01;
        o0[p + 2] = s02;
        o0[p + 3] = s03;
        o1[p] = s10;
        o1[p + 1] = s11;
        o1[p + 2] = s12;
        o1[p + 3] = s13;
        p += 4;
    }
    while p < kk {
        let brow = &b[p * n..(p + 1) * n];
        let (mut s0, mut s1) = (0f32, 0f32);
        for (j, &bv) in brow.iter().enumerate() {
            let (x0, x1) = (g0[j], g1[j]);
            if x0 == 0.0 && x1 == 0.0 {
                continue;
            }
            s0 += x0 * bv;
            s1 += x1 * bv;
        }
        o0[p] = s0;
        o1[p] = s1;
        p += 1;
    }
}

/// NT row-block kernel at the active SIMD tier.
fn nt_block(out: &mut [f32], g: &[f32], b: &[f32], n: usize, kk: usize) {
    if kk == 0 {
        return;
    }
    simd::dispatch_nt(out, g, b, n, kk);
}

/// Scalar (autovectorized) tier of [`nt_block`].
fn nt_block_scalar(out: &mut [f32], g: &[f32], b: &[f32], n: usize, kk: usize) {
    if kk == 0 {
        return;
    }
    let rows = out.len() / kk;
    let mut i = 0;
    while i + 2 <= rows {
        let (head, tail) = out[i * kk..].split_at_mut(kk);
        nt_rows2(
            head,
            &mut tail[..kk],
            &g[i * n..(i + 1) * n],
            &g[(i + 1) * n..(i + 2) * n],
            b,
            n,
            kk,
        );
        i += 2;
    }
    if i < rows {
        nt_row(
            &mut out[i * kk..(i + 1) * kk],
            &g[i * n..(i + 1) * n],
            b,
            n,
            kk,
        );
    }
}

/// `out[m,kk] = g[m,n] × b[kk,n]ᵀ` (fresh write), parallel over row
/// blocks on `pool`. Bit-identical to [`reference::gemm_nt`] at any
/// thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions.
pub fn gemm_nt_with(
    pool: &WorkerPool,
    out: &mut [f32],
    g: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    kk: usize,
) {
    assert_eq!(g.len(), m * n, "gemm_nt g length");
    assert_eq!(b.len(), kk * n, "gemm_nt b length");
    assert_eq!(out.len(), m * kk, "gemm_nt out length");
    if m == 0 || kk == 0 {
        return;
    }
    if n == 0 {
        out.fill(0.0);
        return;
    }
    let chunks = par_chunks(pool, m, 2 * m * n * kk);
    if chunks <= 1 {
        nt_block(out, g, b, n, kk);
        return;
    }
    let rows_per = m.div_ceil(chunks);
    pool.scatter(out, rows_per * kk, |c, ochunk| {
        let r0 = c * rows_per;
        let rows = ochunk.len() / kk;
        nt_block(ochunk, &g[r0 * n..(r0 + rows) * n], b, n, kk);
    });
}

/// [`gemm_nt_with`] on the process-global pool.
pub fn gemm_nt(out: &mut [f32], g: &[f32], b: &[f32], m: usize, n: usize, kk: usize) {
    gemm_nt_with(WorkerPool::global(), out, g, b, m, n, kk);
}

// ---------------------------------------------------------------------
// TN: out[k,n] += a[m,k]ᵀ × g[m,n]
// ---------------------------------------------------------------------

/// TN inner kernel at the active SIMD tier: `out` covers
/// output rows `p_off..p_off + out.len()/n`.
fn tn_block(out: &mut [f32], a: &[f32], g: &[f32], p_off: usize, m: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    simd::dispatch_tn(out, a, g, p_off, m, k, n);
}

/// Scalar (autovectorized) tier of [`tn_block`]; element chains ascend
/// over `i = 0..m` (four fused links per pass).
fn tn_block_scalar(
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    p_off: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    let mut i = 0;
    while i + 8 <= m {
        let g0 = &g[i * n..(i + 1) * n];
        let g1 = &g[(i + 1) * n..(i + 2) * n];
        let g2 = &g[(i + 2) * n..(i + 3) * n];
        let g3 = &g[(i + 3) * n..(i + 4) * n];
        let g4 = &g[(i + 4) * n..(i + 5) * n];
        let g5 = &g[(i + 5) * n..(i + 6) * n];
        let g6 = &g[(i + 6) * n..(i + 7) * n];
        let g7 = &g[(i + 7) * n..(i + 8) * n];
        for (pi, orow) in out.chunks_exact_mut(n).enumerate() {
            let p = p_off + pi;
            let (a0, a1, a2, a3, a4, a5, a6, a7) = (
                a[i * k + p],
                a[(i + 1) * k + p],
                a[(i + 2) * k + p],
                a[(i + 3) * k + p],
                a[(i + 4) * k + p],
                a[(i + 5) * k + p],
                a[(i + 6) * k + p],
                a[(i + 7) * k + p],
            );
            if a0 == 0.0
                && a1 == 0.0
                && a2 == 0.0
                && a3 == 0.0
                && a4 == 0.0
                && a5 == 0.0
                && a6 == 0.0
                && a7 == 0.0
            {
                continue;
            }
            for (j, o) in orow.iter_mut().enumerate() {
                *o = (((((((*o + a0 * g0[j]) + a1 * g1[j]) + a2 * g2[j]) + a3 * g3[j])
                    + a4 * g4[j])
                    + a5 * g5[j])
                    + a6 * g6[j])
                    + a7 * g7[j];
            }
        }
        i += 8;
    }
    while i + 4 <= m {
        let g0 = &g[i * n..(i + 1) * n];
        let g1 = &g[(i + 1) * n..(i + 2) * n];
        let g2 = &g[(i + 2) * n..(i + 3) * n];
        let g3 = &g[(i + 3) * n..(i + 4) * n];
        for (pi, orow) in out.chunks_exact_mut(n).enumerate() {
            let p = p_off + pi;
            let (a0, a1, a2, a3) = (
                a[i * k + p],
                a[(i + 1) * k + p],
                a[(i + 2) * k + p],
                a[(i + 3) * k + p],
            );
            // Coarse zero-skip (bit-safe ±0.0 adds, see module contract):
            // post-ReLU activation columns are often dead across the
            // whole batch quad.
            if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                continue;
            }
            for (j, o) in orow.iter_mut().enumerate() {
                *o = (((*o + a0 * g0[j]) + a1 * g1[j]) + a2 * g2[j]) + a3 * g3[j];
            }
        }
        i += 4;
    }
    while i < m {
        let grow = &g[i * n..(i + 1) * n];
        for (pi, orow) in out.chunks_exact_mut(n).enumerate() {
            let ap = a[i * k + p_off + pi];
            if ap == 0.0 {
                continue;
            }
            for (o, &gv) in orow.iter_mut().zip(grow) {
                *o += ap * gv;
            }
        }
        i += 1;
    }
}

/// `out[k,n] += a[m,k]ᵀ × g[m,n]`, parallel over output-row blocks on
/// `pool`. Pass a zeroed `out` for a plain product. Bit-identical to
/// [`reference::gemm_tn`] for finite inputs at any thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions.
pub fn gemm_tn_with(
    pool: &WorkerPool,
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm_tn a length");
    assert_eq!(g.len(), m * n, "gemm_tn g length");
    assert_eq!(out.len(), k * n, "gemm_tn out length");
    if k == 0 || n == 0 || m == 0 {
        return;
    }
    let chunks = par_chunks(pool, k, 2 * m * k * n);
    if chunks <= 1 {
        tn_block(out, a, g, 0, m, k, n);
        return;
    }
    let rows_per = k.div_ceil(chunks);
    pool.scatter(out, rows_per * n, |c, ochunk| {
        tn_block(ochunk, a, g, c * rows_per, m, k, n);
    });
}

/// [`gemm_tn_with`] on the process-global pool.
pub fn gemm_tn(out: &mut [f32], a: &[f32], g: &[f32], m: usize, k: usize, n: usize) {
    gemm_tn_with(WorkerPool::global(), out, a, g, m, k, n);
}

// ---------------------------------------------------------------------
// Convolution lowering
// ---------------------------------------------------------------------

/// The geometry of one 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub cin: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub cout: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub pad: usize,
}

impl ConvShape {
    /// Builds the geometry from `x [b,cin,h,w]` and `w [cout,cin,kh,kw]`
    /// shapes.
    ///
    /// # Panics
    ///
    /// Panics on non-4-D shapes or a channel mismatch.
    pub fn from_shapes(sx: &[usize], sw: &[usize], stride: usize, pad: usize) -> Self {
        assert!(sx.len() == 4 && sw.len() == 4, "conv2d expects 4-D tensors");
        assert_eq!(sx[1], sw[1], "conv2d channel mismatch");
        ConvShape {
            batch: sx[0],
            cin: sx[1],
            h: sx[2],
            w: sx[3],
            cout: sw[0],
            kh: sw[2],
            kw: sw[3],
            stride,
            pad,
        }
    }

    /// Output height.
    pub fn oh(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn ow(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }
}

/// Fills `cols` (`cin·kh·kw × oh·ow`, row `r = (ci·kh + ki)·kw + kj`,
/// column `j = oi·ow + oj`) from one batch item's input plane, writing
/// explicit zeros where the padded window leaves the image.
fn im2col(x: &[f32], cols: &mut [f32], s: &ConvShape) {
    let (oh, ow) = (s.oh(), s.ow());
    let ohow = oh * ow;
    for ci in 0..s.cin {
        let xc = &x[ci * s.h * s.w..][..s.h * s.w];
        for ki in 0..s.kh {
            for kj in 0..s.kw {
                let r = (ci * s.kh + ki) * s.kw + kj;
                let row = &mut cols[r * ohow..][..ohow];
                for oi in 0..oh {
                    let ii = (oi * s.stride + ki) as isize - s.pad as isize;
                    let dst = &mut row[oi * ow..][..ow];
                    if ii < 0 || ii >= s.h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let xrow = &xc[ii as usize * s.w..][..s.w];
                    for (oj, d) in dst.iter_mut().enumerate() {
                        let jj = (oj * s.stride + kj) as isize - s.pad as isize;
                        *d = if jj < 0 || jj >= s.w as isize {
                            0.0
                        } else {
                            xrow[jj as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Forward convolution, writing into a zeroed `out`
/// (`batch·cout·oh·ow`) at the active SIMD tier. Scratch buffers are
/// borrowed from (and returned to) `scratch`. Bit-identical to
/// [`reference::conv2d_forward`] for finite inputs.
///
/// Two lowerings, both preserving the reference's per-input-channel
/// register chain (`(ki, kj)` ascending) and channel-ordered partial
/// adds:
///
/// * 3×3, stride 1, pad 1 (the decoder convs): the direct register-tiled
///   kernel over a zero-padded copy of the input (module `conv3x3`).
/// * everything else: im2col + one small GEMM per input channel.
pub fn conv2d_forward_into(
    out: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    conv2d_forward_at(simd::simd_level(), out, x, wgt, s, scratch);
}

/// [`conv2d_forward_into`] through the kernels of one specific SIMD
/// tier, bypassing the global dispatch state — the race-free A/B
/// surface for equivalence tests.
///
/// # Panics
///
/// Panics if `level` is unsupported on this hardware or if slice
/// lengths do not match the geometry.
pub fn conv2d_forward_at(
    level: SimdLevel,
    out: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    assert!(
        level.is_supported(),
        "SIMD level {level:?} unsupported here"
    );
    let (oh, ow) = (s.oh(), s.ow());
    let (ohow, khkw) = (oh * ow, s.kh * s.kw);
    assert_eq!(x.len(), s.batch * s.cin * s.h * s.w, "conv2d x length");
    assert_eq!(wgt.len(), s.cout * s.cin * khkw, "conv2d w length");
    assert_eq!(out.len(), s.batch * s.cout * ohow, "conv2d out length");
    if out.is_empty() {
        return;
    }
    if conv3x3::applies(s) {
        conv3x3::forward(level, out, x, wgt, s, scratch);
        return;
    }
    let mut cols = scratch.take_zeroed(s.cin * khkw * ohow);
    // Weights packed per input channel: wpack[ci][co][kh·kw].
    let mut wpack = scratch.take_empty(s.cin * s.cout * khkw);
    for ci in 0..s.cin {
        for co in 0..s.cout {
            wpack.extend_from_slice(&wgt[(co * s.cin + ci) * khkw..][..khkw]);
        }
    }
    let mut part = if s.cin > 1 {
        scratch.take_zeroed(s.cout * ohow)
    } else {
        Vec::new()
    };
    for bi in 0..s.batch {
        im2col(
            &x[bi * s.cin * s.h * s.w..][..s.cin * s.h * s.w],
            &mut cols,
            s,
        );
        let obi = &mut out[bi * s.cout * ohow..][..s.cout * ohow];
        if s.cin == 1 {
            nn_block(
                level,
                obi,
                &wpack[..s.cout * khkw],
                &cols[..khkw * ohow],
                khkw,
                ohow,
            );
        } else {
            for ci in 0..s.cin {
                part.fill(0.0);
                nn_block(
                    level,
                    &mut part,
                    &wpack[ci * s.cout * khkw..][..s.cout * khkw],
                    &cols[ci * khkw * ohow..][..khkw * ohow],
                    khkw,
                    ohow,
                );
                for (o, &pv) in obi.iter_mut().zip(&part) {
                    *o += pv;
                }
            }
        }
    }
    scratch.give(cols);
    scratch.give(wpack);
    if s.cin > 1 {
        scratch.give(part);
    }
}

/// Backward convolution at the active SIMD tier: writes the input
/// gradient into a zeroed `gx` and the weight gradient into a zeroed
/// `gw`. Bit-identical to [`reference::conv2d_backward`] for finite
/// inputs.
///
/// * 3×3, stride 1, pad 1: the direct register-tiled kernel of the
///   `conv3x3` module (`gx` as a correlation over the zero-padded output
///   gradient, `gw` with SIMD lanes over input channels).
/// * other 3×3 geometries (the stride-2 encoder): a compact list of the
///   nonzero output-gradient positions replayed per input channel
///   (`conv2d_backward_3x3`).
/// * any other kernel: a fused direct kernel keeping the reference's
///   `g == 0` skip, with the per-multiply bounds checks hoisted into
///   precomputed valid kernel intervals per output position, and the
///   input-channel loop *inside* the gradient-zero test (legal because
///   `ci` is part of every touched element's identity: for any fixed
///   element the contribution order is still the reference's
///   `(co, oi, oj, ki, kj)` (gx) and `(bi, oi, oj)` (gw)).
pub fn conv2d_backward_into(
    gx: &mut [f32],
    gw: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    gout: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    conv2d_backward_at(simd::simd_level(), gx, gw, x, wgt, gout, s, scratch);
}

/// [`conv2d_backward_into`] through the kernels of one specific SIMD
/// tier; see [`conv2d_forward_at`].
///
/// # Panics
///
/// Panics if `level` is unsupported on this hardware or if slice
/// lengths do not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_at(
    level: SimdLevel,
    gx: &mut [f32],
    gw: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    gout: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    assert!(
        level.is_supported(),
        "SIMD level {level:?} unsupported here"
    );
    let (oh, ow) = (s.oh(), s.ow());
    let (ohow, khkw) = (oh * ow, s.kh * s.kw);
    let hw = s.h * s.w;
    assert_eq!(x.len(), s.batch * s.cin * hw, "conv2d x length");
    assert_eq!(gx.len(), x.len(), "conv2d gx length");
    assert_eq!(wgt.len(), s.cout * s.cin * khkw, "conv2d w length");
    assert_eq!(gw.len(), wgt.len(), "conv2d gw length");
    assert_eq!(gout.len(), s.batch * s.cout * ohow, "conv2d gout length");
    if conv3x3::applies(s) {
        conv3x3::backward(level, gx, gw, x, wgt, gout, s, scratch);
        return;
    }
    if s.kh == 3 && s.kw == 3 {
        conv2d_backward_3x3(gx, gw, x, wgt, gout, s);
        return;
    }
    for bi in 0..s.batch {
        let xb = &x[bi * s.cin * hw..][..s.cin * hw];
        let gxb = &mut gx[bi * s.cin * hw..][..s.cin * hw];
        for co in 0..s.cout {
            let gsl = &gout[(bi * s.cout + co) * ohow..][..ohow];
            let wco = &wgt[co * s.cin * khkw..][..s.cin * khkw];
            let gwco = &mut gw[co * s.cin * khkw..][..s.cin * khkw];
            for oi in 0..oh {
                let base_i = (oi * s.stride) as isize - s.pad as isize;
                let ki_lo = ((-base_i).max(0) as usize).min(s.kh);
                let ki_hi = ((s.h as isize - base_i).max(0) as usize).min(s.kh);
                if ki_lo >= ki_hi {
                    continue;
                }
                for oj in 0..ow {
                    let g = gsl[oi * ow + oj];
                    if g == 0.0 {
                        continue;
                    }
                    let base_j = (oj * s.stride) as isize - s.pad as isize;
                    let kj_lo = ((-base_j).max(0) as usize).min(s.kw);
                    let kj_hi = ((s.w as isize - base_j).max(0) as usize).min(s.kw);
                    if kj_lo >= kj_hi {
                        continue;
                    }
                    let span = kj_hi - kj_lo;
                    for ci in 0..s.cin {
                        let xc = &xb[ci * hw..][..hw];
                        let gxc = &mut gxb[ci * hw..][..hw];
                        let wsl = &wco[ci * khkw..][..khkw];
                        let gwsl = &mut gwco[ci * khkw..][..khkw];
                        for ki in ki_lo..ki_hi {
                            let ii = (base_i + ki as isize) as usize;
                            let jj0 = (base_j + kj_lo as isize) as usize;
                            let gxrow = &mut gxc[ii * s.w + jj0..][..span];
                            let xrow = &xc[ii * s.w + jj0..][..span];
                            let wrow = &wsl[ki * s.kw + kj_lo..][..span];
                            let gwrow = &mut gwsl[ki * s.kw + kj_lo..][..span];
                            if span == 3 {
                                // Straight-line interior case for the 3×3
                                // kernels every model here uses; same
                                // gx-then-gw interleave as the reference.
                                gxrow[0] += g * wrow[0];
                                gwrow[0] += g * xrow[0];
                                gxrow[1] += g * wrow[1];
                                gwrow[1] += g * xrow[1];
                                gxrow[2] += g * wrow[2];
                                gwrow[2] += g * xrow[2];
                            } else {
                                for q in 0..span {
                                    gxrow[q] += g * wrow[q];
                                    gwrow[q] += g * xrow[q];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One nonzero output-gradient position with its precomputed valid
/// kernel intervals (see [`conv2d_backward_3x3`]).
struct NzEntry {
    base_i: i32,
    base_j: i32,
    ki_lo: u8,
    ki_hi: u8,
    kj_lo: u8,
    kj_hi: u8,
    g: f32,
}

/// 3×3 backward for the geometries `conv3x3` does not cover (the
/// stride-2 encoder convs). Same element-chain orders as the generic
/// path — and therefore the reference — with these structural cuts:
///
/// * the sparse scan of the output gradient (load, zero-test, interval
///   math) happens once per `(bi, co)` into a compact entry list that
///   every input channel then replays;
/// * the nine weights are read into registers per channel, and the nine
///   weight-gradient accumulators live in registers across the whole
///   position scan (loaded from and stored back to `gw`, preserving the
///   reference's `(bi, oi, oj)` chain per element).
fn conv2d_backward_3x3(
    gx: &mut [f32],
    gw: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    gout: &[f32],
    s: &ConvShape,
) {
    let (oh, ow) = (s.oh(), s.ow());
    let ohow = oh * ow;
    let hw = s.h * s.w;
    let mut nz: Vec<NzEntry> = Vec::with_capacity(ohow);
    for bi in 0..s.batch {
        let xb = &x[bi * s.cin * hw..][..s.cin * hw];
        let gxb = &mut gx[bi * s.cin * hw..][..s.cin * hw];
        for co in 0..s.cout {
            let gsl = &gout[(bi * s.cout + co) * ohow..][..ohow];
            nz.clear();
            for oi in 0..oh {
                let base_i = (oi * s.stride) as isize - s.pad as isize;
                let ki_lo = ((-base_i).max(0) as usize).min(3);
                let ki_hi = ((s.h as isize - base_i).max(0) as usize).min(3);
                if ki_lo >= ki_hi {
                    continue;
                }
                for (oj, &g) in gsl[oi * ow..][..ow].iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    let base_j = (oj * s.stride) as isize - s.pad as isize;
                    let kj_lo = ((-base_j).max(0) as usize).min(3);
                    let kj_hi = ((s.w as isize - base_j).max(0) as usize).min(3);
                    if kj_lo >= kj_hi {
                        continue;
                    }
                    nz.push(NzEntry {
                        base_i: base_i as i32,
                        base_j: base_j as i32,
                        ki_lo: ki_lo as u8,
                        ki_hi: ki_hi as u8,
                        kj_lo: kj_lo as u8,
                        kj_hi: kj_hi as u8,
                        g,
                    });
                }
            }
            for ci in 0..s.cin {
                let xc = &xb[ci * hw..][..hw];
                let gxc = &mut gxb[ci * hw..][..hw];
                let wbase = (co * s.cin + ci) * 9;
                let wsl: [f32; 9] = wgt[wbase..wbase + 9].try_into().expect("3x3 kernel");
                let mut gwacc: [f32; 9] = gw[wbase..wbase + 9].try_into().expect("3x3 kernel");
                for e in &nz {
                    let g = e.g;
                    if e.ki_lo == 0 && e.ki_hi == 3 && e.kj_lo == 0 && e.kj_hi == 3 {
                        // Full-interior 3×3 block: straight line,
                        // reference (ki, kj) order.
                        let mut r0 = (e.base_i as usize) * s.w + e.base_j as usize;
                        for wb in [0usize, 3, 6] {
                            let xr = &xc[r0..r0 + 3];
                            let gxr = &mut gxc[r0..r0 + 3];
                            gxr[0] += g * wsl[wb];
                            gwacc[wb] += g * xr[0];
                            gxr[1] += g * wsl[wb + 1];
                            gwacc[wb + 1] += g * xr[1];
                            gxr[2] += g * wsl[wb + 2];
                            gwacc[wb + 2] += g * xr[2];
                            r0 += s.w;
                        }
                        continue;
                    }
                    let span = (e.kj_hi - e.kj_lo) as usize;
                    for ki in e.ki_lo..e.ki_hi {
                        let ii = (e.base_i + i32::from(ki)) as usize;
                        let row0 = ii * s.w + (e.base_j + i32::from(e.kj_lo)) as usize;
                        let wb = usize::from(ki) * 3 + usize::from(e.kj_lo);
                        let gxrow = &mut gxc[row0..row0 + span];
                        let xrow = &xc[row0..row0 + span];
                        for q in 0..span {
                            gxrow[q] += g * wsl[wb + q];
                            gwacc[wb + q] += g * xrow[q];
                        }
                    }
                }
                gw[wbase..wbase + 9].copy_from_slice(&gwacc);
            }
        }
    }
}

/// The direct 3×3, stride-1, pad-1 convolution (the decoder convs) —
/// forward, `gx` and `gw` — at every SIMD tier.
///
/// Forward and `gx` are one kernel, [`Corr3`]: a multi-channel 3×3
/// correlation over zero-padded source planes with SIMD lanes along
/// output rows and a `channels × vectors` tile of accumulators held in
/// registers. The padded copy turns every border position into a full
/// nine-tap window, so the kernel has no edge cases:
///
/// * forward: source = the input, weights as stored; per output element
///   one partial per input channel (`(ki, kj)` ascending from `+0.0`),
///   added into the output in `ci` order — the reference grouping.
/// * `gx`: source = the output gradient, weights transposed to
///   `[ci][co]` and flipped; one chain per element, `co` ascending, then
///   `ki` descending, then `kj` descending — the order in which the
///   reference's `(co, oi, oj)` loops reach it.
///
/// `gw` ([`Gw3`]) keeps the reference's `(bi, oi, oj)` chain per weight
/// with SIMD lanes over input channels, read from a channel-last padded
/// copy of the input.
///
/// Padded taps add `x·(±0.0)` products and the reference's `g == 0`
/// skip is dropped; both are bit-safe by the module lemma (every chain
/// starts at `+0.0`, so adding `±0.0` never changes it).
mod conv3x3 {
    use super::{simd, ConvShape, ScratchArena, SimdLevel};

    /// Whether `s` is the geometry this kernel covers.
    pub(super) fn applies(s: &ConvShape) -> bool {
        s.kh == 3 && s.kw == 3 && s.stride == 1 && s.pad == 1
    }

    /// One multi-channel 3×3 correlation: for each destination channel
    /// `c` and position `(r, j)`,
    /// `dst[c](r, j) (chain)+= Σ_k Σ_t src[k](r + t/3, j + t%3)·wts[c][k][t]`
    /// with `k` and then `t` ascending. With `partials` each source
    /// channel's nine products form a partial chain from `+0.0` that is
    /// then added into `dst`; without, all products extend one chain.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Corr3 {
        /// Source channels.
        pub nch: usize,
        /// Destination channels.
        pub nout: usize,
        /// Source plane stride.
        pub plane: usize,
        /// Source row stride (`>= cols + 2`).
        pub pw: usize,
        /// Output rows.
        pub rows: usize,
        /// Computed columns per row, a multiple of 8.
        pub cols: usize,
        /// Destination plane stride.
        pub dplane: usize,
        /// Destination row stride (`>= cols`).
        pub ds: usize,
        /// Per-source-channel partial chains (forward) or one chain
        /// (`gx`).
        pub partials: bool,
    }

    impl Corr3 {
        /// Offsets of the nine taps from a window's top-left corner.
        pub fn taps(&self) -> [usize; 9] {
            core::array::from_fn(|t| (t / 3) * self.pw + t % 3)
        }
    }

    /// The `gw` accumulation for one `(bi, co)`: for each tap `t` and
    /// channel lane `ci`, `acc[t][ci] (chain)+= g(r, j)·x[ci](r + t/3,
    /// j + t%3)` over positions `(r, j)` ascending, `x` channel-last and
    /// zero-padded.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Gw3 {
        /// Channel lanes per position (input channels rounded up to the
        /// tier's vector width; the extra lanes are zero).
        pub cinp: usize,
        /// Positions per padded row (`cols + 2`).
        pub pw: usize,
        /// Output rows.
        pub rows: usize,
        /// Output columns.
        pub cols: usize,
    }

    impl Gw3 {
        /// Offsets of the nine taps, in elements, from a window's
        /// top-left lane 0.
        pub fn taps(&self) -> [usize; 9] {
            core::array::from_fn(|t| ((t / 3) * self.pw + t % 3) * self.cinp)
        }
    }

    /// Scalar tier of [`Corr3`]: eight-lane blocks, written so the
    /// compiler can vectorize the lane loops.
    pub(super) fn corr3_scalar(g: &Corr3, src: &[f32], wts: &[f32], dst: &mut [f32]) {
        const L: usize = 8;
        let taps = g.taps();
        for c in 0..g.nout {
            let wc = &wts[c * g.nch * 9..][..g.nch * 9];
            for r in 0..g.rows {
                for j in (0..g.cols).step_by(L) {
                    let d = &mut dst[c * g.dplane + r * g.ds + j..][..L];
                    let mut acc = [0.0f32; L];
                    acc.copy_from_slice(d);
                    for (k, wk) in wc.chunks_exact(9).enumerate() {
                        let sk = &src[k * g.plane + r * g.pw + j..];
                        let mut part = if g.partials { [0.0f32; L] } else { acc };
                        for (&off, &wv) in taps.iter().zip(wk) {
                            for (p, &xv) in part.iter_mut().zip(&sk[off..off + L]) {
                                *p += xv * wv;
                            }
                        }
                        if g.partials {
                            for (a, &p) in acc.iter_mut().zip(&part) {
                                *a += p;
                            }
                        } else {
                            acc = part;
                        }
                    }
                    d.copy_from_slice(&acc);
                }
            }
        }
    }

    /// Scalar tier of [`Gw3`] (`cinp` = the input channel count).
    pub(super) fn gw3_scalar(g: &Gw3, xcl: &[f32], gplane: &[f32], acc: &mut [f32]) {
        let taps = g.taps();
        for r in 0..g.rows {
            for j in 0..g.cols {
                let gv = gplane[r * g.cols + j];
                let base = (r * g.pw + j) * g.cinp;
                for (&off, a) in taps.iter().zip(acc.chunks_exact_mut(g.cinp)) {
                    for (a, &xv) in a.iter_mut().zip(&xcl[base + off..][..g.cinp]) {
                        *a += gv * xv;
                    }
                }
            }
        }
    }

    /// `(cols, pw, plane)` of the padded planes for an `h × w` image:
    /// computed columns rounded up to whole vectors, one zero border
    /// row/column on each side.
    fn padded(h: usize, w: usize) -> (usize, usize, usize) {
        let cols = w.next_multiple_of(8);
        let pw = cols + 2;
        (cols, pw, (h + 2) * pw)
    }

    /// Copies `nch` dense `h × w` planes into the interiors of padded
    /// planes; the zero borders are never written.
    fn fill_padded(dst: &mut [f32], src: &[f32], h: usize, w: usize, pw: usize, plane: usize) {
        for (dk, sk) in dst.chunks_exact_mut(plane).zip(src.chunks_exact(h * w)) {
            for (i, row) in sk.chunks_exact(w).enumerate() {
                dk[(i + 1) * pw + 1..][..w].copy_from_slice(row);
            }
        }
    }

    /// Runs `g` for one batch item into `out` (`nout` dense `rows × w`
    /// planes): in place when rows are whole vectors, otherwise through
    /// `wide`, a copy of `out` with rows padded to `cols`.
    fn run(
        level: SimdLevel,
        mut g: Corr3,
        w: usize,
        src: &[f32],
        wts: &[f32],
        out: &mut [f32],
        wide: &mut [f32],
    ) {
        if g.cols == w {
            g.ds = w;
            g.dplane = g.rows * w;
            simd::corr3(level, &g, src, wts, out);
            return;
        }
        g.ds = g.cols;
        g.dplane = g.rows * g.cols;
        for (wrow, orow) in wide.chunks_exact_mut(g.cols).zip(out.chunks_exact(w)) {
            wrow[..w].copy_from_slice(orow);
            wrow[w..].fill(0.0);
        }
        simd::corr3(level, &g, src, wts, wide);
        for (wrow, orow) in wide.chunks_exact(g.cols).zip(out.chunks_exact_mut(w)) {
            orow.copy_from_slice(&wrow[..w]);
        }
    }

    /// Forward pass into a zeroed `out`.
    pub(super) fn forward(
        level: SimdLevel,
        out: &mut [f32],
        x: &[f32],
        wgt: &[f32],
        s: &ConvShape,
        scratch: &mut ScratchArena,
    ) {
        let (h, w) = (s.h, s.w);
        let hw = h * w;
        let (cols, pw, plane) = padded(h, w);
        let mut xpad = scratch.take_zeroed(s.cin * plane);
        let mut wide = if cols == w {
            Vec::new()
        } else {
            scratch.take_zeroed(s.cout * h * cols)
        };
        let g = Corr3 {
            nch: s.cin,
            nout: s.cout,
            plane,
            pw,
            rows: h,
            cols,
            dplane: 0,
            ds: 0,
            partials: true,
        };
        for bi in 0..s.batch {
            fill_padded(
                &mut xpad,
                &x[bi * s.cin * hw..][..s.cin * hw],
                h,
                w,
                pw,
                plane,
            );
            let ob = &mut out[bi * s.cout * hw..][..s.cout * hw];
            run(level, g, w, &xpad, wgt, ob, &mut wide);
        }
        scratch.give(xpad);
        scratch.give(wide);
    }

    /// Backward pass into zeroed `gx` and `gw`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn backward(
        level: SimdLevel,
        gx: &mut [f32],
        gw: &mut [f32],
        x: &[f32],
        wgt: &[f32],
        gout: &[f32],
        s: &ConvShape,
        scratch: &mut ScratchArena,
    ) {
        let (h, w) = (s.h, s.w);
        let hw = h * w;
        let (cin, cout) = (s.cin, s.cout);
        // gx: the padded output gradient against the weights transposed
        // to [ci][co] and flipped in (ki, kj).
        let (cols, pw, plane) = padded(h, w);
        let mut gpad = scratch.take_zeroed(cout * plane);
        let mut wflip = scratch.take_empty(cin * cout * 9);
        for ci in 0..cin {
            for co in 0..cout {
                let wk = &wgt[(co * cin + ci) * 9..][..9];
                wflip.extend(wk.iter().rev());
            }
        }
        let mut wide = if cols == w {
            Vec::new()
        } else {
            scratch.take_zeroed(cin * h * cols)
        };
        let gx_corr = Corr3 {
            nch: cout,
            nout: cin,
            plane,
            pw,
            rows: h,
            cols,
            dplane: 0,
            ds: 0,
            partials: false,
        };
        // gw: channel-last padded input, accumulators [co][tap][cinp].
        let cinp = cin.next_multiple_of(simd::f32_lanes(level));
        let gw_plan = Gw3 {
            cinp,
            pw: w + 2,
            rows: h,
            cols: w,
        };
        let mut xcl = scratch.take_zeroed((h + 2) * gw_plan.pw * cinp);
        let mut gwcl = scratch.take_zeroed(cout * 9 * cinp);
        for co in 0..cout {
            for ci in 0..cin {
                for t in 0..9 {
                    gwcl[(co * 9 + t) * cinp + ci] = gw[(co * cin + ci) * 9 + t];
                }
            }
        }
        for bi in 0..s.batch {
            let gb = &gout[bi * cout * hw..][..cout * hw];
            fill_padded(&mut gpad, gb, h, w, pw, plane);
            let gxb = &mut gx[bi * cin * hw..][..cin * hw];
            run(level, gx_corr, w, &gpad, &wflip, gxb, &mut wide);
            let xb = &x[bi * cin * hw..][..cin * hw];
            for (ci, xc) in xb.chunks_exact(hw).enumerate() {
                for (i, row) in xc.chunks_exact(w).enumerate() {
                    let base = ((i + 1) * gw_plan.pw + 1) * cinp + ci;
                    for (j, &xv) in row.iter().enumerate() {
                        xcl[base + j * cinp] = xv;
                    }
                }
            }
            for (gplane, acc) in gb.chunks_exact(hw).zip(gwcl.chunks_exact_mut(9 * cinp)) {
                simd::gw3(level, &gw_plan, &xcl, gplane, acc);
            }
        }
        for co in 0..cout {
            for ci in 0..cin {
                for t in 0..9 {
                    gw[(co * cin + ci) * 9 + t] = gwcl[(co * 9 + t) * cinp + ci];
                }
            }
        }
        scratch.give(gpad);
        scratch.give(wflip);
        scratch.give(wide);
        scratch.give(xcl);
        scratch.give(gwcl);
    }
}

/// The retained naive kernels — the bit-exactness reference for every
/// fast path in this module, moved verbatim from the original
/// `graph.rs` implementations (zero-skips and all).
pub mod reference {
    use super::ConvShape;

    /// Naive `out[m,n] = a[m,k] × b[k,n]` with the historical
    /// `a == 0.0` zero-skip.
    pub fn gemm_nn(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aip * bv;
                }
            }
        }
    }

    /// Naive `out[m,kk] = g[m,n] × b[kk,n]ᵀ` (sequential dot products).
    pub fn gemm_nt(out: &mut [f32], g: &[f32], b: &[f32], m: usize, n: usize, kk: usize) {
        for i in 0..m {
            for p in 0..kk {
                let mut acc = 0.0;
                let grow = &g[i * n..(i + 1) * n];
                let brow = &b[p * n..(p + 1) * n];
                for (gv, bv) in grow.iter().zip(brow) {
                    acc += gv * bv;
                }
                out[i * kk + p] = acc;
            }
        }
    }

    /// Naive `out[k,n] = a[m,k]ᵀ × g[m,n]` with the historical
    /// `a == 0.0` zero-skip.
    pub fn gemm_tn(out: &mut [f32], a: &[f32], g: &[f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let grow = &g[i * n..(i + 1) * n];
                let orow = &mut out[p * n..(p + 1) * n];
                for (o, &gv) in orow.iter_mut().zip(grow) {
                    *o += aip * gv;
                }
            }
        }
    }

    /// Naive direct convolution forward (into a zeroed `out`).
    pub fn conv2d_forward(out: &mut [f32], x: &[f32], wgt: &[f32], s: &ConvShape) {
        let (oh, ow) = (s.oh(), s.ow());
        for bi in 0..s.batch {
            for co in 0..s.cout {
                let obase = (bi * s.cout + co) * oh * ow;
                for ci in 0..s.cin {
                    let xbase = (bi * s.cin + ci) * s.h * s.w;
                    let wbase = (co * s.cin + ci) * s.kh * s.kw;
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let mut acc = 0.0f32;
                            for ki in 0..s.kh {
                                let ii = (oi * s.stride + ki) as isize - s.pad as isize;
                                if ii < 0 || ii >= s.h as isize {
                                    continue;
                                }
                                for kj in 0..s.kw {
                                    let jj = (oj * s.stride + kj) as isize - s.pad as isize;
                                    if jj < 0 || jj >= s.w as isize {
                                        continue;
                                    }
                                    acc += x[xbase + ii as usize * s.w + jj as usize]
                                        * wgt[wbase + ki * s.kw + kj];
                                }
                            }
                            out[obase + oi * ow + oj] += acc;
                        }
                    }
                }
            }
        }
    }

    /// Naive direct convolution backward (into zeroed `gx`/`gw`).
    pub fn conv2d_backward(
        gx: &mut [f32],
        gw: &mut [f32],
        x: &[f32],
        wgt: &[f32],
        gout: &[f32],
        s: &ConvShape,
    ) {
        let (oh, ow) = (s.oh(), s.ow());
        for bi in 0..s.batch {
            for co in 0..s.cout {
                let obase = (bi * s.cout + co) * oh * ow;
                for ci in 0..s.cin {
                    let xbase = (bi * s.cin + ci) * s.h * s.w;
                    let wbase = (co * s.cin + ci) * s.kh * s.kw;
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let g = gout[obase + oi * ow + oj];
                            if g == 0.0 {
                                continue;
                            }
                            for ki in 0..s.kh {
                                let ii = (oi * s.stride + ki) as isize - s.pad as isize;
                                if ii < 0 || ii >= s.h as isize {
                                    continue;
                                }
                                for kj in 0..s.kw {
                                    let jj = (oj * s.stride + kj) as isize - s.pad as isize;
                                    if jj < 0 || jj >= s.w as isize {
                                        continue;
                                    }
                                    let xi = xbase + ii as usize * s.w + jj as usize;
                                    let wi = wbase + ki * s.kw + kj;
                                    gx[xi] += g * wgt[wi];
                                    gw[wi] += g * x[xi];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f32> {
        // Deterministic mix of magnitudes, zeros, and signs.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match s % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((s % 2000) as f32 - 1000.0) / 64.0,
                }
            })
            .collect()
    }

    #[test]
    fn nn_matches_reference_bitwise() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 32, 9),
            (8, 257, 13),
            (5, 0, 4),
            (0, 3, 3),
        ] {
            let a = vals(m * k, 1);
            let b = vals(k * n, 2);
            let mut fast = vec![0.0f32; m * n];
            let mut naive = vec![0.0f32; m * n];
            gemm_nn(&mut fast, &a, &b, m, k, n);
            reference::gemm_nn(&mut naive, &a, &b, m, k, n);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn nt_matches_reference_bitwise() {
        for &(m, n, kk) in &[(1, 1, 1), (2, 9, 5), (7, 33, 4), (3, 0, 6), (6, 130, 11)] {
            let g = vals(m * n, 3);
            let b = vals(kk * n, 4);
            let mut fast = vec![0.0f32; m * kk];
            let mut naive = vec![0.0f32; m * kk];
            gemm_nt(&mut fast, &g, &b, m, n, kk);
            reference::gemm_nt(&mut naive, &g, &b, m, n, kk);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m},{n},{kk})"
            );
        }
    }

    #[test]
    fn tn_matches_reference_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 8), (33, 7, 6), (0, 4, 4), (9, 12, 259)] {
            let a = vals(m * k, 5);
            let g = vals(m * n, 6);
            let mut fast = vec![0.0f32; k * n];
            let mut naive = vec![0.0f32; k * n];
            gemm_tn(&mut fast, &a, &g, m, k, n);
            reference::gemm_tn(&mut naive, &a, &g, m, k, n);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn conv_forward_and_backward_match_reference_bitwise() {
        for &(b, cin, h, w, cout, kk, stride, pad) in &[
            (1, 1, 5, 5, 2, 3, 1, 1),
            (2, 3, 8, 7, 4, 3, 2, 1),
            (1, 2, 4, 9, 3, 2, 2, 0),
            (3, 1, 1, 1, 1, 1, 1, 0),
            (2, 2, 6, 6, 2, 3, 1, 0),
        ] {
            let s = ConvShape {
                batch: b,
                cin,
                h,
                w,
                cout,
                kh: kk,
                kw: kk,
                stride,
                pad,
            };
            let x = vals(b * cin * h * w, 7);
            let wgt = vals(cout * cin * kk * kk, 8);
            let out_len = b * cout * s.oh() * s.ow();
            let mut scratch = ScratchArena::new();
            let mut fast = vec![0.0f32; out_len];
            let mut naive = vec![0.0f32; out_len];
            conv2d_forward_into(&mut fast, &x, &wgt, &s, &mut scratch);
            reference::conv2d_forward(&mut naive, &x, &wgt, &s);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "fwd {s:?}"
            );
            let gout = vals(out_len, 9);
            let (mut gx, mut gw) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
            let (mut gx_r, mut gw_r) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
            conv2d_backward_into(&mut gx, &mut gw, &x, &wgt, &gout, &s, &mut scratch);
            reference::conv2d_backward(&mut gx_r, &mut gw_r, &x, &wgt, &gout, &s);
            assert!(
                gx.iter()
                    .zip(&gx_r)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "gx {s:?}"
            );
            assert!(
                gw.iter()
                    .zip(&gw_r)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "gw {s:?}"
            );
        }
    }

    #[test]
    fn results_are_thread_count_independent() {
        let (m, k, n) = (13, 310, 17);
        let a = vals(m * k, 10);
        let b = vals(k * n, 11);
        let mut one = vec![0.0f32; m * n];
        gemm_nn_with(&WorkerPool::new(1), &mut one, &a, &b, m, k, n);
        for threads in [2, 3, 5] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![0.0f32; m * n];
            gemm_nn_with(&pool, &mut out, &a, &b, m, k, n);
            assert!(
                out.iter()
                    .zip(&one)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn reference_flag_roundtrips() {
        assert!(!reference_kernels());
        set_reference_kernels(true);
        assert!(reference_kernels());
        set_reference_kernels(false);
        assert!(!reference_kernels());
    }
}
