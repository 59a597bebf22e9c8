//! The naive loops every kernel in [`crate::kernels`] must reproduce
//! bit for bit.
//!
//! These are not an execution mode: nothing on a live path calls them.
//! They exist once, here, as the oracle the kernel unit tests and the
//! property tests compare against — one accumulator per output element,
//! reduced index ascending, one fused multiply–add per step
//! (`f32::mul_add`: the product is not rounded before the add, and the
//! result is the same on every target, with or without an FMA unit), no
//! zero-skipping (IEEE requires `0 × NaN` and `0 × ∞` to contaminate
//! the accumulator).

use crate::kernels::{max_fold, RedOp};

/// `[m, k] × [k, n] → [m, n]`: `out[i][j]` starts at `0.0` and becomes
/// `fma(a[i][kk], b[kk][j], out[i][j])` for `kk` ascending.
pub fn matmul(ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = ad[i * k + kk];
            for j in 0..n {
                out[i * n + j] = av.mul_add(bd[kk * n + j], out[i * n + j]);
            }
        }
    }
    out
}

/// Row-major transpose of `a: [m, n]`. `aᵀ · b` and `a · bᵀ` have no
/// loop of their own: their reference is this followed by [`matmul`].
pub fn transpose(ad: &[f32], m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = ad[i * n + j];
        }
    }
    out
}

/// Folds the middle axis of `a: [outer, mid, inner]` away: each output
/// slot starts at `op.init()`, folds its `mid` values ascending, then
/// takes the optional `scale` multiply (a mean's epilogue).
pub fn reduce(
    ad: &[f32],
    outer: usize,
    mid: usize,
    inner: usize,
    op: RedOp,
    scale: Option<f32>,
) -> Vec<f32> {
    let mut out = vec![op.init(); outer * inner];
    for o in 0..outer {
        for m in 0..mid {
            for i in 0..inner {
                let v = ad[(o * mid + m) * inner + i];
                let slot = &mut out[o * inner + i];
                *slot = match op {
                    RedOp::Sum => *slot + v,
                    RedOp::Max => max_fold(*slot, v),
                };
            }
        }
        if let Some(s) = scale {
            for slot in &mut out[o * inner..(o + 1) * inner] {
                *slot *= s;
            }
        }
    }
    out
}

/// Row softmax of `a: [rows, n]` spelled with libm `exp` and serial
/// ascending-index folds — the tolerance oracle for
/// [`crate::ops::softmax_rows`], whose polynomial `exp` and lane-tree
/// reductions agree with it to rounding, not bitwise.
pub fn softmax_rows(ad: &[f32], n: usize) -> Vec<f32> {
    let mut out = ad.to_vec();
    if n > 0 {
        for row in out.chunks_mut(n) {
            let max = row.iter().fold(f32::NEG_INFINITY, |acc, &v| max_fold(acc, v));
            let mut sum = 0.0f32;
            for o in row.iter_mut() {
                let e = (*o - max).exp();
                sum += e;
                *o = e;
            }
            let inv = 1.0 / sum;
            for o in row.iter_mut() {
                *o *= inv;
            }
        }
    }
    out
}
