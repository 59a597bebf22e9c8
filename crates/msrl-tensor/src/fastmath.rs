//! The transcendental kernels: polynomial `exp`/`tanh`/`sigmoid` and
//! the row softmax built on them — the crate's only spelling of those
//! functions, evaluated 8 or 16 lanes at a time.
//!
//! Scalar libm `exp`/`tanh` have no bit-identical vector form and
//! dominated tanh-heavy forwards and every softmax, so [`crate::ops`],
//! the fused epilogues and the `msrl-core` chain executor all call this
//! module; libm survives only as the tolerance oracle in
//! [`crate::reference`] and in the `ln`-based log-prob arithmetic
//! (`ops::log_softmax_rows`, `dist`), which has no polynomial here.
//!
//! # Accuracy contract
//!
//! [`fast_exp`] is the classic Cephes `expf` scheme — range reduction
//! to `x = z·ln2 + r`, a degree-5 polynomial for `eʳ`, and an exponent
//! rebuild via integer bit assembly. Its relative error against libm is
//! below `3e-7` (≈2 ulp) across the clamp range, verified by proptest.
//! [`fast_tanh`] and [`fast_sigmoid`] derive from it with one division
//! each and stay within `1e-6` absolute error of libm on ±20 (the
//! training-relevant range; both saturate identically beyond it).
//!
//! # Determinism contract
//!
//! The kernels are deterministic and ISA-independent: the AVX-512, AVX2
//! and portable paths execute the exact scalar operation sequence — one
//! fused multiply–add per polynomial step (the range reduction, every
//! Horner step and `y·r² + r`), the products' "one rounding per step"
//! contract ([`crate::kernels`]); `floor`; truncating int-cast; the
//! division of `tanh`/`sigmoid` — so every lane rounds identically to
//! the scalar reference and a run reproduces bit-for-bit on any x86-64
//! host. The scalar functions are always inlined and every caller sits
//! in a feature-enabled body, where a step is one `vfmadd`; compiled
//! for the baseline target, `f32::mul_add` is a libm `fmaf` call per
//! step — the same bits, many times the cost. Row reductions
//! (the softmax max and sum) use a 16-lane tree fixed by [`RLANES`],
//! not by the register width, so their combination order — and
//! therefore their bits — are identical on every dispatch level too.
//! Tests pin vector == scalar equality; only the gap to libm needs a
//! tolerance.
//!
//! # Edge cases
//!
//! NaN in ⇒ NaN out. The range clamp is written `min(HI, x)` /
//! `max(LO, x)` with SSE operand order — `minps`/`maxps` and the scalar
//! `if a < b { a } else { b }` all return their *second* operand when
//! either is NaN — so a NaN input survives the clamp, poisons the
//! polynomial and comes back NaN from `exp`, `tanh` and `sigmoid` on
//! every dispatch level (payload bits may differ between levels: the
//! vector and scalar float→int casts disagree on NaN; compare with
//! `is_nan`). A softmax row holding a NaN logit therefore comes back
//! all-NaN through its sum. `±∞` saturate like any out-of-range finite
//! input: `fast_exp` never overflows to infinity (the clamp keeps `2^z`
//! finite) and flushes to exactly `0.0` below `2⁻¹²⁷`.

use crate::kernels::{self, MatKernel};

/// Which elementwise transcendental [`apply_slice`] should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unary {
    /// `fast_exp(x)`.
    Exp,
    /// `fast_tanh(x)`.
    Tanh,
    /// `fast_sigmoid(x)`.
    Sigmoid,
}

// Cephes expf constants (also used by sse_mathfun / avx_mathfun).
const EXP_HI: f32 = 88.376_26_f32; // log(2^127.5), keeps 2^z finite
const EXP_LO: f32 = -88.376_26_f32;
const LOG2EF: f32 = std::f32::consts::LOG2_E;
#[allow(clippy::excessive_precision)] // exact: 0x3f318000, the Madsen hi-part of ln2
const C1: f32 = 0.693_359_375_f32;
const C2: f32 = -2.121_944_4e-4_f32;
const P0: f32 = 1.987_569_2e-4_f32;
const P1: f32 = 1.398_199_9e-3_f32;
const P2: f32 = 8.333_452e-3_f32;
const P3: f32 = 4.166_579_6e-2_f32;
const P4: f32 = 1.666_666_5e-1_f32;
#[allow(clippy::excessive_precision)] // Cephes coefficient, digits kept verbatim
const P5: f32 = 5.000_000_2e-1_f32;

/// SSE `minps` semantics: `if a < b { a } else { b }` — a NaN on
/// either side selects `b`, so callers that must propagate NaN pass the
/// data as `b`.
#[inline]
fn ss_min(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// SSE `maxps` semantics, mirror of [`ss_min`].
#[inline]
fn ss_max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Polynomial `eˣ`, the scalar reference every vector lane replays.
///
/// Every multiply that feeds an add is one fused multiply–add
/// (`f32::mul_add`): the range reduction, each Horner step and the
/// final `y·r² + r`. Always inlined, so inside a feature-enabled body
/// each step is one `vfmadd`; called from a body compiled for the
/// baseline x86-64 target it is a libm `fmaf` call per step — the same
/// bits, far slower, which is why every caller in this crate sits in a
/// dispatched body.
///
/// Saturates (finite) at the clamp bounds instead of overflowing to
/// `inf` / underflowing below `2⁻¹²⁷` (which flushes to exactly `0.0`);
/// NaN propagates (data is the clamp's second operand).
#[inline(always)]
pub fn fast_exp(x: f32) -> f32 {
    let x = ss_min(EXP_HI, x);
    let x = ss_max(EXP_LO, x);
    // x = z*ln2 + r with z integer-valued: z = floor(x*log2(e) + 0.5).
    let z = x.mul_add(LOG2EF, 0.5).floor();
    // Two-constant Madsen split of ln2 keeps r exact to ~1e-11.
    let x = z.mul_add(-C1, x);
    let r = z.mul_add(-C2, x);
    let r2 = r * r;
    let mut y = P0;
    y = y.mul_add(r, P1);
    y = y.mul_add(r, P2);
    y = y.mul_add(r, P3);
    y = y.mul_add(r, P4);
    y = y.mul_add(r, P5);
    y = y.mul_add(r2, r);
    y += 1.0;
    // 2^z assembled directly in the exponent field; z ∈ [-127, 127].
    let pow2 = f32::from_bits((((z as i32) + 127) << 23) as u32);
    y * pow2
}

/// Polynomial `tanh(x)` via `fast_exp`: `t = e^(−2|x|) ∈ [0, 1]`, then
/// `(1 − t)/(1 + t)` with the sign of `x` restored — the denominator is
/// ≥ 1, so no overflow or division hazard exists anywhere in the range.
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    let ax = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    let t = fast_exp(ax * -2.0);
    let r = (1.0 - t) / (1.0 + t);
    f32::from_bits(r.to_bits() | (x.to_bits() & 0x8000_0000))
}

/// Polynomial logistic sigmoid `1/(1 + e^(−x))` via `fast_exp`.
#[inline(always)]
pub fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(f32::from_bits(x.to_bits() ^ 0x8000_0000)))
}

#[inline(always)]
fn apply_scalar(u: Unary, v: f32) -> f32 {
    match u {
        Unary::Exp => fast_exp(v),
        Unary::Tanh => fast_tanh(v),
        Unary::Sigmoid => fast_sigmoid(v),
    }
}

fn apply_portable(u: Unary, data: &mut [f32]) {
    for v in data.iter_mut() {
        *v = apply_scalar(u, *v);
    }
}

/// Applies the transcendental in place over a contiguous slice, lanes
/// across elements, dispatched AVX-512 → AVX2 → portable like
/// [`kernels::select`]. All three paths are bitwise-identical (see the
/// module docs' determinism contract).
pub fn apply_slice(u: Unary, data: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        match kernels::select() {
            // SAFETY: `select` returned this variant only after runtime
            // feature detection confirmed the ISA.
            MatKernel::Avx512 => unsafe {
                x86::apply_avx512(u, data);
                return;
            },
            MatKernel::Avx2 => unsafe {
                x86::apply_avx2(u, data);
                return;
            },
            MatKernel::Portable => {}
        }
    }
    apply_portable(u, data);
}

/// `u(v + bias[j])` in place over every `bias.len()`-wide row of `rows`
/// — a fused layer's bias and activation in one lane pass. Per element
/// the bias add and then [`apply_slice`]'s function, so the result is
/// bit-identical to the add followed by the slice pass.
pub fn apply_rows_biased(u: Unary, rows: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        match kernels::select() {
            // SAFETY: `select` returned this variant only after runtime
            // feature detection confirmed the ISA.
            MatKernel::Avx512 => unsafe {
                x86::apply_rows_biased_avx512(u, rows, bias);
                return;
            },
            MatKernel::Avx2 => unsafe {
                x86::apply_rows_biased_avx2(u, rows, bias);
                return;
            },
            MatKernel::Portable => {}
        }
    }
    apply_rows_biased_portable(u, rows, bias);
}

fn apply_rows_biased_portable(u: Unary, rows: &mut [f32], bias: &[f32]) {
    for row in rows.chunks_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = apply_scalar(u, *v + b);
        }
    }
}

/// Virtual lane count of the row-reduction tree. Fixed at 16 on
/// every dispatch level so the max/sum combination order — and
/// therefore the result bits — are ISA-independent: AVX-512 holds the
/// 16 lanes in one zmm register, AVX2 in two ymm registers, and the
/// portable path in a plain array, all collapsed by the same fixed
/// pairwise tree.
const RLANES: usize = 16;

/// Folds the row's sub-16 remainder into the leading lanes, then
/// collapses all 16 lanes with a fixed pairwise tree (16 → 8 → 4 → 2
/// → 1). Shared by every dispatch level, which is what pins the
/// reduction bits across ISAs.
#[inline]
fn fold_tail_and_tree(acc: &mut [f32; RLANES], tail: &[f32], f: impl Fn(f32, f32) -> f32) -> f32 {
    for (a, &x) in acc.iter_mut().zip(tail) {
        *a = f(*a, x);
    }
    let mut w = RLANES / 2;
    while w > 0 {
        for j in 0..w {
            acc[j] = f(acc[j], acc[j + w]);
        }
        w /= 2;
    }
    acc[0]
}

/// 16-lane blocked fold: lane `j` accumulates elements `j`, `j+16`,
/// `j+32`, … — exactly the order the vector paths replay in registers.
#[inline]
fn lane_fold(row: &[f32], init: f32, f: impl Fn(f32, f32) -> f32 + Copy) -> f32 {
    let mut acc = [init; RLANES];
    let blocks = row.len() / RLANES;
    for b in 0..blocks {
        for (j, a) in acc.iter_mut().enumerate() {
            *a = f(*a, row[b * RLANES + j]);
        }
    }
    fold_tail_and_tree(&mut acc, &row[blocks * RLANES..], f)
}

/// Portable reference of the softmax row: 16-lane tree max,
/// `fast_exp(x − max)`, 16-lane tree sum, scale by the reciprocal.
fn softmax_row_portable(row: &mut [f32]) {
    let max = lane_fold(row, f32::NEG_INFINITY, ss_max);
    for o in row.iter_mut() {
        *o = fast_exp(*o - max);
    }
    let sum = lane_fold(row, 0.0, |a, b| a + b);
    let inv = 1.0 / sum;
    for o in row.iter_mut() {
        *o *= inv;
    }
}

/// Softmax of one row in place: tree max, fused vector
/// `fast_exp(x − max)`, tree sum, vector scale — dispatched AVX-512 →
/// AVX2 → portable, all three bitwise-identical because the reduction
/// tree is fixed at [`RLANES`] lanes on every level and the exp pass is
/// elementwise.
///
/// Against the libm spelling in [`crate::reference::softmax_rows`] both
/// the exponentials (polynomial vs libm) and the reduction order (lane
/// tree vs serial) differ — a tolerance, not bit equality.
pub fn softmax_row_fast_inplace(row: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        match kernels::select() {
            // SAFETY: `select` returned this variant only after runtime
            // feature detection confirmed the ISA.
            MatKernel::Avx512 => unsafe {
                x86::softmax_row_avx512(row);
                return;
            },
            MatKernel::Avx2 => unsafe {
                x86::softmax_row_avx2(row);
                return;
            },
            MatKernel::Portable => {}
        }
    }
    softmax_row_portable(row);
}

/// Copies rows `offset/n ..` of the row-major source into `out` and
/// applies [`softmax_row_fast_inplace`] to each row.
pub fn softmax_rows_fast(ad: &[f32], offset: usize, out: &mut [f32], n: usize) {
    if out.is_empty() || n == 0 {
        return;
    }
    out.copy_from_slice(&ad[offset..offset + out.len()]);
    for row in out.chunks_mut(n) {
        softmax_row_fast_inplace(row);
    }
}

/// Row-wise log-softmax of rows `offset/n ..` of the row-major source
/// into `out`: per row a serial max, then `ln(Σ fast_exp(v − max)) +
/// max` (the polynomial `exp`; `ln` is libm's, one per row) subtracted
/// from every element. The dispatch picks no arithmetic — every level
/// runs the same scalar loop — it only puts the scalar polynomial in a
/// feature-enabled body, where each fused step is one instruction.
pub fn log_softmax_rows(ad: &[f32], offset: usize, out: &mut [f32], n: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        match kernels::select() {
            // SAFETY: `select` returned this variant only after runtime
            // feature detection confirmed the ISA.
            MatKernel::Avx512 => unsafe {
                x86::log_softmax_rows_avx512(ad, offset, out, n);
                return;
            },
            MatKernel::Avx2 => unsafe {
                x86::log_softmax_rows_avx2(ad, offset, out, n);
                return;
            },
            MatKernel::Portable => {}
        }
    }
    log_softmax_rows_scalar(ad, offset, out, n);
}

#[inline(always)]
fn log_softmax_rows_scalar(ad: &[f32], offset: usize, out: &mut [f32], n: usize) {
    for (r, orow) in out.chunks_mut(n).enumerate() {
        let row = &ad[offset + r * n..offset + (r + 1) * n];
        let max = row.iter().fold(f32::NEG_INFINITY, |acc, &v| acc.max(v));
        let lse = row.iter().map(|&v| fast_exp(v - max)).sum::<f32>().ln() + max;
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = v - lse;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Vector lanes of the scalar reference: every step is the same
    //! rounding sequence (`vfmadd`/`vfnmadd` where the scalar spells
    //! `mul_add`; `floor`; truncating `cvtt`), so lanes match
    //! [`super::fast_exp`] bitwise.
    //! Bitwise ops run on integer vectors (`and`/`or`/`xor` on
    //! `si512` need only `avx512f`, unlike the `ps` forms).

    use std::arch::x86_64::{
        __m256, __m512, _mm256_add_epi32, _mm256_add_ps, _mm256_and_si256, _mm256_castps_si256,
        _mm256_castsi256_ps, _mm256_cvttps_epi32, _mm256_div_ps, _mm256_floor_ps, _mm256_fmadd_ps,
        _mm256_fnmadd_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
        _mm256_or_si256, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps, _mm256_slli_epi32,
        _mm256_storeu_ps, _mm256_sub_ps, _mm256_xor_si256, _mm512_add_epi32, _mm512_add_ps,
        _mm512_and_si512, _mm512_castps_si512, _mm512_castsi512_ps, _mm512_cvttps_epi32,
        _mm512_div_ps, _mm512_fmadd_ps, _mm512_fnmadd_ps, _mm512_loadu_ps, _mm512_max_ps,
        _mm512_min_ps, _mm512_mul_ps, _mm512_or_si512, _mm512_roundscale_ps, _mm512_set1_epi32,
        _mm512_set1_ps, _mm512_setzero_ps, _mm512_slli_epi32, _mm512_storeu_ps, _mm512_sub_ps,
        _mm512_xor_si512,
    };

    use super::{Unary, C1, C2, EXP_HI, EXP_LO, LOG2EF, P0, P1, P2, P3, P4, P5, RLANES};

    /// `_MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC` for `roundscale`.
    const FLOOR: i32 = 0x09;

    /// 8-lane [`super::fast_exp`].
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `fma` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn vexp256(x: __m256) -> __m256 {
        let x = _mm256_min_ps(_mm256_set1_ps(EXP_HI), x);
        let x = _mm256_max_ps(_mm256_set1_ps(EXP_LO), x);
        let z = _mm256_floor_ps(_mm256_fmadd_ps(x, _mm256_set1_ps(LOG2EF), _mm256_set1_ps(0.5)));
        let x = _mm256_fnmadd_ps(z, _mm256_set1_ps(C1), x);
        let r = _mm256_fnmadd_ps(z, _mm256_set1_ps(C2), x);
        let r2 = _mm256_mul_ps(r, r);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P1));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P2));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P4));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P5));
        y = _mm256_fmadd_ps(y, r2, r);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvttps_epi32(z),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2)
    }

    /// 8-lane [`super::fast_tanh`].
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `fma` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn vtanh256(x: __m256) -> __m256 {
        let xi = _mm256_castps_si256(x);
        let ax = _mm256_castsi256_ps(_mm256_and_si256(xi, _mm256_set1_epi32(0x7fff_ffff)));
        let t = vexp256(_mm256_mul_ps(ax, _mm256_set1_ps(-2.0)));
        let one = _mm256_set1_ps(1.0);
        let r = _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
        let sign = _mm256_and_si256(xi, _mm256_set1_epi32(i32::MIN));
        _mm256_castsi256_ps(_mm256_or_si256(_mm256_castps_si256(r), sign))
    }

    /// 8-lane [`super::fast_sigmoid`].
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `fma` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn vsigmoid256(x: __m256) -> __m256 {
        let nx = _mm256_castsi256_ps(_mm256_xor_si256(
            _mm256_castps_si256(x),
            _mm256_set1_epi32(i32::MIN),
        ));
        let one = _mm256_set1_ps(1.0);
        _mm256_div_ps(one, _mm256_add_ps(one, vexp256(nx)))
    }

    /// In-place [`super::apply_slice`] over ymm lanes, scalar edge.
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `fma` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn apply_avx2(u: Unary, data: &mut [f32]) {
        const L: usize = 8;
        let p = data.as_mut_ptr();
        let mut i = 0;
        while i + L <= data.len() {
            let v = _mm256_loadu_ps(p.add(i));
            let o = match u {
                Unary::Exp => vexp256(v),
                Unary::Tanh => vtanh256(v),
                Unary::Sigmoid => vsigmoid256(v),
            };
            _mm256_storeu_ps(p.add(i), o);
            i += L;
        }
        for v in data[i..].iter_mut() {
            *v = super::apply_scalar(u, *v);
        }
    }

    /// 16-lane [`super::fast_exp`].
    ///
    /// # Safety
    ///
    /// Requires `avx512f` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn vexp512(x: __m512) -> __m512 {
        let x = _mm512_min_ps(_mm512_set1_ps(EXP_HI), x);
        let x = _mm512_max_ps(_mm512_set1_ps(EXP_LO), x);
        let z = _mm512_roundscale_ps::<FLOOR>(_mm512_fmadd_ps(
            x,
            _mm512_set1_ps(LOG2EF),
            _mm512_set1_ps(0.5),
        ));
        let x = _mm512_fnmadd_ps(z, _mm512_set1_ps(C1), x);
        let r = _mm512_fnmadd_ps(z, _mm512_set1_ps(C2), x);
        let r2 = _mm512_mul_ps(r, r);
        let mut y = _mm512_set1_ps(P0);
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P1));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P2));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P3));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P4));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P5));
        y = _mm512_fmadd_ps(y, r2, r);
        y = _mm512_add_ps(y, _mm512_set1_ps(1.0));
        let pow2 = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_cvttps_epi32(z),
            _mm512_set1_epi32(127),
        )));
        _mm512_mul_ps(y, pow2)
    }

    /// 16-lane [`super::fast_tanh`].
    ///
    /// # Safety
    ///
    /// Requires `avx512f` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn vtanh512(x: __m512) -> __m512 {
        let xi = _mm512_castps_si512(x);
        let ax = _mm512_castsi512_ps(_mm512_and_si512(xi, _mm512_set1_epi32(0x7fff_ffff)));
        let t = vexp512(_mm512_mul_ps(ax, _mm512_set1_ps(-2.0)));
        let one = _mm512_set1_ps(1.0);
        let r = _mm512_div_ps(_mm512_sub_ps(one, t), _mm512_add_ps(one, t));
        let sign = _mm512_and_si512(xi, _mm512_set1_epi32(i32::MIN));
        _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(r), sign))
    }

    /// 16-lane [`super::fast_sigmoid`].
    ///
    /// # Safety
    ///
    /// Requires `avx512f` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn vsigmoid512(x: __m512) -> __m512 {
        let nx = _mm512_castsi512_ps(_mm512_xor_si512(
            _mm512_castps_si512(x),
            _mm512_set1_epi32(i32::MIN),
        ));
        let one = _mm512_set1_ps(1.0);
        _mm512_div_ps(one, _mm512_add_ps(one, vexp512(nx)))
    }

    /// In-place [`super::apply_slice`] over zmm lanes, scalar edge.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn apply_avx512(u: Unary, data: &mut [f32]) {
        const L: usize = 16;
        let p = data.as_mut_ptr();
        let mut i = 0;
        while i + L <= data.len() {
            let v = _mm512_loadu_ps(p.add(i));
            let o = match u {
                Unary::Exp => vexp512(v),
                Unary::Tanh => vtanh512(v),
                Unary::Sigmoid => vsigmoid512(v),
            };
            _mm512_storeu_ps(p.add(i), o);
            i += L;
        }
        for v in data[i..].iter_mut() {
            *v = super::apply_scalar(u, *v);
        }
    }

    /// [`super::log_softmax_rows`] with `fast_exp`'s steps as `vfmadd`.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn log_softmax_rows_avx512(ad: &[f32], offset: usize, out: &mut [f32], n: usize) {
        super::log_softmax_rows_scalar(ad, offset, out, n);
    }

    /// [`super::log_softmax_rows`] with `fast_exp`'s steps as `vfmadd`.
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `fma` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn log_softmax_rows_avx2(ad: &[f32], offset: usize, out: &mut [f32], n: usize) {
        super::log_softmax_rows_scalar(ad, offset, out, n);
    }

    /// Generates one ISA's [`super::apply_rows_biased`]: whole vectors of
    /// each row through the lane kernel, the rest of the row through the
    /// scalar reference inside the feature-enabled body.
    macro_rules! rows_biased {
        ($(#[$doc:meta])* $name:ident, $feature:literal, $lanes:literal, $loadu:ident,
         $storeu:ident, $add:ident, $exp:ident, $tanh:ident, $sigmoid:ident) => {
            $(#[$doc])*
            #[target_feature(enable = $feature)]
            pub unsafe fn $name(u: Unary, rows: &mut [f32], bias: &[f32]) {
                const L: usize = $lanes;
                let n = bias.len();
                let tail0 = n - n % L;
                for row in rows.chunks_mut(n) {
                    let p = row.as_mut_ptr();
                    for j in (0..tail0).step_by(L) {
                        let v = $add($loadu(p.add(j)), $loadu(bias.as_ptr().add(j)));
                        let o = match u {
                            Unary::Exp => $exp(v),
                            Unary::Tanh => $tanh(v),
                            Unary::Sigmoid => $sigmoid(v),
                        };
                        $storeu(p.add(j), o);
                    }
                    for (v, &b) in row[tail0..].iter_mut().zip(&bias[tail0..]) {
                        *v = super::apply_scalar(u, *v + b);
                    }
                }
            }
        };
    }

    rows_biased!(
        /// zmm [`super::apply_rows_biased`].
        ///
        /// # Safety
        ///
        /// Requires `avx512f` (guaranteed by [`crate::kernels::select`]).
        apply_rows_biased_avx512, "avx512f", 16, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_add_ps,
        vexp512, vtanh512, vsigmoid512
    );

    rows_biased!(
        /// ymm [`super::apply_rows_biased`].
        ///
        /// # Safety
        ///
        /// Requires `avx2` and `fma` (guaranteed by [`crate::kernels::select`]).
        apply_rows_biased_avx2, "avx2,fma", 8, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_add_ps,
        vexp256, vtanh256, vsigmoid256
    );

    /// zmm [`super::softmax_row_fast_inplace`]: the 16 virtual lanes of
    /// the reduction tree live in one register; the spill array feeds
    /// the shared scalar tail + tree fold, so bits match the portable
    /// reference exactly.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn softmax_row_avx512(row: &mut [f32]) {
        let n = row.len();
        let blocks = n / RLANES;
        let p = row.as_mut_ptr();

        let mut macc = [f32::NEG_INFINITY; RLANES];
        if blocks > 0 {
            let mut v = _mm512_set1_ps(f32::NEG_INFINITY);
            for b in 0..blocks {
                // maxps(acc, x) = acc > x ? acc : x — matches ss_max.
                v = _mm512_max_ps(v, _mm512_loadu_ps(p.add(b * RLANES)));
            }
            _mm512_storeu_ps(macc.as_mut_ptr(), v);
        }
        let max = super::fold_tail_and_tree(&mut macc, &row[blocks * RLANES..], super::ss_max);

        let vm = _mm512_set1_ps(max);
        let mut i = 0;
        while i + RLANES <= n {
            _mm512_storeu_ps(p.add(i), vexp512(_mm512_sub_ps(_mm512_loadu_ps(p.add(i)), vm)));
            i += RLANES;
        }
        for o in row[i..].iter_mut() {
            *o = super::fast_exp(*o - max);
        }

        let mut sacc = [0.0f32; RLANES];
        if blocks > 0 {
            let mut v = _mm512_setzero_ps();
            for b in 0..blocks {
                v = _mm512_add_ps(v, _mm512_loadu_ps(p.add(b * RLANES)));
            }
            _mm512_storeu_ps(sacc.as_mut_ptr(), v);
        }
        let sum = super::fold_tail_and_tree(&mut sacc, &row[blocks * RLANES..], |a, b| a + b);

        let inv = 1.0 / sum;
        let vi = _mm512_set1_ps(inv);
        let mut i = 0;
        while i + RLANES <= n {
            _mm512_storeu_ps(p.add(i), _mm512_mul_ps(_mm512_loadu_ps(p.add(i)), vi));
            i += RLANES;
        }
        for o in row[i..].iter_mut() {
            *o *= inv;
        }
    }

    /// ymm [`super::softmax_row_fast_inplace`]: the 16 virtual lanes
    /// split across two registers (lanes 0–7 and 8–15), spilled into the
    /// same 16-slot array and folded by the shared tail + tree, so bits
    /// match the zmm and portable paths exactly.
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `fma` (guaranteed by [`crate::kernels::select`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn softmax_row_avx2(row: &mut [f32]) {
        const H: usize = 8;
        let n = row.len();
        let blocks = n / RLANES;
        let p = row.as_mut_ptr();

        let mut macc = [f32::NEG_INFINITY; RLANES];
        if blocks > 0 {
            let mut a0 = _mm256_set1_ps(f32::NEG_INFINITY);
            let mut a1 = a0;
            for b in 0..blocks {
                a0 = _mm256_max_ps(a0, _mm256_loadu_ps(p.add(b * RLANES)));
                a1 = _mm256_max_ps(a1, _mm256_loadu_ps(p.add(b * RLANES + H)));
            }
            _mm256_storeu_ps(macc.as_mut_ptr(), a0);
            _mm256_storeu_ps(macc.as_mut_ptr().add(H), a1);
        }
        let max = super::fold_tail_and_tree(&mut macc, &row[blocks * RLANES..], super::ss_max);

        let vm = _mm256_set1_ps(max);
        let mut i = 0;
        while i + H <= n {
            _mm256_storeu_ps(p.add(i), vexp256(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), vm)));
            i += H;
        }
        for o in row[i..].iter_mut() {
            *o = super::fast_exp(*o - max);
        }

        let mut sacc = [0.0f32; RLANES];
        if blocks > 0 {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = a0;
            for b in 0..blocks {
                a0 = _mm256_add_ps(a0, _mm256_loadu_ps(p.add(b * RLANES)));
                a1 = _mm256_add_ps(a1, _mm256_loadu_ps(p.add(b * RLANES + H)));
            }
            _mm256_storeu_ps(sacc.as_mut_ptr(), a0);
            _mm256_storeu_ps(sacc.as_mut_ptr().add(H), a1);
        }
        let sum = super::fold_tail_and_tree(&mut sacc, &row[blocks * RLANES..], |a, b| a + b);

        let inv = 1.0 / sum;
        let vi = _mm256_set1_ps(inv);
        let mut i = 0;
        while i + H <= n {
            _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), vi));
            i += H;
        }
        for o in row[i..].iter_mut() {
            *o *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_range(lo: f32, hi: f32, steps: usize) -> Vec<f32> {
        (0..=steps).map(|i| lo + (hi - lo) * i as f32 / steps as f32).collect()
    }

    #[test]
    fn fast_exp_matches_libm_within_rel_tolerance() {
        for &x in &dense_range(-87.0, 88.0, 40_000) {
            let fast = fast_exp(x);
            let exact = x.exp();
            let rel = ((fast - exact) / exact).abs();
            assert!(rel < 3e-7, "x={x}: fast={fast} libm={exact} rel={rel}");
        }
    }

    #[test]
    fn fast_tanh_and_sigmoid_match_libm_on_training_range() {
        for &x in &dense_range(-20.0, 20.0, 40_000) {
            let dt = (fast_tanh(x) - x.tanh()).abs();
            assert!(dt < 1e-6, "tanh x={x} err={dt}");
            let ds = (fast_sigmoid(x) - 1.0 / (1.0 + (-x).exp())).abs();
            assert!(ds < 1e-6, "sigmoid x={x} err={ds}");
        }
    }

    #[test]
    fn saturation_and_signed_zero_edges() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert_eq!(fast_exp(-1000.0), 0.0);
        assert!(fast_exp(1000.0).is_finite());
        assert!(fast_exp(f32::INFINITY).is_finite());
        assert_eq!(fast_exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(fast_tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(fast_tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(fast_tanh(50.0), 1.0);
        assert_eq!(fast_tanh(-50.0), -1.0);
        assert_eq!(fast_sigmoid(100.0), 1.0);
        // Saturation divides by e^88.4: the quotient is subnormal, not 0.
        assert!(fast_sigmoid(-100.0) < 1e-38);
    }

    #[test]
    fn dispatched_slice_matches_scalar_reference_bitwise() {
        // 37 elements: covers full zmm lanes, a ymm-width tail and a
        // scalar edge on every dispatch level.
        let input: Vec<f32> = (0..37)
            .map(|i| (i as f32 - 18.0) * 1.337 + if i % 3 == 0 { 0.123 } else { -0.456 })
            .collect();
        for u in [Unary::Exp, Unary::Tanh, Unary::Sigmoid] {
            let mut dispatched = input.clone();
            apply_slice(u, &mut dispatched);
            let mut scalar = input.clone();
            apply_portable(u, &mut scalar);
            for (i, (d, s)) in dispatched.iter().zip(&scalar).enumerate() {
                assert_eq!(d.to_bits(), s.to_bits(), "{u:?} lane {i}: {d} vs {s}");
            }
        }
    }

    type Slice = fn(Unary, &mut [f32]);
    type Row = fn(&mut [f32]);

    /// Every slice and softmax-row body this host can run: the
    /// dispatched one, plus the bodies the dispatcher passes over here
    /// (portable always, ymm on an AVX-512 host).
    fn bodies() -> Vec<(&'static str, Slice, Row)> {
        let mut bodies: Vec<(&'static str, Slice, Row)> = vec![
            ("dispatched", apply_slice, softmax_row_fast_inplace),
            ("portable", apply_portable, softmax_row_portable),
        ];
        #[cfg(target_arch = "x86_64")]
        if kernels::has_avx2_fma() {
            bodies.push((
                "avx2",
                // SAFETY: avx2 and fma were just detected.
                |u, d| unsafe { x86::apply_avx2(u, d) },
                |r| unsafe { x86::softmax_row_avx2(r) },
            ));
        }
        bodies
    }

    #[test]
    fn nan_propagates_and_edge_inputs_agree_on_every_dispatch_level() {
        let edges = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            88.4,
            -88.4,
            0.75,
            -3.5,
        ];
        for u in [Unary::Exp, Unary::Tanh, Unary::Sigmoid] {
            assert!(apply_scalar(u, f32::NAN).is_nan(), "{u:?}(NaN) must be NaN");
            for len in [1usize, 7, 8, 15, 16, 17, 33] {
                // Rotate the edge list so each value visits vector lanes
                // and the scalar tail across the lengths.
                let input: Vec<f32> = (0..len).map(|i| edges[(i + len) % edges.len()]).collect();
                let scalar: Vec<f32> = input.iter().map(|&v| apply_scalar(u, v)).collect();
                for (name, slice, _) in bodies() {
                    let mut got = input.clone();
                    slice(u, &mut got);
                    for (i, (g, s)) in got.iter().zip(&scalar).enumerate() {
                        assert_eq!(
                            g.is_nan(),
                            input[i].is_nan(),
                            "{u:?} {name} len {len} lane {i}"
                        );
                        assert!(
                            g.is_nan() || g.to_bits() == s.to_bits(),
                            "{u:?} {name} len {len} lane {i}: {g} vs {s}"
                        );
                    }
                }
            }
        }
    }

    /// `fast_exp(x)` spelled out with step `unfused` (if any) rounding its
    /// product before the add and every other step fused; with `None`,
    /// the scalar reference itself. Steps: 0 `z`, 1 and 2 the two halves
    /// of the range reduction, 3–7 the Horner steps, 8 `y·r² + r`.
    fn exp_with(x: f32, unfused: Option<usize>) -> f32 {
        let madd = |step: usize, a: f32, b: f32, c: f32| {
            if unfused == Some(step) {
                a * b + c
            } else {
                a.mul_add(b, c)
            }
        };
        let x = ss_max(EXP_LO, ss_min(EXP_HI, x));
        let z = madd(0, x, LOG2EF, 0.5).floor();
        let r = madd(2, z, -C2, madd(1, z, -C1, x));
        let mut y = P0;
        for (i, p) in [P1, P2, P3, P4, P5].into_iter().enumerate() {
            y = madd(3 + i, y, r, p);
        }
        let y = madd(8, y, r * r, r) + 1.0;
        y * f32::from_bits((((z as i32) + 127) << 23) as u32)
    }

    /// [`exp_with`] under `u`'s wrapper.
    fn poly(u: Unary, x: f32, unfused: Option<usize>) -> f32 {
        match u {
            Unary::Exp => exp_with(x, unfused),
            Unary::Tanh => {
                let t = exp_with(x.abs() * -2.0, unfused);
                ((1.0 - t) / (1.0 + t)).copysign(x)
            }
            Unary::Sigmoid => 1.0 / (1.0 + exp_with(-x, unfused)),
        }
    }

    /// `(function, step, input bits)`: an input on which rounding that
    /// one step of [`exp_with`] twice changes the function's result, found
    /// by random search (`x = lo + (hi − lo)·u` over each function's test
    /// range; [`every_polynomial_step_is_fused`] re-checks every one). Step
    /// 1 has none: `z·C1` is exact (`C1` has 9 significant bits, `|z| ≤
    /// 127`), so it rounds the same either way. Steps 0 and 3 showed no
    /// difference in 4·10⁸ draws per function, nor did step 4 of `tanh`
    /// and `sigmoid`.
    const FUSED_STEP_WITNESSES: [(Unary, usize, u32); 16] = [
        (Unary::Exp, 2, 0xc290_6264),
        (Unary::Exp, 4, 0x421d_3ae6),
        (Unary::Exp, 5, 0x4285_ea9a),
        (Unary::Exp, 6, 0xc2a5_ba82),
        (Unary::Exp, 7, 0x4166_e920),
        (Unary::Exp, 8, 0xc287_2d58),
        (Unary::Tanh, 2, 0x3f84_e208),
        (Unary::Tanh, 5, 0x3e23_5000),
        (Unary::Tanh, 6, 0xbf5d_0150),
        (Unary::Tanh, 7, 0xbe69_d180),
        (Unary::Tanh, 8, 0x3fc2_6648),
        (Unary::Sigmoid, 2, 0xc153_1654),
        (Unary::Sigmoid, 5, 0xc0fe_a870),
        (Unary::Sigmoid, 6, 0xc0e8_f25c),
        (Unary::Sigmoid, 7, 0xc140_a12f),
        (Unary::Sigmoid, 8, 0xc047_52b0),
    ];

    #[test]
    fn every_polynomial_step_is_fused() {
        // The scalar reference is the all-fused spelling, and each
        // witness tells a twice-rounded step from a fused one. Every body
        // must give the reference's bits on every witness of its function:
        // one that left any of those steps unfused would not.
        for (u, lo, hi) in
            [(Unary::Exp, -87.0, 88.0), (Unary::Tanh, -9.0, 9.0), (Unary::Sigmoid, -20.0, 20.0)]
        {
            for x in dense_range(lo, hi, 20_000) {
                let (fused, scalar) = (poly(u, x, None), apply_scalar(u, x));
                assert_eq!(fused.to_bits(), scalar.to_bits(), "{u:?}({x}): not the fused spelling");
            }
        }
        for &(u, step, bits) in &FUSED_STEP_WITNESSES {
            let x = f32::from_bits(bits);
            assert_ne!(
                poly(u, x, Some(step)).to_bits(),
                poly(u, x, None).to_bits(),
                "{u:?} step {step}"
            );
        }
        for u in [Unary::Exp, Unary::Tanh, Unary::Sigmoid] {
            // Each witness at a vector lane and at the scalar edge, NaN in
            // ⇒ NaN out on both.
            let mut inputs: Vec<f32> = FUSED_STEP_WITNESSES
                .iter()
                .filter(|w| w.0 == u)
                .map(|w| f32::from_bits(w.2))
                .collect();
            inputs.push(f32::NAN);
            let inputs: Vec<f32> = inputs.repeat(17);
            let scalar: Vec<f32> = inputs.iter().map(|&x| apply_scalar(u, x)).collect();
            for (name, slice, _) in bodies() {
                let mut got = inputs.clone();
                slice(u, &mut got);
                for ((g, s), x) in got.iter().zip(&scalar).zip(&inputs) {
                    let same = if x.is_nan() { g.is_nan() } else { g.to_bits() == s.to_bits() };
                    assert!(same, "{u:?} {name} at {x}: {g} vs the fused {s}");
                }
            }
        }
        // A softmax row of the negative `exp` witnesses behind a leading 0
        // (its max, so each element's `exp` is of the witness itself):
        // every body agrees with the portable row.
        let row: Vec<f32> = [0.0]
            .into_iter()
            .chain(
                FUSED_STEP_WITNESSES
                    .iter()
                    .filter(|w| w.0 == Unary::Exp)
                    .map(|w| f32::from_bits(w.2))
                    .filter(|&x| x < 0.0),
            )
            .collect::<Vec<f32>>()
            .repeat(5);
        let mut portable = row.clone();
        softmax_row_portable(&mut portable);
        for (name, _, row_softmax) in bodies() {
            let mut got = row.clone();
            row_softmax(&mut got);
            assert_eq!(got, portable, "{name} softmax row");
        }
    }

    type Biased = fn(Unary, &mut [f32], &[f32]);

    #[test]
    fn biased_rows_are_the_add_then_the_slice_pass_bitwise() {
        // Row widths under, at and past both vector widths, and a NaN bias.
        for n in [1usize, 5, 8, 16, 23, 64] {
            let rows: Vec<f32> = (0..3 * n).map(|i| (i as f32 * 0.37).sin() * 9.0).collect();
            let mut bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 1.0).collect();
            bias[n / 2] = f32::NAN;
            for u in [Unary::Exp, Unary::Tanh, Unary::Sigmoid] {
                let mut expect: Vec<f32> =
                    rows.iter().enumerate().map(|(i, &v)| v + bias[i % n]).collect();
                apply_portable(u, &mut expect);
                let mut bodies: Vec<(&str, Biased)> = vec![
                    ("dispatched", apply_rows_biased),
                    ("portable", apply_rows_biased_portable),
                ];
                #[cfg(target_arch = "x86_64")]
                if kernels::has_avx2_fma() {
                    // SAFETY: avx2 and fma were just detected.
                    bodies
                        .push(("avx2", |u, r, b| unsafe { x86::apply_rows_biased_avx2(u, r, b) }));
                }
                for (name, body) in bodies {
                    let mut got = rows.clone();
                    body(u, &mut got, &bias);
                    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                        let same = g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan());
                        assert!(same, "{u:?} {name} n={n} element {i}: {g} vs {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_nan_logit_poisons_its_whole_softmax_row() {
        for n in [1usize, 5, 16, 23, 37] {
            for pos in [0, n / 2, n - 1] {
                for (name, _, row_softmax) in bodies() {
                    let mut row: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos() * 4.0).collect();
                    row[pos] = f32::NAN;
                    row_softmax(&mut row);
                    assert!(row.iter().all(|v| v.is_nan()), "{name} n={n} pos={pos}: {row:?}");
                }
            }
        }
    }

    #[test]
    fn softmax_row_dispatch_matches_portable_reference_bitwise() {
        // Lengths exercising: tail-only (< 16), exact blocks, a ymm-wide
        // tail, sub-8 scalar edges, and multi-block rows.
        for n in [5usize, 16, 23, 37, 64, 130] {
            let input: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos() * 7.0 - 1.5).collect();
            let mut portable = input.clone();
            softmax_row_portable(&mut portable);
            for (name, _, row_softmax) in bodies() {
                let mut got = input.clone();
                row_softmax(&mut got);
                for (i, (d, s)) in got.iter().zip(&portable).enumerate() {
                    assert_eq!(d.to_bits(), s.to_bits(), "{name} n={n} lane {i}: {d} vs {s}");
                }
            }
        }
    }

    #[test]
    fn softmax_row_fast_is_normalized_and_close_to_exact() {
        let mut row: Vec<f32> = (0..23).map(|i| (i as f32 * 0.77).sin() * 6.0).collect();
        let exact = crate::reference::softmax_rows(&row, row.len());
        softmax_row_fast_inplace(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "sum={sum}");
        for (f, e) in row.iter().zip(&exact) {
            assert!((f - e).abs() < 1e-6, "fast={f} exact={e}");
        }
    }

    #[test]
    fn softmax_rows_fast_copies_from_offset() {
        let n = 5;
        let ad: Vec<f32> = (0..4 * n).map(|i| i as f32 * 0.3 - 2.0).collect();
        let mut part = vec![0.0; 2 * n];
        softmax_rows_fast(&ad, 2 * n, &mut part, n);
        let mut expect = ad[2 * n..4 * n].to_vec();
        for row in expect.chunks_mut(n) {
            softmax_row_fast_inplace(row);
        }
        assert_eq!(part, expect);
    }
}
