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
//! Each function is one body, an `unsafe fn` generic over the lane types
//! of `crate::lanes` (whose docs state its safety condition): the scalar
//! [`fast_exp`] is that body at one lane, and the slice and row kernels run
//! it at 16 (AVX-512, portable) or 8 (AVX2) lanes, their tails at one. So
//! every lane takes the scalar's operation sequence by construction — one
//! fused multiply–add per polynomial step (the range reduction, every
//! Horner step and `y·r² + r`: the products' "one rounding per step",
//! [`crate::kernels`]); `floor`; truncating int-cast; the division of
//! `tanh`/`sigmoid` — and a run reproduces bit-for-bit on any x86-64 host.
//! Outside an x86 trampoline (the portable family, or a scalar `fast_*`
//! called from baseline code) each fused step is a libm `fmaf` call: the
//! same bits, many times the cost. Row reductions (the softmax max and
//! sum) use a 16-lane tree fixed by `RLANES`, not by the register width,
//! so their bits are identical on every dispatch level too. Tests pin
//! vector == scalar equality on every instantiation; only the gap to libm
//! needs a tolerance.
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

use crate::kernels::select;
use crate::lanes::{dispatch, Lanes, One};

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

/// Polynomial `eˣ` on every lane: the one body behind [`fast_exp`] and
/// every vector `exp`. Saturates (finite) at the clamp bounds instead of
/// overflowing to `inf` / underflowing below `2⁻¹²⁷` (which flushes to
/// exactly `0.0`); NaN propagates (data is the clamp's second operand).
#[inline(always)]
pub(crate) unsafe fn exp<V: Lanes>(x: V) -> V {
    let x = V::splat(EXP_HI).min(x);
    let x = V::splat(EXP_LO).max(x);
    // x = z*ln2 + r with z integer-valued: z = floor(x*log2(e) + 0.5).
    let z = x.fmadd(V::splat(LOG2EF), V::splat(0.5)).floor();
    // Two-constant Madsen split of ln2 keeps r exact to ~1e-11.
    let r = z.fnmadd(V::splat(C2), z.fnmadd(V::splat(C1), x));
    let mut y = V::splat(P0);
    for p in [P1, P2, P3, P4, P5] {
        y = y.fmadd(r, V::splat(p));
    }
    y = y.fmadd(r.mul(r), r).add(V::splat(1.0));
    // 2^z assembled directly in the exponent field; z ∈ [-127, 127].
    y.mul(z.pow2())
}

/// Polynomial `tanh`: `t = e^(−2|x|) ∈ [0, 1]`, then `(1 − t)/(1 + t)`
/// with the sign of `x` restored — the denominator is ≥ 1, so no
/// overflow or division hazard exists anywhere in the range.
#[inline(always)]
unsafe fn tanh<V: Lanes>(x: V) -> V {
    let (one, t) = (V::splat(1.0), exp(x.abs().mul(V::splat(-2.0))));
    one.sub(t).div(one.add(t)).or_sign(x)
}

/// Polynomial logistic sigmoid `1/(1 + e^(−x))`.
#[inline(always)]
unsafe fn sigmoid<V: Lanes>(x: V) -> V {
    let one = V::splat(1.0);
    one.div(one.add(exp(x.neg())))
}

/// Polynomial `eˣ`, the scalar every vector lane replays (module docs).
/// Always inlined, so inside a trampoline each fused step is one
/// `vfmadd`; called from a body compiled for the baseline x86-64 target
/// it is a libm `fmaf` call per step — the same bits, far slower.
#[inline(always)]
pub fn fast_exp(x: f32) -> f32 {
    // SAFETY: the one-lane type needs no CPU feature.
    unsafe { exp::<One>([x])[0] }
}

/// Polynomial `tanh(x)` via `fast_exp`: `(1 − t)/(1 + t)` with
/// `t = e^(−2|x|)` and the sign of `x` restored.
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    // SAFETY: as in `fast_exp`.
    unsafe { tanh::<One>([x])[0] }
}

/// Polynomial logistic sigmoid `1/(1 + e^(−x))` via `fast_exp`.
#[inline(always)]
pub fn fast_sigmoid(x: f32) -> f32 {
    // SAFETY: as in `fast_exp`.
    unsafe { sigmoid::<One>([x])[0] }
}

/// Applies the transcendental in place over a contiguous slice, lanes
/// across elements, on [`crate::kernels::select`]'s family. Every family
/// runs the same body (see the module docs' determinism contract).
pub fn apply_slice(u: Unary, data: &mut [f32]) {
    dispatch!(select(), V => {
        // SAFETY: the body touches `data`'s elements only.
        unsafe { apply_rows::<V>(u, data, None) }
    });
}

/// `u(v + bias[j])` in place over every `bias.len()`-wide row of `rows`
/// — a fused layer's bias and activation in one lane pass. Per element
/// the bias add and then [`apply_slice`]'s function, so the result is
/// bit-identical to the add followed by the slice pass.
///
/// # Panics
///
/// Panics when `rows` is not whole rows — the bodies index unchecked.
pub fn apply_rows_biased(u: Unary, rows: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        return;
    }
    assert!(rows.len().is_multiple_of(bias.len()), "apply_rows_biased: ragged rows");
    dispatch!(select(), V => {
        // SAFETY: the assert above: every row is `bias.len()` long.
        unsafe { apply_rows::<V>(u, rows, Some(bias)) }
    });
}

/// `u` in place over `data`, lanes across elements; with a bias, over
/// each `bias.len()`-wide row of `data` (which must be whole rows), the
/// bias added first. Whole vectors of a row at `V`, the rest at [`One`].
#[inline(always)]
unsafe fn apply_rows<V: Lanes>(u: Unary, data: &mut [f32], bias: Option<&[f32]>) {
    let n = bias.map_or(data.len(), <[f32]>::len);
    if n == 0 {
        return;
    }
    let (whole, b) = (n - n % V::L, bias.map(<[f32]>::as_ptr));
    for row in data.chunks_exact_mut(n) {
        let p = row.as_mut_ptr();
        for j in (0..whole).step_by(V::L) {
            apply_at::<V>(u, p, b, j);
        }
        for j in whole..n {
            apply_at::<One>(u, p, b, j);
        }
    }
}

/// `u(p[j..] + b[j..])` (or of `p[j..]` alone) back into `p[j..]`.
#[inline(always)]
unsafe fn apply_at<V: Lanes>(u: Unary, p: *mut f32, b: Option<*const f32>, j: usize) {
    let mut v = V::load(p.add(j));
    if let Some(b) = b {
        v = v.add(V::load(b.add(j)));
    }
    let y = match u {
        Unary::Exp => exp(v),
        Unary::Tanh => tanh(v),
        Unary::Sigmoid => sigmoid(v),
    };
    y.store(p.add(j));
}

/// Virtual lane count of the row-reduction tree. Fixed at 16 on
/// every dispatch level so the max/sum combination order — and
/// therefore the result bits — are ISA-independent: AVX-512 holds the
/// 16 lanes in one zmm register, AVX2 in two ymm registers, and the
/// portable path in one 16-lane array, all collapsed by the same fixed
/// pairwise tree.
const RLANES: usize = 16;

/// The [`RLANES`]-lane tree fold of a row at `p`: lane `j` folds
/// elements `j`, `j + 16`, … of the whole 16-blocks (`R` values of
/// `V::L` lanes), the rest of the row folds into the leading lanes, then
/// a fixed pairwise tree collapses them (16 → 8 → 4 → 2 → 1). `sum`
/// picks `+` over the SSE max.
#[inline(always)]
unsafe fn lane_tree<V: Lanes, const R: usize>(p: *const f32, n: usize, sum: bool) -> f32 {
    let init = if sum { 0.0 } else { f32::NEG_INFINITY };
    let mut acc = [V::splat(init); R];
    for blk in 0..n / RLANES {
        for (h, a) in acc.iter_mut().enumerate() {
            *a = tree_step(sum, *a, V::load(p.add(blk * RLANES + h * V::L)));
        }
    }
    let mut lanes: [One; RLANES] = [[init]; RLANES];
    for (h, a) in acc.iter().enumerate() {
        a.store(lanes.as_mut_ptr().cast::<f32>().add(h * V::L));
    }
    for (slot, j) in lanes.iter_mut().zip(n - n % RLANES..n) {
        *slot = tree_step(sum, *slot, One::load(p.add(j)));
    }
    let mut w = RLANES / 2;
    while w > 0 {
        for j in 0..w {
            lanes[j] = tree_step(sum, lanes[j], lanes[j + w]);
        }
        w /= 2;
    }
    lanes[0][0]
}

/// One step of [`lane_tree`].
#[inline(always)]
unsafe fn tree_step<V: Lanes>(sum: bool, acc: V, v: V) -> V {
    if sum {
        acc.add(v)
    } else {
        acc.max(v)
    }
}

/// Softmax of one row in place: [`lane_tree`] max, `fast_exp(x − max)`,
/// tree sum, scale by the reciprocal — whole vectors at `V` (`R · V::L`
/// = [`RLANES`]), the rest of the row at [`One`].
#[inline(always)]
unsafe fn softmax_row<V: Lanes, const R: usize>(row: &mut [f32]) {
    let (n, p) = (row.len(), row.as_mut_ptr());
    let whole = n - n % V::L;
    let max = lane_tree::<V, R>(p, n, false);
    for j in (0..whole).step_by(V::L) {
        exp_shifted::<V>(p, j, max);
    }
    for j in whole..n {
        exp_shifted::<One>(p, j, max);
    }
    let inv = 1.0 / lane_tree::<V, R>(p, n, true);
    for j in (0..whole).step_by(V::L) {
        V::load(p.add(j)).mul(V::splat(inv)).store(p.add(j));
    }
    for j in whole..n {
        *p.add(j) *= inv;
    }
}

/// `fast_exp(p[j..] − max)` back into `p[j..]`.
#[inline(always)]
unsafe fn exp_shifted<V: Lanes>(p: *mut f32, j: usize, max: f32) {
    exp(V::load(p.add(j)).sub(V::splat(max))).store(p.add(j));
}

/// Softmax of one row in place: tree max, `fast_exp(x − max)`, tree sum,
/// scale — on every dispatch level the same body, so bitwise-identical
/// across them: the reduction tree is fixed at `RLANES` lanes and the
/// exp pass is elementwise.
///
/// Against the libm spelling in [`crate::reference::softmax_rows`] both
/// the exponentials (polynomial vs libm) and the reduction order (lane
/// tree vs serial) differ — a tolerance, not bit equality.
pub fn softmax_row_fast_inplace(row: &mut [f32]) {
    dispatch!(select(), V => {
        // SAFETY: the body touches `row`'s elements only.
        unsafe { softmax_row::<V, { RLANES / V::L }>(row) }
    });
}

/// Copies the first `out.len()/n` rows of the row-major source into
/// `out` and applies [`softmax_row_fast_inplace`] to each row.
pub fn softmax_rows_fast(ad: &[f32], out: &mut [f32], n: usize) {
    if out.is_empty() || n == 0 {
        return;
    }
    out.copy_from_slice(&ad[..out.len()]);
    for row in out.chunks_mut(n) {
        softmax_row_fast_inplace(row);
    }
}

/// The log-sum-exp of `V::L` rows of `n` columns at `p` (row stride
/// `n`) into `lse[..V::L]`, lanes across rows: per lane the [`max_fold`]
/// max from `−∞`, the serial sum from `−0.0` of `exp(v − max)` in
/// ascending column order, then `ln(sum) + max` with libm's `ln`, once
/// per row. The one log-sum-exp body: [`log_softmax_rows`] and the
/// fused policy loss (`crate::dist`) both run it, so a log-probability
/// the learner recomputes is bit for bit the one acting drew with.
///
/// [`max_fold`]: crate::kernels::max_fold
#[inline(always)]
pub(crate) unsafe fn lse_rows<V: Lanes>(p: *const f32, n: usize, lse: *mut f32) {
    let mut max = V::splat(f32::NEG_INFINITY);
    for j in 0..n {
        max = max.max_fold(V::gather(p.add(j), n));
    }
    let mut sum = V::splat(-0.0);
    for j in 0..n {
        sum = sum.add(exp(V::gather(p.add(j), n).sub(max)));
    }
    let mut maxes = [0.0f32; 16];
    max.store(maxes.as_mut_ptr());
    sum.store(lse);
    for (l, &m) in maxes.iter().enumerate().take(V::L) {
        *lse.add(l) = (*lse.add(l)).ln() + m;
    }
}

/// Row-wise log-softmax of the first `out.len()/n` rows of the
/// row-major source into `out`: per row `v − lse`, the log-sum-exp of
/// `lse_rows` (`V::L` rows at a time, the rest one at a time).
///
/// # Panics
///
/// Panics when `ad` holds fewer rows than `out` — the body indexes
/// unchecked.
pub fn log_softmax_rows(ad: &[f32], out: &mut [f32], n: usize) {
    log_softmax_rows_on(crate::kernels::gather_family(n), ad, out, n);
}

/// [`log_softmax_rows`] on `family`.
fn log_softmax_rows_on(family: crate::kernels::MatKernel, ad: &[f32], out: &mut [f32], n: usize) {
    if out.is_empty() || n == 0 {
        return;
    }
    assert!(ad.len() >= out.len() && out.len().is_multiple_of(n), "log_softmax_rows: extents");
    let (rows, p, o) = (out.len() / n, ad.as_ptr(), out.as_mut_ptr());
    dispatch!(family, V => {
        // SAFETY: the assert above bounds every row the body reads and
        // writes.
        unsafe {
            let whole = rows - rows % V::L;
            for r in (0..whole).step_by(V::L) {
                log_softmax_at::<V>(p, o, n, r);
            }
            for r in whole..rows {
                log_softmax_at::<One>(p, o, n, r);
            }
        }
    });
}

/// Rows `r..r + V::L` of [`log_softmax_rows`].
#[inline(always)]
unsafe fn log_softmax_at<V: Lanes>(p: *const f32, o: *mut f32, n: usize, r: usize) {
    let mut lse = [0.0f32; 16];
    lse_rows::<V>(p.add(r * n), n, lse.as_mut_ptr());
    for (l, &s) in lse.iter().enumerate().take(V::L) {
        for j in (r + l) * n..(r + l + 1) * n {
            *o.add(j) = *p.add(j) - s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::MatKernel;
    use crate::lanes::Portable;

    /// `u` at one lane: the scalar reference every body must match.
    fn scalar(u: Unary, x: f32) -> f32 {
        match u {
            Unary::Exp => fast_exp(x),
            Unary::Tanh => fast_tanh(x),
            Unary::Sigmoid => fast_sigmoid(x),
        }
    }

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
            let scalar: Vec<f32> = input.iter().map(|&x| scalar(u, x)).collect();
            for (i, (d, s)) in dispatched.iter().zip(&scalar).enumerate() {
                assert_eq!(d.to_bits(), s.to_bits(), "{u:?} lane {i}: {d} vs {s}");
            }
        }
    }

    type Slice = Box<dyn Fn(Unary, &mut [f32])>;
    type Row = Box<dyn Fn(&mut [f32])>;
    type Biased = Box<dyn Fn(Unary, &mut [f32], &[f32])>;

    /// Every slice, softmax-row and biased-row body this host can run: the
    /// dispatched entry points, then each body on the instantiations the
    /// dispatcher passes over here (`Portable` always, `Ymm` on an AVX-512
    /// host with AVX2 and FMA).
    fn bodies() -> Vec<(&'static str, Slice, Row, Biased)> {
        let mut families = vec![MatKernel::Portable];
        #[cfg(target_arch = "x86_64")]
        if crate::kernels::has_avx2_fma() {
            families.push(MatKernel::Avx2);
        }
        let mut bodies: Vec<(&'static str, Slice, Row, Biased)> = vec![(
            "dispatched",
            Box::new(apply_slice),
            Box::new(softmax_row_fast_inplace),
            Box::new(apply_rows_biased),
        )];
        for family in families {
            // SAFETY (the three bodies): `family` was detected, and each
            // body touches only the slices it is given, whole rows of
            // `bias.len()` in the tests.
            bodies.push((
                if family == MatKernel::Portable { "portable" } else { "avx2" },
                Box::new(move |u, d: &mut [f32]| {
                    dispatch!(family, V => unsafe { apply_rows::<V>(u, d, None) })
                }),
                Box::new(move |r: &mut [f32]| {
                    dispatch!(family, V => unsafe { softmax_row::<V, { RLANES / V::L }>(r) })
                }),
                Box::new(move |u, r: &mut [f32], b: &[f32]| {
                    dispatch!(family, V => unsafe { apply_rows::<V>(u, r, Some(b)) })
                }),
            ));
        }
        bodies
    }

    /// The portable instantiation of the softmax row.
    fn softmax_row_portable(row: &mut [f32]) {
        // SAFETY: the portable lanes need no CPU feature; the body
        // touches `row`'s elements only.
        unsafe { softmax_row::<Portable, 1>(row) }
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
            assert!(scalar(u, f32::NAN).is_nan(), "{u:?}(NaN) must be NaN");
            for len in [1usize, 7, 8, 15, 16, 17, 33] {
                // Rotate the edge list so each value visits vector lanes
                // and the scalar tail across the lengths.
                let input: Vec<f32> = (0..len).map(|i| edges[(i + len) % edges.len()]).collect();
                let scalar: Vec<f32> = input.iter().map(|&v| scalar(u, v)).collect();
                for (name, slice, _, _) in bodies() {
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
        // The SSE clamp: `min(HI, x)`, then `max(LO, ·)`, data second.
        let x = if EXP_HI < x { EXP_HI } else { x };
        let x = if EXP_LO > x { EXP_LO } else { x };
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
        // `exp_with` is the all-fused spelling, and each witness tells a
        // twice-rounded step from a fused one. Every body must give its
        // bits on every witness of its function: one that left any of
        // those steps unfused would not.
        for (u, lo, hi) in
            [(Unary::Exp, -87.0, 88.0), (Unary::Tanh, -9.0, 9.0), (Unary::Sigmoid, -20.0, 20.0)]
        {
            for x in dense_range(lo, hi, 20_000) {
                let (fused, scalar) = (poly(u, x, None), scalar(u, x));
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
            // Against the test's own spelling: the scalar `fast_*` is the
            // same body at one lane, so it is checked like the vector lanes.
            let fused: Vec<f32> = inputs.iter().map(|&x| poly(u, x, None)).collect();
            let one_lane = ("one lane", inputs.iter().map(|&x| scalar(u, x)).collect());
            let runs = bodies().into_iter().map(|(name, slice, _, _)| {
                let mut got = inputs.clone();
                slice(u, &mut got);
                (name, got)
            });
            for (name, got) in runs.chain([one_lane]) {
                for ((g, f), x) in got.iter().zip(&fused).zip(&inputs) {
                    let same = if x.is_nan() { g.is_nan() } else { g.to_bits() == f.to_bits() };
                    assert!(same, "{u:?} {name} at {x}: {g} vs the fused {f}");
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
        for (name, _, row_softmax, _) in bodies() {
            let mut got = row.clone();
            row_softmax(&mut got);
            assert_eq!(got, portable, "{name} softmax row");
        }
    }

    #[test]
    fn biased_rows_are_the_add_then_the_slice_pass_bitwise() {
        // Row widths under, at and past both vector widths, and a NaN bias.
        for n in [1usize, 5, 8, 16, 23, 64] {
            let rows: Vec<f32> = (0..3 * n).map(|i| (i as f32 * 0.37).sin() * 9.0).collect();
            let mut bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 1.0).collect();
            bias[n / 2] = f32::NAN;
            for u in [Unary::Exp, Unary::Tanh, Unary::Sigmoid] {
                let expect: Vec<f32> =
                    rows.iter().enumerate().map(|(i, &v)| scalar(u, v + bias[i % n])).collect();
                for (name, _, _, body) in bodies() {
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
    #[should_panic(expected = "apply_rows_biased: ragged rows")]
    fn biased_rows_reject_a_ragged_last_row() {
        // Two 16-wide rows and one element: the body would run the last
        // row's whole vector past the slice.
        apply_rows_biased(Unary::Tanh, &mut [0.5; 33], &[0.25; 16]);
    }

    #[test]
    fn a_nan_logit_poisons_its_whole_softmax_row() {
        for n in [1usize, 5, 16, 23, 37] {
            for pos in [0, n / 2, n - 1] {
                for (name, _, row_softmax, _) in bodies() {
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
            for (name, _, row_softmax, _) in bodies() {
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
        softmax_rows_fast(&ad[2 * n..], &mut part, n);
        let mut expect = ad[2 * n..4 * n].to_vec();
        for row in expect.chunks_mut(n) {
            softmax_row_fast_inplace(row);
        }
        assert_eq!(part, expect);
    }

    /// The per-row spelling the lane body replaced: an `f32::max` fold
    /// from `−∞`, `f32`'s `Sum` of `fast_exp(v − max)`, libm's `ln`.
    fn log_softmax_serial(ad: &[f32], out: &mut [f32], n: usize) {
        for (r, orow) in out.chunks_mut(n).enumerate() {
            let row = &ad[r * n..(r + 1) * n];
            let max = row.iter().fold(f32::NEG_INFINITY, |acc, &v| acc.max(v));
            let lse = row.iter().map(|&v| fast_exp(v - max)).sum::<f32>().ln() + max;
            for (o, &v) in orow.iter_mut().zip(row) {
                *o = v - lse;
            }
        }
    }

    /// The lane body, rows across the lanes, is the per-row loop bit for
    /// bit (NaN for NaN) on every family: ragged row counts, one to
    /// seventeen columns, and rows holding NaN, ±∞, all −∞ and ±0 ties.
    #[test]
    fn log_softmax_lanes_are_the_serial_rows_on_every_family() {
        let families = crate::kernels::families();
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 88.0, -104.0];
        for n in [1, 2, 3, 6, 17] {
            for rows in [1, 7, 16, 37] {
                let ad: Vec<f32> = (0..rows * n)
                    .map(|i| match (i * 7 + n) % 23 {
                        s if s < special.len() && i % 3 == 0 => special[s],
                        _ => ((i * 37 % 101) as f32 - 50.0) * 0.173,
                    })
                    .chain([-0.0, 0.0].into_iter().cycle().take(n))
                    .chain(std::iter::repeat_n(f32::NEG_INFINITY, n))
                    .collect();
                let mut want = vec![0.0; ad.len()];
                log_softmax_serial(&ad, &mut want, n);
                for &family in &families {
                    let mut got = vec![1.0; ad.len()];
                    log_softmax_rows_on(family, &ad, &mut got, n);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                        assert!(same, "{family:?}, n {n}, rows {rows}, [{i}]: {g} vs {w}");
                    }
                }
            }
        }
    }
}
