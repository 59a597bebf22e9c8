//! Per-update numeric sentinels shared by every learner (DESIGN §3.15).
//!
//! A learner reports three numbers from each optimisation step in its
//! [`Signals`], and the run's observer folds them into the iteration's
//! health block:
//!
//! * the global gradient L2 norm — pre-clip for a learner's own pass
//!   (what [`msrl_tensor::optim::clip_grad_norm`] returns), [`l2_norm`]
//!   of the applied gradient for an external one;
//! * the post-update parameter L2 norm;
//! * `‖Δweights‖ / ‖weights‖`, the effective-step-size signal that
//!   catches both frozen (≈0) and diverging (≫1e-2) training.
//!
//! The last two are [`update`] of a [`snapshot`] taken before the step.
//! Nothing here is process-wide: a learner's numbers reach only the run
//! that holds it, and a seat without a learner (DP-E's env worker)
//! reports none.
//!
//! [`Signals`]: msrl_core::api::Signals

use msrl_tensor::{widest, Tensor};

/// Accumulator lanes of the sentinel's folds: element `i` of a slice goes
/// to lane `i mod 8`, so the `f64` adds of neighbouring elements are
/// independent and vectorise, where one serial accumulator waits on each.
/// The folds run in the host's widest kernel trampoline
/// ([`widest`]): eight `f64` lanes an instruction on AVX-512, four on
/// AVX2, two on the baseline — the same operations per lane, so the same
/// bits.
const LANES: usize = 8;

/// `acc` plus `x²` for every element `x` of `xs`, in its lanes.
#[inline(always)]
fn fold_squares(mut acc: [f64; LANES], xs: &[f32]) -> [f64; LANES] {
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a += f64::from(x) * f64::from(x);
        }
    }
    for (a, &x) in acc.iter_mut().zip(chunks.remainder()) {
        *a += f64::from(x) * f64::from(x);
    }
    acc
}

/// `(squares, deltas)` plus `x²` and `(x − y)²` for the paired elements
/// of `xs` and `ys` (equal lengths), in their lanes, in one pass.
#[inline(always)]
fn fold_update(
    (mut squares, mut deltas): ([f64; LANES], [f64; LANES]),
    xs: &[f32],
    ys: &[f32],
) -> ([f64; LANES], [f64; LANES]) {
    let (mut cx, mut cy) = (xs.chunks_exact(LANES), ys.chunks_exact(LANES));
    for (x, y) in (&mut cx).zip(&mut cy) {
        fold_pairs(&mut squares, &mut deltas, x, y);
    }
    fold_pairs(&mut squares, &mut deltas, cx.remainder(), cy.remainder());
    (squares, deltas)
}

/// `x²` and `(x − y)²` of the paired elements of `xs` and `ys` (at most
/// [`LANES`]) into lanes `0..`.
#[inline(always)]
fn fold_pairs(squares: &mut [f64; LANES], deltas: &mut [f64; LANES], xs: &[f32], ys: &[f32]) {
    for (l, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        let (x, y) = (f64::from(x), f64::from(y));
        squares[l] += x * x;
        deltas[l] += (x - y) * (x - y);
    }
}

/// L2 norm of a flat slice, accumulated in `f64` so the square-sum of a
/// large parameter vector cannot itself overflow `f32`.
#[must_use]
pub fn l2_norm(flat: &[f32]) -> f64 {
    widest(
        #[inline(always)]
        || fold_squares([0.0; LANES], flat),
    )
    .iter()
    .sum::<f64>()
    .sqrt()
}

/// Copies `params`, in order, into `into` — the pre-update snapshot
/// [`update`] compares against, in a buffer the learner keeps
/// from one update to the next.
pub fn snapshot<'a>(into: &mut Vec<f32>, params: impl IntoIterator<Item = &'a Tensor>) {
    into.clear();
    for p in params {
        into.extend_from_slice(p.data());
    }
}

/// `(‖after‖, ‖after − before‖ / ‖after‖)`: the weight norm and the
/// update ratio of the parameter tensors `after` a step against their
/// flat [`snapshot`] `before` it. The tensors are read in place, both
/// sums in one pass.
#[must_use]
pub fn update<'a>(before: &[f32], after: impl IntoIterator<Item = &'a Tensor>) -> (f64, f64) {
    let mut sums = ([0.0; LANES], [0.0; LANES]);
    let mut offset = 0;
    for p in after {
        let then = &before[offset..offset + p.len()];
        sums = widest(
            #[inline(always)]
            || fold_update(sums, p.data(), then),
        );
        offset += p.len();
    }
    let norm = |lanes: [f64; LANES]| lanes.iter().sum::<f64>().sqrt();
    let weight_norm = norm(sums.0);
    (weight_norm, norm(sums.1) / weight_norm.max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_norm_matches_reference() {
        assert_eq!(l2_norm(&[]), 0.0);
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert!((l2_norm(&[1.0; 100]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn lane_folds_equal_the_serial_folds() {
        // Tensors of lengths on and off the lane count, one the size of
        // the wide model, with values across six decades.
        let lens = [1usize, 7, 8, 9, 64, 1000, 142_605];
        let value = |i: usize, s: usize| ((i * 2654435761 + s) % 2001) as f32 / 1000.0 - 1.0;
        let scale = |i: usize| 10f32.powi((i % 7) as i32 - 3);
        let after: Vec<Tensor> = lens
            .iter()
            .enumerate()
            .map(|(t, &n)| {
                let data = (0..n).map(|i| value(i, t) * scale(i)).collect();
                Tensor::from_vec(data, &[n]).unwrap()
            })
            .collect();
        let flat_after: Vec<f32> = after.iter().flat_map(|t| t.data().to_vec()).collect();
        let before: Vec<f32> =
            flat_after.iter().enumerate().map(|(i, &v)| v + value(i, 9) * 1e-3).collect();
        let serial = |f: &dyn Fn(usize) -> f64| (0..flat_after.len()).map(f).sum::<f64>().sqrt();
        let sq = |x: f32| f64::from(x) * f64::from(x);
        let weight = serial(&|i| sq(flat_after[i]));
        let delta = serial(&|i| (f64::from(flat_after[i]) - f64::from(before[i])).powi(2));
        let close = |got: f64, want: f64| ((got - want) / want).abs() <= 1e-12;
        let (w, ratio) = update(&before, &after);
        assert!(close(w, weight), "weight norm {w} vs {weight}");
        assert!(close(ratio, delta / weight), "ratio {ratio} vs {}", delta / weight);
        assert!(close(l2_norm(&before), serial(&|i| sq(before[i]))));
        let mut snap = vec![7.0; 3];
        snapshot(&mut snap, &after);
        assert_eq!(snap, flat_after);
    }

    #[test]
    fn update_is_the_weight_norm_and_the_step_ratio() {
        let after = Tensor::from_vec(vec![1.1f32; 4], &[2, 2]).unwrap();
        let (weight_norm, ratio) = update(&[1.0; 4], [&after]);
        assert!((weight_norm - l2_norm(after.data())).abs() < 1e-12);
        // ‖Δ‖ = 0.1·2 (4 entries of ~0.1), ‖w‖ = 1.1·2.
        assert!((ratio - (0.1f64 * 2.0) / (1.1 * 2.0)).abs() < 1e-3, "ratio {ratio}");
    }
}
