//! Property-based tests for the tensor substrate.
//!
//! These check algebraic invariants that must hold for *any* input, which
//! unit tests with hand-picked values cannot cover: gradient correctness
//! against central differences, broadcast algebra, and the stack/unstack
//! (fusion) round-trip that MSRL's fragment-fusion pass relies on.

use msrl_tensor::autograd::Tape;
use msrl_tensor::{kernels, ops, par, reference, Backend, Tensor};
use proptest::prelude::*;

fn bits(d: &[f32]) -> Vec<u32> {
    d.iter().map(|v| v.to_bits()).collect()
}

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-3.0f32..3.0, len)
}

/// Evaluates `f` once under each backend and returns
/// `(scalar_result, threaded_result)`. A kernel never forks, so the two
/// must agree bit for bit: the backend decides only whether a learner's
/// branches may run side by side.
fn on_both_backends<T>(f: impl Fn() -> T) -> (T, T) {
    (par::with_backend(Backend::Scalar, &f), par::with_backend(Backend::Threaded, &f))
}

proptest! {
    #[test]
    fn add_commutes(a in small_vec(12), b in small_vec(12)) {
        let ta = Tensor::from_vec(a, &[3, 4]).unwrap();
        let tb = Tensor::from_vec(b, &[3, 4]).unwrap();
        prop_assert_eq!(ops::add(&ta, &tb).unwrap(), ops::add(&tb, &ta).unwrap());
    }

    #[test]
    fn mul_scalar_distributes_over_add(a in small_vec(6), b in small_vec(6), s in -2.0f32..2.0) {
        let ta = Tensor::from_vec(a, &[6]).unwrap();
        let tb = Tensor::from_vec(b, &[6]).unwrap();
        let lhs = ops::mul_scalar(&ops::add(&ta, &tb).unwrap(), s);
        let rhs = ops::add(&ops::mul_scalar(&ta, s), &ops::mul_scalar(&tb, s)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn broadcast_add_matches_manual_tile(row in small_vec(4), m in small_vec(12)) {
        let trow = Tensor::from_vec(row.clone(), &[4]).unwrap();
        let tm = Tensor::from_vec(m.clone(), &[3, 4]).unwrap();
        let out = ops::add(&tm, &trow).unwrap();
        for i in 0..3 {
            for j in 0..4 {
                let expect = m[i * 4 + j] + row[j];
                prop_assert!((out.at(&[i, j]).unwrap() - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn stack_unstack_roundtrip(a in small_vec(8), b in small_vec(8), c in small_vec(8)) {
        let ts: Vec<Tensor> = [a, b, c]
            .into_iter()
            .map(|v| Tensor::from_vec(v, &[2, 4]).unwrap())
            .collect();
        let refs: Vec<&Tensor> = ts.iter().collect();
        let stacked = ops::stack(&refs).unwrap();
        prop_assert_eq!(stacked.shape(), &[3, 2, 4]);
        let parts = ops::unstack(&stacked, 3).unwrap();
        for (orig, got) in ts.iter().zip(&parts) {
            // unstack keeps a leading axis of extent lead/n = 1
            let flat = got.reshape(&[2, 4]).unwrap();
            prop_assert_eq!(orig, &flat);
        }
    }

    #[test]
    fn matmul_is_linear_in_lhs(
        a in small_vec(6), b in small_vec(6), w in small_vec(6), s in -2.0f32..2.0
    ) {
        let ta = Tensor::from_vec(a, &[2, 3]).unwrap();
        let tb = Tensor::from_vec(b, &[2, 3]).unwrap();
        let tw = Tensor::from_vec(w, &[3, 2]).unwrap();
        // (a + s·b)·W == a·W + s·(b·W)
        let lhs = ops::matmul(&ops::add(&ta, &ops::mul_scalar(&tb, s)).unwrap(), &tw).unwrap();
        let rhs = ops::add(
            &ops::matmul(&ta, &tw).unwrap(),
            &ops::mul_scalar(&ops::matmul(&tb, &tw).unwrap(), s),
        )
        .unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(vals in small_vec(12)) {
        let t = Tensor::from_vec(vals, &[3, 4]).unwrap();
        let s = ops::softmax_rows(&t).unwrap();
        for i in 0..3 {
            let row = &s.data()[i * 4..(i + 1) * 4];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    /// Reverse-mode gradients of a composite expression agree with central
    /// differences at random points.
    #[test]
    fn autograd_matches_numeric_gradient(point in small_vec(4)) {
        let eval = |vals: &[f32]| -> f32 {
            let tape = Tape::new();
            let x = tape.var(Tensor::from_vec(vals.to_vec(), &[2, 2]).unwrap());
            let w = tape.var(Tensor::from_vec(vec![0.3, -0.7, 0.9, 0.1], &[2, 2]).unwrap());
            x.matmul(&w)
                .unwrap()
                .tanh()
                .square()
                .mean()
                .value()
                .item()
                .unwrap()
        };
        let tape = Tape::new();
        let x = tape.var(Tensor::from_vec(point.clone(), &[2, 2]).unwrap());
        let w = tape.var(Tensor::from_vec(vec![0.3, -0.7, 0.9, 0.1], &[2, 2]).unwrap());
        let loss = x.matmul(&w).unwrap().tanh().square().mean();
        let grads = tape.backward(&loss).unwrap();
        let analytic = grads.get(x.id()).unwrap().data().to_vec();
        let eps = 1e-2;
        for i in 0..4 {
            let mut lo = point.clone();
            let mut hi = point.clone();
            lo[i] -= eps;
            hi[i] += eps;
            let numeric = (eval(&hi) - eval(&lo)) / (2.0 * eps);
            prop_assert!(
                (numeric - analytic[i]).abs() < 2e-2,
                "axis {}: numeric {} vs analytic {}", i, numeric, analytic[i]
            );
        }
    }

    /// Gradient of a broadcast add sums over the broadcast axes — checked
    /// against the mathematical identity d(Σ(x+b))/db_j = #rows.
    #[test]
    fn broadcast_gradient_sums(rows in 1usize..6, cols in 1usize..5) {
        let tape = Tape::new();
        let x = tape.var(Tensor::zeros(&[rows, cols]));
        let b = tape.var(Tensor::zeros(&[cols]));
        let loss = x.add(&b).unwrap().sum();
        let g = tape.backward(&loss).unwrap();
        let gb = g.get(b.id()).unwrap();
        prop_assert_eq!(gb.shape(), &[cols]);
        for &v in gb.data() {
            prop_assert_eq!(v, rows as f32);
        }
    }

    #[test]
    fn concat_then_volume(n1 in 1usize..4, n2 in 1usize..4) {
        let a = Tensor::ones(&[n1, 3]);
        let b = Tensor::full(&[n2, 3], 2.0);
        let c = ops::concat(&[&a, &b], 0).unwrap();
        prop_assert_eq!(c.shape(), &[n1 + n2, 3]);
        prop_assert_eq!(c.data()[..n1 * 3].iter().sum::<f32>(), (n1 * 3) as f32);
        prop_assert_eq!(c.data()[n1 * 3..].iter().sum::<f32>(), (n2 * 6) as f32);
    }

    /// The two backends run the same matmul and must agree bit-for-bit —
    /// including degenerate m = 1 / k = 1 / n = 1 shapes.
    #[test]
    fn backend_matmul_agrees(
        m in 1usize..9, k in 1usize..9, n in 1usize..9,
        av in small_vec(64), bv in small_vec(64)
    ) {
        let a = Tensor::from_vec(av[..m * k].to_vec(), &[m, k]).unwrap();
        let b = Tensor::from_vec(bv[..k * n].to_vec(), &[k, n]).unwrap();
        let (scalar, threaded) = on_both_backends(|| ops::matmul(&a, &b).unwrap());
        prop_assert_eq!(scalar, threaded);
    }

    /// The packed register-tiled microkernels must agree with the naive
    /// kernel bit-for-bit on any shape and on both backends — including
    /// degenerate `k = 0` / `m = 1` products and NaN/∞ poison values,
    /// which the no-zero-skip accumulation order must propagate
    /// identically. (Compared via bit patterns: `NaN != NaN` under
    /// `PartialEq`.)
    #[test]
    fn packed_matmul_matches_naive_bitwise(
        m in 1usize..20, k in 0usize..12, n in 1usize..40,
        av in small_vec(240), bv in small_vec(480), poison in 0usize..4
    ) {
        let mut a = av[..m * k].to_vec();
        let mut b = bv[..k * n].to_vec();
        if k > 0 {
            match poison {
                1 => a[0] = f32::NAN,
                2 => b[k * n - 1] = f32::INFINITY,
                3 => {
                    a[(m - 1) * k] = f32::NEG_INFINITY;
                    b[0] = f32::NAN;
                }
                _ => {}
            }
        }
        let ta = Tensor::from_vec(a, &[m, k]).unwrap();
        let tb = Tensor::from_vec(b, &[k, n]).unwrap();
        let naive = bits(&reference::matmul(ta.data(), tb.data(), m, k, n));
        // Straight onto the packed tile, whatever the PACK_MIN_FLOPS
        // on-the-fly cutoff says.
        let bp = kernels::pack_b(tb.data(), k, n);
        let mut whole = vec![0.0; m * n];
        kernels::matmul_packed_rows(ta.data(), &mut whole, k, n, &bp);
        prop_assert_eq!(bits(&whole), naive);
    }

    /// Below the packing cutoff `matmul` dispatches the unpacked SIMD
    /// row kernel; its output must match the naive loop bit-for-bit on
    /// both backends, non-finite poison values included.
    #[test]
    fn small_matmul_matches_naive_bitwise(
        m in 1usize..6, k in 0usize..9, n in 1usize..48,
        av in small_vec(54), bv in small_vec(432), poison in 0usize..4
    ) {
        let mut a = av[..m * k].to_vec();
        let mut b = bv[..k * n].to_vec();
        if k > 0 {
            match poison {
                1 => a[m * k / 2] = f32::NAN,
                2 => b[k * n / 2] = f32::INFINITY,
                3 => {
                    a[0] = f32::NEG_INFINITY;
                    b[k * n - 1] = f32::NAN;
                }
                _ => {}
            }
        }
        let ta = Tensor::from_vec(a, &[m, k]).unwrap();
        let tb = Tensor::from_vec(b, &[k, n]).unwrap();
        let naive = bits(&reference::matmul(ta.data(), tb.data(), m, k, n));
        let (s, t) = on_both_backends(|| ops::matmul(&ta, &tb).unwrap());
        prop_assert_eq!(bits(s.data()), bits(t.data()));
        prop_assert_eq!(bits(s.data()), naive);
    }

    /// The transpose-free gradient products must be bit-identical to
    /// the materialised-transpose compositions on both backends.
    #[test]
    fn transpose_free_products_match_bitwise(
        m in 1usize..8, p in 1usize..8, n in 1usize..8,
        av in small_vec(64), bv in small_vec(64)
    ) {
        let a = Tensor::from_vec(av[..p * m].to_vec(), &[p, m]).unwrap();
        let b = Tensor::from_vec(bv[..p * n].to_vec(), &[p, n]).unwrap();
        let via_t = ops::matmul(&ops::transpose(&a).unwrap(), &b).unwrap();
        let (s, t) = on_both_backends(|| ops::matmul_at(&a, &b).unwrap());
        prop_assert_eq!(&s, &t);
        prop_assert_eq!(&s, &via_t);

        let a2 = Tensor::from_vec(av[..m * p].to_vec(), &[m, p]).unwrap();
        let b2 = Tensor::from_vec(bv[..n * p].to_vec(), &[n, p]).unwrap();
        let via_t2 = ops::matmul(&a2, &ops::transpose(&b2).unwrap()).unwrap();
        let (s2, t2) = on_both_backends(|| ops::matmul_bt(&a2, &b2).unwrap());
        prop_assert_eq!(&s2, &t2);
        prop_assert_eq!(&s2, &via_t2);
        // And the transposed pack against the naive loop on the
        // materialised transpose.
        let bt_naive =
            reference::matmul(a2.data(), &reference::transpose(b2.data(), n, p), m, p, n);
        prop_assert_eq!(bits(s2.data()), bits(&bt_naive));
    }

    /// `matmul_at` carries partial sums across reduction blocks of
    /// `AT_BLOCK` rows; with `p` on either side of one, two and three
    /// block boundaries every element must still be the plain
    /// ascending-`kk` fold.
    #[test]
    fn matmul_at_matches_naive_fold_across_reduction_blocks(
        p in 0usize..3 * kernels::AT_BLOCK + 2, m in 1usize..24, n in 1usize..40,
        av in small_vec(97), bv in small_vec(89)
    ) {
        let ad: Vec<f32> = av.iter().copied().cycle().take(p * m).collect();
        let bd: Vec<f32> = bv.iter().copied().cycle().take(p * n).collect();
        let expect = reference::matmul(&reference::transpose(&ad, p, m), &bd, m, p, n);
        let a = Tensor::from_vec(ad, &[p, m]).unwrap();
        let b = Tensor::from_vec(bd, &[p, n]).unwrap();
        let (s, t) = on_both_backends(|| ops::matmul_at(&a, &b).unwrap());
        prop_assert_eq!(s.shape(), &[m, n]);
        prop_assert_eq!(bits(s.data()), bits(t.data()));
        prop_assert_eq!(bits(s.data()), bits(&expect));
    }

    /// The three row-major and transposed product wrappers — one helper,
    /// two kernels — must each agree bit-for-bit with the naive loop on
    /// both backends, on shapes ragged against every tile (row blocks of
    /// 4 and 8, panels of 16 and 32) and on either side of the
    /// `PACK_MIN_FLOPS` rule.
    #[test]
    fn product_wrappers_match_reference_bitwise(
        m in 1usize..64, k in 1usize..71, n in 1usize..71,
        av in small_vec(487), bv in small_vec(491), cv in small_vec(70), act in 0usize..4
    ) {
        let ad: Vec<f32> = av.iter().copied().cycle().take(m * k).collect();
        let bd: Vec<f32> = bv.iter().copied().cycle().take(k * n).collect();
        let a = Tensor::from_vec(ad, &[m, k]).unwrap();
        let b = Tensor::from_vec(bd, &[k, n]).unwrap();
        let bt = Tensor::from_vec(reference::transpose(b.data(), k, n), &[n, k]).unwrap();
        let bias = Tensor::from_vec(cv[..n].to_vec(), &[n]).unwrap();
        let act = [ops::Act::Relu, ops::Act::Tanh, ops::Act::Sigmoid, ops::Act::Linear][act];
        let product = reference::matmul(a.data(), b.data(), m, k, n);
        let biased: Vec<f32> =
            product.iter().enumerate().map(|(i, &v)| v + bias.data()[i % n]).collect();
        let activated: Vec<f32> = biased.iter().map(|&v| act.apply(v)).collect();

        let (s, t) = on_both_backends(|| ops::matmul(&a, &b).unwrap());
        prop_assert_eq!(bits(s.data()), bits(t.data()));
        prop_assert_eq!(bits(s.data()), bits(&product));
        let (s, t) = on_both_backends(|| ops::matmul_bt(&a, &bt).unwrap());
        prop_assert_eq!(bits(s.data()), bits(t.data()));
        prop_assert_eq!(bits(s.data()), bits(&product));
        let (s, t) = on_both_backends(|| ops::linear_act(&a, &b, &bias, act).unwrap());
        prop_assert_eq!(bits(s.data()), bits(t.data()));
        prop_assert_eq!(bits(s.data()), bits(&activated));
    }

    /// Broadcast arithmetic under the strided `BroadcastPlan` must match the
    /// scalar backend element-for-element across shape pairs that exercise
    /// unit axes, rank padding, and all-degenerate operands.
    #[test]
    fn backend_broadcast_agrees(case in 0usize..8, av in small_vec(128), bv in small_vec(128)) {
        let (sa, sb): (&[usize], &[usize]) = match case {
            0 => (&[4, 5], &[4, 5]),
            1 => (&[4, 5], &[5]),
            2 => (&[4, 5], &[1]),
            3 => (&[3, 1, 5], &[1, 4, 1]),
            4 => (&[1, 1], &[6, 1]),
            5 => (&[2, 1, 3, 1], &[1, 4, 1, 5]),
            6 => (&[7], &[1]),
            _ => (&[2, 3, 4], &[3, 1]),
        };
        let vol = |s: &[usize]| s.iter().product::<usize>();
        let a = Tensor::from_vec(av[..vol(sa)].to_vec(), sa).unwrap();
        let b = Tensor::from_vec(bv[..vol(sb)].to_vec(), sb).unwrap();
        let (add_s, add_t) = on_both_backends(|| ops::add(&a, &b).unwrap());
        prop_assert_eq!(add_s, add_t);
        let (mul_s, mul_t) = on_both_backends(|| ops::mul(&a, &b).unwrap());
        prop_assert_eq!(mul_s, mul_t);
    }

    /// Axis reductions and whole-tensor sums are bit-exact across
    /// backends.
    #[test]
    fn backend_reductions_agree(
        d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5,
        axis in 0usize..3, vals in small_vec(64)
    ) {
        let t = Tensor::from_vec(vals[..d0 * d1 * d2].to_vec(), &[d0, d1, d2]).unwrap();
        let (sum_s, sum_t) = on_both_backends(|| ops::sum_axis(&t, axis).unwrap());
        prop_assert_eq!(sum_s, sum_t);
        let (max_s, max_t) = on_both_backends(|| ops::max_axis(&t, axis).unwrap());
        prop_assert_eq!(max_s, max_t);
        let (mean_s, mean_t) = on_both_backends(|| ops::mean_axis(&t, axis).unwrap());
        prop_assert_eq!(mean_s, mean_t);
        let (all_s, all_t) = on_both_backends(|| ops::sum_all(&t));
        prop_assert_eq!(all_s, all_t);
    }

    /// The gathered reduction row kernels must match the naive scalar
    /// folds bit-for-bit on any shape, any axis, and both backends —
    /// degenerate axis lengths (0, 1), single-row inputs, and NaN/∞
    /// poison included. `max` pins `f32::max` NaN semantics (NaN
    /// operands ignored), so an all-NaN reduction over a non-empty axis
    /// yields the -∞ seed.
    #[test]
    fn reductions_match_naive_bitwise(
        d0 in 1usize..6, d1 in 0usize..6, d2 in 1usize..6,
        axis in 0usize..3, vals in small_vec(180), poison in 0usize..5
    ) {
        let vol = d0 * d1 * d2;
        let mut v = vals[..vol].to_vec();
        if vol > 0 {
            match poison {
                1 => v[0] = f32::NAN,
                2 => v[vol / 2] = f32::INFINITY,
                3 => v[vol - 1] = f32::NEG_INFINITY,
                4 => v.fill(f32::NAN),
                _ => {}
            }
        }
        let t = Tensor::from_vec(v, &[d0, d1, d2]).unwrap();
        let dims = [d0, d1, d2];
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mid = dims[axis];
        for (op, red, scale) in [
            (0usize, kernels::RedOp::Sum, None),
            (1, kernels::RedOp::Max, None),
            (2, kernels::RedOp::Sum, Some(1.0 / mid as f32)),
        ] {
            let naive = reference::reduce(t.data(), outer, mid, inner, red, scale);
            let (s, th) = on_both_backends(|| match op {
                0 => ops::sum_axis(&t, axis).unwrap(),
                1 => ops::max_axis(&t, axis).unwrap(),
                _ => ops::mean_axis(&t, axis).unwrap(),
            });
            prop_assert_eq!(bits(s.data()), bits(th.data()));
            prop_assert_eq!(bits(s.data()), bits(&naive));
        }
    }

    /// The softmax kernel is bit-identical across backends and within
    /// 1e-5 of the libm reference spelling — single-row and
    /// single-column matrices and ±∞ operands included (a `+∞` logit
    /// makes `∞ − ∞` and both sides return an all-NaN row).
    #[test]
    fn softmax_rows_match_naive_bitwise(
        m in 1usize..10, n in 1usize..10, vals in small_vec(81), poison in 0usize..3
    ) {
        let mut v = vals[..m * n].to_vec();
        match poison {
            1 => v[0] = f32::NEG_INFINITY,
            2 => v[m * n - 1] = f32::INFINITY,
            _ => {}
        }
        let t = Tensor::from_vec(v, &[m, n]).unwrap();
        let naive = reference::softmax_rows(t.data(), n);
        let (s, th) = on_both_backends(|| ops::softmax_rows(&t).unwrap());
        prop_assert_eq!(bits(s.data()), bits(th.data()));
        for (got, want) in s.data().chunks(n).zip(naive.chunks(n)) {
            if want.iter().any(|v| v.is_nan()) {
                prop_assert!(got.iter().all(|v| v.is_nan()), "{got:?} vs {want:?}");
                continue;
            }
            for (g, w) in got.iter().zip(want) {
                prop_assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
            }
            prop_assert!((got.iter().sum::<f32>() - 1.0).abs() <= 1e-5);
        }
    }

    /// Row-softmax and element-wise maps must agree bit-for-bit across
    /// backends.
    #[test]
    fn backend_softmax_and_map_agree(m in 1usize..7, n in 1usize..7, vals in small_vec(36)) {
        let t = Tensor::from_vec(vals[..m * n].to_vec(), &[m, n]).unwrap();
        let (ls_s, ls_t) = on_both_backends(|| ops::log_softmax_rows(&t).unwrap());
        prop_assert_eq!(ls_s, ls_t);
        let (sm_s, sm_t) = on_both_backends(|| ops::softmax_rows(&t).unwrap());
        prop_assert_eq!(sm_s, sm_t);
        let (map_s, map_t) = on_both_backends(|| ops::map(&t, f32::tanh));
        prop_assert_eq!(map_s, map_t);
    }
}

proptest! {
    /// `exp`/`tanh`/`sigmoid` must stay within the documented error
    /// bounds of libm across the training-relevant input range (±20),
    /// and must be deterministic across backends.
    #[test]
    fn fastmath_unaries_within_documented_bounds(
        vals in proptest::collection::vec(-20.0f32..20.0, 33)
    ) {
        let t = Tensor::from_vec(vals.clone(), &[3, 11]).unwrap();
        let (e_s, e_t) = on_both_backends(|| ops::exp(&t));
        prop_assert_eq!(&e_s, &e_t);
        for (&f, &x) in e_s.data().iter().zip(&vals) {
            let exact = x.exp();
            let rel = ((f - exact) / exact).abs();
            prop_assert!(rel < 3e-7, "exp({x}) fast={f} libm={exact} rel={rel}");
        }
        let (th_s, th_t) = on_both_backends(|| ops::tanh(&t));
        prop_assert_eq!(&th_s, &th_t);
        for (&f, &x) in th_s.data().iter().zip(&vals) {
            let err = (f - x.tanh()).abs();
            prop_assert!(err < 1e-6, "tanh({x}) err={err}");
        }
        let (sg_s, sg_t) = on_both_backends(|| ops::sigmoid(&t));
        prop_assert_eq!(&sg_s, &sg_t);
        for (&f, &x) in sg_s.data().iter().zip(&vals) {
            let err = (f - 1.0 / (1.0 + (-x).exp())).abs();
            prop_assert!(err < 1e-6, "sigmoid({x}) err={err}");
        }
    }

    /// Softmax rows are distributions, stay within 1e-5 of the libm
    /// reference rows, and a policy head behind a fused linear layer is
    /// bit-identical to the same head behind the unfused chain (fusion
    /// never changes results).
    #[test]
    fn fastmath_softmax_close_to_exact_and_fusion_invariant(
        m in 1usize..7, k in 1usize..7, n in 1usize..7,
        xv in small_vec(36), wv in small_vec(36), bv in small_vec(6)
    ) {
        let x = Tensor::from_vec(xv[..m * k].to_vec(), &[m, k]).unwrap();
        let w = Tensor::from_vec(wv[..k * n].to_vec(), &[k, n]).unwrap();
        let b = Tensor::from_vec(bv[..n].to_vec(), &[n]).unwrap();
        let exact = reference::softmax_rows(x.data(), k);
        let (fast_s, fast_t) = on_both_backends(|| ops::softmax_rows(&x).unwrap());
        prop_assert_eq!(&fast_s, &fast_t);
        for row in fast_s.data().chunks(k) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5, "row sum {sum}");
        }
        for (f, e) in fast_s.data().iter().zip(&exact) {
            prop_assert!((f - e).abs() < 1e-5, "fast={f} exact={e}");
        }
        let fused = ops::softmax_rows(&ops::linear_act(&x, &w, &b, ops::Act::Linear).unwrap()).unwrap();
        let unfused =
            ops::softmax_rows(&ops::add(&ops::matmul(&x, &w).unwrap(), &b).unwrap()).unwrap();
        prop_assert_eq!(fused, unfused);
    }

    /// Fused `linear_act` with Tanh/Sigmoid must match the unfused
    /// matmul → bias → activation chain bit-for-bit (the epilogue
    /// applies the same slice kernels the map path uses).
    #[test]
    fn fastmath_linear_act_matches_unfused_bitwise(
        m in 1usize..7, k in 1usize..7, n in 1usize..7, which in 0usize..2,
        xv in small_vec(36), wv in small_vec(36), bv in small_vec(6)
    ) {
        let x = Tensor::from_vec(xv[..m * k].to_vec(), &[m, k]).unwrap();
        let w = Tensor::from_vec(wv[..k * n].to_vec(), &[k, n]).unwrap();
        let b = Tensor::from_vec(bv[..n].to_vec(), &[n]).unwrap();
        let act = if which == 0 { ops::Act::Tanh } else { ops::Act::Sigmoid };
        let ((fused_s, unfused), (fused_t, _)) = on_both_backends(|| {
            let fused = ops::linear_act(&x, &w, &b, act).unwrap();
            let lin = ops::add(&ops::matmul(&x, &w).unwrap(), &b).unwrap();
            let unfused = if which == 0 { ops::tanh(&lin) } else { ops::sigmoid(&lin) };
            (fused, unfused)
        });
        prop_assert_eq!(&fused_s, &fused_t);
        prop_assert_eq!(&fused_s, &unfused);
    }
}
