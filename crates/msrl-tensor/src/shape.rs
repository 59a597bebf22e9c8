//! Shape arithmetic: volumes, strides and NumPy-style broadcasting.

use crate::error::TensorError;
use crate::Result;

/// A tensor shape: the extent of each axis, outermost first.
///
/// `Shape` is a thin wrapper over `Vec<usize>` that centralises the shape
/// arithmetic (volume, row-major strides, broadcast resolution) used across
/// the crate. A rank-0 shape (`[]`) denotes a scalar with volume 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of axis extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// The extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major (C-order) strides for this shape.
    ///
    /// The stride of axis `i` is the number of linear elements between
    /// consecutive indices along that axis.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.0.len()];
        let mut acc = 1;
        for (i, &d) in self.0.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }

    /// Resolves the broadcast shape of `self` and `other` under NumPy
    /// rules: align from the trailing axis; extents must be equal or one of
    /// them 1.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when any aligned pair of
    /// extents is incompatible.
    pub fn broadcast(&self, other: &Shape) -> Result<Shape> {
        let rank = self.rank().max(other.rank());
        let mut out = vec![0usize; rank];
        for i in 0..rank {
            let a = *self.0.get(self.rank().wrapping_sub(i + 1)).unwrap_or(&1);
            let b = *other.0.get(other.rank().wrapping_sub(i + 1)).unwrap_or(&1);
            out[rank - 1 - i] = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return Err(TensorError::ShapeMismatch {
                    op: "broadcast",
                    lhs: self.0.clone(),
                    rhs: other.0.clone(),
                });
            };
        }
        Ok(Shape(out))
    }

    /// Converts a linear index into per-axis coordinates for this shape.
    pub fn unravel(&self, mut linear: usize) -> Vec<usize> {
        let mut coords = vec![0; self.rank()];
        for (i, s) in self.strides().iter().enumerate() {
            coords[i] = linear / s;
            linear %= s;
        }
        coords
    }

    /// Converts per-axis coordinates into a linear index, clamping each
    /// coordinate to `0` along axes of extent 1 (the broadcast read rule).
    pub fn ravel_broadcast(&self, coords: &[usize]) -> usize {
        debug_assert!(coords.len() >= self.rank());
        let offset = coords.len() - self.rank();
        let strides = self.strides();
        let mut linear = 0;
        for i in 0..self.rank() {
            let c = if self.0[i] == 1 { 0 } else { coords[offset + i] };
            linear += c * strides[i];
        }
        linear
    }
}

/// A precomputed addressing plan for one broadcast binary operation.
///
/// Replaces per-element [`Shape::unravel`] + [`Shape::ravel_broadcast`]
/// (which allocate a coordinate vector per output element) with strided
/// iteration: the maximal trailing run of axes on which each operand is
/// either fully materialised or fully broadcast collapses into a single
/// contiguous *inner* loop, and the remaining *outer* axes advance by an
/// allocation-free odometer.
#[derive(Debug, Clone)]
pub struct BroadcastPlan {
    /// Elements per inner (contiguous) run.
    inner: usize,
    /// Operand step per inner element: 1 (materialised) or 0 (broadcast).
    a_inner_stride: usize,
    /// As `a_inner_stride`, for the right operand.
    b_inner_stride: usize,
    /// Extents of the outer axes, outermost first.
    outer_dims: Vec<usize>,
    /// Left-operand stride per outer axis (0 on broadcast axes).
    a_outer_strides: Vec<usize>,
    /// Right-operand stride per outer axis (0 on broadcast axes).
    b_outer_strides: Vec<usize>,
    /// Product of `outer_dims`.
    outer_steps: usize,
}

impl BroadcastPlan {
    /// Builds the plan for reading `a` and `b` at every position of
    /// `out` (which must be their broadcast shape).
    pub fn new(a: &Shape, b: &Shape, out: &Shape) -> Self {
        let rank = out.rank();
        let pad = |s: &Shape| -> Vec<usize> {
            let mut ext = vec![1usize; rank - s.rank()];
            ext.extend_from_slice(s.dims());
            ext
        };
        let a_ext = pad(a);
        let b_ext = pad(b);
        let eff_strides = |ext: &[usize]| -> Vec<usize> {
            let mut strides = vec![0usize; rank];
            let mut acc = 1usize;
            for i in (0..rank).rev() {
                strides[i] = if ext[i] == 1 { 0 } else { acc };
                acc *= ext[i];
            }
            strides
        };
        let a_eff = eff_strides(&a_ext);
        let b_eff = eff_strides(&b_ext);

        // Greedily extend the inner run from the trailing axis while each
        // operand stays in a single regime over the whole run: extents
        // matching `out` (contiguous read) or all ones (constant read).
        let (mut a_match, mut a_ones) = (true, true);
        let (mut b_match, mut b_ones) = (true, true);
        let mut split = rank;
        while split > 0 {
            let ax = split - 1;
            let na_match = a_match && a_ext[ax] == out.0[ax];
            let na_ones = a_ones && a_ext[ax] == 1;
            let nb_match = b_match && b_ext[ax] == out.0[ax];
            let nb_ones = b_ones && b_ext[ax] == 1;
            if !(na_match || na_ones) || !(nb_match || nb_ones) {
                break;
            }
            a_match = na_match;
            a_ones = na_ones;
            b_match = nb_match;
            b_ones = nb_ones;
            split = ax;
        }

        let inner: usize = out.0[split..].iter().product();
        BroadcastPlan {
            inner,
            a_inner_stride: usize::from(a_match && inner > 1),
            b_inner_stride: usize::from(b_match && inner > 1),
            outer_dims: out.0[..split].to_vec(),
            a_outer_strides: a_eff[..split].to_vec(),
            b_outer_strides: b_eff[..split].to_vec(),
            outer_steps: out.0[..split].iter().product(),
        }
    }

    /// Elements per contiguous inner run.
    pub fn inner(&self) -> usize {
        self.inner
    }

    /// Operand steps per inner element: `(a_step, b_step)`, each 0 or 1.
    pub fn inner_strides(&self) -> (usize, usize) {
        (self.a_inner_stride, self.b_inner_stride)
    }

    /// Number of inner runs (the product of the outer extents).
    pub fn outer_steps(&self) -> usize {
        self.outer_steps
    }

    /// Calls `f(a_base, b_base)` with the operand base offsets of every
    /// inner run, in ascending run order.
    ///
    /// Bases advance by an incremental odometer, so the per-run cost is
    /// O(1) amortised and allocation-free.
    pub fn for_each_base(&self, mut f: impl FnMut(usize, usize)) {
        let rank = self.outer_dims.len();
        let mut coords = vec![0usize; rank];
        let (mut a_base, mut b_base) = (0usize, 0usize);
        for _ in 0..self.outer_steps {
            f(a_base, b_base);
            // Odometer increment, innermost outer axis first.
            for ax in (0..rank).rev() {
                coords[ax] += 1;
                a_base += self.a_outer_strides[ax];
                b_base += self.b_outer_strides[ax];
                if coords[ax] < self.outer_dims[ax] {
                    break;
                }
                a_base -= self.outer_dims[ax] * self.a_outer_strides[ax];
                b_base -= self.outer_dims[ax] * self.b_outer_strides[ax];
                coords[ax] = 0;
            }
        }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_of_scalar_is_one() {
        assert_eq!(Shape::new(&[]).volume(), 1);
    }

    #[test]
    fn volume_is_product() {
        assert_eq!(Shape::new(&[2, 3, 4]).volume(), 24);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_equal_shapes() {
        let a = Shape::new(&[2, 3]);
        assert_eq!(a.broadcast(&a).unwrap(), a);
    }

    #[test]
    fn broadcast_with_ones() {
        let a = Shape::new(&[2, 1, 4]);
        let b = Shape::new(&[3, 1]);
        assert_eq!(a.broadcast(&b).unwrap(), Shape::new(&[2, 3, 4]));
    }

    #[test]
    fn broadcast_scalar() {
        let a = Shape::new(&[2, 2]);
        let s = Shape::new(&[]);
        assert_eq!(a.broadcast(&s).unwrap(), a);
        assert_eq!(s.broadcast(&a).unwrap(), a);
    }

    #[test]
    fn broadcast_incompatible_fails() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[4, 3]);
        assert!(a.broadcast(&b).is_err());
    }

    #[test]
    fn unravel_ravel_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        for i in 0..24 {
            let coords = s.unravel(i);
            assert_eq!(s.ravel_broadcast(&coords), i);
        }
    }

    #[test]
    fn ravel_broadcast_clamps_unit_axes() {
        let s = Shape::new(&[1, 3]);
        // Coordinate (5, 2) in a broadcast target of [6, 3] reads (0, 2).
        assert_eq!(s.ravel_broadcast(&[5, 2]), 2);
    }

    /// The strided plan visits exactly the offsets the coordinate-based
    /// reference produces, for every broadcast pattern shape combination
    /// the kernels rely on — including degenerate unit axes.
    #[test]
    fn broadcast_plan_matches_unravel_reference() {
        let cases: &[(&[usize], &[usize])] = &[
            (&[2, 3], &[2, 3]),
            (&[2, 3], &[3]),
            (&[2, 3], &[1]),
            (&[2, 3], &[]),
            (&[2, 1], &[1, 3]),
            (&[4, 1, 3], &[2, 1]),
            (&[1], &[5]),
            (&[1, 1, 1], &[2, 2, 2]),
            (&[6, 1, 4], &[6, 5, 1]),
            (&[3, 1, 1, 2], &[1, 4, 1, 2]),
        ];
        for &(da, db) in cases {
            let a = Shape::new(da);
            let b = Shape::new(db);
            let out = a.broadcast(&b).unwrap();
            let plan = BroadcastPlan::new(&a, &b, &out);
            assert_eq!(plan.outer_steps() * plan.inner(), out.volume(), "{da:?} {db:?}");
            let (ais, bis) = plan.inner_strides();
            let mut seen = Vec::new();
            plan.for_each_base(|ab, bb| {
                for t in 0..plan.inner() {
                    seen.push((ab + t * ais, bb + t * bis));
                }
            });
            let expect: Vec<(usize, usize)> = (0..out.volume())
                .map(|i| {
                    let coords = out.unravel(i);
                    (a.ravel_broadcast(&coords), b.ravel_broadcast(&coords))
                })
                .collect();
            assert_eq!(seen, expect, "plan disagrees for {da:?} vs {db:?}");
        }
    }
}
