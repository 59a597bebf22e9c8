//! The dense tensor type and its constructors/accessors.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;

/// A dense, row-major, contiguous `f32` tensor.
///
/// `Tensor` is the value type that flows along edges of MSRL's fragmented
/// dataflow graphs. It is deliberately simple — contiguous storage, no
/// views — because the FDG interpreter and the fusion pass reason about
/// whole tensors, not aliased slices.
///
/// Cloning a `Tensor` clones its buffer; the MSRL runtime moves tensors
/// between fragments instead of sharing them, mirroring how devices
/// exchange materialised buffers in the original system.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: Shape::new(&[]) }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![0.0; shape.volume()], shape }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![1.0; shape.volume()], shape }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![value; shape.volume()], shape }
    }

    /// Creates a 1-D tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        Tensor { data: (0..n).map(|i| i as f32).collect(), shape: Shape::new(&[n]) }
    }

    /// The shape extents, outermost first.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The shape object.
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Consumes the tensor, returning its storage to the thread-local
    /// buffer pool (see [`crate::alloc`]) so a later operator output of
    /// the same length skips its heap allocation.
    pub fn recycle(self) {
        crate::alloc::give(self.data);
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the tensor has more than
    /// one element.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() == 1 {
            Ok(self.data[0])
        } else {
            Err(TensorError::LengthMismatch { expected: 1, actual: self.data.len() })
        }
    }

    /// Returns the element at the given multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or any coordinate is out of range.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                op: "at",
                expected: self.rank(),
                actual: index.len(),
            });
        }
        for (i, (&c, &d)) in index.iter().zip(self.shape.dims()).enumerate() {
            if c >= d {
                let _ = i;
                return Err(TensorError::IndexOutOfRange { index: c, len: d });
            }
        }
        let strides = self.shape.strides();
        let linear: usize = index.iter().zip(&strides).map(|(c, s)| c * s).sum();
        Ok(self.data[linear])
    }

    /// Reinterprets the buffer under a new shape with the same volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] when the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let to = Shape::new(dims);
        if to.volume() != self.shape.volume() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        // Pool-drawn like every operator output: tape nodes and
        // gradients recycle their storage when they die, and a pool
        // that receives what it never handed out fills to its cap.
        let mut data = crate::alloc::take_for_overwrite(self.data.len());
        data.copy_from_slice(&self.data);
        Ok(Tensor { data, shape: to })
    }

    /// Row `i` of a rank-2 tensor as a new 1-D tensor.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrix inputs or out-of-range rows.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { op: "row", expected: 2, actual: self.rank() });
        }
        let (rows, cols) = (self.shape.dims()[0], self.shape.dims()[1]);
        if i >= rows {
            return Err(TensorError::IndexOutOfRange { index: i, len: rows });
        }
        Tensor::from_vec(self.data[i * cols..(i + 1) * cols].to_vec(), &[cols])
    }

    /// Whether all elements are finite (no NaN/inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item().unwrap(), 2.5);
        assert!(Tensor::zeros(&[2]).item().is_err());
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.0).data(), &[7.0, 7.0]);
    }

    #[test]
    fn at_indexes_row_major() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.at(&[0, 0]).unwrap(), 1.0);
        assert_eq!(t.at(&[1, 2]).unwrap(), 6.0);
        assert!(t.at(&[2, 0]).is_err());
        assert!(t.at(&[0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6);
        let r = t.reshape(&[2, 3]).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn row_extracts_matrix_row() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.row(1).unwrap().data(), &[3.0, 4.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
    }
}
