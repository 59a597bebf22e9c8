//! # msrl-tensor
//!
//! A from-scratch dense-tensor and neural-network substrate for the
//! [msrl-rs](https://github.com/msrl-rs/msrl-rs) reproduction of the MSRL
//! paper (USENIX ATC 2023).
//!
//! The original MSRL system executes dataflow fragments with the MindSpore
//! deep-learning engine. This crate plays that role here: it provides
//!
//! * [`Tensor`] — a row-major, contiguous, `f32` dense tensor with
//!   broadcasting element-wise arithmetic, matrix multiplication, reductions
//!   and shape manipulation;
//! * [`autograd`] — a tape-based reverse-mode automatic-differentiation
//!   engine over tensors;
//! * [`nn`] — neural-network building blocks (linear layers, multi-layer
//!   perceptrons, activations) used for RL policies and value functions;
//! * [`optim`] — SGD and Adam optimizers;
//! * [`dist`] — probability distributions (diagonal Gaussian, categorical)
//!   needed by policy-gradient methods.
//!
//! All fallible operations return [`Result`]; the library never panics on
//! user input (shape mismatches are reported as [`TensorError`]).
//!
//! ## Example
//!
//! ```
//! use msrl_tensor::{Tensor, autograd::Tape};
//!
//! let tape = Tape::new();
//! let x = tape.var(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
//! let w = tape.var(Tensor::from_vec(vec![0.5, -0.5, 1.0, 1.5], &[2, 2]).unwrap());
//! let y = x.matmul(&w).unwrap().sum();
//! let grads = tape.backward(&y).unwrap();
//! assert_eq!(grads.get(w.id()).unwrap().shape(), &[2, 2]);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod autograd;
pub mod dist;
pub mod error;
pub mod fastmath;
pub mod init;
pub mod kernels;
mod lanes;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod par;
#[doc(hidden)]
pub mod reference;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use lanes::widest;
pub use par::Backend;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
