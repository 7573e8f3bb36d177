//! # rpq-autodiff
//!
//! A small tape-based reverse-mode automatic-differentiation engine over
//! dense [`rpq_linalg::Matrix`] values, purpose-built for training RPQ's
//! differentiable quantizer (paper §4–§6) in pure Rust.
//!
//! Why build one: RPQ's training loop needs gradients through
//!
//! * the learned rotation's product with the data (adaptive vector
//!   decomposition; the trainer turns `∂L/∂R` into a skew step itself),
//! * Gumbel-Softmax codeword assignment (softmax / log / gather),
//! * triplet and listwise (log-likelihood) losses over batches,
//!
//! and the offline Rust ecosystem has no learned-codebook training tooling.
//! The engine is a classic Wengert tape: every operation appends a node, so
//! the tape is topologically ordered by construction and a single reverse
//! sweep computes all gradients.
//!
//! ```
//! use rpq_autodiff::Tape;
//! use rpq_linalg::Matrix;
//!
//! let mut t = Tape::new();
//! let x = t.param(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let y = t.square(x);
//! let loss = t.sum_all(y);
//! let grads = t.backward(loss);
//! let gx = grads.get(x).unwrap();
//! assert_eq!(gx.data, vec![2.0, 4.0]); // d/dx sum(x²) = 2x
//! ```

mod ops;
mod optim;
mod tape;

pub use optim::{Adam, OneCycleLr};
pub use tape::{Gradients, Tape, Var};
