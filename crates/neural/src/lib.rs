//! # np-neural
//!
//! Neural-network substrate for the NeuroPlan reproduction — the
//! from-scratch stand-in for PyTorch(+Geometric) in the paper's agent
//! (§4.2, Fig. 6).
//!
//! The paper's network is small and fixed-shape per planning problem:
//! `L` graph-convolution layers (Eq. 7) over the node-link-transformed
//! topology, followed by two MLP heads — a per-node actor producing
//! masked categorical logits and a mean-pooled critic producing a scalar
//! value. For such a fixed graph, hand-derived layer-by-layer backprop is
//! exact and easy to verify against finite differences, so no general
//! autograd tape is needed:
//!
//! * [`matrix`] — dense row-major `f64` matrices with the handful of
//!   kernels the model needs;
//! * [`sparse`] — CSR sparse matrices for the normalized adjacency `Â`;
//! * [`param`] — a trainable tensor bundling value, gradient and Adam
//!   moments;
//! * [`layers`] — `Linear` and `Gcn` layers with forward/backward;
//! * [`scratch`] — the reusable-buffer wrapper that keeps workspaces out
//!   of a layer's cloned, exported or checkpointed state;
//! * [`mlp`] — a multi-layer perceptron assembled from those layers;
//! * [`ops`] — masked softmax / log-softmax, categorical sampling,
//!   policy-gradient and value-loss gradients;
//! * [`optim`] — Adam;
//! * [`gradcheck`] — finite-difference gradient verification used by the
//!   test-suite on every layer type.

pub mod gradcheck;
pub mod layers;
pub mod matrix;
pub mod mlp;
pub mod ops;
pub mod optim;
pub mod param;
pub mod scratch;
pub mod sparse;

pub use layers::{Gcn, Linear};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::Adam;
pub use param::Param;
pub use scratch::Scratch;
pub use sparse::Csr;
