//! # sage-nn
//!
//! A small, dependency-light neural-network substrate: dense matrices,
//! linear layers with manual backpropagation, an MLP container, SGD/Adam
//! optimizers, common losses, and a sparse embedding table.
//!
//! The paper's trainable components are all small models:
//!
//! * the **segmentation model** (paper §IV-B, Algorithm 1) is an embedding
//!   model plus an MLP scoring head trained with MSE;
//! * the **reranker** is a cross-feature scorer with an MLP head;
//! * the **SBERT / DPR analogs** are linear encoders over hashed features
//!   trained with cosine/contrastive objectives.
//!
//! None of them need GPU kernels or autograd graphs, so this crate
//! implements exactly the forward/backward passes they require, in plain
//! Rust, with deterministic seeded initialisation. Everything is `f32`.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod cluster;
pub mod io;
pub mod embedding;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;

pub use cluster::{kmeans, KMeans};
pub use io::BytesSerialize;
pub use embedding::EmbeddingTable;
pub use layer::{Activation, Linear};
pub use loss::{bce_loss, bce_loss_grad, mse_loss, mse_loss_grad};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::AdamState;
