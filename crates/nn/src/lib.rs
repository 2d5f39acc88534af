//! # sage-nn
//!
//! A small, dependency-light neural-network substrate: dense matrices,
//! linear layers, an MLP, SGD/Adam optimizers, an MSE loss, and a sparse
//! embedding table.
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
//! implements exactly the passes they require, in plain Rust, with
//! deterministic seeded initialisation. Everything is `f32`.
//!
//! Every trainer feeds its MLP one example at a time, so training is one
//! row step, [`Mlp::train_row`]: a forward with the bits of inference, a
//! manual backward and an Adam step per layer, through row buffers each
//! [`Linear`] keeps from step to step. There is no batched training path;
//! inference takes a batch ([`Mlp::infer`]) or one row ([`Mlp::infer_row`]).
//! `tests/oracle.rs` keeps the batched step this replaced and checks the
//! weights it trains bit for bit.

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
pub use loss::mse_loss;
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::AdamState;
