//! # apan-nn
//!
//! Neural-network building blocks on top of [`apan_tensor`]: a parameter
//! store, layers (linear, MLP, multi-head mailbox attention, layer norm,
//! embeddings, functional time encoding, GRU cell), initializers, and
//! the Adam optimizer.
//!
//! ## Parameter model
//!
//! Model parameters live in a [`ParamStore`] owned by the caller; layers
//! hold only [`ParamId`] handles plus hyper-parameters. A forward pass goes
//! through a [`Fwd`] context that wraps a fresh autodiff [`apan_tensor::Graph`]
//! and leases parameters in as gradient-tracked leaves (cached, so a
//! parameter used twice binds to one tape node). After computing a loss:
//!
//! ```
//! use apan_nn::{Fwd, Linear, ParamStore, Adam, Optimizer};
//! use apan_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, "demo", 4, 2, &mut rng);
//! let mut adam = Adam::new(1e-2);
//!
//! let mut fwd = Fwd::new(&store, true);
//! let x = fwd.g.constant(Tensor::ones(3, 4));
//! let y = layer.forward(&mut fwd, x);
//! let target = Tensor::zeros(3, 2);
//! let loss = fwd.g.mse_mean(y, &target);
//! let grads = fwd.finish(loss);
//! adam.step(&mut store, &grads);
//! ```

#![forbid(unsafe_code)]

pub mod attention;
pub mod embedding;
pub mod gru;
pub mod init;
pub mod linear;
pub mod mlp;
pub mod norm;
pub mod optim;
pub mod param;
pub mod serialize;
pub mod time_encoding;

pub use attention::{AttentionOutput, MultiHeadAttention};
pub use embedding::Embedding;
pub use gru::GruCell;
pub use linear::Linear;
pub use mlp::Mlp;
pub use norm::LayerNorm;
pub use optim::{Adam, Optimizer};
pub use param::{Fwd, GradSet, ParamId, ParamStore};
pub use serialize::{
    load_params, load_params_file, save_params, save_params_file, save_params_vec, CheckpointError,
};
pub use time_encoding::TimeEncoding;
