//! A multi-layer perceptron: the scoring head of the segmentation model
//! (paper Fig. 4) and of the cross-feature reranker.

use crate::layer::{Activation, Linear};
use crate::loss::{mse_loss, mse_loss_grad};
use crate::matrix::Matrix;

/// A feed-forward network: hidden layers share one activation, the output
/// layer has its own (Sigmoid for score heads).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Build an MLP from layer sizes, e.g. `&[64, 32, 1]` is
    /// 64 → 32 (hidden act) → 1 (output act). Needs at least two sizes.
    pub fn new(sizes: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for (i, pair) in sizes.windows(2).enumerate() {
            let act = if i + 2 == sizes.len() { output } else { hidden };
            // Derive per-layer seeds so layers are decorrelated.
            layers.push(Linear::new(pair[0], pair[1], act, seed.wrapping_add(i as u64 * 7919)));
        }
        Self { layers }
    }

    /// The layers, in order (serialization).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Rebuild from persisted layers. `None` when empty or when adjacent
    /// layer dimensions do not chain.
    pub fn from_layers(layers: Vec<Linear>) -> Option<Self> {
        if layers.is_empty() {
            return None;
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return None;
            }
        }
        Some(Self { layers })
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    #[expect(clippy::unwrap_used, reason = "both constructors reject an empty layer list")]
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim()
    }

    /// Training forward pass (caches activations in each layer).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut a = x.clone();
        for layer in &mut self.layers {
            a = layer.forward(&a);
        }
        a
    }

    /// Inference-only forward pass.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut a = x.clone();
        for layer in &self.layers {
            a = layer.infer(&a);
        }
        a
    }

    /// Backpropagate `grad_out` through all layers; returns dL/d(input).
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Apply one Adam step on every layer and clear gradients.
    pub fn step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.step(lr);
        }
    }

    /// One MSE training step on a batch. Returns the loss *before* the step
    /// and the gradient w.r.t. the input batch (used by upstream encoders
    /// that train jointly with the head, as Algorithm 1 line 8 updates both
    /// `f_e` and `M`).
    pub fn train_batch_mse(&mut self, x: &Matrix, y: &Matrix, lr: f32) -> (f32, Matrix) {
        let pred = self.forward(x);
        let loss = mse_loss(&pred, y);
        let grad = mse_loss_grad(&pred, y);
        let input_grad = self.backward(&grad);
        self.step(lr);
        (loss, input_grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let mlp = Mlp::new(&[8, 4, 1], Activation::Relu, Activation::Sigmoid, 0);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 1);
        let y = mlp.infer(&Matrix::zeros(5, 8));
        assert_eq!((y.rows(), y.cols()), (5, 1));
    }

    #[test]
    fn forward_and_infer_agree() {
        let mut mlp = Mlp::new(&[4, 3, 2], Activation::Tanh, Activation::Identity, 9);
        let x = Matrix::xavier(3, 4, 17);
        let a = mlp.forward(&x);
        let b = mlp.infer(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn learns_xor() {
        // XOR is the classic non-linear sanity check for backprop.
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let y = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Sigmoid, 3);
        let mut loss = f32::INFINITY;
        for _ in 0..2000 {
            (loss, _) = mlp.train_batch_mse(&x, &y, 0.05);
        }
        assert!(loss < 0.02, "XOR loss {loss} too high");
        let pred = mlp.infer(&x);
        assert!(pred.get(0, 0) < 0.3);
        assert!(pred.get(1, 0) > 0.7);
        assert!(pred.get(2, 0) > 0.7);
        assert!(pred.get(3, 0) < 0.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Mlp::new(&[4, 4, 1], Activation::Relu, Activation::Sigmoid, 5);
        let b = Mlp::new(&[4, 4, 1], Activation::Relu, Activation::Sigmoid, 5);
        let x = Matrix::xavier(2, 4, 11);
        assert_eq!(a.infer(&x), b.infer(&x));
        let c = Mlp::new(&[4, 4, 1], Activation::Relu, Activation::Sigmoid, 6);
        assert_ne!(a.infer(&x), c.infer(&x));
    }

    #[test]
    fn input_grad_flows() {
        // The returned input gradient must be non-zero for a non-trivial
        // loss, since joint encoder+head training depends on it.
        let mut mlp = Mlp::new(&[3, 4, 1], Activation::Tanh, Activation::Sigmoid, 1);
        let x = Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.9]);
        let y = Matrix::from_vec(1, 1, vec![1.0]);
        let (_, gin) = mlp.train_batch_mse(&x, &y, 0.01);
        assert_eq!((gin.rows(), gin.cols()), (1, 3));
        assert!(gin.data().iter().any(|g| g.abs() > 0.0));
    }
}
