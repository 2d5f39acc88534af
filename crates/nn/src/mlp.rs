//! A multi-layer perceptron: the scoring head of the segmentation model
//! (paper Fig. 4) and of the cross-feature reranker.

use crate::layer::{Activation, Linear};
use crate::loss::mse_loss;
use crate::matrix::Matrix;

/// A feed-forward network: hidden layers share one activation, the output
/// layer has its own (Sigmoid for score heads).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    /// `grads[i]` is dL/d(input of layer `i`) of the last
    /// [`train_row`](Self::train_row); the last entry is dL/d(output).
    grads: Vec<Vec<f32>>,
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
        Self { layers, grads: Vec::new() }
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
        Some(Self { layers, grads: Vec::new() })
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

    /// Inference-only forward pass; the first layer reads `x` itself.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut layers = self.layers.iter();
        let first = layers.next().map_or_else(|| x.clone(), |layer| layer.infer(x));
        layers.fold(first, |a, layer| layer.infer(&a))
    }

    /// [`infer`](Self::infer) of the one row `x` with no matrix in between:
    /// layer `i` writes its output into `bufs[i]`, one buffer per layer that
    /// the caller keeps from call to call, and the last layer's output is
    /// returned. Each value has the bits `infer` gives that row
    /// ([`Linear::infer_row_into`]).
    pub fn infer_row<'a>(&self, x: &'a [f32], bufs: &'a mut Vec<Vec<f32>>) -> &'a [f32] {
        bufs.resize_with(self.layers.len(), Vec::new);
        let mut input = x;
        for (layer, out) in self.layers.iter().zip(bufs.iter_mut()) {
            layer.infer_row_into(input, out);
            input = out;
        }
        input
    }

    /// One MSE training step on the row `x` with target `y`: a forward
    /// with the bits of [`infer_row`](Self::infer_row), a backward, and one
    /// Adam step with learning rate `lr` on every layer. Returns the loss
    /// *before* the step; the gradient w.r.t. `x` is then
    /// [`input_grad`](Self::input_grad). Needs a one-output network.
    pub fn train_row(&mut self, x: &[f32], y: f32, lr: f32) -> f32 {
        assert_eq!(self.out_dim(), 1, "train_row fits one output");
        let mut input = x;
        for layer in &mut self.layers {
            input = layer.forward_row(input);
        }
        let pred = input[0];
        let loss = mse_loss(&[pred], &[y]);
        let n = self.layers.len();
        self.grads.resize_with(n + 1, Vec::new);
        self.grads[n].clear();
        self.grads[n].push(2.0 * (pred - y));
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let (below, above) = self.grads.split_at_mut(i + 1);
            layer.backward_row(&above[0], &mut below[i], lr);
        }
        loss
    }

    /// dL/d(input) of the last [`train_row`](Self::train_row), from the
    /// weights before its step (used by upstream encoders that train jointly
    /// with the head, as Algorithm 1 line 8 updates both `f_e` and `M`).
    /// Empty before the first step.
    pub fn input_grad(&self) -> &[f32] {
        self.grads.first().map_or(&[], Vec::as_slice)
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
        // The loss a training step returns is the squared error of the
        // prediction `infer` makes before that step, bit for bit.
        let mut mlp = Mlp::new(&[4, 3, 1], Activation::Tanh, Activation::Identity, 9);
        let x = Matrix::xavier(3, 4, 17);
        for r in 0..x.rows() {
            let pred = mlp.infer(&Matrix::from_row(x.row(r))).get(0, 0);
            let loss = mlp.train_row(x.row(r), 0.25, 0.05);
            assert_eq!(loss.to_bits(), ((pred - 0.25) * (pred - 0.25)).to_bits());
        }
    }

    #[test]
    fn learns_xor() {
        // XOR is the classic non-linear sanity check for backprop.
        let rows = [([0., 0.], 0.), ([0., 1.], 1.), ([1., 0.], 1.), ([1., 1.], 0.)];
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Sigmoid, 3);
        let mut loss = f32::INFINITY;
        for _ in 0..2000 {
            loss = rows.iter().map(|(x, y)| mlp.train_row(x, *y, 0.05)).sum::<f32>() / 4.0;
        }
        assert!(loss < 0.02, "XOR loss {loss} too high");
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
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
        // The input gradient must be non-zero for a non-trivial loss, since
        // joint encoder+head training depends on it.
        let mut mlp = Mlp::new(&[3, 4, 1], Activation::Tanh, Activation::Sigmoid, 1);
        assert!(mlp.input_grad().is_empty());
        mlp.train_row(&[0.3, -0.2, 0.9], 1.0, 0.01);
        assert_eq!(mlp.input_grad().len(), 3);
        assert!(mlp.input_grad().iter().any(|g| g.abs() > 0.0));
    }
}
