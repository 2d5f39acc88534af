//! Linear layers and activations with manual backpropagation.

use crate::matrix::Matrix;
use crate::optim::AdamState;

/// Elementwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no-op) — used on regression outputs.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid — used on the segmentation score head so outputs
    /// land in `[0, 1]` like Algorithm 1's labels.
    Sigmoid,
}

impl Activation {
    /// Apply the activation to a matrix (consumed, returned).
    pub fn forward(self, mut z: Matrix) -> Matrix {
        match self {
            Activation::Identity => {}
            Activation::Relu => z.map_inplace(|v| v.max(0.0)),
            Activation::Tanh => z.map_inplace(f32::tanh),
            Activation::Sigmoid => z.map_inplace(|v| 1.0 / (1.0 + (-v).exp())),
        }
        z
    }

    /// Derivative expressed in terms of the activation *output* `a`.
    #[inline]
    pub fn derivative_from_output(self, a: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
        }
    }
}

/// A fully connected layer `y = act(x · W + b)` with cached forward state
/// and Adam parameter state.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    adam_w: AdamState,
    adam_b: AdamState,
    /// Cached input of the last forward pass (needed for dW).
    cached_input: Option<Matrix>,
    /// Cached output of the last forward pass (needed for activation grads).
    cached_output: Option<Matrix>,
}

impl Linear {
    /// New layer with Xavier-initialised weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, seed: u64) -> Self {
        Self {
            w: Matrix::xavier(in_dim, out_dim, seed),
            b: vec![0.0; out_dim],
            act,
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            adam_w: AdamState::new(in_dim * out_dim),
            adam_b: AdamState::new(out_dim),
            cached_input: None,
            cached_output: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass, caching input and output for the next backward call.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_broadcast(&self.b);
        let a = self.act.forward(z);
        self.cached_input = Some(x.clone());
        self.cached_output = Some(a.clone());
        a
    }

    /// Inference-only forward pass: no caches are written, `&self` suffices.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_broadcast(&self.b);
        self.act.forward(z)
    }

    /// Backward pass. `grad_out` is dL/d(output). Accumulates dW/db and
    /// returns dL/d(input).
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        #[expect(
            clippy::expect_used,
            reason = "training-only and documented above: calling backward before forward is a caller bug"
        )]
        let x = self.cached_input.as_ref().expect("backward before forward");
        #[expect(
            clippy::expect_used,
            reason = "as above; both caches are written together by forward"
        )]
        let a = self.cached_output.as_ref().expect("backward before forward");
        // dZ = dA * act'(A)
        let mut dz = grad_out.clone();
        for (g, &out) in dz.data_mut().iter_mut().zip(a.data()) {
            *g *= self.act.derivative_from_output(out);
        }
        // dW += Xᵀ·dZ ; db += colsum(dZ) ; dX = dZ·Wᵀ
        let dw = x.transpose_matmul(&dz);
        for (g, &d) in self.grad_w.data_mut().iter_mut().zip(dw.data()) {
            *g += d;
        }
        for (g, d) in self.grad_b.iter_mut().zip(dz.col_sums()) {
            *g += d;
        }
        dz.matmul_transpose(&self.w)
    }

    /// Apply one Adam step with learning rate `lr` and clear gradients.
    pub fn step(&mut self, lr: f32) {
        self.adam_w.update(self.w.data_mut(), self.grad_w.data(), lr);
        self.adam_b.update(&mut self.b, &self.grad_b, lr);
        self.zero_grad();
    }

    /// Clear accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_b.fill(0.0);
    }

    /// Read-only access to weights (tests / serialization).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Read-only access to the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Rebuild a layer from persisted parts (fresh optimizer state, empty
    /// caches). `None` when the bias length does not match the weights.
    pub fn from_parts(w: Matrix, b: Vec<f32>, act: Activation) -> Option<Self> {
        if b.len() != w.cols() {
            return None;
        }
        let (in_dim, out_dim) = (w.rows(), w.cols());
        Some(Self {
            w,
            b,
            act,
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            adam_w: AdamState::new(in_dim * out_dim),
            adam_b: AdamState::new(out_dim),
            cached_input: None,
            cached_output: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut l = Linear::new(3, 2, Activation::Identity, 0);
        let x = Matrix::zeros(4, 3);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
    }

    #[test]
    fn relu_clamps() {
        let z = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let a = Activation::Relu.forward(z);
        assert_eq!(a.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_range() {
        let z = Matrix::from_vec(1, 3, vec![-10.0, 0.0, 10.0]);
        let a = Activation::Sigmoid.forward(z);
        assert!(a.data().iter().all(|v| (0.0..=1.0).contains(v)));
        assert!((a.get(0, 1) - 0.5).abs() < 1e-6);
    }

    /// Numerical gradient check: perturb each weight, compare the analytic
    /// gradient against the finite-difference estimate of a scalar loss.
    #[test]
    fn gradient_check_linear() {
        for act in [Activation::Identity, Activation::Tanh, Activation::Sigmoid] {
            let mut layer = Linear::new(3, 2, act, 42);
            let x = Matrix::from_vec(2, 3, vec![0.5, -0.3, 0.8, -0.1, 0.9, 0.2]);
            // Loss = sum of outputs; dL/dY = ones.
            let y = layer.forward(&x);
            let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
            let dx = layer.backward(&ones);

            let eps = 1e-3;
            // Check a few weight positions.
            for (r, c) in [(0usize, 0usize), (1, 1), (2, 0)] {
                let analytic = layer.grad_w.get(r, c);
                let orig = layer.w.get(r, c);
                layer.w.set(r, c, orig + eps);
                let lp: f32 = layer.infer(&x).data().iter().sum();
                layer.w.set(r, c, orig - eps);
                let lm: f32 = layer.infer(&x).data().iter().sum();
                layer.w.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{act:?} dW[{r},{c}]: analytic {analytic} vs numeric {numeric}"
                );
            }
            // Check an input-gradient position numerically too.
            let mut xp = x.clone();
            xp.set(0, 0, x.get(0, 0) + eps);
            let lp: f32 = layer.infer(&xp).data().iter().sum();
            xp.set(0, 0, x.get(0, 0) - eps);
            let lm: f32 = layer.infer(&xp).data().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.get(0, 0) - numeric).abs() < 1e-2,
                "{act:?} dX[0,0]: analytic {} vs numeric {numeric}",
                dx.get(0, 0)
            );
        }
    }

    #[test]
    fn step_reduces_simple_loss() {
        // Fit y = 0 from a fixed input: loss should shrink.
        let mut layer = Linear::new(2, 1, Activation::Identity, 1);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..80 {
            let y = layer.forward(&x);
            let loss = y.get(0, 0) * y.get(0, 0);
            let grad = Matrix::from_vec(1, 1, vec![2.0 * y.get(0, 0)]);
            layer.backward(&grad);
            layer.step(0.05);
            if it == 0 {
                first = loss;
            }
            last = loss;
        }
        // Adam may oscillate locally; require a big overall reduction.
        assert!(last < first * 0.05 || last < 1e-3, "final loss {last} vs initial {first}");
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut l = Linear::new(2, 2, Activation::Relu, 0);
        let g = Matrix::zeros(1, 2);
        let _ = l.backward(&g);
    }
}
