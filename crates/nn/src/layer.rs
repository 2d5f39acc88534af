//! Linear layers and activations, with manual backpropagation of one row.

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
        if self != Activation::Identity {
            z.map_inplace(|v| self.apply(v));
        }
        z
    }

    /// The activation of one value.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::Identity => v,
            Activation::Relu => v.max(0.0),
            Activation::Tanh => v.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        }
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

/// A fully connected layer `y = act(x · W + b)` with Adam parameter state
/// and the row caches of its last training step.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
    /// dL/dW of the last step: Adam's input, rewritten whole by each step.
    grad_w: Vec<f32>,
    /// dL/db of the last step.
    grad_b: Vec<f32>,
    adam_w: AdamState,
    adam_b: AdamState,
    /// Input of the last training forward (needed for dW).
    input: Vec<f32>,
    /// Output of the last training forward (needed for activation grads).
    output: Vec<f32>,
    /// dL/d(pre-activation) of the last backward.
    dz: Vec<f32>,
}

impl Linear {
    /// New layer with Xavier-initialised weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, seed: u64) -> Self {
        Self::with_fresh_state(Matrix::xavier(in_dim, out_dim, seed), vec![0.0; out_dim], act)
    }

    /// The layer `w`, `b`, `act` with fresh optimizer state and empty caches.
    fn with_fresh_state(w: Matrix, b: Vec<f32>, act: Activation) -> Self {
        let (in_dim, out_dim) = (w.rows(), w.cols());
        Self {
            w,
            b,
            act,
            grad_w: vec![0.0; in_dim * out_dim],
            grad_b: vec![0.0; out_dim],
            adam_w: AdamState::new(in_dim * out_dim),
            adam_b: AdamState::new(out_dim),
            input: Vec::new(),
            output: Vec::new(),
            dz: Vec::new(),
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

    /// Inference-only forward pass: no caches are written, `&self` suffices.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_broadcast(&self.b);
        self.act.forward(z)
    }

    /// [`infer`](Self::infer) of the one row `x`, written into `out`
    /// (cleared, then `out_dim` long) instead of a fresh matrix. Each output
    /// sums `x[p] · w[p][j]` in `matmul`'s order — `p` ascending, zero
    /// inputs skipped — then adds the bias and applies the activation, so
    /// it has the bits `infer` gives that row.
    pub fn infer_row_into(&self, x: &[f32], out: &mut Vec<f32>) {
        row_forward(&self.w, &self.b, self.act, x, out);
    }

    /// Training forward of the one row `x`:
    /// [`infer_row_into`](Self::infer_row_into), keeping `x` and the output
    /// for [`backward_row`](Self::backward_row). Returns the output.
    pub(crate) fn forward_row(&mut self, x: &[f32]) -> &[f32] {
        self.input.clear();
        self.input.extend_from_slice(x);
        row_forward(&self.w, &self.b, self.act, x, &mut self.output);
        &self.output
    }

    /// Backward of the last [`forward_row`](Self::forward_row), then one
    /// Adam step with learning rate `lr`. `grad_out` is dL/d(output);
    /// dL/d(input) is written into `dx`, from the weights before the step,
    /// each entry summing `dz[k] · w[p][k]` over `k` ascending.
    ///
    /// Each weight gradient is `0.0 + x[p] · dz[k]`, and `0.0` where
    /// `x[p]` is exactly zero; each bias gradient is `0.0 + dz[k]`: the
    /// bits a zeroed accumulator summing one row leaves.
    ///
    /// Panics when `grad_out` does not match the cached output, as before
    /// any forward.
    pub(crate) fn backward_row(&mut self, grad_out: &[f32], dx: &mut Vec<f32>, lr: f32) {
        assert_eq!(grad_out.len(), self.output.len(), "backward before forward");
        self.dz.clear();
        self.dz.extend(
            grad_out.iter().zip(&self.output).map(|(&g, &a)| g * self.act.derivative_from_output(a)),
        );
        dx.clear();
        dx.extend((0..self.in_dim()).map(|p| {
            self.dz.iter().zip(self.w.row(p)).fold(0.0, |acc, (&d, &w)| acc + d * w)
        }));
        for (g, &x) in self.grad_w.chunks_exact_mut(self.dz.len()).zip(&self.input) {
            if x == 0.0 {
                g.fill(0.0);
            } else {
                for (g, &d) in g.iter_mut().zip(&self.dz) {
                    *g = 0.0 + x * d;
                }
            }
        }
        for (g, &d) in self.grad_b.iter_mut().zip(&self.dz) {
            *g = 0.0 + d;
        }
        self.adam_w.update(self.w.data_mut(), &self.grad_w, lr);
        self.adam_b.update(&mut self.b, &self.grad_b, lr);
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
        (b.len() == w.cols()).then(|| Self::with_fresh_state(w, b, act))
    }
}

/// `act(x · w + b)` of the one row `x` into `out`, in `matmul`'s order
/// ([`Linear::infer_row_into`]).
fn row_forward(w: &Matrix, b: &[f32], act: Activation, x: &[f32], out: &mut Vec<f32>) {
    assert_eq!(x.len(), w.rows(), "row forward dim mismatch");
    out.clear();
    out.resize(w.cols(), 0.0);
    for (p, &a) in x.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        for (o, &w) in out.iter_mut().zip(w.row(p)) {
            *o += a * w;
        }
    }
    for (o, &b) in out.iter_mut().zip(b) {
        *o = act.apply(*o + b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut l = Linear::new(3, 2, Activation::Identity, 0);
        let y = l.infer(&Matrix::zeros(4, 3));
        assert_eq!((y.rows(), y.cols()), (4, 2));
        assert_eq!(l.forward_row(&[0.0; 3]).len(), 2);
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
    /// gradient the row step hands Adam against the finite-difference
    /// estimate of a scalar loss.
    #[test]
    fn gradient_check_linear() {
        for act in [Activation::Identity, Activation::Tanh, Activation::Sigmoid] {
            let mut layer = Linear::new(3, 2, act, 42);
            let mut probe = layer.clone();
            let x = [0.5, -0.3, 0.8];
            let row = |l: &Linear, x: &[f32]| {
                let mut out = Vec::new();
                l.infer_row_into(x, &mut out);
                out.iter().sum::<f32>()
            };
            // Loss = sum of outputs; dL/dY = ones.
            layer.forward_row(&x);
            let mut dx = Vec::new();
            layer.backward_row(&[1.0, 1.0], &mut dx, 0.01);

            let eps = 1e-3;
            // Check a few weight positions, against the weights before the step.
            for (r, c) in [(0usize, 0usize), (1, 1), (2, 0)] {
                let analytic = layer.grad_w[r * 2 + c];
                let orig = probe.w.get(r, c);
                probe.w.set(r, c, orig + eps);
                let lp = row(&probe, &x);
                probe.w.set(r, c, orig - eps);
                let lm = row(&probe, &x);
                probe.w.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{act:?} dW[{r},{c}]: analytic {analytic} vs numeric {numeric}"
                );
            }
            // Check an input-gradient position numerically too.
            let mut xp = x;
            xp[0] = x[0] + eps;
            let lp = row(&probe, &xp);
            xp[0] = x[0] - eps;
            let lm = row(&probe, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx[0] - numeric).abs() < 1e-2,
                "{act:?} dX[0]: analytic {} vs numeric {numeric}",
                dx[0]
            );
        }
    }

    #[test]
    fn step_reduces_simple_loss() {
        // Fit y = 0 from a fixed input: loss should shrink.
        let mut layer = Linear::new(2, 1, Activation::Identity, 1);
        let mut dx = Vec::new();
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..80 {
            let y = layer.forward_row(&[1.0, 1.0])[0];
            let loss = y * y;
            layer.backward_row(&[2.0 * y], &mut dx, 0.05);
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
        l.backward_row(&[0.0; 2], &mut Vec::new(), 0.1);
    }
}
