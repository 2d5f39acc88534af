//! `Mlp::train_row` and `AdamState::update` against the bodies they
//! replaced, kept here verbatim as the oracles: the batched training step
//! (`Linear::{forward, backward, step, zero_grad}` over `Matrix`, with
//! `transpose_matmul`, `matmul_transpose`, `col_sums` and `mse_loss_grad`)
//! and Adam dividing by its bias corrections on every step. Weights, biases
//! and input gradients are compared by bit pattern after every step, over
//! rows with exact zeros and past both step counts where `1 − βᵗ` rounds to
//! 1.0 (t ≈ 165 for β₁, t ≈ 17,300 for β₂).

#![allow(clippy::expect_used, reason = "the replaced backward is kept verbatim, its expects too")]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_nn::layer::Activation;
use sage_nn::matrix::Matrix;
use sage_nn::{AdamState, Mlp};

/// The replaced Adam state, verbatim.
#[derive(Debug, Clone)]
struct OldAdam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl OldAdam {
    fn new(len: usize) -> Self {
        Self { m: vec![0.0; len], v: vec![0.0; len], t: 0, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }

    fn update(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(params.len(), self.m.len(), "AdamState sized for a different tensor");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// `selfᵀ · other`, verbatim.
fn transpose_matmul(a: &Matrix, other: &Matrix) -> Matrix {
    assert_eq!(a.rows(), other.rows(), "transpose_matmul dim mismatch");
    let (m, k, n) = (a.rows(), a.cols(), other.cols());
    let mut out = Matrix::zeros(k, n);
    for i in 0..m {
        let xrow = &a.data()[i * k..(i + 1) * k];
        let yrow = &other.data()[i * n..(i + 1) * n];
        for (p, &x) in xrow.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let out_row = &mut out.data_mut()[p * n..(p + 1) * n];
            for (o, &y) in out_row.iter_mut().zip(yrow) {
                *o += x * y;
            }
        }
    }
    out
}

/// `self · otherᵀ`, verbatim.
fn matmul_transpose(a: &Matrix, other: &Matrix) -> Matrix {
    assert_eq!(a.cols(), other.cols(), "matmul_transpose dim mismatch");
    let (m, k, n) = (a.rows(), a.cols(), other.rows());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = &a.data()[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &other.data()[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&a, &b) in arow.iter().zip(brow) {
                acc += a * b;
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

/// Column-wise sums, verbatim.
fn col_sums(a: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0; a.cols()];
    for r in 0..a.rows() {
        for (o, &v) in out.iter_mut().zip(a.row(r)) {
            *o += v;
        }
    }
    out
}

/// Mean squared error over all elements, verbatim.
fn mse_loss(pred: &Matrix, target: &Matrix) -> f32 {
    assert_eq!(pred.rows(), target.rows());
    assert_eq!(pred.cols(), target.cols());
    let n = pred.data().len().max(1) as f32;
    pred.data().iter().zip(target.data()).map(|(p, t)| (p - t) * (p - t)).sum::<f32>() / n
}

/// Gradient of [`mse_loss`] w.r.t. `pred`, verbatim.
fn mse_loss_grad(pred: &Matrix, target: &Matrix) -> Matrix {
    assert_eq!(pred.rows(), target.rows());
    assert_eq!(pred.cols(), target.cols());
    let n = pred.data().len().max(1) as f32;
    let data = pred
        .data()
        .iter()
        .zip(target.data())
        .map(|(p, t)| 2.0 * (p - t) / n)
        .collect();
    Matrix::from_vec(pred.rows(), pred.cols(), data)
}

/// The replaced layer: batched forward/backward with `Option<Matrix>`
/// caches, gradients accumulated into zeroed buffers, then a step.
struct OldLinear {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    adam_w: OldAdam,
    adam_b: OldAdam,
    cached_input: Option<Matrix>,
    cached_output: Option<Matrix>,
}

impl OldLinear {
    fn from_parts(w: Matrix, b: Vec<f32>, act: Activation) -> Self {
        let (in_dim, out_dim) = (w.rows(), w.cols());
        Self {
            w,
            b,
            act,
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            adam_w: OldAdam::new(in_dim * out_dim),
            adam_b: OldAdam::new(out_dim),
            cached_input: None,
            cached_output: None,
        }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_broadcast(&self.b);
        let a = self.act.forward(z);
        self.cached_input = Some(x.clone());
        self.cached_output = Some(a.clone());
        a
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self.cached_input.as_ref().expect("backward before forward");
        let a = self.cached_output.as_ref().expect("backward before forward");
        // dZ = dA * act'(A)
        let mut dz = grad_out.clone();
        for (g, &out) in dz.data_mut().iter_mut().zip(a.data()) {
            *g *= self.act.derivative_from_output(out);
        }
        // dW += Xᵀ·dZ ; db += colsum(dZ) ; dX = dZ·Wᵀ
        let dw = transpose_matmul(x, &dz);
        for (g, &d) in self.grad_w.data_mut().iter_mut().zip(dw.data()) {
            *g += d;
        }
        for (g, d) in self.grad_b.iter_mut().zip(col_sums(&dz)) {
            *g += d;
        }
        matmul_transpose(&dz, &self.w)
    }

    fn step(&mut self, lr: f32) {
        self.adam_w.update(self.w.data_mut(), self.grad_w.data(), lr);
        self.adam_b.update(&mut self.b, &self.grad_b, lr);
        self.zero_grad();
    }

    fn zero_grad(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_b.fill(0.0);
    }
}

/// The replaced MLP training step.
struct OldMlp {
    layers: Vec<OldLinear>,
}

impl OldMlp {
    /// The same network as `mlp`, with fresh optimizer state on both sides.
    fn of(mlp: &Mlp) -> Self {
        let layers = mlp
            .layers()
            .iter()
            .map(|l| OldLinear::from_parts(l.weights().clone(), l.bias().to_vec(), l.activation()))
            .collect();
        Self { layers }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut layers = self.layers.iter_mut();
        let first = layers.next().map_or_else(|| x.clone(), |layer| layer.forward(x));
        layers.fold(first, |a, layer| layer.forward(&a))
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.step(lr);
        }
    }

    fn train_batch_mse(&mut self, x: &Matrix, y: &Matrix, lr: f32) -> (f32, Matrix) {
        let pred = self.forward(x);
        let loss = mse_loss(&pred, y);
        let grad = mse_loss_grad(&pred, y);
        let input_grad = self.backward(&grad);
        self.step(lr);
        (loss, input_grad)
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A row of `n` values in ±1, about a quarter of them exactly `0.0` or
/// `-0.0`.
fn row(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.random_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.random_range(-1.0f32..1.0),
        })
        .collect()
}

/// Train `mlp` and the replaced step side by side for `steps` rows and
/// require the same loss, input gradient, weights and biases, bit for bit,
/// after every step.
fn assert_row_step_matches(mut mlp: Mlp, steps: usize, seed: u64) {
    let mut old = OldMlp::of(&mlp);
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..steps {
        let x = row(&mut rng, mlp.in_dim());
        let y = match rng.random_range(0..4u32) {
            0 => rng.random_range(0.0f32..1.0),
            k => (k % 2) as f32,
        };
        let lr = 0.05 * 0.75f32.powi((step / 2_000) as i32);
        let loss = mlp.train_row(&x, y, lr);
        let (old_loss, old_grad) =
            old.train_batch_mse(&Matrix::from_row(&x), &Matrix::from_vec(1, 1, vec![y]), lr);
        assert_eq!(loss.to_bits(), old_loss.to_bits(), "loss at step {step}");
        assert_eq!(bits(mlp.input_grad()), bits(old_grad.data()), "input gradient at step {step}");
        for (i, (new, old)) in mlp.layers().iter().zip(&old.layers).enumerate() {
            assert_eq!(bits(new.weights().data()), bits(old.w.data()), "layer {i} weights at step {step}");
            assert_eq!(bits(new.bias()), bits(&old.b), "layer {i} bias at step {step}");
        }
    }
}

/// The segmentation head's shape (96 → 24 → 1, Tanh then Sigmoid), past
/// the step where `1 − β₁ᵗ` rounds to 1.0.
#[test]
fn row_step_matches_the_batched_step_on_the_segmentation_head() {
    assert_row_step_matches(Mlp::new(&[96, 24, 1], Activation::Tanh, Activation::Sigmoid, 0x5E61 ^ 0x11), 400, 1);
}

/// The reranker's shape (7 → 12 → 1), past both steps where a bias
/// correction rounds to 1.0.
#[test]
fn row_step_matches_the_batched_step_past_both_bias_corrections() {
    assert_row_step_matches(Mlp::new(&[7, 12, 1], Activation::Tanh, Activation::Sigmoid, 0x5C0), 18_000, 2);
}

/// A deeper Relu net with an Identity output: hidden units that are
/// exactly zero feed the next layer zeros.
#[test]
fn row_step_matches_the_batched_step_on_a_relu_identity_net() {
    assert_row_step_matches(Mlp::new(&[6, 8, 5, 1], Activation::Relu, Activation::Identity, 7), 18_000, 3);
}

/// Adam alone, with zero, negative-zero and ordinary gradients, through
/// both points where a bias correction becomes exactly 1.0.
#[test]
fn adam_matches_the_dividing_update_through_twenty_thousand_steps() {
    let n = 9;
    let mut new = AdamState::new(n);
    let mut old = OldAdam::new(n);
    let mut rng = StdRng::seed_from_u64(4);
    let mut params = row(&mut rng, n);
    let mut old_params = params.clone();
    for step in 0..20_000 {
        let grads = row(&mut rng, n);
        new.update(&mut params, &grads, 0.01);
        old.update(&mut old_params, &grads, 0.01);
        assert_eq!(bits(&params), bits(&old_params), "params at step {step}");
    }
}
