//! Optimizers. Algorithm 1 says "gradient descent optimization method"; we
//! provide plain SGD and Adam (the default for all trainers in this repo,
//! since the small models converge in far fewer epochs with it).

/// Adam optimizer state for one parameter tensor.
#[derive(Debug, Clone)]
pub struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl AdamState {
    /// Fresh state for a tensor with `len` parameters, with the standard
    /// hyper-parameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(len: usize) -> Self {
        Self { m: vec![0.0; len], v: vec![0.0; len], t: 0, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }

    /// Apply one Adam update: `params -= lr * m̂ / (sqrt(v̂) + ε)`.
    ///
    /// The bias correction `1 − βᵗ` rounds to exactly `1.0` from t ≈ 165
    /// (β₁) and t ≈ 17,300 (β₂) on, where dividing by it changes no bit;
    /// from there the step skips that division.
    pub fn update(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(params.len(), self.m.len(), "AdamState sized for a different tensor");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        match (b1t == 1.0, b2t == 1.0) {
            (true, true) => self.apply(params, grads, lr, |m| m, |v| v),
            (true, false) => self.apply(params, grads, lr, |m| m, |v| v / b2t),
            _ => self.apply(params, grads, lr, |m| m / b1t, |v| v / b2t),
        }
    }

    /// The per-element update, with the bias corrections `mhat` and `vhat`.
    fn apply(
        &mut self,
        params: &mut [f32],
        grads: &[f32],
        lr: f32,
        mhat: impl Fn(f32) -> f32,
        vhat: impl Fn(f32) -> f32,
    ) {
        let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(&mut self.m).zip(&mut self.v) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            *p -= lr * mhat(*m) / (vhat(*v).sqrt() + eps);
        }
    }
}

/// Plain SGD update: `params -= lr * grads`. Used for the sparse embedding
/// rows where Adam state per row would waste memory.
pub fn sgd_update(params: &mut [f32], grads: &[f32], lr: f32) {
    assert_eq!(params.len(), grads.len());
    for (p, &g) in params.iter_mut().zip(grads) {
        *p -= lr * g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = vec![1.0, -1.0];
        sgd_update(&mut p, &[0.5, -0.5], 0.1);
        assert!((p[0] - 0.95).abs() < 1e-6);
        assert!((p[1] + 0.95).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x-3)^2 from x=0.
        let mut x = vec![0.0f32];
        let mut adam = AdamState::new(1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.update(&mut x, &g, 0.05);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction the first step has magnitude ~lr regardless
        // of gradient scale.
        let mut x = vec![0.0f32];
        let mut adam = AdamState::new(1);
        adam.update(&mut x, &[1000.0], 0.01);
        assert!((x[0] + 0.01).abs() < 1e-4, "first step should be ≈ -lr, got {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "different tensor")]
    fn adam_wrong_size_panics() {
        let mut adam = AdamState::new(2);
        let mut p = vec![0.0; 3];
        adam.update(&mut p, &[0.0; 3], 0.1);
    }
}
