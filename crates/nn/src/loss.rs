//! Loss functions. Algorithm 1 trains the segmentation model with MSE
//! between the sigmoid score and the 0/1 same-paragraph label; the reranker
//! uses the same objective; the dual-encoder trainer uses a margin loss
//! built from cosine similarities (defined in `sage-embed`).

/// Mean squared error over all elements.
pub fn mse_loss(pred: &[f32], target: &[f32]) -> f32 {
    assert_eq!(pred.len(), target.len());
    let n = pred.len().max(1) as f32;
    pred.iter().zip(target).map(|(p, t)| (p - t) * (p - t)).sum::<f32>() / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_when_equal() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(mse_loss(&a, &a), 0.0);
    }

    #[test]
    fn mse_known_value() {
        assert!((mse_loss(&[1.0, 0.0], &[0.0, 0.0]) - 0.5).abs() < 1e-6);
    }
}
