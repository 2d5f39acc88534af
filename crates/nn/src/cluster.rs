//! Lloyd's k-means with deterministic farthest-point initialisation.
//!
//! Used by the RAPTOR baseline's summary tree. Deterministic:
//! initialisation is farthest-point from vector 0, ties broken by index,
//! so identical inputs cluster identically.

/// Squared Euclidean distance.
#[inline]
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// K-means result: per-vector assignments and the final centroids.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster id of each input vector.
    pub assignments: Vec<usize>,
    /// Cluster centroids (`k x dim`).
    pub centroids: Vec<Vec<f32>>,
}

/// Run Lloyd's algorithm for `iterations` rounds with `k` clusters
/// (clamped to the number of vectors). Empty input yields an empty result.
pub fn kmeans(vectors: &[Vec<f32>], k: usize, iterations: usize) -> KMeans {
    if vectors.is_empty() || k == 0 {
        return KMeans { assignments: Vec::new(), centroids: Vec::new() };
    }
    let k = k.min(vectors.len());
    let dim = vectors[0].len();

    // Farthest-point initialisation from vector 0.
    let mut centroids: Vec<Vec<f32>> = vec![vectors[0].clone()];
    while centroids.len() < k {
        #[expect(
            clippy::expect_used,
            reason = "empty input returned on entry, so the maximum over vectors exists"
        )]
        let (far_idx, _) = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let d = centroids
                    .iter()
                    .map(|c| squared_distance(v, c))
                    .fold(f32::INFINITY, f32::min);
                (i, d)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .expect("nonempty");
        centroids.push(vectors[far_idx].clone());
    }

    let mut assignments = vec![0usize; vectors.len()];
    for _ in 0..iterations {
        // Assignment step.
        for (i, v) in vectors.iter().enumerate() {
            assignments[i] = centroids
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    squared_distance(v, a.1)
                        .total_cmp(&squared_distance(v, b.1))
                        .then_with(|| a.0.cmp(&b.0))
                })
                .map(|(c, _)| c)
                .unwrap_or(0);
        }
        // Update step.
        let mut sums = vec![vec![0.0f32; dim]; k];
        let mut counts = vec![0usize; k];
        for (v, &a) in vectors.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, x) in sums[a].iter_mut().zip(v) {
                *s += x;
            }
        }
        for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if *count > 0 {
                for (cc, s) in c.iter_mut().zip(sum) {
                    *cc = s / *count as f32;
                }
            }
        }
    }
    KMeans { assignments, centroids }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f32>> {
        let mut v = Vec::new();
        for i in 0..10 {
            v.push(vec![i as f32 * 0.01, 0.0]);
            v.push(vec![10.0 + i as f32 * 0.01, 0.0]);
        }
        v
    }

    #[test]
    fn separates_two_blobs() {
        let km = kmeans(&two_blobs(), 2, 10);
        let a0 = km.assignments[0];
        let a1 = km.assignments[1];
        assert_ne!(a0, a1);
        for (i, &a) in km.assignments.iter().enumerate() {
            assert_eq!(a, if i % 2 == 0 { a0 } else { a1 }, "point {i}");
        }
        assert_eq!(km.centroids.len(), 2);
    }

    #[test]
    fn centroids_land_in_blob_means() {
        let km = kmeans(&two_blobs(), 2, 10);
        let mut xs: Vec<f32> = km.centroids.iter().map(|c| c[0]).collect();
        xs.sort_by(f32::total_cmp);
        assert!((xs[0] - 0.045).abs() < 0.1, "{xs:?}");
        assert!((xs[1] - 10.045).abs() < 0.1, "{xs:?}");
    }

    #[test]
    fn k_clamped_to_len() {
        let v = vec![vec![1.0], vec![2.0]];
        let km = kmeans(&v, 10, 5);
        assert_eq!(km.centroids.len(), 2);
    }

    #[test]
    fn empty_input() {
        let km = kmeans(&[], 3, 5);
        assert!(km.assignments.is_empty());
        assert!(km.centroids.is_empty());
    }

    #[test]
    fn deterministic() {
        let a = kmeans(&two_blobs(), 3, 7);
        let b = kmeans(&two_blobs(), 3, 7);
        assert_eq!(a.assignments, b.assignments);
    }
}
