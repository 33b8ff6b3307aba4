//! K-means clustering (Hartigan & Wong style Lloyd iterations, k-means++
//! initialisation).
//!
//! The Medical Decision module clusters patients by their features to define
//! the treatment variable: patients in the same cluster as an observed
//! patient inherit its treatment (Section IV-B1, step 2). The number of
//! clusters is set to the number of chronic diseases in the observed data.

use rand::Rng;

use dssddi_tensor::Matrix;

use crate::MlError;

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Matrix,
    assignments: Vec<usize>,
    inertia: f32,
}

impl KMeans {
    /// Reassembles a fitted model from its parts (model persistence).
    ///
    /// Validates that at least one centroid exists and that every assignment
    /// refers to an existing centroid, so a model restored from a corrupt
    /// file cannot panic later in [`KMeans::predict_row`].
    pub fn from_parts(
        centroids: Matrix,
        assignments: Vec<usize>,
        inertia: f32,
    ) -> Result<Self, MlError> {
        if centroids.rows() == 0 {
            return Err(MlError::EmptyInput {
                what: "k-means needs at least one centroid",
            });
        }
        if let Some(&bad) = assignments.iter().find(|&&a| a >= centroids.rows()) {
            return Err(MlError::DimensionMismatch {
                expected: centroids.rows(),
                found: bad,
                what: "cluster assignment out of centroid range",
            });
        }
        Ok(Self {
            centroids,
            assignments,
            inertia,
        })
    }

    /// Cluster centroids (one row per cluster).
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Cluster index of every training row.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Sum of squared distances of samples to their closest centroid.
    pub fn inertia(&self) -> f32 {
        self.inertia
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Assigns a new sample (given as a feature row) to its closest centroid.
    pub fn predict_row(&self, row: &[f32]) -> usize {
        let mut best = 0usize;
        let mut best_dist = f32::INFINITY;
        for c in 0..self.centroids.rows() {
            let d: f32 = self
                .centroids
                .row(c)
                .iter()
                .zip(row.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if d < best_dist {
                best_dist = d;
                best = c;
            }
        }
        best
    }

    /// Assigns every row of `x` to its closest centroid.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        (0..x.rows()).map(|r| self.predict_row(x.row(r))).collect()
    }
}

/// Fits k-means with k-means++ initialisation and Lloyd iterations.
#[expect(
    clippy::indexing_slicing,
    reason = "`i < n`, and every assignment is a centroid index below `k`"
)]
pub fn fit_kmeans(
    x: &Matrix,
    k: usize,
    max_iterations: usize,
    rng: &mut impl Rng,
) -> Result<KMeans, MlError> {
    let n = x.rows();
    if k == 0 {
        return Err(MlError::InvalidArgument {
            what: "k must be positive",
        });
    }
    if n == 0 {
        return Err(MlError::EmptyInput {
            what: "k-means requires at least one sample",
        });
    }
    let k = k.min(n);
    let d = x.cols();

    // k-means++ seeding.
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(x.row(first));
    let mut min_dist = vec![f32::INFINITY; n];
    for c in 1..k {
        for i in 0..n {
            let dist: f32 = x
                .row(i)
                .iter()
                .zip(centroids.row(c - 1).iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            min_dist[i] = min_dist[i].min(dist);
        }
        let total: f32 = min_dist.iter().sum();
        let next = if total <= f32::EPSILON {
            rng.gen_range(0..n)
        } else {
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &dist) in min_dist.iter().enumerate() {
                if pick < dist {
                    chosen = i;
                    break;
                }
                pick -= dist;
            }
            chosen
        };
        centroids.row_mut(c).copy_from_slice(x.row(next));
    }

    // Lloyd iterations.
    let mut assignments = vec![0usize; n];
    let mut inertia = f32::INFINITY;
    for _ in 0..max_iterations.max(1) {
        // Assignment step.
        let mut new_inertia = 0.0f32;
        for i in 0..n {
            let mut best = 0usize;
            let mut best_dist = f32::INFINITY;
            for c in 0..k {
                let dist: f32 = x
                    .row(i)
                    .iter()
                    .zip(centroids.row(c).iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if dist < best_dist {
                    best_dist = dist;
                    best = c;
                }
            }
            assignments[i] = best;
            new_inertia += best_dist;
        }
        // Update step.
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            let c = assignments[i];
            counts[c] += 1;
            for j in 0..d {
                sums.add_at(c, j, x.get(i, j));
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed empty clusters at a random sample.
                let r = rng.gen_range(0..n);
                centroids.row_mut(c).copy_from_slice(x.row(r));
            } else {
                for j in 0..d {
                    centroids.set(c, j, sums.get(c, j) / counts[c] as f32);
                }
            }
        }
        let improvement = inertia - new_inertia;
        inertia = new_inertia;
        if improvement.abs() < 1e-6 {
            break;
        }
    }
    Ok(KMeans {
        centroids,
        assignments,
        inertia,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Three well-separated Gaussian-ish blobs.
    fn blobs(n_per: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 10.0)];
        Matrix::from_fn(n_per * 3, 2, |r, c| {
            let (cx, cy) = centers[r / n_per];
            let base = if c == 0 { cx } else { cy };
            base + rng.gen_range(-1.0..1.0f32)
        })
    }

    #[test]
    fn recovers_separated_clusters() {
        let x = blobs(30, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let km = fit_kmeans(&x, 3, 50, &mut rng).unwrap();
        assert_eq!(km.k(), 3);
        // All points of a blob must share an assignment.
        for blob in 0..3 {
            let first = km.assignments()[blob * 30];
            for i in 0..30 {
                assert_eq!(km.assignments()[blob * 30 + i], first, "blob {blob} split");
            }
        }
        assert!(km.inertia() < 200.0);
    }

    #[test]
    fn predict_matches_training_assignments() {
        let x = blobs(20, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let km = fit_kmeans(&x, 3, 50, &mut rng).unwrap();
        let pred = km.predict(&x);
        assert_eq!(pred, km.assignments());
    }

    #[test]
    fn k_larger_than_samples_is_clamped() {
        let x = Matrix::from_vec(2, 2, vec![0.0, 0.0, 5.0, 5.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let km = fit_kmeans(&x, 10, 10, &mut rng).unwrap();
        assert_eq!(km.k(), 2);
    }

    #[test]
    fn invalid_inputs_error() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(fit_kmeans(&Matrix::zeros(0, 3), 2, 10, &mut rng).is_err());
        assert!(fit_kmeans(&Matrix::ones(3, 3), 0, 10, &mut rng).is_err());
    }

    #[test]
    fn identical_points_converge_without_panic() {
        let x = Matrix::ones(10, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let km = fit_kmeans(&x, 3, 20, &mut rng).unwrap();
        assert!(km.inertia() < 1e-6);
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let x = blobs(10, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let km = fit_kmeans(&x, 3, 30, &mut rng).unwrap();
        let rebuilt = KMeans::from_parts(
            km.centroids().clone(),
            km.assignments().to_vec(),
            km.inertia(),
        )
        .unwrap();
        assert_eq!(rebuilt.predict(&x), km.predict(&x));
        assert_eq!(rebuilt.k(), km.k());

        assert!(KMeans::from_parts(Matrix::zeros(0, 2), vec![], 0.0).is_err());
        assert!(KMeans::from_parts(Matrix::zeros(2, 2), vec![0, 5], 0.0).is_err());
    }

    #[test]
    fn assignment_is_nearest_centroid() {
        // Property: every sample's assigned centroid is at least as close as
        // any other centroid.
        let x = blobs(15, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let km = fit_kmeans(&x, 3, 50, &mut rng).unwrap();
        for i in 0..x.rows() {
            let assigned = km.assignments()[i];
            let d_assigned: f32 = x
                .row(i)
                .iter()
                .zip(km.centroids().row(assigned))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            for c in 0..km.k() {
                let d: f32 = x
                    .row(i)
                    .iter()
                    .zip(km.centroids().row(c))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                assert!(d_assigned <= d + 1e-4);
            }
        }
    }
}
