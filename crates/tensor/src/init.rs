//! Weight initialisation schemes.

use rand::Rng;

use crate::Matrix;

/// Glorot/Xavier uniform initialisation: entries drawn from
/// `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    Matrix::rand_uniform(fan_in, fan_out, -a, a, rng)
}

/// Zero initialisation for biases.
pub fn zeros(rows: usize, cols: usize) -> Matrix {
    Matrix::zeros(rows, cols)
}

/// One-hot identity features for `n` nodes (the "ID embedding" inputs used by
/// the DDI module of the paper).
pub fn one_hot_ids(n: usize) -> Matrix {
    Matrix::identity(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_uniform_is_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(64, 32, &mut rng);
        let bound = (6.0f32 / 96.0).sqrt();
        assert!(w.max() <= bound && w.min() >= -bound);
        assert_eq!(w.shape(), (64, 32));
    }

    #[test]
    fn one_hot_ids_is_identity() {
        let ids = one_hot_ids(4);
        assert_eq!(ids.shape(), (4, 4));
        assert_eq!(ids.get(2, 2), 1.0);
        assert_eq!(ids.get(2, 3), 0.0);
        assert_eq!(ids.sum(), 4.0);
    }
}
