//! Train / validation / test splitting of patients.
//!
//! The paper splits patients 5:3:2 (Section V-A2); the *observed* patients
//! used to build the bipartite training graph are the training split, and
//! suggestion quality is evaluated on the unobserved validation/test
//! patients.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::DataError;

/// Indices of patients assigned to each split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Observed patients used for training.
    pub train: Vec<usize>,
    /// Patients used for hyperparameter selection.
    pub val: Vec<usize>,
    /// Held-out patients used for the reported metrics.
    pub test: Vec<usize>,
}

impl Split {
    /// Total number of patients covered by the split.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// True when the split covers no patients.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Splits `n` patients into train/val/test partitions with the given ratio
/// (the paper uses `(5, 3, 2)`), shuffling with the provided RNG.
pub fn split_patients(
    n: usize,
    ratio: (usize, usize, usize),
    rng: &mut impl Rng,
) -> Result<Split, DataError> {
    let (a, b, c) = ratio;
    if a + b + c == 0 {
        return Err(DataError::InvalidConfig {
            what: "split ratio must not be all zeros",
        });
    }
    if n == 0 {
        return Err(DataError::InvalidConfig {
            what: "cannot split zero patients",
        });
    }
    let mut train: Vec<usize> = (0..n).collect();
    train.shuffle(rng);
    let total = (a + b + c) as f64;
    let n_train = ((a as f64 / total) * n as f64).round() as usize;
    let n_val = ((b as f64 / total) * n as f64).round() as usize;
    let n_train = n_train.min(n);
    let n_val = n_val.min(n - n_train);
    let test = train.split_off(n_train + n_val);
    let val = train.split_off(n_train);
    Ok(Split { train, val, test })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn split_is_a_partition() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = split_patients(100, (5, 3, 2), &mut rng).unwrap();
        assert_eq!(s.len(), 100);
        let mut all: Vec<usize> = s
            .train
            .iter()
            .chain(&s.val)
            .chain(&s.test)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ratios_are_approximately_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = split_patients(1000, (5, 3, 2), &mut rng).unwrap();
        assert!((s.train.len() as i64 - 500).abs() <= 5);
        assert!((s.val.len() as i64 - 300).abs() <= 5);
        assert!((s.test.len() as i64 - 200).abs() <= 5);
    }

    #[test]
    fn deterministic_for_fixed_seed_and_differs_across_seeds() {
        let a = split_patients(50, (5, 3, 2), &mut StdRng::seed_from_u64(7)).unwrap();
        let b = split_patients(50, (5, 3, 2), &mut StdRng::seed_from_u64(7)).unwrap();
        let c = split_patients(50, (5, 3, 2), &mut StdRng::seed_from_u64(8)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn no_duplicates_within_splits() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = split_patients(37, (5, 3, 2), &mut rng).unwrap();
        let train: BTreeSet<usize> = s.train.iter().copied().collect();
        let val: BTreeSet<usize> = s.val.iter().copied().collect();
        let test: BTreeSet<usize> = s.test.iter().copied().collect();
        assert!(train.is_disjoint(&val));
        assert!(train.is_disjoint(&test));
        assert!(val.is_disjoint(&test));
    }

    #[test]
    fn degenerate_inputs_error() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(split_patients(0, (5, 3, 2), &mut rng).is_err());
        assert!(split_patients(10, (0, 0, 0), &mut rng).is_err());
    }

    #[test]
    fn tiny_populations_are_handled() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = split_patients(3, (5, 3, 2), &mut rng).unwrap();
        assert_eq!(s.len(), 3);
    }
}
