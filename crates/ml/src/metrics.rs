//! Ranking metrics for medication suggestion: Precision@k, Recall@k and
//! NDCG@k exactly as defined in Section V-A2 (Eq. 21–24) of the paper.

use std::cmp::Ordering;

use dssddi_tensor::Matrix;

use crate::MlError;

/// The order [`top_k_indices`] ranks by: higher scores first, and NaN
/// scores *below* every real score (a drug whose prediction is undefined
/// must never displace one with a genuine score).
///
/// It is a total order, so a sort over any score row, NaN or not, cannot
/// panic. Ties compare `Equal`, so a stable sort keeps them in index order.
fn score_order(a: f32, b: f32) -> Ordering {
    let rank = |x: f32| if x.is_nan() { f32::NEG_INFINITY } else { x };
    rank(b).total_cmp(&rank(a))
}

/// Top-k drug indices for one patient, given a score row: higher scores
/// first, NaN scores below every real score, and ties in index order.
/// Every drug ranking sorts here: the evaluation metrics below and the
/// decision service's suggestions.
///
/// `k` larger than the row is truncated to the row length.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| score_order(scores[a], scores[b]));
    idx.truncate(k);
    idx
}

/// Aggregate Precision@k over all patients (Eq. 21): the total number of
/// suggested-and-taken drugs divided by the total number of suggestions.
///
/// Edge cases are defined, not NaN: `k = 0`, mismatched shapes and an empty
/// score matrix return an [`MlError`]; `k` larger than the number of drugs
/// counts only the `n_drugs` suggestions that can actually be made; a
/// patient with an all-zero label row simply contributes no hits, and a
/// batch with no relevant labels at all scores 0.0.
pub fn precision_at_k(scores: &Matrix, labels: &Matrix, k: usize) -> Result<f64, MlError> {
    validate(scores, labels, k)?;
    let mut hit = 0usize;
    let mut suggested = 0usize;
    for p in 0..scores.rows() {
        let top = top_k_indices(scores.row(p), k);
        suggested += top.len();
        hit += top.iter().filter(|&&d| labels.get(p, d) > 0.5).count();
    }
    Ok(hit as f64 / suggested.max(1) as f64)
}

/// Aggregate Recall@k over all patients (Eq. 22): the total number of
/// suggested-and-taken drugs divided by the total number of drugs taken.
///
/// Same defined edge cases as [`precision_at_k`]; when no patient takes any
/// drug the denominator would be zero and the recall is defined as 0.0.
pub fn recall_at_k(scores: &Matrix, labels: &Matrix, k: usize) -> Result<f64, MlError> {
    validate(scores, labels, k)?;
    let mut hit = 0usize;
    let mut relevant = 0usize;
    for p in 0..scores.rows() {
        let top = top_k_indices(scores.row(p), k);
        hit += top.iter().filter(|&&d| labels.get(p, d) > 0.5).count();
        relevant += labels.row(p).iter().filter(|&&v| v > 0.5).count();
    }
    Ok(hit as f64 / relevant.max(1) as f64)
}

/// Mean NDCG@k over patients (Eq. 23–24) with binary graded relevance.
///
/// Patients with an all-zero label row have no defined ideal ranking and are
/// skipped (the mean runs over patients with at least one relevant drug); a
/// batch where *every* row is all-zero returns 0.0. `k = 0` is an
/// [`MlError`]; `k` beyond the number of drugs uses the full ranking.
pub fn ndcg_at_k(scores: &Matrix, labels: &Matrix, k: usize) -> Result<f64, MlError> {
    validate(scores, labels, k)?;
    let mut total = 0.0f64;
    let mut counted = 0usize;
    for p in 0..scores.rows() {
        let relevant = labels.row(p).iter().filter(|&&v| v > 0.5).count();
        if relevant == 0 {
            continue;
        }
        counted += 1;
        let top = top_k_indices(scores.row(p), k);
        let mut dcg = 0.0f64;
        for (pos, &d) in top.iter().enumerate() {
            let rel = if labels.get(p, d) > 0.5 { 1.0 } else { 0.0 };
            dcg += (2f64.powf(rel) - 1.0) / ((pos as f64 + 2.0).log2());
        }
        let ideal_hits = relevant.min(k);
        let mut idcg = 0.0f64;
        for pos in 0..ideal_hits {
            idcg += 1.0 / ((pos as f64 + 2.0).log2());
        }
        if idcg > 0.0 {
            total += dcg / idcg;
        }
    }
    Ok(total / counted.max(1) as f64)
}

/// Precision, recall and NDCG at one cutoff, bundled for the experiment tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingMetrics {
    /// Precision@k.
    pub precision: f64,
    /// Recall@k.
    pub recall: f64,
    /// NDCG@k.
    pub ndcg: f64,
}

/// Computes all three ranking metrics at a cutoff.
pub fn ranking_metrics(
    scores: &Matrix,
    labels: &Matrix,
    k: usize,
) -> Result<RankingMetrics, MlError> {
    Ok(RankingMetrics {
        precision: precision_at_k(scores, labels, k)?,
        recall: recall_at_k(scores, labels, k)?,
        ndcg: ndcg_at_k(scores, labels, k)?,
    })
}

/// Shared argument validation: the same shape, a positive `k` and at least
/// one patient. `k = 0` is rejected here (rather than silently scoring 0.0)
/// because it is always a caller bug, never a data condition.
fn validate(scores: &Matrix, labels: &Matrix, k: usize) -> Result<(), MlError> {
    if scores.shape() != labels.shape() {
        return Err(MlError::DimensionMismatch {
            expected: scores.rows(),
            found: labels.rows(),
            what: "scores vs labels shape",
        });
    }
    if k == 0 {
        return Err(MlError::InvalidArgument {
            what: "k must be positive",
        });
    }
    if scores.rows() == 0 {
        return Err(MlError::EmptyInput {
            what: "metrics require at least one patient",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two patients, four drugs. Patient 0 takes drugs {0, 1}; patient 1
    /// takes drug {3}.
    fn toy() -> (Matrix, Matrix) {
        let labels = Matrix::from_vec(2, 4, vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        let scores = Matrix::from_vec(
            2,
            4,
            vec![
                0.9, 0.8, 0.1, 0.2, // perfect ordering for patient 0
                0.9, 0.1, 0.2, 0.8, // drug 3 ranked second for patient 1
            ],
        )
        .unwrap();
        (scores, labels)
    }

    #[test]
    fn perfect_and_partial_rankings() {
        let (scores, labels) = toy();
        // k=2: patient 0 hits 2/2, patient 1 hits 1/2 => precision 3/4.
        assert!((precision_at_k(&scores, &labels, 2).unwrap() - 0.75).abs() < 1e-9);
        // Recall: hits 3 of 3 relevant drugs.
        assert!((recall_at_k(&scores, &labels, 2).unwrap() - 1.0).abs() < 1e-9);
        let ndcg = ndcg_at_k(&scores, &labels, 2).unwrap();
        assert!(ndcg > 0.8 && ndcg <= 1.0);
    }

    #[test]
    fn perfect_scores_reach_one() {
        let labels = Matrix::from_vec(1, 3, vec![0.0, 1.0, 0.0]).unwrap();
        let scores = Matrix::from_vec(1, 3, vec![0.0, 1.0, 0.0]).unwrap();
        assert!((ndcg_at_k(&scores, &labels, 1).unwrap() - 1.0).abs() < 1e-9);
        assert!((precision_at_k(&scores, &labels, 1).unwrap() - 1.0).abs() < 1e-9);
        assert!((recall_at_k(&scores, &labels, 1).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn worst_case_scores_are_zero() {
        let labels = Matrix::from_vec(1, 4, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let scores = Matrix::from_vec(1, 4, vec![0.0, 0.9, 0.8, 0.7]).unwrap();
        assert_eq!(precision_at_k(&scores, &labels, 2).unwrap(), 0.0);
        assert_eq!(recall_at_k(&scores, &labels, 2).unwrap(), 0.0);
        assert_eq!(ndcg_at_k(&scores, &labels, 2).unwrap(), 0.0);
    }

    #[test]
    fn metrics_are_bounded() {
        let (scores, labels) = toy();
        for k in 1..=4 {
            let m = ranking_metrics(&scores, &labels, k).unwrap();
            assert!((0.0..=1.0).contains(&m.precision));
            assert!((0.0..=1.0).contains(&m.recall));
            assert!((0.0..=1.0).contains(&m.ndcg));
        }
    }

    #[test]
    fn recall_is_monotone_in_k() {
        let (scores, labels) = toy();
        let mut prev = 0.0;
        for k in 1..=4 {
            let r = recall_at_k(&scores, &labels, k).unwrap();
            assert!(r + 1e-12 >= prev);
            prev = r;
        }
    }

    #[test]
    fn patients_without_labels_are_skipped_by_ndcg() {
        let labels = Matrix::from_vec(2, 3, vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0]).unwrap();
        let scores = Matrix::from_vec(2, 3, vec![0.5, 0.4, 0.3, 0.9, 0.1, 0.0]).unwrap();
        assert!((ndcg_at_k(&scores, &labels, 1).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_arguments_error() {
        let (scores, labels) = toy();
        assert!(precision_at_k(&scores, &labels, 0).is_err());
        assert!(precision_at_k(&scores, &Matrix::zeros(2, 3), 1).is_err());
        assert!(ndcg_at_k(&Matrix::zeros(0, 4), &Matrix::zeros(0, 4), 1).is_err());
    }

    #[test]
    fn top_k_handles_k_larger_than_items() {
        let top = top_k_indices(&[0.1, 0.5], 10);
        assert_eq!(top, vec![1, 0]);
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn nan_scores_rank_below_every_real_score() {
        let top = top_k_indices(&[f32::NAN, 0.1, f32::NAN, 0.9, -5.0], 5);
        assert_eq!(&top[..3], &[3, 1, 4], "real scores must come first");
        // With k = 2 the NaN entries never make the cut.
        assert_eq!(
            top_k_indices(&[f32::NAN, 0.1, f32::NAN, 0.9, -5.0], 2),
            [3, 1]
        );
    }

    #[test]
    fn k_beyond_the_formulary_is_well_defined() {
        let (scores, labels) = toy();
        // k = 100 >> 4 drugs: every drug is suggested, so precision is the
        // label density over the 8 actually-possible suggestions and recall
        // and NDCG reach 1.0. Nothing divides by k itself.
        let p = precision_at_k(&scores, &labels, 100).unwrap();
        assert!((p - 3.0 / 8.0).abs() < 1e-12);
        assert!((recall_at_k(&scores, &labels, 100).unwrap() - 1.0).abs() < 1e-12);
        let n = ndcg_at_k(&scores, &labels, 100).unwrap();
        assert!(n.is_finite() && n > 0.0 && n <= 1.0);
    }

    #[test]
    fn all_zero_label_rows_yield_zero_not_nan() {
        let labels = Matrix::zeros(3, 4);
        let scores = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 / 12.0);
        for k in 1..=6 {
            let m = ranking_metrics(&scores, &labels, k).unwrap();
            assert_eq!(m.precision, 0.0);
            assert_eq!(m.recall, 0.0);
            assert_eq!(m.ndcg, 0.0);
            assert!(m.precision.is_finite() && m.recall.is_finite() && m.ndcg.is_finite());
        }
    }
}
