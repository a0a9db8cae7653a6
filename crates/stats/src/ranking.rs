//! Ranking-quality metrics from the information-retrieval literature, used
//! in the paper's prescription-relevance evaluation (Table III): Average
//! Precision at K and Normalized Discounted Cumulative Gain at K.

/// Average Precision at cutoff `k` over a ranked list of binary relevance
/// labels (`true` = relevant).
///
/// AP@K = (Σ_{i ≤ K, rel_i} Precision@i) / min(K, R) where R is the total
/// number of relevant items in the ranking's universe (`total_relevant`).
/// Returns 0 when `total_relevant` is 0.
pub fn average_precision_at_k(ranked_relevance: &[bool], k: usize, total_relevant: usize) -> f64 {
    if total_relevant == 0 || k == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum_prec = 0.0;
    for (i, &rel) in ranked_relevance.iter().take(k).enumerate() {
        if rel {
            hits += 1;
            sum_prec += hits as f64 / (i + 1) as f64;
        }
    }
    sum_prec / total_relevant.min(k) as f64
}

/// Discounted Cumulative Gain at `k` over graded relevance gains, with the
/// standard `gain / log2(i + 1)` discount (1-indexed ranks).
pub fn dcg_at_k(gains: &[f64], k: usize) -> f64 {
    gains
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, &g)| g / ((i + 2) as f64).log2())
        .sum()
}

/// Normalized DCG at `k`: DCG of the ranking divided by the DCG of the ideal
/// (descending-gain) ordering of the same `ideal_gains` universe. Returns 0
/// when the ideal DCG is 0 (no relevant items anywhere).
pub fn ndcg_at_k(ranked_gains: &[f64], ideal_gains: &[f64], k: usize) -> f64 {
    let mut ideal = ideal_gains.to_vec();
    ideal.sort_by(|a, b| b.partial_cmp(a).expect("NaN gain"));
    let idcg = dcg_at_k(&ideal, k);
    if idcg == 0.0 {
        return 0.0;
    }
    dcg_at_k(ranked_gains, k) / idcg
}

/// Convenience: NDCG@K for binary relevance where the ideal universe has
/// `total_relevant` relevant items.
pub fn ndcg_at_k_binary(ranked_relevance: &[bool], k: usize, total_relevant: usize) -> f64 {
    let gains: Vec<f64> = ranked_relevance
        .iter()
        .map(|&r| if r { 1.0 } else { 0.0 })
        .collect();
    let ideal: Vec<f64> = (0..total_relevant).map(|_| 1.0).collect();
    ndcg_at_k(&gains, &ideal, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ap_perfect_ranking() {
        let rel = [true, true, true, false, false];
        assert_eq!(average_precision_at_k(&rel, 5, 3), 1.0);
    }

    #[test]
    fn ap_worst_ranking() {
        let rel = [false, false, false, false, false];
        assert_eq!(average_precision_at_k(&rel, 5, 3), 0.0);
    }

    #[test]
    fn ap_interleaved() {
        // Relevant at ranks 1 and 3 of 2 total: (1/1 + 2/3)/2 = 5/6.
        let rel = [true, false, true];
        assert!((average_precision_at_k(&rel, 3, 2) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ap_caps_denominator_at_k() {
        // 20 relevant overall but cutoff 10: denominator is 10.
        let rel = vec![true; 10];
        assert_eq!(average_precision_at_k(&rel, 10, 20), 1.0);
    }

    #[test]
    fn ap_no_relevant_universe() {
        assert_eq!(average_precision_at_k(&[true], 1, 0), 0.0);
    }

    #[test]
    fn dcg_known_value() {
        // gains [3,2,3,0,1,2] → DCG@6 = 3 + 2/log2(3) + 3/2 + 0 + 1/log2(6) + 2/log2(7).
        let gains = [3.0, 2.0, 3.0, 0.0, 1.0, 2.0];
        let expected =
            3.0 + 2.0 / 3.0f64.log2() + 3.0 / 2.0 + 1.0 / 6.0f64.log2() + 2.0 / 7.0f64.log2();
        assert!((dcg_at_k(&gains, 6) - expected).abs() < 1e-12);
    }

    #[test]
    fn ndcg_perfect_is_one() {
        let gains = [3.0, 2.0, 1.0];
        assert!((ndcg_at_k(&gains, &gains, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_penalises_bad_order() {
        let ranked = [1.0, 2.0, 3.0];
        let ideal = [3.0, 2.0, 1.0];
        let n = ndcg_at_k(&ranked, &ideal, 3);
        assert!(n > 0.0 && n < 1.0);
    }

    #[test]
    fn ndcg_binary_matches_general() {
        let rel = [true, false, true];
        let a = ndcg_at_k_binary(&rel, 3, 2);
        let b = ndcg_at_k(&[1.0, 0.0, 1.0], &[1.0, 1.0], 3);
        assert_eq!(a, b);
    }

    #[test]
    fn ndcg_empty_ideal_is_zero() {
        assert_eq!(ndcg_at_k_binary(&[false, false], 2, 0), 0.0);
    }
}
