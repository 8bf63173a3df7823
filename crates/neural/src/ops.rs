//! Policy-head operations: masked softmax, categorical sampling and the
//! closed-form loss gradients the actor-critic trainer needs.
//!
//! The action mask (§4.2) removes IP links whose spectrum is exhausted:
//! "the stochastic policy only samples among valid IP links instead of
//! all IP links". Masked entries get probability exactly 0 and receive
//! zero gradient.

use rand::Rng;

/// Numerically-stable masked softmax into a reused buffer. Masked-out
/// entries come back as 0.
///
/// Panics if no entry is valid (the environment guarantees at least one
/// legal action or terminates the trajectory).
pub fn masked_softmax_into(logits: &[f64], mask: &[bool], probs: &mut Vec<f64>) {
    assert_eq!(logits.len(), mask.len());
    let max = logits
        .iter()
        .zip(mask)
        .filter(|&(_, &m)| m)
        .map(|(&l, _)| l)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max.is_finite(),
        "masked_softmax requires at least one valid action"
    );
    probs.clear();
    probs.extend(
        logits
            .iter()
            .zip(mask)
            .map(|(&l, &m)| if m { (l - max).exp() } else { 0.0 }),
    );
    let z: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= z;
    }
}

/// [`masked_softmax_into`] a fresh vector.
pub fn masked_softmax(logits: &[f64], mask: &[bool]) -> Vec<f64> {
    let mut probs = Vec::new();
    masked_softmax_into(logits, mask, &mut probs);
    probs
}

/// `ln` of the probability a masked softmax gave `action`.
pub fn log_prob(probs: &[f64], action: usize) -> f64 {
    probs[action].max(f64::MIN_POSITIVE).ln()
}

/// Sample an index from a probability vector (must sum to ~1).
pub fn sample_categorical(probs: &[f64], rng: &mut impl Rng) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    // Floating-point shortfall: return the last valid entry.
    probs
        .iter()
        .rposition(|&p| p > 0.0)
        .expect("probability vector must have positive mass")
}

/// Gradient of `coeff · (−ln p(action))` with respect to the logits,
/// written into `grad`: `coeff · (softmax − onehot(action))`, zero on
/// masked entries.
///
/// With `coeff = advantage` this is exactly the per-step policy-gradient
/// term of Algorithm 1's `ComputePLoss`.
pub fn policy_logit_grad(
    probs: &[f64],
    mask: &[bool],
    action: usize,
    coeff: f64,
    grad: &mut [f64],
) {
    debug_assert!(mask[action]);
    assert_eq!(probs.len(), grad.len());
    for (i, ((g, &p), &m)) in grad.iter_mut().zip(probs).zip(mask).enumerate() {
        *g = if !m {
            0.0
        } else if i == action {
            coeff * (p - 1.0)
        } else {
            coeff * p
        };
    }
}

/// Shannon entropy of a probability vector (masked zeros contribute 0).
pub fn entropy(probs: &[f64]) -> f64 {
    -probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one_and_respects_mask() {
        let probs = masked_softmax(&[1.0, 2.0, 3.0], &[true, false, true]);
        assert_eq!(probs[1], 0.0);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs[2] > probs[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = masked_softmax(&[1.0, 2.0], &[true, true]);
        let b = masked_softmax(&[1001.0, 1002.0], &[true, true]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one valid action")]
    fn softmax_rejects_all_masked() {
        masked_softmax(&[1.0, 2.0], &[false, false]);
    }

    #[test]
    fn log_prob_matches_softmax() {
        let logits = [0.3, -1.2, 2.0];
        let mask = [true, true, true];
        let probs = masked_softmax(&logits, &mask);
        for (a, &p) in probs.iter().enumerate() {
            assert!((log_prob(&probs, a) - p.ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_follows_the_distribution() {
        let mut rng = StdRng::seed_from_u64(9);
        let probs = [0.1, 0.0, 0.9];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[sample_categorical(&probs, &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-probability entries never sampled");
        assert!(counts[2] > 4000 && counts[0] > 200, "{counts:?}");
    }

    #[test]
    fn policy_grad_is_softmax_minus_onehot() {
        let logits = [0.0, 0.0, 0.0];
        let mask = [true, true, true];
        let probs = masked_softmax(&logits, &mask);
        let mut g = [0.0; 3];
        policy_logit_grad(&probs, &mask, 1, 2.0, &mut g);
        assert!((g[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((g[1] - 2.0 * (1.0 / 3.0 - 1.0)).abs() < 1e-12);
        assert!((g.iter().sum::<f64>()).abs() < 1e-12, "grad sums to zero");
    }

    #[test]
    fn policy_grad_matches_finite_differences() {
        let logits = vec![0.4, -0.7, 1.3, 0.0];
        let mask = vec![true, true, false, true];
        let action = 0;
        let coeff = 1.7;
        let probs = masked_softmax(&logits, &mask);
        let mut g = vec![0.0; logits.len()];
        policy_logit_grad(&probs, &mask, action, coeff, &mut g);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp[i] += eps;
            let mut lm = logits.clone();
            lm[i] -= eps;
            let f = |l: &[f64]| -coeff * log_prob(&masked_softmax(l, &mask), action);
            let fd = (f(&lp) - f(&lm)) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-6, "logit {i}: {} vs {fd}", g[i]);
        }
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
        let uniform = entropy(&[0.25; 4]);
        assert!((uniform - (4.0f64).ln()).abs() < 1e-12);
    }
}
