//! Property-based tests for the evaluation metrics.

use apan_check::{check, Gen};
use apan_metrics::{accuracy, average_precision, roc_auc};

fn scored_labels(g: &mut Gen) -> (Vec<f32>, Vec<bool>) {
    g.vec(2..60, |g| (g.range(0.0f32..1.0), g.bool()))
        .into_iter()
        .unzip()
}

#[test]
fn metrics_are_in_unit_interval() {
    check(128, |g| {
        let (scores, labels) = scored_labels(g);
        let ap = average_precision(&scores, &labels);
        let auc = roc_auc(&scores, &labels);
        let acc = accuracy(&scores, &labels);
        assert!((0.0..=1.0).contains(&ap));
        assert!((0.0..=1.0).contains(&auc));
        assert!((0.0..=1.0).contains(&acc));
    });
}

#[test]
fn auc_invariant_to_monotone_transform() {
    check(128, |g| {
        let (scores, labels) = scored_labels(g);
        let transformed: Vec<f32> = scores.iter().map(|s| s * 7.0 + 2.0).collect();
        let a = roc_auc(&scores, &labels);
        let b = roc_auc(&transformed, &labels);
        assert!((a - b).abs() < 1e-9);
    });
}

#[test]
fn ap_invariant_to_monotone_transform() {
    check(128, |g| {
        let (scores, labels) = scored_labels(g);
        let transformed: Vec<f32> = scores.iter().map(|s| s * 3.0 + 1.0).collect();
        let a = average_precision(&scores, &labels);
        let b = average_precision(&transformed, &labels);
        assert!((a - b).abs() < 1e-9);
    });
}

#[test]
fn auc_flips_under_label_inversion() {
    check(128, |g| {
        let (scores, labels) = scored_labels(g);
        let n_pos = labels.iter().filter(|&&l| l).count();
        if n_pos == 0 || n_pos == labels.len() {
            return; // one class only: about one draw in sixty
        }
        // distinct scores so ties don't interfere with the exact identity
        let distinct: Vec<f32> = scores
            .iter()
            .enumerate()
            .map(|(i, s)| s + i as f32 * 10.0)
            .collect();
        let inverted: Vec<bool> = labels.iter().map(|l| !l).collect();
        let a = roc_auc(&distinct, &labels);
        let b = roc_auc(&distinct, &inverted);
        assert!((a + b - 1.0).abs() < 1e-9);
    });
}

#[test]
fn perfect_separation_yields_one() {
    check(128, |g| {
        let (n_pos, n_neg) = (g.range(1usize..20), g.range(1usize..20));
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_pos {
            scores.push(10.0 + i as f32);
            labels.push(true);
        }
        for i in 0..n_neg {
            scores.push(-10.0 - i as f32);
            labels.push(false);
        }
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
        assert!((average_precision(&scores, &labels) - 1.0).abs() < 1e-12);
    });
}

#[test]
fn ap_at_least_prevalence() {
    check(128, |g| {
        // AP of any ranking is ≥ prevalence/len heuristically only for
        // random rankings on average; but AP is always ≥ p/n when the
        // *worst* item is positive. Test the weaker guaranteed bound:
        // AP ≥ (number of positives) / (n * n) — loose but always true
        // since the last positive contributes ≥ (1/n) * (1/total_pos).
        let (scores, labels) = scored_labels(g);
        let n_pos = labels.iter().filter(|&&l| l).count();
        if n_pos == 0 {
            return; // no positives: about one draw in a hundred
        }
        let ap = average_precision(&scores, &labels);
        assert!(ap >= 1.0 / (labels.len() * labels.len()) as f64);
    });
}
