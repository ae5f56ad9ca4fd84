//! Skip-gram with negative sampling (SGNS), the training objective behind
//! DeepWalk/Node2Vec/CTDNE. Implemented directly (no autodiff): the SGNS
//! gradient is two rank-1 updates per pair, and the classic formulation
//! is both faster and simpler than taping it.

use apan_tensor::ops::stable_sigmoid;
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// SGNS hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct SgnsConfig {
    /// Embedding width.
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Passes over the walk corpus.
    pub epochs: usize,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            window: 3,
            negatives: 5,
            lr: 0.025,
            epochs: 2,
        }
    }
}

/// Trains node embeddings from a walk corpus. Returns the `[N × dim]`
/// input-embedding matrix (the standard choice for downstream tasks).
pub fn train_sgns(
    num_nodes: usize,
    walks: &[Vec<u32>],
    cfg: &SgnsConfig,
    rng: &mut StdRng,
) -> Tensor {
    let d = cfg.dim;
    let mut w_in = Tensor::uniform(num_nodes, d, -0.5 / d as f32, 0.5 / d as f32, rng);
    let mut w_out = Tensor::zeros(num_nodes, d);

    // unigram^(3/4) table for negative sampling
    let mut counts = vec![0f64; num_nodes];
    for walk in walks {
        for &n in walk {
            counts[n as usize] += 1.0;
        }
    }
    let mut cumulative = Vec::with_capacity(num_nodes);
    let mut acc = 0.0;
    for &c in &counts {
        acc += c.powf(0.75);
        cumulative.push(acc);
    }
    if acc == 0.0 {
        return w_in;
    }
    let sample_neg = |rng: &mut StdRng| -> usize {
        let x = rng.gen_range(0.0..acc);
        cumulative.partition_point(|&c| c < x).min(num_nodes - 1)
    };

    let mut grad_center = vec![0.0f32; d];
    for _ in 0..cfg.epochs {
        for walk in walks {
            for (i, &center) in walk.iter().enumerate() {
                let lo = i.saturating_sub(cfg.window);
                let hi = (i + cfg.window + 1).min(walk.len());
                #[allow(clippy::needless_range_loop)] // windowed indexing
                for j in lo..hi {
                    if j == i {
                        continue;
                    }
                    let context = walk[j] as usize;
                    grad_center.fill(0.0);
                    // positive pair + negatives
                    for k in 0..=cfg.negatives {
                        let (target, label) = if k == 0 {
                            (context, 1.0f32)
                        } else {
                            (sample_neg(rng), 0.0)
                        };
                        let vc = w_in.row_slice(center as usize);
                        let vo = w_out.row_slice(target);
                        let dot: f32 = vc.iter().zip(vo).map(|(a, b)| a * b).sum();
                        let g = (stable_sigmoid(dot) - label) * cfg.lr;
                        for (gc, &o) in grad_center.iter_mut().zip(vo) {
                            *gc += g * o;
                        }
                        let vc_copy: Vec<f32> = vc.to_vec();
                        for (o, &c) in w_out.row_slice_mut(target).iter_mut().zip(&vc_copy) {
                            *o -= g * c;
                        }
                    }
                    for (c, &g) in w_in
                        .row_slice_mut(center as usize)
                        .iter_mut()
                        .zip(&grad_center)
                    {
                        *c -= g;
                    }
                }
            }
        }
    }
    w_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn co_occurring_nodes_end_up_closer() {
        // two cliques {0,1,2} and {3,4,5}; walks never cross
        let walks: Vec<Vec<u32>> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0, 1, 2, 0, 1, 2, 0, 1]
                } else {
                    vec![3, 4, 5, 3, 4, 5, 3, 4]
                }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SgnsConfig {
            dim: 16,
            window: 2,
            negatives: 4,
            lr: 0.05,
            epochs: 10,
        };
        let z = train_sgns(6, &walks, &cfg, &mut rng);
        let cos = |a: usize, b: usize| -> f32 {
            let (ra, rb) = (z.row_slice(a), z.row_slice(b));
            let dot: f32 = ra.iter().zip(rb).map(|(x, y)| x * y).sum();
            let na: f32 = ra.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = rb.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-9)
        };
        let within = (cos(0, 1) + cos(1, 2) + cos(3, 4) + cos(4, 5)) / 4.0;
        let across = (cos(0, 3) + cos(1, 4) + cos(2, 5)) / 3.0;
        assert!(
            within > across + 0.1,
            "within-clique {within} vs across {across}"
        );
    }

    #[test]
    fn empty_corpus_is_safe() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SgnsConfig::default();
        let z = train_sgns(4, &[], &cfg, &mut rng);
        assert_eq!(z.shape(), (4, cfg.dim));
    }
}
