//! The request generator: a pure function of `(shape, seed, phase, k)`.
//! The system under test receives only what this module produces.

use crate::workload::{Shape, DIM, NODES, WARMUP_BATCH};
use apan_core::propagator::Interaction;
use apan_serve::proto;
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which part of a run a request belongs to. Each phase has its own
/// request numbering and a disjoint event-time range, so no phase can
/// replay another's inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Verify,
    Open,
    Ladder,
    Saturation,
    Baseline,
}

impl Phase {
    fn index(self) -> u64 {
        match self {
            Phase::Warmup => 0,
            Phase::Verify => 1,
            Phase::Open => 2,
            Phase::Ladder => 3,
            Phase::Saturation => 4,
            Phase::Baseline => 5,
        }
    }
}

/// Event-time distance between phases: far more than any phase emits.
const PHASE_SPAN: f64 = 1e8;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

pub struct Generator {
    shape: Shape,
    seed: u64,
    /// Cumulative Zipf weights over ranks `0..n` (empty for uniform).
    cdf: Vec<f64>,
}

impl Generator {
    pub fn new(shape: Shape, seed: u64) -> Self {
        let cdf = match shape.zipf {
            None => Vec::new(),
            Some((s, n)) => {
                let mut acc = 0.0;
                (1..=n)
                    .map(|r| {
                        acc += f64::from(r).powf(-s);
                        acc
                    })
                    .collect()
            }
        };
        Self { shape, seed, cdf }
    }

    fn draw_node(&self, rng: &mut StdRng) -> u32 {
        if self.cdf.is_empty() {
            return rng.gen_range(0..NODES);
        }
        let total = *self.cdf.last().expect("non-empty working set");
        let x = rng.gen::<f64>() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1) as u64;
        // a fixed bijection on 0..NODES (7919 is prime and does not
        // divide NODES) spreads the hot ranks across mailbox shards
        ((rank * 7919 + 13) % u64::from(NODES)) as u32
    }

    /// Interactions per request in `phase`.
    pub fn per_request(&self, phase: Phase) -> usize {
        if phase == Phase::Warmup {
            WARMUP_BATCH
        } else {
            self.shape.per_request
        }
    }

    /// Request `k` of `phase`: interactions plus one feature row each.
    pub fn request(&self, phase: Phase, k: usize) -> (Vec<Interaction>, Tensor) {
        let n = self.per_request(phase);
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ mix(phase.index() << 56 ^ k as u64)));
        let base = (phase.index() + 1) as f64 * PHASE_SPAN;
        let interactions = (0..n)
            .map(|j| {
                let src = self.draw_node(&mut rng);
                let mut dst = self.draw_node(&mut rng);
                if dst == src {
                    dst = (src + 1) % NODES;
                }
                let ordinal = k * n + j;
                let time = match self.shape.late {
                    None => -1.0, // unset: the daemon assigns arrival order
                    Some(late) => {
                        let on_time = base + (ordinal + 1) as f64;
                        let roll = rng.gen_range(0..100u64);
                        let back = rng.gen_range(1.0..late.lateness);
                        if roll < late.late_pct {
                            on_time - back
                        } else if roll < late.late_pct + late.drop_pct {
                            on_time - late.lateness - back
                        } else {
                            on_time
                        }
                    }
                };
                Interaction {
                    src,
                    dst,
                    time,
                    eid: ordinal as u32,
                }
            })
            .collect();
        let feats = (0..n * DIM).map(|_| rng.gen::<f32>() - 0.5).collect();
        (interactions, Tensor::from_vec(n, DIM, feats))
    }

    /// Request `k` of `phase` as an `INFER` payload; traced runs tag it
    /// with a trace id unique within the run.
    pub fn payload(&self, phase: Phase, k: usize, traced: bool) -> Vec<u8> {
        let (interactions, feats) = self.request(phase, k);
        let tag = traced.then_some((phase.index() + 1) << 40 | k as u64);
        proto::encode_infer_traced(&interactions, &feats, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, WORKLOADS};

    #[test]
    fn generator_is_a_pure_function_of_shape_seed_phase_and_index() {
        for w in &WORKLOADS {
            let a = Generator::new(w.shape, 7);
            let b = Generator::new(w.shape, 7);
            for k in [0, 1, 99] {
                assert_eq!(
                    a.payload(Phase::Open, k, false),
                    b.payload(Phase::Open, k, false)
                );
            }
            // asking out of order changes nothing
            let late = a.payload(Phase::Open, 5, false);
            let _ = a.payload(Phase::Open, 2, false);
            assert_eq!(late, a.payload(Phase::Open, 5, false));
            let other = Generator::new(w.shape, 8);
            assert_ne!(
                a.payload(Phase::Open, 0, false),
                other.payload(Phase::Open, 0, false)
            );
            assert_ne!(
                a.payload(Phase::Open, 0, false),
                a.payload(Phase::Saturation, 0, false)
            );
        }
    }

    #[test]
    fn cluster_stream_is_byte_identical_to_serve_uniform() {
        let single = Generator::new(find("serve-uniform").unwrap().shape, 3);
        let cluster = Generator::new(find("cluster-3shard").unwrap().shape, 3);
        for phase in [Phase::Warmup, Phase::Verify, Phase::Open, Phase::Saturation] {
            for k in 0..50 {
                assert_eq!(
                    single.payload(phase, k, false),
                    cluster.payload(phase, k, false)
                );
            }
        }
    }

    #[test]
    fn requests_have_the_declared_shape() {
        for w in &WORKLOADS {
            let g = Generator::new(w.shape, 1);
            let (i, f) = g.request(Phase::Open, 4);
            assert_eq!(i.len(), w.shape.per_request);
            assert_eq!(f.shape(), (w.shape.per_request, DIM));
            assert!(i
                .iter()
                .all(|x| x.src < NODES && x.dst < NODES && x.src != x.dst));
            assert!(f.data().iter().all(|v| (-0.5..0.5).contains(v)));
            let (wi, _) = g.request(Phase::Warmup, 0);
            assert_eq!(wi.len(), WARMUP_BATCH);
            if let Some((_, n)) = w.shape.zipf {
                // the working set bounds the distinct endpoints
                let mut seen = std::collections::BTreeSet::new();
                for k in 0..400 {
                    for x in g.request(Phase::Open, k).0 {
                        seen.insert(x.src);
                    }
                }
                assert!(seen.len() <= n as usize);
            }
        }
    }

    #[test]
    fn late_profile_skews_about_the_declared_share() {
        let w = find("tiered-late").unwrap();
        let late = w.shape.late.unwrap();
        let g = Generator::new(w.shape, 11);
        let n = w.shape.per_request;
        let (mut inside, mut beyond, mut total) = (0u32, 0u32, 0u32);
        for k in 0..2000 {
            for (j, x) in g.request(Phase::Open, k).0.iter().enumerate() {
                let on_time = 3.0 * PHASE_SPAN + (k * n + j + 1) as f64;
                let back = on_time - x.time;
                total += 1;
                if back > late.lateness {
                    beyond += 1;
                } else if back > 0.0 {
                    inside += 1;
                }
                assert!(x.time > 0.0, "explicit times stay positive");
            }
        }
        let share = |c: u32| f64::from(c) / f64::from(total);
        assert!((share(inside) - 0.10).abs() < 0.01, "{}", share(inside));
        assert!((share(beyond) - 0.02).abs() < 0.005, "{}", share(beyond));
    }
}
