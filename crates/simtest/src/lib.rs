//! # apan-simtest
//!
//! Deterministic simulation and fault-injection harness for the
//! `apan-serve` → `apan-core` serving stack.
//!
//! APAN's headline claim is *real-time serving*: the asynchronous
//! propagation link only pays off if the synchronous inference link
//! stays correct under load, crashes, and hostile I/O. This crate turns
//! that claim into a checkable property:
//!
//! * **Seeded schedules** — [`build_schedule`] expands a seed plus a
//!   [`FaultProfile`] into an explicit list of [`Action`]s (deliver,
//!   drop, duplicate, truncate mid-frame, delay/reorder). The same seed
//!   always expands to the same schedule, so every chaos run replays.
//! * **Chaos transport** — [`chaos::ChaosClient`] speaks the real wire
//!   protocol over a real socket but can tear frames at a scripted byte
//!   offset, vanish frames, or repeat them, while keeping the driver in
//!   lockstep with the daemon (one outstanding request, `FLUSH` after
//!   every delivery) so the interleaving itself carries no wall-clock
//!   nondeterminism.
//! * **Differential oracle** — [`oracle::reference_bits`] replays the
//!   *effective delivered stream* (exactly the requests the daemon
//!   admitted, in arrival order, through the same
//!   [`apan_serve::batcher::admit_times`] watermark semantics) on a
//!   single-threaded [`apan_core::pipeline::ServingPipeline`]. Served
//!   scores must match it **bitwise** — on fault-free schedules and
//!   across crash + warm-restart at any kill point.
//! * **Virtual time** — servers can be started on
//!   [`apan_metrics::Clock::virtual_clock`], where batch deadlines,
//!   snapshot ticks, and latency stamps move only when the scenario
//!   driver advances the clock.
//!
//! The scenarios themselves live in `tests/scenarios.rs`.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod oracle;

use apan_core::propagator::Interaction;
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Feature/embedding width every harness model uses. Small on purpose:
/// the harness exercises schedules, not model capacity.
pub const DIM: usize = 8;

/// Node-id universe for generated workloads — small enough that
/// requests collide on nodes, so mailbox state actually flows between
/// them and a divergence cannot hide in untouched rows.
pub const NODES: u32 = 24;

/// Pure 64-bit mix (splitmix64 finalizer). The workload is a function
/// of `(seed, k)` alone — no RNG object, no ordering hazards.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic request `k` of a workload: two interactions at
/// explicit, strictly increasing times (in original index order) with
/// pseudo-random endpoints and features derived from `(seed, k)`.
pub fn request(seed: u64, k: usize) -> (Vec<Interaction>, Tensor) {
    let h = |j: u64| mix(seed ^ mix(k as u64 ^ (j << 32)));
    let interactions = vec![
        Interaction {
            src: (h(0) % NODES as u64) as u32,
            dst: (h(1) % NODES as u64) as u32,
            time: (2 * k + 1) as f64,
            eid: (2 * k) as u32,
        },
        Interaction {
            src: (h(2) % NODES as u64) as u32,
            dst: (h(3) % NODES as u64) as u32,
            time: (2 * k + 2) as f64,
            eid: (2 * k + 1) as u32,
        },
    ];
    let data: Vec<f32> = (0..2 * DIM)
        .map(|i| (h(4 + i as u64) % 1000) as f32 / 1000.0 - 0.5)
        .collect();
    (interactions, Tensor::from_vec(2, DIM, data))
}

/// Source-stream messiness: a second fault axis, independent of the
/// frame-level [`FaultProfile`], that perturbs **event timestamps** at
/// the source instead of frames on the wire. A skewed request carries
/// times behind where the stream has advanced (a lagging source clock),
/// so a daemon running a bounded-lateness window must reorder-buffer it
/// (inside the window) or drop it (beyond the window) — and a
/// source-duplicated request re-emits the same timestamps behind the
/// watermark. Weights are per-request probabilities out of 100, and the
/// perturbation is a pure function of `(seed, k, profile)`, so the
/// oracle derives the identical messy stream from the seed alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct SourceProfile {
    /// % of requests whose source clock lags: both event times shifted
    /// back by `1..=max_skew` time units.
    pub skew: u32,
    /// % of plain deliveries the source emits twice back to back
    /// (identical timestamps — the second copy always lands behind the
    /// watermark the first one advanced).
    pub dup: u32,
    /// Largest backward shift a skewed request can carry, in event-time
    /// units. Pick it against the daemon's lateness window `L`: shifts
    /// of at most `L` admit late, larger ones cross into drop territory.
    pub max_skew: u32,
}

/// Workload request `k` as a **messy source** emits it: same endpoints,
/// features, and eids as [`request`], but with event times skewed
/// backward when the profile's seeded roll selects this request. Pure
/// in `(seed, k, profile)` — the differential oracle calls exactly this
/// function to rebuild what the daemon was fed.
pub fn messy_request(seed: u64, k: usize, profile: SourceProfile) -> (Vec<Interaction>, Tensor) {
    let (mut interactions, feats) = request(seed, k);
    if profile.skew > 0 && profile.max_skew > 0 {
        let roll = mix(seed ^ mix(0x6d65_7373_7953 ^ ((k as u64) << 7)));
        if roll % 100 < profile.skew as u64 {
            let back = (1 + mix(roll ^ 0xb0) % profile.max_skew as u64) as f64;
            for i in &mut interactions {
                i.time -= back;
            }
        }
    }
    (interactions, feats)
}

/// How many times the source emits plain delivery `k`: 1, or 2 when
/// the profile's `dup` axis selects it. Shared by the schedule runner
/// and [`messy_effective_stream`] so both sides expand identically.
pub(crate) fn source_copies(seed: u64, k: usize, profile: SourceProfile) -> usize {
    if profile.dup > 0 {
        let roll = mix(seed ^ mix(0xd0b1_e5ed ^ ((k as u64) << 9)));
        if roll % 100 < profile.dup as u64 {
            return 2;
        }
    }
    1
}

/// The effective arrival stream of a schedule run under a messy source
/// — [`effective_stream`] with the source-duplication axis expanded.
/// Source dup applies to plain deliveries only: frame-level
/// [`Action::Duplicate`] keeps its own (network) duplication, and a
/// dropped or truncated frame loses the emission regardless of how
/// many times the source produced it.
pub fn messy_effective_stream(
    seed: u64,
    schedule: &[Action],
    profile: SourceProfile,
) -> Vec<usize> {
    let mut eff = Vec::new();
    for a in schedule {
        match *a {
            Action::Deliver(k) => {
                for _ in 0..source_copies(seed, k, profile) {
                    eff.push(k);
                }
            }
            Action::Duplicate(k) => {
                eff.push(k);
                eff.push(k);
            }
            Action::Drop(_) | Action::Truncate(_, _) => {}
        }
    }
    eff
}

/// One step of a chaos schedule, acting on workload request `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send the frame, await scores, `FLUSH`.
    Deliver(usize),
    /// The frame vanishes in the network: never sent.
    Drop(usize),
    /// The network duplicates the frame: delivered twice, back to back.
    Duplicate(usize),
    /// Only the first `cut` bytes of the frame arrive, then the
    /// connection dies mid-frame. The daemon must drop that connection
    /// — and nothing else.
    Truncate(usize, usize),
}

/// Which faults a schedule draws from, with per-request probability
/// weights out of 100. Whatever remains is a plain delivery.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultProfile {
    /// % of requests whose frame is dropped.
    pub drop: u32,
    /// % of requests whose frame is duplicated.
    pub duplicate: u32,
    /// % of requests whose frame is truncated mid-frame.
    pub truncate: u32,
    /// % of requests delayed past 1–3 later requests (reordering).
    pub delay: u32,
}

/// Expands `(seed, total, profile)` into an explicit action schedule.
/// Deterministic: the same inputs always yield the same schedule, which
/// is what makes every scenario replayable from its seed alone.
///
/// Delayed requests are *reordered*: the action is held back and
/// reinserted 1–3 positions later, so the daemon sees their (older)
/// event times behind its watermark and must clamp — exercised
/// identically by the oracle through the shared `admit_times`.
pub fn build_schedule(seed: u64, total: usize, profile: FaultProfile) -> Vec<Action> {
    assert!(
        profile.drop + profile.duplicate + profile.truncate + profile.delay <= 100,
        "fault weights exceed 100%"
    );
    let mut rng = StdRng::seed_from_u64(mix(seed));
    let mut out: Vec<Action> = Vec::with_capacity(total + 4);
    // held-back actions: (remaining deliveries to wait, action)
    let mut held: Vec<(usize, Action)> = Vec::new();
    for k in 0..total {
        // release any held action whose delay has expired
        let mut i = 0;
        while i < held.len() {
            if held[i].0 == 0 {
                out.push(held.remove(i).1);
            } else {
                held[i].0 -= 1;
                i += 1;
            }
        }
        let roll: u32 = rng.gen_range(0..100u32);
        let (d, dd, t) = (profile.drop, profile.duplicate, profile.truncate);
        if roll < d {
            out.push(Action::Drop(k));
        } else if roll < d + dd {
            out.push(Action::Duplicate(k));
        } else if roll < d + dd + t {
            // cut somewhere strictly inside the frame (header is 13
            // bytes; a cut of 0 would be a clean close, not a tear)
            let cut = rng.gen_range(1..60usize);
            out.push(Action::Truncate(k, cut));
        } else if roll < d + dd + t + profile.delay {
            let wait = rng.gen_range(1..4usize);
            held.push((wait, Action::Deliver(k)));
        } else {
            out.push(Action::Deliver(k));
        }
    }
    // flush stragglers in hold order
    out.extend(held.into_iter().map(|(_, a)| a));
    out
}

/// The requests a schedule actually lands on the daemon, in arrival
/// order — the input to the differential oracle. Duplicates appear
/// twice; drops and truncations not at all.
pub fn effective_stream(schedule: &[Action]) -> Vec<usize> {
    let mut eff = Vec::new();
    for a in schedule {
        match *a {
            Action::Deliver(k) => eff.push(k),
            Action::Duplicate(k) => {
                eff.push(k);
                eff.push(k);
            }
            Action::Drop(_) | Action::Truncate(_, _) => {}
        }
    }
    eff
}

/// An append-only log of everything a scenario run did and observed —
/// actions, score bits, snapshot outcomes, crashes, restarts. Two runs
/// of the same seeded scenario must produce byte-identical traces;
/// `tests/scenarios.rs` asserts exactly that.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    lines: Vec<String>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event line.
    pub fn push(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The recorded lines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The whole trace as one newline-joined string (for diffs in
    /// assertion messages).
    pub fn render(&self) -> String {
        self.lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_a_pure_function_of_seed_and_index() {
        let (a_i, a_f) = request(7, 3);
        let (b_i, b_f) = request(7, 3);
        assert_eq!(a_i.len(), b_i.len());
        for (a, b) in a_i.iter().zip(&b_i) {
            assert_eq!((a.src, a.dst, a.eid), (b.src, b.dst, b.eid));
            assert_eq!(a.time.to_bits(), b.time.to_bits());
        }
        assert!(a_f.allclose(&b_f, 0.0));
        // different seed, different endpoints somewhere
        let (c_i, _) = request(8, 3);
        assert!(
            a_i.iter()
                .zip(&c_i)
                .any(|(a, c)| a.src != c.src || a.dst != c.dst),
            "seed must matter"
        );
    }

    #[test]
    fn workload_times_increase_with_index() {
        for k in 0..10 {
            let (i, _) = request(1, k);
            assert!(i[0].time < i[1].time);
            if k > 0 {
                let (prev, _) = request(1, k - 1);
                assert!(prev[1].time < i[0].time);
            }
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let profile = FaultProfile {
            drop: 10,
            duplicate: 10,
            truncate: 10,
            delay: 20,
        };
        let a = build_schedule(42, 50, profile);
        let b = build_schedule(42, 50, profile);
        assert_eq!(a, b);
        let c = build_schedule(43, 50, profile);
        assert_ne!(a, c, "different seeds must explore different schedules");
    }

    #[test]
    fn schedule_mentions_every_request_exactly_once() {
        let profile = FaultProfile {
            drop: 15,
            duplicate: 15,
            truncate: 15,
            delay: 25,
        };
        for seed in 0..5 {
            let schedule = build_schedule(seed, 40, profile);
            let mut seen = vec![0usize; 40];
            for a in &schedule {
                let k = match *a {
                    Action::Deliver(k)
                    | Action::Drop(k)
                    | Action::Duplicate(k)
                    | Action::Truncate(k, _) => k,
                };
                seen[k] += 1;
            }
            assert!(seen.iter().all(|&n| n == 1), "seed {seed}: {seen:?}");
        }
    }

    #[test]
    fn messy_requests_are_pure_and_only_times_move() {
        let profile = SourceProfile {
            skew: 100,
            dup: 0,
            max_skew: 6,
        };
        for k in 0..12 {
            let (clean, clean_f) = request(11, k);
            let (messy, messy_f) = messy_request(11, k, profile);
            let (again, _) = messy_request(11, k, profile);
            for (m, a) in messy.iter().zip(&again) {
                assert_eq!(m.time.to_bits(), a.time.to_bits(), "must be pure");
            }
            assert!(messy_f.allclose(&clean_f, 0.0), "features must not move");
            for (c, m) in clean.iter().zip(&messy) {
                assert_eq!((c.src, c.dst, c.eid), (m.src, m.dst, m.eid));
                let back = c.time - m.time;
                assert!(
                    back >= 1.0 && back <= profile.max_skew as f64,
                    "skew {back} outside 1..={}",
                    profile.max_skew
                );
            }
            // both interactions shift together: one lagging source clock
            assert_eq!(
                (clean[0].time - messy[0].time).to_bits(),
                (clean[1].time - messy[1].time).to_bits()
            );
        }
        // a zero-weight profile is the identity
        let (plain, _) = messy_request(11, 3, SourceProfile::default());
        let (base, _) = request(11, 3);
        assert_eq!(plain[0].time.to_bits(), base[0].time.to_bits());
    }

    #[test]
    fn messy_effective_stream_expands_source_duplicates() {
        let profile = SourceProfile {
            skew: 0,
            dup: 100,
            max_skew: 0,
        };
        let schedule = vec![
            Action::Deliver(0),
            Action::Drop(1),
            Action::Duplicate(2),
            Action::Truncate(3, 5),
            Action::Deliver(4),
        ];
        // dup=100%: every plain delivery emits twice; frame dup stays 2x
        assert_eq!(
            messy_effective_stream(9, &schedule, profile),
            vec![0, 0, 2, 2, 4, 4]
        );
        // dup=0%: collapses to the frame-level effective stream
        assert_eq!(
            messy_effective_stream(9, &schedule, SourceProfile::default()),
            effective_stream(&schedule)
        );
    }

    #[test]
    fn effective_stream_counts_duplicates_and_skips_losses() {
        let schedule = vec![
            Action::Deliver(0),
            Action::Drop(1),
            Action::Duplicate(2),
            Action::Truncate(3, 5),
            Action::Deliver(4),
        ];
        assert_eq!(effective_stream(&schedule), vec![0, 2, 2, 4]);
    }
}
