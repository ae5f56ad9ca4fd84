//! The verify phase: lockstep requests through the real deployment,
//! checked bitwise against a single-threaded in-process replay.

use crate::gen::{Generator, Phase};
use crate::stats::ScoreHash;
use crate::sut::Sut;
use crate::workload::{Workload, NODES, VERIFY_REQUESTS};
use apan_core::pipeline::{PropStats, ServingPipeline};
use apan_serve::batcher::admit_times_lateness;

/// Replays the verify stream on one all-resident `ServingPipeline`, one
/// request per batch, flushed before the next, admitted through the
/// daemon's own `admit_times_lateness`. This is what every deployment —
/// tiered, late-admitting or clustered — must reproduce bit for bit.
pub fn reference(w: &Workload, gen: &Generator) -> (ScoreHash, PropStats) {
    // no budget: tiering must not change served bits
    let model = Workload {
        budget_fraction: None,
        ..*w
    }
    .model(None);
    let lateness = w.shape.late.map(|l| l.lateness);
    let mut pipeline = ServingPipeline::new(model, NODES as usize, 64);
    pipeline.set_lateness(lateness);
    let mut watermark = 0.0f64;
    let mut hash = ScoreHash::default();
    for k in 0..VERIFY_REQUESTS {
        let (mut interactions, feats) = gen.request(Phase::Verify, k);
        let adm = admit_times_lateness(&mut watermark, lateness, &mut interactions);
        let result = pipeline.infer_batch_admitted(&interactions, &feats, &adm.kinds, 0, None);
        pipeline.flush();
        hash.push(&result.scores);
    }
    (hash, pipeline.shutdown())
}

/// Drives the verify stream through `sut` in lockstep (`FLUSH` after
/// every request; a barrier flush through a gateway).
pub fn served(sut: &Sut, gen: &Generator) -> Result<ScoreHash, String> {
    let mut client = sut.control()?;
    let mut hash = ScoreHash::default();
    for k in 0..VERIFY_REQUESTS {
        let (interactions, feats) = gen.request(Phase::Verify, k);
        let scores = client
            .infer(&interactions, &feats)
            .map_err(|e| format!("verify request {k}: {e}"))?;
        client
            .flush()
            .map_err(|e| format!("verify flush {k}: {e}"))?;
        hash.push(&scores);
    }
    Ok(hash)
}
