//! `APAN_MAILBOX_SHARDS` is capped at `MAX_SHARDS`: an absurd value
//! boots a pipeline with `MAX_SHARDS` shards instead of trying to
//! allocate billions of shard stores.
//!
//! Its own test binary, so the variable is set before anything in the
//! process reads it.

use apan_core::config::ApanConfig;
use apan_core::model::Apan;
use apan_core::pipeline::ServingPipeline;
use apan_core::shard::{shards_from_env, MAX_SHARDS};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn absurd_shard_count_is_capped() {
    std::env::set_var("APAN_MAILBOX_SHARDS", "4000000000");
    assert_eq!(shards_from_env(), MAX_SHARDS);

    let mut cfg = ApanConfig::new(8);
    cfg.mailbox_slots = 2;
    cfg.mlp_hidden = 8;
    let model = Apan::new(&cfg, &mut StdRng::seed_from_u64(0));
    let pipeline = ServingPipeline::new(model, 4, 1);
    assert_eq!(pipeline.store().num_shards(), MAX_SHARDS);
}
