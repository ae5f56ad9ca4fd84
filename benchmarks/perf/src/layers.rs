//! The layer replay of a traced run: the workload's request stream
//! driven single-threaded through each layer's public functions, with
//! the harness's own spans around every call.
//!
//! Two parts. The *pipeline* part runs an in-process `ServingPipeline`
//! (no socket, no batcher) — first in lockstep, where counts repeat
//! exactly for a seed, then free-running for throughput. The
//! *decomposed* part takes the state the pipeline part built and calls
//! the layers underneath it one by one (codec, batcher, store reads,
//! encoder, graph insert, sampling, plan, apply), timing each.

use crate::gen::{Generator, Phase};
use crate::metrics::Report;
use crate::sut::Scratch;
use crate::workload::{Workload, DIM, NODES, WARMUP_BATCH, WARMUP_EVENTS};
use apan_core::mail::make_mails_with;
use apan_core::mailbox::MailOrigin;
use apan_core::model::dedup_nodes;
use apan_core::pipeline::{wire, ServingPipeline};
use apan_core::propagator::{DeliveryPlan, Interaction, PropScratch};
use apan_core::shard::{shards_from_env, ShardedMailboxStore};
use apan_core::AdmitKind;
use apan_nn::Fwd;
use apan_serve::batcher::{admit_times_lateness, assemble, BatchPolicy, Drained, IngressQueue};
use apan_serve::proto;
use apan_tgraph::cost::QueryCost;
use apan_tgraph::sampling::sample_khop_targets;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the recorder.
pub struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, written out once at the end of the run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    /// Total duration of every span called `name`, in microseconds.
    fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// One JSON object per span: name, start, end, the span that caused
    /// it, the request it belongs to, and its self time (duration minus
    /// the part its children cover).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[id])
            )?;
        }
        out.flush()
    }
}

/// Requests per replay pass: about 2 048 events, at least 64 requests.
fn pass_requests(w: &Workload) -> usize {
    (2048 / w.shape.per_request).max(64)
}

/// A pipeline with the workload's store configuration, its admission
/// watermark, and the request counter of the `Open` stream.
struct Replay<'a> {
    gen: &'a Generator,
    lateness: Option<f64>,
    pipeline: ServingPipeline,
    watermark: f64,
}

impl<'a> Replay<'a> {
    fn new(w: &Workload, gen: &'a Generator, spill: Option<&Path>) -> Self {
        let lateness = w.shape.late.map(|l| l.lateness);
        let mut pipeline = ServingPipeline::new(w.model(spill), NODES as usize, 256);
        pipeline.set_lateness(lateness);
        Self {
            gen,
            lateness,
            pipeline,
            watermark: 0.0,
        }
    }

    /// Admits and scores request `k` of `phase`; returns the admitted
    /// (not dropped) event count, the unique nodes read, and the sync
    /// time in microseconds.
    fn infer(&mut self, phase: Phase, k: usize, lockstep: bool) -> (usize, usize, f64) {
        let (mut interactions, feats) = self.gen.request(phase, k);
        let adm = admit_times_lateness(&mut self.watermark, self.lateness, &mut interactions);
        let result = self
            .pipeline
            .infer_batch_admitted(&interactions, &feats, &adm.kinds, 0, None);
        if lockstep {
            self.pipeline.flush();
        }
        let admitted = adm
            .kinds
            .iter()
            .filter(|k| !matches!(k, AdmitKind::Dropped))
            .count();
        (
            admitted,
            result.nodes.len(),
            result.sync_time.as_secs_f64() * 1e6,
        )
    }

    fn warm_up(&mut self, lockstep: bool) {
        for k in 0..WARMUP_EVENTS / WARMUP_BATCH {
            self.infer(Phase::Warmup, k, lockstep);
        }
        self.pipeline.flush();
    }

    /// Free-running pass over requests `range`: events per second until
    /// the last score, and until propagation has settled.
    fn free_run(&mut self, range: std::ops::Range<usize>) -> (f64, f64) {
        let events = (range.len() * self.gen.per_request(Phase::Open)) as f64;
        let t0 = Instant::now();
        for k in range {
            self.infer(Phase::Open, k, false);
        }
        let scored = t0.elapsed().as_secs_f64();
        self.pipeline.flush();
        (events / scored, events / t0.elapsed().as_secs_f64())
    }
}

/// Runs the whole layer replay and files its metrics in `report`.
pub fn replay(
    w: &Workload,
    gen: &Generator,
    scratch: &Scratch,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let n = pass_requests(w);
    let tiered = w.budget_fraction.is_some();

    // ---- pipeline part --------------------------------------------
    let spill = tiered.then(|| scratch.fresh("spill"));
    let mut p = Replay::new(w, gen, spill.as_deref());
    // lockstep from the first event: residency, and so every tier
    // count below, is then a pure function of the seed
    p.warm_up(true);
    let tier = p.pipeline.tier_stats();
    let link = p.pipeline.prop_link();
    let (ev0, pr0, del0) = (
        tier.evictions.load(Ordering::Relaxed),
        tier.promotions.load(Ordering::Relaxed),
        link.stats().deliveries,
    );
    let (mut admitted, mut lookups, mut sync_us) = (0usize, 0usize, 0.0f64);
    for k in 0..n {
        let (a, nodes, us) = p.infer(Phase::Open, k, true);
        admitted += a;
        lookups += nodes;
        sync_us += us;
    }
    let deliveries = link.stats().deliveries - del0;
    let evictions = tier.evictions.load(Ordering::Relaxed) - ev0;
    let promotions = tier.promotions.load(Ordering::Relaxed) - pr0;
    let events = (n * w.shape.per_request) as u64;
    report.set(
        "core.pipeline.sync_us_per_batch",
        sync_us / n as f64,
        n as u64,
    );
    report.set(
        "core.propagator.deliveries_per_event",
        deliveries as f64 / admitted as f64,
        admitted as u64,
    );
    if tiered {
        let per_kevent = 1000.0 / events as f64;
        report.set(
            "core.tier.evictions_per_kevent",
            evictions as f64 * per_kevent,
            events,
        );
        report.set(
            "core.tier.promotions_per_kevent",
            promotions as f64 * per_kevent,
            events,
        );
        let issued = (lookups + deliveries) as f64;
        report.set(
            "core.tier.hit_ratio",
            1.0 - promotions as f64 / issued,
            issued as u64,
        );
        report.set(
            "core.tier.cold_bytes",
            tier.cold_bytes.load(Ordering::Relaxed) as f64,
            1,
        );
    }
    let (scored_eps, settled_eps) = p.free_run(n..2 * n);
    report.set("core.pipeline.scored_eps", scored_eps, events);
    report.set("core.pipeline.settled_eps", settled_eps, events);
    let watermark = p.watermark;
    let (flat, mut graph) = p.pipeline.export_state();
    p.pipeline.shutdown();
    if tiered {
        // the same stream with every mailbox resident
        let resident = Workload {
            budget_fraction: None,
            ..*w
        };
        let mut q = Replay::new(&resident, gen, None);
        q.warm_up(false);
        for k in 0..n {
            q.infer(Phase::Open, k, false);
        }
        q.pipeline.flush();
        let (_, resident_settled) = q.free_run(n..2 * n);
        q.pipeline.shutdown();
        report.set(
            "core.tier.settled_ratio",
            settled_eps / resident_settled,
            events,
        );
    }

    // ---- decomposed part ------------------------------------------
    let model = w.model(None);
    let spill = tiered.then(|| scratch.fresh("spill"));
    let store = ShardedMailboxStore::from_flat_tiered(
        &flat,
        shards_from_env(),
        model.cfg.mailbox_budget,
        spill.as_deref(),
    )
    .map_err(|e| format!("open replay store: {e}"))?;
    drop(flat);
    // a second, empty store takes the per-mail deliver/patch timings so
    // they do not disturb the state the plan/apply spans run against
    let mail_store =
        ShardedMailboxStore::from_flat(&model.new_store(NODES as usize), shards_from_env());
    let queue = IngressQueue::with_watermark(1024, watermark);
    queue.set_lateness(w.shape.late.map(|l| l.lateness));
    let mut rng = StdRng::seed_from_u64(0);
    let (mut prop_scratch, mut plan) = (PropScratch::default(), DeliveryPlan::default());
    let mut targets = Vec::new();
    let (mut sample_cost, mut plan_cost) = (QueryCost::new(), QueryCost::new());
    let (mut wire_bytes, mut job_events, mut proto_bytes) = (0usize, 0usize, 0usize);
    let (mut inorder_events, mut late_events, mut unique_nodes) = (0usize, 0usize, 0usize);

    for k in 2 * n..3 * n {
        let root = tracer.open("request", None, k as u64);
        let (raw, raw_feats) = gen.request(Phase::Open, k);

        proto_bytes += tracer.time("serve.proto.codec", root, || {
            let request = proto::encode_infer(&raw, &raw_feats);
            let decoded = proto::decode_infer(Bytes::from(request.clone()));
            let reply = proto::encode_scores(&vec![0.5; raw.len()]);
            let scores = proto::decode_scores(Bytes::from(reply.clone()));
            black_box((decoded.is_ok(), scores.is_ok()));
            // two frame headers: len:u32 + verb:u8 + req_id:u64
            request.len() + reply.len() + 2 * 13
        });

        let (interactions, feats, kinds) =
            tracer.time("serve.batcher.submit_drain", root, || {
                if queue
                    .submit_infer(raw, raw_feats, k as u64, Box::new(|_| {}))
                    .is_err()
                {
                    return Err("replay queue refused a request");
                }
                match queue.drain(BatchPolicy::default()) {
                    Some(Drained::Batch(batch)) => Ok(assemble(&batch)),
                    _ => Err("replay queue drained no batch"),
                }
            })?;

        let keep: Vec<usize> = (0..kinds.len())
            .filter(|&i| !matches!(kinds[i], AdmitKind::Dropped))
            .collect();
        let now = keep
            .iter()
            .map(|&i| interactions[i].time)
            .fold(interactions[0].time, f64::max);
        let src: Vec<u32> = interactions.iter().map(|i| i.src).collect();
        let dst: Vec<u32> = interactions.iter().map(|i| i.dst).collect();
        let (unique, maps) = dedup_nodes(&[&src, &dst]);
        unique_nodes += unique.len();

        let view = store.sync_view();
        tracer.time("core.shard.read", root, || {
            black_box(view.read_batch(&unique, now));
            black_box(view.embedding_batch(&unique));
        });
        let z = tracer.time("core.model.encode", root, || {
            let mut fwd = Fwd::new(&model.params, false);
            let enc = model.encode(&mut fwd, &view, &unique, now, &mut rng);
            fwd.g.value(enc.z).clone()
        });
        tracer.time("core.shard.write", root, || {
            view.set_embeddings(&unique, &z, now)
        });
        drop(view);

        let mails = make_mails_with(
            &z.gather_rows(&maps[0]),
            &z.gather_rows(&maps[1]),
            &feats,
            model.cfg.mail_content,
        );
        let job = wire::WireJob {
            interactions: keep.iter().map(|&i| interactions[i]).collect(),
            src_rows: keep.iter().map(|&i| maps[0][i]).collect(),
            dst_rows: keep.iter().map(|&i| maps[1][i]).collect(),
            late: Vec::new(),
            z_wire: wire::encode_tensor(&z),
            feats_wire: wire::encode_tensor(&feats.gather_rows(&keep)),
        };
        job_events += keep.len();
        wire_bytes += tracer.time("core.wire.job_codec", root, || {
            let encoded = wire::encode_job(&job);
            let len = encoded.len();
            black_box(wire::decode_job(encoded).is_ok());
            len
        });

        tracer.time("tgraph.insert", root, || {
            for &i in &keep {
                let e = interactions[i];
                if matches!(kinds[i], AdmitKind::Late) {
                    graph.insert_late(e.src, e.dst, e.time);
                } else {
                    graph.insert(e.src, e.dst, e.time);
                }
            }
        });

        let inorder: Vec<usize> = keep
            .iter()
            .copied()
            .filter(|&i| matches!(kinds[i], AdmitKind::InOrder))
            .collect();
        let late: Vec<usize> = keep
            .iter()
            .copied()
            .filter(|&i| matches!(kinds[i], AdmitKind::Late))
            .collect();
        inorder_events += inorder.len();
        late_events += late.len();
        let p = model.propagator;
        tracer.time("tgraph.sample", root, || {
            for &i in &inorder {
                let e = interactions[i];
                targets.clear();
                sample_khop_targets(
                    &graph,
                    &[e.src, e.dst],
                    e.time,
                    p.sampled_neighbors,
                    p.hops,
                    &mut sample_cost,
                    &mut targets,
                );
                black_box(targets.len());
            }
        });

        let batch: Vec<Interaction> = inorder.iter().map(|&i| interactions[i]).collect();
        let batch_mails = mails.gather_rows(&inorder);
        tracer.time("core.propagator.plan", root, || {
            p.plan_batch(
                &graph,
                &batch,
                &batch_mails,
                &mut plan_cost,
                &mut prop_scratch,
                &mut plan,
            );
        });
        tracer.time("core.propagator.apply", root, || plan.apply_sharded(&store));
        // a late event is planned on its own and spliced into mailboxes
        // that already hold newer mail, as on release from the reorder
        // buffer
        for &i in &late {
            let mail = mails.gather_rows(&[i]);
            tracer.time("core.propagator.plan", root, || {
                p.plan_batch(
                    &graph,
                    std::slice::from_ref(&interactions[i]),
                    &mail,
                    &mut plan_cost,
                    &mut prop_scratch,
                    &mut plan,
                );
            });
            tracer.time("core.propagator.apply", root, || {
                plan.apply_sharded_late(&store)
            });
        }

        let row = |i: usize| &mails.data()[i * DIM..(i + 1) * DIM];
        let origin = |e: Interaction| MailOrigin {
            src: e.src,
            dst: e.dst,
            eid: e.eid,
        };
        tracer.time("core.shard.deliver", root, || {
            for &i in &inorder {
                let e = interactions[i];
                for node in [e.src, e.dst] {
                    mail_store.lock_shard(mail_store.shard_of(node)).deliver(
                        node,
                        row(i),
                        e.time,
                        origin(e),
                    );
                }
            }
        });
        tracer.time("core.mailbox.patch_late", root, || {
            for &i in &late {
                let e = interactions[i];
                for node in [e.src, e.dst] {
                    mail_store.lock_shard(mail_store.shard_of(node)).patch_late(
                        node,
                        row(i),
                        e.time,
                        origin(e),
                    );
                }
            }
        });
        tracer.close(root);
    }

    let per = |name: &str, div: usize| {
        if div == 0 {
            0.0
        } else {
            tracer.total_us(name) / div as f64
        }
    };
    let requests = n as u64;
    report.set(
        "serve.proto.codec_us_per_req",
        per("serve.proto.codec", n),
        requests,
    );
    report.set(
        "serve.proto.bytes_per_req",
        proto_bytes as f64 / n as f64,
        requests,
    );
    report.set(
        "serve.batcher.submit_drain_us_per_req",
        per("serve.batcher.submit_drain", n),
        requests,
    );
    report.set(
        "core.shard.read_us_per_batch",
        per("core.shard.read", n),
        requests,
    );
    report.set(
        "core.shard.write_us_per_batch",
        per("core.shard.write", n),
        requests,
    );
    report.set(
        "core.model.encode_us_per_batch",
        per("core.model.encode", n),
        requests,
    );
    report.set(
        "core.wire.job_codec_us_per_job",
        per("core.wire.job_codec", n),
        requests,
    );
    report.set(
        "core.wire.job_bytes_per_event",
        wire_bytes as f64 / job_events as f64,
        job_events as u64,
    );
    report.set(
        "tgraph.insert_us_per_event",
        per("tgraph.insert", job_events),
        job_events as u64,
    );
    report.set(
        "tgraph.sample_us_per_event",
        per("tgraph.sample", inorder_events),
        inorder_events as u64,
    );
    report.set(
        "tgraph.sample_rows_touched_per_event",
        sample_cost.rows_touched as f64 / inorder_events as f64,
        inorder_events as u64,
    );
    report.set(
        "core.propagator.plan_us_per_batch",
        per("core.propagator.plan", n),
        requests,
    );
    report.set(
        "core.propagator.apply_us_per_batch",
        per("core.propagator.apply", n),
        requests,
    );
    report.set(
        "core.shard.deliver_us_per_mail",
        per("core.shard.deliver", 2 * inorder_events),
        2 * inorder_events as u64,
    );
    report.set(
        "core.mailbox.patch_late_us_per_mail",
        per("core.mailbox.patch_late", 2 * late_events),
        2 * late_events as u64,
    );

    // the encoder's key/value projection at this workload's mean batch:
    // [unique nodes x slots, d] x [d, d]
    let m = (unique_nodes as f64 / n as f64).round().max(1.0) as usize * model.cfg.mailbox_slots;
    let (a, b) = (vec![0.5f32; m * DIM], vec![0.25f32; DIM * DIM]);
    let mut out = vec![0.0f32; m * DIM];
    let times: Vec<f64> = (0..31)
        .map(|_| {
            out.fill(0.0);
            let t = Instant::now();
            apan_tensor::backend::gemm(black_box(&a), black_box(&b), None, m, DIM, DIM, &mut out);
            black_box(&out);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.set(
        "tensor.gemm_enc_us",
        crate::stats::median(&times),
        times.len() as u64,
    );
    Ok(())
}
