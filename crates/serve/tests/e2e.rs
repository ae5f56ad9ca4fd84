//! End-to-end daemon tests over real sockets:
//!
//! * **kill + warm restart is bitwise identical** — a daemon stopped
//!   mid-stream and restarted from its snapshot must produce scores
//!   whose `f32` bit patterns match a run that never stopped;
//! * **overload sheds, never hangs** — a burst past the high-water mark
//!   gets explicit `OVERLOADED` replies for the excess, score replies
//!   for the rest, and the `STATS` document reports the shed count and
//!   a p99 consistent with the configured service time;
//! * **concurrent clients are all served** while the daemon keeps its
//!   event-time watermark monotone.

use apan_core::config::ApanConfig;
use apan_core::model::Apan;
use apan_core::propagator::Interaction;
use apan_serve::batcher::BatchPolicy;
use apan_serve::client::{json_u64_field, Client, ClientError};
use apan_serve::proto::{self, reply, verb};
use apan_serve::server::ServeConfig;
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn model(seed: u64) -> Apan {
    let mut cfg = ApanConfig::new(8);
    cfg.mailbox_slots = 4;
    cfg.mlp_hidden = 16;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(seed);
    Apan::new(&cfg, &mut rng)
}

/// Deterministic request stream: request `k` scores two interactions at
/// explicit, strictly increasing times with fixed features.
fn request(k: usize) -> (Vec<Interaction>, Tensor) {
    let base = |j: usize| ((k * 7 + j * 3) % 23) as u32;
    let interactions = vec![
        Interaction {
            src: base(0),
            dst: base(1) + 1,
            time: (2 * k + 1) as f64,
            eid: (2 * k) as u32,
        },
        Interaction {
            src: base(2),
            dst: base(3) + 2,
            time: (2 * k + 2) as f64,
            eid: (2 * k + 1) as u32,
        },
    ];
    let data: Vec<f32> = (0..2 * 8)
        .map(|i| ((k * 31 + i * 13) % 17) as f32 / 17.0 - 0.5)
        .collect();
    (interactions, Tensor::from_vec(2, 8, data))
}

/// Runs requests `range` against a fresh client, flushing after each so
/// asynchronous propagation is serialized (determinism harness — plain
/// serving never needs this).
fn infer_range(addr: std::net::SocketAddr, range: std::ops::Range<usize>) -> Vec<u32> {
    let mut client = Client::connect(addr).expect("connect");
    let mut bits = Vec::new();
    for k in range {
        let (interactions, feats) = request(k);
        let scores = client.infer(&interactions, &feats).expect("infer");
        assert_eq!(scores.len(), 2);
        bits.extend(scores.iter().map(|s| s.to_bits()));
        client.flush().expect("flush");
    }
    bits
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("apan-serve-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Bounded condition poll: true once `cond` holds, false if `deadline`
/// passes first. Assertions go on the condition, never on elapsed wall
/// time, so a loaded CI box can be arbitrarily slow without flaking —
/// the deadline only bounds how long a genuine failure takes to report.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    while !cond() {
        if start.elapsed() >= deadline {
            return cond();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

#[test]
fn kill_and_warm_restart_is_bitwise_identical() {
    const TOTAL: usize = 40;
    const CUT: usize = 17;

    // Reference: one daemon serves the full stream uninterrupted.
    let reference = {
        let handle = apan_serve::start(model(42), ServeConfig::default()).expect("start");
        let addr = handle.addr();
        let bits = infer_range(addr, 0..TOTAL);
        handle.shutdown();
        bits
    };

    // Interrupted: serve the first CUT requests, stop (which writes the
    // snapshot), then restart from the snapshot and serve the rest.
    let snap = temp_path("restart.snap");
    let _ = std::fs::remove_file(&snap);
    let cfg = ServeConfig {
        snapshot_path: Some(snap.clone()),
        ..ServeConfig::default()
    };

    let first = {
        let handle = apan_serve::start(model(42), cfg.clone()).expect("start");
        let addr = handle.addr();
        let bits = infer_range(addr, 0..CUT);
        let mut client = Client::connect(addr).expect("connect");
        client.shutdown_server().expect("shutdown verb");
        handle.join();
        bits
    };
    assert!(snap.exists(), "shutdown must leave a snapshot behind");

    let second = {
        // A different weight seed proves the snapshot's parameters win
        // on warm restart (same architecture, different init).
        let handle = apan_serve::start(model(43), cfg).expect("warm restart");
        let addr = handle.addr();
        let bits = infer_range(addr, CUT..TOTAL);
        handle.shutdown();
        bits
    };

    assert_eq!(
        first,
        reference[..2 * CUT].to_vec(),
        "pre-kill scores diverged"
    );
    assert_eq!(
        second,
        reference[2 * CUT..].to_vec(),
        "post-restart scores are not bitwise identical to the uninterrupted run"
    );
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn warm_restart_accepts_stale_and_unset_times() {
    // Regression: a restarted daemon must seed its admission watermark
    // from the snapshot's newest event time. Before the fix, an INFER
    // with an unset time (or an explicit time behind the snapshot) was
    // admitted behind the restored stream and panicked the propagation
    // worker, killing the batcher and with it the whole daemon.
    let snap = temp_path("restart_watermark.snap");
    let _ = std::fs::remove_file(&snap);
    let cfg = ServeConfig {
        snapshot_path: Some(snap.clone()),
        ..ServeConfig::default()
    };
    {
        let handle = apan_serve::start(model(11), cfg.clone()).expect("start");
        let _ = infer_range(handle.addr(), 0..5); // newest event time = 10
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.shutdown_server().expect("shutdown verb");
        handle.join();
    }

    let handle = apan_serve::start(model(11), cfg).expect("warm restart");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    let feats = Tensor::full(1, 8, 0.25);

    // unset time: must be assigned above the restored stream position
    let unset = vec![Interaction {
        src: 1,
        dst: 2,
        time: -1.0,
        eid: 0,
    }];
    client
        .infer(&unset, &feats)
        .expect("unset time after restart");

    // explicit time behind the snapshot: must clamp, not panic
    let stale = vec![Interaction {
        src: 2,
        dst: 3,
        time: 1.0,
        eid: 0,
    }];
    client
        .infer(&stale, &feats)
        .expect("stale time after restart");
    client.flush().expect("flush");

    let stats = client.stats().expect("stats");
    let wm = json_f64_field(&stats, "watermark").expect("watermark");
    assert!(
        wm > 10.0,
        "watermark must resume above the snapshot: {stats}"
    );
    assert_eq!(json_u64_field(&stats, "clamped"), Some(1), "{stats}");

    // the daemon must still be fully healthy after both
    let (interactions, feats) = request(50);
    let scores = client
        .infer(&interactions, &feats)
        .expect("daemon still serving");
    assert_eq!(scores.len(), 2);
    handle.shutdown();
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn disconnected_peers_are_pruned() {
    let handle = apan_serve::start(model(5), ServeConfig::default()).expect("start");
    let addr = handle.addr();
    for _ in 0..8 {
        let mut c = Client::connect(addr).expect("connect");
        c.ping().expect("ping");
        // client drops here — the daemon must reclaim its slot
    }
    let mut probe = Client::connect(addr).expect("connect");
    probe.ping().expect("ping");
    // readers notice the hangups asynchronously; wait on the condition
    let pruned = wait_until(Duration::from_secs(10), || handle.active_connections() <= 1);
    assert!(
        pruned,
        "dead connections must be pruned ({} still held)",
        handle.active_connections()
    );
    handle.shutdown();
}

fn json_f64_field(doc: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let start = doc.find(&needle)? + needle.len();
    let rest = &doc[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn burst_sheds_with_explicit_replies_and_accurate_stats() {
    const BURST: usize = 12;
    let cfg = ServeConfig {
        high_water: 2,
        policy: BatchPolicy {
            max_batch: 2,
            batch_deadline: Duration::ZERO,
        },
        // slow the service path so the burst reliably outruns it
        infer_delay: Duration::from_millis(15),
        ..ServeConfig::default()
    };
    let handle = apan_serve::start(model(7), cfg).expect("start");
    let addr = handle.addr();

    // Burst BURST frames down one socket without reading replies, then
    // collect: every frame must get exactly one reply — scores or an
    // explicit OVERLOADED — and the daemon must not hang.
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for k in 0..BURST {
        let (interactions, feats) = request(k);
        let payload = proto::encode_infer(&interactions, &feats);
        proto::write_frame(&mut writer, verb::INFER, k as u64, &payload).unwrap();
    }
    writer.flush().unwrap();

    let mut scored = 0u64;
    let mut shed = 0u64;
    for _ in 0..BURST {
        let frame = proto::read_frame(&mut reader)
            .expect("read reply")
            .expect("daemon closed mid-burst");
        match frame.verb {
            reply::SCORES => scored += 1,
            reply::OVERLOADED => shed += 1,
            v => panic!("unexpected reply verb {v:#04x}"),
        }
    }
    assert_eq!(scored + shed, BURST as u64);
    assert!(shed > 0, "burst past high_water=2 must shed");
    assert!(scored > 0, "admission control must not shed everything");

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        json_u64_field(&stats, "shed"),
        Some(shed),
        "STATS shed count disagrees with OVERLOADED replies: {stats}"
    );
    assert_eq!(json_u64_field(&stats, "requests"), Some(scored));
    // Every served request waited at least one infer_delay inside the
    // batcher, so an honest p99 cannot be below it.
    let p99 = json_f64_field(&stats, "p99_ms").expect("p99_ms in STATS");
    assert!(
        p99 >= 10.0,
        "p99 {p99}ms is below the configured service floor"
    );

    handle.shutdown();
}

#[test]
fn concurrent_clients_are_all_served() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 25;
    let handle = apan_serve::start(model(3), ServeConfig::default()).expect("start");
    let addr = handle.addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut ok = 0usize;
                for k in 0..PER_CLIENT {
                    let interactions = vec![Interaction {
                        src: (c * PER_CLIENT + k) as u32 % 50,
                        dst: (c + k) as u32 % 50 + 1,
                        time: -1.0, // daemon assigns event time
                        eid: 0,
                    }];
                    let feats = Tensor::full(1, 8, 0.25);
                    match client.infer(&interactions, &feats) {
                        Ok(scores) => {
                            assert_eq!(scores.len(), 1);
                            assert!(scores[0].is_finite());
                            ok += 1;
                        }
                        Err(ClientError::Overloaded) => {}
                        Err(e) => panic!("client {c}: {e}"),
                    }
                }
                ok
            })
        })
        .collect();
    let served: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(served > 0);

    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    let stats = client.stats().expect("stats");
    assert_eq!(json_u64_field(&stats, "requests"), Some(served as u64));
    // interleaved negative-time requests exercise watermark assignment
    let wm = json_f64_field(&stats, "watermark").expect("watermark");
    assert!(
        wm >= served as f64,
        "watermark must advance per interaction: {stats}"
    );
    handle.shutdown();
}

#[test]
fn stats_expose_propagation_link_health() {
    const REQS: usize = 10;
    let handle = apan_serve::start(model(9), ServeConfig::default()).expect("start");
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    for k in 0..REQS {
        let (interactions, feats) = request(k);
        client.infer(&interactions, &feats).expect("infer");
    }
    // FLUSH drains the propagation link, so pending must read zero after.
    client.flush().expect("flush");

    let stats = client.stats().expect("stats");
    let jobs = json_u64_field(&stats, "prop_jobs").expect("prop_jobs in STATS");
    assert_eq!(jobs, REQS as u64, "one propagation job per batch: {stats}");
    let deliveries = json_u64_field(&stats, "prop_deliveries").expect("prop_deliveries in STATS");
    assert!(deliveries > 0, "deliveries must accumulate: {stats}");
    assert_eq!(
        json_u64_field(&stats, "prop_pending"),
        Some(0),
        "FLUSH must leave no pending jobs: {stats}"
    );
    assert_eq!(
        json_u64_field(&stats, "prop_decode_errors"),
        Some(0),
        "well-formed traffic must not count decode errors: {stats}"
    );
    let rate = json_f64_field(&stats, "prop_deliveries_per_sec")
        .expect("prop_deliveries_per_sec in STATS");
    assert!(
        rate.is_finite() && rate >= 0.0,
        "rate must be a finite gauge: {stats}"
    );
    handle.shutdown();
}

#[test]
fn daemon_survives_malformed_and_oversized_frames() {
    let handle = apan_serve::start(model(1), ServeConfig::default()).expect("start");
    let addr = handle.addr();

    // A hostile length prefix kills that connection, nothing else.
    let mut evil = TcpStream::connect(addr).expect("connect");
    evil.write_all(&u32::MAX.to_le_bytes()).unwrap();
    evil.write_all(&[0u8; 32]).unwrap();

    // A structurally broken INFER payload gets an ERROR reply.
    let mut client = Client::connect(addr).expect("connect");
    let garbage = vec![0xFFu8; 64];
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    proto::write_frame(&mut w, verb::INFER, 9, &garbage).unwrap();
    let frame = proto::read_frame(&mut r).expect("reply").expect("open");
    assert_eq!(frame.verb, reply::ERROR);

    // The daemon is still healthy for well-formed traffic.
    let (interactions, feats) = request(0);
    let scores = client
        .infer(&interactions, &feats)
        .expect("infer after abuse");
    assert_eq!(scores.len(), 2);
    handle.shutdown();
}

/// First sample value for an exactly-matching series name in a
/// Prometheus text exposition.
fn prom_sample(text: &str, name: &str) -> Option<f64> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        if n == name {
            v.trim().parse().ok()
        } else {
            None
        }
    })
}

/// Structural validation of every histogram in an exposition: bucket
/// bounds strictly increase, cumulative counts never decrease, and the
/// `+Inf` bucket equals `_count`.
fn validate_histograms(text: &str) {
    let names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" histogram"))
        .collect();
    assert!(!names.is_empty(), "exposition has no histograms:\n{text}");
    for name in names {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut last_le = f64::NEG_INFINITY;
        let mut last_cum = 0u64;
        let mut inf_value = None;
        for line in text.lines().filter(|l| l.starts_with(&prefix)) {
            let rest = &line[prefix.len()..];
            let (le_str, rest) = rest.split_once("\"} ").expect("bucket line shape");
            let cum: u64 = rest.trim().parse().expect("bucket count");
            assert!(
                cum >= last_cum,
                "{name}: cumulative count decreased:\n{text}"
            );
            last_cum = cum;
            if le_str == "+Inf" {
                inf_value = Some(cum);
            } else {
                let le: f64 = le_str.parse().expect("le bound");
                assert!(le > last_le, "{name}: bucket bounds must increase");
                last_le = le;
            }
        }
        let count = prom_sample(text, &format!("{name}_count")).expect("_count series");
        assert_eq!(
            inf_value.expect("+Inf bucket"),
            count as u64,
            "{name}: +Inf bucket must equal _count"
        );
    }
}

#[test]
fn metrics_exposition_is_valid_and_agrees_with_stats() {
    const REQS: usize = 6;
    let handle = apan_serve::start(model(21), ServeConfig::default()).expect("start");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    for k in 0..REQS {
        let (interactions, feats) = request(k);
        client.infer(&interactions, &feats).expect("infer");
        client.flush().expect("flush");
    }
    let stats = client.stats().expect("stats");
    let text = client.metrics().expect("metrics");

    // every STATS field has a METRICS series, plus the stage histograms
    for name in [
        "apan_requests_total",
        "apan_batches_total",
        "apan_interactions_total",
        "apan_snapshots_total",
        "apan_snapshot_failures_total",
        "apan_shed_total",
        "apan_clamped_total",
        "apan_late_admitted_total",
        "apan_late_dropped_total",
        "apan_reorder_buffered",
        "apan_late_released_total",
        "apan_queue_depth",
        "apan_watermark",
        "apan_batch_max",
        "apan_prop_jobs_total",
        "apan_prop_deliveries_total",
        "apan_prop_decode_errors_total",
        "apan_prop_pending",
        "apan_prop_deliveries_per_sec",
        "apan_tier_resident",
        "apan_tier_evictions_total",
        "apan_tier_promotions_total",
        "apan_tier_cold_bytes",
        "apan_trace_dropped_total",
        "apan_batch_size",
        "apan_service_seconds",
        "apan_prop_lag_seconds",
        "apan_shard_id",
        "apan_cluster_size",
    ] {
        assert!(
            text.contains(&format!("# TYPE {name} ")),
            "METRICS is missing {name}:\n{text}"
        );
    }
    // lockstep requests (one per batch): every stage saw every request
    for stage in [
        "admit",
        "batch_wait",
        "encode",
        "decode_score",
        "commit",
        "plan",
        "deliver",
    ] {
        let count = prom_sample(&text, &format!("apan_stage_{stage}_seconds_count"));
        assert_eq!(count, Some(REQS as f64), "stage {stage}:\n{text}");
    }
    // the two surfaces read the same state
    for (series, field) in [
        ("apan_requests_total", "requests"),
        ("apan_batches_total", "batches"),
        ("apan_interactions_total", "interactions"),
        ("apan_shed_total", "shed"),
        ("apan_clamped_total", "clamped"),
        ("apan_late_admitted_total", "late_admitted"),
        ("apan_late_dropped_total", "late_dropped"),
        ("apan_reorder_buffered", "reorder_buffered"),
        ("apan_prop_jobs_total", "prop_jobs"),
        ("apan_prop_deliveries_total", "prop_deliveries"),
        ("apan_batch_max", "batch_max"),
        ("apan_tier_resident", "tier_resident"),
        ("apan_tier_evictions_total", "tier_evictions"),
        ("apan_tier_promotions_total", "tier_promotions"),
        ("apan_tier_cold_bytes", "tier_cold_bytes"),
    ] {
        assert_eq!(
            prom_sample(&text, series),
            json_u64_field(&stats, field).map(|v| v as f64),
            "{series} disagrees with STATS {field}"
        );
    }
    // one prop_lag sample per delivered mail
    assert_eq!(
        prom_sample(&text, "apan_prop_lag_seconds_count"),
        json_u64_field(&stats, "prop_deliveries").map(|v| v as f64),
        "{text}"
    );
    // single-process cluster identity gauges: shard 0 of 1
    assert_eq!(prom_sample(&text, "apan_shard_id"), Some(0.0));
    assert_eq!(prom_sample(&text, "apan_cluster_size"), Some(1.0));
    validate_histograms(&text);
    handle.shutdown();
}

/// Extracts the `stage` string field from one TRACE JSON line.
fn trace_stage(line: &str) -> &str {
    let start = line.find("\"stage\":\"").expect("stage field") + 9;
    let end = line[start..].find('"').expect("closing quote") + start;
    &line[start..end]
}

#[test]
fn trace_correlates_spans_per_request_in_stage_order() {
    const REQS: u64 = 4;
    let handle = apan_serve::start(model(33), ServeConfig::default()).expect("start");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    for k in 0..REQS {
        let (interactions, feats) = request(k as usize);
        let scores = client
            .infer_traced(&interactions, &feats, Some(1000 + k))
            .expect("infer");
        assert_eq!(scores.len(), 2);
        client.flush().expect("flush");
    }
    let dump = client.trace_dump().expect("trace");

    let mut by_id: std::collections::HashMap<u64, Vec<(String, u64, u64)>> =
        std::collections::HashMap::new();
    for line in dump.lines() {
        let id = json_u64_field(line, "trace_id").expect("trace_id");
        let start = json_u64_field(line, "start_ns").expect("start_ns");
        let end = json_u64_field(line, "end_ns").expect("end_ns");
        by_id
            .entry(id)
            .or_default()
            .push((trace_stage(line).to_string(), start, end));
    }

    const ORDER: [&str; 7] = [
        "admit",
        "batch_wait",
        "encode",
        "decode_score",
        "commit",
        "plan",
        "deliver",
    ];
    for k in 0..REQS {
        let spans = by_id
            .get(&(1000 + k))
            .unwrap_or_else(|| panic!("no spans for trace {}:\n{dump}", 1000 + k));
        assert_eq!(spans.len(), 7, "trace {} spans:\n{dump}", 1000 + k);
        // each request flows through every stage exactly once, and the
        // spans nest causally: start times follow the stage order
        let mut prev_start = 0u64;
        for stage in ORDER {
            let (_, start, end) = spans
                .iter()
                .find(|(s, _, _)| s == stage)
                .unwrap_or_else(|| panic!("trace {} missing {stage}:\n{dump}", 1000 + k));
            assert!(end >= start, "span ends before it starts");
            assert!(
                *start >= prev_start,
                "stage {stage} started before its predecessor (trace {}):\n{dump}",
                1000 + k
            );
            prev_start = *start;
        }
    }

    // draining is destructive: a second drain is empty
    let again = client.trace_dump().expect("trace again");
    assert!(
        again.trim().is_empty(),
        "second drain must be empty: {again}"
    );
    handle.shutdown();
}

#[test]
fn stats_json_shape_is_pinned() {
    let handle = apan_serve::start(model(2), ServeConfig::default()).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (interactions, feats) = request(0);
    client.infer(&interactions, &feats).expect("infer");
    client.flush().expect("flush");
    let stats = client.stats().expect("stats");

    // External tooling scans this flat document: pin the top-level key
    // set and order so the registry refactor can never silently move it.
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let bytes = stats.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' if depth == 1 => {
                let end = stats[i + 1..].find('"').expect("closing quote") + i + 1;
                keys.push(&stats[i + 1..end]);
                i = end;
            }
            _ => {}
        }
        i += 1;
    }
    assert_eq!(
        keys,
        vec![
            "latency",
            "queue_depth",
            "shed",
            "clamped",
            "late_admitted",
            "late_dropped",
            "reorder_buffered",
            "watermark",
            "batches",
            "requests",
            "interactions",
            "batch_hist",
            "batch_max",
            "snapshots",
            "snapshot_failures",
            "prop_pending",
            "prop_jobs",
            "prop_deliveries",
            "prop_deliveries_per_sec",
            "prop_decode_errors",
            "tier_resident",
            "tier_evictions",
            "tier_promotions",
            "tier_cold_bytes",
            "trace_dropped",
            "slow_exemplar",
            "shard_id",
            "cluster_size",
        ],
        "STATS document shape changed: {stats}"
    );
    // a single-process daemon reports the degenerate cluster identity
    assert!(
        stats.contains("\"shard_id\":0") && stats.contains("\"cluster_size\":1"),
        "single-process identity must be shard 0 of 1: {stats}"
    );
    // the batch histogram keeps its legacy 8-bucket shape
    let hist_start = stats.find("\"batch_hist\":[").expect("batch_hist") + 14;
    let hist_end = stats[hist_start..].find(']').expect("closing bracket") + hist_start;
    let buckets: Vec<&str> = stats[hist_start..hist_end].split(',').collect();
    assert_eq!(buckets.len(), 8, "batch_hist must keep 8 buckets: {stats}");
    assert!(buckets
        .iter()
        .all(|b| b.chars().all(|c| c.is_ascii_digit())));
    handle.shutdown();
}

#[test]
fn skewed_stream_reports_lateness_counters_on_both_surfaces() {
    let cfg = ServeConfig {
        lateness: Some(4.0),
        ..ServeConfig::default()
    };
    let handle = apan_serve::start(model(13), cfg).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let feats = Tensor::full(1, 8, 0.25);
    let send = |client: &mut Client, time: f64| {
        let interactions = vec![Interaction {
            src: 1,
            dst: 2,
            time,
            eid: 0,
        }];
        // every event is scored, including the one admission drops
        let scores = client.infer(&interactions, &feats).expect("infer");
        assert_eq!(scores.len(), 1);
        assert!(scores[0].is_finite());
        client.flush().expect("flush");
    };
    send(&mut client, 10.0); // in order: watermark -> 10
    send(&mut client, 20.0); // in order: watermark -> 20
    send(&mut client, 17.0); // inside [16, 20): late, reorder-buffered
    send(&mut client, 1.0); // older than the window: dropped

    let stats = client.stats().expect("stats");
    assert_eq!(json_u64_field(&stats, "late_admitted"), Some(1), "{stats}");
    assert_eq!(json_u64_field(&stats, "late_dropped"), Some(1), "{stats}");
    // the late event cannot release until the watermark clears 17 + 4
    assert_eq!(
        json_u64_field(&stats, "reorder_buffered"),
        Some(1),
        "{stats}"
    );
    let wm = json_f64_field(&stats, "watermark").expect("watermark");
    assert!(
        (wm - 20.0).abs() < 1e-9,
        "late/dropped events must not move the watermark: {stats}"
    );

    send(&mut client, 30.0); // watermark -> 30: the buffered event releases
    let stats = client.stats().expect("stats");
    assert_eq!(
        json_u64_field(&stats, "reorder_buffered"),
        Some(0),
        "{stats}"
    );

    // both surfaces read the same shared handles
    let text = client.metrics().expect("metrics");
    for (series, field) in [
        ("apan_late_admitted_total", "late_admitted"),
        ("apan_late_dropped_total", "late_dropped"),
        ("apan_reorder_buffered", "reorder_buffered"),
    ] {
        assert_eq!(
            prom_sample(&text, series),
            json_u64_field(&stats, field).map(|v| v as f64),
            "{series} disagrees with STATS {field}:\n{text}"
        );
    }
    assert_eq!(
        prom_sample(&text, "apan_late_released_total"),
        Some(1.0),
        "the buffered event must count as released:\n{text}"
    );
    handle.shutdown();
}
