//! Gateway integration: routing, fan-out aggregation, replica
//! agreement, and connection-map hygiene under churn.

use apan_cluster::{owner_shard, start_gateway, ChaosProfile, ChaosProxy, GatewayConfig};
use apan_core::config::ApanConfig;
use apan_metrics::Clock;
use apan_core::model::Apan;
use apan_core::propagator::Interaction;
use apan_serve::client::json_u64_field;
use apan_serve::proto::{self, reply, verb};
use apan_serve::{Client, ClusterMembership, ServeConfig, ServerHandle};
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const DIM: usize = 8;
const NODES: u32 = 24;

fn model(seed: u64) -> Apan {
    let mut cfg = ApanConfig::new(DIM);
    cfg.mailbox_slots = 4;
    cfg.mlp_hidden = 16;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(seed);
    Apan::new(&cfg, &mut rng)
}

fn shard_cfg(shard: Option<(usize, usize)>) -> ServeConfig {
    ServeConfig {
        num_nodes: NODES as usize + 8,
        cluster: shard.map(|(id, n)| ClusterMembership::new(id, n)),
        ..ServeConfig::default()
    }
}

/// Boots `n` shards with full-mesh peer links and a gateway in front.
fn boot_cluster(n: usize, weight_seed: u64) -> (Vec<ServerHandle>, apan_cluster::GatewayHandle) {
    boot_cluster_with(n, weight_seed, |_, cfg| cfg)
}

/// [`boot_cluster`] with each shard's config passed through `tweak`.
fn boot_cluster_with(
    n: usize,
    weight_seed: u64,
    tweak: impl Fn(usize, ServeConfig) -> ServeConfig,
) -> (Vec<ServerHandle>, apan_cluster::GatewayHandle) {
    let shards: Vec<ServerHandle> = (0..n)
        .map(|i| {
            apan_serve::start(model(weight_seed), tweak(i, shard_cfg(Some((i, n))))).expect("shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr()).collect();
    for (i, shard) in shards.iter().enumerate() {
        let peers: Vec<SocketAddr> = addrs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &a)| a)
            .collect();
        shard.set_cluster_peers(&peers);
    }
    let gateway = start_gateway(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        shards: addrs,
        clock: Clock::real(),
        trace_buffer: 8192,
    })
    .expect("gateway");
    (shards, gateway)
}

/// `k`-th request of the deterministic stream: explicit increasing
/// times, sources sweeping every shard.
fn request(k: usize) -> (Vec<Interaction>, Tensor) {
    let src = (k as u32 * 5 + 1) % NODES;
    let dst = (k as u32 * 11 + 3) % NODES;
    let interactions = vec![Interaction {
        src,
        dst,
        time: (k + 1) as f64,
        eid: k as u32,
    }];
    let feats = Tensor::full(1, DIM, 0.5 + (k % 7) as f32 * 0.05);
    (interactions, feats)
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn gateway_routing_matches_a_single_daemon_bitwise() {
    const REQS: usize = 30;
    let (shards, gateway) = boot_cluster(3, 77);
    let single = apan_serve::start(model(77), shard_cfg(None)).expect("single");

    let mut via_gateway = Client::connect(gateway.addr()).expect("connect gateway");
    let mut via_single = Client::connect(single.addr()).expect("connect single");

    for k in 0..REQS {
        let (interactions, feats) = request(k);
        let cluster_scores = via_gateway.infer(&interactions, &feats).expect("cluster");
        via_gateway.flush().expect("cluster flush");
        let single_scores = via_single.infer(&interactions, &feats).expect("single");
        via_single.flush().expect("single flush");
        assert_eq!(
            bits(&cluster_scores),
            bits(&single_scores),
            "request {k} diverged between cluster and single daemon"
        );
    }

    // the stream's sources really did land on more than one shard
    let stats = via_gateway.stats().expect("stats");
    assert!(
        stats.contains("\"cluster_size\":3"),
        "aggregate is missing cluster_size: {stats}"
    );
    let mut owners = [0usize; 3];
    for k in 0..REQS {
        owners[owner_shard(request(k).0[0].src, 3)] += 1;
    }
    assert!(
        owners.iter().all(|&c| c > 0),
        "stream must exercise every shard: {owners:?}"
    );
    // each shard's document appears in the aggregate with its identity
    for id in 0..3 {
        assert!(
            stats.contains(&format!("\"shard_id\":{id}")),
            "aggregate lost shard {id}: {stats}"
        );
    }

    drop(via_gateway);
    drop(via_single);
    single.shutdown();
    gateway.shutdown();
    for s in shards {
        s.join();
    }
}

#[test]
fn gateway_aggregates_metrics_and_relays_info() {
    let (shards, gateway) = boot_cluster(3, 5);
    let mut client = Client::connect(gateway.addr()).expect("connect");
    for k in 0..6 {
        let (interactions, feats) = request(k);
        client.infer(&interactions, &feats).expect("infer");
    }
    client.flush().expect("flush");

    let text = client.metrics().expect("metrics");
    for id in 0..3 {
        assert!(
            text.contains(&format!("# apan-gateway: shard {id} ")),
            "metrics missing shard {id} section:\n{text}"
        );
    }
    assert!(text.contains("apan_shard_id"), "{text}");
    assert!(text.contains("apan_cluster_size"), "{text}");

    let info = client.info().expect("info");
    assert_eq!(json_u64_field(&info, "dim"), Some(DIM as u64));

    // requests spread across shards: total served == requests sent
    let stats = client.stats().expect("stats");
    assert_eq!(
        sum_field(&stats, "requests"),
        6,
        "served requests must sum across shards: {stats}"
    );

    client.ping().expect("ping");
    drop(client);
    gateway.shutdown();
    for s in shards {
        s.join();
    }
}

/// Satellite regression: a flapping peer forwarder (or any short-lived
/// shard-to-shard connection) must not grow the daemon's connection
/// map — each reader prunes its entry on exit. This is the cluster
/// twin of the client-side pruning test from the connection-hygiene
/// work.
#[test]
fn short_lived_deliver_reconnects_are_pruned() {
    let handle = apan_serve::start(
        model(3),
        shard_cfg(Some((0, 2))), // member of a 2-cluster, peer never installed
    )
    .expect("start");
    let addr = handle.addr();

    for g in 0..20u64 {
        // one DELIVER per connection, like a forwarder that tears down
        // its link on every ack timeout
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut buf = Vec::new();
        proto::write_frame(
            &mut buf,
            verb::DELIVER,
            g + 1,
            &proto::encode_deliver(g, &proto::empty_job_bytes()),
        )
        .expect("encode");
        stream.write_all(&buf).expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let frame = proto::read_frame(&mut reader)
            .expect("read")
            .expect("reply");
        assert_eq!(frame.verb, reply::OK, "delivery {g} not acked");
        // dropping the stream closes the connection
    }

    // pruning is asynchronous (the reader thread exits after the peer
    // closes): poll briefly instead of sleeping a fixed amount
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        handle.active_connections(),
        0,
        "20 short-lived DELIVER connections must all be pruned"
    );
    handle.shutdown();
}

/// The gateway prunes its own client map the same way.
#[test]
fn gateway_prunes_short_lived_clients() {
    let (shards, gateway) = boot_cluster(2, 9);
    for _ in 0..10 {
        let mut c = Client::connect(gateway.addr()).expect("connect");
        c.ping().expect("ping");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while gateway.active_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gateway.active_connections(), 0);
    gateway.shutdown();
    for s in shards {
        s.join();
    }
}

/// Folds one gateway `TRACE` reply (the merged timeline document) into
/// an accumulator of `(source, stage)` pairs per trace id. Drains are
/// destructive, so the test accumulates across polls.
fn collect_merged(doc: &str, into: &mut BTreeMap<u64, BTreeSet<(String, String)>>) {
    let mut current: Option<u64> = None;
    for line in doc.lines() {
        if let Some(rest) = line.strip_prefix("# trace ") {
            current = rest.trim().parse().ok();
            continue;
        }
        if line.starts_with('#') {
            continue; // the critical-path summary line
        }
        if let (Some(id), Some((source, rest))) = (current, line.split_once(' ')) {
            if let Some((stage, _)) = rest.split_once(' ') {
                into.entry(id)
                    .or_default()
                    .insert((source.to_string(), stage.to_string()));
            }
        }
    }
}

/// Tentpole e2e: traced `INFER`s through a chaos-proxied 3-shard
/// cluster — with tiering and a lateness window active on every shard —
/// merge into one causal timeline per request. The timeline must cover
/// the gateway, the owner, and both replicas of a single request, the
/// union of spans must cross ten distinct kinds (including route,
/// deliver, tier, and reorder spans), and each shard's tail-latency
/// exemplar must resolve back to one of the ids the client sent.
#[test]
fn traced_cluster_request_yields_one_causal_timeline() {
    const N: usize = 3;
    const REQS: usize = 18;
    const BASE_ID: u64 = 0x7ace_0000;
    let shards: Vec<ServerHandle> = (0..N)
        .map(|i| {
            let mut m = model(63);
            // hot budget 0: every delivery churns the cold tier
            m.cfg.mailbox_budget = Some(0);
            let mut membership = ClusterMembership::new(i, N);
            membership.deliver_retry = Duration::from_millis(50);
            apan_serve::start(
                m,
                ServeConfig {
                    num_nodes: NODES as usize + 8,
                    cluster: Some(membership),
                    lateness: Some(4.0),
                    ..ServeConfig::default()
                },
            )
            .expect("shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr()).collect();
    let proxies: Vec<ChaosProxy> = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            ChaosProxy::start(a, 2000 + i as u64, ChaosProfile::default()).expect("proxy")
        })
        .collect();
    for (i, shard) in shards.iter().enumerate() {
        let peers: Vec<SocketAddr> = (0..N)
            .filter(|&j| j != i)
            .map(|j| proxies[j].addr())
            .collect();
        shard.set_cluster_peers(&peers);
    }
    let gateway = start_gateway(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        shards: addrs,
        clock: Clock::real(),
        trace_buffer: 8192,
    })
    .expect("gateway");

    let mut client = Client::connect(gateway.addr()).expect("connect");
    let mut ids = BTreeSet::new();
    for k in 0..REQS {
        let (mut interactions, feats) = request(k);
        if k == 6 {
            // one in-window late event: parks in the reorder buffer and
            // releases once the watermark passes time + lateness
            interactions[0].time = 3.5;
        }
        let id = BASE_ID + k as u64;
        ids.insert(id);
        client
            .infer_traced(&interactions, &feats, Some(id))
            .expect("infer");
        client.flush().expect("flush");
    }

    // Forward spans close on the peer's ack and tier spans ride the
    // async commit turn, so poll the (destructive) TRACE drain until
    // the accumulated timeline satisfies the acceptance shape.
    let mut spans: BTreeMap<u64, BTreeSet<(String, String)>> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = client.trace_dump().expect("trace");
        collect_merged(&doc, &mut spans);

        let kinds: BTreeSet<&str> = ids
            .iter()
            .filter_map(|id| spans.get(id))
            .flatten()
            .map(|(_, stage)| stage.as_str())
            .collect();
        let ten_kinds = kinds.len() >= 10
            && kinds.contains("route")
            && kinds.contains("deliver")
            && ["tier_evict", "tier_promote", "cold_read"]
                .iter()
                .any(|k| kinds.contains(k))
            && ["reorder_park", "reorder_release"]
                .iter()
                .any(|k| kinds.contains(k));
        // one request whose timeline covers gateway + owner + replicas
        let full_coverage = ids.iter().any(|id| {
            let Some(group) = spans.get(id) else {
                return false;
            };
            let owner = group
                .iter()
                .find(|(_, stage)| stage == "forward")
                .map(|(src, _)| src.clone());
            let Some(owner) = owner else { return false };
            let replicas: BTreeSet<&String> = group
                .iter()
                .filter(|(src, stage)| stage == "replica_apply" && *src != owner)
                .map(|(src, _)| src)
                .collect();
            group.contains(&("gateway".to_string(), "route".to_string()))
                && group.contains(&(owner.clone(), "encode".to_string()))
                && replicas.len() == N - 1
        });
        if ten_kinds && full_coverage {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "timeline never converged; kinds={kinds:?} spans={spans:#?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Exemplars: every shard's service histogram saw only traced
    // requests, so each non-zero slow_exemplar must be an id the client
    // sent — and it must resolve to a timeline the merge produced.
    let stats = client.stats().expect("stats");
    assert!(
        stats.starts_with("{\"cluster_size\":") && stats.contains("\"trace_dropped\":"),
        "aggregate must sum shard trace-drop counters: {stats}"
    );
    let mut exemplars = Vec::new();
    let mut rest = stats.as_str();
    while let Some(pos) = rest.find("\"slow_exemplar\":") {
        rest = &rest[pos..];
        exemplars.push(json_u64_field(rest, "slow_exemplar").expect("exemplar value"));
        rest = &rest[16..];
    }
    assert_eq!(exemplars.len(), N, "one exemplar per shard: {stats}");
    let hot: Vec<u64> = exemplars.iter().copied().filter(|&e| e != 0).collect();
    assert!(!hot.is_empty(), "no shard retained an exemplar: {stats}");
    for e in &hot {
        assert!(ids.contains(e), "exemplar {e} is not a client trace id");
        assert!(
            spans.contains_key(e),
            "exemplar {e} did not resolve to a merged timeline"
        );
    }

    // Satellite surfaces: per-shard trace-drop counters and the raw-ns
    // tier/reorder histograms ride the aggregated exposition.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(
        metrics.matches("# TYPE apan_trace_dropped_total").count(),
        N,
        "each shard section must expose its trace-drop counter"
    );
    for name in ["apan_tier_cold_read_ns", "apan_reorder_park_ns"] {
        assert!(
            metrics.contains(&format!("{name}_count")),
            "missing {name} histogram in:\n{metrics}"
        );
    }

    drop(client);
    gateway.shutdown();
    for s in shards {
        s.join();
    }
    drop(proxies);
}

/// Deliveries across a lossy link (drops, duplicates, delays) still
/// leave every replica bitwise identical to the serial daemon — the
/// stop-and-wait retransmit plus sequence dedup absorb the chaos.
#[test]
fn chaos_on_the_deliver_link_cannot_diverge_replicas() {
    const REQS: usize = 24;
    let n = 3;
    let shards: Vec<ServerHandle> = (0..n)
        .map(|i| {
            let mut m = ClusterMembership::new(i, n);
            m.deliver_retry = Duration::from_millis(50); // fast retransmit through chaos
            apan_serve::start(
                model(41),
                ServeConfig {
                    num_nodes: NODES as usize + 8,
                    cluster: Some(m),
                    ..ServeConfig::default()
                },
            )
            .expect("shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr()).collect();
    // one chaos proxy in front of each shard's DELIVER ingress
    let proxies: Vec<ChaosProxy> = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            ChaosProxy::start(a, 1000 + i as u64, ChaosProfile::default()).expect("proxy")
        })
        .collect();
    for (i, shard) in shards.iter().enumerate() {
        let peers: Vec<SocketAddr> = (0..n)
            .filter(|&j| j != i)
            .map(|j| proxies[j].addr())
            .collect();
        shard.set_cluster_peers(&peers);
    }
    let gateway = start_gateway(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        shards: addrs,
        clock: Clock::real(),
        trace_buffer: 8192,
    })
    .expect("gateway");
    let single = apan_serve::start(model(41), shard_cfg(None)).expect("single");

    let mut via_gateway = Client::connect(gateway.addr()).expect("connect gateway");
    let mut via_single = Client::connect(single.addr()).expect("connect single");
    for k in 0..REQS {
        let (interactions, feats) = request(k);
        let cluster_scores = via_gateway.infer(&interactions, &feats).expect("cluster");
        via_gateway.flush().expect("cluster flush");
        let single_scores = via_single.infer(&interactions, &feats).expect("single");
        via_single.flush().expect("single flush");
        assert_eq!(
            bits(&cluster_scores),
            bits(&single_scores),
            "request {k} diverged under chaos"
        );
    }

    drop(via_gateway);
    drop(via_single);
    single.shutdown();
    gateway.shutdown();
    for s in shards {
        s.join();
    }
    drop(proxies);
}

/// One raw request/reply roundtrip — `Client` cannot put a malformed
/// payload on the wire.
fn raw_call(stream: &mut TcpStream, verb: u8, req_id: u64, payload: &[u8]) -> proto::Frame {
    let mut buf = Vec::new();
    proto::write_frame(&mut buf, verb, req_id, payload).expect("encode");
    stream.write_all(&buf).expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    proto::read_frame(&mut reader)
        .expect("read")
        .expect("reply")
}

/// Sum of every occurrence of `"field":N` in a (possibly aggregated)
/// `STATS` document.
fn sum_field(doc: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    doc.match_indices(&key)
        .map(|(pos, _)| json_u64_field(&doc[pos..], field).unwrap_or(0))
        .sum()
}

/// Every way a request can be refused before admission — empty batch,
/// wrong feature width, node id past `max_node` (source and
/// destination), truncated payload — gets the same reply verb and
/// message from a single daemon's `INFER` and from a 3-shard cluster's
/// gateway → `ROUTE`, moves no served-work counter on either, and (the
/// cluster-only obligation) still consumes its global sequence number:
/// a hole-filler goes out, so later requests, a barrier flush and the
/// replicas' state are unaffected.
#[test]
fn rejected_requests_reply_identically_on_both_paths_and_leave_no_hole() {
    const WARM: usize = 4;
    let snaps: Vec<std::path::PathBuf> = (0..3)
        .map(|i| {
            std::env::temp_dir().join(format!("apan-gw-reject-{}-{i}.snap", std::process::id()))
        })
        .collect();
    let (shards, gateway) = boot_cluster_with(3, 13, |i, cfg| ServeConfig {
        snapshot_path: Some(snaps[i].clone()),
        ..cfg
    });
    let single = apan_serve::start(model(13), shard_cfg(None)).expect("single");
    let mut via_gateway = Client::connect(gateway.addr()).expect("connect gateway");
    let mut via_single = Client::connect(single.addr()).expect("connect single");
    for k in 0..WARM {
        let (interactions, feats) = request(k);
        via_gateway
            .infer(&interactions, &feats)
            .expect("cluster warm");
        via_single
            .infer(&interactions, &feats)
            .expect("single warm");
    }
    via_gateway.flush().expect("cluster flush");
    via_single.flush().expect("single flush");
    let served = |c: &mut Client| {
        let stats = c.stats().expect("stats");
        (
            sum_field(&stats, "requests"),
            sum_field(&stats, "interactions"),
        )
    };
    assert_eq!(served(&mut via_gateway), (WARM as u64, WARM as u64));
    assert_eq!(served(&mut via_single), (WARM as u64, WARM as u64));

    let max_node = ServeConfig::default().max_node;
    let one = |src: u32, dst: u32| {
        vec![Interaction {
            src,
            dst,
            time: 100.0,
            eid: 900,
        }]
    };
    let ok_feats = Tensor::full(1, DIM, 0.25);
    let mut truncated = proto::encode_infer(&one(2, 5), &ok_feats);
    truncated.truncate(truncated.len() - 6);
    // (case, payload, reply verb, message fragment); first sources are
    // chosen so the rejections land on all three owners
    let cases: Vec<(&str, Vec<u8>, u8, String)> = vec![
        (
            "empty batch",
            proto::encode_infer(&[], &Tensor::zeros(0, DIM)),
            reply::SCORES,
            String::new(),
        ),
        (
            "feature width != dim",
            proto::encode_infer(&one(1, 4), &Tensor::full(1, DIM + 1, 0.25)),
            reply::ERROR,
            format!("feature width {} != model dim {DIM}", DIM + 1),
        ),
        (
            "src > max_node",
            proto::encode_infer(&one(max_node + 1, 4), &ok_feats),
            reply::ERROR,
            format!("node id {} exceeds max_node {max_node}", max_node + 1),
        ),
        (
            "dst > max_node",
            proto::encode_infer(&one(3, max_node + 7), &ok_feats),
            reply::ERROR,
            format!("node id {} exceeds max_node {max_node}", max_node + 7),
        ),
        (
            "truncated payload",
            truncated,
            reply::ERROR,
            "truncated".into(),
        ),
    ];
    let mut raw_gateway = TcpStream::connect(gateway.addr()).expect("raw gateway");
    let mut raw_single = TcpStream::connect(single.addr()).expect("raw single");
    for (i, (case, payload, want_verb, fragment)) in cases.iter().enumerate() {
        let req_id = 50 + i as u64;
        let direct = raw_call(&mut raw_single, verb::INFER, req_id, payload);
        let routed = raw_call(&mut raw_gateway, verb::INFER, req_id, payload);
        let (dmsg, rmsg) = (
            String::from_utf8_lossy(&direct.payload),
            String::from_utf8_lossy(&routed.payload),
        );
        assert_eq!(direct.verb, *want_verb, "{case}: direct replied {dmsg}");
        assert_eq!(routed.verb, direct.verb, "{case}: routed replied {rmsg}");
        assert_eq!(
            routed.payload, direct.payload,
            "{case}: {rmsg:?} vs {dmsg:?}"
        );
        assert_eq!((routed.req_id, direct.req_id), (req_id, req_id), "{case}");
        if *want_verb == reply::SCORES {
            assert_eq!(
                &direct.payload[..],
                &proto::encode_scores(&[])[..],
                "{case}"
            );
        } else {
            assert!(dmsg.contains(fragment.as_str()), "{case}: {dmsg}");
        }
    }
    // nothing rejected counts as served, on either path
    assert_eq!(served(&mut via_gateway), (WARM as u64, WARM as u64));
    assert_eq!(served(&mut via_single), (WARM as u64, WARM as u64));

    // every rejected sequence number was hole-filled: the next valid
    // request is served (bitwise like the single daemon's), the barrier
    // flush returns, and the counter shows one number per request sent
    let (interactions, feats) = request(WARM);
    let cluster_scores = via_gateway
        .infer(&interactions, &feats)
        .expect("after rejects");
    let single_scores = via_single
        .infer(&interactions, &feats)
        .expect("single after rejects");
    assert_eq!(bits(&cluster_scores), bits(&single_scores));
    via_gateway.flush().expect("barrier flush after rejects");
    let stats = via_gateway.stats().expect("stats");
    assert_eq!(
        json_u64_field(&stats, "gseq"),
        Some((WARM + cases.len() + 1) as u64),
        "{stats}"
    );

    // the replicas still agree byte for byte: a coordinated snapshot
    // cut writes three identical files
    via_gateway.snapshot().expect("coordinated snapshot");
    let files: Vec<Vec<u8>> = snaps
        .iter()
        .map(|p| std::fs::read(p).expect("snapshot file"))
        .collect();
    assert!(!files[0].is_empty());
    assert!(
        files[1] == files[0] && files[2] == files[0],
        "replica snapshots diverged"
    );

    drop((via_gateway, via_single, raw_gateway, raw_single));
    single.shutdown();
    gateway.shutdown();
    for s in shards {
        s.join();
    }
    for p in &snaps {
        let _ = std::fs::remove_file(p);
    }
}
