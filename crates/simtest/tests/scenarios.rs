//! Seeded chaos scenarios for the serving stack.
//!
//! Every scenario is deterministic from its seed: the schedule is an
//! explicit expansion of the seed ([`apan_simtest::build_schedule`]),
//! the transport runs in lockstep, and served scores are compared
//! **bitwise** against the single-threaded differential oracle
//! ([`apan_simtest::oracle::reference_bits`]). To replay a scenario,
//! re-run its test — same seed, same trace, down to the score bits
//! (`same_seed_replays_an_identical_trace` pins that property).

use apan_metrics::Clock;
use apan_serve::batcher::{admit_times, admit_times_lateness};
use apan_serve::client::Client;
use apan_serve::server::{ServeConfig, ServerHandle};
use apan_simtest::chaos::{run_messy_schedule, run_schedule, ChaosClient};
use apan_simtest::oracle::{model, reference_bits, reference_bits_messy};
use apan_simtest::{
    build_schedule, effective_stream, messy_effective_stream, messy_request, request, Action,
    FaultProfile, SourceProfile, Trace,
};
use std::time::Duration;

const WEIGHTS: u64 = 42;

fn base_cfg() -> ServeConfig {
    ServeConfig {
        num_nodes: 32,
        ..ServeConfig::default()
    }
}

fn start(weight_seed: u64, cfg: ServeConfig) -> ServerHandle {
    apan_serve::start(model(weight_seed), cfg).expect("start daemon")
}

fn temp_snap(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("apan-simtest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Bounded condition poll (never a bare sleep-then-assert): true once
/// `cond` holds, false if the deadline passes first.
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

/// Asserts served bits == oracle bits, with the trace in the failure
/// message so a divergence is replayable from the test output alone.
fn assert_oracle(served: &[Vec<u32>], expected: &[Vec<u32>], trace: &Trace, what: &str) {
    assert_eq!(
        served,
        expected,
        "{what}: served scores diverged from the reference pipeline\ntrace:\n{}",
        trace.render()
    );
}

#[test]
fn fault_free_schedule_matches_reference_bitwise() {
    let seed = 101;
    let schedule = build_schedule(seed, 25, FaultProfile::default());
    assert!(schedule.iter().all(|a| matches!(a, Action::Deliver(_))));

    let handle = start(WEIGHTS, base_cfg());
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut trace = Trace::new();
    let served = run_schedule(&mut client, seed, &schedule, &mut trace).expect("run");
    handle.shutdown();

    let eff = effective_stream(&schedule);
    assert_eq!(eff.len(), 25);
    let expected = reference_bits(WEIGHTS, seed, &eff);
    assert_oracle(&served, &expected, &trace, "fault-free");
}

#[test]
fn dropped_frames_leave_no_trace_in_serving_state() {
    let seed = 202;
    let profile = FaultProfile {
        drop: 30,
        ..FaultProfile::default()
    };
    let schedule = build_schedule(seed, 30, profile);
    let eff = effective_stream(&schedule);
    let drops = schedule.len() - eff.len();
    assert!(drops > 0, "seed must produce at least one drop");

    let handle = start(WEIGHTS, base_cfg());
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut trace = Trace::new();
    let served = run_schedule(&mut client, seed, &schedule, &mut trace).expect("run");

    // the daemon must have seen exactly the delivered requests
    assert_eq!(client.stat_u64("requests").unwrap(), eff.len() as u64);
    handle.shutdown();

    let expected = reference_bits(WEIGHTS, seed, &eff);
    assert_oracle(&served, &expected, &trace, "drops");
}

#[test]
fn duplicated_frames_score_like_network_duplicates() {
    let seed = 303;
    let profile = FaultProfile {
        duplicate: 25,
        ..FaultProfile::default()
    };
    let schedule = build_schedule(seed, 30, profile);
    let eff = effective_stream(&schedule);
    assert!(eff.len() > 30, "seed must produce at least one duplicate");

    let handle = start(WEIGHTS, base_cfg());
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut trace = Trace::new();
    let served = run_schedule(&mut client, seed, &schedule, &mut trace).expect("run");
    assert_eq!(client.stat_u64("requests").unwrap(), eff.len() as u64);
    handle.shutdown();

    // the oracle replays the duplicate too: its second copy arrives
    // behind the watermark its first copy advanced, and is clamped by
    // the very same admit_times the daemon uses
    let expected = reference_bits(WEIGHTS, seed, &eff);
    assert_oracle(&served, &expected, &trace, "duplicates");
}

#[test]
fn truncated_frames_kill_only_their_connection() {
    let seed = 404;
    let profile = FaultProfile {
        truncate: 25,
        ..FaultProfile::default()
    };
    let schedule = build_schedule(seed, 30, profile);
    let eff = effective_stream(&schedule);
    assert!(eff.len() < 30, "seed must produce at least one truncation");

    let handle = start(WEIGHTS, base_cfg());
    // a bystander connected for the whole run: scripted tears on the
    // chaos connection must never reach it
    let mut bystander = Client::connect(handle.addr()).expect("bystander connect");
    bystander.ping().expect("bystander ping");

    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut trace = Trace::new();
    let served = run_schedule(&mut client, seed, &schedule, &mut trace).expect("run");

    bystander
        .ping()
        .expect("bystander survived every torn frame");
    client.ping().expect("daemon serving after tears");
    assert_eq!(client.stat_u64("requests").unwrap(), eff.len() as u64);
    handle.shutdown();

    let expected = reference_bits(WEIGHTS, seed, &eff);
    assert_oracle(&served, &expected, &trace, "truncations");
}

#[test]
fn delayed_frames_replay_in_arrival_order_with_clamping() {
    let seed = 505;
    let profile = FaultProfile {
        delay: 35,
        ..FaultProfile::default()
    };
    let schedule = build_schedule(seed, 30, profile);
    let eff = effective_stream(&schedule);
    assert_eq!(eff.len(), 30, "delays reorder, they never lose");
    assert!(
        eff.windows(2).any(|w| w[0] > w[1]),
        "seed must produce at least one reordering"
    );

    // expected clamp count: replay admission over the arrival order
    // with the daemon's own watermark function
    let mut watermark = 0.0f64;
    let mut expected_clamped = 0u64;
    for &k in &eff {
        let (mut interactions, _) = request(seed, k);
        expected_clamped += admit_times(&mut watermark, &mut interactions);
    }
    assert!(expected_clamped > 0, "reordering must force clamps");

    let handle = start(WEIGHTS, base_cfg());
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut trace = Trace::new();
    let served = run_schedule(&mut client, seed, &schedule, &mut trace).expect("run");
    assert_eq!(client.stat_u64("clamped").unwrap(), expected_clamped);
    handle.shutdown();

    let expected = reference_bits(WEIGHTS, seed, &eff);
    assert_oracle(&served, &expected, &trace, "delays/reorders");
}

#[test]
fn crash_and_warm_restart_at_seeded_kill_points() {
    // Crash the daemon at three different scripted kill points; after
    // each warm restart the stream continues from the last snapshot,
    // and every phase must stay bitwise on the reference.
    let seed = 606;
    const TOTAL: usize = 24;
    for (snap_at, crash_at) in [(6usize, 9usize), (10, 10), (4, 15)] {
        let snap = temp_snap(&format!("kill_{snap_at}_{crash_at}.snap"));
        let cfg = ServeConfig {
            snapshot_path: Some(snap.clone()),
            ..base_cfg()
        };
        let mut trace = Trace::new();

        // phase 1: deliver [0, crash_at), snapshotting after snap_at
        let handle = start(WEIGHTS, cfg.clone());
        let mut client = ChaosClient::connect(handle.addr()).expect("connect");
        let mut pre = Vec::new();
        for k in 0..crash_at {
            pre.push(client.deliver(seed, k).expect("deliver"));
            trace.push(format!("deliver {k}"));
            if k + 1 == snap_at {
                assert!(client.snapshot().expect("snapshot verb"), "snapshot failed");
                trace.push(format!("snapshot after {snap_at}"));
            }
        }
        handle.crash();
        trace.push(format!("crash after {crash_at}"));

        // phase 2: warm restart (different weight seed proves snapshot
        // parameters win), deliver the rest
        let handle = start(WEIGHTS + 1, cfg);
        let mut client = ChaosClient::connect(handle.addr()).expect("reconnect");
        let mut post = Vec::new();
        for k in crash_at..TOTAL {
            post.push(client.deliver(seed, k).expect("deliver after restart"));
            trace.push(format!("deliver {k} (after restart)"));
        }
        handle.shutdown();

        // oracle: pre-crash scores are a plain prefix; post-restart
        // scores continue from the snapshot cut, with [snap_at,
        // crash_at) genuinely lost
        let pre_eff: Vec<usize> = (0..crash_at).collect();
        let expected_pre = reference_bits(WEIGHTS, seed, &pre_eff);
        assert_oracle(&pre, &expected_pre, &trace, "pre-crash");

        let mut replay_eff: Vec<usize> = (0..snap_at).collect();
        replay_eff.extend(crash_at..TOTAL);
        let expected_all = reference_bits(WEIGHTS, seed, &replay_eff);
        assert_oracle(
            &post,
            &expected_all[snap_at..],
            &trace,
            &format!("post-restart (snap {snap_at}, crash {crash_at})"),
        );
        let _ = std::fs::remove_file(&snap);
    }
}

#[test]
fn torn_snapshot_leaves_previous_snapshot_authoritative() {
    let seed = 707;
    let snap = temp_snap("torn.snap");
    let cfg = ServeConfig {
        snapshot_path: Some(snap.clone()),
        ..base_cfg()
    };
    let mut trace = Trace::new();

    // phase A: 5 deliveries, a good snapshot, 2 more (to be lost)
    let handle = start(WEIGHTS, cfg.clone());
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    for k in 0..5 {
        client.deliver(seed, k).expect("deliver");
        trace.push(format!("deliver {k}"));
    }
    assert!(client.snapshot().expect("snapshot verb"));
    trace.push("snapshot after 5");
    for k in 5..7 {
        client.deliver(seed, k).expect("deliver");
        trace.push(format!("deliver {k} (will be lost)"));
    }
    handle.crash();
    let good_bytes = std::fs::read(&snap).expect("snapshot on disk");

    // phase B: restart with snapshot writes torn at byte 100 — every
    // snapshot attempt fails, the good file must survive untouched
    let torn_cfg = ServeConfig {
        snapshot_tear_after: Some(100),
        ..cfg.clone()
    };
    let handle = start(WEIGHTS + 1, torn_cfg);
    let mut client = ChaosClient::connect(handle.addr()).expect("reconnect");
    let mut phase_b = Vec::new();
    for k in 7..10 {
        phase_b.push(client.deliver(seed, k).expect("deliver"));
        trace.push(format!("deliver {k} (torn-snapshot phase)"));
    }
    assert!(
        !client.snapshot().expect("snapshot verb"),
        "torn snapshot write must report failure"
    );
    trace.push("snapshot torn");
    assert_eq!(client.stat_u64("snapshot_failures").unwrap(), 1);
    assert_eq!(
        std::fs::read(&snap).unwrap(),
        good_bytes,
        "torn write clobbered the previous snapshot"
    );
    client.deliver(seed, 10).expect("deliver");
    trace.push("deliver 10 (will be lost)");
    handle.crash();

    // phase C: restart plain — must come up from the phase-A snapshot
    let handle = start(WEIGHTS + 2, cfg);
    let mut client = ChaosClient::connect(handle.addr()).expect("reconnect");
    let mut phase_c = Vec::new();
    for k in 11..13 {
        phase_c.push(client.deliver(seed, k).expect("deliver"));
        trace.push(format!("deliver {k} (after torn-phase crash)"));
    }
    handle.shutdown();

    // both restarted phases continue from the state after 5 deliveries
    let mut eff_b: Vec<usize> = (0..5).collect();
    eff_b.extend(7..10);
    let expected_b = reference_bits(WEIGHTS, seed, &eff_b);
    assert_oracle(&phase_b, &expected_b[5..], &trace, "torn phase B");

    let mut eff_c: Vec<usize> = (0..5).collect();
    eff_c.extend(11..13);
    let expected_c = reference_bits(WEIGHTS, seed, &eff_c);
    assert_oracle(&phase_c, &expected_c[5..], &trace, "torn phase C");
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn virtual_time_snapshot_tick_fires_without_wall_clock() {
    let seed = 808;
    let snap = temp_snap("vtick.snap");
    let clock = Clock::virtual_clock();
    let vt = clock.virtual_handle().unwrap();
    let cfg = ServeConfig {
        snapshot_path: Some(snap.clone()),
        snapshot_every: Some(Duration::from_secs(3600)),
        clock: clock.clone(),
        ..base_cfg()
    };
    let mut trace = Trace::new();

    let handle = start(WEIGHTS, cfg.clone());
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut pre = Vec::new();
    for k in 0..6 {
        pre.push(client.deliver(seed, k).expect("deliver"));
        trace.push(format!("deliver {k}"));
    }
    // no wall-clock hour passes: the periodic snapshot fires the moment
    // the scenario driver advances simulated time past the interval
    assert_eq!(client.stat_u64("snapshots").unwrap(), 0);
    vt.advance(Duration::from_secs(3601));
    trace.push("advance 3601s");
    assert!(
        wait_until(Duration::from_secs(10), || {
            let mut c = ChaosClient::connect(handle.addr()).expect("probe");
            c.stat_u64("snapshots").unwrap_or(0) >= 1
        }),
        "periodic snapshot did not fire after the virtual interval"
    );
    trace.push("tick snapshot observed");

    // latency stamps ran on simulated time: nothing advanced while any
    // request was in flight, so every recorded latency is exactly zero
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("\"max_ms\":0.000000"),
        "virtual-clock latencies must be exactly zero: {stats}"
    );

    for k in 6..9 {
        pre.push(client.deliver(seed, k).expect("deliver"));
        trace.push(format!("deliver {k} (lost after tick snapshot)"));
    }
    handle.crash();
    trace.push("crash");

    // warm restart on a fresh virtual clock, resuming from the ticked
    // snapshot (state after 6 deliveries)
    let restart_cfg = ServeConfig {
        clock: Clock::virtual_clock(),
        ..cfg
    };
    let handle = start(WEIGHTS + 1, restart_cfg);
    let mut client = ChaosClient::connect(handle.addr()).expect("reconnect");
    let mut post = Vec::new();
    for k in 9..12 {
        post.push(client.deliver(seed, k).expect("deliver after restart"));
        trace.push(format!("deliver {k} (after restart)"));
    }
    handle.shutdown();

    let pre_eff: Vec<usize> = (0..9).collect();
    let expected_pre = reference_bits(WEIGHTS, seed, &pre_eff);
    assert_oracle(&pre, &expected_pre, &trace, "virtual-tick pre-crash");

    let mut replay_eff: Vec<usize> = (0..6).collect();
    replay_eff.extend(9..12);
    let expected_post = reference_bits(WEIGHTS, seed, &replay_eff);
    assert_oracle(
        &post,
        &expected_post[6..],
        &trace,
        "virtual-tick post-restart",
    );
    let _ = std::fs::remove_file(&snap);
}

/// The full chaos soup — all fault types plus a mid-stream crash and
/// warm restart — as one seeded, replayable run.
fn chaos_soup(seed: u64) -> (Trace, Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let profile = FaultProfile {
        drop: 10,
        duplicate: 10,
        truncate: 10,
        delay: 15,
    };
    let schedule = build_schedule(seed, 30, profile);
    let split = schedule.len() / 2;
    let snap = temp_snap(&format!("soup_{seed}.snap"));
    let cfg = ServeConfig {
        snapshot_path: Some(snap.clone()),
        ..base_cfg()
    };
    let mut trace = Trace::new();

    let handle = start(WEIGHTS, cfg.clone());
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let pre = run_schedule(&mut client, seed, &schedule[..split], &mut trace).expect("run pre");
    assert!(client.snapshot().expect("snapshot"), "snapshot failed");
    trace.push(format!("snapshot at action {split}"));
    handle.crash();
    trace.push("crash");

    let handle = start(WEIGHTS + 1, cfg);
    let mut client = ChaosClient::connect(handle.addr()).expect("reconnect");
    let post = run_schedule(&mut client, seed, &schedule[split..], &mut trace).expect("run post");
    handle.shutdown();
    let _ = std::fs::remove_file(&snap);

    // differential oracle: snapshot was taken right before the crash,
    // so nothing was lost — post continues exactly after pre
    let pre_eff = effective_stream(&schedule[..split]);
    let all_eff = effective_stream(&schedule);
    let expected = reference_bits(WEIGHTS, seed, &all_eff);
    assert_oracle(&pre, &expected[..pre_eff.len()], &trace, "soup pre-crash");
    assert_oracle(
        &post,
        &expected[pre_eff.len()..],
        &trace,
        "soup post-restart",
    );
    (trace, pre, post)
}

#[test]
fn seeded_chaos_soup_passes_the_differential_oracle() {
    chaos_soup(909);
}

#[test]
fn same_seed_replays_an_identical_trace() {
    let (t1, pre1, post1) = chaos_soup(1234);
    let (t2, pre2, post2) = chaos_soup(1234);
    assert_eq!(
        t1.render(),
        t2.render(),
        "same seed must replay the same trace"
    );
    assert_eq!((pre1, post1), (pre2, post2));

    // and a different seed explores a genuinely different schedule
    let (t3, _, _) = chaos_soup(5678);
    assert_ne!(t1.render(), t3.render());
}

#[test]
fn virtual_time_stage_histograms_report_scheduled_durations_exactly() {
    // Batch deadline and injected inference delay, in virtual
    // nanoseconds. Both land inside the (2^22, 2^23] ns log2 bucket, so
    // the assertion below can also pin the exact bucket they fill.
    const D_NS: u64 = 5_000_000;
    const I_NS: u64 = 3_000_000;
    const N: usize = 4;

    fn json_f64(doc: &str, field: &str) -> Option<f64> {
        let needle = format!("\"{field}\":");
        let start = doc.find(&needle)? + needle.len();
        let rest = &doc[start..];
        let end = rest
            .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    fn prom(text: &str, name: &str) -> Option<f64> {
        text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            if n == name {
                v.trim().parse().ok()
            } else {
                None
            }
        })
    }

    // One fully-scripted run: every request is admitted at a frozen
    // instant, waits out exactly D of simulated deadline, then exactly I
    // of simulated inference delay; propagation lands before time moves
    // again. Returns the final METRICS exposition.
    fn run(seed: u64, trace: &mut Trace) -> String {
        let clock = Clock::virtual_clock();
        let vt = clock.virtual_handle().unwrap();
        let cfg = ServeConfig {
            clock: clock.clone(),
            policy: apan_serve::batcher::BatchPolicy {
                max_batch: 64,
                batch_deadline: Duration::from_nanos(D_NS),
            },
            infer_delay: Duration::from_nanos(I_NS),
            ..base_cfg()
        };
        let handle = start(WEIGHTS, cfg);
        let mut client = ChaosClient::connect(handle.addr()).expect("connect");
        let mut probe = ChaosClient::connect(handle.addr()).expect("probe");
        for k in 0..N {
            let req = client.send_infer(seed, k).expect("send");
            trace.push(format!("send {k}"));
            // Admission raises the watermark to the request's last event
            // time and the batcher arming its deadline drains the queue;
            // both live under one queue lock, so observing them together
            // makes the advance below race-free.
            assert!(
                wait_until(Duration::from_secs(10), || {
                    let stats = probe.stats().expect("stats");
                    json_f64(&stats, "watermark").unwrap_or(-1.0) >= (2 * k + 2) as f64
                        && json_f64(&stats, "queue_depth") == Some(0.0)
                }),
                "request {k} never reached the armed batcher"
            );
            vt.advance(Duration::from_nanos(D_NS));
            trace.push(format!("advance deadline {k}"));
            // the batcher parks in the injected inference delay — the
            // only virtual sleeper in the daemon
            assert!(
                wait_until(Duration::from_secs(10), || vt.sleepers() == 1),
                "batcher never parked in the injected inference delay"
            );
            vt.advance(Duration::from_nanos(I_NS));
            trace.push(format!("advance infer_delay {k}"));
            let scores = client.recv_scores(req).expect("scores");
            assert_eq!(scores.len(), 2);
            client.flush().expect("flush");
        }
        let text = probe.metrics().expect("metrics");
        handle.shutdown();
        text
    }

    let mut t1 = Trace::new();
    let text = run(2026, &mut t1);

    // batch_wait: each of the N single-request batches waited out
    // exactly the virtual deadline — count, sum, and bucket all pinned
    assert_eq!(
        prom(&text, "apan_stage_batch_wait_seconds_count"),
        Some(N as f64),
        "{text}"
    );
    let bw_sum = format!(
        "apan_stage_batch_wait_seconds_sum {}",
        (N as u64 * D_NS) as f64 * 1e-9
    );
    assert!(
        text.contains(&bw_sum),
        "batch_wait sum must be exactly N*D:\n{text}"
    );
    assert!(
        text.contains(&format!(
            "apan_stage_batch_wait_seconds_bucket{{le=\"0.008388608\"}} {N}"
        )),
        "{text}"
    );
    assert!(
        text.contains("apan_stage_batch_wait_seconds_bucket{le=\"0.004194304\"} 0"),
        "no batch may close early:\n{text}"
    );

    // prop_lag: every delivered mail aged exactly D + I between its
    // request's admission and its mailbox commit
    let deliveries = prom(&text, "apan_prop_deliveries_total").expect("deliveries") as u64;
    assert!(deliveries > 0, "{text}");
    assert_eq!(
        prom(&text, "apan_prop_lag_seconds_count"),
        Some(deliveries as f64),
        "{text}"
    );
    let lag_sum = format!(
        "apan_prop_lag_seconds_sum {}",
        (deliveries * (D_NS + I_NS)) as f64 * 1e-9
    );
    assert!(
        text.contains(&lag_sum),
        "prop_lag sum must be exactly deliveries*(D+I):\n{text}"
    );

    // every other stage ran at a frozen instant: zero virtual width
    for stage in [
        "admit",
        "encode",
        "decode_score",
        "commit",
        "plan",
        "deliver",
    ] {
        assert_eq!(
            prom(&text, &format!("apan_stage_{stage}_seconds_sum")),
            Some(0.0),
            "stage {stage} must have zero virtual width:\n{text}"
        );
    }

    // replaying the same seed reproduces the entire exposition bitwise —
    // timings, counters, rates, everything
    let mut t2 = Trace::new();
    let replay = run(2026, &mut t2);
    assert_eq!(
        t1.render(),
        t2.render(),
        "same seed must replay the same trace"
    );
    assert_eq!(
        text, replay,
        "same seed must replay a bitwise-identical METRICS exposition"
    );

    // a different workload seed changes endpoints, scores, and mail
    // fan-out — but the scheduled virtual durations are seed-invariant,
    // so the batch_wait histogram is bitwise identical and prop_lag
    // still reports exactly D + I per delivery
    let other = run(4711, &mut Trace::new());
    let bw_block = |t: &str| {
        t.lines()
            .filter(|l| l.contains("apan_stage_batch_wait_seconds"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        bw_block(&text),
        bw_block(&other),
        "batch_wait histogram must not depend on the workload seed"
    );
    let other_deliveries = prom(&other, "apan_prop_lag_seconds_count").expect("count") as u64;
    assert!(other_deliveries > 0);
    assert!(
        other.contains(&format!(
            "apan_prop_lag_seconds_sum {}",
            (other_deliveries * (D_NS + I_NS)) as f64 * 1e-9
        )),
        "prop_lag per-delivery age must be exactly D+I for any seed:\n{other}"
    );
}

// ---------------------------------------------------------------------
// Messy-source scenarios: the second fault axis. The schedules above
// perturb *frames*; these perturb *event timestamps* at the source —
// lagging clocks, source-level duplicates — against a daemon running a
// bounded-lateness window, and compare bitwise against the
// lateness-aware oracle ([`reference_bits_messy`]).
// ---------------------------------------------------------------------

/// The lateness window every messy scenario runs under (event-time
/// units; workload times advance by 2 per request).
const LATENESS: f64 = 4.0;

fn messy_cfg() -> ServeConfig {
    ServeConfig {
        lateness: Some(LATENESS),
        ..base_cfg()
    }
}

/// The expected admission split of a messy effective stream, computed
/// through the daemon's own [`admit_times_lateness`] — shared code, so
/// the daemon's STATS counters must land on exactly these numbers.
fn expected_admission(
    seed: u64,
    eff: &[usize],
    profile: SourceProfile,
    lateness: f64,
) -> (u64, u64) {
    let mut wm = 0.0f64;
    let (mut admitted, mut dropped) = (0u64, 0u64);
    for &k in eff {
        let (mut interactions, _) = messy_request(seed, k, profile);
        let adm = admit_times_lateness(&mut wm, Some(lateness), &mut interactions);
        admitted += adm.late_admitted;
        dropped += adm.late_dropped;
    }
    (admitted, dropped)
}

/// A fault-free frame schedule from a messy source: skewed timestamps
/// park in the reorder buffer (or drop beyond the window), source
/// duplicates re-emit behind the watermark — and every served score
/// stays bitwise on the lateness-aware oracle. The daemon's lateness
/// counters must equal a replay of the shared admission function.
#[test]
fn messy_source_fault_free_schedule_stays_on_the_oracle() {
    let seed = 7501;
    const TOTAL: usize = 28;
    let profile = SourceProfile {
        skew: 40,
        dup: 20,
        max_skew: 7,
    };
    let schedule = build_schedule(seed, TOTAL, FaultProfile::default());
    let eff = messy_effective_stream(seed, &schedule, profile);
    assert!(
        eff.len() > TOTAL,
        "seed must produce at least one source duplicate"
    );
    let (late_adm, late_drop) = expected_admission(seed, &eff, profile, LATENESS);
    assert!(
        late_adm > 0 && late_drop > 0,
        "profile must exercise both late admission and drops: {late_adm}/{late_drop}"
    );

    let handle = start(WEIGHTS, messy_cfg());
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut trace = Trace::new();
    let served =
        run_messy_schedule(&mut client, seed, &schedule, profile, &mut trace).expect("run");
    assert_eq!(
        client.stat_u64("late_admitted").unwrap(),
        late_adm,
        "daemon late admissions diverged from the shared admission replay"
    );
    assert_eq!(
        client.stat_u64("late_dropped").unwrap(),
        late_drop,
        "daemon late drops diverged from the shared admission replay"
    );
    handle.shutdown();

    let expected = reference_bits_messy(WEIGHTS, seed, LATENESS, profile, &eff, &[]);
    assert_oracle(&served, &expected, &trace, "messy fault-free");
}

/// Both fault axes at once: frames dropped, duplicated, torn mid-frame
/// and delayed *and* source timestamps skewed/duplicated. The daemon
/// must still serve the exact bits of the lateness-aware oracle over
/// the messy effective stream.
#[test]
fn messy_source_survives_frame_level_chaos() {
    let seed = 7502;
    const TOTAL: usize = 32;
    let frame = FaultProfile {
        drop: 10,
        duplicate: 10,
        truncate: 10,
        delay: 15,
    };
    let profile = SourceProfile {
        skew: 35,
        dup: 15,
        max_skew: 6,
    };
    let schedule = build_schedule(seed, TOTAL, frame);
    let eff = messy_effective_stream(seed, &schedule, profile);
    assert!(eff.len() < TOTAL * 2, "sanity: stream is finite");

    let handle = start(WEIGHTS, messy_cfg());
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut trace = Trace::new();
    let served =
        run_messy_schedule(&mut client, seed, &schedule, profile, &mut trace).expect("run");
    assert_eq!(client.stat_u64("requests").unwrap(), eff.len() as u64);
    handle.shutdown();

    let expected = reference_bits_messy(WEIGHTS, seed, LATENESS, profile, &eff, &[]);
    assert_oracle(&served, &expected, &trace, "messy x frame chaos");
}

/// The satellite regression: crash + warm restart with the snapshot cut
/// landing **inside the lateness window** — late events still parked in
/// the reorder buffer at the cut. The cut force-releases the buffer
/// (`export_state` flushes it), so nothing buffered is lost across the
/// restart, and the oracle models the cut as a forced release at the
/// same position. A wider window (10.0) and heavier skew keep events
/// parked long enough that at least one kill point catches the buffer
/// non-empty.
#[test]
fn messy_crash_and_warm_restart_inside_the_lateness_window() {
    let seed = 7503;
    const TOTAL: usize = 24;
    const WINDOW: f64 = 10.0;
    let profile = SourceProfile {
        skew: 45,
        dup: 0,
        max_skew: 14,
    };
    let eff: Vec<usize> = (0..TOTAL).collect();
    let (late_adm, late_drop) = expected_admission(seed, &eff, profile, WINDOW);
    assert!(
        late_adm > 0 && late_drop > 0,
        "profile must exercise both late admission and drops: {late_adm}/{late_drop}"
    );

    let mut parked_at_cut = Vec::new();
    for (snap_at, crash_at) in [(6usize, 9usize), (10, 10), (4, 15)] {
        let snap = temp_snap(&format!("messy_kill_{snap_at}_{crash_at}.snap"));
        let cfg = ServeConfig {
            lateness: Some(WINDOW),
            snapshot_path: Some(snap.clone()),
            ..base_cfg()
        };
        let mut trace = Trace::new();

        // phase 1: deliver [0, crash_at), snapshotting after snap_at
        let handle = start(WEIGHTS, cfg.clone());
        let mut client = ChaosClient::connect(handle.addr()).expect("connect");
        let mut pre = Vec::new();
        for k in 0..crash_at {
            let (interactions, feats) = messy_request(seed, k, profile);
            pre.push(client.deliver_raw(&interactions, &feats).expect("deliver"));
            trace.push(format!("deliver {k} t={:.1}", interactions[0].time));
            if k + 1 == snap_at {
                let parked = client.stat_u64("reorder_buffered").unwrap();
                parked_at_cut.push(parked);
                assert!(client.snapshot().expect("snapshot verb"), "snapshot failed");
                trace.push(format!("snapshot after {snap_at} ({parked} parked)"));
                assert_eq!(
                    client.stat_u64("reorder_buffered").unwrap(),
                    0,
                    "the snapshot cut must flush the reorder buffer"
                );
            }
        }
        handle.crash();
        trace.push(format!("crash after {crash_at}"));

        // phase 2: warm restart (different weight seed: the snapshot
        // must win), deliver the rest of the messy stream
        let handle = start(WEIGHTS + 1, cfg);
        let mut client = ChaosClient::connect(handle.addr()).expect("reconnect");
        let mut post = Vec::new();
        for k in crash_at..TOTAL {
            let (interactions, feats) = messy_request(seed, k, profile);
            post.push(
                client
                    .deliver_raw(&interactions, &feats)
                    .expect("deliver after restart"),
            );
            trace.push(format!(
                "deliver {k} t={:.1} (after restart)",
                interactions[0].time
            ));
        }
        handle.shutdown();

        // oracle: the pre-crash run saw a forced release at the cut;
        // post-restart continues from the cut with [snap_at, crash_at)
        // genuinely lost
        let expected_pre =
            reference_bits_messy(WEIGHTS, seed, WINDOW, profile, &eff[..crash_at], &[snap_at]);
        assert_oracle(
            &pre,
            &expected_pre,
            &trace,
            &format!("messy pre-crash (snap {snap_at}, crash {crash_at})"),
        );

        let mut replay: Vec<usize> = (0..snap_at).collect();
        replay.extend(crash_at..TOTAL);
        let expected_all =
            reference_bits_messy(WEIGHTS, seed, WINDOW, profile, &replay, &[snap_at]);
        assert_oracle(
            &post,
            &expected_all[snap_at..],
            &trace,
            &format!("messy post-restart (snap {snap_at}, crash {crash_at})"),
        );
        let _ = std::fs::remove_file(&snap);
    }
    assert!(
        parked_at_cut.iter().any(|&n| n > 0),
        "at least one snapshot cut must land inside the window with \
         events still parked: {parked_at_cut:?}"
    );
}

/// One seeded messy chaos soup, run twice: byte-identical traces,
/// identical score bits, both on the oracle — the replayability pin for
/// the messy axis.
#[test]
fn same_messy_seed_replays_an_identical_trace() {
    fn soup(seed: u64) -> (Trace, Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let frame = FaultProfile {
            drop: 8,
            duplicate: 8,
            truncate: 8,
            delay: 12,
        };
        let profile = SourceProfile {
            skew: 30,
            dup: 12,
            max_skew: 6,
        };
        let schedule = build_schedule(seed, 30, frame);
        let handle = start(WEIGHTS, messy_cfg());
        let mut client = ChaosClient::connect(handle.addr()).expect("connect");
        let mut trace = Trace::new();
        let served =
            run_messy_schedule(&mut client, seed, &schedule, profile, &mut trace).expect("run");
        handle.shutdown();
        let eff = messy_effective_stream(seed, &schedule, profile);
        let expected = reference_bits_messy(WEIGHTS, seed, LATENESS, profile, &eff, &[]);
        (trace, served, expected)
    }
    let (t1, s1, e1) = soup(888);
    let (t2, s2, e2) = soup(888);
    assert_eq!(
        t1.render(),
        t2.render(),
        "messy soup must replay byte-identically"
    );
    assert_eq!(s1, s2);
    assert_eq!(e1, e2);
    assert_oracle(&s1, &e1, &t1, "messy soup");
}

// ---------------------------------------------------------------------
// Tiered-mailbox scenarios: the daemon serves with a hot-RAM budget of
// zero — every mailbox churns through the on-disk cold tier — and must
// stay bitwise on the all-resident single-threaded oracle. Tiering is a
// residency transform, never a semantic one.
// ---------------------------------------------------------------------

/// A daemon model with the harshest tier geometry: one hot mailbox per
/// shard, everything else spilled to `spill` (or an auto temp dir).
fn tiered_model(weight_seed: u64, spill: Option<std::path::PathBuf>) -> apan_core::model::Apan {
    let mut m = model(weight_seed);
    m.cfg.mailbox_budget = Some(0);
    m.cfg.mailbox_spill = spill;
    m
}

fn temp_spill(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("apan-simtest")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn tiered_serving_stays_on_the_all_resident_oracle() {
    let seed = 9101;
    let schedule = build_schedule(seed, 25, FaultProfile::default());

    let handle =
        apan_serve::start(tiered_model(WEIGHTS, None), base_cfg()).expect("start tiered daemon");
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut trace = Trace::new();
    let served = run_schedule(&mut client, seed, &schedule, &mut trace).expect("run");

    // the budget was genuinely binding: mailboxes spilled and came back
    let evictions = client.stat_u64("tier_evictions").unwrap();
    let promotions = client.stat_u64("tier_promotions").unwrap();
    assert!(
        evictions > 0 && promotions > 0,
        "budget 0 must churn the cold tier: evictions={evictions} promotions={promotions}"
    );
    handle.shutdown();

    let eff = effective_stream(&schedule);
    let expected = reference_bits(WEIGHTS, seed, &eff);
    assert_oracle(&served, &expected, &trace, "tiered fault-free");
}

#[test]
fn tiered_crash_and_warm_restart_over_a_leftover_spill_file() {
    // Crash the tiered daemon with a populated cold tier and leave what
    // a hard kill would: its spill file, chopped mid-record and garbled.
    // The warm restart must never read it — it truncates the file,
    // rebuilds serving state from the *snapshot* (the only durable
    // truth), and continues bitwise on the oracle.
    let seed = 9102;
    const TOTAL: usize = 24;
    const SNAP_AT: usize = 8;
    const CRASH_AT: usize = 13;
    let snap = temp_snap("tiered_kill.snap");
    let spill = temp_spill("tiered-kill-spill");
    let cfg = ServeConfig {
        snapshot_path: Some(snap.clone()),
        ..base_cfg()
    };
    let mut trace = Trace::new();

    // phase 1: deliver [0, CRASH_AT), snapshotting after SNAP_AT
    let handle = apan_serve::start(tiered_model(WEIGHTS, Some(spill.clone())), cfg.clone())
        .expect("start tiered daemon");
    let mut client = ChaosClient::connect(handle.addr()).expect("connect");
    let mut pre = Vec::new();
    for k in 0..CRASH_AT {
        pre.push(client.deliver(seed, k).expect("deliver"));
        trace.push(format!("deliver {k}"));
        if k + 1 == SNAP_AT {
            assert!(client.snapshot().expect("snapshot verb"), "snapshot failed");
            trace.push(format!("snapshot after {SNAP_AT}"));
        }
    }
    assert!(
        client.stat_u64("tier_evictions").unwrap() > 0,
        "budget 0 must have spilled mailboxes before the crash"
    );
    // the cold tier is one file; keep its bytes — the in-process crash
    // below still runs destructors (which remove it), a real kill -9
    // would not
    let files: Vec<std::path::PathBuf> = std::fs::read_dir(&spill)
        .expect("spill dir exists while the daemon runs")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "one spill file per store: {files:?}");
    let mut leftover = std::fs::read(&files[0]).unwrap();
    assert!(
        leftover.len() > 20,
        "spill file must hold at least one record"
    );
    handle.crash();
    trace.push(format!("crash after {CRASH_AT}"));

    // chop mid-record, as an interrupted write would, and garble a
    // stretch of what remains
    let full = leftover.len();
    leftover.truncate(full - 5);
    for b in leftover.iter_mut().skip(7).step_by(13) {
        *b ^= 0xFF;
    }
    std::fs::write(&files[0], &leftover).unwrap();
    trace.push(format!(
        "left a chopped, garbled spill file ({full} -> {} bytes)",
        leftover.len()
    ));

    // phase 2: warm restart over the same spill dir (different weight
    // seed proves the snapshot wins), deliver the rest
    let handle = apan_serve::start(tiered_model(WEIGHTS + 1, Some(spill.clone())), cfg)
        .expect("restart tiered daemon");
    let mut client = ChaosClient::connect(handle.addr()).expect("reconnect");
    let mut post = Vec::new();
    for k in CRASH_AT..TOTAL {
        post.push(client.deliver(seed, k).expect("deliver after restart"));
        trace.push(format!("deliver {k} (after restart)"));
    }
    handle.shutdown();

    let pre_eff: Vec<usize> = (0..CRASH_AT).collect();
    let expected_pre = reference_bits(WEIGHTS, seed, &pre_eff);
    assert_oracle(&pre, &expected_pre, &trace, "tiered pre-crash");

    let mut replay_eff: Vec<usize> = (0..SNAP_AT).collect();
    replay_eff.extend(CRASH_AT..TOTAL);
    let expected_all = reference_bits(WEIGHTS, seed, &replay_eff);
    assert_oracle(
        &post,
        &expected_all[SNAP_AT..],
        &trace,
        "tiered post-restart over a leftover spill file",
    );
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_dir_all(&spill);
}
