//! One workload run: verify, set up, open loop, saturation — and, when
//! traced, the per-layer measurements around them.

use crate::gen::{Generator, Phase};
use crate::layers::{self, Tracer};
use crate::load::{self, Counts, OpenLoop};
use crate::metrics::Report;
use crate::oracle;
use crate::prom::{delta_mean, delta_total, Scrape};
use crate::stats::{
    mean, median, median_of_window_percentiles, p99_windows, percentile, window_rates,
};
use crate::sut::{out_dir, Scratch, Sut};
use crate::workload::{Workload, SATURATION_WINDOW, WARMUP_BATCH, WARMUP_EVENTS};
use apan_serve::Client;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups an untraced run times; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Consecutive slices a measured phase is cut into.
const WINDOWS: usize = 10;
/// A run whose generator ran later than this at the median could not
/// keep its schedule and measured itself, not the daemon. The p99 is
/// reported (`gen.lag_p99_ms`) but does not invalidate: the sender
/// shares two cores and one address space with every daemon thread, so
/// its tail is the scheduler's 3 ms slices and the daemon's mmap churn,
/// both of which are charged to the latency anyway (it is timed from
/// the intended send).
const MAX_LAG_P50_MS: f64 = 1.0;
/// The per-layer metric the generator's lateness is reported under.
const LAG: &str = "gen.lag_p99_ms";
/// Multiples of `R` the knee ladder visits. `R` is at most half the
/// rate at which the seed commit saturates, so the first rungs sit
/// below the seed knee and the last at or beyond it.
const LADDER: [f64; 4] = [1.0, 1.5, 2.0, 2.5];
/// `prop_pending` above this after a rung means the backlog was growing.
const BACKLOG_LIMIT: u64 = 8;

/// How a traced run splits its `--seconds`.
mod share {
    pub const BASELINE: f64 = 0.15;
    pub const OPEN: f64 = 0.35;
    pub const LADDER: f64 = 0.25;
    pub const SATURATION: f64 = 0.25;
}
/// An untraced run spends two thirds in the open loop, one third
/// saturated (the issue's 20 s : 10 s).
const UNTRACED_OPEN_SHARE: f64 = 2.0 / 3.0;

pub struct Outcome {
    pub report: Report,
    /// Request accounting per phase, in run order.
    pub phases: Vec<(&'static str, Counts)>,
}

impl Outcome {
    pub fn totals(&self) -> Counts {
        let mut all = Counts::default();
        for (_, c) in &self.phases {
            all.add(*c);
        }
        all
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Every value of `"field":<integer>` in a (possibly nested) STATS
/// document: one for a daemon, one per shard behind a gateway.
fn stats_fields(doc: &str, field: &str) -> Vec<u64> {
    let needle = format!("\"{field}\":");
    doc.match_indices(&needle)
        .filter_map(|(at, _)| {
            let rest = &doc[at + needle.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

fn scrape(client: &mut Client) -> Result<(Scrape, f64), String> {
    let t = Instant::now();
    let text = client.metrics().map_err(err("METRICS"))?;
    Ok((Scrape::parse(&text), t.elapsed().as_secs_f64() * 1e3))
}

/// Boots the deployment and replays the warm-up stream into it; the
/// wall time of both is `setup_s`.
fn set_up(
    w: &Workload,
    traced: bool,
    gen: &Generator,
    scratch: &Scratch,
) -> Result<(Sut, f64, Counts), String> {
    let t = Instant::now();
    let sut = Sut::boot(w, traced, scratch)?;
    let (mut wr, mut rd) = load::connect(sut.front).map_err(err("connect"))?;
    let warm = load::closed_loop(
        &mut wr,
        &mut rd,
        SATURATION_WINDOW,
        Duration::MAX,
        WARMUP_EVENTS / WARMUP_BATCH,
        WARMUP_BATCH,
        |k| gen.payload(Phase::Warmup, k, false),
    );
    sut.control()?.flush().map_err(err("warm-up FLUSH"))?;
    Ok((sut, t.elapsed().as_secs_f64(), warm.counts))
}

fn open_phase(
    sut: &Sut,
    gen: &Generator,
    phase: Phase,
    rate: f64,
    seconds: f64,
    traced: bool,
) -> Result<OpenLoop, String> {
    let (wr, rd) = load::connect(sut.front).map_err(err("connect"))?;
    let n = ((rate * seconds) as usize).max(1);
    Ok(load::open_loop(
        wr,
        rd,
        n,
        rate,
        gen.per_request(phase),
        |k| gen.payload(phase, k, traced),
    ))
}

struct Latency {
    valid: Vec<f64>,
    p50: f64,
    p99: f64,
    lag_p50: f64,
    lag_p99: f64,
}

/// Client latency of an open-loop phase: the p50 is the median of the
/// `WINDOWS` slices' p50s, the p99s are medians over slices of at least
/// 1 000 samples.
fn latency(out: &OpenLoop) -> Result<Latency, String> {
    let valid: Vec<f64> = out.latency_ms.iter().flatten().copied().collect();
    if valid.is_empty() || out.lag_ms.is_empty() {
        return Err("open loop: no request completed".into());
    }
    let windows = p99_windows(valid.len());
    Ok(Latency {
        p50: median_of_window_percentiles(&valid, WINDOWS.min(valid.len()), 50.0),
        p99: median_of_window_percentiles(&valid, windows, 99.0),
        lag_p50: percentile(&out.lag_ms, 50.0),
        lag_p99: median_of_window_percentiles(&out.lag_ms, p99_windows(out.lag_ms.len()), 99.0),
        valid,
    })
}

fn check_lag(l: &Latency) -> Result<(), String> {
    println!(
        "  generator lag p50={:.4} ms (limit {MAX_LAG_P50_MS}) p99={:.4} ms",
        l.lag_p50, l.lag_p99
    );
    if l.lag_p50 > MAX_LAG_P50_MS {
        return Err(format!(
            "invalid run: generator lag p50 {:.3} ms exceeds {MAX_LAG_P50_MS} ms",
            l.lag_p50
        ));
    }
    Ok(())
}

struct Saturation {
    counts: Counts,
    scored_eps: f64,
    settled_eps: f64,
    flush_ms: f64,
    pending_max: u64,
}

/// Closed loop with a window of outstanding requests, then one timed
/// `FLUSH` (a barrier flush through a gateway). With `poll`, the
/// control connection samples `prop_pending` every 250 ms meanwhile.
fn saturate(
    sut: &Sut,
    gen: &Generator,
    seconds: f64,
    traced: bool,
    poll: bool,
) -> Result<Saturation, String> {
    let (mut wr, mut rd) = load::connect(sut.front).map_err(err("connect"))?;
    let mut control = sut.control()?;
    let done = AtomicBool::new(false);
    let per_request = gen.per_request(Phase::Saturation);
    let (out, pending_max) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut max = 0u64;
            while poll && !done.load(Ordering::SeqCst) {
                if let Ok(doc) = control.stats() {
                    max = max.max(
                        stats_fields(&doc, "prop_pending")
                            .into_iter()
                            .max()
                            .unwrap_or(0),
                    );
                }
                std::thread::sleep(Duration::from_millis(250));
            }
            max
        });
        let out = load::closed_loop(
            &mut wr,
            &mut rd,
            SATURATION_WINDOW,
            Duration::from_secs_f64(seconds),
            usize::MAX,
            per_request,
            |k| gen.payload(Phase::Saturation, k, traced),
        );
        done.store(true, Ordering::SeqCst);
        (out, sampler.join().expect("STATS poller panicked"))
    });
    let t_flush = Instant::now();
    control.flush().map_err(err("saturation FLUSH"))?;
    let flush = t_flush.elapsed();
    // the sync link's rate is the median slice's; the settled rate
    // charges the same events with the flush tail that drains the
    // asynchronous backlog they left behind
    let rates = window_rates(&out.reply_at, WINDOWS);
    if rates.is_empty() {
        return Err("saturation: too few requests were scored".into());
    }
    let scored_eps = median(&rates) * per_request as f64;
    let events = (out.counts.succeeded as usize * per_request) as f64;
    Ok(Saturation {
        counts: out.counts,
        scored_eps,
        settled_eps: events / (events / scored_eps + flush.as_secs_f64()),
        flush_ms: flush.as_secs_f64() * 1e3,
        pending_max,
    })
}

/// `VmHWM` of this process so far, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(err("read /proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Phase 1 of every run. Returns the cluster's write amplification
/// (replica deliveries ÷ the single pipeline's) when clustered.
fn verify(
    w: &Workload,
    gen: &Generator,
    scratch: &Scratch,
) -> Result<(Counts, Option<f64>), String> {
    let (want, oracle_stats) = oracle::reference(w, gen);
    let sut = Sut::boot(w, false, scratch)?;
    let served = oracle::served(&sut, gen);
    let amplification = if w.shards > 1 {
        let doc = sut.control()?.stats().map_err(err("STATS"))?;
        let replicas: u64 = stats_fields(&doc, "prop_deliveries").iter().sum();
        Some(replicas as f64 / oracle_stats.deliveries as f64)
    } else {
        None
    };
    sut.stop();
    let got = served?;
    if got != want {
        return Err(format!(
            "verify: served checksum {:#018x} != serial oracle {:#018x}",
            got.0, want.0
        ));
    }
    let n = crate::workload::VERIFY_REQUESTS as u64;
    Ok((
        Counts {
            attempted: n,
            succeeded: n,
            ..Counts::default()
        },
        amplification,
    ))
}

pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let gen = Generator::new(w.shape, seed);
    let scratch = Scratch::new().map_err(err("create scratch dir"))?;
    let mut outcome = Outcome {
        report: Report::default(),
        phases: Vec::new(),
    };
    if traced {
        let (verified, amplification) = verify(w, &gen, &scratch)?;
        outcome.phases.push(("verify", verified));
        if let Some(a) = amplification {
            outcome
                .report
                .set("cluster.write_amplification", a, verified.attempted);
        }
        run_traced(w, &gen, seconds, &scratch, &mut outcome)?;
    } else {
        run_untraced(w, &gen, seconds, &scratch, &mut outcome)?;
    }
    Ok(outcome)
}

/// Measures on the first deployment the process boots, so that
/// `peak_rss_mb` is that one deployment's high-water mark and not what
/// the allocator kept from earlier ones; then verifies, then sets up
/// twice more (`setup_s` is the median of the three). Every timing is a
/// median over `WINDOWS` consecutive slices of its phase, so a
/// noisy-neighbour burst spoils one slice, not the metric.
fn run_untraced(
    w: &Workload,
    gen: &Generator,
    seconds: f64,
    scratch: &Scratch,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let report = &mut outcome.report;
    let (sut, first_setup, warm) = set_up(w, false, gen, scratch)?;
    outcome.phases.push(("setup", warm));

    let open = open_phase(
        &sut,
        gen,
        Phase::Open,
        w.rate_rps,
        seconds * UNTRACED_OPEN_SHARE,
        false,
    )?;
    sut.control()?.flush().map_err(err("open-loop FLUSH"))?;
    outcome.phases.push(("open-loop", open.counts));
    let l = latency(&open)?;
    report.set("infer_p50_ms", l.p50, l.valid.len() as u64);
    let sat = saturate(
        &sut,
        gen,
        seconds * (1.0 - UNTRACED_OPEN_SHARE),
        false,
        false,
    )?;
    outcome.phases.push(("saturation", sat.counts));
    let scored = sat.counts.succeeded * w.shape.per_request as u64;
    report.set("scored_eps", sat.scored_eps, scored);
    report.set("settled_eps", sat.settled_eps, scored);
    sut.stop();
    report.set("peak_rss_mb", peak_rss_mb()?, 1);
    check_lag(&l)?;

    let (verified, _) = verify(w, gen, scratch)?;
    outcome.phases.push(("verify", verified));
    let mut setups = vec![first_setup];
    while setups.len() < SETUP_REPEATS {
        let (sut, secs, warm) = set_up(w, false, gen, scratch)?;
        sut.stop();
        outcome.phases.push(("setup", warm));
        setups.push(secs);
    }
    report.set("setup_s", median(&setups), setups.len() as u64);
    Ok(())
}

fn run_traced(
    w: &Workload,
    gen: &Generator,
    seconds: f64,
    scratch: &Scratch,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let report = &mut outcome.report;
    let clustered = w.shards > 1;

    // untraced twin first: its p50 is the base of the tracing overhead
    let (base_sut, _, warm) = set_up(w, false, gen, scratch)?;
    outcome.phases.push(("setup", warm));
    let base = open_phase(
        &base_sut,
        gen,
        Phase::Baseline,
        w.rate_rps,
        seconds * share::BASELINE,
        false,
    )?;
    outcome.phases.push(("baseline", base.counts));
    base_sut.stop();
    let base = latency(&base)?;

    let (sut, _, warm) = set_up(w, true, gen, scratch)?;
    outcome.phases.push(("setup", warm));
    let mut control = sut.control()?;

    let ping = |client: &mut Client| -> Result<f64, String> {
        let mut rtts = Vec::with_capacity(200);
        for _ in 0..200 {
            let t = Instant::now();
            client.ping().map_err(err("PING"))?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&rtts))
    };
    let mut direct = Client::connect(sut.shard_addrs[0]).map_err(err("connect shard 0"))?;
    report.set("serve.server.ping_rtt_us", ping(&mut direct)?, 200);
    drop(direct);
    if clustered {
        report.set("cluster.gateway.ping_rtt_us", ping(&mut control)?, 200);
    }

    // ---- open loop, tagged, scraped on both sides -------------------
    let stats0 = control.stats().map_err(err("STATS"))?;
    let (before, scrape0) = scrape(&mut control)?;
    let open = open_phase(
        &sut,
        gen,
        Phase::Open,
        w.rate_rps,
        seconds * share::OPEN,
        true,
    )?;
    control.flush().map_err(err("open-loop FLUSH"))?;
    let (after, scrape1) = scrape(&mut control)?;
    let stats1 = control.stats().map_err(err("STATS"))?;
    outcome.phases.push(("open-loop", open.counts));
    let l = latency(&open)?;
    let requests = open.counts.attempted;
    let events = (requests * w.shape.per_request as u64) as f64;
    report.set(LAG, l.lag_p99, open.lag_ms.len() as u64);
    report.set("infer_p99_ms", l.p99, l.valid.len() as u64);
    report.set(
        "prop_lag_mean_ms",
        delta_mean(&before, &after, "apan_prop_lag_seconds") * 1e3,
        delta_total(&before, &after, "apan_prop_lag_seconds_count") as u64,
    );
    report.set("metrics.scrape_ms", mean(&[scrape0, scrape1]), 2);
    report.set(
        "metrics.trace_overhead_pct",
        (l.p50 - base.p50) / base.p50 * 100.0,
        l.valid.len() as u64,
    );
    let stage_us =
        |stage: &str| delta_mean(&before, &after, &format!("apan_stage_{stage}_seconds")) * 1e6;
    let stage_n = |stage: &str| {
        delta_total(
            &before,
            &after,
            &format!("apan_stage_{stage}_seconds_count"),
        ) as u64
    };
    for (name, stage) in [
        ("core.stage.encode_us", "encode"),
        ("core.stage.decode_score_us", "decode_score"),
        ("core.stage.commit_us", "commit"),
        ("core.stage.plan_us", "plan"),
        ("core.stage.deliver_us", "deliver"),
        ("serve.stage.admit_us", "admit"),
        ("serve.batcher.batch_wait_us", "batch_wait"),
        ("serve.cluster_link.forward_us", "forward"),
    ] {
        report.set(name, stage_us(stage), stage_n(stage));
    }
    // what the client saw beyond the stages on its critical path; the
    // commit stage runs on the asynchronous link and is not subtracted
    let sync_us: f64 = ["admit", "batch_wait", "encode", "decode_score"]
        .iter()
        .map(|s| stage_us(s))
        .sum();
    report.set(
        "serve.server.residual_us",
        mean(&l.valid) * 1e3 - sync_us,
        l.valid.len() as u64,
    );
    let batches = delta_total(&before, &after, "apan_batches_total");
    report.set(
        "serve.batcher.mean_batch",
        delta_total(&before, &after, "apan_interactions_total") / batches.max(1.0),
        batches as u64,
    );
    let stat = |doc: &str, field: &str| stats_fields(doc, field).iter().sum::<u64>() as f64;
    let d_stat = |field: &str| stat(&stats1, field) - stat(&stats0, field);
    report.set(
        "serve.batcher.shed_ratio",
        d_stat("shed") / requests as f64,
        requests,
    );
    report.set(
        "serve.batcher.late_admitted_per_kevent",
        d_stat("late_admitted") / events * 1e3,
        events as u64,
    );
    report.set(
        "serve.batcher.late_dropped_per_kevent",
        d_stat("late_dropped") / events * 1e3,
        events as u64,
    );
    if w.budget_fraction.is_some() {
        report.set(
            "core.tier.cold_read_us",
            delta_mean(&before, &after, "apan_tier_cold_read_ns") / 1e3,
            delta_total(&before, &after, "apan_tier_cold_read_ns_count") as u64,
        );
    }
    if clustered {
        // the gateway merges every process's spans per request and
        // prints a critical path: total = its route span, transport =
        // route minus the owner's sync stages
        let merged = control.trace_dump().map_err(err("TRACE"))?;
        let field = |line: &str, key: &str| -> Option<f64> {
            line.split_whitespace()
                .find_map(|t| t.strip_prefix(key))
                .and_then(|v| v.parse().ok())
        };
        let paths: Vec<(f64, f64)> = merged
            .lines()
            .filter(|l| l.starts_with("# critical-path"))
            .filter_map(|l| {
                Some((
                    field(l, "total=")?,
                    field(l, "encode=")?,
                    field(l, "transport=")?,
                ))
            })
            // rings evict independently: keep requests seen on both sides
            .filter(|&(total, encode, _)| total > 0.0 && encode > 0.0)
            .map(|(total, _, transport)| (total / 1e3, transport / 1e3))
            .collect();
        let n = paths.len() as u64;
        report.set(
            "cluster.gateway.route_us",
            mean(&paths.iter().map(|p| p.0).collect::<Vec<_>>()),
            n,
        );
        report.set(
            "cluster.gateway.transport_us",
            mean(&paths.iter().map(|p| p.1).collect::<Vec<_>>()),
            n,
        );
    }

    // ---- knee ladder -------------------------------------------------
    let rung_seconds = seconds * share::LADDER / LADDER.len() as f64;
    let mut knee = 0.0;
    let mut limit_ms = f64::INFINITY;
    let mut offset = 0usize;
    for (i, multiple) in LADDER.iter().enumerate() {
        let rate = w.rate_rps * multiple;
        let (wr, rd) = load::connect(sut.front).map_err(err("connect"))?;
        let n = ((rate * rung_seconds) as usize).max(1);
        let base_k = offset;
        let rung = load::open_loop(wr, rd, n, rate, w.shape.per_request, |k| {
            gen.payload(Phase::Ladder, base_k + k, true)
        });
        offset += n;
        let pending = stats_fields(&control.stats().map_err(err("STATS"))?, "prop_pending")
            .into_iter()
            .max()
            .unwrap_or(0);
        control.flush().map_err(err("ladder FLUSH"))?;
        outcome.phases.push(("ladder", rung.counts));
        let valid: Vec<f64> = rung.latency_ms.iter().flatten().copied().collect();
        if valid.is_empty() {
            continue;
        }
        if i == 0 {
            limit_ms = 5.0 * percentile(&valid, 50.0);
        }
        if rung.counts.failed == 0
            && percentile(&valid, 99.0) <= limit_ms
            && pending <= BACKLOG_LIMIT
        {
            knee = rate;
        }
    }
    report.set("serve.server.knee_rps", knee, LADDER.len() as u64);

    // ---- saturation, snapshot ----------------------------------------
    let sat = saturate(&sut, gen, seconds * share::SATURATION, true, true)?;
    outcome.phases.push(("saturation", sat.counts));
    report.set("serve.server.prop_pending_max", sat.pending_max as f64, 1);
    if clustered {
        report.set("serve.cluster_link.barrier_flush_ms", sat.flush_ms, 1);
    }
    let t = Instant::now();
    control.snapshot().map_err(err("SNAPSHOT"))?;
    report.set(
        "serve.snapshot.write_ms",
        t.elapsed().as_secs_f64() * 1e3,
        1,
    );
    let bytes: u64 = sut
        .snapshots
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    report.set(
        "serve.snapshot.bytes",
        bytes as f64,
        sut.snapshots.len() as u64,
    );
    drop(control);
    sut.stop();

    // ---- layer replay --------------------------------------------------
    let mut tracer = Tracer::new();
    layers::replay(w, gen, scratch, report, &mut tracer)?;
    let path = out_dir().join(format!("trace-{}.jsonl", w.name));
    tracer.write_jsonl(&path).map_err(err("write trace"))?;
    check_lag(&l)
}
