//! `apan-perf`: one-command serving benchmark for the APAN daemon and
//! cluster — sync latency, settled throughput and mailbox staleness over
//! four workloads, with a per-layer table. See `README.md` beside this
//! package for what each number means.
//!
//! ```text
//! apan-perf [--seed N] [--seconds S] [--reverse]
//!     every workload (`--reverse`: last first), untraced then traced,
//!     each in a fresh process; prints all metrics and the same-run
//!     ratios, writes out/results-*.json
//! apan-perf --workload NAME --seed N [--seconds S] [--trace 0|1 | --traced]
//!     one run; the last stdout line is the result object
//! apan-perf --emit-benchmark-json
//! ```

mod gen;
mod layers;
mod load;
mod metrics;
mod oracle;
mod prom;
mod run;
mod soak;
mod stats;
mod suite;
mod sut;
mod workload;

use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the panic hook: daemon threads are joined with their panics
/// swallowed, so a panic anywhere must still fail the run.
static PANICKED: AtomicBool = AtomicBool::new(false);

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    emit: bool,
    reverse: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        emit: false,
        reverse: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 1.0 && out.seconds <= 3600.0) {
                    return Err("--seconds must be within 1..=3600".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => out.traced = true,
            "--emit-benchmark-json" => out.emit = true,
            "--reverse" => out.reverse = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn print_rows(rows: &[(MetricDef, metrics::Measured)]) {
    for (d, m) in rows {
        let bound = d
            .bound
            .map_or("none".to_string(), |b| format!("{:.0}%", b * 100.0));
        println!(
            "  {:<42} {:>16.4} {:<9} n={:<8} better={:<6} bound={bound}",
            d.name,
            m.value,
            d.unit,
            m.samples,
            d.better.as_str()
        );
    }
}

/// The result object the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn result_line(
    rows: &[(MetricDef, metrics::Measured)],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(rows.len());
    for (d, m) in rows {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", d.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name, m.value, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let w = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    println!(
        "apan-perf {} seed={} seconds={} traced={} | nproc={} simd={:?} | repo defaults: prop_threads=1 mailbox_shards={} max_batch={} high_water={} | R={}/s",
        w.name,
        args.seed,
        args.seconds,
        args.traced,
        std::thread::available_parallelism().map_or(0, usize::from),
        apan_tensor::backend::active_simd(),
        apan_core::shard::shards_from_env(),
        apan_serve::batcher::BatchPolicy::default().max_batch,
        apan_serve::ServeConfig::default().high_water,
        w.rate_rps,
    );
    let outcome = {
        let _soak = soak::IdleSoak::start();
        run::run(w, args.seed, args.seconds, args.traced)?
    };
    for (phase, c) in &outcome.phases {
        println!(
            "  phase {:<10} attempted={} succeeded={} failed={} shed={}",
            phase, c.attempted, c.succeeded, c.failed, c.shed
        );
    }
    let rows = outcome
        .report
        .rows(if args.traced { PER_LAYER } else { END_TO_END });
    print_rows(&rows);
    let totals = outcome.totals();
    if PANICKED.load(Ordering::SeqCst) {
        return Err("a thread panicked during the run".into());
    }
    println!("{}", result_line(&rows, totals.attempted, totals.failed)?);
    Ok(())
}

fn main() -> ExitCode {
    // repo defaults apply: no ambient knob reaches the daemon
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("APAN_") {
            std::env::remove_var(key);
        }
    }
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICKED.store(true, Ordering::SeqCst);
        default_hook(info);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.emit {
            print!("{}", metrics::benchmark_json());
            Ok(())
        } else if let Some(name) = args.workload.clone() {
            run_one(&name, &args)
        } else {
            suite::run(args.seed, args.seconds, args.reverse)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("apan-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "prop-zipf",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("prop-zipf"));
        assert_eq!((a.seed, a.seconds, a.traced), (9, 12.0, true));
        assert!(!args(&["--trace", "0"]).unwrap().traced);
        assert!(args(&["--traced"]).unwrap().traced);
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = metrics::Report::default();
        r.set("setup_s", 1.25, 3);
        let line = result_line(&r.rows(END_TO_END), 10, 0).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let parsed = suite::parse_result_line(&line).unwrap();
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[0], ("setup_s".to_string(), 1.25));
        r.set("infer_p50_ms", f64::NAN, 1);
        assert!(result_line(&r.rows(END_TO_END), 10, 0).is_err());
    }
}
