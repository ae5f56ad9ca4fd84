//! `apand` — the APAN serving daemon.
//!
//! Boots a seeded model (or warm-restarts from `--snapshot` if the file
//! exists), binds the TCP protocol, and serves until a client sends
//! `SHUTDOWN` or the process receives SIGTERM/SIGINT — both paths write
//! a final snapshot when one is configured.
//!
//! ```text
//! apand --port 7878 --dim 32 --snapshot /var/lib/apan/serve.snap \
//!       --snapshot-every-s 30 --max-batch 64 --deadline-us 500
//! ```

use apan_core::config::ApanConfig;
use apan_core::model::Apan;
use apan_serve::server::ServeConfig;
use apan_serve::ClusterMembership;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set from the signal handler; polled by the main thread.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // No libc crate in this workspace; std already links libc on unix,
    // so declare the one symbol needed. The handler only stores to an
    // AtomicBool — async-signal-safe by construction.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Everything the flags decide. Each field starts from its library
/// default ([`ServeConfig::default`], [`ApanConfig::new`]) and a flag
/// overwrites it in place, so a default is declared in one place only.
struct Args {
    serve: ServeConfig,
    model: ApanConfig,
    seed: u64,
}

const USAGE: &str = "usage: apand [--port N] [--dim N] [--slots N] [--nodes N] [--max-node N]
             [--capacity N] [--max-batch N] [--deadline-us N] [--high-water N]
             [--snapshot PATH] [--snapshot-every-s N] [--seed N] [--infer-delay-us N]
             [--trace-buffer N]   (TRACE ring capacity in events; 0 disables spans)
             [--shard-id N] [--cluster-size N]   (this daemon's place in a cluster)
             [--peers host:port,host:port,...]   (peer shard addresses for DELIVER)
             [--lateness T]   (bounded-lateness window in event-time units; events up to
                              T behind the watermark reorder-buffer instead of clamping,
                              older ones are scored read-only and dropped; off by default)
             [--mailbox-budget BYTES]   (bound resident mailbox state to ~BYTES, spilling
                              the least-recently-touched mailboxes to an on-disk cold
                              tier; off by default — everything stays in RAM)
             [--mailbox-spill DIR]   (directory for the cold tier's one scratch file, which
                              is removed on clean shutdown and truncated on the next
                              boot after a crash; default is a fresh per-process
                              directory under the system temp dir, removed as well)";

/// Parses `value` as an integer of the flag's target type: a number
/// that does not fit is an error, never a wrapped value.
fn num<T: TryFrom<u64>>(flag: &str, value: &str) -> Result<T, String> {
    let n: u64 = value
        .parse()
        .map_err(|_| format!("{flag}: bad number {value:?}"))?;
    T::try_from(n)
        .map_err(|_| format!("{flag}: {n} does not fit in {}", std::any::type_name::<T>()))
}

/// Parses the command line (without the program name). A model shape
/// [`Apan::new`] would reject is reported here, before boot.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut serve = ServeConfig {
        addr: "0.0.0.0:7878".into(),
        ..ServeConfig::default()
    };
    let mut model = ApanConfig::new(32);
    model.dropout = 0.0; // serving is eval-mode only
    let mut seed = 42;
    let (mut shard_id, mut cluster_size, mut peers) = (0usize, 1usize, Vec::new());
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--port" => serve.addr = format!("0.0.0.0:{}", num::<u16>(&flag, &value)?),
            "--dim" => model.dim = num(&flag, &value)?,
            "--slots" => model.mailbox_slots = num(&flag, &value)?,
            "--nodes" => serve.num_nodes = num(&flag, &value)?,
            "--max-node" => serve.max_node = num(&flag, &value)?,
            "--capacity" => serve.capacity = num(&flag, &value)?,
            "--max-batch" => serve.policy.max_batch = num(&flag, &value)?,
            "--deadline-us" => {
                serve.policy.batch_deadline = Duration::from_micros(num(&flag, &value)?)
            }
            "--high-water" => serve.high_water = num(&flag, &value)?,
            "--snapshot" => serve.snapshot_path = Some(PathBuf::from(value)),
            "--snapshot-every-s" => {
                serve.snapshot_every = Some(Duration::from_secs(num(&flag, &value)?));
            }
            "--seed" => seed = num(&flag, &value)?,
            "--infer-delay-us" => serve.infer_delay = Duration::from_micros(num(&flag, &value)?),
            "--trace-buffer" => serve.trace_buffer = num(&flag, &value)?,
            "--shard-id" => shard_id = num(&flag, &value)?,
            "--lateness" => {
                let l: f64 = value.parse().map_err(|_| "bad --lateness".to_string())?;
                if !l.is_finite() || l < 0.0 {
                    return Err("--lateness must be finite and non-negative".into());
                }
                serve.lateness = Some(l);
            }
            "--cluster-size" => cluster_size = num(&flag, &value)?,
            "--mailbox-budget" => model.mailbox_budget = Some(num(&flag, &value)?),
            "--mailbox-spill" => model.mailbox_spill = Some(PathBuf::from(value)),
            "--peers" => {
                peers = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|_| format!("--peers: bad address {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    model.validate()?;
    if cluster_size > 1 {
        if shard_id >= cluster_size {
            return Err(format!(
                "--shard-id {shard_id} out of range for --cluster-size {cluster_size}"
            ));
        }
        let mut m = ClusterMembership::new(shard_id, cluster_size);
        m.peers = peers;
        serve.cluster = Some(m);
    }
    Ok(Args { serve, model, seed })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apand: {e}");
            std::process::exit(2);
        }
    };
    let mut rng = StdRng::seed_from_u64(args.seed);
    let model = Apan::new(&args.model, &mut rng);

    install_signal_handlers();

    let handle = match apan_serve::start(model, args.serve) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("apand: failed to start: {e}");
            std::process::exit(1);
        }
    };
    // stdout line is the contract scripts wait on to learn the port
    println!("apand listening on {}", handle.addr());

    // Serve until a client SHUTDOWN flips is_running, or a signal lands.
    while handle.is_running() && !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    if STOP.load(Ordering::SeqCst) {
        eprintln!("apand: signal received, shutting down");
        handle.shutdown();
    } else {
        handle.join();
    }
    println!("apand stopped");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn out_of_range_numbers_are_rejected_not_wrapped() {
        for line in ["--port 70000", "--max-node 4294967296"] {
            let err = parse(line).err().expect(line);
            assert!(err.contains("does not fit"), "{line}: {err}");
        }
    }

    #[test]
    fn model_shapes_apan_new_would_reject_fail_to_parse() {
        for (line, why) in [("--dim 33", "divisible"), ("--slots 0", "slot")] {
            let err = parse(line).err().expect(line);
            assert!(err.contains(why), "{line}: {err}");
        }
    }

    #[test]
    fn the_removed_precision_flag_fails_at_boot() {
        // serving is f32 only; an old int8 command line must not boot
        // and silently serve f32
        let err = parse("--precision int8").err().expect("--precision parsed");
        assert!(err.contains("unknown flag --precision"), "{err}");
    }

    #[test]
    fn a_valid_command_line_sets_every_field_it_names() {
        let args = parse(
            "--port 7979 --dim 16 --slots 4 --max-node 4294967295 \
             --deadline-us 250 --lateness 2.5 --shard-id 1 --cluster-size 3",
        )
        .unwrap();
        assert_eq!(args.serve.addr, "0.0.0.0:7979");
        assert_eq!((args.model.dim, args.model.mailbox_slots), (16, 4));
        assert_eq!(args.serve.max_node, u32::MAX);
        assert_eq!(args.serve.policy.batch_deadline, Duration::from_micros(250));
        assert_eq!(args.serve.lateness, Some(2.5));
        assert!(args.serve.cluster.is_some());
    }
}
