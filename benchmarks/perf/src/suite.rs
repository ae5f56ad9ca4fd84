//! The one-command mode: every workload, untraced then traced, each in
//! a fresh process; machine-readable results; same-run ratios.

use crate::metrics::{END_TO_END, EXACT, PER_LAYER};
use crate::sut::out_dir;
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

type Values = BTreeMap<String, f64>;

/// `(name, value)` of every metric in a run's result line.
pub fn parse_result_line(line: &str) -> Option<Vec<(String, f64)>> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in body.split("\"unit\"") {
        // each part ends `... "<name>": {"value": <v>, `
        let Some((head, value)) = part.rsplit_once("{\"value\": ") else {
            continue;
        };
        let value = value.trim_end().trim_end_matches(',').parse().ok()?;
        let name = head.trim_end().trim_end_matches(':').trim_end_matches('"');
        let name = &name[name.rfind('"')? + 1..];
        out.push((name.to_string(), value));
    }
    Some(out)
}

/// Runs one workload once in a child process, echoing its output.
fn child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{table}");
    if !output.status.success() {
        return Err(format!(
            "{name} (traced={traced}) exited with {}",
            output.status
        ));
    }
    let values =
        parse_result_line(last).ok_or_else(|| format!("{name}: unreadable result line"))?;
    Ok(values.into_iter().collect())
}

fn json_object(values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `reverse` runs the workloads last first: an A/A pair in both orders
/// shows whether a result depends on what ran before it.
pub fn run(seed: u64, seconds: f64, reverse: bool) -> Result<(), String> {
    let started = Instant::now();
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    let mut all: BTreeMap<&str, (Values, Values)> = BTreeMap::new();
    let mut order: Vec<_> = WORKLOADS.iter().collect();
    if reverse {
        order.reverse();
    }
    let exact: Vec<String> = EXACT.iter().map(|n| format!("\"{n}\"")).collect();
    for w in order {
        let untraced = child(w.name, seed, seconds, false)?;
        let traced = child(w.name, seed, seconds, true)?;
        let path = out_dir().join(format!("results-{}.json", w.name));
        let doc = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"end_to_end\": {}, \"per_layer\": {}, \"exact\": [{}]}}\n",
            w.name,
            json_object(&untraced),
            json_object(&traced),
            exact.join(", ")
        );
        std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
        all.insert(w.name, (untraced, traced));
    }

    println!("\n== end to end (seed {seed}) ==");
    print!("{:<18}", "metric");
    for w in &WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!();
    for d in END_TO_END {
        print!("{:<18}", d.name);
        for w in &WORKLOADS {
            print!(
                " {:>16.4}",
                all[w.name].0.get(d.name).copied().unwrap_or(0.0)
            );
        }
        println!(" {}", d.unit);
    }
    // ratios survive a change of machine; absolute times do not
    println!("\n== same-run ratios, each with its base ==");
    let (single, cluster) = (&all["serve-uniform"].0, &all["cluster-3shard"].0);
    for d in END_TO_END {
        let (base, value) = (single[d.name], cluster[d.name]);
        println!(
            "  cluster-3shard / serve-uniform  {:<18} {:>8.3}  ({value:.4} / {base:.4} {})",
            d.name,
            value / base,
            d.unit
        );
    }
    let tiered = &all["tiered-late"].1;
    let (ratio, settled) = (
        tiered["core.tier.settled_ratio"],
        tiered["core.pipeline.settled_eps"],
    );
    println!(
        "  tiered / all-resident           {:<18} {ratio:>8.3}  ({settled:.1} / {:.1} events/s, in-process replay)",
        "settled_eps",
        settled / ratio
    );
    println!(
        "\n{} end-to-end and {} per-layer metrics x {} workloads; results in {}; total wall time {:.1} s",
        END_TO_END.len(),
        PER_LAYER.len(),
        WORKLOADS.len(),
        out_dir().display(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a.b_c\": {\"value\": 1.5, \"unit\": \"ms\"}, \"x\": {\"value\": 20000, \"unit\": \"events/s\"}, \"neg\": {\"value\": -0.25, \"unit\": \"%\"}}}";
        assert_eq!(
            parse_result_line(line).unwrap(),
            vec![
                ("a.b_c".to_string(), 1.5),
                ("x".to_string(), 20000.0),
                ("neg".to_string(), -0.25)
            ]
        );
        assert!(parse_result_line("no metrics here").is_none());
    }
}
