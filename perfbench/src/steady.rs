//! The steadiness command: every workload in two sets of runs, the order
//! alternating, then for each end-to-end metric each set's median and
//! quartiles and whether the sets agree within the metric's bound from
//! `BENCHMARK.json`.

use std::collections::HashMap;
use std::process::{Command, Stdio};

use serde::Value;

use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use crate::{num, parse_flags, BenchError};

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_spec() -> Result<(Vec<Metric>, f64), BenchError> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
        BenchError::msg(format!(
            "BENCHMARK.json (run from the repository root): {e}"
        ))
    })?;
    let spec = serde_json::parse(&text)?;
    let mut metrics = Vec::new();
    for m in spec
        .get_field("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        metrics.push(Metric {
            name: m
                .get_field("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            lower_is_better: m.get_field("better").and_then(Value::as_str) == Some("lower"),
            bound: m.get_field("bound").and_then(Value::as_f64).unwrap_or(0.0),
        });
    }
    let seconds = spec
        .get_field("run_seconds")
        .and_then(Value::as_f64)
        .unwrap_or(10.0);
    Ok((metrics, seconds))
}

/// One parsed run.
struct Run {
    attempted: f64,
    failed: f64,
    correct: bool,
    values: HashMap<String, f64>,
}

fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<Run, BenchError> {
    let exe = std::env::current_exe()?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("perfbench:")) {
        println!("    {line}");
    }
    if !out.status.success() {
        return Err(BenchError::msg(format!(
            "{workload} seed {seed} exited with {}",
            out.status
        )));
    }
    let last = stdout.lines().last().unwrap_or("");
    let v = serde_json::parse(last)?;
    let mut values = HashMap::new();
    if let Some(fields) = v.get_field("metrics").and_then(Value::as_object) {
        for (k, m) in fields {
            if let Some(x) = m.get_field("value").and_then(Value::as_f64) {
                values.insert(k.clone(), x);
            }
        }
    }
    Ok(Run {
        attempted: v
            .get_field("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        failed: v.get_field("failed").and_then(Value::as_f64).unwrap_or(0.0),
        correct: v.get_field("correct") == Some(&Value::Bool(true)),
        values,
    })
}

/// `perfbench steady [--runs 10]`: sets of `runs` runs at BENCHMARK.json's
/// `run_seconds`, seeds 1, 2, … over every workload; exits non-zero when any
/// metric spreads or shifts beyond its bound.
pub fn main(args: &[String]) -> Result<(), BenchError> {
    let flags = parse_flags(args)?;
    let (metrics, seconds) = read_spec()?;
    let runs: u64 = num(&flags, "runs", Some(10))?;
    // results[set][workload] = runs
    let mut results: Vec<HashMap<String, Vec<Run>>> = vec![HashMap::new(), HashMap::new()];
    for (set, per_set) in results.iter_mut().enumerate() {
        for i in 0..runs {
            let mut order = WORKLOADS.to_vec();
            if (set as u64 + i) % 2 == 1 {
                order.reverse();
            }
            let seed = 1 + set as u64 * runs + i;
            for w in &order {
                println!("set {} run {} — {w} seed {seed}", set + 1, i + 1);
                let run = run_once(w, seed, seconds)?;
                per_set.entry(w.to_string()).or_default().push(run);
            }
        }
    }

    let mut all_ok = true;
    for w in WORKLOADS {
        println!("\n{w}");
        let sets: Vec<&Vec<Run>> = results.iter().filter_map(|r| r.get(w)).collect();
        let shares: Vec<f64> = sets
            .iter()
            .map(|runs| {
                let a: f64 = runs.iter().map(|r| r.attempted).sum();
                let f: f64 = runs.iter().map(|r| r.failed).sum();
                f / a.max(1.0)
            })
            .collect();
        let correct = sets.iter().all(|runs| runs.iter().all(|r| r.correct));
        println!("  failed share per set: {shares:?}; every run correct: {correct}");
        all_ok &= correct && shares.windows(2).all(|p| p[0] == p[1]);
        for m in &metrics {
            let mut meds = Vec::new();
            let mut line = format!("  {:<18}", m.name);
            let mut ok = true;
            for runs in &sets {
                let vals: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.values.get(&m.name).copied())
                    .collect();
                let med = median(&vals);
                let q = quartiles(&vals).unwrap_or([f64::NAN; 3]);
                let spread = (q[2] - q[0]) / med;
                line.push_str(&format!(
                    " | median {med:.4} q1 {:.4} q3 {:.4} spread {:.3}",
                    q[0], q[2], spread
                ));
                if spread.is_nan() || spread > m.bound {
                    ok = false;
                }
                meds.push(med);
            }
            if let [a, b] = meds[..] {
                let worse = if m.lower_is_better {
                    (b - a) / a
                } else {
                    (a - b) / a
                };
                line.push_str(&format!(" | set 2 worse by {worse:.3}"));
                // The sets must agree both ways: set 2 neither worse nor
                // better than set 1 by more than the bound.
                ok &= worse.abs() <= m.bound;
            }
            line.push_str(&format!(
                " | bound {} → {}",
                m.bound,
                if ok { "agree" } else { "DISAGREE" }
            ));
            all_ok &= ok;
            println!("{line}");
        }
    }
    if all_ok {
        println!("\nsteady: every metric of every workload agrees within its bound");
        Ok(())
    } else {
        Err(BenchError::msg(
            "some metric spread or shifted beyond its bound",
        ))
    }
}
