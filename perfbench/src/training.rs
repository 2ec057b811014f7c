//! The training workload: `dcn-ps train` (the orchestrator: a parameter
//! server plus two worker processes) trains the MNIST CNN with BSP on
//! synthetic digits; the written model and the server's summary are
//! checked.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use dcn_data::{synth_mnist, SynthConfig};
use dcn_nn::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::reference;
use crate::sys::{Proc, Usage};
use crate::BenchError;

/// Training examples per job.
pub const N: usize = 2000;
/// Global batch size.
pub const BATCH: usize = 32;
/// Worker processes.
pub const WORKERS: usize = 2;
/// Epochs per job.
pub const EPOCHS: usize = 2;
/// Held-out digits the written model is scored on.
const HELD_OUT: usize = 500;
/// Accuracy floor of the written model on held-out digits.
const MIN_ACCURACY: f64 = 0.95;
/// Longest a job may take before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(150);

/// Batches one job applies: BSP's exactly-once fence makes this exact.
pub fn steps_per_job() -> u64 {
    (EPOCHS * N.div_ceil(BATCH)) as u64
}

/// Job seeds are derived from the run seed.
pub fn job_seed(run_seed: u64, job: u64) -> u64 {
    run_seed.wrapping_mul(1000).wrapping_add(job)
}

fn ps_command(bin_dir: &Path, subcommand: &str, seed: u64, out: &Path) -> Command {
    let mut cmd = Command::new(bin_dir.join("dcn-ps"));
    cmd.arg(subcommand)
        .args(["--task", "mnist", "--mode", "bsp"])
        .args(["--n", &N.to_string(), "--epochs", &EPOCHS.to_string()])
        .args(["--batch-size", &BATCH.to_string()])
        .args([
            "--workers",
            &WORKERS.to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .arg("--out")
        .arg(out);
    cmd
}

/// Set-up of a job: from spawning the parameter server to the line saying
/// it listens (the job is rebuilt and the port bound, so workers can dial).
/// The server is stopped right after; returns the wall seconds and the
/// server's resource usage.
pub fn setup_time(bin_dir: &Path, seed: u64, out: &Path) -> Result<(f64, Usage), BenchError> {
    let t0 = Instant::now();
    let mut cmd = ps_command(bin_dir, "serve", seed, out);
    cmd.args(["--bind", "127.0.0.1:0"]);
    let mut server = Proc::spawn(cmd, "dcn-ps serve")?;
    server.wait_line("listening on ")?;
    let t = t0.elapsed().as_secs_f64();
    Ok((t, server.stop()?))
}

/// One finished job.
pub struct Job {
    /// Wall seconds from spawning `dcn-ps train` to its exit.
    pub wall_s: f64,
    /// CPU and peak memory of the orchestrator and its workers.
    pub usage: Usage,
    /// Problems with the job's outputs.
    pub violations: Vec<String>,
    /// Whether the job failed to run to its end.
    pub failed: bool,
}

impl Job {
    /// Samples applied per second.
    pub fn samples_per_s(&self) -> f64 {
        (EPOCHS * N) as f64 / self.wall_s
    }

    /// Wall ms per BSP step.
    pub fn step_ms(&self) -> f64 {
        self.wall_s * 1e3 / steps_per_job() as f64
    }

    /// CPU ms (server plus workers) per applied sample.
    pub fn cpu_ms_per_sample(&self) -> f64 {
        self.usage.cpu_s() * 1e3 / (EPOCHS * N) as f64
    }
}

/// Runs one job with the `dcn-ps train` orchestrator (an in-process server
/// plus worker child processes) to its end and checks it. `wait4` on the
/// orchestrator reports its CPU time plus that of the workers it reaped.
pub fn run_job(bin_dir: &Path, work_dir: &Path, seed: u64) -> Result<Job, BenchError> {
    let out = work_dir.join(format!("model-{seed}.json"));
    let t0 = Instant::now();
    let train = Proc::spawn(ps_command(bin_dir, "train", seed, &out), "dcn-ps train")?;
    let (code, usage, lines) = train.wait_usage(JOB_TIMEOUT)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let failed = code != 0;
    let violations = if failed {
        Vec::new()
    } else {
        check_job(&lines, &out, seed)?
    };
    let _ = std::fs::remove_file(&out);
    Ok(Job {
        wall_s,
        usage,
        violations,
        failed,
    })
}

/// Checks the summary lines the server printed and the model it wrote.
pub fn check_job(lines: &[String], model: &Path, seed: u64) -> Result<Vec<String>, BenchError> {
    let mut out = Vec::new();
    let field = |key: &str| -> Option<String> {
        lines.iter().find_map(|l| {
            l.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key).map(str::to_string))
        })
    };
    let version: Option<u64> = field("version=").and_then(|v| v.parse().ok());
    if version != Some(steps_per_job()) {
        out.push(format!(
            "job {seed} applied {version:?} batches, not exactly {}",
            steps_per_job()
        ));
    }
    let losses: Vec<f32> = lines
        .iter()
        .find_map(|l| l.strip_prefix("epoch_losses=["))
        .map(|l| {
            l.trim_end_matches(']')
                .split(',')
                .filter_map(|v| v.trim().parse().ok())
                .collect()
        })
        .unwrap_or_default();
    out.extend(check_losses(&losses, seed));
    let net = Network::load(model)?;
    out.extend(check_accuracy(&net, seed)?);
    Ok(out)
}

/// Every epoch loss is finite and the last is below the first.
pub fn check_losses(losses: &[f32], seed: u64) -> Vec<String> {
    if losses.len() != EPOCHS {
        return vec![format!(
            "job {seed} reported {} epoch losses, not {EPOCHS}",
            losses.len()
        )];
    }
    let mut out = Vec::new();
    if losses.iter().any(|l| !l.is_finite()) {
        out.push(format!(
            "job {seed} has a non-finite epoch loss: {losses:?}"
        ));
    }
    if losses.last() >= losses.first() {
        out.push(format!("job {seed}'s loss did not fall: {losses:?}"));
    }
    out
}

/// The model labels at least the floor of fresh held-out digits correctly,
/// by the reference forward.
pub fn check_accuracy(net: &Network, seed: u64) -> Result<Vec<String>, BenchError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_ed0f_d161_7500);
    let held = synth_mnist(HELD_OUT, &SynthConfig::default(), &mut rng);
    let mut correct = 0usize;
    for i in 0..held.len() {
        let x = held.example(i)?;
        if reference::argmax(&reference::logits(net, x.data())?) == held.labels()[i] {
            correct += 1;
        }
    }
    let acc = correct as f64 / held.len() as f64;
    Ok(if acc < MIN_ACCURACY {
        vec![format!(
            "job {seed}'s model labels {correct}/{} held-out digits correctly (floor {MIN_ACCURACY})",
            held.len()
        )]
    } else {
        Vec::new()
    })
}
