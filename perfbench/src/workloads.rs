//! One benchmark run: a workload, a seed, a duration, traced or not.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dcn_core::BatchRequest;
use serde::Value;

use crate::layers::{self, PsProbe, Replays};
use crate::serving::{
    self, open_loop, saturate, sequential, start_and_answer, Corpus, Mix, Phase, ServerProc, Tally,
    Traffic,
};
use crate::stats::{median, percentile};
use crate::sys::{self, HostCpu};
use crate::training;
use crate::{inputs, num, parse_flags, BenchError, Ctx};

/// The workloads, in BENCHMARK.json order.
pub const WORKLOADS: [&str; 3] = ["mnist_benign", "mnist_adv50", "train_bsp"];

/// Set-ups timed per run; `setup_s` is their median CPU cost.
const SETUP_REPEATS: usize = 15;
/// Sequential requests after set-up, before anything is timed.
const WARMUP: usize = 50;
/// Latency charged to a request that never got an answer, ms.
const UNANSWERED_MS: f64 = 30_000.0;
/// Share of the run spent at the fixed rate (the rest saturates).
const FIXED_SHARE: f64 = 0.6;

/// Load shape of a serving mix.
struct Load {
    /// Offered rate of the open-loop phase, requests per second.
    rate: f64,
    /// Requests in flight per connection (two connections) when saturating.
    depth: usize,
}

fn load_of(mix: Mix) -> Load {
    match mix {
        Mix::Benign => Load {
            rate: 400.0,
            depth: 16,
        },
        Mix::Adv50 => Load {
            rate: 150.0,
            depth: 4,
        },
    }
}

/// What a run prints.
struct Outcome {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn add_tally(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.violations.extend(tally.verdict());
    }

    /// Every check held and every operation got its answer.
    fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    fn json(&self) -> Result<String, BenchError> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(BenchError::msg(format!(
                    "metric {name} is not finite: {value}"
                )));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Entry point of `perfbench --workload … --seed … --seconds … --trace …`.
pub fn main(args: &[String]) -> Result<(), BenchError> {
    let flags = parse_flags(args)?;
    let workload = flags
        .get("workload")
        .cloned()
        .ok_or_else(|| BenchError::msg("missing --workload"))?;
    let seed: u64 = num(&flags, "seed", None)?;
    let seconds: f64 = num(&flags, "seconds", None)?;
    let trace: u8 = num(&flags, "trace", None)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(BenchError::msg(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        )));
    }
    if !(seconds > 0.0 && seconds <= 120.0) || trace > 1 {
        return Err(BenchError::msg(
            "--seconds must be in (0, 120] and --trace 0 or 1",
        ));
    }
    let ctx = Ctx::locate()?;
    let t_inputs = Instant::now();
    let paths = inputs::ensure(&ctx.build_dir, inputs::MAKER_SEED)?;
    let corpus = Corpus::load(&paths)?;
    eprintln!(
        "perfbench: inputs ready in {:.2} s ({} pooled items, m = {})",
        t_inputs.elapsed().as_secs_f64(),
        corpus.items.len(),
        corpus.m
    );
    let host0 = HostCpu::read();
    let t0 = Instant::now();
    let mix = match workload.as_str() {
        "mnist_benign" => Some(Mix::Benign),
        "mnist_adv50" => Some(Mix::Adv50),
        _ => None,
    };
    let outcome = match (mix, trace) {
        (Some(mix), 0) => serving_run(&ctx, &corpus, mix, seed, seconds)?,
        (None, 0) => training_run(&ctx, seed, seconds)?,
        (Some(mix), _) => {
            let t = seconds;
            layer_run(&ctx, &corpus, mix, seed, (0.3 * t, 0.2 * t), (512, 1))?
        }
        (None, _) => layer_run(
            &ctx,
            &corpus,
            Mix::Benign,
            seed,
            (2.0, 1.0),
            (training::N, training::EPOCHS),
        )?,
    };
    println!(
        "perfbench: {workload} seed {seed}: attempted {} failed {}; host steal {:.1} % over \
         {:.1} s; {} cores, server thread budget {}",
        outcome.attempted,
        outcome.failed,
        HostCpu::read().steal_pct_since(&host0),
        t0.elapsed().as_secs_f64(),
        sys::cores(),
        sys::default_thread_budget()
    );
    for v in &outcome.violations {
        println!("perfbench: CHECK FAILED: {v}");
    }
    if outcome.failed > 0 {
        println!(
            "perfbench: CHECK FAILED: {} of {} operations got no answer or an error",
            outcome.failed, outcome.attempted
        );
    }
    println!("{}", outcome.json()?);
    Ok(())
}

/// Set-up cost: starts the server `SETUP_REPEATS` times, each answering
/// one request and then stopped. Returns the median CPU seconds a start
/// cost (the set-up work: host steal inflates wall time several-fold on this
/// host but not CPU time) and the median wall seconds, which are printed.
fn setup_cost(
    ctx: &Ctx,
    corpus: &Corpus,
    dcn_path: &Path,
    traffic: &mut Traffic,
    next_id: &mut u64,
    tally: &mut Tally,
) -> Result<(f64, f64), BenchError> {
    let mut cpu = Vec::with_capacity(SETUP_REPEATS);
    let mut wall = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let (server, t, first) = start_and_answer(&ctx.bin_dir, dcn_path, traffic, next_id)?;
        tally.add(corpus, &first);
        wall.push(t);
        cpu.push(server.stop()?.cpu_s());
    }
    Ok((median(&cpu), median(&wall)))
}

/// Latencies of a fixed-rate phase with unanswered requests charged as late.
fn fixed_latencies(phase: &Phase) -> Vec<f64> {
    phase
        .recs
        .iter()
        .map(|r| r.latency_ms().unwrap_or(UNANSWERED_MS))
        .collect()
}

fn answered(phase: &Phase) -> usize {
    phase.recs.iter().filter(|r| r.resp.is_some()).count()
}

/// Server CPU ms per answered request between two `server_cpu` readings.
fn cpu_ms_per_req(before: (f64, f64), after: (f64, f64), phase: &Phase) -> f64 {
    ((after.0 + after.1) - (before.0 + before.1)) * 1e3 / answered(phase).max(1) as f64
}

/// Prints a fixed-rate phase: median latency, the highest percentile with
/// at least ten samples beyond it, the maximum, CPU per request and how late
/// the generator ran.
fn print_phase(name: &str, phase: &Phase, cpu_ms: f64) {
    let lat = fixed_latencies(phase);
    let n = lat.len();
    let tail = if n >= 40 {
        let p = (1000.0 * (1.0 - 10.0 / n as f64)).floor() / 10.0;
        format!("p{p} {:.3} ms, ", percentile(&lat, p))
    } else {
        String::new()
    };
    let (late_mean, late_max) = phase.lateness_ms();
    println!(
        "perfbench: {name}: {n} requests, p50 {:.3} ms, {tail}max {:.3} ms, {cpu_ms:.4} server \
         CPU ms per request; generator late by {late_mean:.3} ms on average, {late_max:.3} ms \
         at most",
        median(&lat),
        lat.iter().copied().fold(0.0, f64::max),
    );
}

fn sat_traffics<'a>(corpus: &'a Corpus, mix: Mix, seed: u64) -> [Traffic<'a>; 2] {
    let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    [
        Traffic::new(corpus, mix, s ^ 1),
        Traffic::new(corpus, mix, s ^ 2),
    ]
}

/// A serving workload, untraced: set-up, warm-up, fixed rate, saturation.
fn serving_run(
    ctx: &Ctx,
    corpus: &Corpus,
    mix: Mix,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, BenchError> {
    let load = load_of(mix);
    let dcn_path = inputs::cache_dir(&ctx.build_dir, inputs::MAKER_SEED).join("dcn.json");
    let mut tally = Tally::default();
    let mut next_id = 1u64;
    let mut traffic = Traffic::new(corpus, mix, seed);
    // Every set-up answers a benign digit, so both mixes time the same work.
    let (setup_s, setup_wall) = setup_cost(
        ctx,
        corpus,
        &dcn_path,
        &mut Traffic::new(corpus, Mix::Benign, seed),
        &mut next_id,
        &mut tally,
    )?;
    println!(
        "perfbench: set-up: median {setup_s:.4} CPU s, {setup_wall:.4} wall s over \
         {SETUP_REPEATS} starts"
    );
    let server = ServerProc::start(&ctx.bin_dir, &dcn_path, false)?;
    tally.add(
        corpus,
        &sequential(&server.addr, &mut traffic, &mut next_id, WARMUP)?,
    );

    let c0 = serving::server_cpu(&server)?;
    let fixed = open_loop(
        &server.addr,
        &mut traffic,
        &mut next_id,
        load.rate,
        seconds * FIXED_SHARE,
    )?;
    let c1 = serving::server_cpu(&server)?;
    tally.add(corpus, &fixed);
    print_phase("fixed rate", &fixed, cpu_ms_per_req(c0, c1, &fixed));

    let sat = saturate(
        &server.addr,
        sat_traffics(corpus, mix, seed),
        &mut next_id,
        load.depth,
        seconds * (1.0 - FIXED_SHARE),
    )?;
    let c2 = serving::server_cpu(&server)?;
    tally.add(corpus, &sat);
    let usage = server.stop()?;
    let sat_cpu_ms = cpu_ms_per_req(c1, c2, &sat);
    println!(
        "perfbench: saturation: {} requests at depth {} × 2, {:.1} answers/s, {sat_cpu_ms:.4} \
         server CPU ms per request; server peak memory {:.1} MB; {:.3} base passes per \
         request over the run; {} benign ({} true label), {} CW-L2 ({} flagged, {} restored)",
        sat.recs.len(),
        load.depth,
        sat.throughput_per_s(),
        usage.peak_rss_mb,
        tally.passes_per_req(),
        tally.benign,
        tally.benign_ok,
        tally.adv,
        tally.adv_flagged,
        tally.adv_restored
    );

    let mut out = Outcome::new();
    out.add_tally(&tally);
    out.metric("setup_s", setup_s, "s");
    out.metric("cpu_ms_per_op", sat_cpu_ms, "ms");
    Ok(out)
}

/// The training workload, untraced: `SETUP_REPEATS` timed set-ups, then
/// whole BSP jobs while one more is expected to end within `seconds`.
fn training_run(ctx: &Ctx, seed: u64, seconds: f64) -> Result<Outcome, BenchError> {
    let work = work_dir(ctx)?;
    let unused = work.join("unused.json");
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPEATS {
        let (wall, usage) =
            training::setup_time(&ctx.bin_dir, training::job_seed(seed, 0), &unused)?;
        setup_wall.push(wall);
        setup_cpu.push(usage.cpu_s());
    }
    println!(
        "perfbench: set-up: median {:.4} CPU s, {:.4} wall s over {SETUP_REPEATS} starts",
        median(&setup_cpu),
        median(&setup_wall)
    );
    let start = Instant::now();
    let mut out = Outcome::new();
    let mut jobs = Vec::new();
    let mut last_s = 0.0;
    while jobs.is_empty() || start.elapsed().as_secs_f64() + last_s <= seconds {
        let job = training::run_job(
            &ctx.bin_dir,
            &work,
            training::job_seed(seed, jobs.len() as u64),
        )?;
        out.attempted += training::steps_per_job();
        if job.failed {
            out.failed += training::steps_per_job();
        }
        out.violations.extend(job.violations.iter().cloned());
        println!(
            "perfbench: job {}: {:.3} s, {:.3} ms per step, {:.1} samples/s, {:.4} CPU ms/sample, \
             peak memory {:.1} MB",
            jobs.len(),
            job.wall_s,
            job.step_ms(),
            job.samples_per_s(),
            job.cpu_ms_per_sample(),
            job.usage.peak_rss_mb
        );
        last_s = job.wall_s;
        jobs.push(job);
    }
    let _ = std::fs::remove_dir_all(&work);
    let ok: Vec<&training::Job> = jobs.iter().filter(|j| !j.failed).collect();
    let per = |f: fn(&training::Job) -> f64| median(&ok.iter().map(|j| f(j)).collect::<Vec<_>>());
    out.metric("setup_s", median(&setup_cpu), "s");
    out.metric("cpu_ms_per_op", per(training::Job::cpu_ms_per_sample), "ms");
    Ok(out)
}

fn work_dir(ctx: &Ctx) -> Result<PathBuf, BenchError> {
    let dir = ctx
        .build_dir
        .join(format!("perfbench-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Serving-side layer figures of a traced run.
struct ServeLayers {
    untraced_p50_ms: f64,
    enqueue_wait_us: f64,
    detector_us: f64,
    vote_us: f64,
    write_back_us: f64,
    batch_occupancy: f64,
    overhead_us: f64,
    passes_per_req: f64,
    par_regions_per_req: f64,
    sys_cpu_share: f64,
    trace_overhead_pct: f64,
}

fn field_f64(v: &Value, path: &[&str]) -> f64 {
    let mut cur = Some(v);
    for p in path {
        cur = cur.and_then(|c| c.get_field(p));
    }
    cur.and_then(Value::as_f64).unwrap_or(0.0)
}

fn snapshot(server: &ServerProc) -> Result<Value, BenchError> {
    Ok(serde_json::parse(&server.admin("snapshot")?)?)
}

/// Mean duration in µs of each stage in a Chrome trace export.
fn stage_means(chrome: &Value) -> HashMap<String, (f64, usize)> {
    let mut sums: HashMap<String, (f64, usize)> = HashMap::new();
    for ev in chrome.as_array().unwrap_or(&[]) {
        let (Some(name), Some(dur)) = (
            ev.get_field("name").and_then(Value::as_str),
            ev.get_field("dur").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let e = sums.entry(name.to_string()).or_insert((0.0, 0));
        e.0 += dur;
        e.1 += 1;
    }
    for v in sums.values_mut() {
        v.0 /= v.1 as f64;
    }
    sums
}

/// The serving half of a traced run: an untraced fixed-rate phase, then a
/// traced server (spans, metrics, admin endpoint) at the same rate and at
/// saturation; stage spans and counters are read over the admin endpoint.
fn serve_layers(
    ctx: &Ctx,
    corpus: &Corpus,
    mix: Mix,
    seed: u64,
    (t_fixed, t_sat): (f64, f64),
    tally: &mut Tally,
) -> Result<ServeLayers, BenchError> {
    let load = load_of(mix);
    let dcn_path = inputs::cache_dir(&ctx.build_dir, inputs::MAKER_SEED).join("dcn.json");
    let mut next_id = 1u64;
    let mut traffic = Traffic::new(corpus, mix, seed);

    let server = ServerProc::start(&ctx.bin_dir, &dcn_path, false)?;
    tally.add(
        corpus,
        &sequential(&server.addr, &mut traffic, &mut next_id, WARMUP)?,
    );
    let c0 = serving::server_cpu(&server)?;
    let plain = open_loop(&server.addr, &mut traffic, &mut next_id, load.rate, t_fixed)?;
    let c1 = serving::server_cpu(&server)?;
    server.stop()?;
    tally.add(corpus, &plain);
    let mut plain_tally = Tally::default();
    plain_tally.add(corpus, &plain);
    let plain_cpu = (c1.0 + c1.1) - (c0.0 + c0.1);
    let plain_cpu_ms = cpu_ms_per_req(c0, c1, &plain);
    let sys_share = (c1.1 - c0.1) / plain_cpu.max(1e-9);
    let untraced_p50_ms = median(&fixed_latencies(&plain));
    print_phase("untraced fixed rate", &plain, plain_cpu_ms);

    let server = ServerProc::start(&ctx.bin_dir, &dcn_path, true)?;
    tally.add(
        corpus,
        &sequential(&server.addr, &mut traffic, &mut next_id, WARMUP)?,
    );
    let s0 = snapshot(&server)?;
    let c0 = serving::server_cpu(&server)?;
    let traced = open_loop(&server.addr, &mut traffic, &mut next_id, load.rate, t_fixed)?;
    let c1 = serving::server_cpu(&server)?;
    let s1 = snapshot(&server)?;
    let chrome: Value = serde_json::parse(&server.admin("chrome")?)?;
    tally.add(corpus, &traced);
    let traced_cpu_ms = cpu_ms_per_req(c0, c1, &traced);
    print_phase("traced fixed rate", &traced, traced_cpu_ms);
    let sat = saturate(
        &server.addr,
        sat_traffics(corpus, mix, seed),
        &mut next_id,
        load.depth,
        t_sat,
    )?;
    let s2 = snapshot(&server)?;
    tally.add(corpus, &sat);
    server.stop()?;

    let stages = stage_means(&chrome);
    let stage = |name: &str| stages.get(name).map_or(0.0, |s| s.0);
    let counter = |s: &Value, n: &str| field_f64(s, &["counters", n]);
    let regions = |s: &Value| {
        counter(s, dcn_obs::names::PAR_REGIONS_TOTAL)
            - counter(s, dcn_obs::names::PAR_SERIAL_REGIONS_TOTAL)
    };
    let responses = counter(&s1, dcn_serve::names::SERVE_RESPONSES_TOTAL)
        - counter(&s0, dcn_serve::names::SERVE_RESPONSES_TOTAL);
    let occ = |s: &Value, f: &str| {
        field_f64(
            s,
            &["histograms", dcn_serve::names::SERVE_BATCH_OCCUPANCY, f],
        )
    };
    let batch_occupancy =
        (occ(&s2, "sum") - occ(&s1, "sum")) / (occ(&s2, "count") - occ(&s1, "count")).max(1.0);

    // The same requests in this process, one per batch, without the server.
    let mut gaps = Vec::new();
    for rec in plain.recs.iter().step_by((plain.recs.len() / 100).max(1)) {
        let Some(lat) = rec.latency_ms() else {
            continue;
        };
        let req = [BatchRequest::new(
            corpus.items[rec.item].x.clone(),
            rec.seed,
        )];
        let t = Instant::now();
        let _ = corpus.dcn.try_classify_batch(&req);
        gaps.push(lat * 1e3 - t.elapsed().as_secs_f64() * 1e6);
    }

    Ok(ServeLayers {
        untraced_p50_ms,
        enqueue_wait_us: stage(dcn_obs::names::TRACE_STAGE_ENQUEUE_WAIT),
        detector_us: stage(dcn_obs::names::TRACE_STAGE_DETECTOR_FORWARD),
        vote_us: stage(dcn_obs::names::TRACE_STAGE_VOTE_LOOP),
        write_back_us: stage(dcn_obs::names::TRACE_STAGE_WRITE_BACK),
        batch_occupancy,
        overhead_us: median(&gaps),
        passes_per_req: plain_tally.passes_per_req(),
        par_regions_per_req: (regions(&s1) - regions(&s0)) / responses.max(1.0),
        sys_cpu_share: sys_share,
        trace_overhead_pct: (traced_cpu_ms / plain_cpu_ms - 1.0) * 100.0,
    })
}

/// A traced run: the serving layers on `mix`, a BSP job in this process,
/// and the per-layer replays. Every per-layer metric is measured in every
/// traced run.
fn layer_run(
    ctx: &Ctx,
    corpus: &Corpus,
    mix: Mix,
    seed: u64,
    serve_times: (f64, f64),
    (ps_n, ps_epochs): (usize, usize),
) -> Result<Outcome, BenchError> {
    let mut out = Outcome::new();
    let mut tally = Tally::default();
    let sl = serve_layers(ctx, corpus, mix, seed, serve_times, &mut tally)?;
    out.add_tally(&tally);

    let mut traffic = Traffic::new(corpus, mix, seed ^ 0x7265_706c_6179);
    let r: Replays = layers::replays(corpus, &mut traffic, seed)?;

    let work = work_dir(ctx)?;
    let model = work.join("model.json");
    let job_seed = training::job_seed(seed, 0);
    let ps: PsProbe = layers::ps_inprocess(ps_n, ps_epochs, job_seed, Some(&model))?;
    let steps = (ps_epochs * ps_n.div_ceil(training::BATCH)) as u64;
    out.attempted += steps;
    if ps.steps != steps {
        out.violations.push(format!(
            "in-process job applied {} batches, not {steps}",
            ps.steps
        ));
    }
    if ps_epochs == training::EPOCHS && ps_n == training::N {
        out.violations
            .extend(training::check_losses(&ps.epoch_losses, job_seed));
        out.violations.extend(training::check_accuracy(
            &dcn_nn::Network::load(&model)?,
            job_seed,
        )?);
    } else if ps.epoch_losses.iter().any(|l| !l.is_finite()) {
        out.violations.push(format!(
            "in-process job loss not finite: {:?}",
            ps.epoch_losses
        ));
    }
    let _ = std::fs::remove_dir_all(&work);

    println!(
        "perfbench: stages (µs per request): enqueue wait {:.1}, detector forward {:.1}, \
         vote loop {:.1} (flagged only), write-back {:.1}; untraced p50 {:.3} ms",
        sl.enqueue_wait_us, sl.detector_us, sl.vote_us, sl.write_back_us, sl.untraced_p50_ms
    );
    out.metric("serve.wire_us_per_req", r.wire_us_per_req, "us");
    out.metric("serve.enqueue_wait_us", sl.enqueue_wait_us, "us");
    out.metric("serve.batch_occupancy", sl.batch_occupancy, "req/batch");
    out.metric("serve.write_back_us", sl.write_back_us, "us");
    out.metric("serve.overhead_us_per_req", sl.overhead_us, "us");
    out.metric("core.detector_us_per_req", sl.detector_us, "us");
    out.metric("core.vote_us_per_flagged_req", sl.vote_us, "us");
    out.metric("core.passes_per_req", sl.passes_per_req, "count");
    out.metric(
        "core.vote_sampling_us_per_vote",
        r.vote_sampling_us_per_vote,
        "us",
    );
    out.metric("nn.forward_us_per_pass.b1", r.forward_us_b1, "us");
    out.metric("nn.conv_us_per_pass.b1", r.conv_us_b1, "us");
    out.metric(
        "nn.forward_us_per_pass.vote",
        r.forward_us_per_pass_vote,
        "us",
    );
    out.metric("nn.conv_us_per_pass.vote", r.conv_us_per_pass_vote, "us");
    out.metric("nn.dense_us_per_pass.vote", r.dense_us_per_pass_vote, "us");
    out.metric("nn.relu_us_per_pass.vote", r.relu_us_per_pass_vote, "us");
    out.metric("nn.train_step_ms", r.train_step_ms, "ms");
    out.metric("tensor.conv_gflops.vote", r.conv_gflops_vote, "GFLOP/s");
    out.metric(
        "tensor.par_regions_per_req",
        sl.par_regions_per_req,
        "count",
    );
    out.metric("tensor.sys_cpu_share", sl.sys_cpu_share, "ratio");
    out.metric("ps.compute_ms_per_step", ps.compute_ms, "ms");
    out.metric("ps.apply_ms_per_step", ps.apply_ms, "ms");
    out.metric("ps.exchange_ms_per_step", ps.exchange_ms(), "ms");
    out.metric("ps.wire_bytes_per_step", r.ps_wire_bytes_per_step, "bytes");
    out.metric("ps.wire_us_per_step", r.ps_wire_us_per_step, "us");
    out.metric("obs.trace_overhead_pct", sl.trace_overhead_pct, "%");
    Ok(out)
}
