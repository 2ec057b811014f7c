//! The traced run's in-process parts: replays that time the public calls
//! of each layer on the workloads' own shapes, and a BSP job run in this
//! process so the parameter server's existing latency sketches can be read.

use std::hint::black_box;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use dcn_core::DcnVerdict;
use dcn_nn::{softmax_cross_entropy, Classifier, Layer, Network};
use dcn_ps::{ClientMsg, ServerMsg};
use dcn_serve::{OkResponse, Request, Response, WireMode};
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::serving::{Corpus, Traffic};
use crate::stats::median;
use crate::BenchError;

/// Wall time budget per timed call site.
const BUDGET: Duration = Duration::from_millis(150);

/// Median seconds per call of `f`, over as many calls as fit in the budget
/// (at least `min_reps`). Results go through `black_box` so the measured
/// work cannot be optimised away.
fn time_median<T>(
    min_reps: usize,
    mut f: impl FnMut() -> Result<T, BenchError>,
) -> Result<f64, BenchError> {
    black_box(f()?); // warm caches and scratch pools
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < BUDGET {
        let t = Instant::now();
        black_box(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// A classifier that answers instantly, so a vote costs only its sampling.
/// When `seen` is set it keeps the rows it is handed, so one vote yields
/// the batch the corrector's own draw produced.
struct Stub {
    shape: Vec<usize>,
    classes: usize,
    seen: Option<Mutex<Vec<f32>>>,
}

impl Classifier for Stub {
    fn logits_batch(&self, x: &Tensor) -> dcn_nn::Result<Tensor> {
        if let Some(seen) = &self.seen {
            // Chunks may arrive from several threads in any order; the
            // order of a vote batch's rows does not change its forward time.
            seen.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(x.data());
        }
        Ok(Tensor::zeros(&[x.shape()[0], self.classes]))
    }
    fn class_count(&self) -> usize {
        self.classes
    }
    fn example_shape(&self) -> &[usize] {
        &self.shape
    }
}

/// Per-layer replay figures.
pub struct Replays {
    pub wire_us_per_req: f64,
    pub vote_sampling_us_per_vote: f64,
    pub forward_us_b1: f64,
    pub conv_us_b1: f64,
    pub forward_us_per_pass_vote: f64,
    pub conv_us_per_pass_vote: f64,
    pub dense_us_per_pass_vote: f64,
    pub relu_us_per_pass_vote: f64,
    pub conv_gflops_vote: f64,
    pub train_step_ms: f64,
    pub ps_wire_bytes_per_step: f64,
    pub ps_wire_us_per_step: f64,
}

/// Median time of each layer's `infer` on the activations `x` produces,
/// summed per layer kind: (conv, dense, relu, conv FLOPs).
fn per_kind(net: &Network, x: &Tensor) -> Result<(f64, f64, f64, f64), BenchError> {
    let (mut conv, mut dense, mut relu, mut flops) = (0.0, 0.0, 0.0, 0.0);
    let n = x.shape()[0] as f64;
    let mut cur = x.clone();
    for layer in net.layers() {
        let t = time_median(5, || Ok(layer.infer(black_box(&cur))?))?;
        match layer {
            Layer::Conv2d(c) => {
                let g = c.geometry();
                conv += t;
                flops +=
                    2.0 * n * (g.out_h() * g.out_w() * c.out_channels() * g.patch_len()) as f64;
            }
            Layer::Dense(_) => dense += t,
            Layer::Relu(_) => relu += t,
            _ => {}
        }
        cur = layer.infer(&cur)?;
    }
    Ok((conv, dense, relu, flops))
}

/// Times every replayed call site on inputs drawn from `traffic`.
pub fn replays(corpus: &Corpus, traffic: &mut Traffic, seed: u64) -> Result<Replays, BenchError> {
    let net = corpus.dcn.base();
    let shape = net.input_shape().to_vec();

    // Wire codec: one request and its answer, both directions.
    let reqs: Vec<(u64, Tensor)> = (0..64)
        .map(|_| {
            let (item, s) = traffic.next_request();
            (s, corpus.items[item].x.clone())
        })
        .collect();
    let mut k = 0usize;
    let wire = time_median(64, || {
        let (s, x) = &reqs[k % reqs.len()];
        k += 1;
        let req = Request::new(k as u64, *s, black_box(x).clone());
        let bytes = dcn_serve::encode_request(&req, WireMode::Binary)?;
        let back = dcn_serve::decode_request(&bytes, WireMode::Binary)?;
        let resp = Response::Ok(OkResponse {
            id: back.id,
            label: 3,
            verdict: DcnVerdict::PassedThrough,
            base_passes: 1,
            degraded: false,
            shed: false,
        });
        let bytes = dcn_serve::encode_response(&resp, WireMode::Binary)?;
        Ok(dcn_serve::decode_response(&bytes, WireMode::Binary)?)
    })?;

    // Vote sampling against a classifier that costs nothing.
    let corrector = *corpus.dcn.corrector();
    let mut stub = Stub {
        shape: shape.clone(),
        classes: net.num_classes()?,
        seen: None,
    };
    let x0 = &reqs[0].1;
    let mut rng = StdRng::seed_from_u64(seed);
    let sampling = time_median(5, || {
        Ok(corrector.vote_counts(&stub, black_box(x0), &mut rng)?)
    })?;

    // Batch of one.
    let b1 = x0.reshape(&batch_shape(1, &shape))?;
    let forward_b1 = time_median(20, || Ok(net.forward(black_box(&b1))?))?;
    let (conv_b1, _, _, _) = per_kind(net, &b1)?;

    // A vote batch: the m points one vote draws in the r-cube around a
    // digit, as the stub was handed them.
    let m = corrector.samples();
    stub.seen = Some(Mutex::new(Vec::with_capacity(m * x0.len())));
    corrector.vote_counts(&stub, x0, &mut rng)?;
    let rows = stub
        .seen
        .take()
        .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
        .unwrap_or_default();
    let vote = Tensor::from_vec(batch_shape(m, &shape), rows)?;
    let forward_vote = time_median(5, || Ok(net.forward(black_box(&vote))?))?;
    let (conv_v, dense_v, relu_v, flops_v) = per_kind(net, &vote)?;

    // One training step on a 32-batch.
    let (xs, labels): (Vec<Tensor>, Vec<usize>) = corpus
        .benign()
        .iter()
        .take(32)
        .map(|&i| (corpus.items[i].x.clone(), corpus.items[i].label))
        .unzip();
    let batch = Tensor::stack(&xs)?;
    let train_step = time_median(5, || {
        let (logits, caches) = net.forward_train(black_box(&batch))?;
        let loss = softmax_cross_entropy(&logits, &labels, 1.0)?;
        Ok(net.backward(&loss.grad, &caches)?)
    })?;

    // Parameter-server frames of one BSP step: the Work broadcast and the
    // gradient push, both the size of the model.
    let params = net.export_param_data();
    let work = ServerMsg::Work {
        epoch: 0,
        batch: 0,
        version: 0,
        params: params.clone(),
    };
    let push = ClientMsg::PushGrads {
        worker: 0,
        epoch: 0,
        batch: 0,
        version: 0,
        loss: 0.5,
        grads: params,
    };
    let ps_bytes = dcn_ps::encode_server(&work).len() + dcn_ps::encode_client(&push).len();
    let ps_wire = time_median(5, || {
        let w = dcn_ps::decode_server(&dcn_ps::encode_server(black_box(&work)))?;
        Ok((
            w,
            dcn_ps::decode_client(&dcn_ps::encode_client(black_box(&push)))?,
        ))
    })?;

    let per_pass = 1e6 / m as f64;
    Ok(Replays {
        wire_us_per_req: wire * 1e6,
        vote_sampling_us_per_vote: sampling * per_pass,
        forward_us_b1: forward_b1 * 1e6,
        conv_us_b1: conv_b1 * 1e6,
        forward_us_per_pass_vote: forward_vote * per_pass,
        conv_us_per_pass_vote: conv_v * per_pass,
        dense_us_per_pass_vote: dense_v * per_pass,
        relu_us_per_pass_vote: relu_v * per_pass,
        conv_gflops_vote: flops_v / conv_v / 1e9,
        train_step_ms: train_step * 1e3,
        ps_wire_bytes_per_step: ps_bytes as f64,
        ps_wire_us_per_step: ps_wire * 1e6,
    })
}

/// `[n, shape…]`.
fn batch_shape(n: usize, shape: &[usize]) -> Vec<usize> {
    let mut out = vec![n];
    out.extend_from_slice(shape);
    out
}

/// A BSP job run in this process (two worker threads), with the metrics
/// registry on so the parameter server's latency sketches fill.
pub struct PsProbe {
    pub steps: u64,
    pub wall_s: f64,
    pub compute_ms: f64,
    pub apply_ms: f64,
    pub epoch_losses: Vec<f32>,
}

impl PsProbe {
    /// Wall time per step not spent computing or applying: the exchange.
    pub fn exchange_ms(&self) -> f64 {
        self.wall_s * 1e3 / self.steps.max(1) as f64 - self.compute_ms - self.apply_ms
    }
}

/// Runs the job; the model is written to `out` when given.
pub fn ps_inprocess(
    n: usize,
    epochs: usize,
    seed: u64,
    out: Option<&Path>,
) -> Result<PsProbe, BenchError> {
    let cfg = dcn_ps::ServerConfig {
        n,
        epochs,
        batch_size: crate::training::BATCH,
        seed,
        workers: crate::training::WORKERS,
        out: out.map(Path::to_path_buf),
        ..dcn_ps::ServerConfig::default()
    };
    dcn_obs::set_enabled(true);
    let before = dcn_obs::snapshot("perfbench_ps");
    let t = Instant::now();
    let summary = dcn_ps::serve(cfg)?.drive_local(crate::training::WORKERS);
    let wall_s = t.elapsed().as_secs_f64();
    let after = dcn_obs::snapshot("perfbench_ps");
    dcn_obs::set_enabled(false);
    let summary = summary?;
    let mean_ms = |name: &str| -> f64 {
        let (c0, s0) = before.sketch(name).map_or((0, 0.0), |s| (s.count, s.sum));
        let (c1, s1) = after.sketch(name).map_or((0, 0.0), |s| (s.count, s.sum));
        (s1 - s0) * 1e3 / (c1 - c0).max(1) as f64
    };
    Ok(PsProbe {
        steps: summary.version,
        wall_s,
        compute_ms: mean_ms(dcn_ps::names::PS_COMPUTE_LATENCY),
        apply_ms: mean_ms(dcn_ps::names::PS_APPLY_LATENCY),
        epoch_losses: summary.epoch_losses,
    })
}
