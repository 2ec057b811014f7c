//! The input maker: everything the serving workloads send and load, built
//! from one seed with the workspace's own public functions.
//!
//! * the base network: the MNIST CNN (`models::mnist_cnn`) trained on
//!   synthetic digits;
//! * the detector: trained on the base network's logits of the CW-L2
//!   (κ = 0) targeted adversarials crafted from seed digits (the attack
//!   sweep `Detector::train_against` runs, here spread over the thread
//!   budget) and of as many benign digits — the seeds plus fresh ones, so
//!   the two classes are balanced;
//! * the DCN artifact `dcn-serve serve --dcn` loads (corrector r = 0.3,
//!   m = 50);
//! * the benign pool: held-out digits the base network labels correctly;
//! * the CW-L2 pool: targeted adversarials crafted against the base network
//!   from held-out digits it labels correctly, with their pre-attack label.
//!
//! The inputs are cached under the build directory, keyed by maker version
//! and seed, so only the first run in a checkout pays for them.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dcn_attacks::{evaluate_targeted, CwL2};
use dcn_core::{models, Corrector, Dcn, Detector, DetectorConfig};
use dcn_data::{synth_mnist, SynthConfig};
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::BenchError;

/// The maker seed the workloads use.
pub const MAKER_SEED: u64 = 7;
/// Bumped whenever the recipe below changes, so stale caches are ignored.
const MAKER_VERSION: u32 = 2;

const TRAIN_N: usize = 2000;
const TRAIN_EPOCHS: usize = 6;
const DETECTOR_SEEDS: usize = 24;
const DETECTOR_BENIGN: usize = 216;
const BENIGN_POOL: usize = 256;
const CWL2_SOURCES: usize = 8;

/// One pooled input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolItem {
    /// The pixels, `[1, 28, 28]` row-major in `[-0.5, 0.5]`.
    pub x: Vec<f32>,
    /// The true label (benign) or the pre-attack label (CW-L2).
    pub label: usize,
    /// The attack's target class; `None` for benign digits.
    pub target: Option<usize>,
}

/// A pool file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pool {
    /// Maker seed the pool was built from.
    pub seed: u64,
    /// The inputs.
    pub items: Vec<PoolItem>,
}

/// Paths of a complete input set.
#[derive(Debug, Clone)]
pub struct InputPaths {
    /// The DCN artifact.
    pub dcn: PathBuf,
    /// Benign pool.
    pub benign: PathBuf,
    /// CW-L2 pool.
    pub cwl2: PathBuf,
}

impl InputPaths {
    fn in_dir(dir: &Path) -> InputPaths {
        InputPaths {
            dcn: dir.join("dcn.json"),
            benign: dir.join("benign.json"),
            cwl2: dir.join("cwl2.json"),
        }
    }
}

/// The cache directory for `seed` under `build_dir`.
pub fn cache_dir(build_dir: &Path, seed: u64) -> PathBuf {
    build_dir
        .join("perfbench-inputs")
        .join(format!("v{MAKER_VERSION}-seed{seed}"))
}

/// Returns the cached inputs for `seed`, making them first when absent.
pub fn ensure(build_dir: &Path, seed: u64) -> Result<InputPaths, BenchError> {
    let dir = cache_dir(build_dir, seed);
    if dir.join("complete").exists() {
        return Ok(InputPaths::in_dir(&dir));
    }
    eprintln!("perfbench: no cached inputs for maker seed {seed}; making them");
    make(&dir, seed)
}

/// Builds every input from `seed` into `dir` (replacing what is there) and
/// prints how long it took.
pub fn make(dir: &Path, seed: u64) -> Result<InputPaths, BenchError> {
    let t0 = Instant::now();
    let tmp = dir.with_extension("partial");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SynthConfig::default();

    let train = synth_mnist(TRAIN_N, &cfg, &mut rng);
    let fresh = models::mnist_cnn(&mut rng)?;
    let base = models::train_classifier(fresh, &train, TRAIN_EPOCHS, 0.002, &mut rng)?;
    eprintln!(
        "perfbench: trained the base CNN ({TRAIN_N} digits, {TRAIN_EPOCHS} epochs) in {:.1} s",
        t0.elapsed().as_secs_f64()
    );

    // Detector: the logits `Detector::train_against` would train on, with
    // the CW-L2 sweep spread over the thread budget by `evaluate_targeted`.
    let det_data = synth_mnist(DETECTOR_SEEDS, &cfg, &mut rng);
    let det_seeds: Vec<Tensor> = (0..det_data.len())
        .map(|i| det_data.example(i))
        .collect::<Result<_, _>>()?;
    let attack = CwL2::new(0.0);
    let (_, crafted) = evaluate_targeted(&attack, &base, &det_seeds)?;
    let extra = synth_mnist(DETECTOR_BENIGN - DETECTOR_SEEDS, &cfg, &mut rng);
    let mut benign_logits: Vec<Tensor> = det_seeds
        .iter()
        .map(|x| base.logits_one(x))
        .collect::<Result<_, _>>()?;
    for i in 0..extra.len() {
        benign_logits.push(base.logits_one(&extra.example(i)?)?);
    }
    let adv_logits: Vec<Tensor> = crafted
        .iter()
        .map(|a| base.logits_one(&a.adversarial))
        .collect::<Result<_, _>>()?;
    let detector = Detector::train_from_logits(
        &benign_logits,
        &adv_logits,
        &DetectorConfig::default(),
        &mut rng,
    )?;
    eprintln!(
        "perfbench: trained the detector on {} benign and {} CW-L2 logits ({:.1} s so far)",
        benign_logits.len(),
        adv_logits.len(),
        t0.elapsed().as_secs_f64()
    );

    // Held-out digits the base network labels correctly.
    let held = synth_mnist(BENIGN_POOL * 2 + CWL2_SOURCES * 4, &cfg, &mut rng);
    let mut correct = Vec::new();
    for i in 0..held.len() {
        let x = held.example(i)?;
        if base.predict_one(&x)? == held.labels()[i] {
            correct.push((x, held.labels()[i]));
        }
    }
    if correct.len() < BENIGN_POOL + CWL2_SOURCES {
        return Err(BenchError::msg(format!(
            "the base network labels only {} of {} held-out digits correctly",
            correct.len(),
            held.len()
        )));
    }
    let sources: Vec<Tensor> = correct[BENIGN_POOL..BENIGN_POOL + CWL2_SOURCES]
        .iter()
        .map(|(x, _)| x.clone())
        .collect();
    let (_, adversarials) = evaluate_targeted(&attack, &base, &sources)?;
    let benign = Pool {
        seed,
        items: correct[..BENIGN_POOL]
            .iter()
            .map(|(x, label)| PoolItem {
                x: x.data().to_vec(),
                label: *label,
                target: None,
            })
            .collect(),
    };
    let cwl2 = Pool {
        seed,
        items: adversarials
            .iter()
            .map(|a| PoolItem {
                x: a.adversarial.data().to_vec(),
                label: a.original_label,
                target: a.target,
            })
            .collect(),
    };
    if cwl2.items.is_empty() {
        return Err(BenchError::msg("CW-L2 produced no adversarial examples"));
    }

    let dcn = Dcn::new(base, detector, Corrector::mnist_default());
    let paths = InputPaths::in_dir(&tmp);
    std::fs::write(&paths.dcn, serde_json::to_string(&dcn)?)?;
    std::fs::write(&paths.benign, serde_json::to_string(&benign)?)?;
    std::fs::write(&paths.cwl2, serde_json::to_string(&cwl2)?)?;
    std::fs::write(tmp.join("complete"), b"")?;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::rename(&tmp, dir)?;
    eprintln!(
        "perfbench: made inputs for maker seed {seed} in {:.1} s: {} benign digits, {} CW-L2 \
         adversarials from {CWL2_SOURCES} sources → {}",
        t0.elapsed().as_secs_f64(),
        benign.items.len(),
        cwl2.items.len(),
        dir.display()
    );
    Ok(InputPaths::in_dir(dir))
}

/// Reads a pool file.
pub fn load_pool(path: &Path) -> Result<Pool, BenchError> {
    Ok(serde_json::from_str(&std::fs::read_to_string(path)?)?)
}

/// Reads the DCN artifact.
pub fn load_dcn(path: &Path) -> Result<Dcn, BenchError> {
    Ok(serde_json::from_str(&std::fs::read_to_string(path)?)?)
}
