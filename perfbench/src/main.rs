//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload mnist_benign|mnist_adv50|train_bsp --seed N
//!           --seconds T --trace 0|1
//! perfbench make-inputs [--seed 7]
//! perfbench steady [--runs 10]
//! ```
//!
//! Run it through `bash perfbench/run.sh …` from the repository root: the
//! script builds `dcn-serve`, `dcn-ps` and this program first. The last
//! stdout line of a workload run is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; see README.md for what each
//! workload runs and measures.

mod inputs;
mod layers;
mod reference;
mod serving;
mod stats;
mod steady;
mod sys;
mod training;
mod workloads;

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;

/// Any failure of the benchmark itself: a message for stderr.
#[derive(Debug)]
pub struct BenchError(String);

impl BenchError {
    /// An error from a message.
    pub fn msg(m: impl Into<String>) -> BenchError {
        BenchError(m.into())
    }
}

impl<E: std::error::Error> From<E> for BenchError {
    fn from(e: E) -> BenchError {
        BenchError(e.to_string())
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Where the binaries and the cached inputs live.
pub struct Ctx {
    /// Directory holding `dcn-serve`, `dcn-ps` and this program.
    pub bin_dir: PathBuf,
    /// The cargo target directory (the inputs cache sits under it).
    pub build_dir: PathBuf,
}

impl Ctx {
    fn locate() -> Result<Ctx, BenchError> {
        let exe = std::env::current_exe()?;
        let bin_dir = exe
            .parent()
            .ok_or_else(|| BenchError::msg("executable has no directory"))?
            .to_path_buf();
        let build_dir = bin_dir
            .parent()
            .ok_or_else(|| BenchError::msg("executable is not in a cargo target directory"))?
            .to_path_buf();
        for bin in ["dcn-serve", "dcn-ps"] {
            if !bin_dir.join(bin).exists() {
                return Err(BenchError::msg(format!(
                    "{} is missing; run the benchmark through perfbench/run.sh",
                    bin_dir.join(bin).display()
                )));
            }
        }
        Ok(Ctx { bin_dir, build_dir })
    }
}

/// `--key value` pairs.
pub fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, BenchError> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| BenchError::msg(format!("expected --flag, got {k:?}")))?;
        let v = it
            .next()
            .ok_or_else(|| BenchError::msg(format!("--{key} needs a value")))?;
        flags.insert(key.to_string(), v.clone());
    }
    Ok(flags)
}

/// A required or defaulted numeric flag.
pub fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, BenchError> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| BenchError::msg(format!("--{key}: cannot parse {v:?}"))),
        None => default.ok_or_else(|| BenchError::msg(format!("missing --{key}"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("make-inputs") => make_inputs(&args[1..]),
        Some("steady") => steady::main(&args[1..]),
        Some("help" | "--help" | "-h") | None => {
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds T --trace 0|1\n       \
                 perfbench make-inputs [--seed 7]\n       \
                 perfbench steady [--runs 10]"
            );
            Err(BenchError::msg("no command"))
        }
        Some(_) => workloads::main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn make_inputs(args: &[String]) -> Result<(), BenchError> {
    let flags = parse_flags(args)?;
    let ctx = Ctx::locate()?;
    let seed = num(&flags, "seed", Some(inputs::MAKER_SEED))?;
    let dir = inputs::cache_dir(&ctx.build_dir, seed);
    inputs::make(&dir, seed)?;
    Ok(())
}
