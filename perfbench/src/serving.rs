//! The serving workloads: a `dcn-serve serve` process fed open-loop at a
//! fixed rate on one connection, then saturated with a fixed number of
//! requests in flight on two connections; every answer is checked.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use dcn_core::Dcn;
use dcn_serve::{
    decode_response, encode_request, read_frame, write_frame, OkResponse, Request, Response,
    WireMode,
};
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

use crate::inputs::{load_dcn, load_pool, InputPaths};
use crate::reference;
use crate::sys::{self, Proc, Usage};
use crate::BenchError;

/// Logit gap under which a one-pass answer may differ from the reference
/// argmax: the production kernels sum in another order than the reference
/// loops, so an exact near-tie may break either way.
pub const TIE_TOLERANCE: f32 = 1e-3;
/// Floors from the paper: detection > 99 % (Table 2), targeted CW-L2
/// success against DCN 1.89 % (Table 4), benign accuracy kept (Table 3).
const MIN_FLAGGED: f64 = 0.95;
const MIN_RESTORED: f64 = 0.90;
const MIN_BENIGN_OK: f64 = 0.99;
/// Admission queue capacity and shed mark the server runs with: more than
/// a run ever has outstanding, so a backlog left by a host stall shows as
/// latency, never as shed or rejected answers.
const QUEUE: usize = 4096;
/// How long a connection waits for an answer before counting it failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// The request mix of a serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Held-out digits only.
    Benign,
    /// Half held-out digits, half CW-L2 adversarials, seeded order.
    Adv50,
}

/// One pooled input with its reference logits.
pub struct Item {
    /// `[1, 28, 28]` pixels.
    pub x: Tensor,
    /// True label (benign) or pre-attack label (CW-L2).
    pub label: usize,
    /// Whether this is a CW-L2 adversarial.
    pub adversarial: bool,
    /// Logits of the base network by the reference forward.
    pub ref_logits: Vec<f32>,
}

/// Everything a serving run sends and checks against.
pub struct Corpus {
    /// Benign items, then CW-L2 items.
    pub items: Vec<Item>,
    /// The DCN artifact the server loads, also used for in-process replays.
    pub dcn: Dcn,
    /// Votes per correction (`m`).
    pub m: usize,
    benign: Vec<usize>,
    adversarial: Vec<usize>,
}

impl Corpus {
    /// Loads the inputs and runs every pooled item through the reference
    /// forward.
    pub fn load(paths: &InputPaths) -> Result<Corpus, BenchError> {
        let dcn = load_dcn(&paths.dcn)?;
        let base = dcn.base();
        let shape = base.input_shape().to_vec();
        let mut items = Vec::new();
        let (mut benign, mut adversarial) = (Vec::new(), Vec::new());
        for (path, adv) in [(&paths.benign, false), (&paths.cwl2, true)] {
            for p in load_pool(path)?.items {
                let ref_logits = reference::logits(base, &p.x)?;
                (if adv { &mut adversarial } else { &mut benign }).push(items.len());
                items.push(Item {
                    x: Tensor::from_vec(shape.clone(), p.x)?,
                    label: p.label,
                    adversarial: adv,
                    ref_logits,
                });
            }
        }
        let m = dcn.corrector().samples();
        Ok(Corpus {
            items,
            dcn,
            m,
            benign,
            adversarial,
        })
    }

    /// Indices of the benign items.
    pub fn benign(&self) -> &[usize] {
        &self.benign
    }
}

/// A seeded, endless request stream: whole shuffled decks of the mix, each
/// request with its own vote seed.
pub struct Traffic<'a> {
    corpus: &'a Corpus,
    mix: Mix,
    rng: StdRng,
    deck: Vec<usize>,
    pos: usize,
}

impl<'a> Traffic<'a> {
    /// A stream for `mix` seeded by `seed`.
    pub fn new(corpus: &'a Corpus, mix: Mix, seed: u64) -> Traffic<'a> {
        Traffic {
            corpus,
            mix,
            rng: StdRng::seed_from_u64(seed),
            deck: Vec::new(),
            pos: 0,
        }
    }

    /// The next (item index, vote seed).
    pub fn next_request(&mut self) -> (usize, u64) {
        if self.pos == self.deck.len() {
            let mut benign = self.corpus.benign.clone();
            benign.shuffle(&mut self.rng);
            self.deck = match self.mix {
                Mix::Benign => benign,
                Mix::Adv50 => {
                    let adv = &self.corpus.adversarial;
                    let mut deck: Vec<usize> = adv.clone();
                    deck.extend(benign.iter().copied().cycle().take(adv.len()));
                    deck.shuffle(&mut self.rng);
                    deck
                }
            };
            self.pos = 0;
        }
        let item = self.deck[self.pos];
        self.pos += 1;
        (item, self.rng.next_u64())
    }
}

/// One request's life.
pub struct Rec {
    /// Pool item sent.
    pub item: usize,
    /// Vote seed sent.
    pub seed: u64,
    /// When it was due, seconds after the phase start.
    pub due: f64,
    /// When it was written.
    pub sent: f64,
    /// When its answer arrived; `None` if it never did.
    pub recv: Option<f64>,
    /// The answer.
    pub resp: Option<Response>,
}

impl Rec {
    /// Latency from due time to answer, in ms (`None` when unanswered).
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv.map(|r| (r - self.due) * 1e3)
    }
}

fn encode(corpus: &Corpus, id: u64, item: usize, seed: u64) -> Result<Vec<u8>, BenchError> {
    let req = Request::new(id, seed, corpus.items[item].x.clone());
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &encode_request(&req, WireMode::Binary)?,
        WireMode::Binary,
    )?;
    Ok(frame)
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), BenchError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Reads one response; `None` when the connection failed or timed out.
fn recv(reader: &mut BufReader<TcpStream>) -> Option<Response> {
    match read_frame(reader, WireMode::Binary) {
        Ok(Some(payload)) => decode_response(&payload, WireMode::Binary).ok(),
        _ => None,
    }
}

/// Files `resp` under its id; `false` for an unknown or repeated id.
fn file_response(recs: &mut [Rec], base_id: u64, resp: Response, at: f64) -> bool {
    let Some(rec) = resp
        .id()
        .checked_sub(base_id)
        .and_then(|i| recs.get_mut(i as usize))
    else {
        return false;
    };
    if rec.resp.is_some() {
        return false;
    }
    rec.recv = Some(at);
    rec.resp = Some(resp);
    true
}

/// The outcome of one load phase.
pub struct Phase {
    /// Every request of the phase.
    pub recs: Vec<Rec>,
    /// Wall seconds the phase measured.
    pub seconds: f64,
    /// Responses whose id was unknown or repeated.
    pub stray: usize,
}

impl Phase {
    /// Answers per second within the measured window: answers that
    /// arrived in it over the time of the last of them.
    pub fn throughput_per_s(&self) -> f64 {
        let done: Vec<f64> = self
            .recs
            .iter()
            .filter_map(|r| r.recv.filter(|&t| t <= self.seconds))
            .collect();
        done.len() as f64 / done.iter().copied().fold(f64::MIN_POSITIVE, f64::max)
    }

    /// How late the generator wrote requests: (mean, max) ms.
    pub fn lateness_ms(&self) -> (f64, f64) {
        let late: Vec<f64> = self.recs.iter().map(|r| (r.sent - r.due) * 1e3).collect();
        (
            crate::stats::mean(&late),
            late.iter().copied().fold(0.0, f64::max),
        )
    }
}

/// Open loop: `rate` requests per second for `seconds` on one connection,
/// written by one thread at their due times while this thread reads the
/// answers. Latency counts from the due time, so a late generator or a
/// failed request shows as late, never as fast.
pub fn open_loop(
    addr: &str,
    traffic: &mut Traffic,
    next_id: &mut u64,
    rate: f64,
    seconds: f64,
) -> Result<Phase, BenchError> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let base_id = *next_id;
    *next_id += n as u64;
    let mut frames = Vec::with_capacity(n);
    let mut recs = Vec::with_capacity(n);
    for i in 0..n {
        let (item, seed) = traffic.next_request();
        frames.push(encode(traffic.corpus, base_id + i as u64, item, seed)?);
        recs.push(Rec {
            item,
            seed,
            due: i as f64 / rate,
            sent: i as f64 / rate,
            recv: None,
            resp: None,
        });
    }
    let (mut writer, mut reader) = connect(addr)?;
    let start = Instant::now();
    let sender = std::thread::spawn(move || -> Vec<f64> {
        let mut sent = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if writer.write_all(frame).is_err() {
                break;
            }
            sent.push(start.elapsed().as_secs_f64());
        }
        sent
    });
    let mut stray = 0;
    for _ in 0..n {
        let Some(resp) = recv(&mut reader) else { break };
        let at = start.elapsed().as_secs_f64();
        if !file_response(&mut recs, base_id, resp, at) {
            stray += 1;
        }
    }
    let sent = sender
        .join()
        .map_err(|_| BenchError::msg("open-loop sender panicked"))?;
    for (rec, s) in recs.iter_mut().zip(sent) {
        rec.sent = s;
    }
    Ok(Phase {
        recs,
        seconds,
        stray,
    })
}

/// Closed loop at a fixed depth: `per_conn` requests in flight on each of
/// two connections, one thread each, for `seconds`; then the in-flight
/// requests are drained.
pub fn saturate(
    addr: &str,
    traffics: [Traffic; 2],
    next_id: &mut u64,
    per_conn: usize,
    seconds: f64,
) -> Result<Phase, BenchError> {
    let start = Instant::now();
    let [mut t0, mut t1] = traffics;
    let base0 = *next_id;
    let base1 = base0 + (1 << 32);
    *next_id = base1 + (1 << 32);
    let (r0, r1) = std::thread::scope(|s| {
        let h = s.spawn(|| closed_loop(addr, &mut t1, base1, per_conn, start, seconds));
        let r0 = closed_loop(addr, &mut t0, base0, per_conn, start, seconds);
        (r0, h.join())
    });
    let (mut recs, stray0) = r0?;
    let (recs1, stray1) = r1.map_err(|_| BenchError::msg("saturation thread panicked"))??;
    recs.extend(recs1);
    Ok(Phase {
        recs,
        seconds,
        stray: stray0 + stray1,
    })
}

fn closed_loop(
    addr: &str,
    traffic: &mut Traffic,
    base_id: u64,
    depth: usize,
    start: Instant,
    seconds: f64,
) -> Result<(Vec<Rec>, usize), BenchError> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut recs: Vec<Rec> = Vec::new();
    let mut send = |recs: &mut Vec<Rec>, writer: &mut TcpStream| -> Result<(), BenchError> {
        let (item, seed) = traffic.next_request();
        let frame = encode(traffic.corpus, base_id + recs.len() as u64, item, seed)?;
        let now = start.elapsed().as_secs_f64();
        writer.write_all(&frame)?;
        recs.push(Rec {
            item,
            seed,
            due: now,
            sent: now,
            recv: None,
            resp: None,
        });
        Ok(())
    };
    for _ in 0..depth {
        send(&mut recs, &mut writer)?;
    }
    let mut outstanding = depth;
    let mut stray = 0;
    while outstanding > 0 {
        let Some(resp) = recv(&mut reader) else { break };
        outstanding -= 1;
        let at = start.elapsed().as_secs_f64();
        if !file_response(&mut recs, base_id, resp, at) {
            stray += 1;
        }
        if at < seconds {
            send(&mut recs, &mut writer)?;
            outstanding += 1;
        }
    }
    Ok((recs, stray))
}

/// Per-answer checks and the run's tallies.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests without an `Ok` answer (error frame, timeout, lost link).
    pub failed: u64,
    /// Benign requests sent.
    pub benign_sent: u64,
    /// CW-L2 requests sent.
    pub adv_sent: u64,
    /// Benign requests answered.
    pub benign: u64,
    /// Benign requests answered with their true label.
    pub benign_ok: u64,
    /// CW-L2 requests answered.
    pub adv: u64,
    /// CW-L2 requests the detector flagged (1 + m passes).
    pub adv_flagged: u64,
    /// CW-L2 requests answered with their pre-attack label.
    pub adv_restored: u64,
    /// Σ base passes over answered requests.
    pub passes: u64,
    /// Answers that broke a per-answer rule (first few kept).
    pub violations: Vec<String>,
    /// Count of broken rules, including those not kept.
    pub violation_count: u64,
}

impl Tally {
    fn violate(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < 5 {
            self.violations.push(msg);
        }
    }

    /// Checks every answer of `phase`.
    pub fn add(&mut self, corpus: &Corpus, phase: &Phase) {
        for _ in 0..phase.stray {
            self.violate("a response carried an unknown or repeated id".to_string());
        }
        for rec in &phase.recs {
            self.attempted += 1;
            if corpus.items[rec.item].adversarial {
                self.adv_sent += 1;
            } else {
                self.benign_sent += 1;
            }
            match &rec.resp {
                Some(Response::Ok(ok)) => self.check(corpus, rec.item, ok),
                _ => self.failed += 1,
            }
        }
    }

    fn check(&mut self, corpus: &Corpus, item: usize, ok: &OkResponse) {
        let it = &corpus.items[item];
        if ok.degraded || ok.shed {
            self.violate(format!("request {} answered degraded or shed", ok.id));
        }
        let flagged = ok.base_passes == 1 + corpus.m;
        if ok.base_passes != 1 && !flagged {
            self.violate(format!(
                "request {} cost {} passes, not 1 or 1 + m = {}",
                ok.id,
                ok.base_passes,
                1 + corpus.m
            ));
        }
        if ok.base_passes == 1 && !reference::label_agrees(&it.ref_logits, ok.label, TIE_TOLERANCE)
        {
            self.violate(format!(
                "request {}: one-pass label {} but the reference forward says {}",
                ok.id,
                ok.label,
                reference::argmax(&it.ref_logits)
            ));
        }
        self.passes += ok.base_passes as u64;
        if it.adversarial {
            self.adv += 1;
            self.adv_flagged += u64::from(flagged);
            self.adv_restored += u64::from(ok.label == it.label);
        } else {
            self.benign += 1;
            self.benign_ok += u64::from(ok.label == it.label);
        }
    }

    /// Applies the rate floors; returns every broken rule. Each floor is a
    /// share of the requests of its class that were sent, so a request
    /// without an `Ok` answer counts against it, and a class the mix sends
    /// that got no answer at all fails it.
    pub fn verdict(&self) -> Vec<String> {
        let mut out = self.violations.clone();
        if self.violation_count > self.violations.len() as u64 {
            out.push(format!(
                "… {} per-answer violations in all",
                self.violation_count
            ));
        }
        // A class that was not sent has no floor to meet.
        let below = |a: u64, sent: u64, floor: f64| sent > 0 && (a as f64) < floor * sent as f64;
        if below(self.benign_ok, self.benign_sent, MIN_BENIGN_OK) {
            out.push(format!(
                "{}/{} benign requests kept their true label (floor {MIN_BENIGN_OK})",
                self.benign_ok, self.benign_sent
            ));
        }
        if below(self.adv_flagged, self.adv_sent, MIN_FLAGGED) {
            out.push(format!(
                "{}/{} CW-L2 requests were flagged (floor {MIN_FLAGGED})",
                self.adv_flagged, self.adv_sent
            ));
        }
        if below(self.adv_restored, self.adv_sent, MIN_RESTORED) {
            out.push(format!(
                "{}/{} CW-L2 requests got their pre-attack label back (floor {MIN_RESTORED})",
                self.adv_restored, self.adv_sent
            ));
        }
        out
    }

    /// Mean base passes per answered request.
    pub fn passes_per_req(&self) -> f64 {
        self.passes as f64 / (self.benign + self.adv).max(1) as f64
    }
}

/// A running `dcn-serve serve` process.
pub struct ServerProc {
    proc: Proc,
    /// Data-plane address.
    pub addr: String,
    /// Admin-plane address, when started traced.
    pub admin: Option<String>,
}

impl ServerProc {
    /// Starts the server on an OS-picked port and waits until it listens.
    /// Traced servers get the telemetry plane: tracing, metrics and the
    /// admin endpoint.
    pub fn start(bin_dir: &Path, dcn: &Path, traced: bool) -> Result<ServerProc, BenchError> {
        let mut cmd = Command::new(bin_dir.join("dcn-serve"));
        cmd.arg("serve")
            .arg("--dcn")
            .arg(dcn)
            .args(["--addr", "127.0.0.1:0"])
            .args([
                "--queue",
                &QUEUE.to_string(),
                "--shed-mark",
                &QUEUE.to_string(),
            ]);
        if traced {
            cmd.args(["--trace", "1", "--obs", "1", "--admin-addr", "127.0.0.1:0"]);
        }
        let mut proc = Proc::spawn(cmd, "dcn-serve")?;
        let addr = proc.wait_line("serving on ")?;
        let addr = addr
            .split_whitespace()
            .next()
            .unwrap_or_default()
            .to_string();
        let admin = if traced {
            Some(proc.wait_line("admin endpoint on ")?)
        } else {
            None
        };
        Ok(ServerProc { proc, addr, admin })
    }

    /// The server's pid.
    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    /// Stops the server; returns its lifetime CPU time and peak memory.
    pub fn stop(self) -> Result<Usage, BenchError> {
        self.proc.stop()
    }

    /// One admin command's one-line reply.
    pub fn admin(&self, command: &str) -> Result<String, BenchError> {
        let addr = self
            .admin
            .as_deref()
            .ok_or_else(|| BenchError::msg("server started without an admin endpoint"))?;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
        stream.write_all(format!("{command}\n").as_bytes())?;
        let mut line = String::new();
        std::io::BufRead::read_line(&mut BufReader::new(stream), &mut line)?;
        Ok(line)
    }
}

/// Closed-loop, one at a time: `n` requests on a fresh connection.
pub fn sequential(
    addr: &str,
    traffic: &mut Traffic,
    next_id: &mut u64,
    n: usize,
) -> Result<Phase, BenchError> {
    let (mut writer, mut reader) = connect(addr)?;
    let start = Instant::now();
    let base_id = *next_id;
    *next_id += n as u64;
    let mut recs = Vec::with_capacity(n);
    let mut stray = 0;
    for i in 0..n {
        let (item, seed) = traffic.next_request();
        let t = start.elapsed().as_secs_f64();
        writer.write_all(&encode(traffic.corpus, base_id + i as u64, item, seed)?)?;
        recs.push(Rec {
            item,
            seed,
            due: t,
            sent: t,
            recv: None,
            resp: None,
        });
        let Some(resp) = recv(&mut reader) else { break };
        if !file_response(&mut recs, base_id, resp, start.elapsed().as_secs_f64()) {
            stray += 1;
        }
    }
    Ok(Phase {
        recs,
        seconds: start.elapsed().as_secs_f64(),
        stray,
    })
}

/// Set-up time: spawn the server with the DCN artifact and wait for its
/// first answer. Returns the server (still running), the seconds it took,
/// and the first request's phase for the checks.
pub fn start_and_answer(
    bin_dir: &Path,
    dcn: &Path,
    traffic: &mut Traffic,
    next_id: &mut u64,
) -> Result<(ServerProc, f64, Phase), BenchError> {
    let t0 = Instant::now();
    let server = ServerProc::start(bin_dir, dcn, false)?;
    let first = sequential(&server.addr, traffic, next_id, 1)?;
    Ok((server, t0.elapsed().as_secs_f64(), first))
}

/// CPU seconds (user, sys) the server has used so far.
pub fn server_cpu(server: &ServerProc) -> Result<(f64, f64), BenchError> {
    sys::proc_cpu(server.pid())
}
