//! `serve`: an `odc serve --workers 2` child with a seeded schema set
//! preloaded, driven by an open-loop generator at constant offered
//! rates.
//!
//! Traffic is mostly warm `implies` / `summarizable` requests that the
//! server's implication cache answers (the hit class), plus a fixed
//! seeded share of fresh formulas that miss it (the miss class). The
//! socket, event loop, shard queue and reorder buffer carry the load;
//! DIMSAT runs only for the miss share. `check <category>` is left out
//! of the mix: the server does not cache category satisfiability, so
//! every `check` would be a solve.
//!
//! The generator is one process with two threads (one sends on a fixed
//! schedule, one reads both connections) and two connections. Latency is
//! timed from each request's scheduled send time, so a stall also
//! charges the requests queued behind it.

use crate::report::{digest, Report};
use crate::stats::{median, percentile, ratio, secs_ms, supports};
use crate::sys;
use crate::trace::Tracer;
use crate::Config;
use odc_core::dimsat::implies_memo_session;
use odc_core::prelude::*;
use odc_core::summarizability::{
    is_summarizable_in_schema_planned, is_summarizable_in_schema_session,
};
use odc_fuzz::case::Query;
use odc_fuzz::FuzzCase;
use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use odc_serve::protocol::quote_token;
use odc_serve::{CatalogEntry, Client, Command, Response, SchemaCatalog};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Search nodes per request, asked by the client and capped by the server.
const NODE_LIMIT: u64 = 50_000;
const SCHEMAS: usize = 24;
const SCHEMAS_SMALL: usize = 3;
/// Share of requests, in per mille, that carry a fresh formula.
const MISS_PERMILLE: u32 = 50;
/// Fresh formulas are rooted at categories with at most this many
/// proper ancestors.
const MISS_REGION: usize = 3;
/// The one fixed offered rate, in requests per second: about half the
/// closed-loop peak this commit reaches with two connections on a
/// 2-core host (19–27k/s). A constant, never derived from a peak
/// measured in the same run.
const FIXED_RATE: f64 = 9_500.0;
/// The constant ladder for the highest sustained rate: rung `j` offers
/// `LADDER_START * LADDER_FACTOR^j` requests per second (5% steps).
const LADDER_START: f64 = 6_000.0;
const LADDER_FACTOR: f64 = 1.05;
const LADDER_RUNGS: usize = 72;
/// The ladder is climbed every `COARSE`-th rung first, for `COARSE_SECS`
/// each, then rung by rung above the highest coarse rung that held, for
/// `FINE_SECS` each.
const COARSE: usize = 6;
const COARSE_SECS: f64 = 0.25;
const FINE_SECS: f64 = 0.5;
/// Requests drawn per second of the closed-loop phase: more than two
/// synchronous connections answer.
const CLOSED_CAP: f64 = 40_000.0;
/// E21's warm p99 SLO (`WARM_SLO_US` = 25 ms).
const WARM_SLO_MS: f64 = 25.0;
/// The fixed-rate and closed-loop phases are cut into this many
/// interleaved segments.
const SEGMENTS: usize = 10;
/// Server spawns after each segment; `setup_s` is the median of all
/// spawns in the run.
const SETUPS_PER_SEGMENT: usize = 6;

/// One request kind: its line without the tag, and what it must answer.
#[derive(Clone)]
struct Req {
    line: String,
    hit: bool,
    expected: Arc<String>,
    /// Arguments of the equivalent one-shot `odc` command, for the CLI
    /// parity sample.
    cli: Vec<String>,
}

/// The schema set, the warm request kinds, and the source of fresh
/// formulas.
struct Inputs {
    names: Vec<String>,
    files: Vec<PathBuf>,
    texts: Vec<String>,
    warm: Vec<Req>,
    /// In-process catalog entries answering fresh formulas.
    entries: Vec<CatalogEntry>,
    fresh_rng: StdRng,
    fresh_made: u64,
    /// The first fresh formulas drawn, for the CLI parity sample.
    fresh_sample: Vec<Req>,
}

fn parse(text: &str) -> Result<DimensionSchema, String> {
    odc_core::parse_schema(text).map_err(|e| e.to_string())
}

/// A request's answer: the payload printed for it, whether it was
/// decided within the node budget, and its countermodel, if any.
struct Answer {
    payload: String,
    decided: bool,
    cx: Option<FrozenDimension>,
}

impl Answer {
    fn undecided() -> Answer {
        Answer {
            payload: String::new(),
            decided: false,
            cx: None,
        }
    }

    fn new(ds: &DimensionSchema, head: &str, answer: &str, cx: Option<FrozenDimension>) -> Answer {
        let mut payload = format!("{head}: {answer}\n");
        if let Some(cx) = &cx {
            payload.push_str(&format!("countermodel: {}\n", cx.display(ds)));
        }
        Answer {
            payload,
            decided: true,
            cx,
        }
    }

    /// `Err` naming `line` when the countermodel is not a frozen
    /// dimension of `ds` satisfying its constraints (the validity check
    /// the repository's differential fuzzer applies to witnesses).
    fn verified(self, ds: &DimensionSchema, line: &str) -> Result<Answer, String> {
        match self.cx.as_ref().map(|cx| cx.verify(ds)) {
            Some(Err(e)) => Err(format!("`{line}`: invalid countermodel: {e}")),
            _ => Ok(self),
        }
    }
}

/// What the server answers for `cmd`, computed in-process by the same
/// library calls its executor makes, against `entry`'s warm cache.
fn exec(entry: &CatalogEntry, cmd: &Command, tr: &Tracer) -> Result<Answer, String> {
    let ds = entry.schema();
    let cat = |n: &str| {
        ds.hierarchy()
            .category_by_name(n)
            .ok_or_else(|| format!("unknown category `{n}`"))
    };
    let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(NODE_LIMIT))
        .with_observer(tr.observer());
    let (head, answer, cx) = match cmd {
        Command::Implies { constraint, .. } => {
            let alpha = parse_constraint(ds.hierarchy(), constraint).map_err(|e| e.to_string())?;
            let out = implies_memo_session(
                ds,
                &alpha,
                DimsatOptions::default(),
                &mut gov,
                entry.cache().begin_session(),
            );
            let answer = match &out.verdict {
                ImplicationVerdict::Implied => "true",
                ImplicationVerdict::NotImplied => "false",
                ImplicationVerdict::Unknown(_) => return Ok(Answer::undecided()),
            };
            ("implied", answer, out.counterexample)
        }
        Command::Summarizable {
            target, sources, ..
        } => {
            let t = cat(target)?;
            let s: Vec<Category> = sources.iter().map(|n| cat(n)).collect::<Result<_, _>>()?;
            let out = is_summarizable_in_schema_session(
                ds,
                t,
                &s,
                DimsatOptions::default(),
                &mut gov,
                entry.cache().begin_session(),
            );
            let answer = match &out.verdict {
                SummarizabilityVerdict::Summarizable => "true",
                SummarizabilityVerdict::NotSummarizable => "false",
                SummarizabilityVerdict::Unknown(_) => return Ok(Answer::undecided()),
            };
            ("summarizable", answer, out.counterexample)
        }
        other => return Err(format!("no in-process executor for `{}`", other.name())),
    };
    Ok(Answer::new(ds, head, answer, cx))
}

fn request_line(name: &str, q: &Query) -> Option<(String, Vec<String>)> {
    let limit = format!("--node-limit {NODE_LIMIT}");
    match q {
        Query::Implies(c) => Some((
            format!("implies {name} {} {limit}", quote_token(c)),
            vec!["implies".into(), c.clone()],
        )),
        Query::Summarizable { target, sources } => {
            let mut cli = vec!["summarizable".to_string(), target.clone()];
            cli.extend(sources.iter().cloned());
            Some((
                format!("summarizable {name} {target} {} {limit}", sources.join(" ")),
                cli,
            ))
        }
        _ => None,
    }
}

/// Every proper ancestor of `c` below `All`.
fn ancestors(g: &HierarchySchema, c: Category) -> Vec<Category> {
    let mut out: Vec<Category> = Vec::new();
    let mut todo = vec![c];
    while let Some(x) = todo.pop() {
        for &p in g.parents(x) {
            if !p.is_all() && !out.contains(&p) {
                out.push(p);
                todo.push(p);
            }
        }
    }
    out
}

impl Inputs {
    /// Draws the schema set and its warm request kinds, answering each
    /// in-process for the payload the server must return. A draw is kept
    /// only if all its warm requests answer within the node budget.
    fn new(seed: u64, n_schemas: usize, dir: &Path) -> Result<Inputs, String> {
        let mut inp = Inputs {
            names: Vec::new(),
            files: Vec::new(),
            texts: Vec::new(),
            warm: Vec::new(),
            entries: Vec::new(),
            fresh_rng: StdRng::seed_from_u64(seed ^ 0xF4E5_0000_0000_0001),
            fresh_made: 0,
            fresh_sample: Vec::new(),
        };
        let off = Tracer::new(false);
        // A stream of its own, apart from the audit corpus of the same seed.
        let stream = seed ^ 0x5E7E_5E7E_5E7E_5E7E;
        for id in 0..400u64 {
            if inp.names.len() == n_schemas {
                break;
            }
            let Ok(cc) = odc_workload::case_for(stream, id) else {
                continue;
            };
            let fc = FuzzCase::from_corpus(&cc)?;
            let name = format!("s{id}");
            let entry = CatalogEntry::new(&name, parse(&fc.schema_text)?);
            let mut warm = Vec::new();
            let mut ok = true;
            for q in &fc.queries {
                let Some((line, cli)) = request_line(&name, q) else {
                    continue;
                };
                if warm.iter().any(|r: &Req| r.line == line) {
                    continue;
                }
                let a = exec(&entry, &Command::parse(&line)?, &off)?
                    .verified(entry.schema(), &line)?;
                ok &= a.decided;
                warm.push(Req {
                    line,
                    hit: true,
                    expected: Arc::new(a.payload),
                    cli,
                });
            }
            if !ok || warm.is_empty() {
                continue;
            }
            let file = dir.join(format!("{name}.odcs"));
            std::fs::write(&file, &fc.schema_text).map_err(|e| e.to_string())?;
            inp.names.push(name);
            inp.files.push(file);
            inp.texts.push(fc.schema_text);
            inp.warm.extend(warm);
            inp.entries.push(entry);
        }
        if inp.names.len() < n_schemas {
            return Err("serve: too few schema draws answer within the node budget".into());
        }
        Ok(inp)
    }

    /// The next fresh formula: a constant never used before makes it a
    /// cache miss; the two shapes give implied and not-implied answers.
    fn fresh(&mut self) -> Result<Req, String> {
        let off = Tracer::new(false);
        for _ in 0..10_000 {
            let rng = &mut self.fresh_rng;
            let si = rng.gen_range(0..self.entries.len());
            let entry = &self.entries[si];
            let g = entry.schema().hierarchy();
            let cats: Vec<Category> = g
                .categories()
                .filter(|&c| {
                    // A small region keeps every miss a short solve, so
                    // the miss class costs about the same on every seed.
                    let n = ancestors(g, c).len();
                    !c.is_all() && (1..=MISS_REGION).contains(&n)
                })
                .collect();
            if cats.is_empty() {
                continue;
            }
            let c = cats[rng.gen_range(0..cats.len())];
            let anc = ancestors(g, c);
            let p = anc[rng.gen_range(0..anc.len())];
            self.fresh_made += 1;
            let u = self.fresh_made;
            let (c, p) = (g.name(c), g.name(p));
            let constraint = if rng.gen_range(0..2) == 0 {
                format!("{c}.{p} = f{u}")
            } else {
                format!("{c}.{p} = f{u} -> {c}.{p}")
            };
            let (line, cli) = request_line(&self.names[si], &Query::Implies(constraint))
                .expect("implies always has a request line");
            let a = exec(entry, &Command::parse(&line)?, &off)?.verified(entry.schema(), &line)?;
            if !a.decided {
                continue;
            }
            let r = Req {
                line,
                hit: false,
                expected: Arc::new(a.payload),
                cli,
            };
            if self.fresh_sample.len() < 8 {
                self.fresh_sample.push(r.clone());
            }
            return Ok(r);
        }
        Err("serve: no schema offers a category for fresh formulas".into())
    }
}

/// The seeded request stream: warm kinds drawn uniformly, a fresh
/// formula with probability `MISS_PERMILLE`/1000. Drawn before each
/// timed phase, outside it.
struct Traffic {
    rng: StdRng,
}

impl Traffic {
    /// `n` warm requests, drawn uniformly: cache hits only.
    fn warm(&mut self, inp: &Inputs, n: usize) -> Vec<Req> {
        (0..n)
            .map(|_| inp.warm[self.rng.gen_range(0..inp.warm.len())].clone())
            .collect()
    }

    fn batch(&mut self, inp: &mut Inputs, n: usize) -> Result<Vec<Req>, String> {
        (0..n)
            .map(|_| {
                if self.rng.gen_range(0..1000u32) < MISS_PERMILLE {
                    inp.fresh()
                } else {
                    Ok(inp.warm[self.rng.gen_range(0..inp.warm.len())].clone())
                }
            })
            .collect()
    }
}

struct ServerProc {
    child: Option<Child>,
    /// Kept open: the server prints its drain summary at exit.
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl ServerProc {
    /// Spawns `odc serve` with the schema set preloaded and waits for the
    /// first answered `ping`. Returns the server and its set-up time.
    fn start(cfg: &Config, inp: &Inputs) -> Result<(ServerProc, f64), String> {
        let mut args: Vec<String> = vec![
            "serve".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            "2".into(),
            "--node-limit".into(),
            NODE_LIMIT.to_string(),
        ];
        for (n, f) in inp.names.iter().zip(&inp.files) {
            args.push("--preload".into());
            args.push(format!("{n}={}", f.display()));
        }
        let log = std::fs::File::options()
            .create(true)
            .append(true)
            .open(cfg.work.join("serve-stderr.log"))
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut child = Proc::new(&cfg.odc)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn odc serve: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut srv = ServerProc {
            child: Some(child),
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        srv.stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        srv.addr = line
            .strip_prefix("serving on ")
            .and_then(|r| r.split_whitespace().next())
            .ok_or_else(|| format!("odc serve announced `{}`", line.trim()))?
            .to_string();
        let r = ask(&mut srv.connect()?, "ping")?;
        if r.payload != "pong\n" {
            return Err(format!("ping answered `{}`", r.status));
        }
        Ok((srv, t0.elapsed().as_secs_f64()))
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// A bare socket for the open-loop generator, which writes requests
    /// and reads responses on separate threads.
    fn socket(&self) -> Result<TcpStream, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// The server's peak RSS so far, in KiB.
    fn hwm_kb(&self) -> Result<u64, String> {
        let pid = self.child.as_ref().expect("server is running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Drains the server and returns its peak RSS in KiB.
    fn stop(mut self) -> Result<u64, String> {
        if let Ok(mut c) = self.connect() {
            let _ = ask(&mut c, "shutdown");
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let child = self.child.take().expect("server is running");
        let fin = sys::reap(child).map_err(|e| e.to_string())?;
        if fin.code != 0 {
            return Err(format!("odc serve exited {}", fin.code));
        }
        Ok(fin.maxrss_kb)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// One request on a closed-loop connection.
fn ask(c: &mut Client, line: &str) -> Result<Response, String> {
    c.request(line).map_err(|e| e.to_string())
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    /// Latency from scheduled send to response, ms, by class.
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    failed: u64,
    overloaded: u64,
    /// Responses that arrived within the phase's schedule, per second of
    /// schedule: below the offered rate exactly when a backlog grows.
    achieved: f64,
    errors: Vec<String>,
}

impl Phase {
    /// Adds another segment's samples and failures to this one's.
    fn absorb(&mut self, other: Phase) {
        self.hit_ms.extend(other.hit_ms);
        self.miss_ms.extend(other.miss_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.failed += other.failed;
        self.overloaded += other.overloaded;
    }

    fn all_ms(&self) -> Vec<f64> {
        self.hit_ms.iter().chain(&self.miss_ms).copied().collect()
    }

    /// Within the SLO at p99, nothing failed, and no backlog grew.
    fn holds(&self, rate: f64) -> bool {
        self.failed == 0
            && percentile(&self.all_ms(), 99.0) <= WARM_SLO_MS
            && self.achieved >= 0.99 * rate
    }
}

/// Finds the end of the first complete response block in `buf`: the
/// status line, then payload lines up to a line holding a single `.`
/// (payload lines starting with `.` are dot-stuffed, so never match).
fn block_end(buf: &[u8]) -> Option<usize> {
    let first = buf.iter().position(|&b| b == b'\n')?;
    buf[first..]
        .windows(3)
        .position(|w| w == b"\n.\n")
        .map(|p| first + p + 3)
}

/// Sends `reqs` at `rate` per second over two connections, request `i`
/// on connection `i % 2`, and checks every response's tag and payload.
fn open_loop(srv: &ServerProc, reqs: &[Req], rate: f64) -> Result<Phase, String> {
    let conns = [srv.socket()?, srv.socket()?];
    let lines: Vec<Vec<u8>> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| format!("{} --tag {i}\n", r.line).into_bytes())
        .collect();
    let mut readers = Vec::new();
    for c in &conns {
        let r = c.try_clone().map_err(|e| e.to_string())?;
        r.set_nonblocking(true).map_err(|e| e.to_string())?;
        readers.push(r);
    }
    let n = reqs.len();
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let receiver = |readers: Vec<TcpStream>| -> Phase {
        use std::os::fd::AsRawFd;
        let mut readers = readers;
        let mut ph = Phase::default();
        let mut bufs: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
        let mut next = [0usize; 2];
        let (mut got, mut in_window) = (0usize, 0usize);
        let window_end = due(n);
        let give_up = window_end + Duration::from_secs(5);
        let mut chunk = vec![0u8; 64 * 1024];
        while got < n && Instant::now() < give_up {
            let mut fds: Vec<PollFd> = readers
                .iter()
                .map(|r| PollFd {
                    fd: r.as_raw_fd(),
                    events: 1,
                    revents: 0,
                })
                .collect();
            // SAFETY: `fds` is a live array of `fds.len()` initialised
            // pollfd structs that poll(2) may write `revents` into.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 20) };
            if rc <= 0 {
                continue;
            }
            for c in 0..2 {
                if fds[c].revents == 0 {
                    continue;
                }
                while let Ok(k) = readers[c].read(&mut chunk) {
                    if k == 0 {
                        break;
                    }
                    bufs[c].extend_from_slice(&chunk[..k]);
                }
                let now = Instant::now();
                let mut start = 0usize;
                while let Some(len) = block_end(&bufs[c][start..]) {
                    let block = &bufs[c][start..start + len];
                    start += len;
                    let i = next[c] * 2 + c;
                    next[c] += 1;
                    got += 1;
                    in_window += (now <= window_end) as usize;
                    let resp = Response::read_from(&mut &block[..]).ok().flatten();
                    let ok = match (&resp, reqs.get(i)) {
                        (Some(r), Some(q)) => {
                            ph.overloaded += (r.status_word() == "overloaded") as u64;
                            r.is_ok() && r.tag() == Some(i as u64) && r.payload == *q.expected
                        }
                        _ => false,
                    };
                    if !ok {
                        ph.failed += 1;
                        if ph.errors.len() < 5 {
                            ph.errors.push(format!(
                                "request {i} answered `{}`",
                                resp.map(|r| r.status).unwrap_or_default()
                            ));
                        }
                        continue;
                    }
                    let lat = secs_ms(now.saturating_duration_since(due(i)));
                    if reqs[i].hit {
                        ph.hit_ms.push(lat);
                    } else {
                        ph.miss_ms.push(lat);
                    }
                }
                bufs[c].drain(..start);
            }
        }
        ph.failed += (n - got) as u64;
        if got < n {
            ph.errors
                .push(format!("{} of {n} responses never arrived", n - got));
        }
        ph.achieved = in_window as f64 / (n as f64 / rate);
        ph
    };
    let mut writers: [&TcpStream; 2] = [&conns[0], &conns[1]];
    let (mut ph, lateness) = std::thread::scope(|s| {
        let h = s.spawn(move || receiver(readers));
        let mut lateness = Vec::with_capacity(n);
        let mut out: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
        let mut i = 0;
        'send: while i < n {
            let now = Instant::now();
            if due(i) > now {
                std::thread::sleep(due(i) - now);
            }
            // Everything due by now goes out in one write per connection,
            // so a late wake-up costs the generator one syscall, not many.
            let now = Instant::now();
            while i < n && due(i) <= now {
                lateness.push(secs_ms(now.saturating_duration_since(due(i))));
                out[i % 2].extend_from_slice(&lines[i]);
                i += 1;
            }
            for c in 0..2 {
                if !out[c].is_empty() {
                    if writers[c].write_all(&out[c]).is_err() {
                        break 'send;
                    }
                    out[c].clear();
                }
            }
        }
        (h.join().expect("receiver thread panicked"), lateness)
    });
    ph.lateness_ms = lateness;
    Ok(ph)
}

/// `stats`: (cache hits incl. cross-session hits, lookups, rejected).
fn server_stats(srv: &ServerProc) -> Result<(u64, u64, u64), String> {
    let r = ask(&mut srv.connect()?, "stats")?;
    let (mut hits, mut lookups, mut rejected) = (0, 0, 0);
    for line in r.payload.lines() {
        let w: Vec<&str> = line.split_whitespace().collect();
        let field = |k: &str| {
            w.iter()
                .position(|x| *x == k)
                .and_then(|i| w.get(i + 1))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        if w.first() == Some(&"schema") {
            let h = field("hits") + field("cross_hits");
            hits += h;
            lookups += h + field("misses");
        } else if w.first() == Some(&"served") {
            rejected = field("rejected");
        }
    }
    Ok((hits, lookups, rejected))
}

/// What `odc summarizable` prints on its default, planned path, computed
/// in-process by the library call the CLI makes.
fn planned_summarizable(ds: &DimensionSchema, cli: &[String]) -> Result<Answer, String> {
    let cat = |n: &String| {
        ds.hierarchy()
            .category_by_name(n)
            .ok_or_else(|| format!("unknown category `{n}`"))
    };
    let t = cat(&cli[1])?;
    let s: Vec<Category> = cli[2..].iter().map(cat).collect::<Result<_, _>>()?;
    let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(NODE_LIMIT));
    let (out, _) =
        is_summarizable_in_schema_planned(ds, t, &s, DimsatOptions::default(), &mut gov, None);
    let answer = match &out.verdict {
        SummarizabilityVerdict::Summarizable => "true",
        SummarizabilityVerdict::NotSummarizable => "false",
        SummarizabilityVerdict::Unknown(_) => return Ok(Answer::undecided()),
    };
    Ok(Answer::new(ds, "summarizable", answer, out.counterexample))
}

/// A sampled subset of request kinds, answered by one-shot `odc` on the
/// path the server's executor takes (`--no-plan` for `summarizable`):
/// the server's payload must be byte-identical, or the request fails.
/// Each sampled `summarizable` is also answered on the CLI's default,
/// planned path: its verdict must match and its output must be what the
/// planned library call prints, with a valid countermodel, or the run is
/// incorrect. A planned countermodel that differs from the unplanned one
/// is a finding, printed as a note.
fn cli_parity(cfg: &Config, inp: &Inputs, rep: &mut Report) -> Result<(), String> {
    let log = cfg.work.join("serve-stderr.log");
    let sample: Vec<&Req> = inp
        .warm
        .iter()
        .step_by((inp.warm.len() / 12).max(1))
        .chain(inp.fresh_sample.iter().take(4))
        .collect();
    let (mut differ, mut planned, mut planned_differ) = (0, 0, 0);
    for r in sample {
        let name = r.line.split_whitespace().nth(1).unwrap_or_default();
        let si = inp
            .names
            .iter()
            .position(|n| n == name)
            .ok_or("unknown schema")?;
        let mut args = vec![r.cli[0].clone(), inp.files[si].display().to_string()];
        args.extend(r.cli[1..].iter().cloned());
        args.extend(["--node-limit".to_string(), NODE_LIMIT.to_string()]);
        let summarizable = r.cli[0] == "summarizable";
        let mut unplanned = args.clone();
        if summarizable {
            unplanned.push("--no-plan".to_string());
        }
        let run = sys::run_cli(&cfg.odc, &unplanned, &log).map_err(|e| e.to_string())?;
        let same = run.code == 0 && run.stdout == *r.expected;
        rep.attempt(same);
        if !same {
            differ += 1;
            rep.error(format!(
                "CLI parity: `{}`: server answered {:?}, odc printed {:?} (exit {})",
                r.line, r.expected, run.stdout, run.code
            ));
        }
        if !summarizable {
            continue;
        }
        planned += 1;
        let run = sys::run_cli(&cfg.odc, &args, &log).map_err(|e| e.to_string())?;
        let ds = inp.entries[si].schema();
        let lib = planned_summarizable(ds, &r.cli)?.verified(ds, &r.line)?;
        let verdict = |t: &str| t.lines().next().unwrap_or_default().to_string();
        let ok = run.code == 0
            && run.stdout == lib.payload
            && verdict(&run.stdout) == verdict(&r.expected);
        rep.attempt(ok);
        if !ok {
            rep.error(format!(
                "planned CLI: `{}`: odc printed {:?} (exit {}), the planned library call {:?}, \
                 the server {:?}",
                r.line, run.stdout, run.code, lib.payload, r.expected
            ));
        } else if run.stdout != *r.expected {
            planned_differ += 1;
            rep.note(format!(
                "finding: planned `odc summarizable` gives another valid countermodel than the \
                 unplanned path and the server: `{}`: planned {:?}, unplanned {:?}",
                r.line, run.stdout, r.expected
            ));
        }
    }
    rep.note(format!(
        "CLI parity sample: {differ} response(s) not byte-identical to odc; {planned_differ} of \
         {planned} planned `summarizable` countermodel(s) differ from the unplanned one"
    ));
    Ok(())
}

fn account(rep: &mut Report, ph: &Phase, what: &str) {
    for e in &ph.errors {
        rep.error(format!("{what}: {e}"));
    }
    rep.attempted += (ph.hit_ms.len() + ph.miss_ms.len()) as u64 + ph.failed;
    rep.failed += ph.failed;
}

fn rung(j: usize) -> f64 {
    LADDER_START * LADDER_FACTOR.powi(j as i32)
}

/// Climbs the constant ladder: every `COARSE`-th rung (short rungs) until
/// two in a row fail, then every rung (long rungs) between the highest
/// coarse rung that held and the next, until `deadline`. A failing rung
/// is run once more before it counts, so a host stall cannot end the
/// climb early. Returns the achieved rate at the highest rung that held,
/// and the number of rungs run.
fn climb(
    srv: &ServerProc,
    inp: &mut Inputs,
    traffic: &mut Traffic,
    rep: &mut Report,
    deadline: Instant,
) -> Result<(Option<f64>, usize), String> {
    let mut runs = 0;
    let mut log = Vec::new();
    let mut try_rung = |j: usize, secs: f64, runs: &mut usize| -> Result<Option<f64>, String> {
        for _ in 0..2 {
            let rate = rung(j);
            let reqs = traffic.batch(inp, (rate * secs) as usize)?;
            let ph = open_loop(srv, &reqs, rate)?;
            account(rep, &ph, &format!("ladder rung {j} ({rate:.0}/s)"));
            *runs += 1;
            let holds = ph.holds(rate);
            log.push(format!(
                "{rate:.0}:p99={:.2}ms,achieved={:.1}%{}",
                percentile(&ph.all_ms(), 99.0),
                100.0 * ph.achieved / rate,
                if holds { "" } else { ",FAIL" }
            ));
            if holds {
                return Ok(Some(ph.achieved));
            }
        }
        Ok(None)
    };
    let mut best: Option<(usize, f64)> = None;
    let (mut j, mut failed_in_a_row) = (0, 0);
    while j < LADDER_RUNGS && failed_in_a_row < 2 && Instant::now() < deadline {
        match try_rung(j, COARSE_SECS, &mut runs)? {
            Some(a) => {
                best = Some((j, a));
                failed_in_a_row = 0;
            }
            None => failed_in_a_row += 1,
        }
        j += COARSE;
    }
    if let Some((low, _)) = best {
        for j in low + 1..(low + COARSE).min(LADDER_RUNGS) {
            if Instant::now() >= deadline {
                break;
            }
            if let Some(a) = try_rung(j, FINE_SECS, &mut runs)? {
                best = Some((j, a));
            }
        }
    }
    rep.note(format!("ladder: {}", log.join(" ")));
    Ok((best.map(|b| b.1), runs))
}

pub fn run(cfg: &Config, calib: &mut Vec<f64>) -> Result<Report, String> {
    let mut rep = Report::new(cfg.trace);
    let dir = cfg.work.join("serve");
    sys::fresh_dir(&dir).map_err(|e| e.to_string())?;
    let n_schemas = if cfg.small { SCHEMAS_SMALL } else { SCHEMAS };
    let mut inp = Inputs::new(cfg.seed, n_schemas, &dir)?;
    let mut traffic = Traffic {
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0000_0000_0002),
    };
    let first = traffic.batch(&mut inp, 64)?;
    let parts: Vec<&str> = inp
        .texts
        .iter()
        .map(String::as_str)
        .chain(first.iter().map(|r| r.line.as_str()))
        .collect();
    rep.input_digest = digest(&parts);
    rep.note(format!(
        "inputs: {} schemas, {} warm request kinds, {}‰ fresh formulas",
        inp.names.len(),
        inp.warm.len(),
        MISS_PERMILLE
    ));

    let (srv, first_setup) = ServerProc::start(cfg, &inp)?;
    // Every warm request once, so the server's caches hold them.
    round_trips(&srv, &inp.warm, &mut rep)?;

    if cfg.trace {
        return traced(&mut inp, srv, rep, calib, &mut traffic);
    }

    // Half the window at the fixed rate and a sixth closed-loop, cut into
    // interleaved segments with server set-ups between them, so a drift
    // in host speed during the run reaches every metric alike. What is
    // left, at most, goes to the ladder.
    let mut setups = vec![first_setup];
    let mut fixed = Phase::default();
    let mut achieved = Vec::new();
    let (mut closed_ok, mut closed_rates) = (0u64, Vec::new());
    let seg_secs = cfg.seconds / SEGMENTS as f64;
    for seg in 0..SEGMENTS {
        if seg == SEGMENTS / 2 {
            calib.push(sys::calib_ms());
        }
        let reqs = traffic.batch(&mut inp, (FIXED_RATE * 0.5 * seg_secs) as usize)?;
        let ph = open_loop(&srv, &reqs, FIXED_RATE)?;
        account(&mut rep, &ph, "fixed rate");
        achieved.push(ph.achieved);
        fixed.absorb(ph);
        let batch = traffic.warm(&inp, (CLOSED_CAP * seg_secs / 6.0) as usize);
        let (ok, bad, secs) = closed_loop(&srv, &batch, seg_secs / 6.0)?;
        rep.attempted += ok + bad;
        rep.failed += bad;
        closed_ok += ok;
        closed_rates.push(ok as f64 / secs);
        for _ in 0..SETUPS_PER_SEGMENT {
            let (s, t) = ServerProc::start(cfg, &inp)?;
            setups.push(t);
            s.stop()?;
        }
    }
    // Peak RSS before the ladder: the ladder's request count (and so the
    // cache's growth) depends on how far it climbs.
    let rss = srv.hwm_kb()?;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 3.0);
    let (best, rungs) = climb(&srv, &mut inp, &mut traffic, &mut rep, deadline)?;
    let (hits, lookups, _) = server_stats(&srv)?;
    srv.stop()?;
    let all = fixed.all_ms();
    rep.note(format!(
        "fixed rate percentiles: p50 {:.3} p90 {:.3} p99 {:.3} p99.9 {:.3} ms",
        percentile(&all, 50.0),
        percentile(&all, 90.0),
        percentile(&all, 99.0),
        percentile(&all, 99.9)
    ));
    cli_parity(cfg, &inp, &mut rep)?;

    if !supports(all.len(), 99.0) || fixed.miss_ms.is_empty() {
        rep.error(format!(
            "only {} requests at the fixed rate: too few for a p99",
            all.len()
        ));
    }
    rep.set_n("setup_s", median(&setups), setups.len());
    rep.set("peak_rss_mb", rss as f64 / 1024.0);
    // The median over segments: a host stall during one stretch of the
    // run moves it little.
    rep.set_n("rate_per_s", median(&closed_rates), closed_ok as usize);
    rep.set_n("p50_ms", median(&all), all.len());
    // The slow path is the miss class: requests that run DIMSAT. Its
    // median holds steady from run to run; the p99 of sub-millisecond
    // latencies on a shared 2-core host does not, so it is reported
    // below by name but carries no bound.
    rep.set_n("slow_ms", median(&fixed.miss_ms), fixed.miss_ms.len());
    rep.set_n("warm_ms", median(&fixed.hit_ms), fixed.hit_ms.len());
    rep.note(format!(
        "per-workload names, at {FIXED_RATE}/s offered ({:.0}/s achieved, {SEGMENTS} segments): \
         serve_p50_ms = p50_ms = {:.4} ms, serve_p99_ms = {:.4} ms (n={}; not bounded), \
         serve_max_rps = {:.0}/s (highest ladder rung that held, of {rungs} run; not bounded); \
         rate_per_s is two closed-loop connections' throughput on warm requests, slow_ms the \
         miss class's p50, warm_ms the hit class's p50",
        achieved.iter().sum::<f64>() / achieved.len() as f64,
        median(&all),
        percentile(&all, 99.0),
        all.len(),
        best.unwrap_or(0.0)
    ));
    rep.note(format!(
        "generator lateness p99 {:.3} ms at the fixed rate; server cache hits {hits} of {lookups} lookups",
        percentile(&fixed.lateness_ms, 99.0)
    ));
    Ok(rep)
}

/// Closed-loop round trips of `reqs` on one connection, µs each.
fn round_trips(srv: &ServerProc, reqs: &[Req], rep: &mut Report) -> Result<Vec<f64>, String> {
    let mut c = srv.connect()?;
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs {
        let t0 = Instant::now();
        let resp = ask(&mut c, &r.line)?;
        out.push(t0.elapsed().as_secs_f64() * 1e6);
        let ok = resp.is_ok() && resp.payload == *r.expected;
        if !ok {
            rep.error(format!("`{}` answered `{}`", r.line, resp.status));
        }
        rep.attempt(ok);
    }
    Ok(out)
}

/// Two closed-loop connections, each sending its next request as soon as
/// the last is answered, for `secs` (or until `reqs` runs out): requests
/// answered, requests failed, and the seconds taken. Request `i` goes on
/// connection `i % 2`; every answer is checked.
fn closed_loop(srv: &ServerProc, reqs: &[Req], secs: f64) -> Result<(u64, u64, f64), String> {
    let mut conns = [srv.connect()?, srv.connect()?];
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let per: Vec<(u64, u64)> = std::thread::scope(|s| {
        let hs: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, c)| {
                s.spawn(move || {
                    let (mut ok, mut bad) = (0u64, 0u64);
                    for r in reqs.iter().skip(k).step_by(2) {
                        if Instant::now() >= end {
                            break;
                        }
                        match ask(c, &r.line) {
                            Ok(resp) if resp.is_ok() && resp.payload == *r.expected => ok += 1,
                            Ok(_) => bad += 1,
                            Err(_) => {
                                bad += 1;
                                break;
                            }
                        }
                    }
                    (ok, bad)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let (ok, bad) = per.iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    Ok((ok, bad, t0.elapsed().as_secs_f64()))
}

/// Passes over the warm kinds in the traced run's hit class.
const HIT_PASSES: usize = 10;
/// Fresh formulas in the traced run's miss class.
const TRACED_MISSES: usize = 100;

/// The traced run: the hit and miss classes as closed-loop round trips
/// and as in-process executions (parse, then exec against a warm
/// catalog), a second of open loop at the fixed rate for the generator's
/// lateness, and the server's cache counters.
fn traced(
    inp: &mut Inputs,
    srv: ServerProc,
    mut rep: Report,
    calib: &mut Vec<f64>,
    traffic: &mut Traffic,
) -> Result<Report, String> {
    let hits: Vec<Req> = (0..HIT_PASSES).flat_map(|_| inp.warm.clone()).collect();
    let misses: Vec<Req> = (0..TRACED_MISSES)
        .map(|_| inp.fresh())
        .collect::<Result<_, _>>()?;
    let rtt_hit = round_trips(&srv, &hits, &mut rep)?;
    let rtt_miss = round_trips(&srv, &misses, &mut rep)?;
    let reqs = traffic.batch(inp, FIXED_RATE as usize)?;
    let ph = open_loop(&srv, &reqs, FIXED_RATE)?;
    account(&mut rep, &ph, "fixed rate");
    // Counters first: the closed-loop peak sends as many requests as the
    // host allows, so its traffic would not repeat from run to run.
    let (c_hits, lookups, rejected) = server_stats(&srv)?;
    let batch = traffic.batch(inp, 40_000)?;
    let (ok, _, secs) = closed_loop(&srv, &batch, 1.0)?;
    let peak = ok as f64 / secs;
    srv.stop()?;
    calib.push(sys::calib_ms());

    // In-process: a fresh catalog warmed like the server, then the same
    // requests parsed and executed.
    type ExecUs = (Vec<f64>, Vec<f64>);
    let replay = |tr: &Tracer| -> Result<(f64, ExecUs), String> {
        let catalog = SchemaCatalog::new();
        for (n, t) in inp.names.iter().zip(&inp.texts) {
            catalog.insert(n, parse(t)?);
        }
        let off = Tracer::new(false);
        for r in &inp.warm {
            let cmd = Command::parse(&r.line)?;
            let e = catalog
                .get(cmd.schema().unwrap_or_default())
                .ok_or("no schema")?;
            exec(&e, &cmd, &off)?;
        }
        let (mut exec_hit, mut exec_miss) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        for r in hits.iter().chain(&misses) {
            let (payload, us) = tr.op("serve.op", || -> Result<(String, f64), String> {
                let cmd = tr.span("protocol.parse", || Command::parse(&r.line))?;
                tr.span("serve.exec", || {
                    let t = Instant::now();
                    let e = catalog
                        .get(cmd.schema().unwrap_or_default())
                        .ok_or("no schema")?;
                    let p = exec(&e, &cmd, tr)?.payload;
                    // The server frees the parsed request as part of
                    // executing it.
                    drop(cmd);
                    Ok((p, t.elapsed().as_secs_f64() * 1e6))
                })
            })?;
            if payload != *r.expected {
                return Err(format!("in-process `{}` answered differently", r.line));
            }
            if r.hit {
                exec_hit.push(us);
            } else {
                exec_miss.push(us);
            }
        }
        Ok((secs_ms(t0.elapsed()), (exec_hit, exec_miss)))
    };
    let (plain_ms, traced_ms, tr, (exec_hit, exec_miss)) = crate::trace::abba(|tr, _| replay(tr))?;
    let s = tr.summary();
    let ops = (hits.len() + misses.len()) as f64;
    rep.set(
        "protocol.parse_us",
        1e3 * s.layer_ms("protocol.parse") / ops,
    );
    rep.set_n("serve.exec_hit_us", median(&exec_hit), exec_hit.len());
    rep.set_n("serve.exec_miss_us", median(&exec_miss), exec_miss.len());
    rep.set_n(
        "serve.overhead_hit_us",
        median(&rtt_hit) - median(&exec_hit),
        rtt_hit.len(),
    );
    rep.set_n(
        "serve.overhead_miss_us",
        median(&rtt_miss) - median(&exec_miss),
        rtt_miss.len(),
    );
    rep.set("serve.cache_hits", c_hits as f64);
    rep.set("serve.cache_hit_ratio", ratio(c_hits, lookups));
    rep.set("serve.rejected", (rejected + ph.overloaded) as f64);
    rep.set_n(
        "loadgen.lateness_p99_ms",
        percentile(&ph.lateness_ms, 99.0),
        ph.lateness_ms.len(),
    );
    rep.set("dimsat.solve_ms", s.layer_ms("dimsat.solve"));
    for k in [
        "dimsat.solves",
        "dimsat.expand_calls",
        "dimsat.check_calls",
        "dimsat.assignments_tested",
        "dimsat.dead_ends",
    ] {
        rep.set(k, s.count(k) as f64);
    }
    let (h, m) = (s.count("dimsat.cache_hits"), s.count("dimsat.cache_misses"));
    rep.set("dimsat.cache_hit_ratio", ratio(h, h + m));
    rep.trace_checks(&s, plain_ms, traced_ms);
    rep.note(format!(
        "closed-loop peak with 2 connections: {peak:.0} requests/s (FIXED_RATE = {FIXED_RATE}/s is about half of it)"
    ));
    rep.note(format!(
        "closed-loop round trip p50: hit {:.1} us, miss {:.1} us",
        median(&rtt_hit),
        median(&rtt_miss)
    ));
    Ok(rep)
}
