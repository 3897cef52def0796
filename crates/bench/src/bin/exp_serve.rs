//! E13/E21: the resident-server experiments behind `BENCH_serve.json`.
//!
//! A seeded 200-request mixed workload (implies / summarizable /
//! frozen / audit over the seven `odc-workload` catalog schemas) is
//! replayed three ways:
//!
//! 1. **server, cold catalog** — a fresh `odc-serve` instance with four
//!    workers; the first pass pays every schema's cache misses.
//! 2. **server, warm catalog** — the same instance replays the same
//!    workload; implication batteries now answer from the resident
//!    per-schema [`ImplicationCache`]s across requests.
//! 3. **serial CLI** — one `odc` subprocess per request against the
//!    schema file, the one-shot baseline the server amortizes away.
//!
//! On top of the mixed replay (E13), the harness drives the
//! event-driven server through four load experiments (E21):
//!
//! * **saturation** — closed-loop pipelined clients at increasing
//!   batch depth; the curve shows where syscall amortization stops
//!   paying and what the peak request rate is. Compared against the
//!   recorded baseline of the retired thread-per-connection server.
//! * **slo** — an open-loop arrival process at half the measured peak;
//!   requests are stamped with their *scheduled* send time, so queueing
//!   delay (and coordinated omission) lands in the histogram. Reported
//!   as p50/p99/p999 against the warm SLO.
//! * **idle** — five thousand idle connections are parked on the
//!   server; the worker-thread count must not move and a re-measured
//!   throughput point must not regress: idle connections are poller
//!   registrations, not threads.
//! * **warm_restart** — the server drains (persisting each schema's
//!   implication cache), restarts over the same `--cache-dir`, and the
//!   first request of the new process is timed against the hot
//!   server's steady-state latency for the same request.
//!
//! Every CLI run's verdict line must be byte-identical to the server's
//! answer for the same request — the bench doubles as a parity audit —
//! and a single dropped response fails the run.
//!
//! Run with: `cargo run --release -p odc-bench --bin exp_serve`
//! (`--smoke` or `ODC_BENCH_QUICK=1` for a scaled-down smoke run that
//! leaves `results/BENCH_serve.json` untouched).
//!
//! [`ImplicationCache`]: odc_core::dimsat::ImplicationCache

use odc_core::constraint::printer::display_dc;
use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use odc_serve::{Client, Response, ServeConfig, Server};
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 0x0d15_5e7e;
const CLIENTS: usize = 4;
/// Throughput of the retired thread-per-connection server, recorded
/// before it was deleted (4 workers, 4 closed-loop clients, no
/// pipelining) — the bar the event loop is measured against.
const BASELINE_RPS: f64 = 11197.46;
/// Warm SLO: p99 round-trip for warm mixed requests at half peak load.
const WARM_SLO_US: f64 = 25_000.0;

/// One workload request: the server line and its CLI twin.
#[derive(Clone)]
struct Req {
    /// Catalog schema the request targets.
    schema: &'static str,
    /// Protocol line sent to the server.
    line: String,
    /// argv for the equivalent one-shot CLI run (`schema` becomes the
    /// schema file path at spawn time).
    cli: Vec<String>,
}

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--smoke") || std::env::var_os("ODC_BENCH_QUICK").is_some();
    let n_requests = if smoke { 40 } else { 200 };
    println!("E13/E21 — resident server: warm catalog vs cold CLI, {n_requests} requests");

    // ── workload ─────────────────────────────────────────────────────
    let catalog = odc_workload::catalog();
    let schemas: Vec<(&'static str, String)> = catalog
        .iter()
        .map(|e| (e.name, odc_core::schema_to_text(&e.schema)))
        .collect();
    let requests = build_workload(&catalog, n_requests);

    // Schema files for the CLI baseline, from the *same* in-memory
    // schemas the server loads — both sides see identical text.
    let dir = std::env::temp_dir().join(format!("odc-exp-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut files = std::collections::HashMap::new();
    for (name, text) in &schemas {
        let path = dir.join(format!("{name}.odcs"));
        std::fs::write(&path, text).expect("write schema file");
        files.insert(*name, path);
    }
    let cache_dir = dir.join("warm-cache");

    // ── server passes ────────────────────────────────────────────────
    let server = Server::bind(ServeConfig {
        workers: 4,
        queue_cap: 8192,
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind server");
    for (name, text) in &schemas {
        server.catalog().load_text(name, text).expect("load schema");
    }
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    let cold = replay(addr, &requests);
    let warm = replay(addr, &requests);

    let mut probe = Client::connect(addr).expect("connect probe");
    let stats_payload = probe.request("stats").expect("stats").payload;
    let (hits, cross, misses) = cache_counters(&stats_payload);
    let hit_rate = (hits + cross) as f64 / ((hits + cross + misses).max(1)) as f64;
    drop(probe);

    // ── saturation curve (closed loop, pipelined) ────────────────────
    let per_point = if smoke { Duration::from_millis(400) } else { Duration::from_millis(1500) };
    let grid: &[(usize, usize)] = if smoke {
        &[(4, 1), (4, 8)]
    } else {
        &[(4, 1), (4, 4), (4, 16), (4, 64), (8, 32), (16, 32)]
    };
    let mut points = Vec::new();
    let mut peak_rps = 0.0f64;
    println!("\nsaturation (closed loop, warm catalog):");
    for &(clients, depth) in grid {
        let rps = pump(addr, &requests, clients, depth, per_point);
        println!("  {clients:>2} conns x depth {depth:>2}: {rps:>9.0} req/s");
        peak_rps = peak_rps.max(rps);
        points.push((clients, depth, rps));
    }
    let speedup = peak_rps / BASELINE_RPS;
    println!("  peak {peak_rps:.0} req/s = {speedup:.2}x the threaded baseline ({BASELINE_RPS:.0})");

    // ── open-loop SLO at half peak ───────────────────────────────────
    let offered = peak_rps * 0.5;
    let slo_dur = if smoke { Duration::from_millis(500) } else { Duration::from_secs(3) };
    let slo_conns = if smoke { 4 } else { 8 };
    let (achieved, mut lats) = open_loop(addr, &requests, slo_conns, offered, slo_dur);
    lats.sort();
    let pct = |q: f64| -> f64 {
        if lats.is_empty() {
            return 0.0;
        }
        us(lats[((lats.len() - 1) as f64 * q) as usize])
    };
    let (ol_p50, ol_p99, ol_p999) = (pct(0.5), pct(0.99), pct(0.999));
    let p99_ok = ol_p99 <= WARM_SLO_US;
    println!(
        "open loop at {offered:.0} req/s offered ({slo_conns} conns): achieved {achieved:.0} req/s, \
         p50 {ol_p50:.0}us p99 {ol_p99:.0}us p999 {ol_p999:.0}us (SLO p99 <= {WARM_SLO_US:.0}us: {})",
        if p99_ok { "met" } else { "MISSED" }
    );

    // ── idle-connection scaling ──────────────────────────────────────
    let idle_n = if smoke { 200 } else { 5000 };
    // Interleaved A/B rounds (alone vs herd-parked), best of each arm:
    // machine-wide drift and scheduler noise swing single pump runs by
    // double-digit percent, and interleaving keeps that noise from
    // masquerading as a herd effect.
    let idle_rounds = if smoke { 1 } else { 3 };
    let mut rps_without_idle = f64::MIN;
    let mut rps_with_idle = f64::MIN;
    let mut threads_before = 0usize;
    let mut threads_with_idle = 0usize;
    for round in 0..idle_rounds {
        rps_without_idle = rps_without_idle.max(pump(addr, &requests, 4, 16, per_point));
        if round == 0 {
            threads_before = thread_count();
        }
        let herd: Vec<TcpStream> = (0..idle_n)
            .map(|i| {
                TcpStream::connect(addr)
                    .unwrap_or_else(|e| panic!("idle conn {i}/{idle_n} refused: {e}"))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        if round == 0 {
            threads_with_idle = thread_count();
        }
        rps_with_idle = rps_with_idle.max(pump(addr, &requests, 4, 16, per_point));
        drop(herd);
        std::thread::sleep(Duration::from_millis(200));
    }
    let idle_ratio = rps_with_idle / rps_without_idle.max(1.0);
    println!(
        "idle: {idle_n} parked conns; threads {threads_before} -> {threads_with_idle}; \
         {rps_without_idle:.0} req/s alone vs {rps_with_idle:.0} req/s with herd ({:.2}x)",
        idle_ratio
    );
    assert_eq!(
        threads_before, threads_with_idle,
        "idle connections changed the thread count"
    );

    // ── hot first-request latency (for the restart comparison) ───────
    let probe = requests
        .iter()
        .find(|r| r.line.starts_with("implies "))
        .unwrap_or(&requests[0]);
    let probe_line = probe.line.clone();
    // Warmup control: a solve against a different schema, so shard
    // machinery is exercised without touching the probe schema's cache.
    let warmup_line = requests
        .iter()
        .find(|r| r.schema != probe.schema && r.line.starts_with("implies "))
        .map(|r| r.line.clone())
        .unwrap_or_else(|| "ping".to_string());
    let hot_first = first_request_rtt(addr, &warmup_line, &probe_line, if smoke { 3 } else { 15 });

    handle.drain();
    let stats = join.join().expect("server thread").expect("server run");

    // ── serial CLI baseline + parity audit ───────────────────────────
    let odc = cli_binary();
    let n_cold = if smoke { 10 } else { requests.len() };
    let mut cli_lat = Vec::with_capacity(n_cold);
    let mut parity_ok = 0usize;
    for (req, server_answer) in requests.iter().zip(&warm.answers).take(n_cold) {
        let file = &files[req.schema];
        let t0 = Instant::now();
        let out = std::process::Command::new(&odc)
            .args(req.cli.iter().map(|a| {
                if a == "<schema>" {
                    file.to_string_lossy().into_owned()
                } else {
                    a.clone()
                }
            }))
            .output()
            .expect("spawn odc");
        cli_lat.push(t0.elapsed());
        assert!(out.status.success(), "cli failed for `{}`", req.line);
        let cli_text = String::from_utf8(out.stdout).expect("cli utf8");
        let cli_verdict = cli_text.lines().next().unwrap_or("");
        let server_verdict = server_answer.lines().next().unwrap_or("");
        assert_eq!(
            server_verdict, cli_verdict,
            "verdict divergence on `{}`",
            req.line
        );
        parity_ok += 1;
    }

    // ── warm restart over the persisted cache dir ────────────────────
    let cycles = if smoke { 2 } else { 9 };
    let mut restart_firsts = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let server = Server::bind(ServeConfig {
            workers: 4,
            queue_cap: 8192,
            cache_dir: Some(cache_dir.clone()),
            ..ServeConfig::default()
        })
        .expect("bind restarted server");
        assert!(
            !server.catalog().is_empty(),
            "restart loaded no schemas from the cache dir"
        );
        let addr = server.local_addr();
        let h = server.shutdown_handle();
        let j = std::thread::spawn(move || server.run());
        restart_firsts.push(first_request_rtt(addr, &warmup_line, &probe_line, 1));
        h.drain();
        j.join().expect("restart thread").expect("restart run");
    }
    restart_firsts.sort();
    let restart_first = restart_firsts[restart_firsts.len() / 2];
    let restart_ratio = us(restart_first) / us(hot_first).max(1.0);
    println!(
        "warm restart: first request {:.0}us vs hot {:.0}us ({restart_ratio:.2}x, median of {cycles} cycles); \
         {} cache(s) persisted on drain",
        us(restart_first),
        us(hot_first),
        stats.caches_persisted
    );

    // ── report ───────────────────────────────────────────────────────
    let dropped = requests.len() - warm.answers.len();
    assert_eq!(dropped, 0, "warm pass dropped {dropped} response(s)");
    assert_eq!(cold.answers.len(), requests.len(), "cold pass dropped responses");

    let summary = |mut lat: Vec<Duration>| {
        lat.sort();
        let pick = |q: f64| lat[((lat.len() - 1) as f64 * q) as usize];
        (pick(0.5), pick(0.99))
    };
    let (first_p50, first_p99) = summary(cold.latencies.clone());
    let (warm_p50, warm_p99) = summary(warm.latencies.clone());
    let (cli_p50, cli_p99) = summary(cli_lat.clone());
    let warm_rps = requests.len() as f64 / warm.elapsed.as_secs_f64();

    println!("\nfirst pass:   p50 {:>8.1}us  p99 {:>8.1}us  (server, cold caches)", us(first_p50), us(first_p99));
    println!("warm:         p50 {:>8.1}us  p99 {:>8.1}us  (server, resident caches)", us(warm_p50), us(warm_p99));
    println!("cold:         p50 {:>8.1}us  p99 {:>8.1}us  (one-shot CLI, {n_cold} samples)", us(cli_p50), us(cli_p99));
    println!(
        "throughput {warm_rps:.0} req/s over {CLIENTS} connections; cache hit rate {:.1}% \
         (hits {hits}, cross {cross}, misses {misses})",
        hit_rate * 100.0
    );
    println!(
        "parity: {parity_ok}/{n_cold} verdicts byte-identical; served {} rejected {}",
        stats.served, stats.rejected
    );
    assert!(
        warm_p50 < cli_p50,
        "warm server median must beat the cold one-shot CLI"
    );

    // "cold" = the one-shot CLI the server amortizes away (process
    // spawn + schema parse per query); "warm" = the resident server
    // with populated caches. The server's own first pass is reported
    // separately as `server_first_pass_*`.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"requests\": {},", requests.len());
    let _ = writeln!(json, "  \"clients\": {CLIENTS},");
    let _ = writeln!(json, "  \"throughput_rps\": {warm_rps:.2},");
    let _ = writeln!(json, "  \"warm_p50_us\": {:.1},", us(warm_p50));
    let _ = writeln!(json, "  \"warm_p99_us\": {:.1},", us(warm_p99));
    let _ = writeln!(json, "  \"cold_p50_us\": {:.1},", us(cli_p50));
    let _ = writeln!(json, "  \"cold_p99_us\": {:.1},", us(cli_p99));
    let _ = writeln!(json, "  \"cold_samples\": {n_cold},");
    let _ = writeln!(json, "  \"warm_vs_cold_median_speedup\": {:.1},", us(cli_p50) / us(warm_p50));
    let _ = writeln!(json, "  \"server_first_pass_p50_us\": {:.1},", us(first_p50));
    let _ = writeln!(json, "  \"server_first_pass_p99_us\": {:.1},", us(first_p99));
    let _ = writeln!(json, "  \"cache_hits\": {hits},");
    let _ = writeln!(json, "  \"cache_cross_hits\": {cross},");
    let _ = writeln!(json, "  \"cache_misses\": {misses},");
    let _ = writeln!(json, "  \"cache_hit_rate\": {hit_rate:.4},");
    let _ = writeln!(json, "  \"parity_checked\": {n_cold},");
    let _ = writeln!(json, "  \"parity_identical\": {parity_ok},");
    let _ = writeln!(json, "  \"dropped_responses\": {dropped},");
    json.push_str("  \"saturation\": {\n");
    let _ = writeln!(json, "    \"baseline_rps\": {BASELINE_RPS:.2},");
    json.push_str("    \"points\": [\n");
    for (i, (clients, depth, rps)) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"clients\": {clients}, \"pipeline\": {depth}, \"rps\": {rps:.2}}}{comma}"
        );
    }
    json.push_str("    ],\n");
    let _ = writeln!(json, "    \"peak_rps\": {peak_rps:.2},");
    let _ = writeln!(json, "    \"speedup_vs_baseline\": {speedup:.2}");
    json.push_str("  },\n");
    json.push_str("  \"slo\": {\n");
    let _ = writeln!(json, "    \"offered_rps\": {offered:.2},");
    let _ = writeln!(json, "    \"achieved_rps\": {achieved:.2},");
    let _ = writeln!(json, "    \"open_loop_conns\": {slo_conns},");
    let _ = writeln!(json, "    \"p50_us\": {ol_p50:.1},");
    let _ = writeln!(json, "    \"p99_us\": {ol_p99:.1},");
    let _ = writeln!(json, "    \"p999_us\": {ol_p999:.1},");
    let _ = writeln!(json, "    \"warm_slo_p99_us\": {WARM_SLO_US:.1},");
    let _ = writeln!(json, "    \"p99_within_slo\": {p99_ok}");
    json.push_str("  },\n");
    json.push_str("  \"idle\": {\n");
    let _ = writeln!(json, "    \"idle_conns\": {idle_n},");
    let _ = writeln!(json, "    \"threads_before\": {threads_before},");
    let _ = writeln!(json, "    \"threads_with_idle\": {threads_with_idle},");
    let _ = writeln!(json, "    \"rps_without_idle\": {rps_without_idle:.2},");
    let _ = writeln!(json, "    \"rps_with_idle\": {rps_with_idle:.2},");
    let _ = writeln!(json, "    \"throughput_ratio\": {idle_ratio:.3}");
    json.push_str("  },\n");
    json.push_str("  \"warm_restart\": {\n");
    let _ = writeln!(json, "    \"cycles\": {cycles},");
    let _ = writeln!(json, "    \"hot_first_us\": {:.1},", us(hot_first));
    let _ = writeln!(json, "    \"restart_first_us\": {:.1},", us(restart_first));
    let _ = writeln!(json, "    \"ratio\": {restart_ratio:.2},");
    let _ = writeln!(json, "    \"caches_persisted\": {}", stats.caches_persisted);
    json.push_str("  }\n");
    json.push_str("}\n");

    let _ = std::fs::remove_dir_all(&dir);
    if smoke {
        println!("\nsmoke run: results/BENCH_serve.json left untouched");
        return;
    }
    let results = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let _ = std::fs::create_dir_all(&results);
    let path = format!("{results}/BENCH_serve.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

/// Draws a seeded mixed workload over the catalog. Every request has an
/// exact CLI twin so the parity audit covers the whole mix.
fn build_workload(catalog: &[odc_workload::CatalogEntry], n: usize) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let e = &catalog[rng.gen_range(0usize..catalog.len())];
        let g = e.schema.hierarchy();
        let kind = rng.gen_range(0u32..10);
        let req = match kind {
            // 40%: a summarizability query from the entry's battery.
            0..=3 if !e.queries.is_empty() => {
                let (target, sources) = &e.queries[rng.gen_range(0usize..e.queries.len())];
                let mut line = format!("summarizable {} {}", e.name, g.name(*target));
                let mut cli = vec![
                    "summarizable".to_string(),
                    "<schema>".to_string(),
                    g.name(*target).to_string(),
                ];
                for s in sources {
                    line.push(' ');
                    line.push_str(g.name(*s));
                    cli.push(g.name(*s).to_string());
                }
                Req { schema: e.name, line, cli }
            }
            // 30%: implication of one of the schema's own constraints
            // (implied by definition — the interesting cost is the
            // battery DIMSAT runs to prove it).
            4..=6 if !e.schema.constraints().is_empty() => {
                let cs = e.schema.constraints();
                let dc = &cs[rng.gen_range(0usize..cs.len())];
                let text = display_dc(g, dc).to_string();
                Req {
                    schema: e.name,
                    line: format!("implies {} \"{text}\"", e.name),
                    cli: vec!["implies".to_string(), "<schema>".to_string(), text],
                }
            }
            // 20%: frozen-dimension enumeration from a random category.
            7..=8 => {
                let cats: Vec<_> = g.categories().filter(|c| !c.is_all()).collect();
                let root = cats[rng.gen_range(0usize..cats.len())];
                Req {
                    schema: e.name,
                    line: format!("frozen {} {}", e.name, g.name(root)),
                    cli: vec![
                        "frozen".to_string(),
                        "<schema>".to_string(),
                        g.name(root).to_string(),
                    ],
                }
            }
            // 10%: full schema audit.
            _ => Req {
                schema: e.name,
                line: format!("audit {}", e.name),
                cli: vec!["check".to_string(), "<schema>".to_string()],
            },
        };
        out.push(req);
    }
    out
}

struct Replay {
    /// Payload per request, workload order.
    answers: Vec<String>,
    /// Round-trip latency per request, workload order.
    latencies: Vec<Duration>,
    elapsed: Duration,
}

/// Replays the workload over `CLIENTS` concurrent connections
/// (round-robin split, so the per-request pairing with CLI runs stays
/// deterministic) and reassembles answers in workload order.
fn replay(addr: SocketAddr, requests: &[Req]) -> Replay {
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for shard in 0..CLIENTS {
        let lines: Vec<(usize, String)> = requests
            .iter()
            .enumerate()
            .skip(shard)
            .step_by(CLIENTS)
            .map(|(i, r)| (i, r.line.clone()))
            .collect();
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let mut out = Vec::with_capacity(lines.len());
            for (i, line) in lines {
                let r0 = Instant::now();
                let resp = c.request(&line).expect("request");
                let rtt = r0.elapsed();
                assert!(
                    resp.is_ok(),
                    "request `{line}` answered `{}`",
                    resp.status
                );
                out.push((i, resp.payload, rtt));
            }
            let _ = c.quit();
            out
        }));
    }
    let mut answers = vec![String::new(); requests.len()];
    let mut latencies = vec![Duration::ZERO; requests.len()];
    for h in handles {
        for (i, payload, rtt) in h.join().expect("client thread") {
            answers[i] = payload;
            latencies[i] = rtt;
        }
    }
    Replay { answers, latencies, elapsed: t0.elapsed() }
}

/// Closed-loop pipelined pump: `clients` connections each write
/// `depth`-request batches in a single syscall, read `depth` framed
/// responses back, and repeat until the deadline. Returns requests/s
/// over the full span (connect to last response).
fn pump(addr: SocketAddr, requests: &[Req], clients: usize, depth: usize, dur: Duration) -> f64 {
    let t0 = Instant::now();
    let deadline = t0 + dur;
    let handles: Vec<_> = (0..clients)
        .map(|shard| {
            let lines: Vec<String> = requests
                .iter()
                .skip(shard % requests.len())
                .chain(requests.iter())
                .map(|r| r.line.clone())
                .collect();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("pump connect");
                let mut w = stream.try_clone().expect("pump clone");
                let mut rd = std::io::BufReader::new(stream);
                let mut done = 0usize;
                let mut cursor = 0usize;
                while Instant::now() < deadline {
                    let mut batch = String::new();
                    for _ in 0..depth {
                        batch.push_str(&lines[cursor % lines.len()]);
                        batch.push('\n');
                        cursor += 1;
                    }
                    w.write_all(batch.as_bytes()).expect("pump write");
                    for _ in 0..depth {
                        let resp = Response::read_from(&mut rd)
                            .expect("pump read")
                            .expect("pump eof");
                        assert!(resp.is_ok(), "pump answered `{}`", resp.status);
                        done += 1;
                    }
                }
                done
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().expect("pump thread")).sum();
    total as f64 / t0.elapsed().as_secs_f64()
}

/// Open-loop load: `conns` connections share an `offered` req/s
/// arrival schedule. Each request's latency is measured from its
/// *scheduled* send time, so server-side queueing and sender lag both
/// count (no coordinated omission). Returns (achieved rps, latencies).
fn open_loop(
    addr: SocketAddr,
    requests: &[Req],
    conns: usize,
    offered: f64,
    dur: Duration,
) -> (f64, Vec<Duration>) {
    let per_conn = (offered / conns as f64).max(1.0);
    let interval = Duration::from_secs_f64(1.0 / per_conn);
    let tick = Duration::from_millis(4);
    let n = (dur.as_secs_f64() * per_conn).ceil() as usize;
    let start = Instant::now() + Duration::from_millis(100);
    let handles: Vec<_> = (0..conns)
        .map(|shard| {
            let lines: Vec<String> = requests
                .iter()
                .skip(shard % requests.len())
                .chain(requests.iter())
                .map(|r| r.line.clone())
                .collect();
            // Stagger each sender's schedule by a fraction of the send
            // tick, so the batched sends arrive as interleaved ripples
            // rather than synchronized waves.
            let phase = tick.mul_f64(shard as f64 / conns as f64);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("open-loop connect");
                let mut w = stream.try_clone().expect("open-loop clone");
                let reader = std::thread::spawn(move || {
                    let mut rd = std::io::BufReader::new(stream);
                    let mut lats = Vec::with_capacity(n);
                    for i in 0..n {
                        let resp = Response::read_from(&mut rd)
                            .expect("open-loop read")
                            .expect("open-loop eof");
                        assert!(resp.is_ok(), "open loop answered `{}`", resp.status);
                        let sched = start + phase + interval.mul_f64(i as f64);
                        lats.push(Instant::now().saturating_duration_since(sched));
                    }
                    lats
                });
                // Sends are batched on a coarse tick: with thousands of
                // arrivals per second, waking per request would turn
                // the load generator itself into the bottleneck on a
                // small machine. Requests due within a tick go out in
                // one write; each is still scored against its own
                // scheduled time, so batching delay lands in the
                // histogram, never hides from it.
                let mut i = 0usize;
                while i < n {
                    let now = Instant::now();
                    let mut batch = String::new();
                    while i < n && start + phase + interval.mul_f64(i as f64) <= now {
                        batch.push_str(&lines[i % lines.len()]);
                        batch.push('\n');
                        i += 1;
                    }
                    if !batch.is_empty() {
                        w.write_all(batch.as_bytes()).expect("open-loop write");
                    }
                    if i < n {
                        let next = (start + phase + interval.mul_f64(i as f64))
                            .max(Instant::now() + tick);
                        std::thread::sleep(next.saturating_duration_since(Instant::now()));
                    }
                }
                reader.join().expect("open-loop reader")
            })
        })
        .collect();
    let mut lats = Vec::new();
    for h in handles {
        lats.extend(h.join().expect("open-loop thread"));
    }
    let span = Instant::now().saturating_duration_since(start);
    let achieved = lats.len() as f64 / span.as_secs_f64().max(1e-9);
    (achieved, lats)
}

/// First-request latency for one reasoning line, median over `samples`
/// fresh connections. Each sample opens its own connection, sends an
/// untimed `ping` (absorbing TCP setup and the accept/registration
/// path), and an untimed `warmup` solve against a *different* schema
/// (absorbing one-time dispatch/shard machinery costs that have
/// nothing to do with cache state). The timed request then isolates
/// the probe schema's reasoning path — the exact variable warm-cache
/// persistence claims to preserve. Hot and restarted servers are
/// measured with the identical protocol.
fn first_request_rtt(addr: SocketAddr, warmup: &str, line: &str, samples: usize) -> Duration {
    let mut rtts = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut c = Client::connect(addr).expect("rtt connect");
        assert!(c.request("ping").expect("rtt ping").is_ok());
        assert!(c.request(warmup).expect("rtt warmup").is_ok());
        let t0 = Instant::now();
        let r = c.request(line).expect("rtt request");
        rtts.push(t0.elapsed());
        assert!(r.is_ok(), "rtt probe answered `{}`", r.status);
        let _ = c.quit();
    }
    rtts.sort();
    rtts[rtts.len() / 2]
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[cfg(not(target_os = "linux"))]
fn thread_count() -> usize {
    0
}

/// Sums `hits`/`cross_hits`/`misses` over the per-schema `stats` lines.
fn cache_counters(stats: &str) -> (u64, u64, u64) {
    let field = |line: &str, key: &str| -> u64 {
        line.split_whitespace()
            .skip_while(|w| *w != key)
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let mut totals = (0, 0, 0);
    for line in stats.lines().filter(|l| l.starts_with("schema ")) {
        totals.0 += field(line, "hits");
        totals.1 += field(line, "cross_hits");
        totals.2 += field(line, "misses");
    }
    totals
}

/// The `odc` CLI binary: a sibling of this experiment binary, or
/// `ODC_BIN` when running from an unusual layout.
fn cli_binary() -> PathBuf {
    if let Some(p) = std::env::var_os("ODC_BIN") {
        return PathBuf::from(p);
    }
    let mut p = std::env::current_exe().expect("current_exe");
    p.set_file_name("odc");
    p
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
