//! `store`: the columnar fact store and rollup execution through
//! `odc ingest` and `odc cube`.
//!
//! Set-up loads a seeded `locationSch` dimension (20k stores over 400
//! cities) into fresh store directories; a 2M-fact stream is then
//! ingested into each. The timed sequence interleaves 1k-row appends
//! (writes) with `odc cube … Country` read both directly and `--via City`
//! (a verdict-safe cuboid), plus a forbidden `--via State`, which must
//! exit 2 and name the failing bottom. The store and olap do all the
//! work; reasoning runs only in the measured summarizability verdicts.
//!
//! The store does no fsync, so `sync(2)` runs between operations,
//! outside the timed windows, to keep one append's write-back out of the
//! next cube's timing.

use crate::report::{digest, Report};
use crate::stats::{median, percentile, secs_ms};
use crate::sys::{self, CliRun};
use crate::trace::Tracer;
use crate::Config;
use odc_core::olap::{choose_source, roll_up, AggFn};
use odc_core::prelude::*;
use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use odc_store::FactStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const STORES: usize = 20_000;
const CITIES: usize = 400;
const FACTS: usize = 2_000_000;
const APPEND_ROWS: usize = 1_000;
/// The `--small` sizes of the determinism self-test.
const SMALL: (usize, usize, usize) = (2_000, 40, 20_000);
/// Lines per validated batch, as `odc ingest` defaults to.
const BATCH_ROWS: usize = 4096;
/// Every `BULK_EVERY`-th cycle also ingests the bulk fact stream into a
/// fresh store.
const BULK_EVERY: usize = 4;
/// Every `FORBIDDEN_EVERY`-th cycle also asks for the forbidden rollup.
const FORBIDDEN_EVERY: usize = 4;
/// Cycles of the traced run.
const TRACED_CYCLES: usize = 3;

/// The generated `locationSch` dimension and its fact streams.
struct Inputs {
    schema_file: PathBuf,
    schema_text: String,
    members: String,
    /// Country of each store.
    store_country: Vec<&'static str>,
    stores: usize,
    rng: StdRng,
}

const COUNTRIES: [&str; 3] = ["Canada", "USA", "Mexico"];

impl Inputs {
    /// The member stream, parents before children. Canadian cities roll
    /// up through provinces to sale regions, American cities through
    /// states straight to the USA (their stores get a sale region of
    /// their own), Mexican cities through states to sale regions, and
    /// Washington skips to its country — every constraint of
    /// `locationSch` holds.
    fn new(seed: u64, stores: usize, cities: usize, dir: &Path) -> Result<Inputs, String> {
        let ds = odc_workload::location_sch();
        let schema_text = odc_core::schema_to_text(&ds);
        let schema_file = dir.join("location.odcs");
        std::fs::write(&schema_file, &schema_text).map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5702_E000_0000_0003);
        let mut m = String::new();
        for c in COUNTRIES {
            m.push_str(&format!("{c} : Country < all\n"));
        }
        // Sale regions: 0-2 Canada, 3-4 Mexico, 5-7 USA.
        let region_country = |r: usize| match r {
            0..=2 => "Canada",
            3..=4 => "Mexico",
            _ => "USA",
        };
        for r in 0..8 {
            m.push_str(&format!("R{r} : SaleRegion < {}\n", region_country(r)));
        }
        for p in 0..10 {
            m.push_str(&format!("P{p} : Province < R{}\n", p % 3));
        }
        for s in 0..20 {
            m.push_str(&format!("S{s} : State < USA\n"));
        }
        for s in 0..8 {
            m.push_str(&format!("M{s} : State < R{}\n", 3 + s % 2));
        }
        let mut city_country = Vec::with_capacity(cities);
        m.push_str("Washington : City < USA\n");
        city_country.push("USA");
        for c in 1..cities {
            let country = match rng.gen_range(0..10) {
                0..=2 => {
                    m.push_str(&format!("c{c} : City < P{}\n", rng.gen_range(0..10)));
                    "Canada"
                }
                3..=7 => {
                    m.push_str(&format!("c{c} : City < S{}\n", rng.gen_range(0..20)));
                    "USA"
                }
                _ => {
                    m.push_str(&format!("c{c} : City < M{}\n", rng.gen_range(0..8)));
                    "Mexico"
                }
            };
            city_country.push(country);
        }
        let mut store_country = Vec::with_capacity(stores);
        for s in 0..stores {
            let c = rng.gen_range(0..cities);
            let city = if c == 0 {
                "Washington".to_string()
            } else {
                format!("c{c}")
            };
            if city_country[c] == "USA" {
                m.push_str(&format!(
                    "st{s} : Store < {city}, R{}\n",
                    rng.gen_range(5..8)
                ));
            } else {
                m.push_str(&format!("st{s} : Store < {city}\n"));
            }
            store_country.push(city_country[c]);
        }
        Ok(Inputs {
            schema_file,
            schema_text,
            members: m,
            store_country,
            stores,
            rng,
        })
    }

    /// `n` seeded fact lines, adding each measure to its country's total.
    fn facts(&mut self, n: usize, totals: &mut BTreeMap<&'static str, i64>) -> String {
        let mut out = String::with_capacity(n * 16);
        for _ in 0..n {
            let s = self.rng.gen_range(0..self.stores);
            let v: i64 = self.rng.gen_range(-100..=100);
            *totals.entry(self.store_country[s]).or_default() += v;
            out.push_str(&format!("st{s} -> {v}\n"));
        }
        out
    }
}

/// The cells a `cube … Country` run printed, by member key.
fn cells(out: &str) -> BTreeMap<String, i64> {
    out.lines()
        .filter_map(|l| {
            let (k, v) = l.strip_prefix("  ")?.split_once(" -> ")?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

fn expected_cells(totals: &BTreeMap<&'static str, i64>) -> BTreeMap<String, i64> {
    totals.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// One CLI operation of the sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Append,
    Direct,
    Via,
    Forbidden,
}

struct Ctx<'a> {
    cfg: &'a Config,
    log: PathBuf,
    /// The member stream and the bulk fact stream, as files.
    members_file: String,
    facts_file: String,
    /// Facts in the bulk stream.
    n_facts: usize,
}

impl Ctx<'_> {
    fn odc(&self, args: &[&str]) -> Result<CliRun, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        sys::run_cli(&self.cfg.odc, &args, &self.log).map_err(|e| e.to_string())
    }
}

fn ingest_args<'a>(dir: &'a str, schema: Option<&'a str>, facts: &'a str) -> Vec<&'a str> {
    let mut a = vec!["ingest", dir];
    a.extend(schema);
    a.extend(["--facts", facts]);
    a
}

/// Runs one sequence operation through the CLI and checks its output.
/// `totals` are the expected Country cells of the store as it stands.
fn cli_op(
    ctx: &Ctx<'_>,
    op: Op,
    dir: &str,
    append_file: &str,
    totals: &BTreeMap<&'static str, i64>,
    rep: &mut Report,
) -> Result<CliRun, String> {
    let run = match op {
        Op::Append => ctx.odc(&ingest_args(dir, None, append_file))?,
        Op::Direct => ctx.odc(&["cube", dir, "Country"])?,
        Op::Via => ctx.odc(&["cube", dir, "Country", "--via", "City"])?,
        Op::Forbidden => ctx.odc(&["cube", dir, "Country", "--via", "State"])?,
    };
    let ok = match op {
        Op::Append => run.code == 0 && run.stdout.contains(&format!("{APPEND_ROWS} fact(s),")),
        Op::Direct => run.code == 0 && cells(&run.stdout) == expected_cells(totals),
        Op::Via => {
            run.code == 0
                && run.stdout.contains("verified: cells identical")
                && cells(&run.stdout) == expected_cells(totals)
        }
        Op::Forbidden => run.code == 2 && run.stdout.contains("failing bottom: Store"),
    };
    if !ok {
        rep.error(format!(
            "{op:?}: exit {}, printed {:?}",
            run.code,
            run.stdout.lines().take(4).collect::<Vec<_>>()
        ));
    }
    rep.attempt(ok);
    Ok(run)
}

/// Ingests the bulk fact stream into the store at `dir` and checks that
/// all of it was committed.
fn bulk_ingest(ctx: &Ctx<'_>, dir: &str, rep: &mut Report) -> Result<CliRun, String> {
    let run = ctx.odc(&ingest_args(dir, None, &ctx.facts_file))?;
    let ok = run.code == 0 && run.stdout.contains(&format!(" {} fact(s),", ctx.n_facts));
    if !ok {
        rep.error(format!(
            "bulk ingest: exit {}, printed {:?}",
            run.code, run.stdout
        ));
    }
    rep.attempt(ok);
    Ok(run)
}

/// Set-up and bulk-ingest samples of one run.
#[derive(Default)]
struct Loads {
    /// Member loads, seconds each.
    setup_s: Vec<f64>,
    /// Bulk ingests and their summed seconds.
    bulks: usize,
    bulk_secs: f64,
    /// Each process's peak RSS, MB.
    rss_mb: Vec<f64>,
}

impl Loads {
    /// Loads the dimension into a fresh store at `dir` and, if `bulk`,
    /// ingests the bulk fact stream into it.
    fn take(
        &mut self,
        ctx: &Ctx<'_>,
        inp: &Inputs,
        dir: &Path,
        bulk: bool,
        rep: &mut Report,
    ) -> Result<(), String> {
        let run = setup(ctx, inp, dir, rep)?;
        self.setup_s.push(run.wall.as_secs_f64());
        self.rss_mb.push(run.maxrss_kb as f64 / 1024.0);
        if bulk {
            let run = bulk_ingest(ctx, &dir.display().to_string(), rep)?;
            self.bulks += 1;
            self.bulk_secs += run.wall.as_secs_f64();
            self.rss_mb.push(run.maxrss_kb as f64 / 1024.0);
            sys::flush_disk();
        }
        Ok(())
    }
}

/// Loads the dimension into a fresh store directory: the program's
/// set-up before any fact arrives.
fn setup(ctx: &Ctx<'_>, inp: &Inputs, dir: &Path, rep: &mut Report) -> Result<CliRun, String> {
    sys::fresh_dir(dir).map_err(|e| e.to_string())?;
    std::fs::remove_dir(dir).map_err(|e| e.to_string())?;
    let d = dir.display().to_string();
    let schema = inp.schema_file.display().to_string();
    let run = ctx.odc(&ingest_args(&d, Some(&schema), &ctx.members_file))?;
    let ok = run.code == 0 && run.stdout.contains(" 0 fact(s),");
    if !ok {
        rep.error(format!(
            "member load: exit {}, printed {:?}",
            run.code, run.stdout
        ));
    }
    rep.attempt(ok);
    sys::flush_disk();
    Ok(run)
}

pub fn run(cfg: &Config, calib: &mut Vec<f64>) -> Result<Report, String> {
    let mut rep = Report::new(cfg.trace);
    let work = cfg.work.join("store");
    sys::fresh_dir(&work).map_err(|e| e.to_string())?;
    let (stores, cities, n_facts) = if cfg.small {
        SMALL
    } else {
        (STORES, CITIES, FACTS)
    };
    let mut inp = Inputs::new(cfg.seed, stores, cities, &work)?;
    let members_file = work.join("members.txt");
    std::fs::write(&members_file, &inp.members).map_err(|e| e.to_string())?;
    let mut totals = BTreeMap::new();
    let facts = inp.facts(n_facts, &mut totals);
    let facts_file = work.join("facts.txt");
    std::fs::write(&facts_file, &facts).map_err(|e| e.to_string())?;
    rep.input_digest = digest(&[&inp.schema_text, &inp.members, &facts]);
    drop(facts);
    rep.note(format!(
        "inputs: locationSch, {stores} stores over {cities} cities, {n_facts} facts, {APPEND_ROWS}-row appends"
    ));
    let ctx = Ctx {
        cfg,
        log: cfg.work.join("store-stderr.log"),
        members_file: members_file.display().to_string(),
        facts_file: facts_file.display().to_string(),
        n_facts,
    };
    if cfg.trace {
        let r = traced(&ctx, &mut inp, &work, totals, rep, calib);
        let _ = std::fs::remove_dir_all(&work);
        return r;
    }

    // The store the cycles run on gets the dimension and the bulk stream
    // before the window. In the window, every cycle loads the dimension
    // into a scratch store, and every `BULK_EVERY`-th cycle ingests the
    // bulk stream into it too, so the set-up and bulk samples spread over
    // the whole run.
    let main = work.join("main");
    let scratch = work.join("scratch");
    let mut loads = Loads::default();
    loads.take(&ctx, &inp, &main, true, &mut rep)?;
    calib.push(sys::calib_ms());

    let dir = main.display().to_string();
    let append_file = work.join("append.txt");
    let af = append_file.display().to_string();
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rss = Vec::new();
    let t0 = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || t0.elapsed().as_secs_f64() < cfg.seconds {
        let rows = inp.facts(APPEND_ROWS, &mut totals);
        std::fs::write(&append_file, &rows).map_err(|e| e.to_string())?;
        sys::flush_disk();
        let mut ops = vec![Op::Append, Op::Direct, Op::Via];
        if cycles % FORBIDDEN_EVERY == FORBIDDEN_EVERY - 1 {
            ops.push(Op::Forbidden);
        }
        for op in ops {
            let run = cli_op(&ctx, op, &dir, &af, &totals, &mut rep)?;
            times
                .entry(op_name(op))
                .or_default()
                .push(secs_ms(run.wall));
            rss.push(run.maxrss_kb as f64 / 1024.0);
            sys::flush_disk();
        }
        loads.take(
            &ctx,
            &inp,
            &scratch,
            cycles % BULK_EVERY == BULK_EVERY - 1,
            &mut rep,
        )?;
        cycles += 1;
    }
    let facts_now = n_facts + cycles * APPEND_ROWS;
    let bytes = sys::dir_bytes(&main);
    let get = |k: &str| times.get(k).cloned().unwrap_or_default();
    let (append, direct, via) = (get("append"), get("direct"), get("via"));
    rss.extend(&loads.rss_mb);
    rep.set_n("setup_s", median(&loads.setup_s), loads.setup_s.len());
    // The largest process is the 2M-fact bulk ingest: the same work in
    // every run, where the median over a mix of process kinds would flip
    // between kinds.
    rep.set_n("peak_rss_mb", percentile(&rss, 100.0), rss.len());
    // Rows over seconds, summed over the bulk ingests.
    rep.set_n(
        "rate_per_s",
        (loads.bulks * n_facts) as f64 / loads.bulk_secs,
        loads.bulks,
    );
    rep.set_n("p50_ms", median(&append), append.len());
    rep.set_n("slow_ms", median(&via), via.len());
    rep.set_n("warm_ms", median(&direct), direct.len());
    rep.note(format!(
        "per-workload names: ingest_rows_per_s = rate_per_s, append_p50_ms = p50_ms, \
         cube_via_p50_ms = slow_ms, cube_direct_p50_ms = warm_ms; store_bytes_per_fact = {:.3} \
         ({bytes} bytes over {facts_now} facts); forbidden --via p50 {:.1} ms; {cycles} cycles",
        bytes as f64 / facts_now as f64,
        median(&get("forbidden"))
    ));
    rep.note(format!("median process peak RSS {:.1} MB", median(&rss)));
    let _ = std::fs::remove_dir_all(&work);
    Ok(rep)
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Append => "append",
        Op::Direct => "direct",
        Op::Via => "via",
        Op::Forbidden => "forbidden",
    }
}

/// Ingests `text` into `store` in-process the way `odc ingest` does:
/// batches of [`BATCH_ROWS`] lines, each parsed, delta-checked and
/// committed, then one save. The extra `check_batch` call times the
/// delta check on its own (`ingest_batch` repeats it inside).
fn replay_ingest(store: &mut FactStore, text: &str, dir: &Path, tr: &Tracer) -> Result<(), String> {
    let lines: Vec<&str> = tr.span("store.parse_batch", || text.lines().collect());
    let mut rows = 0u64;
    for (i, chunk) in lines.chunks(BATCH_ROWS).enumerate() {
        let batch = tr
            .span("store.parse_batch", || {
                odc_store::parse_batch(&chunk.join("\n"), i * BATCH_ROWS + 1)
            })
            .map_err(|e| format!("ingest: {e}"))?;
        if batch.is_empty() {
            continue;
        }
        let errs = tr.span("store.check_batch", || store.check_batch(&batch));
        if !errs.is_empty() {
            return Err(format!(
                "ingest: delta check rejected a valid batch: {}",
                errs[0]
            ));
        }
        rows += batch.len() as u64;
        // The staged batch is freed inside the span: `odc ingest` frees
        // it there too.
        tr.span("store.ingest_batch", || {
            let r = store.ingest_batch(&batch);
            drop(batch);
            r
        })
        .map_err(|e| format!("ingest rejected: {e}"))?;
    }
    tr.span("store.save", || store.save(dir))
        .map_err(|e| e.to_string())?;
    tr.count("store.rows_validated", rows);
    Ok(())
}

fn load(dir: &Path, tr: &Tracer) -> Result<FactStore, String> {
    tr.span("store.load", || FactStore::load(dir))
        .map_err(|e| e.to_string())
}

/// What a replayed cube answered: its cells, or the failing bottom of a
/// refused rollup.
type CubeAnswer = Result<BTreeMap<String, i64>, String>;

/// What a replayed operation leaves to free. A process frees it at exit
/// for free, so the replay drops it outside the operation's span.
type Leftovers = (FactStore, Vec<DimensionInstance>, Vec<RollupTable>);

/// Replays one cube the way `odc cube <dir> Country [--via …]` runs it.
fn replay_cube(
    dir: &Path,
    via: Option<&str>,
    tr: &Tracer,
) -> Result<(CubeAnswer, Leftovers), String> {
    let store = load(dir, tr)?;
    let g = store.schema(0).hierarchy();
    let cat = |n: &str| {
        g.category_by_name(n)
            .ok_or_else(|| format!("no category {n}"))
    };
    let target = vec![cat("Country")?];
    let via = via.map(cat).transpose()?.map(|c| vec![c]);
    if let Some(vl) = &via {
        if !tr.span("summarizability.verdict", || {
            store.summarizability_verdict(0, vl[0], target[0])
        }) {
            let fb = tr
                .span("summarizability.verdict", || {
                    store.summarizability_witness(0, vl[0], target[0])
                })
                .map(|(_, c)| g.name(c).to_string())
                .unwrap_or_default();
            return Ok((Err(fb), (store, Vec::new(), Vec::new())));
        }
    }
    let insts: Vec<DimensionInstance> = tr.span("store.instance", || vec![store.instance(0)]);
    let mut tables = Vec::new();
    let cube = match &via {
        Some(vl) => {
            let candidates =
                vec![tr.span("olap.materialize", || store.materialize(vl, AggFn::Sum))];
            let chosen = tr
                .span("olap.choose_source", || {
                    choose_source(&candidates, &target, |_, _, _| true)
                })
                .ok_or("choose_source rejected the gated plan")?;
            tables = tr.span("store.instance", || {
                insts.iter().map(RollupTable::new).collect()
            });
            let cube = tr.span("olap.roll_up", || roll_up(chosen, &tables, &target));
            let same = tr.span("olap.verify", || {
                store.materialize(&target, AggFn::Sum).cells == cube.cells
            });
            if !same {
                return Err("in-process rollup differs from direct materialization".into());
            }
            cube
        }
        None => tr.span("olap.materialize", || {
            store.materialize(&target, AggFn::Sum)
        }),
    };
    let cells = cube
        .cells
        .iter()
        .map(|(coords, v)| (insts[0].key(coords[0]).to_string(), *v))
        .collect();
    Ok((Ok(cells), (store, insts, tables)))
}

/// The traced run: set-up, one bulk ingest and [`TRACED_CYCLES`] cycles,
/// each through the CLI on one store and replayed in-process on a twin
/// store, then the same in-process replay again, untraced, on a third.
fn traced(
    ctx: &Ctx<'_>,
    inp: &mut Inputs,
    work: &Path,
    mut totals: BTreeMap<&'static str, i64>,
    mut rep: Report,
    calib: &mut Vec<f64>,
) -> Result<Report, String> {
    let cli_dir = work.join("cli");
    let setup_run = setup(ctx, inp, &cli_dir, &mut rep)?;
    let cd = cli_dir.display().to_string();
    let bulk = bulk_ingest(ctx, &cd, &mut rep)?;
    sys::flush_disk();
    let mut cli_ms = secs_ms(setup_run.wall) + secs_ms(bulk.wall);
    let mut appends = Vec::new();
    let af = work.join("append.txt").display().to_string();
    for c in 0..TRACED_CYCLES {
        let rows = inp.facts(APPEND_ROWS, &mut totals);
        std::fs::write(Path::new(&af), &rows).map_err(|e| e.to_string())?;
        sys::flush_disk();
        appends.push(rows);
        let mut ops = vec![Op::Append, Op::Direct, Op::Via];
        if c == 0 {
            ops.push(Op::Forbidden);
        }
        for op in ops {
            cli_ms += secs_ms(cli_op(ctx, op, &cd, &af, &totals, &mut rep)?.wall);
            sys::flush_disk();
        }
    }
    let store_bytes = sys::dir_bytes(&cli_dir);
    calib.push(sys::calib_ms());
    let members = inp.members.clone();
    let facts = std::fs::read_to_string(&ctx.facts_file).map_err(|e| e.to_string())?;
    let schema = odc_core::parse_schema(&inp.schema_text).map_err(|e| e.to_string())?;
    let replay = |tr: &Tracer, dir: &Path| -> Result<f64, String> {
        let t0 = Instant::now();
        // Each operation's leftovers are dropped, and the directory
        // measured, outside its span.
        let ingest = |text: &str, fresh: bool| -> Result<(), String> {
            let store = tr.op("store.op", || {
                let mut store = if fresh {
                    FactStore::new(vec![schema.clone()])
                } else {
                    load(dir, tr)?
                };
                replay_ingest(&mut store, text, dir, tr)?;
                Ok::<_, String>(store)
            })?;
            drop(store);
            tr.count("store.bytes_written", sys::dir_bytes(dir));
            Ok(())
        };
        ingest(&members, true)?;
        ingest(&facts, false)?;
        for (c, rows) in appends.iter().enumerate() {
            ingest(rows, false)?;
            let mut cubes = vec![Some("City"), None];
            if c == 0 {
                cubes.push(Some("State"));
            }
            for via in cubes {
                let (answer, leftovers) = tr.op("store.op", || replay_cube(dir, via, tr))?;
                drop(leftovers);
                let ok = match via {
                    Some("State") => answer == Err("Store".to_string()),
                    _ => answer.is_ok(),
                };
                if !ok {
                    return Err(format!("in-process cube via {via:?} answered {answer:?}"));
                }
            }
        }
        Ok(secs_ms(t0.elapsed()))
    };
    let (plain_ms, traced_ms, tr, ()) = crate::trace::abba(|tr, i| {
        let dir = work.join(format!("replay-{i}"));
        let ms = replay(tr, &dir)?;
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok((ms, ()))
    })?;
    let s = tr.summary();
    let probe = s.layer_ms("store.check_batch");
    rep.set("store.cli_process_ms", cli_ms - (plain_ms - probe));
    for (metric, layer) in [
        ("store.parse_batch_ms", "store.parse_batch"),
        ("store.check_batch_ms", "store.check_batch"),
        ("store.ingest_batch_ms", "store.ingest_batch"),
        ("store.load_ms", "store.load"),
        ("store.save_ms", "store.save"),
        ("store.instance_ms", "store.instance"),
        ("summarizability.verdict_ms", "summarizability.verdict"),
        ("olap.materialize_ms", "olap.materialize"),
        ("olap.choose_source_ms", "olap.choose_source"),
        ("olap.roll_up_ms", "olap.roll_up"),
        ("olap.verify_ms", "olap.verify"),
    ] {
        rep.set(metric, s.layer_ms(layer));
    }
    rep.set(
        "store.rows_validated",
        s.count("store.rows_validated") as f64,
    );
    rep.set("store.bytes_written", s.count("store.bytes_written") as f64);
    let n_facts: usize = facts.lines().count() + TRACED_CYCLES * APPEND_ROWS;
    rep.set("store.bytes_per_fact", store_bytes as f64 / n_facts as f64);
    rep.trace_checks(&s, plain_ms, traced_ms);
    rep.note(format!(
        "traced sequence: CLI {cli_ms:.1} ms, replay {plain_ms:.1} ms untraced / {traced_ms:.1} ms traced \
         (the replay's extra delta checks, {probe:.1} ms, are not counted against the CLI)"
    ));
    let _ = std::fs::remove_dir_all(work);
    Ok(rep)
}
