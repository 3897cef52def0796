//! `perfbench --workload <audit|serve|store> --seed <n> --seconds <s>
//! --trace <0|1> --odc <path> --work <dir> [--small] [--provenance k=v]…`
//!
//! Prints the run's metrics, one per line with its unit, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.

use odc_perfbench::{run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--launcher") {
        return match odc_perfbench::sys::launcher_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench launcher: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match main_inner() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main_inner() -> Result<ExitCode, String> {
    let mut workload = None;
    let mut cfg = Config {
        odc: PathBuf::new(),
        work: PathBuf::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
    };
    let mut provenance: Vec<(String, String)> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => cfg.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => cfg.trace = val()? == "1",
            "--odc" => cfg.odc = PathBuf::from(val()?),
            "--work" => cfg.work = PathBuf::from(val()?),
            "--small" => cfg.small = true,
            "--provenance" => {
                let v = val()?;
                let (k, x) = v.split_once('=').ok_or("--provenance needs key=value")?;
                provenance.push((k.to_string(), x.to_string()));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !cfg.odc.is_file() {
        return Err(format!("--odc {}: no such binary", cfg.odc.display()));
    }
    if cfg.work.as_os_str().is_empty() {
        return Err("--work is required".into());
    }
    let mut rep = run(&workload, &cfg)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    provenance.extend([
        ("workload".to_string(), workload.clone()),
        ("seed".to_string(), cfg.seed.to_string()),
        ("seconds".to_string(), cfg.seconds.to_string()),
        ("trace".to_string(), (cfg.trace as u8).to_string()),
        (
            "size".to_string(),
            if cfg.small { "small" } else { "full" }.to_string(),
        ),
        ("nproc".to_string(), nproc.to_string()),
        (
            "input_digest".to_string(),
            format!("{:016x}", rep.input_digest),
        ),
        (
            "flush_policy".to_string(),
            "sync(2) between operations, outside timed windows (store), and before each \
             timed command batch (audit), whose repository fsyncs its own writes"
                .to_string(),
        ),
    ]);
    rep.provenance = provenance;
    print!("{}", rep.render());
    Ok(ExitCode::SUCCESS)
}
