//! The repository benchmark: three workloads that each drive a different
//! set of layers through the real `odc` binary, and a traced run that
//! replays the same operations in-process and splits them into per-layer
//! self times and counts. See README.md.

pub mod audit;
pub mod report;
pub mod serve;
pub mod stats;
pub mod store;
pub mod sys;
pub mod trace;

use std::path::PathBuf;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// The `odc` binary under test.
    pub odc: PathBuf,
    /// Scratch directory for generated inputs and program state.
    pub work: PathBuf,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Replay in-process and report per-layer metrics instead.
    pub trace: bool,
    /// Small inputs, for the determinism self-test.
    pub small: bool,
}

/// Runs one workload and returns its report.
pub fn run(workload: &str, cfg: &Config) -> Result<report::Report, String> {
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{}: {e}", cfg.work.display()))?;
    // Write-back left by whatever ran before (a `store` run writes
    // hundreds of MB) would otherwise land in this run's fsyncs.
    sys::flush_disk();
    // Before any input exists, while this process is small.
    sys::start_launcher().map_err(|e| format!("starting the launcher: {e}"))?;
    let mut calib = vec![sys::calib_ms()];
    let rep = match workload {
        "audit" => audit::run(cfg, &mut calib),
        "serve" => serve::run(cfg, &mut calib),
        "store" => store::run(cfg, &mut calib),
        other => Err(format!("unknown workload `{other}` (audit, serve, store)")),
    };
    sys::stop_launcher().map_err(|e| format!("stopping the launcher: {e}"))?;
    let mut rep = rep?;
    calib.push(sys::calib_ms());
    let c = stats::median(&calib);
    rep.note(format!(
        "host.calib_ms start/middle/end = {:.3} / {:.3} / {:.3} (never used to scale a metric)",
        calib[0],
        calib[1.min(calib.len() - 1)],
        calib[calib.len() - 1]
    ));
    rep.set_n("host.calib_ms", c, calib.len());
    if rep.attempted == 0 {
        rep.error("no operation was attempted".into());
    }
    Ok(rep)
}
