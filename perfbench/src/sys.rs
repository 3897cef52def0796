//! Child processes with their own resource usage, `sync(2)`, and the
//! host-drift calibration kernel.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sync();
}

/// Flushes every dirty page to disk. The store does no fsync of its own,
/// so the benchmark calls this between operations, outside the timed
/// windows, to keep one operation's deferred write-back out of the next
/// one's timing.
pub fn flush_disk() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

/// How a child process ended and what it cost.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Exit code (`-1` when killed by a signal).
    pub code: i32,
    /// Peak resident set size of the child, in KiB.
    pub maxrss_kb: u64,
}

/// Reaps `child` with `wait4` so its peak RSS comes back with its exit
/// status; `std` cannot report it.
pub fn reap(child: Child) -> io::Result<Finished> {
    let pid = child.id() as i32;
    // The child is reaped here, not by `Child::wait`; dropping a `Child`
    // neither waits for nor kills the process.
    drop(child);
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are valid, writable, and laid out as
        // wait4(2) expects; `pid` names our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok(Finished {
        code,
        maxrss_kb: ru.ru_maxrss.max(0) as u64,
    })
}

/// One finished command-line run.
#[derive(Debug, Clone)]
pub struct CliRun {
    pub code: i32,
    pub stdout: String,
    /// Spawn to reap.
    pub wall: Duration,
    pub maxrss_kb: u64,
}

/// Runs `bin args…` to completion from this process. Stderr goes to
/// `stderr_log` (appended), so a chatty child can never block on a full
/// pipe while stdout is read.
fn run_direct(bin: &Path, args: &[String], stderr_log: &Path) -> io::Result<CliRun> {
    let err = File::options().create(true).append(true).open(stderr_log)?;
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(err))
        .spawn()?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)?;
    let fin = reap(child)?;
    let wall = t0.elapsed();
    Ok(CliRun {
        code: fin.code,
        stdout,
        wall,
        maxrss_kb: fin.maxrss_kb,
    })
}

/// A small resident helper that spawns the program's one-shot commands.
///
/// At exec, Linux charges a new program with the peak RSS of the process
/// that spawned it, so a command spawned by the harness (which holds
/// every generated input) would report the harness's footprint, not its
/// own. The helper starts before any input exists and stays small.
struct Launcher {
    child: Child,
    to: std::process::ChildStdin,
    from: BufReader<std::process::ChildStdout>,
}

static LAUNCHER: Mutex<Option<Launcher>> = Mutex::new(None);

fn launcher() -> MutexGuard<'static, Option<Launcher>> {
    LAUNCHER
        .lock()
        .expect("launcher lock poisoned by a panicking run")
}

/// Starts the helper: this executable with `--launcher` as its only
/// argument.
pub fn start_launcher() -> io::Result<()> {
    let mut child = Command::new(std::env::current_exe()?)
        .arg("--launcher")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let to = child.stdin.take().expect("stdin is piped");
    let from = BufReader::new(child.stdout.take().expect("stdout is piped"));
    *launcher() = Some(Launcher { child, to, from });
    Ok(())
}

/// Closes the helper's input and waits for it to exit.
pub fn stop_launcher() -> io::Result<()> {
    if let Some(l) = launcher().take() {
        let Launcher {
            mut child,
            to,
            from,
        } = l;
        drop(to);
        drop(from);
        child.wait()?;
    }
    Ok(())
}

/// Runs `bin args…` to completion through the helper; see [`Launcher`].
pub fn run_cli(bin: &Path, args: &[String], stderr_log: &Path) -> io::Result<CliRun> {
    let mut guard = launcher();
    let Some(l) = guard.as_mut() else {
        return Err(io::Error::other("the launcher is not running"));
    };
    let mut req = format!(
        "{}\n{}\n{}\n",
        args.len() + 2,
        bin.display(),
        stderr_log.display()
    );
    for a in args {
        req.push_str(a);
        req.push('\n');
    }
    l.to.write_all(req.as_bytes())?;
    l.to.flush()?;
    let mut head = String::new();
    l.from.read_line(&mut head)?;
    let f: Vec<u64> = head
        .split_whitespace()
        .map(|x| {
            x.parse()
                .map_err(|_| io::Error::other(format!("launcher said `{head}`")))
        })
        .collect::<io::Result<_>>()?;
    let [code, wall_ns, maxrss_kb, len] = f[..] else {
        return Err(io::Error::other(format!("launcher said `{head}`")));
    };
    let mut out = vec![0u8; len as usize];
    l.from.read_exact(&mut out)?;
    Ok(CliRun {
        code: code as i32 - 1,
        stdout: String::from_utf8_lossy(&out).into_owned(),
        wall: Duration::from_nanos(wall_ns),
        maxrss_kb,
    })
}

/// The helper's loop: one request per command (a count, the binary, the
/// stderr log, then the arguments, one per line), answered with
/// `code+1 wall_ns maxrss_kb stdout_len` and the stdout bytes.
pub fn launcher_main() -> io::Result<()> {
    let stdin = io::stdin();
    let mut input = stdin.lock();
    let mut out = io::stdout().lock();
    loop {
        let mut n = String::new();
        if input.read_line(&mut n)? == 0 {
            return Ok(());
        }
        let n: usize = n
            .trim()
            .parse()
            .map_err(|_| io::Error::other("bad request"))?;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            let mut a = String::new();
            input.read_line(&mut a)?;
            fields.push(a.trim_end_matches('\n').to_string());
        }
        if fields.len() < 2 {
            return Err(io::Error::other("bad request"));
        }
        let run = run_direct(Path::new(&fields[0]), &fields[2..], Path::new(&fields[1]))?;
        writeln!(
            out,
            "{} {} {} {}",
            run.code + 1,
            run.wall.as_nanos(),
            run.maxrss_kb,
            run.stdout.len()
        )?;
        out.write_all(run.stdout.as_bytes())?;
        out.flush()?;
    }
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// A fixed pure-CPU kernel (integer mixing over a small table that stays
/// in L1). Its wall time says how fast the host ran at that moment; it is
/// recorded beside the metrics and never used to scale them.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut table = [0u64; 256];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..6_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x & 0xff) as usize;
        table[k] = table[k].wrapping_add(x ^ i);
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}
