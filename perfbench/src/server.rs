//! A `livegraph-serve` child process in its default configuration (thread
//! pool, fsync group commit), recovering a data directory the benchmark
//! wrote. It is killed and reaped when the handle drops.

use std::fs::File;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    pub metrics: SocketAddr,
}

const START_TIMEOUT: Duration = Duration::from_secs(60);

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

impl ServerProc {
    /// Starts the server on `data_dir`, with ephemeral loopback ports for
    /// the protocol and the metrics endpoint, and waits until it listens.
    pub fn start(bin: &Path, data_dir: &Path, log_dir: &Path) -> Result<ServerProc, String> {
        let out_path = log_dir.join("serve.stdout");
        let err_path = log_dir.join("serve.stderr");
        let open = |p: &PathBuf| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let mut cmd = Command::new(bin);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--metrics-listen")
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(open(&out_path)?)
            .stderr(open(&err_path)?);
        // SAFETY: the hook runs in the forked child before `exec` and only
        // makes one async-signal-safe system call, touching no memory.
        unsafe {
            cmd.pre_exec(|| {
                // If the benchmark dies without unwinding (a signal), the
                // kernel kills the server too instead of orphaning it.
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut proc = ServerProc {
            child,
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            metrics: SocketAddr::from(([0, 0, 0, 0], 0)),
        };
        let started = Instant::now();
        loop {
            let out = std::fs::read_to_string(&out_path).unwrap_or_default();
            let err = std::fs::read_to_string(&err_path).unwrap_or_default();
            let addr = find_addr(&out, "listening on ", "");
            let metrics = find_addr(&err, "metrics on http://", "/metrics");
            if let (Some(a), Some(m)) = (addr, metrics) {
                proc.addr = a;
                proc.metrics = m;
                return Ok(proc);
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!(
                    "livegraph-serve exited with {status} before listening: {err}"
                ));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(format!(
                    "livegraph-serve did not listen within {START_TIMEOUT:?}: {err}"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn find_addr(text: &str, prefix: &str, suffix: &str) -> Option<SocketAddr> {
    let rest = &text[text.find(prefix)? + prefix.len()..];
    let line = rest.lines().next()?;
    line.strip_suffix(suffix)
        .unwrap_or(line)
        .trim()
        .parse()
        .ok()
}
