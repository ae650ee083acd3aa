//! The `graphm-server` child processes the benchmark drives.

use graphm_server::Client;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds the release `graphm-server` from the repository at the
/// current directory and returns the path of the binary. Cargo's output
/// goes to our stderr, so stdout keeps only the benchmark's lines.
pub fn build_server() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/server").is_dir() {
        return Err("run from the repository root (Cargo.toml and crates/server)".to_string());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "graphm-server", "--bin", "graphm-server"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building graphm-server failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = Path::new(&target).join("release").join("graphm-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// One running daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    pub socket: PathBuf,
    log: PathBuf,
    /// The TCP address it listens on (parsed from its log).
    pub tcp: String,
}

impl Daemon {
    /// Starts `bin --store STORE --socket SOCKET --tcp 127.0.0.1:0
    /// --mode wallclock EXTRA...`, logging stderr to `<socket>.log`, and
    /// waits until `health` answers on the socket.
    pub fn start(
        bin: &Path,
        store: &Path,
        socket: &Path,
        extra: &[String],
    ) -> Result<Daemon, String> {
        let log = socket.with_extension("log");
        let log_file =
            std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .arg("--socket")
            .arg(socket)
            .args(["--tcp", "127.0.0.1:0", "--mode", "wallclock"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut d =
            Daemon { child: Some(child), socket: socket.to_path_buf(), log, tcp: String::new() };
        d.wait_ready(Duration::from_secs(60))?;
        Ok(d)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn wait_ready(&mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(child) = self.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!(
                        "daemon exited during start ({status}): {}",
                        self.log_tail()
                    ));
                }
            }
            if self.tcp.is_empty() {
                self.tcp = self.tcp_from_log().unwrap_or_default();
            }
            if !self.tcp.is_empty() {
                if let Ok(mut c) = Client::connect_unix(&self.socket) {
                    if c.health().is_ok() {
                        return Ok(());
                    }
                }
            }
            if Instant::now() > deadline {
                return Err(format!("daemon not ready after {limit:?}: {}", self.log_tail()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn tcp_from_log(&self) -> Option<String> {
        let text = std::fs::read_to_string(&self.log).ok()?;
        let line =
            text.lines().find_map(|l| l.strip_prefix("[graphm-server] listening on tcp "))?;
        Some(line.trim().to_string())
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }

    /// Asks the daemon to shut down and reaps it; kills it if it has not
    /// exited within ten seconds.
    pub fn stop(mut self) {
        if let Ok(mut c) = Client::connect_unix(&self.socket) {
            let _ = c.shutdown_server();
        }
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
