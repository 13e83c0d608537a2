//! The `simstar serve` process under test: built from the checkout,
//! started with the CLI's default flags, stopped and reaped by the run.

use ssr_serve::client::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds `simstar` from the checkout's root workspace (a no-op once
/// built) and returns the binary's path.
pub fn build_simstar() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "ssr-cli", "--bin", "simstar"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building simstar failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = Path::new(&target).join("release").join("simstar");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `simstar serve` over `store` with default flags and returns
    /// it with its set-up time: process start, store load, engine build,
    /// and the first answered ping.
    pub fn start(bin: &Path, store: &Path) -> Result<(ServerProc, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--input")
            .arg(store)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| parse_listen_line(&line));
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce its address (got {line:?})"));
        };
        let server = ServerProc { child, _stdout: stdout, addr };
        server.admin()?.ping().map_err(|e| format!("first ping: {e}"))?;
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    pub fn admin(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connecting to {}: {e}", self.addr))
    }

    /// The server's peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Waits until every query the batcher accepted has been flushed, so
    /// one phase's backlog never leaks into the next.
    pub fn wait_idle(&self, limit: Duration) -> Result<(), String> {
        let mut admin = self.admin()?;
        let t0 = Instant::now();
        loop {
            let s = admin.stats().map_err(|e| format!("stats: {e}"))?;
            if s.batcher.flushed_jobs >= s.batcher.submitted || t0.elapsed() > limit {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Asks the server to shut down and reaps it.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.admin().and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked.map_err(|e| format!("shutdown op: {e}"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("server did not exit within 10 s of shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `serving SimRank* on 127.0.0.1:PORT (n=...` → the address.
fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    let rest = line.strip_prefix("serving SimRank* on ")?;
    rest.split_whitespace().next()?.parse().ok()
}

pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_listen_line() {
        let l = "serving SimRank* on 127.0.0.1:4242 (n=3, m=2, c=0.6, k=5) — newline-JSON\n";
        assert_eq!(parse_listen_line(l), Some("127.0.0.1:4242".parse().unwrap()));
        assert_eq!(parse_listen_line("error: boom"), None);
    }
}
