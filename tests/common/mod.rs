//! Shared by the harnesses that drive the real `cerfix serve` binary
//! (`crash_recovery`, `replication_faults`).

use std::io::{BufRead, Read};
use std::net::SocketAddr;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// A spawned `cerfix serve`. Dropping it kills and reaps the process, so
/// a failed assertion that unwinds past it leaves no server running;
/// `kill()` / `wait()` on the guard reach the [`Child`] as before.
pub struct ServerProcess(Child);

impl Deref for ServerProcess {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for ServerProcess {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Both are no-ops on a child that was already reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `cerfix serve` over the kv fixture files on an ephemeral port
/// with `--data-dir data_dir` plus `extra` flags, and parse its listen
/// address from the banner.
pub fn spawn_serve(
    data_dir: &Path,
    master: &Path,
    rules: &Path,
    extra: &[&str],
) -> (ServerProcess, SocketAddr) {
    let mut args = vec![
        "serve",
        "--master",
        master.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--input-header",
        "key,val,note",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--flush-interval-ms",
        "1",
    ];
    args.extend_from_slice(extra);
    let mut child = ServerProcess(
        Command::new(env!("CARGO_BIN_EXE_cerfix"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn cerfix serve"),
    );
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read server banner");
        assert!(n > 0, "server exited before announcing its address");
        if let Some(rest) = line.split("listening on ").nth(1) {
            let addr = rest.split_whitespace().next().unwrap();
            break addr.parse().expect("parse server addr");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    (child, addr)
}
