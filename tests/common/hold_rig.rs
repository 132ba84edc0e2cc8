//! The long-poll `replica.sync` rig of `replication_faults.rs`: an
//! in-process primary whose journal moves only when a commit syncs it,
//! and followers played by hand over raw connections.

use super::{follower_stat, manual_storage, tmp_dir};
use cerfix_gen::uk;
use cerfix_relation::Value;
use cerfix_server::wire::Json;
use cerfix_server::{CleaningService, LocalClient, Request, Server, ServiceConfig, StorageConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A hold no test outlives (the primary caps it at a minute): a commit
/// released by its expiry fails the test through `ack_timeout` first.
pub(super) const FOREVER_MS: u64 = 600_000;

/// An in-process primary over real TCP whose journal moves only when a
/// commit syncs it (hour-long flush interval), so durable advances —
/// and with them released syncs — can be counted.
pub(super) struct HoldRig {
    pub(super) primary: CleaningService,
    pub(super) server: Option<cerfix_server::ServerHandle>,
    pub(super) addr: SocketAddr,
    pub(super) dir: PathBuf,
    pub(super) tuple: Vec<Value>,
    pub(super) master: Arc<cerfix::MasterData>,
    pub(super) rules: Arc<cerfix_rules::RuleSet>,
}

pub(super) fn hold_storage(dir: &Path) -> StorageConfig {
    let mut cfg = manual_storage(dir);
    cfg.flush_interval = Duration::from_secs(3600);
    cfg
}

pub(super) fn hold_rig(name: &str, workers: usize, cluster_size: usize) -> HoldRig {
    hold_rig_with(name, workers, cluster_size, Duration::from_secs(10))
}

/// [`hold_rig`] with the quorum-ack timeout given.
pub(super) fn hold_rig_with(
    name: &str,
    workers: usize,
    cluster_size: usize,
    ack_timeout: Duration,
) -> HoldRig {
    let mut rng = StdRng::seed_from_u64(11);
    let scenario = uk::scenario(40, &mut rng);
    let master = Arc::new(scenario.master_data());
    let rules = Arc::new(scenario.rules.clone());
    let dir = tmp_dir(&format!("hold-{name}-{workers}"));
    let primary = CleaningService::with_storage(
        Arc::clone(&master),
        Arc::clone(&rules),
        ServiceConfig {
            workers,
            precompute_regions: false,
            cluster_size,
            ack_timeout,
            advertise: Some("primary".into()),
            ..ServiceConfig::default()
        },
        hold_storage(&dir.join("p")),
    )
    .unwrap();
    let server = Server::spawn("127.0.0.1:0", primary.clone()).unwrap();
    HoldRig {
        addr: server.addr(),
        primary,
        server: Some(server),
        dir,
        tuple: scenario.universe[0].values().to_vec(),
        master,
        rules,
    }
}

impl HoldRig {
    /// `replica.sync` requests answered so far (a held one counts when
    /// it is released).
    pub(super) fn syncs_answered(&self) -> u64 {
        self.primary
            .metrics()
            .latency
            .iter()
            .find(|l| l.op == "replica.sync")
            .map_or(0, |l| l.count)
    }

    /// Held syncs a quorum commit served on its own thread.
    pub(super) fn syncs_led(&self) -> u64 {
        self.primary.metrics().replica_syncs_led
    }

    pub(super) fn registered(&self, follower: &str) -> bool {
        follower_stat(&self.primary.handle(&Request::Metrics), follower).is_some()
    }

    /// One locally durable commit, made in process.
    pub(super) fn commit_locally(&self) -> u64 {
        let mut client = LocalClient::in_process(&self.primary);
        let view = client.create_session(self.tuple.clone()).unwrap();
        client.commit(view.session).unwrap();
        view.session
    }

    pub(super) fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown().unwrap();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A follower played by hand: one raw connection, one line at a time.
pub(super) struct RawFollower {
    pub(super) reader: std::io::BufReader<TcpStream>,
    pub(super) writer: TcpStream,
}

impl RawFollower {
    pub(super) fn connect(addr: SocketAddr) -> RawFollower {
        let writer = TcpStream::connect(addr).unwrap();
        // A reply that never comes fails the test instead of hanging it.
        writer
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        RawFollower {
            reader: std::io::BufReader::new(writer.try_clone().unwrap()),
            writer,
        }
    }

    pub(super) fn sync(&mut self, name: &str, (epoch, offset): (u64, u64), wait_ms: Option<u64>) {
        let wait = wait_ms.map_or(String::new(), |ms| format!(",\"wait_ms\":{ms}"));
        let line = format!(
            "{{\"op\":\"replica.sync\",\"follower\":\"{name}\",\"epoch\":{epoch},\"offset\":{offset}{wait}}}\n"
        );
        // A write the server no longer takes shows as a missing reply.
        let _ = self.writer.write_all(line.as_bytes());
    }

    /// The next reply line; `None` if the server closed (or reset) the
    /// connection. A reply that does not come in time is a failure.
    pub(super) fn reply(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Json::parse(line.trim()).expect("a JSON reply")),
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                assert!(!timed_out, "no reply in time");
                None
            }
        }
    }

    pub(super) fn events(reply: &Json) -> usize {
        reply.get("events").and_then(Json::as_arr).unwrap().len()
    }
}

/// A follower that acks whatever it is sent and asks again at once,
/// keeping every request open "forever". Returns when the server goes.
pub(super) fn acking_follower(addr: SocketAddr, name: &'static str) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut conn = RawFollower::connect(addr);
        conn.writer.set_read_timeout(None).unwrap();
        let mut cursor = (0, 0);
        loop {
            conn.sync(name, cursor, Some(FOREVER_MS));
            let Some(reply) = conn.reply() else { return };
            cursor.1 += RawFollower::events(&reply) as u64;
        }
    })
}
