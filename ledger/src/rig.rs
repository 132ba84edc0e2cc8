//! Set-up and tear-down of the system under test: a real TCP server
//! in-process, with the configuration `cerfix serve` uses, and for
//! `entry_quorum` one follower tailing it over loopback.

use crate::fsx::CountingFs;
use crate::load::{service_config, Inputs, Workload};
use cerfix::MasterData;
use cerfix_relation::Relation;
use cerfix_server::{
    CleaningService, Frontend, MetricsSnapshot, Request, Server, ServerHandle, ServiceConfig,
    StorageConfig,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name the follower advertises; the primary's `metrics` key it under.
const FOLLOWER: &str = "ledger-follower";
/// Longest [`Rig::settled_metrics`] waits for the counters to stand still.
const SETTLE_LIMIT: Duration = Duration::from_millis(500);

/// A running system under test.
pub struct Rig {
    pub handle: ServerHandle,
    pub service: CleaningService,
    pub follower: Option<CleaningService>,
    /// Data directory of the primary (journaled workloads).
    pub dir: Option<PathBuf>,
    /// The primary's filesystem counters (journaled workloads).
    pub fs: Option<Arc<CountingFs>>,
    pub master: Arc<MasterData>,
}

/// Fresh directories under the checkout's `target/ledger`, removed by
/// [`Scratch::drop`]. The benchmark writes nowhere else.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let root = PathBuf::from("target/ledger").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A directory name nobody has used yet (not created).
    pub fn fresh(&self) -> PathBuf {
        self.root
            .join(self.next.fetch_add(1, Ordering::Relaxed).to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn storage_config(dir: &Path, fs: Arc<CountingFs>) -> StorageConfig {
    let mut config = StorageConfig::new(dir);
    config.fs = fs;
    config
}

/// Build everything a workload needs between "inputs exist" and "the
/// server accepts connections": master index build, plan compile,
/// region pre-computation, storage open, server (and follower) start.
/// This is what `setup_s` times; `relation` is cloned by the caller
/// beforehand, as input.
pub fn set_up(
    workload: Workload,
    inputs: &Inputs,
    relation: Relation,
    scratch: &Scratch,
    frontend: Frontend,
) -> std::io::Result<Rig> {
    let master = Arc::new(MasterData::new(relation));
    let rules = Arc::clone(&inputs.fixture.rules);
    let base = service_config();
    let (service, dir, fs) = if workload.journaled() {
        let dir = scratch.fresh();
        let fs = CountingFs::new(false);
        let config = ServiceConfig {
            cluster_size: if workload.replicated() { 2 } else { 1 },
            advertise: workload.replicated().then(|| "ledger-primary".to_string()),
            ..base.clone()
        };
        let service = CleaningService::with_storage(
            Arc::clone(&master),
            Arc::clone(&rules),
            config,
            storage_config(&dir.join("primary"), Arc::clone(&fs)),
        )?;
        (service, Some(dir), Some(fs))
    } else {
        let service = CleaningService::new(Arc::clone(&master), Arc::clone(&rules), base.clone());
        (service, None, None)
    };
    let handle = Server::spawn_with("127.0.0.1:0", service.clone(), frontend)?;
    let follower = if workload.replicated() {
        let dir = dir.as_ref().expect("replicated workloads are journaled");
        let follower = CleaningService::with_storage(
            Arc::clone(&master),
            rules,
            ServiceConfig {
                replicate_from: Some(handle.addr().to_string()),
                advertise: Some(FOLLOWER.to_string()),
                ..base
            },
            storage_config(&dir.join("follower"), CountingFs::new(false)),
        )?;
        wait_for_follower(&service)?;
        Some(follower)
    } else {
        None
    };
    Ok(Rig {
        handle,
        service,
        follower,
        dir,
        fs,
        master,
    })
}

/// Block until the primary has heard from the follower and it has
/// nothing left to fetch.
fn wait_for_follower(primary: &CleaningService) -> std::io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let key = format!("\"{FOLLOWER}\":{{");
    while Instant::now() < deadline {
        let metrics = primary.handle_line("{\"op\":\"metrics\"}");
        if let Some(at) = metrics.find(&key) {
            if metrics[at..]
                .split('}')
                .next()
                .is_some_and(|f| f.contains("\"lag_events\":0"))
            {
                return Ok(());
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        "follower never caught up with the primary",
    ))
}

impl Rig {
    /// The server's counters once it has finished counting: a reply
    /// reaches the client before the thread that wrote it has bumped
    /// `bytes_out`, and on one vCPU the client may well run first.
    ///
    /// Called with no request in flight, so the load's counters stop
    /// moving once the server's threads have had the CPU: sleep (which
    /// hands it to them) until two looks a millisecond apart agree. A
    /// fixed sleep is not enough on a host that can take the vCPU away
    /// for longer than any sleep one would pick. A follower's polls
    /// keep `requests` and the byte counts moving, so under replication
    /// the look is at the session counters alone.
    pub fn settled_metrics(&self) -> MetricsSnapshot {
        let replicated = self.follower.is_some();
        let look = |m: &MetricsSnapshot| {
            let wire = if replicated {
                (0, 0, 0)
            } else {
                (m.requests, m.bytes_in, m.bytes_out)
            };
            (
                wire,
                m.errors,
                m.tuples_cleaned,
                m.cells_fixed,
                m.sessions_committed,
            )
        };
        let deadline = Instant::now() + SETTLE_LIMIT;
        std::thread::sleep(Duration::from_millis(2));
        let mut last = self.service.metrics();
        loop {
            std::thread::sleep(Duration::from_millis(1));
            let now = self.service.metrics();
            if look(&now) == look(&last) || Instant::now() >= deadline {
                return now;
            }
            last = now;
        }
    }

    /// Stop the follower's tail thread, then the server; every thread
    /// either started is joined before this returns.
    pub fn tear_down(self) -> std::io::Result<()> {
        if let Some(follower) = &self.follower {
            // `replica.promote` is the one op that joins the tail
            // thread; a plain shutdown would leave it detached.
            follower.handle_line("{\"op\":\"replica.promote\"}");
            follower.handle(&Request::Shutdown);
        }
        let result = self.handle.shutdown();
        drop(self.follower);
        drop(self.service);
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        result
    }
}
