//! Concurrent service sessions match the single-threaded monitor.
//!
//! Eight TCP clients drive interleaved interactive sessions through the
//! wire protocol against one `cerfix-server`; every per-tuple outcome
//! (final tuple, completion, rounds, user/auto validation counts) must
//! equal a single-threaded [`DataMonitor`] reference run over the same
//! workload. Also covers cross-connection session attach, the batch
//! `clean` op against its sequential equivalent, and region/consistency
//! analyses computed once under concurrency.

use cerfix::{CleanOutcome, DataMonitor, OracleUser};
use cerfix_gen::{make_workload, uk, NoiseSpec, Workload};
use cerfix_relation::{SchemaRef, Tuple, Value};
use cerfix_server::{CleaningService, Client, CommitView, Server, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const SESSIONS_PER_CLIENT: usize = 5;

struct Fixture {
    scenario: cerfix_gen::Scenario,
    workload: Workload,
    service: CleaningService,
}

fn fixture(workers: usize) -> Fixture {
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let scenario = uk::scenario(150, &mut rng);
    let workload = make_workload(
        &scenario.universe,
        CLIENTS * SESSIONS_PER_CLIENT,
        &NoiseSpec::with_rate(0.35),
        &mut rng,
    );
    // No pre-computed regions: suggestions then come from the inference
    // system on both sides, so server sessions and the plain
    // `DataMonitor` reference are step-for-step identical.
    let service = CleaningService::new(
        Arc::new(scenario.master_data()),
        Arc::new(scenario.rules.clone()),
        ServiceConfig {
            workers,
            precompute_regions: false,
            ..ServiceConfig::default()
        },
    );
    Fixture {
        scenario,
        workload,
        service,
    }
}

/// Drive one session over the wire exactly like an [`OracleUser`]:
/// validate precisely the suggested attributes with their true values,
/// until the monitor reports `complete` or `stuck`.
fn oracle_session_over_wire(
    client: &mut Client,
    schema: &SchemaRef,
    dirty: &Tuple,
    truth: &Tuple,
) -> CommitView {
    let mut view = client
        .create_session(dirty.values().to_vec())
        .expect("create session");
    let mut guard = 0;
    while view.status == "awaiting_user" {
        guard += 1;
        assert!(guard <= 64, "runaway session");
        let validations: Vec<(String, Value)> = view
            .suggestion
            .iter()
            .map(|name| {
                let attr = schema.attr_id(name).expect("suggested attr exists");
                (name.clone(), truth.get(attr).clone())
            })
            .collect();
        assert!(
            !validations.is_empty(),
            "awaiting_user implies a suggestion"
        );
        view = client
            .validate(view.session, validations)
            .expect("validate");
    }
    client.commit(view.session).expect("commit")
}

/// Concurrent wire sessions match the single-threaded oracle exactly.
#[test]
fn concurrent_wire_sessions_match_single_threaded_monitor() {
    let Fixture {
        scenario,
        workload,
        service,
    } = fixture(4);

    // Single-threaded reference.
    let master = scenario.master_data();
    let monitor = DataMonitor::new(&scenario.rules, &master);
    let reference: Vec<CleanOutcome> = workload
        .dirty
        .iter()
        .zip(&workload.truth)
        .enumerate()
        .map(|(idx, (dirty, truth))| {
            let mut user = OracleUser::new(truth.clone());
            monitor
                .clean(idx, dirty.clone(), &mut user)
                .expect("consistent rules")
        })
        .collect();

    let handle = Server::spawn("127.0.0.1:0", service.clone()).expect("bind ephemeral");
    let addr: SocketAddr = handle.addr();
    let schema = scenario.input.clone();

    // CLIENTS concurrent connections, each interleaving its share of
    // sessions; results keyed by workload index.
    let mut results: Vec<Option<CommitView>> = vec![None; workload.len()];
    let result_slots: Vec<std::sync::Mutex<&mut Option<CommitView>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let schema = schema.clone();
            let workload = &workload;
            let result_slots = &result_slots;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for session_idx in 0..SESSIONS_PER_CLIENT {
                    let idx = client_idx * SESSIONS_PER_CLIENT + session_idx;
                    let commit = oracle_session_over_wire(
                        &mut client,
                        &schema,
                        &workload.dirty[idx],
                        &workload.truth[idx],
                    );
                    **result_slots[idx].lock().unwrap() = Some(commit);
                }
            });
        }
    });

    assert_eq!(service.live_sessions(), 0, "every session committed");
    for (idx, (commit, expected)) in results.iter().zip(&reference).enumerate() {
        let commit = commit.as_ref().expect("every session ran");
        assert_eq!(commit.complete, expected.complete, "tuple {idx} completion");
        assert_eq!(
            commit.tuple,
            expected.tuple.values().to_vec(),
            "tuple {idx} final values (dirty: {:?})",
            workload.dirty[idx].values()
        );
        assert_eq!(
            commit.rounds as usize, expected.rounds,
            "tuple {idx} rounds"
        );
        assert_eq!(
            commit.user_validated as usize, expected.user_validated,
            "tuple {idx} user validations"
        );
        assert_eq!(
            commit.auto_validated as usize, expected.auto_validated,
            "tuple {idx} auto validations"
        );
    }

    let snapshot = service.metrics();
    assert_eq!(snapshot.sessions_created, workload.len() as u64);
    assert_eq!(snapshot.sessions_committed, workload.len() as u64);
    assert_eq!(snapshot.errors, 0);

    handle.shutdown().expect("clean shutdown");
}

/// Shutdown latency: with the half-close + self-connect hooks, a server
/// with idle open connections stops in milliseconds. A poll-based loop
/// would ride out a 200 ms per-connection read timeout plus a 25 ms
/// accept poll — the bound here fails if either ever creeps back.
#[test]
fn shutdown_completes_promptly_with_open_connections() {
    let Fixture { service, .. } = fixture(2);
    let handle = Server::spawn("127.0.0.1:0", service).expect("bind ephemeral");
    let mut clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(handle.addr()).expect("connect"))
        .collect();
    for client in &mut clients {
        client.hello().expect("hello"); // connection fully established & served
    }
    let started = Instant::now();
    handle.shutdown().expect("clean shutdown");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "shutdown took {elapsed:?} with idle connections open"
    );
}

#[test]
fn concurrent_region_requests_hit_cache() {
    let Fixture { service, .. } = fixture(2);
    let handle = Server::spawn("127.0.0.1:0", service.clone()).expect("bind ephemeral");
    let addr = handle.addr();

    // Every client asks for the regions and the verdict twice. The
    // installed state computes each once: concurrent first callers wait
    // for the one computing it, and only that one answers `cached: false`.
    let computed: Vec<(bool, bool)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let (regions_cached, regions_a) = client.regions(None).expect("regions");
                    let (cached, regions_b) = client.regions(None).expect("regions again");
                    assert!(cached, "a repeated regions request is never recomputed");
                    assert_eq!(regions_a, regions_b);
                    let (check_cached, consistent) =
                        client.check(Some("entity-coherent")).expect("check");
                    assert!(
                        consistent,
                        "uk rules are consistent in the paper's entity-coherent mode"
                    );
                    let (cached, _) = client.check(Some("entity-coherent")).expect("check again");
                    assert!(cached, "a repeated check is never recomputed");
                    (!regions_cached, !check_cached)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let searches = computed.iter().filter(|(regions, _)| *regions).count();
    let checks = computed.iter().filter(|(_, check)| *check).count();
    assert_eq!(
        (searches, checks),
        (1, 1),
        "one region search and one consistency check computed, ever"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn batch_clean_over_wire_matches_sequential_monitor() {
    let Fixture {
        scenario,
        workload,
        service,
    } = fixture(4);
    let schema = scenario.input.clone();
    // Trust the attributes a UK entry form pins down: phone, type, zip.
    let trust: Vec<String> = ["phn", "type", "zip"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let trusted: Vec<usize> = trust.iter().map(|n| schema.attr_id(n).unwrap()).collect();

    // Sequential reference: trusted columns validated as-is, fixpoint.
    let master = scenario.master_data();
    let monitor = DataMonitor::new(&scenario.rules, &master);
    let reference: Vec<Tuple> = workload
        .truth
        .iter()
        .enumerate()
        .map(|(idx, truth)| {
            // Feed truth tuples with trusted cells intact (an operator
            // vouching for form fields), dirty elsewhere.
            let mut entered = workload.dirty[idx].clone();
            for &a in &trusted {
                entered.set(a, truth.get(a).clone()).unwrap();
            }
            let mut session = monitor.start(idx, entered);
            let validations: Vec<(usize, Value)> = trusted
                .iter()
                .filter_map(|&a| {
                    let v = session.tuple.get(a);
                    (!v.is_null()).then(|| (a, v.clone()))
                })
                .collect();
            monitor
                .apply_validation(&mut session, &validations)
                .expect("consistent rules");
            session.tuple
        })
        .collect();

    let handle = Server::spawn("127.0.0.1:0", service).expect("bind ephemeral");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let batch: Vec<Vec<Value>> = workload
        .dirty
        .iter()
        .zip(&workload.truth)
        .map(|(dirty, truth)| {
            let mut entered = dirty.clone();
            for &a in &trusted {
                entered.set(a, truth.get(a).clone()).unwrap();
            }
            entered.values().to_vec()
        })
        .collect();
    let outcomes = client.clean(batch, trust).expect("batch clean");

    assert_eq!(outcomes.len(), reference.len());
    for (idx, (outcome, expected)) in outcomes.iter().zip(&reference).enumerate() {
        assert_eq!(outcome.index as usize, idx, "outcomes in stream order");
        assert_eq!(
            outcome.tuple,
            expected.values().to_vec(),
            "tuple {idx} batch result"
        );
    }
    handle.shutdown().expect("clean shutdown");
}
