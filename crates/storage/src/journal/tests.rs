use super::*;
use crate::vfs::{FaultFs, FaultPlan, RealFs};
use cerfix_relation::Value;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cerfix-journal-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn real_fs() -> Arc<dyn StorageFs> {
    Arc::new(RealFs)
}

/// What a cursor read served, decoded.
/// `read_durable_from` into a fresh `CursorRead`.
fn read_from(journal: &Journal, offset: u64, max: usize) -> CursorRead {
    let mut read = CursorRead::default();
    journal.read_durable_from(offset, max, &mut read).unwrap();
    read
}

fn events(read: &CursorRead) -> Vec<JournalEvent> {
    read.payloads()
        .map(|payload| JournalEvent::decode(payload).unwrap())
        .collect()
}

fn ev(session: u64) -> JournalEvent {
    JournalEvent::SessionCreated {
        session,
        values: vec![Value::str("x"), Value::Int(session as i64)],
    }
}

#[test]
fn append_sync_scan_round_trip() {
    let dir = tmp_dir("round-trip");
    let path = dir.join("journal.wal");
    let scan = scan_journal(&path).unwrap();
    let journal = Journal::open(&path, &scan, 0, Duration::from_millis(1), &real_fs()).unwrap();
    let mut last = 0;
    for i in 0..20 {
        last = journal.append(&ev(i));
    }
    journal.sync(last).unwrap();
    assert_eq!(journal.events_appended(), 20);
    assert!(journal.durable_len() > JOURNAL_HEADER);
    drop(journal);
    let scan = scan_journal(&path).unwrap();
    assert_eq!(scan.epoch, 0);
    assert_eq!(scan.torn_bytes, 0);
    assert_eq!(scan.events.len(), 20);
    assert_eq!(scan.events[7], ev(7));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_profile_records_fsync_and_batch_histograms() {
    let dir = tmp_dir("flush-profile");
    let path = dir.join("journal.wal");
    let scan = scan_journal(&path).unwrap();
    let journal = Journal::open(&path, &scan, 0, Duration::from_millis(50), &real_fs()).unwrap();
    assert_eq!(journal.flush_profile().flushes, 0);
    let mut last = 0;
    for i in 0..8 {
        last = journal.append(&ev(i));
    }
    journal.sync(last).unwrap();
    let profile = journal.flush_profile();
    assert!(profile.flushes >= 1);
    assert_eq!(profile.batch_events_total, 8);
    assert!(profile.fsync_ns_total > 0);
    let fsync_count: u64 = profile.fsync_ns_buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(fsync_count, profile.flushes);
    let batch_count: u64 = profile.batch_events_buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(batch_count, profile.flushes);
    // Bounds are powers of two, strictly increasing.
    for pair in profile.fsync_ns_buckets.windows(2) {
        assert!(pair[0].0 < pair[1].0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_cut_at_every_byte_boundary() {
    let dir = tmp_dir("torn");
    let path = dir.join("journal.wal");
    {
        let scan = scan_journal(&path).unwrap();
        let journal = Journal::open(&path, &scan, 3, Duration::from_millis(1), &real_fs()).unwrap();
        let last = (0..5).fold(0, |_, i| journal.append(&ev(i)));
        journal.sync(last).unwrap();
    }
    let full = std::fs::read(&path).unwrap();
    let full_scan = scan_journal(&path).unwrap();
    assert_eq!(full_scan.events.len(), 5);
    // Cut the file at every length: the scan must always return a
    // clean prefix of the appended events, never an error or panic.
    let mut seen = Vec::new();
    for cut in (JOURNAL_HEADER as usize)..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.epoch, 3);
        assert!(scan.events.len() <= 5);
        for (i, event) in scan.events.iter().enumerate() {
            assert_eq!(event, &ev(i as u64), "prefix property at cut {cut}");
        }
        seen.push(scan.events.len());
        // Reopening truncates the tail and accepts new appends.
        let journal = Journal::open(
            &path,
            &scan,
            scan.epoch,
            Duration::from_millis(1),
            &real_fs(),
        )
        .unwrap();
        let seq = journal.append(&ev(99));
        journal.sync(seq).unwrap();
        drop(journal);
        let rescan = scan_journal(&path).unwrap();
        assert_eq!(rescan.torn_bytes, 0);
        assert_eq!(rescan.events.last().unwrap(), &ev(99));
    }
    assert!(seen.contains(&4), "some cut keeps 4 events");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_frame_is_typed_in_strict_mode_and_cut_in_tolerant_mode() {
    let dir = tmp_dir("corrupt");
    let path = dir.join("journal.wal");
    {
        let scan = scan_journal(&path).unwrap();
        let journal = Journal::open(&path, &scan, 0, Duration::from_millis(1), &real_fs()).unwrap();
        let last = (0..4).fold(0, |_, i| journal.append(&ev(i)));
        journal.sync(last).unwrap();
    }
    let full = std::fs::read(&path).unwrap();
    // Flip one payload byte in the middle of the file: the frame is
    // complete, so this is corruption, not a tear.
    let mut bent = full.clone();
    let idx = full.len() / 2;
    bent[idx] ^= 0x01;
    std::fs::write(&path, &bent).unwrap();
    match scan_journal(&path) {
        Err(StorageError::Corrupt { offset, .. }) => {
            assert!(offset >= JOURNAL_HEADER, "corruption inside the frames");
        }
        other => panic!("strict scan must refuse corruption, got {other:?}"),
    }
    let scan = scan_journal_with(&path, ScanMode::Tolerant).unwrap();
    assert!(scan.corrupt_bytes > 0);
    assert_eq!(scan.torn_bytes, 0);
    assert!(scan.events.len() < 4, "corrupt suffix dropped");
    for (i, event) in scan.events.iter().enumerate() {
        assert_eq!(event, &ev(i as u64), "tolerant scan keeps a clean prefix");
    }
    // A header flip is typed corruption too (header CRC).
    let mut bent = full.clone();
    bent[9] ^= 0x01; // epoch byte
    std::fs::write(&path, &bent).unwrap();
    assert!(matches!(
        scan_journal(&path),
        Err(StorageError::Corrupt { offset: 0, .. })
    ));
    let scan = scan_journal_with(&path, ScanMode::Tolerant).unwrap();
    assert_eq!(scan.corrupt_bytes, full.len() as u64);
    assert!(scan.events.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failure_poisons_and_truncate_to_epoch_clears() {
    let dir = tmp_dir("poison");
    let path = dir.join("journal.wal");
    let fault = FaultFs::new(FaultPlan::default());
    let fs: Arc<dyn StorageFs> = Arc::new(fault.clone());
    let scan = scan_journal(&path).unwrap();
    let journal = Journal::open(&path, &scan, 0, Duration::from_millis(1), &fs).unwrap();
    let seq = journal.append(&ev(1));
    journal.sync(seq).unwrap();
    let durable_before = journal.durable_len();
    // Fail the next fsync (open + the first sync used some).
    fault.update_plan(|p| p.fail_fsync_at = Some(fault.fsyncs() + 1));
    let seq = journal.append(&ev(2));
    match journal.sync(seq) {
        Err(SyncError::Poisoned { error }) => assert!(error.contains("injected")),
        other => panic!("expected poison, got {other:?}"),
    }
    assert!(journal.poisoned().is_some());
    assert!(journal.last_error().is_some());
    assert_eq!(journal.durable_len(), durable_before, "no false advance");
    // Appends after the poison fail fast instead of hanging.
    let seq = journal.append(&ev(3));
    assert!(matches!(journal.sync(seq), Err(SyncError::Poisoned { .. })));
    // A snapshot truncation rebuilds the file and clears the poison.
    journal.truncate_to_epoch(1).unwrap();
    assert!(journal.poisoned().is_none());
    assert!(journal.last_error().is_none());
    let seq = journal.append(&ev(4));
    journal.sync(seq).unwrap();
    drop(journal);
    let scan = scan_journal(&path).unwrap();
    assert_eq!(scan.epoch, 1);
    assert_eq!(scan.events, vec![ev(4)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_failure_errors_waiters_then_recovers_on_retry() {
    let dir = tmp_dir("enospc");
    let path = dir.join("journal.wal");
    let fault = FaultFs::new(FaultPlan::default());
    let fs: Arc<dyn StorageFs> = Arc::new(fault.clone());
    let scan = scan_journal(&path).unwrap();
    let journal = Journal::open(&path, &scan, 0, Duration::from_millis(1), &fs).unwrap();
    let seq = journal.append(&ev(1));
    journal.sync(seq).unwrap();
    // Exhaust the byte budget: the next flush hits ENOSPC.
    fault.update_plan(|p| p.capacity_bytes = Some(fault.bytes_written()));
    let seq = journal.append(&ev(2));
    match journal.sync(seq) {
        Err(SyncError::WriteFailed { enospc, .. }) => assert!(enospc),
        other => panic!("expected ENOSPC write failure, got {other:?}"),
    }
    assert!(journal.last_error().is_some());
    assert!(journal.poisoned().is_none(), "ENOSPC does not poison");
    // "Free some disk": the restored frames retry and land, and the
    // error state clears. A sync re-issued before the flusher's
    // retry cycle may still observe the stale failure ("not durable
    // *yet*"), so poll until the retry lands.
    fault.add_capacity(1 << 20);
    let deadline = Instant::now() + Duration::from_secs(10);
    while journal.sync(seq).is_err() {
        assert!(Instant::now() < deadline, "retry never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(journal.last_error().is_none(), "error clears on success");
    drop(journal);
    let scan = scan_journal(&path).unwrap();
    assert_eq!(scan.events, vec![ev(1), ev(2)], "retried frame landed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncate_to_epoch_resets_and_scan_sees_new_epoch() {
    let dir = tmp_dir("epoch");
    let path = dir.join("journal.wal");
    let scan = scan_journal(&path).unwrap();
    let journal = Journal::open(&path, &scan, 0, Duration::from_millis(1), &real_fs()).unwrap();
    let seq = journal.append(&ev(1));
    journal.sync(seq).unwrap();
    journal.truncate_to_epoch(1).unwrap();
    let seq = journal.append(&ev(2));
    journal.sync(seq).unwrap();
    drop(journal);
    let scan = scan_journal(&path).unwrap();
    assert_eq!(scan.epoch, 1);
    assert_eq!(scan.events, vec![ev(2)]);
    // A stale journal (epoch < snapshot epoch) is reset on open.
    let reopened = Journal::open(&path, &scan, 5, Duration::from_millis(1), &real_fs()).unwrap();
    drop(reopened);
    let scan = scan_journal(&path).unwrap();
    assert_eq!(scan.epoch, 5);
    assert!(scan.events.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_crash_loses_only_unsynced_suffix() {
    let dir = tmp_dir("crash");
    let path = dir.join("journal.wal");
    let scan = scan_journal(&path).unwrap();
    // Hour-long interval: nothing flushes unless sync() forces it.
    let journal = Journal::open(&path, &scan, 0, Duration::from_secs(3600), &real_fs()).unwrap();
    let durable_seq = journal.append(&ev(1));
    journal.sync(durable_seq).unwrap();
    journal.append(&ev(2)); // never synced
    journal.simulate_crash().unwrap();
    drop(journal);
    let scan = scan_journal(&path).unwrap();
    assert_eq!(scan.events, vec![ev(1)], "only the synced event survives");
    assert_eq!(scan.torn_bytes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cursor_reads_and_positions_survive_reopen_and_truncation() {
    let dir = tmp_dir("cursor");
    let path = dir.join("journal.wal");
    let scan = scan_journal(&path).unwrap();
    let journal = Journal::open(&path, &scan, 0, Duration::from_millis(1), &real_fs()).unwrap();
    assert_eq!(journal.durable_position(), (0, 0));
    let mut last = 0;
    for i in 0..6 {
        last = journal.append(&ev(i));
    }
    assert_eq!(journal.position_of(last), 6);
    journal.sync(last).unwrap();
    assert_eq!(journal.durable_position(), (0, 6));
    let read = read_from(&journal, 2, 3);
    assert_eq!((read.epoch, read.durable_events), (0, 6));
    assert_eq!(events(&read), vec![ev(2), ev(3), ev(4)]);
    assert!(read_from(&journal, 6, 8).is_empty());
    drop(journal);
    // Seqs restart at 1 on reopen; file positions do not.
    let scan = scan_journal(&path).unwrap();
    let journal = Journal::open(&path, &scan, 0, Duration::from_millis(1), &real_fs()).unwrap();
    assert_eq!(journal.durable_position(), (0, 6));
    let seq = journal.append(&ev(6));
    assert_eq!(journal.position_of(seq), 7);
    journal.sync(seq).unwrap();
    assert_eq!(events(&read_from(&journal, 6, 10)), vec![ev(6)]);
    // Truncation restarts positions in the new epoch.
    journal.truncate_to_epoch(1).unwrap();
    assert_eq!(journal.durable_position(), (1, 0));
    let seq = journal.append(&ev(7));
    assert_eq!(journal.position_of(seq), 1);
    journal.sync(seq).unwrap();
    let read = read_from(&journal, 0, 10);
    assert_eq!(read.epoch, 1);
    assert_eq!(events(&read), vec![ev(7)]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cursor read starts where the last one stopped, and whatever
/// order cursors come in — ahead of the hint, behind it, across a
/// truncation — it serves what a walk from the header serves.
#[test]
fn cursor_reads_resume_from_the_last_one_and_agree_with_a_full_walk() {
    let dir = tmp_dir("cursor-hint");
    let path = dir.join("journal.wal");
    let scan = scan_journal(&path).unwrap();
    let journal = Journal::open(&path, &scan, 0, Duration::from_millis(1), &real_fs()).unwrap();
    let appended: Vec<JournalEvent> = (0..40).map(ev).collect();
    let mut last = 0;
    for event in &appended {
        last = journal.append(event);
    }
    journal.sync(last).unwrap();
    let hint = || *lock(&journal.shared.read_hint);
    // One `CursorRead` for every read, as a connection keeps one.
    let mut read = CursorRead::default();
    for (offset, max) in [(0, 7), (7, 7), (14, 1), (20, 5), (3, 4), (39, 9), (15, 25)] {
        journal.read_durable_from(offset, max, &mut read).unwrap();
        let end = (offset as usize + max).min(appended.len());
        assert_eq!(
            events(&read),
            appended[offset as usize..end],
            "from {offset}"
        );
        assert_eq!((hint().epoch, hint().marks[1].0), (0, end as u64));
        assert_eq!(hint().marks[0].0, offset, "where it started");
    }
    // In step, a second follower starts where the first one did, and
    // the next read where the last one stopped.
    read_from(&journal, 0, 10);
    let [started, stopped] = hint().marks;
    read_from(&journal, 0, 10);
    assert_eq!(hint().marks, [started, stopped]);
    read_from(&journal, 10, 10);
    assert_eq!(hint().marks[0], stopped);
    journal.truncate_to_epoch(1).unwrap();
    let seq = journal.append(&ev(99));
    journal.sync(seq).unwrap();
    // The old epoch's boundary means nothing in the new file.
    assert_eq!(events(&read_from(&journal, 0, 10)), [ev(99)]);
    assert_eq!((hint().epoch, hint().marks[1].0), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchers_hear_every_move_of_the_durable_position_until_dropped() {
    let dir = tmp_dir("watch");
    let path = dir.join("journal.wal");
    let scan = scan_journal(&path).unwrap();
    let journal = Journal::open(&path, &scan, 0, Duration::from_secs(3600), &real_fs()).unwrap();
    let woken = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&woken);
    let watch = journal.watch(Arc::new(move || {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    let heard = || woken.swap(0, Ordering::SeqCst);
    // The flusher wakes the watchers just after it releases `sync`.
    let hears = |what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while heard() == 0 {
            assert!(Instant::now() < deadline, "no wake for the {what}");
            std::thread::yield_now();
        }
    };
    journal.sync(journal.append(&ev(1))).unwrap();
    hears("group fsync");
    assert_eq!(journal.durable_position(), (0, 1));
    journal.truncate_to_epoch(1).unwrap();
    hears("snapshot truncation");
    journal.wake_watchers();
    assert_eq!(heard(), 1, "explicit wake");
    drop(watch);
    assert_eq!(journal.shared.watchers.count.load(Ordering::SeqCst), 0);
    journal.sync(journal.append(&ev(2))).unwrap();
    journal.simulate_crash().unwrap();
    assert_eq!(heard(), 0, "a dropped watch hears nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_under_concurrent_appenders() {
    let dir = tmp_dir("group");
    let path = dir.join("journal.wal");
    let scan = scan_journal(&path).unwrap();
    let journal =
        Arc::new(Journal::open(&path, &scan, 0, Duration::from_millis(2), &real_fs()).unwrap());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let journal = Arc::clone(&journal);
            std::thread::spawn(move || {
                for i in 0..50u64 {
                    let seq = journal.append(&ev(t * 1000 + i));
                    if i % 10 == 9 {
                        journal.sync(seq).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let last = journal.append(&ev(9999));
    journal.sync(last).unwrap();
    drop(journal);
    let scan = scan_journal(&path).unwrap();
    assert_eq!(scan.events.len(), 201);
    assert_eq!(scan.torn_bytes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A follower far behind reads the journal about once over its whole
/// catch-up: each pull reads what it serves (in bounded chunks sized by
/// the file's mean frame), not the rest of the file.
#[test]
fn a_full_catch_up_reads_the_file_about_once() {
    struct CountingReader(std::fs::File, Arc<AtomicU64>);
    impl ReadAt for CountingReader {
        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
            self.1.fetch_add(buf.len() as u64, Ordering::Relaxed);
            self.0.read_exact_at(buf, offset)
        }
    }
    const EVENTS: u64 = 10_000;
    let dir = tmp_dir("catch-up");
    let path = dir.join("journal.wal");
    let scan = scan_journal(&path).unwrap();
    let mut journal =
        Journal::open(&path, &scan, 0, Duration::from_secs(3600), &real_fs()).unwrap();
    // Frames of 29 to 68 bytes, in no order a mean would fit exactly.
    let event = |i: u64| JournalEvent::SessionCreated {
        session: i,
        values: vec![Value::str("x".repeat((i * 7 % 40) as usize))],
    };
    let last = (0..EVENTS).fold(0, |_, i| journal.append(&event(i)));
    journal.sync(last).unwrap();
    let read_bytes = Arc::new(AtomicU64::new(0));
    let file = std::fs::File::open(&path).unwrap();
    journal.reader = Box::new(CountingReader(file, Arc::clone(&read_bytes)));
    let mut offset = 0;
    while offset < EVENTS {
        let read = read_from(&journal, offset, 512);
        assert_eq!(read.len() as u64, 512.min(EVENTS - offset), "from {offset}");
        let first = JournalEvent::decode(read.payloads().next().unwrap()).unwrap();
        assert_eq!(first, event(offset));
        offset += read.len() as u64;
    }
    let (read, file_len) = (read_bytes.load(Ordering::Relaxed), journal.durable_len());
    assert!(
        read * 10 <= file_len * 11,
        "{read} bytes read to serve a {file_len}-byte journal"
    );
    // One frame larger than a chunk is still served whole.
    let big = JournalEvent::RulesReloaded {
        dsl: "r".repeat(3 * READ_CHUNK as usize),
        fingerprint: 1,
    };
    journal.sync(journal.append(&big)).unwrap();
    assert_eq!(events(&read_from(&journal, EVENTS, 512)), [big]);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`RealFs`] whose journal file records the thread each `sync_data`
/// runs on, and waits at a gate while the test holds it shut.
#[derive(Debug, Default)]
struct WitnessFs {
    synced_on: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    shut: Arc<(Mutex<bool>, Condvar)>,
}

#[derive(Debug)]
struct WitnessFile {
    file: Box<dyn StorageFile>,
    synced_on: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    shut: Arc<(Mutex<bool>, Condvar)>,
}

impl StorageFile for WitnessFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.file.write_all(buf)
    }
    fn sync_data(&mut self) -> std::io::Result<()> {
        lock(&self.synced_on).push(std::thread::current().id());
        let mut shut = lock(&self.shut.0);
        while *shut {
            shut = self.shut.1.wait(shut).unwrap();
        }
        drop(shut);
        self.file.sync_data()
    }
    fn sync_all(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.file.seek(pos)
    }
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.file.read(buf)
    }
    fn file_len(&self) -> std::io::Result<u64> {
        self.file.file_len()
    }
}

impl StorageFs for WitnessFs {
    fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(WitnessFile {
            file: RealFs.open_rw(path)?,
            synced_on: Arc::clone(&self.synced_on),
            shut: Arc::clone(&self.shut),
        }))
    }
    fn create_truncated(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
        RealFs.create_truncated(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealFs.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        RealFs.sync_dir(dir)
    }
    fn free_bytes(&self, dir: &Path) -> Option<u64> {
        RealFs.free_bytes(dir)
    }
}

/// Settle `seq` the way a caller that may not block does: kick the
/// flusher and watch for the verdict — the cycle runs on its thread.
fn settle_on_the_flusher(journal: &Journal, seq: u64) -> Result<(), SyncError> {
    journal.kick_flusher();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(verdict) = journal.sync_status(seq) {
            return verdict;
        }
        assert!(Instant::now() < deadline, "the flusher never settled {seq}");
        std::thread::yield_now();
    }
}

#[test]
fn a_blocking_sync_leads_its_own_cycle_and_concurrent_ones_share_the_next() {
    let dir = tmp_dir("led");
    let path = dir.join("journal.wal");
    let witness = WitnessFs::default();
    let (synced_on, shut) = (Arc::clone(&witness.synced_on), Arc::clone(&witness.shut));
    let fs: Arc<dyn StorageFs> = Arc::new(witness);
    let scan = scan_journal(&path).unwrap();
    let journal = Arc::new(Journal::open(&path, &scan, 0, Duration::from_secs(3600), &fs).unwrap());
    let syncs = || lock(&synced_on).clone();
    let me = std::thread::current().id();
    assert_eq!(syncs(), [me], "opening syncs the header");

    // Alone: the caller's own thread writes and fsyncs. Kicked: the
    // flusher's does.
    journal.sync(journal.append(&ev(0))).unwrap();
    assert_eq!(syncs(), [me, me], "a lone sync leads");
    settle_on_the_flusher(&journal, journal.append(&ev(1))).unwrap();
    assert_eq!(syncs().len(), 3);
    assert_ne!(syncs()[2], me, "a kick is served by the flusher thread");

    // Four at once: the first leads and sticks in the disk; the other
    // three, appended meanwhile, find a cycle under way, wait, and are
    // covered together by the one that follows it.
    *lock(&shut.0) = true;
    let sync_on_a_thread = |seq: u64| {
        let journal = Arc::clone(&journal);
        std::thread::spawn(move || journal.sync(seq))
    };
    let leader = sync_on_a_thread(journal.append(&ev(2)));
    let deadline = Instant::now() + Duration::from_secs(10);
    while syncs().len() < 4 {
        assert!(
            Instant::now() < deadline,
            "the leader never reached the disk"
        );
        std::thread::yield_now();
    }
    let waiters: Vec<_> = (3..6)
        .map(|i| sync_on_a_thread(journal.append(&ev(i))))
        .collect();
    *lock(&shut.0) = false;
    shut.1.notify_all();
    leader.join().unwrap().unwrap();
    for waiter in waiters {
        waiter.join().unwrap().unwrap();
    }
    assert_eq!(syncs().len(), 5, "two fsyncs cover the four");
    assert_eq!(journal.durable_position(), (0, 6));
    let journal = Arc::into_inner(journal).unwrap();
    drop(journal);
    let scan = scan_journal(&path).unwrap();
    assert_eq!(
        scan.events,
        (0..6).map(ev).collect::<Vec<_>>(),
        "append order"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing disk reads the same through a cycle the caller leads as
/// through the flusher's: the same typed error, the same frames put
/// back in the same order (ENOSPC), the same poison (fsync).
#[test]
fn a_led_cycle_fails_as_the_flushers_does() {
    type Settle = fn(&Journal, u64) -> Result<(), SyncError>;
    let paths: [(&str, Settle); 2] = [
        ("led", |journal, seq| journal.sync(seq)),
        ("flusher", settle_on_the_flusher),
    ];
    let outcomes: Vec<(SyncError, SyncError)> = paths
        .into_iter()
        .map(|(name, settle)| {
            let dir = tmp_dir(&format!("led-faults-{name}"));
            let path = dir.join("journal.wal");
            let fault = FaultFs::new(FaultPlan::default());
            let fs: Arc<dyn StorageFs> = Arc::new(fault.clone());
            let scan = scan_journal(&path).unwrap();
            let journal = Journal::open(&path, &scan, 0, Duration::from_secs(3600), &fs).unwrap();
            settle(&journal, journal.append(&ev(0))).unwrap();
            // ENOSPC: both waiters fail, the frames go back in order and
            // land, ahead of a later append, once there is room.
            fault.update_plan(|p| p.capacity_bytes = Some(fault.bytes_written()));
            let (first, second) = (journal.append(&ev(1)), journal.append(&ev(2)));
            let full = settle(&journal, second).unwrap_err();
            assert_eq!(journal.sync_status(first), Some(Err(full.clone())));
            assert!(
                journal.poisoned().is_none(),
                "{name}: ENOSPC does not poison"
            );
            fault.add_capacity(1 << 20);
            settle(&journal, journal.append(&ev(3))).unwrap();
            assert_eq!(journal.sync_status(first), Some(Ok(())));
            assert!(
                journal.last_error().is_none(),
                "{name}: cleared by the retry"
            );
            // A failed fsync poisons: nothing after it is ever durable.
            let durable = journal.durable_len();
            fault.update_plan(|p| p.fail_fsync_at = Some(fault.fsyncs() + 1));
            let poisoned = settle(&journal, journal.append(&ev(4))).unwrap_err();
            assert_eq!(journal.durable_len(), durable, "{name}: no false advance");
            assert_eq!(
                settle(&journal, journal.append(&ev(5))),
                Err(poisoned.clone())
            );
            drop(journal);
            let on_disk = scan_journal(&path).unwrap().events;
            assert_eq!(on_disk[..4], (0..4).map(ev).collect::<Vec<_>>(), "{name}");
            let _ = std::fs::remove_dir_all(&dir);
            (full, poisoned)
        })
        .collect();
    assert!(matches!(
        outcomes[0].0,
        SyncError::WriteFailed { enospc: true, .. }
    ));
    assert!(matches!(outcomes[0].1, SyncError::Poisoned { .. }));
    assert_eq!(outcomes[0], outcomes[1], "led vs flusher");
}
