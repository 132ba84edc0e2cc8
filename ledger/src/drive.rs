//! The three load drivers. A *turn* is what is in flight at once — a
//! pipelined window, one `clean` request, one session — and a *block*
//! is a fixed number of turns from the pool, in pool order.

use crate::client::{compare, compare_fields, field_u64, render_u64, Client};
use crate::load::{
    hot_op, hot_request, hot_setup_id, Arena, CleanTurn, HotSession, Inputs, Op, Pool, Script,
    Workload, Worth, CLEAN_BATCH, CLEAN_TURNS, DURABLE_TURNS, HOT_TURNS, HOT_WINDOW, QUORUM_TURNS,
};
use crate::span::Recorder;
use cerfix_server::wire::Json;

/// Turns of the warm-up (a `clean` turn is 128 units, the others'
/// turns are far shorter).
const WARM_TURNS: usize = 64;
const CLEAN_WARM_TURNS: usize = 16;

pub trait Driver {
    /// Units in one turn: requests of a window, tuples of a `clean`,
    /// one session.
    fn units_per_turn(&self) -> usize;
    fn turns_per_block(&self) -> usize;
    /// Bring the pool into its steady state (nothing to do unless the
    /// turns need sessions that outlive them).
    fn prepare(&mut self, _client: &mut Client) {}
    /// Turns sent before anything is counted or timed.
    fn warm_turns(&self) -> usize {
        WARM_TURNS
    }
    /// Run the next turn of the pool. With a recorder, one root span
    /// per turn and one child per wire request.
    fn turn(&mut self, client: &mut Client, spans: &mut Option<Recorder>);
    /// Parse and compare the replies the client set aside.
    fn deep_check(&mut self, client: &mut Client);
    /// What everything sent so far is worth to the server's counters.
    fn worth(&self) -> Worth;

    fn units_per_block(&self) -> usize {
        self.units_per_turn() * self.turns_per_block()
    }

    /// Prepare the pool and run the fixed warm-up, untimed.
    fn warm_up(&mut self, client: &mut Client) {
        self.prepare(client);
        for _ in 0..self.warm_turns() {
            self.turn(client, &mut None);
        }
        self.deep_check(client);
    }

    fn block(&mut self, client: &mut Client, spans: &mut Option<Recorder>) {
        for _ in 0..self.turns_per_block() {
            self.turn(client, spans);
        }
    }
}

pub fn driver_for(inputs: &Inputs) -> Box<dyn Driver + '_> {
    match &inputs.pool {
        Pool::Hot(sessions) => Box::new(HotDriver::new(&inputs.arena, sessions)),
        Pool::Clean(turns) => Box::new(CleanDriver {
            arena: &inputs.arena,
            turns,
            cursor: 0,
            worth: Worth::default(),
        }),
        Pool::Entry(scripts) => Box::new(EntryDriver {
            arena: &inputs.arena,
            scripts,
            turns: if inputs.workload == Workload::EntryQuorum {
                QUORUM_TURNS
            } else {
                DURABLE_TURNS
            },
            cursor: 0,
            line: Vec::with_capacity(4096),
            worth: Worth::default(),
        }),
    }
}

fn open(spans: &mut Option<Recorder>) -> (u64, u64) {
    match spans {
        Some(rec) => (rec.open(0, "unit"), rec.now_ns()),
        None => (0, 0),
    }
}

fn child(spans: &mut Option<Recorder>, root: u64, op: Op, start_ns: u64) {
    if let Some(rec) = spans {
        let now = rec.now_ns();
        rec.record(root, op.span_name(), start_ns, now);
    }
}

fn close(spans: &mut Option<Recorder>, root: u64) {
    if let Some(rec) = spans {
        rec.close(root);
    }
}

// ------------------------------------------------------------------
// wire_hot
// ------------------------------------------------------------------

/// Rounds a session has been through when reply `i` of a window is
/// rendered: validate and fix each count one round, get shows the
/// current count.
fn hot_bumps_through(i: usize) -> u64 {
    (0..=i).filter(|j| hot_op(*j) != Op::Get).count() as u64
}

struct HotDriver<'a> {
    arena: &'a Arena,
    sessions: &'a [HotSession],
    /// One pre-rendered window per session, built once the server has
    /// handed out the session ids.
    windows: Vec<Vec<u8>>,
    /// Rounds each session had been through before its next window.
    rounds: Vec<u64>,
    cursor: usize,
    worth: Worth,
}

impl<'a> HotDriver<'a> {
    fn new(arena: &'a Arena, sessions: &'a [HotSession]) -> HotDriver<'a> {
        HotDriver {
            arena,
            sessions,
            windows: Vec::new(),
            rounds: vec![0; sessions.len()],
            cursor: 0,
            worth: Worth::default(),
        }
    }

    fn id_of(session: usize, i: usize) -> u64 {
        (session * HOT_WINDOW + i) as u64
    }

    /// Deep-check token: session, position in the window, and the
    /// rounds the session had been through before the window.
    fn token(session: usize, i: usize, rounds_before: u64) -> u64 {
        session as u64 | (i as u64) << 8 | rounds_before << 16
    }
}

impl Driver for HotDriver<'_> {
    fn units_per_turn(&self) -> usize {
        HOT_WINDOW
    }

    fn turns_per_block(&self) -> usize {
        HOT_TURNS
    }

    fn prepare(&mut self, client: &mut Client) {
        for (s, session) in self.sessions.iter().enumerate() {
            let base = hot_setup_id(s);
            client.begin_turn();
            client.send(self.arena.get(&session.create), 1);
            let id = client
                .expect(base, b"\"session\":", u64::MAX)
                .and_then(|reply| field_u64(reply, b"\"session\":"))
                .unwrap_or(0);
            let mut line = self.arena.get(&session.complete).to_vec();
            line.extend_from_slice(format!("{id}}}\n").as_bytes());
            client.send(&line, 1);
            client.expect(base + 1, self.arena.get(&session.needle), u64::MAX);
            self.rounds[s] = 1;
            self.worth.add(Worth {
                requests: 2,
                cells_fixed: 1,
                ..Worth::default()
            });

            let mut window = String::new();
            for i in 0..HOT_WINDOW {
                window.push_str(&hot_request(i, id, &session.key, Self::id_of(s, i)));
                window.push('\n');
            }
            self.windows.push(window.into_bytes());
        }
    }

    fn turn(&mut self, client: &mut Client, spans: &mut Option<Recorder>) {
        let s = self.cursor % self.sessions.len();
        self.cursor += 1;
        let needle = self.arena.get(&self.sessions[s].needle);
        let before = self.rounds[s];
        let (root, sent_ns) = open(spans);
        client.begin_turn();
        client.send(&self.windows[s], HOT_WINDOW as u64);
        for i in 0..HOT_WINDOW {
            client.expect(Self::id_of(s, i), needle, Self::token(s, i, before));
            child(spans, root, hot_op(i), sent_ns);
        }
        close(spans, root);
        self.rounds[s] = before + hot_bumps_through(HOT_WINDOW - 1);
        self.worth.requests += HOT_WINDOW as u64;
    }

    fn deep_check(&mut self, client: &mut Client) {
        let sessions = self.sessions;
        client.deep_check(|token, json| {
            if token == u64::MAX {
                return Ok(()); // a set-up reply: checked in line only
            }
            let (s, i, before) = (
                (token & 0xff) as usize,
                (token >> 8 & 0xff) as usize,
                token >> 16,
            );
            let id = HotDriver::id_of(s, i);
            if json.get("id").and_then(Json::as_u64) != Some(id) {
                return Err(format!("wrong id, expected {id}"));
            }
            compare_fields(json, &sessions[s].deep)?;
            let rounds = before + hot_bumps_through(i);
            if json.get("rounds").and_then(Json::as_u64) != Some(rounds) {
                return Err(format!("rounds: expected {rounds}"));
            }
            Ok(())
        });
    }

    fn worth(&self) -> Worth {
        self.worth
    }
}

// ------------------------------------------------------------------
// batch_clean
// ------------------------------------------------------------------

struct CleanDriver<'a> {
    arena: &'a Arena,
    turns: &'a [CleanTurn],
    cursor: usize,
    worth: Worth,
}

impl Driver for CleanDriver<'_> {
    fn units_per_turn(&self) -> usize {
        CLEAN_BATCH
    }

    fn turns_per_block(&self) -> usize {
        CLEAN_TURNS
    }

    fn warm_turns(&self) -> usize {
        CLEAN_WARM_TURNS
    }

    fn turn(&mut self, client: &mut Client, spans: &mut Option<Recorder>) {
        let t = self.cursor % self.turns.len();
        self.cursor += 1;
        let turn = &self.turns[t];
        let (root, sent_ns) = open(spans);
        client.begin_turn();
        client.send(self.arena.get(&turn.request), 1);
        client.expect(turn.reply.id, self.arena.get(&turn.reply.needle), t as u64);
        child(spans, root, Op::Clean, sent_ns);
        close(spans, root);
        self.worth.add(turn.worth);
    }

    fn deep_check(&mut self, client: &mut Client) {
        let turns = self.turns;
        client.deep_check(|token, json| compare(json, &turns[token as usize].reply));
    }

    fn worth(&self) -> Worth {
        self.worth
    }
}

// ------------------------------------------------------------------
// entry_durable / entry_quorum
// ------------------------------------------------------------------

struct EntryDriver<'a> {
    arena: &'a Arena,
    scripts: &'a [Script],
    turns: usize,
    cursor: usize,
    /// The request line being assembled: head + session id + `}\n`.
    line: Vec<u8>,
    worth: Worth,
}

impl Driver for EntryDriver<'_> {
    fn units_per_turn(&self) -> usize {
        1
    }

    fn turns_per_block(&self) -> usize {
        self.turns
    }

    fn turn(&mut self, client: &mut Client, spans: &mut Option<Recorder>) {
        let at = self.cursor % self.scripts.len();
        self.cursor += 1;
        let script = &self.scripts[at];
        // Tokens name (script, step): step 0 is the create.
        let token = |step: usize| (at * 16 + step) as u64;
        let (root, mut start_ns) = open(spans);
        client.begin_turn();
        client.send(self.arena.get(&script.create), 1);
        let session = client
            .expect(
                script.create_reply.id,
                self.arena.get(&script.create_reply.needle),
                token(0),
            )
            .and_then(|reply| field_u64(reply, b"\"session\":"));
        child(spans, root, Op::Create, start_ns);
        self.worth.requests += 1;
        let Some(session) = session else {
            // No session to go on with: the rest of the script is not
            // sent, and the create already counts as failed.
            close(spans, root);
            return;
        };
        let mut digits = [0u8; 20];
        for (i, step) in script.steps.iter().enumerate() {
            self.line.clear();
            self.line.extend_from_slice(self.arena.get(&step.head));
            self.line
                .extend_from_slice(render_u64(session, &mut digits));
            self.line.extend_from_slice(b"}\n");
            if let Some(rec) = spans {
                start_ns = rec.now_ns();
            }
            client.begin_turn();
            client.send(&self.line, 1);
            client.expect(
                step.reply.id,
                self.arena.get(&step.reply.needle),
                token(i + 1),
            );
            child(spans, root, step.op, start_ns);
        }
        close(spans, root);
        let mut worth = script.worth;
        worth.requests -= 1;
        self.worth.add(worth);
    }

    fn deep_check(&mut self, client: &mut Client) {
        let scripts = self.scripts;
        client.deep_check(|token, json| {
            let script = &scripts[token as usize / 16];
            let reply = match token as usize % 16 {
                0 => &script.create_reply,
                step => &script.steps[step - 1].reply,
            };
            compare(json, reply)
        });
    }

    fn worth(&self) -> Worth {
        self.worth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc;
    use crate::load::generate;
    use cerfix::MasterData;
    use cerfix_server::{CleaningService, ServiceConfig};
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::Arc;

    #[test]
    fn hot_window_is_one_to_one_to_one_and_counts_rounds() {
        let ops: Vec<Op> = (0..HOT_WINDOW).map(hot_op).collect();
        assert_eq!(ops.iter().filter(|o| **o == Op::Validate).count(), 22);
        assert_eq!(ops.iter().filter(|o| **o == Op::Fix).count(), 21);
        assert_eq!(ops.iter().filter(|o| **o == Op::Get).count(), 21);
        assert_eq!(hot_bumps_through(0), 1);
        assert_eq!(
            hot_bumps_through(2),
            2,
            "a get shows the count, it does not add to it"
        );
        assert_eq!(hot_bumps_through(HOT_WINDOW - 1), 43);
    }

    /// A peer that answers the k-th request line with the k-th canned
    /// reply, going round the replies from `cycle_from` on once they
    /// run out. It stands in for the server so that the generator
    /// thread's allocations can be told from the server's.
    fn canned_peer(
        listener: TcpListener,
        replies: Vec<String>,
        cycle_from: usize,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("the client connects");
            let mut buf = [0u8; 1 << 16];
            let mut k = 0;
            while let Ok(n) = stream.read(&mut buf) {
                if n == 0 {
                    break;
                }
                for _ in buf[..n].iter().filter(|&&b| b == b'\n') {
                    let at = if k < replies.len() {
                        k
                    } else {
                        cycle_from + (k - cycle_from) % (replies.len() - cycle_from)
                    };
                    k += 1;
                    if stream.write_all(replies[at].as_bytes()).is_err() {
                        return;
                    }
                }
            }
        })
    }

    /// What a real service answers to the first `turns` turns of the
    /// pool, in request order.
    fn record(inputs: &Inputs, turns: usize) -> Vec<String> {
        let service = CleaningService::new(
            Arc::new(MasterData::new(inputs.fixture.relation.clone())),
            Arc::clone(&inputs.fixture.rules),
            ServiceConfig::default(),
        );
        let answer = |line: &str| format!("{}\n", service.handle_line(line));
        let mut replies = Vec::new();
        match &inputs.pool {
            Pool::Hot(sessions) => {
                for (s, session) in sessions.iter().enumerate() {
                    replies.push(answer(inputs.arena.text(&session.create)));
                    replies.push(answer(
                        &inputs.arena.session_line(&session.complete, s as u64 + 1),
                    ));
                }
                for line in crate::probes::sample_lines(inputs, usize::MAX, usize::MAX) {
                    replies.push(answer(&line));
                }
            }
            Pool::Entry(scripts) => {
                for (at, script) in scripts.iter().take(turns).enumerate() {
                    replies.push(answer(inputs.arena.text(&script.create)));
                    for step in &script.steps {
                        replies.push(answer(
                            &inputs.arena.session_line(&step.head, at as u64 + 1),
                        ));
                    }
                }
            }
            Pool::Clean(_) => unreachable!("the clean driver sends pool bytes as they are"),
        }
        replies
    }

    /// Once warmed up, a turn of the generator allocates nothing: every
    /// request byte was rendered beforehand (or is assembled in a
    /// buffer that is already big enough) and every reply lands in a
    /// buffer that is already there.
    #[test]
    fn generators_allocate_nothing_in_steady_state() {
        for workload in [Workload::WireHot, Workload::EntryDurable] {
            let inputs = generate(workload, 11);
            let measured = 32;
            let replies = record(&inputs, WARM_TURNS + measured);
            let cycle_from = match workload {
                Workload::WireHot => 2 * crate::load::HOT_SESSIONS,
                _ => 0,
            };
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("bound");
            let peer = canned_peer(listener, replies, cycle_from);
            let mut client = Client::connect(addr).expect("connect");
            let mut driver = driver_for(&inputs);
            driver.warm_up(&mut client);
            let before = alloc::thread_count();
            for _ in 0..measured {
                driver.turn(&mut client, &mut None);
            }
            assert_eq!(
                alloc::thread_count(),
                before,
                "{}: the generator allocated inside its steady state",
                workload.name()
            );
            drop(driver);
            // In-line checks all passed; the only thing a canned peer
            // gets wrong is the round count of a re-played window.
            if workload != Workload::WireHot {
                assert_eq!(client.tally.failed, 0, "{:?}", client.tally.first_failure);
            }
            drop(client);
            peer.join().expect("peer exits when the client hangs up");
        }
    }
}
