//! The crash-safe request journal.
//!
//! Every admission and every terminal transition is appended to
//! `journal.jsonl` using the same versioned, checksummed record format
//! as the planner's checkpoints (`np_chaos::checkpoint`), and in the
//! same durability order the checkpoints use: the `submitted` record is
//! flushed *before* the client hears "queued", so an admission the
//! client observed can never be lost to a crash.
//!
//! Replay after a `kill -9` walks the valid prefix of the journal and
//! classifies every request: a `submitted` with no terminal record is
//! still in flight and must be re-enqueued (with `resume` set, so the
//! run continues from its own checkpoint chain bit-identically); a
//! terminal record makes the outcome immediately retrievable by
//! reconnecting clients. Torn tails — the crash landed mid-append — are
//! dropped by the checksum exactly as checkpoint reads drop them.
//!
//! The journal does not grow with uptime: the daemon forgets old
//! terminal requests and, once their records are half the file,
//! [`Journal::compact`]s it to a `head` record — what the dropped
//! records would have told a replay: the id floor and their outcome
//! counts — followed by the records of the requests it still holds.

use np_chaos::checkpoint::{
    body_of, flag, json, num, read_body, read_records, since, Chain, Io, Record, Rows, Typed,
};
use np_chaos::{record, Chaos};
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Journal file name inside the daemon's state directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Terminal: the run produced a plan.
pub const K_DONE: &str = "done";
/// Terminal: the run failed (infeasible / budget exhausted).
pub const K_FAILED: &str = "failed";
/// Terminal: the run was cancelled.
pub const K_CANCELLED: &str = "cancelled";

/// The terminal kind `kind` names, if it is one.
fn terminal_kind(kind: &str) -> Option<&'static str> {
    [K_DONE, K_FAILED, K_CANCELLED]
        .into_iter()
        .find(|k| *k == kind)
}

/// The `submitted` record that opens a request.
#[derive(Default)]
struct Submitted {
    id: u64,
    spec: Value,
}

record! { Submitted = "submitted" {
    num "id" => id,
    json "spec" => spec,
}}

/// The record that closes a request, under one of the three terminal
/// kinds: `payload` is the result body or the error string.
#[derive(Default)]
struct Closed {
    id: u64,
    payload: Value,
    /// The request was answered at admission and never queued.
    answered: bool,
}

impl Rows for Closed {
    fn rows(&mut self, io: &mut Io<'_>) -> Option<()> {
        num(io, "id", &mut self.id)?;
        json(io, "payload", &mut self.payload)?;
        // Written for an admission answer only: the record of a request
        // that queued is the bytes it always was, and reads `false`.
        if matches!(io, Io::Put(_)) && !self.answered {
            return Some(());
        }
        since(io, "answered", &mut self.answered, flag)
    }
}

/// Outcome counts by terminal kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Requests closed `done`.
    pub done: u64,
    /// Requests closed `failed`.
    pub failed: u64,
    /// Requests closed `cancelled`.
    pub cancelled: u64,
    /// Of the `done` ones, those answered at admission.
    pub answered: u64,
}

impl Totals {
    /// Count one request closed under terminal kind `kind`, `answered`
    /// when that was at admission.
    pub fn count(&mut self, kind: &str, answered: bool) {
        match kind {
            K_DONE => self.done += 1,
            K_FAILED => self.failed += 1,
            _ => self.cancelled += 1,
        }
        self.answered += u64::from(answered);
    }

    /// Requests counted, of any kind.
    pub fn sum(&self) -> u64 {
        self.done + self.failed + self.cancelled
    }
}

/// First record of a compacted journal, standing for every record the
/// compaction dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Head {
    /// The next id to assign is at least this: ids are never reused,
    /// even when the highest one issued is no longer in the journal.
    pub floor: u64,
    /// Outcomes of the requests no longer in the journal.
    pub expired: Totals,
}

impl Typed for Head {
    const KIND: &'static str = "head";
}

impl Rows for Head {
    fn rows(&mut self, io: &mut Io<'_>) -> Option<()> {
        num(io, "floor", &mut self.floor)?;
        num(io, "done", &mut self.expired.done)?;
        num(io, "failed", &mut self.expired.failed)?;
        num(io, "cancelled", &mut self.expired.cancelled)?;
        // Written when some expired request was answered at admission
        // only: a head without one is the bytes it always was, and an
        // older head reads zero.
        if matches!(io, Io::Put(_)) && self.expired.answered == 0 {
            return Some(());
        }
        since(io, "answered", &mut self.expired.answered, num)
    }
}

/// One request as a compaction writes it back.
pub struct Kept<'a> {
    /// The request id.
    pub id: u64,
    /// The submitted spec.
    pub spec: &'a Value,
    /// Terminal kind and payload, when the request has closed.
    pub terminal: Option<(&'static str, &'a Value)>,
    /// Whether it was answered at admission.
    pub answered: bool,
}

/// Append-only writer over the journal file.
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// A journal at `<dir>/journal.jsonl` (directory created if needed).
    pub fn in_dir(dir: &Path) -> std::io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        Ok(Journal {
            path: dir.join(JOURNAL_FILE),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Record an admission. Must complete before the client is told
    /// "queued" — this write is the durability point of admission.
    pub fn submitted(&self, id: u64, spec: &Value, chaos: &Chaos) -> std::io::Result<()> {
        let spec = spec.clone();
        Chain::new(&self.path, chaos).append(Submitted { id, spec })
    }

    /// Record a terminal transition (`done`/`failed`/`cancelled`) with
    /// its kind-specific payload (result body or error string).
    pub fn terminal(
        &self,
        kind: &str,
        id: u64,
        payload: Value,
        chaos: &Chaos,
    ) -> std::io::Result<()> {
        debug_assert!(terminal_kind(kind).is_some());
        let answered = false;
        let closed = Closed {
            id,
            payload,
            answered,
        };
        Chain::new(&self.path, chaos).append_as(kind, closed)
    }

    /// Record the `done` of a request answered at admission.
    pub fn answered(&self, id: u64, payload: Value, chaos: &Chaos) -> std::io::Result<()> {
        let answered = true;
        let closed = Closed {
            id,
            payload,
            answered,
        };
        Chain::new(&self.path, chaos).append_as(K_DONE, closed)
    }

    /// Replace the journal by the [`compaction`] of `head` and `kept` and
    /// return how many lines that is. Write-new + rename
    /// ([`Chain::restart`]): a death part-way leaves the old journal
    /// whole. Like every journal write, the caller must be the only
    /// writer while this runs.
    pub fn compact<'a>(
        &self,
        head: Head,
        kept: impl IntoIterator<Item = Kept<'a>>,
        chaos: &Chaos,
    ) -> std::io::Result<usize> {
        let mut lines = 0;
        let records = compaction(head, kept).inspect(|_| lines += 1);
        Chain::new(&self.path, chaos).restart(records)?;
        Ok(lines)
    }
}

/// The records of a compacted journal: `head`, then each of `kept` as
/// the `submitted` and terminal records it was journaled with.
pub fn compaction<'a, K: IntoIterator<Item = Kept<'a>>>(
    head: Head,
    kept: K,
) -> impl Iterator<Item = Record> + use<'a, K> {
    let requests = kept.into_iter().flat_map(|k| {
        let spec = k.spec.clone();
        let submitted = Record::of(Submitted { id: k.id, spec });
        let closed = k.terminal.map(|(kind, payload)| Record {
            kind: kind.to_string(),
            body: body_of(Closed {
                id: k.id,
                payload: payload.clone(),
                answered: k.answered,
            }),
        });
        std::iter::once(submitted).chain(closed)
    });
    std::iter::once(Record::of(head)).chain(requests)
}

/// One request reconstructed from the journal.
#[derive(Clone, Debug)]
pub struct ReplayedRequest {
    /// The id assigned at original admission (preserved across restarts).
    pub id: u64,
    /// The submitted spec.
    pub spec: Value,
    /// Terminal kind if the request finished before the crash.
    pub terminal: Option<(&'static str, Value)>,
    /// Whether the terminal record says it was answered at admission.
    pub answered: bool,
}

impl ReplayedRequest {
    /// Still in flight at crash time — must be re-enqueued with resume.
    pub fn pending(&self) -> bool {
        self.terminal.is_none()
    }
}

/// Everything a journal says.
#[derive(Debug, Default)]
pub struct Replay {
    /// The `head` record of a compacted journal (zeros without one).
    pub head: Head,
    /// Every admitted request in admission order, with its terminal
    /// outcome when one was recorded.
    pub requests: Vec<ReplayedRequest>,
    /// The ids of the closed ones, in the order they closed.
    pub closed: Vec<u64>,
    /// Valid lines read.
    pub lines: usize,
}

impl Replay {
    /// Everything the valid prefix of the journal at `path` says.
    pub fn of(path: &Path) -> Replay {
        let mut replay = Replay::default();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        for rec in read_records(path) {
            replay.lines += 1;
            if let Some(Submitted { id, spec }) = rec.decode() {
                // A second `submitted` of one id (no daemon writes one)
                // is not a second request.
                by_id.entry(id).or_insert_with(|| {
                    replay.requests.push(ReplayedRequest {
                        id,
                        spec,
                        terminal: None,
                        answered: false,
                    });
                    replay.requests.len() - 1
                });
            } else if let Some(kind) = terminal_kind(&rec.kind) {
                let Some(closed) = read_body::<Closed>(&rec.body) else {
                    continue;
                };
                // Nor does a request close twice, or before it opened.
                let open = by_id.get(&closed.id).map(|&at| &mut replay.requests[at]);
                if let Some(request) = open.filter(|r| r.terminal.is_none()) {
                    request.terminal = Some((kind, closed.payload));
                    request.answered = closed.answered;
                    replay.closed.push(closed.id);
                }
            } else if let Some(head) = rec.decode::<Head>() {
                replay.head = head;
            }
        }
        replay
    }

    /// The next request id to assign: one past the highest in the
    /// journal, and never below the head record's floor.
    pub fn next_id(&self) -> u64 {
        let seen = self.requests.iter().map(|r| r.id + 1).max();
        seen.unwrap_or(1).max(self.head.floor)
    }
}

/// Replay the journal: every admitted request in admission order, with
/// its terminal outcome when one was recorded. Also returns the next
/// request id to assign ([`Replay::next_id`]).
pub fn replay(path: &Path) -> (Vec<ReplayedRequest>, u64) {
    let replay = Replay::of(path);
    let next_id = replay.next_id();
    (replay.requests, next_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("np-serve-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(tag: &str) -> Value {
        Value::Object(vec![("preset".to_string(), Value::Str(tag.to_string()))])
    }

    #[test]
    fn replay_classifies_pending_and_terminal() {
        let dir = tmp("classify");
        let j = Journal::in_dir(&dir).unwrap();
        let chaos = Chaos::disabled();
        j.submitted(1, &spec("a"), &chaos).unwrap();
        j.submitted(2, &spec("b"), &chaos).unwrap();
        j.submitted(3, &spec("c"), &chaos).unwrap();
        j.terminal(K_DONE, 1, Value::Str("plan".into()), &chaos)
            .unwrap();
        j.terminal(K_CANCELLED, 3, Value::Null, &chaos).unwrap();
        let (reqs, next_id) = replay(j.path());
        assert_eq!(next_id, 4);
        assert_eq!(reqs.len(), 3);
        assert!(!reqs[0].pending(), "done");
        assert!(reqs[1].pending(), "in flight at crash");
        assert_eq!(reqs[2].terminal.as_ref().unwrap().0, K_CANCELLED);
        assert_eq!(
            reqs[0].terminal.as_ref().unwrap().1.as_str(),
            Some("plan"),
            "terminal payload survives replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_like_a_checkpoint() {
        let dir = tmp("torn");
        let j = Journal::in_dir(&dir).unwrap();
        let chaos = Chaos::disabled();
        j.submitted(1, &spec("a"), &chaos).unwrap();
        j.terminal(K_DONE, 1, Value::Null, &chaos).unwrap();
        // Simulate a crash mid-append: garbage half-line at the tail.
        let mut text = std::fs::read_to_string(j.path()).unwrap();
        text.push_str("{\"sum\":\"0000\",\"rec\":{\"v\":1,\"ki");
        std::fs::write(j.path(), text).unwrap();
        let (reqs, next_id) = replay(j.path());
        assert_eq!(reqs.len(), 1);
        assert!(!reqs[0].pending());
        assert_eq!(next_id, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_replays_empty() {
        let dir = tmp("missing");
        let (reqs, next_id) = replay(&dir.join(JOURNAL_FILE));
        assert!(reqs.is_empty());
        assert_eq!(next_id, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ids_are_preserved_across_replay_generations() {
        let dir = tmp("generations");
        let chaos = Chaos::disabled();
        {
            let j = Journal::in_dir(&dir).unwrap();
            j.submitted(7, &spec("x"), &chaos).unwrap();
        }
        // "Restart": a new Journal over the same file appends more.
        let j = Journal::in_dir(&dir).unwrap();
        j.submitted(8, &spec("y"), &chaos).unwrap();
        let (reqs, next_id) = replay(j.path());
        assert_eq!(reqs.iter().map(|r| r.id).collect::<Vec<_>>(), vec![7, 8]);
        assert_eq!(next_id, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_compacted_journal_replays_to_what_was_kept_and_never_reuses_an_id() {
        let dir = tmp("compact");
        let j = Journal::in_dir(&dir).unwrap();
        let chaos = Chaos::disabled();
        for id in 1..=9 {
            j.submitted(id, &spec("x"), &chaos).unwrap();
        }
        j.answered(9, Value::Str("nine".into()), &chaos).unwrap();
        j.terminal(K_FAILED, 4, Value::Str("four".into()), &chaos)
            .unwrap();
        // Keep 4 (failed), 2 (pending) and an answered 6 that the old
        // journal never closed; ids up to 9 were issued.
        let head = Head {
            floor: 10,
            expired: Totals {
                done: 5,
                failed: 0,
                cancelled: 1,
                answered: 3,
            },
        };
        let (x, four, six) = (spec("x"), Value::Str("four".into()), Value::Null);
        let kept = |id, terminal, answered| Kept {
            id,
            spec: &x,
            terminal,
            answered,
        };
        let kept = [
            kept(4, Some((K_FAILED, &four)), false),
            kept(6, Some((K_DONE, &six)), true),
            kept(2, None, false),
        ];
        assert_eq!(j.compact(head, kept, &chaos).unwrap(), 6);
        let replay = Replay::of(j.path());
        assert_eq!(replay.head, head);
        assert_eq!(replay.lines, 6);
        assert_eq!(replay.next_id(), 10, "the floor, not one past id 6");
        assert_eq!(replay.closed, [4, 6], "in the order written");
        let seen: Vec<_> = (replay.requests.iter())
            .map(|r| (r.id, r.terminal.as_ref().map(|t| t.0), r.answered))
            .collect();
        let expected = [
            (4, Some(K_FAILED), false),
            (6, Some(K_DONE), true),
            (2, None, false),
        ];
        assert_eq!(seen, expected);
        // Appends go on after the rewrite as after any other record.
        j.terminal(K_CANCELLED, 2, Value::Null, &chaos).unwrap();
        let replay = Replay::of(j.path());
        assert_eq!(replay.closed, [4, 6, 2]);
        assert_eq!(replay.lines, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_request_neither_opens_nor_closes_twice() {
        let dir = tmp("twice");
        let j = Journal::in_dir(&dir).unwrap();
        let chaos = Chaos::disabled();
        j.terminal(K_DONE, 1, Value::Str("early".into()), &chaos)
            .unwrap();
        j.submitted(1, &spec("a"), &chaos).unwrap();
        j.submitted(1, &spec("b"), &chaos).unwrap();
        j.terminal(K_DONE, 1, Value::Str("first".into()), &chaos)
            .unwrap();
        j.terminal(K_FAILED, 1, Value::Str("second".into()), &chaos)
            .unwrap();
        let replay = Replay::of(j.path());
        assert_eq!(replay.closed, [1]);
        assert_eq!(replay.requests.len(), 1);
        let only = &replay.requests[0];
        assert_eq!(only.spec.get("preset").unwrap().as_str(), Some("a"));
        assert_eq!(only.terminal, Some((K_DONE, Value::Str("first".into()))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
