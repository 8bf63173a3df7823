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

use np_chaos::checkpoint::{json, num, read_body, read_records, Chain};
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
}

record! { Closed {
    num "id" => id,
    json "payload" => payload,
}}

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
        debug_assert!(matches!(kind, K_DONE | K_FAILED | K_CANCELLED));
        Chain::new(&self.path, chaos).append_as(kind, Closed { id, payload })
    }
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
}

impl ReplayedRequest {
    /// Still in flight at crash time — must be re-enqueued with resume.
    pub fn pending(&self) -> bool {
        self.terminal.is_none()
    }
}

/// Replay the journal: every admitted request in admission order, with
/// its terminal outcome when one was recorded. Also returns the next
/// request id to assign (one past the highest seen).
pub fn replay(path: &Path) -> (Vec<ReplayedRequest>, u64) {
    let mut order: Vec<u64> = Vec::new();
    let mut by_id: HashMap<u64, ReplayedRequest> = HashMap::new();
    for rec in read_records(path) {
        if let Some(Submitted { id, spec }) = rec.decode() {
            let terminal = None;
            if by_id
                .insert(id, ReplayedRequest { id, spec, terminal })
                .is_none()
            {
                order.push(id);
            }
        } else if let Some(kind) = [K_DONE, K_FAILED, K_CANCELLED]
            .into_iter()
            .find(|k| *k == rec.kind)
        {
            if let Some(Closed { id, payload }) = read_body(&rec.body) {
                if let Some(req) = by_id.get_mut(&id) {
                    req.terminal = Some((kind, payload));
                }
            }
        }
    }
    let next_id = order.iter().max().map_or(1, |m| m + 1);
    let requests = order
        .into_iter()
        .filter_map(|id| by_id.remove(&id))
        .collect();
    (requests, next_id)
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
}
