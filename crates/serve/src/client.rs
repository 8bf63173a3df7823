//! A blocking client for the np-serve protocol.
//!
//! One [`Client`] wraps one TCP connection; every method is a single
//! request/response frame exchange. The daemon keeps request state
//! server-side (journal-backed), so a client may disconnect, crash, or
//! reconnect from a different process and still poll its request by id
//! — within the retention window: the daemon keeps every request in
//! flight and the newest 1024 closed ones per lane, and answers an older
//! id with a `410` envelope ("expired").

use crate::proto;
use serde_json::Value;
use std::io::{Error, ErrorKind, Result};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A connected protocol client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a daemon at `addr` (e.g. `127.0.0.1:4810`).
    pub fn connect(addr: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// One frame out, one frame in.
    pub fn call(&mut self, req: &Value) -> Result<Value> {
        proto::write_frame(&mut self.stream, req)?;
        proto::read_frame(&mut self.stream)
    }

    /// Submit a plan request. On admission returns the assigned id and
    /// its `state`: `queued`, or `done` when the daemon answered it at
    /// admission and `result` is ready. A 429 (load shed) or 503 (shutting down) comes back as the
    /// error-envelope `Value`, not an `Err` — inspect `ok`/`code`.
    pub fn submit(&mut self, spec: &Value) -> Result<Value> {
        self.call(&proto::obj(vec![
            ("op", Value::Str("submit".into())),
            ("spec", spec.clone()),
        ]))
    }

    /// Current lifecycle state of a request.
    pub fn status(&mut self, id: u64) -> Result<Value> {
        self.call(&proto::obj(vec![
            ("op", Value::Str("status".into())),
            ("id", Value::Num(id as f64)),
        ]))
    }

    /// Fetch the outcome of a finished request.
    pub fn result(&mut self, id: u64) -> Result<Value> {
        self.call(&proto::obj(vec![
            ("op", Value::Str("result".into())),
            ("id", Value::Num(id as f64)),
        ]))
    }

    /// Request cancellation (cooperative; takes effect at the run's
    /// next stage boundary).
    pub fn cancel(&mut self, id: u64) -> Result<Value> {
        self.call(&proto::obj(vec![
            ("op", Value::Str("cancel".into())),
            ("id", Value::Num(id as f64)),
        ]))
    }

    /// Daemon counters: queue depth, workers, cache hits, outcomes.
    pub fn stats(&mut self) -> Result<Value> {
        self.call(&proto::obj(vec![("op", Value::Str("stats".into()))]))
    }

    /// Ask the daemon to shut down (acked, then the connection closes).
    pub fn shutdown(&mut self) -> Result<Value> {
        self.call(&proto::obj(vec![("op", Value::Str("shutdown".into()))]))
    }

    /// The outcome of the request a `submit` reply admitted: its
    /// `result` frame, fetched at once when the reply already says it
    /// closed (answered at admission: two frames in all, no `status`),
    /// after [`Client::wait`] otherwise. A reply that admitted nothing
    /// comes back as it is.
    pub fn outcome(&mut self, submitted: &Value, timeout: Duration) -> Result<Value> {
        match submit_id(submitted) {
            None => Ok(submitted.clone()),
            Some(id) if closed(submitted) => self.result(id),
            Some(id) => self.wait(id, timeout),
        }
    }

    /// Poll `status` until the request reaches a terminal state, then
    /// return `result`. Polling interval grows 10ms → 200ms. A `status`
    /// the daemon refuses (`404`, or `410` for an id that has expired)
    /// ends the wait with that envelope.
    pub fn wait(&mut self, id: u64, timeout: Duration) -> Result<Value> {
        let deadline = Instant::now() + timeout;
        let mut pause = Duration::from_millis(10);
        loop {
            let status = self.status(id)?;
            if closed(&status) {
                return self.result(id);
            }
            if status.get("ok").and_then(|v| v.as_bool()) != Some(true) {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                let state = status.get("state").and_then(|v| v.as_str()).unwrap_or("");
                return Err(Error::new(
                    ErrorKind::TimedOut,
                    format!("request {id} still `{state}` after {timeout:?}"),
                ));
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(200));
        }
    }
}

/// Whether a `submit` or `status` reply reports a terminal state.
fn closed(reply: &Value) -> bool {
    let state = reply.get("state").and_then(|v| v.as_str());
    matches!(state, Some("done" | "failed" | "cancelled"))
}

/// Extract `id` from a successful submit reply.
pub fn submit_id(reply: &Value) -> Option<u64> {
    if reply.get("ok")?.as_bool()? {
        reply.get("id")?.as_u64()
    } else {
        None
    }
}
