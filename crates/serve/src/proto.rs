//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Each frame is a 4-byte big-endian length followed by exactly that
//! many bytes of UTF-8 JSON. The prefix makes message boundaries
//! explicit — a reader never has to scan for delimiters inside JSON —
//! and lets the server reject oversized frames ([`MAX_FRAME`]) before
//! buffering them, so a hostile or broken client cannot balloon memory.
//!
//! The payloads themselves are a tiny op-keyed request/response scheme
//! (see [`crate::Server`] for the endpoint semantics): requests carry
//! `{"op": "...", ...}`, responses carry `{"ok": true/false, ...}` with
//! an HTTP-flavored `code` on failures (429 for load shedding).

use serde_json::Value;
use std::io::{Read, Write};

/// Upper bound on a single frame's payload, bytes. Generous for plan
/// specs and results, far below anything that could hurt the daemon.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Write one frame: 4-byte big-endian length, then the JSON bytes.
pub fn write_frame(w: &mut impl Write, v: &Value) -> std::io::Result<()> {
    let payload = serde_json::to_string(v).expect("value serialization is infallible");
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame. Errors on EOF mid-frame, an oversized length prefix,
/// or a payload that is not valid JSON.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Value> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
}

/// Build an object value from key/value pairs (insertion order kept).
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A successful response: `{"ok": true, ...fields}`.
pub fn ok(fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("ok", Value::Bool(true))];
    all.extend(fields);
    obj(all)
}

/// A failure response: `{"ok": false, "code": code, "error": msg}`.
pub fn err(code: u32, msg: &str) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        ("code", Value::Num(code as f64)),
        ("error", Value::Str(msg.to_string())),
    ])
}

/// HTTP-flavored status codes used on the wire.
pub mod code {
    /// Malformed request.
    pub const BAD_REQUEST: u32 = 400;
    /// A request id the daemon never issued.
    pub const NOT_FOUND: u32 = 404;
    /// Result asked for before the run finished.
    pub const NOT_READY: u32 = 409;
    /// The id was issued, but the request closed long enough ago to have
    /// left the daemon's retention window: its result has expired.
    pub const GONE: u32 = 410;
    /// Admission control shed the request (queue full).
    pub const OVERLOADED: u32 = 429;
    /// The daemon is shutting down.
    pub const SHUTTING_DOWN: u32 = 503;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let v = obj(vec![
            ("op", Value::Str("submit".into())),
            ("n", Value::Num(42.0)),
            (
                "nested",
                obj(vec![("deep", Value::Array(vec![Value::Bool(true)]))]),
            ),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &Value::Str("second".into())).unwrap();
        let mut r = std::io::Cursor::new(buf);
        let got = read_frame(&mut r).unwrap();
        assert_eq!(serde_json::to_string(&got), serde_json::to_string(&v));
        let got2 = read_frame(&mut r).unwrap();
        assert_eq!(got2.as_str(), Some("second"));
        // Stream exhausted: the next read is a clean error, not a hang.
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"junk");
        let e = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_frame_is_an_error_not_a_hang() {
        let v = Value::Str("x".repeat(100));
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn error_envelope_carries_the_code() {
        let e = err(code::OVERLOADED, "queue full");
        assert_eq!(e.get("ok").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(e.get("code").and_then(|v| v.as_u64()), Some(429));
        assert_eq!(e.get("error").and_then(|v| v.as_str()), Some("queue full"));
    }
}
