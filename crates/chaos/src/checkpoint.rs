//! The checkpoint substrate: versioned, checksummed JSONL records.
//!
//! A checkpoint file is a sequence of lines, each
//!
//! ```text
//! {"sum":"<fnv1a64 hex>","rec":{"v":1,"kind":"<kind>","body":{...}}}
//! ```
//!
//! where `sum` is the FNV-1a 64 checksum of the compact serialization of
//! `rec`. The vendored `serde_json` writer is canonical (re-serializing
//! a parsed value reproduces the text byte for byte), so the reader can
//! verify checksums without storing the raw text. [`read_records`] stops
//! at the first line that fails to parse, verify, or version-match —
//! a torn tail (killed process, injected truncation) silently drops the
//! incomplete record and resume falls back to the previous one.
//!
//! Because JSON numbers are `f64`, bit-exact `f64` payloads (parameters,
//! costs, RNG-adjacent state) travel as little-endian hex strings via
//! [`f64_to_hex`]/[`f64s_to_hex`] — the round trip is exact for every
//! value including negative zero and the full subnormal range.

use crate::{Chaos, FaultClass};
use serde_json::Value;
use std::io::Write;
use std::path::Path;

/// Version stamped into (and required of) every record.
pub const FORMAT_VERSION: u64 = 1;

/// FNV-1a 64-bit hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Digit value by ASCII code (either case), `0xff` for anything else.
const UNHEX: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut v = 0;
    while v < 16 {
        table[HEX[v] as usize] = v as u8;
        table[HEX[v].to_ascii_uppercase() as usize] = v as u8;
        v += 1;
    }
    table
};

/// One `f64` as 16 lowercase hex digits (little-endian bytes).
pub fn f64_to_hex(x: f64) -> String {
    f64s_to_hex(&[x])
}

/// Inverse of [`f64_to_hex`].
pub fn hex_to_f64(s: &str) -> Option<f64> {
    match hex_to_f64s(s)?.as_slice() {
        &[x] => Some(x),
        _ => None,
    }
}

/// A whole slice as one hex blob (16 digits per value). An agent's
/// learning state goes through here once per checkpointed epoch, so the
/// digits come from a table, not from a formatter call per byte.
pub fn f64s_to_hex(xs: &[f64]) -> String {
    let mut digits = Vec::with_capacity(16 * xs.len());
    for &x in xs {
        for b in x.to_le_bytes() {
            digits.push(HEX[usize::from(b >> 4)]);
            digits.push(HEX[usize::from(b & 0xf)]);
        }
    }
    String::from_utf8(digits).expect("hex digits are ASCII")
}

/// Inverse of [`f64s_to_hex`]: `None` unless `s` is whole 16-digit
/// groups of hex digits (either case) and nothing else.
pub fn hex_to_f64s(s: &str) -> Option<Vec<f64>> {
    if !s.len().is_multiple_of(16) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(16)
        .map(|group| {
            let mut bytes = [0u8; 8];
            for (b, pair) in bytes.iter_mut().zip(group.chunks_exact(2)) {
                let (hi, lo) = (UNHEX[usize::from(pair[0])], UNHEX[usize::from(pair[1])]);
                if hi | lo > 0xf {
                    return None;
                }
                *b = hi << 4 | lo;
            }
            Some(f64::from_le_bytes(bytes))
        })
        .collect()
}

/// One verified checkpoint record.
#[derive(Clone, Debug)]
pub struct Record {
    /// The record kind (e.g. `"epoch"`, `"first_stage"`, `"master"`).
    pub kind: String,
    /// The kind-specific payload.
    pub body: Value,
}

/// Append one record to `path` (created if missing) and flush it to the
/// OS. When the chaos plan's `truncate-checkpoint` trigger fires, only
/// the first half of the line is written (no newline) — a simulated torn
/// write that the reader must survive.
pub fn append_record(path: &Path, kind: &str, body: Value, chaos: &Chaos) -> std::io::Result<()> {
    let rec = Value::Object(vec![
        ("v".to_string(), Value::Num(FORMAT_VERSION as f64)),
        ("kind".to_string(), Value::Str(kind.to_string())),
        ("body".to_string(), body),
    ]);
    let payload = serde_json::to_string(&rec).expect("value serialization is infallible");
    let line = format!(
        "{{\"sum\":\"{:016x}\",\"rec\":{payload}}}\n",
        fnv1a64(payload.as_bytes())
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if chaos.should_fire(FaultClass::TruncateCheckpoint) {
        file.write_all(&line.as_bytes()[..line.len() / 2])?;
    } else {
        file.write_all(line.as_bytes())?;
    }
    file.flush()
}

/// Read every valid record of `path`, stopping at (and dropping) the
/// first invalid line. A missing file reads as no records.
pub fn read_records(path: &Path) -> Vec<Record> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(record) = verify_line(line) else {
            break;
        };
        out.push(record);
    }
    out
}

fn verify_line(line: &str) -> Option<Record> {
    let value: Value = serde_json::from_str(line).ok()?;
    let sum = u64::from_str_radix(value.get("sum")?.as_str()?, 16).ok()?;
    let rec = value.get("rec")?;
    let payload = serde_json::to_string(rec).ok()?;
    if fnv1a64(payload.as_bytes()) != sum {
        return None;
    }
    if rec.get("v")?.as_u64()? != FORMAT_VERSION {
        return None;
    }
    Some(Record {
        kind: rec.get("kind")?.as_str()?.to_string(),
        body: rec.get("body")?.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use serde_json::json;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("np-chaos-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    #[test]
    fn f64_hex_round_trip_is_bit_exact() {
        for x in [
            0.0,
            -0.0,
            1.5,
            -1.0 / 3.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MAX,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
        ] {
            let back = hex_to_f64(&f64_to_hex(x)).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x}");
        }
        let xs = vec![0.1, 0.2, -0.3, 1e300];
        let back = hex_to_f64s(&f64s_to_hex(&xs)).unwrap();
        assert_eq!(
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert!(hex_to_f64("zz").is_none());
        assert!(hex_to_f64s("0102").is_none(), "not a multiple of 8 bytes");
    }

    /// The formatter-per-byte encoder and `from_str_radix` decoder the
    /// table-driven ones replaced, kept as the reference they must match.
    fn reference_hex(xs: &[f64]) -> String {
        xs.iter()
            .flat_map(|x| x.to_le_bytes())
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    fn reference_unhex(s: &str) -> Option<Vec<f64>> {
        let bytes: Vec<u8> = (0..s.len() / 2)
            .map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok())
            .collect::<Option<_>>()?;
        s.len().is_multiple_of(16).then(|| {
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        })
    }

    #[test]
    fn table_driven_hex_matches_the_formatter_it_replaced() {
        let mut xs = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0, // subnormal
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::EPSILON,
        ];
        // Arbitrary bit patterns (xorshift64*), including signalling NaNs.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in [0usize, 1, 7, 64, 513] {
            for _ in 0..len {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                xs.push(f64::from_bits(state.wrapping_mul(0x2545_f491_4f6c_dd1d)));
            }
            let blob = f64s_to_hex(&xs);
            assert_eq!(blob, reference_hex(&xs));
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let want = reference_unhex(&blob).map(bits);
            assert_eq!(hex_to_f64s(&blob).map(bits), want);
            assert_eq!(hex_to_f64s(&blob.to_uppercase()).map(bits), want);
        }
        assert_eq!(f64_to_hex(1.5), reference_hex(&[1.5]));
        for bad in [
            "0",
            "zz",
            "0102",
            "00000000000000g0",
            "000000000000000é",
            "+f00000000000000",
        ] {
            assert!(hex_to_f64s(bad).is_none(), "{bad:?}");
            assert!(hex_to_f64(bad).is_none(), "{bad:?}");
        }
        assert!(
            hex_to_f64(&"0".repeat(32)).is_none(),
            "two values are not one"
        );
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = tmp("roundtrip");
        let chaos = Chaos::disabled();
        append_record(&path, "epoch", json!({"epoch": 0, "x": "aa"}), &chaos).unwrap();
        append_record(&path, "epoch", json!({"epoch": 1, "x": "bb"}), &chaos).unwrap();
        let recs = read_records(&path);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].kind, "epoch");
        assert_eq!(recs[1].body.get("epoch").unwrap().as_u64(), Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reads_as_empty() {
        assert!(read_records(Path::new("/nonexistent/np-ckpt")).is_empty());
    }

    #[test]
    fn corrupt_line_drops_the_tail() {
        let path = tmp("corrupt");
        let chaos = Chaos::disabled();
        for i in 0..3 {
            append_record(&path, "epoch", json!({ "epoch": i }), &chaos).unwrap();
        }
        // Flip one byte inside the second record's checksum region.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let off = lines[0].len() + 1 + lines[1].len() - 3;
        unsafe { text.as_bytes_mut()[off] = b'!' };
        std::fs::write(&path, &text).unwrap();
        let recs = read_records(&path);
        assert_eq!(recs.len(), 1, "records after the corrupt one are dropped");
        assert_eq!(recs[0].body.get("epoch").unwrap().as_u64(), Some(0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_truncation_tears_the_last_record() {
        let path = tmp("torn");
        let chaos = Chaos::new(FaultPlan::parse("truncate-checkpoint@2").unwrap());
        for i in 0..3 {
            append_record(&path, "epoch", json!({ "epoch": i }), &chaos).unwrap();
        }
        assert_eq!(chaos.fired(FaultClass::TruncateCheckpoint), 1);
        let recs = read_records(&path);
        assert_eq!(recs.len(), 2, "the torn third record is dropped");
        // Appending after a torn write corrupts from the tear onward but
        // never the records before it.
        append_record(&path, "epoch", json!({"epoch": 3}), &chaos).unwrap();
        assert_eq!(read_records(&path).len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let path = tmp("version");
        let payload = r#"{"v":999,"kind":"epoch","body":{}}"#;
        let line = format!(
            "{{\"sum\":\"{:016x}\",\"rec\":{payload}}}\n",
            fnv1a64(payload.as_bytes())
        );
        std::fs::write(&path, line).unwrap();
        assert!(read_records(&path).is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
