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
pub use serde_json::Value;
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

/// One verified record of a chain, its body still untyped.
#[derive(Clone, Debug)]
pub struct Record {
    /// The record kind (e.g. `"epoch"`, `"first_stage"`, `"master"`).
    pub kind: String,
    /// The kind-specific payload.
    pub body: Value,
}

impl Record {
    /// `rec` as it goes to disk.
    pub fn of<R: Typed>(rec: R) -> Record {
        Record {
            kind: R::KIND.to_string(),
            body: body_of(rec),
        }
    }

    /// Whether this is a record of `R`'s kind.
    pub fn is<R: Typed>(&self) -> bool {
        self.kind == R::KIND
    }

    /// The typed record, when the kind is `R`'s and every row reads back.
    pub fn decode<R: Typed>(&self) -> Option<R> {
        self.is::<R>().then(|| read_body(&self.body))?
    }
}

/// A record body on its way out or in. A record lists its rows once
/// ([`Rows::rows`]); the same pass writes them or reads them back.
pub enum Io<'a> {
    /// Writing: the members so far, in wire order.
    Put(&'a mut Vec<(String, Value)>),
    /// Reading from this body.
    Take(&'a Value),
}

impl Io<'_> {
    /// One row. Writing appends member `key` = `enc(x)`; reading sets `x`
    /// to `dec` of that member, and a missing or misshapen member
    /// refuses the whole record — a reader ignores what it cannot fully
    /// trust.
    pub fn row<T>(
        &mut self,
        key: &str,
        x: &mut T,
        enc: impl FnOnce(&mut T) -> Value,
        dec: impl FnOnce(&Value) -> Option<T>,
    ) -> Option<()> {
        match self {
            Io::Put(out) => out.push((key.to_string(), enc(x))),
            Io::Take(body) => *x = dec(body.get(key)?)?,
        }
        Some(())
    }
}

/// A struct that travels as a record body: the one place its wire keys
/// and codecs are written.
pub trait Rows: Default {
    /// Every wired field as `codec(io, "key", &mut self.field)?`, in wire
    /// order ([`record!`](crate::record) writes it from a table). Reading
    /// starts from `Self::default()`.
    fn rows(&mut self, io: &mut Io<'_>) -> Option<()>;
}

/// [`Rows`] that are the whole body of one record kind.
pub trait Typed: Rows {
    /// The `kind` member of the record.
    const KIND: &'static str;
}

/// A record's rows as a table — `codec "wire key" => field,` (or
/// `codec(inner) "wire key" => field,`) in wire order — from which both
/// its encoder and its decoder come. `= "kind"` makes it [`Typed`].
#[macro_export]
macro_rules! record {
    ($ty:ty $(= $kind:literal)? { $($codec:ident $(($inner:ident))? $key:literal => $($field:ident).+,)* }) => {
        $(impl $crate::checkpoint::Typed for $ty {
            const KIND: &'static str = $kind;
        })?

        impl $crate::checkpoint::Rows for $ty {
            fn rows(&mut self, io: &mut $crate::checkpoint::Io<'_>) -> Option<()> {
                $($codec(io, $key, &mut self.$($field).+ $(, $inner)?)?;)*
                Some(())
            }
        }
    };
}

/// The body `rec` writes. Text and JSON fields are moved out of it.
pub fn body_of(mut rec: impl Rows) -> Value {
    let mut members = Vec::new();
    rec.rows(&mut Io::Put(&mut members))
        .expect("writing a row cannot fail");
    Value::Object(members)
}

/// The `R` that `body` holds, unless some row does not read back.
pub fn read_body<R: Rows>(body: &Value) -> Option<R> {
    let mut rec = R::default();
    rec.rows(&mut Io::Take(body))?;
    Some(rec)
}

/// Row codec: a small unsigned counter as a plain JSON number.
pub fn num<T: Copy + TryInto<u64> + TryFrom<u64>>(
    io: &mut Io<'_>,
    key: &str,
    x: &mut T,
) -> Option<()> {
    let enc = |x: &mut T| Value::Num((*x).try_into().unwrap_or(u64::MAX) as f64);
    io.row(key, x, enc, |v| T::try_from(v.as_u64()?).ok())
}

/// Row codec: an `f64` that must survive bit-exactly, as [`f64_to_hex`].
pub fn hex(io: &mut Io<'_>, key: &str, x: &mut f64) -> Option<()> {
    io.row(
        key,
        x,
        |x| Value::Str(f64_to_hex(*x)),
        |v| hex_to_f64(v.as_str()?),
    )
}

/// Row codec: a string.
pub fn text(io: &mut Io<'_>, key: &str, x: &mut String) -> Option<()> {
    let dec = |v: &Value| Some(v.as_str()?.to_string());
    io.row(key, x, |x| Value::Str(std::mem::take(x)), dec)
}

/// Row codec: any JSON value.
pub fn json(io: &mut Io<'_>, key: &str, x: &mut Value) -> Option<()> {
    io.row(key, x, std::mem::take, |v| Some(v.clone()))
}

/// Row codec: a `bool` as `0`/`1`.
pub fn flag(io: &mut Io<'_>, key: &str, x: &mut bool) -> Option<()> {
    let enc = |x: &mut bool| Value::Num(f64::from(u8::from(*x)));
    io.row(key, x, enc, |v| Some(v.as_u64()? != 0))
}

/// Row codec: units per link as an array of numbers.
pub fn units(io: &mut Io<'_>, key: &str, x: &mut Vec<u32>) -> Option<()> {
    let enc =
        |x: &mut Vec<u32>| Value::Array(x.iter().map(|&u| Value::Num(f64::from(u))).collect());
    let unit = |v: &Value| u32::try_from(v.as_u64()?).ok();
    io.row(key, x, enc, |v| v.as_array()?.iter().map(unit).collect())
}

/// Row codec: `null` for `None`, otherwise what `some` writes.
pub fn nullable<T: Default>(
    io: &mut Io<'_>,
    key: &str,
    x: &mut Option<T>,
    some: fn(&mut Io<'_>, &str, &mut T) -> Option<()>,
) -> Option<()> {
    match (&mut *io, x.as_mut()) {
        (Io::Put(out), None) => out.push((key.to_string(), Value::Null)),
        (Io::Put(_), Some(inner)) => some(io, key, inner)?,
        (Io::Take(body), _) => {
            *x = None;
            if !body.get(key)?.is_null() {
                some(io, key, x.insert(T::default()))?;
            }
        }
    }
    Some(())
}

/// Row codec for a member older writers did not write: always written,
/// and when it is absent (or unreadable) `x` keeps the value it has.
pub fn since<T>(
    io: &mut Io<'_>,
    key: &str,
    x: &mut T,
    codec: fn(&mut Io<'_>, &str, &mut T) -> Option<()>,
) -> Option<()> {
    match io {
        Io::Put(_) => codec(io, key, x),
        Io::Take(_) => codec(io, key, x).or(Some(())),
    }
}

/// One chain file and the fault plan its writes consult: the handle
/// every reader and writer of a chain goes through.
#[derive(Clone, Copy)]
pub struct Chain<'a> {
    path: &'a Path,
    chaos: &'a Chaos,
}

impl<'a> Chain<'a> {
    /// The chain at `path`.
    pub fn new(path: &'a Path, chaos: &'a Chaos) -> Self {
        Chain { path, chaos }
    }

    /// The chain file.
    pub fn path(&self) -> &'a Path {
        self.path
    }

    /// [`read_records`] of this chain.
    pub fn read(&self) -> Vec<Record> {
        read_records(self.path)
    }

    /// Append one typed record ([`append_record`]).
    pub fn append<R: Typed>(&self, rec: R) -> std::io::Result<()> {
        self.append_as(R::KIND, rec)
    }

    /// Append `rec` under a kind chosen at run time, for a layout that
    /// several kinds share.
    pub fn append_as(&self, kind: &str, rec: impl Rows) -> std::io::Result<()> {
        append_record(self.path, kind, body_of(rec), self.chaos)
    }

    /// Replace the chain by `records`, each the line [`append_record`]
    /// writes (and one `truncate-checkpoint` draw each), through one
    /// handle. The new chain is written beside the old one and renamed
    /// over it, so a death part-way leaves the old chain whole.
    pub fn restart(&self, records: impl IntoIterator<Item = Record>) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut next = self.path.as_os_str().to_owned();
        next.push(".next");
        let next = Path::new(&next);
        // Truncates what a restart that died here left behind.
        let mut file = std::io::BufWriter::with_capacity(1 << 16, std::fs::File::create(next)?);
        for r in records {
            write_record(&mut file, &r.kind, r.body, self.chaos)?;
        }
        file.flush()?;
        drop(file);
        std::fs::rename(next, self.path)
    }

    /// Cut the chain back to its valid records when bytes follow them (a
    /// writer that died mid-append). The next append would otherwise be
    /// glued onto those bytes, and it and every record after it would be
    /// dropped by the next read. A chain that is nothing but valid
    /// records, one per line, is not touched; a cut is a [`Chain::restart`].
    pub fn cut_torn_tail(&self) -> std::io::Result<()> {
        let records = self.read();
        let bytes = std::fs::read(self.path).unwrap_or_default();
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        if lines == records.len() && bytes.last().is_none_or(|&b| b == b'\n') {
            return Ok(());
        }
        self.restart(records)
    }
}

/// One record as its line, or as the torn half of it when the chaos
/// plan's `truncate-checkpoint` trigger fires.
fn write_record(
    out: &mut impl Write,
    kind: &str,
    body: Value,
    chaos: &Chaos,
) -> std::io::Result<()> {
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
    if chaos.should_fire(FaultClass::TruncateCheckpoint) {
        out.write_all(&line.as_bytes()[..line.len() / 2])
    } else {
        out.write_all(line.as_bytes())
    }
}

/// Append one record to `path` (created if missing) and flush it to the
/// OS. When the chaos plan's `truncate-checkpoint` trigger fires, only
/// the first half of the line is written (no newline) — a simulated torn
/// write that the reader must survive.
pub fn append_record(path: &Path, kind: &str, body: Value, chaos: &Chaos) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    write_record(&mut file, kind, body, chaos)?;
    file.flush()
}

/// Read every valid record of `path`, stopping at (and dropping) the
/// first invalid line. Bytes that are not UTF-8 damage their own line
/// only — they read as U+FFFD, which no checksum covers — so the records
/// before it survive. A missing file reads as no records.
pub fn read_records(path: &Path) -> Vec<Record> {
    let bytes = std::fs::read(path).unwrap_or_default();
    let text = String::from_utf8_lossy(&bytes);
    text.lines().map_while(verify_line).collect()
}

fn verify_line(line: &str) -> Option<Record> {
    let value: Value = serde_json::from_str(line).ok()?;
    let rec = value.get("rec")?;
    let payload = serde_json::to_string(rec).ok()?;
    // The writer's digits exactly: no other spelling of the sum passes.
    if value.get("sum")?.as_str()? != format!("{:016x}", fnv1a64(payload.as_bytes())) {
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
    fn a_restart_that_dies_part_way_leaves_the_old_chain_whole() {
        let path = tmp("restart");
        let chaos = Chaos::disabled();
        let chain = Chain::new(&path, &chaos);
        for i in 0..3 {
            append_record(&path, "epoch", json!({ "epoch": i }), &chaos).unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let died = std::panic::catch_unwind(|| {
            let records = chain.read().into_iter().enumerate();
            chain.restart(records.map(|(i, r)| {
                assert!(i < 2, "killed while rewriting record {i}");
                r
            }))
        });
        assert!(died.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before, "nothing lost");
        // The next restart starts over what the dead one left behind.
        chain.restart(chain.read().into_iter().skip(1)).unwrap();
        let kept = chain.read();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].body.get("epoch").unwrap().as_u64(), Some(1));
        assert!(!path.with_extension("next").exists(), "renamed into place");
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
