//! Write-ahead logging: the durability substrate a production storage
//! engine needs under any of the paper's layouts (the physical layout is a
//! *projection* of the logical history — which is exactly why responsive
//! engines can rewrite layouts freely as long as the log survives).
//!
//! Records are framed as `[len: u32][crc32: u32][payload]`; the CRC covers
//! the payload, so torn tails from a crash are detected and replay stops at
//! the last intact frame. Storage is pluggable: [`MemStorage`] (tests,
//! simulations) or [`FileStorage`] (a real append-only file).

use std::borrow::Cow;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use crate::obs::{self, Counter};
use crate::retry::{with_retry, BackoffClock, NoClock, RetryPolicy};
use crate::sync::Mutex;

use crate::error::{Error, Result};
use crate::schema::{Attribute, RelationId, RowId, Schema};
use crate::types::{DataType, Value};

/// The reflected CRC-32 (IEEE 802.3) polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC32_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through eight rounds of the polynomial, and
/// `CRC32_TABLES[k][b]` the same for `b` followed by `k` zero bytes, so
/// the checksum folds eight bytes per step with eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut round = 0;
        while round < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            round += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        crc = t[0][byte(crc ^ b as u32, 0)] ^ (crc >> 8);
    }
    !crc
}

/// One logical log record. An insert borrows its values when logged and
/// owns them when replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord<'a> {
    /// A relation was created with this schema.
    CreateRelation { rel: RelationId, schema: Schema },
    /// A record was inserted at `row`.
    Insert { rel: RelationId, row: RowId, values: Cow<'a, [Value]> },
    /// A field update by transaction `txn` (only redone if its
    /// [`LogRecord::Commit`] follows in the log).
    Update { rel: RelationId, row: RowId, attr: u16, value: Value, txn: u64 },
    /// A transaction commit boundary: all prior `Update`s of `txn` are
    /// atomic with it.
    Commit { txn: u64 },
    /// An autocommit field update: a one-write transaction in one frame,
    /// logged once the write is staged and before it commits. Replay redoes
    /// it at once; a torn frame is an update that was never acknowledged.
    AutocommitUpdate { rel: RelationId, row: RowId, attr: u16, value: Value },
}

// ---------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| Error::Internal("truncated log record".into()))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

fn encode_type(out: &mut Vec<u8>, ty: DataType) {
    match ty {
        DataType::Bool => out.push(0),
        DataType::Int32 => out.push(1),
        DataType::Int64 => out.push(2),
        DataType::Float64 => out.push(3),
        DataType::Date => out.push(4),
        DataType::Text(n) => {
            out.push(5);
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

fn decode_type(c: &mut Cursor<'_>) -> Result<DataType> {
    Ok(match c.take(1)?[0] {
        0 => DataType::Bool,
        1 => DataType::Int32,
        2 => DataType::Int64,
        3 => DataType::Float64,
        4 => DataType::Date,
        5 => DataType::Text(u16::from_le_bytes(c.take(2)?.try_into().unwrap())),
        t => return Err(Error::Internal(format!("unknown type tag {t}"))),
    })
}

/// The type a value is logged under: text carries its own length.
fn logged_type(v: &Value) -> DataType {
    match v {
        Value::Bool(_) => DataType::Bool,
        Value::Int32(_) => DataType::Int32,
        Value::Int64(_) => DataType::Int64,
        Value::Float64(_) => DataType::Float64,
        Value::Date(_) => DataType::Date,
        Value::Text(s) => DataType::Text(s.len().min(u16::MAX as usize) as u16),
    }
}

/// Bytes an encoded value takes at most: a type tag, a text length, the
/// field.
fn value_bound(v: &Value) -> usize {
    3 + logged_type(v).width()
}

fn encode_value(out: &mut Vec<u8>, v: &Value) -> Result<()> {
    let ty = logged_type(v);
    encode_type(out, ty);
    match v {
        Value::Bool(b) => out.push(*b as u8),
        Value::Int32(x) | Value::Date(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::Int64(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::Float64(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::Text(s) => {
            // A text longer than its `u16` length field cannot be logged.
            v.check(ty)?;
            out.extend_from_slice(s.as_bytes());
        }
    }
    Ok(())
}

fn decode_value(c: &mut Cursor<'_>) -> Result<Value> {
    let ty = decode_type(c)?;
    Ok(Value::decode(ty, c.take(ty.width())?))
}

impl LogRecord<'_> {
    /// Encode the record payload (without framing).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.payload_bound());
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// An upper bound on the payload's length, so a frame takes one
    /// allocation.
    fn payload_bound(&self) -> usize {
        match self {
            LogRecord::CreateRelation { schema, .. } => {
                9 + schema.attrs().iter().map(|a| 7 + a.name.len()).sum::<usize>()
            }
            LogRecord::Insert { values, .. } => 17 + values.iter().map(value_bound).sum::<usize>(),
            LogRecord::Update { value, .. } => 23 + value_bound(value),
            LogRecord::Commit { .. } => 9,
            LogRecord::AutocommitUpdate { value, .. } => 15 + value_bound(value),
        }
    }

    /// Append the record payload (without framing) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            LogRecord::CreateRelation { rel, schema } => {
                out.push(0);
                put_u32(out, *rel);
                put_u32(out, schema.arity() as u32);
                for a in schema.attrs() {
                    put_bytes(out, a.name.as_bytes());
                    encode_type(out, a.ty);
                }
            }
            LogRecord::Insert { rel, row, values } => {
                out.push(1);
                put_u32(out, *rel);
                put_u64(out, *row);
                put_u32(out, values.len() as u32);
                for v in values.iter() {
                    encode_value(out, v)?;
                }
            }
            LogRecord::Update { rel, row, attr, value, txn } => {
                out.push(2);
                put_u32(out, *rel);
                put_u64(out, *row);
                out.extend_from_slice(&attr.to_le_bytes());
                put_u64(out, *txn);
                encode_value(out, value)?;
            }
            LogRecord::Commit { txn } => {
                out.push(3);
                put_u64(out, *txn);
            }
            LogRecord::AutocommitUpdate { rel, row, attr, value } => {
                out.push(4);
                put_u32(out, *rel);
                put_u64(out, *row);
                out.extend_from_slice(&attr.to_le_bytes());
                encode_value(out, value)?;
            }
        }
        Ok(())
    }

    /// Decode a payload produced by [`LogRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<LogRecord<'static>> {
        let mut c = Cursor { data: payload, pos: 0 };
        let tag = c.take(1)?[0];
        Ok(match tag {
            0 => {
                let rel = c.u32()?;
                let n = c.u32()? as usize;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = String::from_utf8_lossy(c.bytes()?).into_owned();
                    let ty = decode_type(&mut c)?;
                    attrs.push(Attribute::new(name, ty));
                }
                LogRecord::CreateRelation { rel, schema: Schema::new(attrs) }
            }
            1 => {
                let rel = c.u32()?;
                let row = c.u64()?;
                let n = c.u32()? as usize;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(decode_value(&mut c)?);
                }
                LogRecord::Insert { rel, row, values: values.into() }
            }
            2 => {
                let rel = c.u32()?;
                let row = c.u64()?;
                let attr = u16::from_le_bytes(c.take(2)?.try_into().unwrap());
                let txn = c.u64()?;
                let value = decode_value(&mut c)?;
                LogRecord::Update { rel, row, attr, value, txn }
            }
            3 => LogRecord::Commit { txn: c.u64()? },
            4 => {
                let rel = c.u32()?;
                let row = c.u64()?;
                let attr = u16::from_le_bytes(c.take(2)?.try_into().unwrap());
                LogRecord::AutocommitUpdate { rel, row, attr, value: decode_value(&mut c)? }
            }
            t => return Err(Error::Internal(format!("unknown log tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------

/// Append-only byte storage behind the log.
///
/// `storage_len`/`truncate_to` exist so the log can *repair* a torn append
/// before retrying it: snapshot the length, and on a failed append cut the
/// storage back to it, discarding any partial frame the fault left behind.
pub trait LogStorage: Send {
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    fn read_all(&mut self) -> Result<Vec<u8>>;
    /// Current storage length in bytes.
    fn storage_len(&mut self) -> Result<u64>;
    /// Discard everything past `len` bytes.
    fn truncate_to(&mut self, len: u64) -> Result<()>;
}

/// In-memory storage (tests and simulations).
#[derive(Debug, Default)]
pub struct MemStorage {
    data: Vec<u8>,
}

impl MemStorage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Storage pre-loaded with raw log bytes (replay/truncation tests,
    /// snapshots shipped from elsewhere).
    pub fn from_bytes(data: Vec<u8>) -> Self {
        MemStorage { data }
    }

    /// Simulate a crash that tears the last `n` bytes off the log tail.
    pub fn tear_tail(&mut self, n: usize) {
        let keep = self.data.len().saturating_sub(n);
        self.data.truncate(keep);
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl LogStorage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.data.extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        Ok(self.data.clone())
    }

    fn storage_len(&mut self) -> Result<u64> {
        Ok(self.data.len() as u64)
    }

    fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.data.truncate(len as usize);
        Ok(())
    }
}

/// A real append-only file.
#[derive(Debug)]
pub struct FileStorage {
    file: std::fs::File,
}

impl FileStorage {
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::Internal(format!("open log: {e}")))?;
        Ok(FileStorage { file })
    }
}

impl LogStorage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file
            .write_all(bytes)
            .and_then(|_| self.file.sync_data())
            .map_err(|e| Error::Internal(format!("append log: {e}")))
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_to_end(&mut out))
            .map_err(|e| Error::Internal(format!("read log: {e}")))?;
        Ok(out)
    }

    fn storage_len(&mut self) -> Result<u64> {
        self.file.metadata().map(|m| m.len()).map_err(|e| Error::Internal(format!("stat log: {e}")))
    }

    fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.file
            .set_len(len)
            .and_then(|_| self.file.sync_data())
            .map_err(|e| Error::Internal(format!("truncate log: {e}")))
    }
}

// ---------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------

/// A write-ahead log over any [`LogStorage`].
///
/// Appends are retried on [transient](Error::is_transient) storage faults
/// under a [`RetryPolicy`]; before each retry, any torn prefix the failed
/// append left behind is truncated away so retries never stack garbage
/// mid-log. Backoff is virtual time, charged to the configured
/// [`BackoffClock`] (a device cost ledger in the simulations).
pub struct Wal<S: LogStorage> {
    storage: Mutex<S>,
    retry: RetryPolicy,
    clock: Option<Arc<dyn BackoffClock + Send + Sync>>,
    /// The `wal.appends` counter, resolved once.
    appends: Arc<Counter>,
}

impl<S: LogStorage> Wal<S> {
    pub fn new(storage: S) -> Self {
        Self::with_retry_policy(storage, RetryPolicy::default(), None)
    }

    /// A log with an explicit retry budget and backoff clock.
    pub fn with_retry_policy(
        storage: S,
        retry: RetryPolicy,
        clock: Option<Arc<dyn BackoffClock + Send + Sync>>,
    ) -> Self {
        let appends = obs::metrics().counter("wal.appends");
        Wal { storage: Mutex::new(storage), retry, clock, appends }
    }

    /// Append one record (framed + checksummed), durably.
    ///
    /// The frame is built in one buffer: the payload is encoded in place
    /// behind a header slot that then receives its length and CRC. On a
    /// transient storage fault, truncates any partial frame back off the
    /// log and retries under the configured policy.
    pub fn log(&self, record: &LogRecord) -> Result<()> {
        let mut span = obs::span("wal", "wal.append");
        let mut frame = Vec::with_capacity(8 + record.payload_bound());
        frame.extend_from_slice(&[0; 8]);
        record.encode_into(&mut frame)?;
        let (header, payload) = frame.split_at_mut(8);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        if span.is_recording() {
            span.arg("bytes", frame.len());
        }
        self.appends.inc();
        let mut storage = self.storage.lock();
        let start = storage.storage_len()?;
        let clock: &dyn BackoffClock = match &self.clock {
            Some(c) => c.as_ref(),
            None => &NoClock,
        };
        with_retry(&self.retry, &clock, || match storage.append(&frame) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Repair: cut any torn prefix so a retry starts clean.
                if storage.storage_len()? > start {
                    storage.truncate_to(start)?;
                }
                Err(e)
            }
        })
    }

    /// Replay every intact record in order. Stops (without error) at a torn
    /// or corrupt tail — the crash-recovery contract.
    pub fn replay(
        &self,
        mut apply: impl FnMut(LogRecord<'static>) -> Result<()>,
    ) -> Result<ReplayReport> {
        let mut span = obs::span("wal", "wal.replay");
        let data = self.storage.lock().read_all()?;
        let mut pos = 0usize;
        let mut report = ReplayReport::default();
        while pos + 8 <= data.len() {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            let start = pos + 8;
            let end = match start.checked_add(len) {
                Some(e) if e <= data.len() => e,
                _ => {
                    report.torn_tail = true;
                    break;
                }
            };
            let payload = &data[start..end];
            if crc32(payload) != crc {
                report.torn_tail = true;
                break;
            }
            apply(LogRecord::decode(payload)?)?;
            report.records += 1;
            pos = end;
        }
        // Fewer than 8 trailing bytes can't even hold a frame header —
        // that's a torn tail too, not clean EOF.
        if pos < data.len() {
            report.torn_tail = true;
        }
        if span.is_recording() {
            span.arg("records", report.records);
            span.arg("torn_tail", report.torn_tail);
        }
        obs::metrics().counter("wal.replays").inc();
        Ok(report)
    }

    /// Access the underlying storage (e.g. to tear the tail in tests).
    pub fn storage(&self) -> &Mutex<S> {
        &self.storage
    }
}

/// Object-safe logging facade, so engines can hold `Arc<dyn WalSink>`
/// without becoming generic over the storage backend.
pub trait WalSink: Send + Sync {
    fn log(&self, record: &LogRecord) -> Result<()>;
}

impl<S: LogStorage> WalSink for Wal<S> {
    fn log(&self, record: &LogRecord) -> Result<()> {
        Wal::log(self, record)
    }
}

/// Outcome of a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Intact records applied.
    pub records: u64,
    /// Whether a torn/corrupt tail was detected (and skipped).
    pub torn_tail: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LogRecord<'static>> {
        let schema = Schema::of(&[("k", DataType::Int64), ("t", DataType::Text(5))]);
        vec![
            LogRecord::CreateRelation { rel: 0, schema },
            LogRecord::Insert {
                rel: 0,
                row: 0,
                values: vec![Value::Int64(7), Value::Text("abc".into())].into(),
            },
            LogRecord::Update { rel: 0, row: 0, attr: 0, value: Value::Int64(-1), txn: 42 },
            LogRecord::Commit { txn: 42 },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for rec in sample_records() {
            let payload = rec.encode().unwrap();
            assert_eq!(LogRecord::decode(&payload).unwrap(), rec);
        }
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" → 0xCBF43926 (the classic check value).
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC-32 definition, one bit at a time: the reference the tables
    /// must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn table_crc_matches_the_bitwise_reference() {
        crate::prng::check_cases(
            "table_crc_matches_the_bitwise_reference",
            256,
            0x0C3C,
            |_, rng| {
                let len = rng.gen_range(0usize..300);
                let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                // Every alignment of the 8-byte steps against the tail.
                for start in 0..payload.len().min(9) {
                    assert_eq!(crc32(&payload[start..]), crc32_bitwise(&payload[start..]));
                }
            },
        );
    }

    /// One record of each kind, and the frame the bitwise-CRC encoder that
    /// preceded the in-place one wrote for it (hex); the autocommit update,
    /// which came later, is pinned to a frame built by hand from the format
    /// (a CRC-32 of the payload from a reference implementation). Logs
    /// written by either encoder replay under the other.
    fn golden_frames() -> Vec<(LogRecord<'static>, &'static str)> {
        let schema = Schema::of(&[
            ("flag", DataType::Bool),
            ("qty", DataType::Int32),
            ("id", DataType::Int64),
            ("price", DataType::Float64),
            ("since", DataType::Date),
            ("name", DataType::Text(5)),
        ]);
        let values = vec![
            Value::Bool(true),
            Value::Int32(-2),
            Value::Int64(1 << 40),
            Value::Float64(-0.5),
            Value::Date(19723),
            Value::Text("tuple".into()),
            Value::Text(String::new()),
        ];
        vec![
            (
                LogRecord::CreateRelation { rel: 3, schema },
                "400000005a52293f00030000000600000004000000666c61670003000000717479010200\
                 0000696402050000007072696365030500000073696e636504040000006e616d65050500",
            ),
            (
                LogRecord::Insert { rel: 3, row: 41, values: values.into() },
                "3a0000008a60d4460103000000290000000000000007000000000101feffffff020000\
                 00000001000003000000000000e0bf040b4d00000505007475706c65050000",
            ),
            (
                LogRecord::Update { rel: 3, row: 41, attr: 5, value: "ab".into(), txn: 9 },
                "1c00000070ac01a002030000002900000000000000050009000000000000000502006162",
            ),
            (LogRecord::Commit { txn: 9 }, "090000004033cbc0030900000000000000"),
            (
                LogRecord::AutocommitUpdate {
                    rel: 3,
                    row: 41,
                    attr: 3,
                    value: Value::Float64(-0.5),
                },
                "18000000be812ae104030000002900000000000000030003000000000000e0bf",
            ),
        ]
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn frames_are_byte_identical_to_the_golden_log() {
        let mut log = Vec::new();
        for (record, hex) in golden_frames() {
            let wal = Wal::new(MemStorage::new());
            wal.log(&record).unwrap();
            let frame = wal.storage().lock().read_all().unwrap();
            assert_eq!(frame, unhex(hex), "frame of {record:?}");
            log.extend_from_slice(&frame);
        }
        let wal = Wal::new(MemStorage::from_bytes(log));
        let mut seen = Vec::new();
        let report = wal
            .replay(|r| {
                seen.push(r);
                Ok(())
            })
            .unwrap();
        assert_eq!(report, ReplayReport { records: 5, torn_tail: false });
        assert_eq!(seen, golden_frames().into_iter().map(|(r, _)| r).collect::<Vec<_>>());
    }

    #[test]
    fn log_and_replay_in_order() {
        let wal = Wal::new(MemStorage::new());
        for rec in sample_records() {
            wal.log(&rec).unwrap();
        }
        let mut seen = Vec::new();
        let report = wal
            .replay(|r| {
                seen.push(r);
                Ok(())
            })
            .unwrap();
        assert_eq!(report.records, 4);
        assert!(!report.torn_tail);
        assert_eq!(seen, sample_records());
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let wal = Wal::new(MemStorage::new());
        for rec in sample_records() {
            wal.log(&rec).unwrap();
        }
        wal.storage().lock().tear_tail(3); // rip into the last frame
        let mut seen = 0;
        let report = wal
            .replay(|_| {
                seen += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(report.records, 3);
        assert!(report.torn_tail);
        assert_eq!(seen, 3);
    }

    #[test]
    fn corrupt_payload_detected_by_crc() {
        let wal = Wal::new(MemStorage::new());
        wal.log(&LogRecord::Commit { txn: 1 }).unwrap();
        wal.log(&LogRecord::Commit { txn: 2 }).unwrap();
        {
            let mut st = wal.storage().lock();
            // Flip a byte inside the second frame's payload.
            let n = st.len();
            st.data[n - 1] ^= 0xFF;
        }
        let report = wal.replay(|_| Ok(())).unwrap();
        assert_eq!(report.records, 1);
        assert!(report.torn_tail);
    }

    #[test]
    fn header_fragment_is_a_torn_tail() {
        let wal = Wal::new(MemStorage::new());
        wal.log(&LogRecord::Commit { txn: 1 }).unwrap();
        // A crash mid-header leaves fewer than 8 stray bytes.
        wal.storage().lock().data.extend_from_slice(&[1, 2, 3]);
        let report = wal.replay(|_| Ok(())).unwrap();
        assert_eq!(report.records, 1);
        assert!(report.torn_tail, "stray <8-byte tail must be flagged");
    }

    /// Storage that fails (optionally tearing a prefix in) the first N
    /// appends, then behaves.
    struct FlakyStorage {
        inner: MemStorage,
        failures_left: u32,
        tear: bool,
    }

    impl LogStorage for FlakyStorage {
        fn append(&mut self, bytes: &[u8]) -> Result<()> {
            if self.failures_left > 0 {
                self.failures_left -= 1;
                if self.tear {
                    self.inner.append(&bytes[..bytes.len() / 2])?;
                }
                return Err(Error::Transient { site: "test", fault: "flake" });
            }
            self.inner.append(bytes)
        }

        fn read_all(&mut self) -> Result<Vec<u8>> {
            self.inner.read_all()
        }

        fn storage_len(&mut self) -> Result<u64> {
            self.inner.storage_len()
        }

        fn truncate_to(&mut self, len: u64) -> Result<()> {
            self.inner.truncate_to(len)
        }
    }

    #[test]
    fn torn_appends_are_repaired_and_retried() {
        let wal = Wal::new(FlakyStorage { inner: MemStorage::new(), failures_left: 2, tear: true });
        for rec in sample_records() {
            wal.log(&rec).unwrap();
        }
        let mut seen = Vec::new();
        let report = wal
            .replay(|r| {
                seen.push(r);
                Ok(())
            })
            .unwrap();
        assert_eq!(report.records, 4, "torn prefixes must not survive the retry");
        assert!(!report.torn_tail);
        assert_eq!(seen, sample_records());
    }

    #[test]
    fn retry_budget_exhaustion_leaves_clean_log() {
        let wal = Wal::new(FlakyStorage {
            inner: MemStorage::new(),
            failures_left: 100, // more than any budget
            tear: true,
        });
        wal.log(&LogRecord::Commit { txn: 7 }).unwrap_err();
        // The failed append must not have left garbage behind.
        let report = wal.replay(|_| Ok(())).unwrap();
        assert_eq!(report.records, 0);
        assert!(!report.torn_tail);
    }

    #[test]
    fn file_storage_roundtrip() {
        let path = std::env::temp_dir().join(format!("htapg-wal-test-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::new(FileStorage::open(&path).unwrap());
            for rec in sample_records() {
                wal.log(&rec).unwrap();
            }
        }
        // Re-open and replay: durability across "process restart".
        let wal = Wal::new(FileStorage::open(&path).unwrap());
        let mut seen = Vec::new();
        wal.replay(|r| {
            seen.push(r);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, sample_records());
        std::fs::remove_file(&path).unwrap();
    }
}
