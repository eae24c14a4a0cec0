//! A write-ahead log with CRC-protected records, held as frames.
//!
//! Every data-lake mutation is first appended here. The log is a sequence
//! of frames, one per record, each in an allocation of exactly its length
//! behind an `Arc`. A frame is `len u32 ‖ crc u32 ‖ seq u64 ‖ key u128 ‖
//! op u8 ‖ payload`, integers little-endian. `len` counts the bytes after
//! `crc`, and `crc` (CRC-32/ISO-HDLC, implemented below) covers exactly
//! those bytes. Laid end to end, the frames are byte for byte the log an
//! on-disk WAL would hold, and a byte offset into the log is the sum of
//! the lengths of the frames before it. Replay detects torn or corrupted
//! tails exactly like an on-disk WAL would — the log itself lives in
//! memory because the platform is a simulation.
//!
//! The log is also the store: [`WriteAheadLog::append_shared`] hands back
//! a [`SharedBytes`] view of the payload inside the new frame, and the
//! data lake keeps that view as the version's bytes, so each stored byte
//! is held once.

use std::sync::Arc;

/// Bytes of a record body before its payload: `seq`, `key` and `op`.
pub(crate) const HEADER_LEN: usize = 8 + 16 + 1;

/// Bytes of a frame before its payload: `len`, `crc` and the body header.
const PAYLOAD_OFFSET: usize = 8 + HEADER_LEN;

/// CRC-32/ISO-HDLC (reflected polynomial 0xEDB88320) of each byte value,
/// built at compile time by the bitwise definition.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the register contribution
/// of byte value `b` followed by `k` zero bytes, so eight bytes fold in
/// with eight independent lookups. Built at compile time from
/// [`CRC_TABLE`], which is `CRC_TABLES[0]`.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = CRC_TABLE;
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ CRC_TABLE[(prev & 0xff) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// `table`'s entry for `byte`, which is always below the table's length.
fn entry(table: &[u32; 256], byte: u8) -> u32 {
    table[usize::from(byte)] // hc-lint: allow(panic-index)
}

/// Folds `data` into a running (pre-inverted) CRC-32 register, eight
/// bytes per step.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let (words, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let [r0, r1, r2, r3] = crc.to_le_bytes();
        crc = entry(t7, b0 ^ r0)
            ^ entry(t6, b1 ^ r1)
            ^ entry(t5, b2 ^ r2)
            ^ entry(t4, b3 ^ r3)
            ^ entry(t3, b4)
            ^ entry(t2, b5)
            ^ entry(t1, b6)
            ^ entry(t0, b7);
    }
    for &byte in tail {
        crc = (crc >> 8) ^ entry(t0, crc as u8 ^ byte);
    }
    crc
}

/// CRC-32 (ISO-HDLC polynomial 0xEDB88320), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// The operation a WAL record describes; the discriminant is the
/// record's op byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalOp {
    /// A value was written.
    Put = 0,
    /// A value was tombstoned.
    Delete = 1,
    /// A tombstoned value was physically purged.
    Purge = 2,
}

/// One durable log record: its payload owned, as [`WriteAheadLog::replay`]
/// returns it, or borrowed from the log (`WalRecord<&[u8]>`), as
/// [`WriteAheadLog::visit`] lends it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalRecord<P = Vec<u8>> {
    /// Monotonic sequence number.
    pub seq: u64,
    /// The affected record key (reference id raw value).
    pub key: u128,
    /// What happened.
    pub op: WalOp,
    /// Operation payload (serialized version data; empty for deletes).
    pub payload: P,
}

impl<'a> WalRecord<&'a [u8]> {
    /// Decodes a record body (everything after the crc field), or `None`
    /// when it is shorter than the header or names an unknown op.
    fn decode(body: &'a [u8]) -> Option<Self> {
        let (seq, rest) = body.split_first_chunk::<8>()?;
        let (key, rest) = rest.split_first_chunk::<16>()?;
        let (&op, payload) = rest.split_first()?;
        let op = match op {
            0 => WalOp::Put,
            1 => WalOp::Delete,
            2 => WalOp::Purge,
            _ => return None,
        };
        Some(WalRecord {
            seq: u64::from_le_bytes(*seq),
            key: u128::from_le_bytes(*key),
            op,
            payload,
        })
    }
}

/// Errors detected during WAL replay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalError {
    /// A record's checksum did not match its contents.
    ChecksumMismatch {
        /// Byte offset of the corrupt record.
        offset: usize,
    },
    /// The log ended mid-record (torn write).
    TruncatedRecord {
        /// Byte offset of the truncated record.
        offset: usize,
    },
    /// A record body failed to deserialize.
    MalformedRecord {
        /// Byte offset of the malformed record.
        offset: usize,
    },
}

impl WalError {
    /// Byte offset of the record the error is about.
    pub fn offset(&self) -> usize {
        match *self {
            WalError::ChecksumMismatch { offset }
            | WalError::TruncatedRecord { offset }
            | WalError::MalformedRecord { offset } => offset,
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::ChecksumMismatch { offset } => {
                write!(f, "checksum mismatch at offset {offset}")
            }
            WalError::TruncatedRecord { offset } => {
                write!(f, "truncated record at offset {offset}")
            }
            WalError::MalformedRecord { offset } => {
                write!(f, "malformed record at offset {offset}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// Stored bytes, shared: a view of a payload inside the WAL frame that
/// logged it. A clone takes a reference, not a copy, so a reader carries a
/// version's bytes out from under the lake lock for the price of a counter
/// increment. Equality compares the payload bytes.
#[derive(Clone)]
pub struct SharedBytes {
    frame: Arc<Vec<u8>>,
    start: usize,
}

impl std::ops::Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.frame.get(self.start..).unwrap_or_default()
    }
}

impl From<Vec<u8>> for SharedBytes {
    /// Bytes of their own, outside any log.
    fn from(bytes: Vec<u8>) -> Self {
        SharedBytes {
            frame: Arc::new(bytes),
            start: 0,
        }
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedBytes {}

impl<const N: usize> PartialEq<&[u8; N]> for SharedBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        &**self == other.as_slice()
    }
}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SharedBytes").field(&&**self).finish()
    }
}

/// An append-only, checksummed log of frames.
#[derive(Clone, Debug, Default)]
pub struct WriteAheadLog {
    frames: Vec<Arc<Vec<u8>>>,
    next_seq: u64,
}

/// A record's frame, `len ‖ crc ‖ seq ‖ key ‖ op ‖ payload`, in a buffer
/// of exactly that length.
fn encode(seq: u64, key: u128, op: WalOp, payload: &[u8]) -> Vec<u8> {
    let body: [&[u8]; 4] = [&seq.to_le_bytes(), &key.to_le_bytes(), &[op as u8], payload];
    let crc = !body.iter().fold(!0, |crc, part| crc32_update(crc, part));
    let body_len = HEADER_LEN + payload.len();
    let mut frame = Vec::with_capacity(8 + body_len);
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.extend_from_slice(&crc.to_le_bytes());
    for part in body {
        frame.extend_from_slice(part);
    }
    frame
}

impl WriteAheadLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Appends an operation, returning its sequence number.
    pub fn append(&mut self, key: u128, op: WalOp, payload: &[u8]) -> u64 {
        let seq = self.next_seq;
        self.append_shared(key, op, payload);
        seq
    }

    /// [`append`](Self::append), returning the logged payload: a view of
    /// the new frame, which the caller keeps instead of a copy of its own.
    pub fn append_shared(&mut self, key: u128, op: WalOp, payload: &[u8]) -> SharedBytes {
        let frame = Arc::new(encode(self.next_seq, key, op, payload));
        self.next_seq += 1;
        self.frames.push(Arc::clone(&frame));
        SharedBytes {
            frame,
            start: PAYLOAD_OFFSET,
        }
    }

    /// Appends a record but tears its tail (the final 4 body bytes never
    /// hit the log), simulating a crash mid-append. The record never
    /// became durable, so its sequence number is not consumed. Returns
    /// the byte offset of the torn record.
    pub fn append_torn(&mut self, key: u128, op: WalOp, payload: &[u8]) -> usize {
        let offset = self.byte_len();
        let mut frame = encode(self.next_seq, key, op, payload);
        frame.truncate(frame.len().saturating_sub(4));
        self.frames.push(Arc::new(frame));
        offset
    }

    /// Truncates the log to `offset` bytes — crash recovery discarding a
    /// torn tail. Frames past `offset` are dropped, and a frame that
    /// straddles it keeps its first bytes.
    pub fn truncate_to(&mut self, offset: usize) {
        let mut end = 0;
        let Some(straddling) = self.frames.iter().position(|frame| {
            end += frame.len();
            end > offset
        }) else {
            return;
        };
        let kept = self.frames.get(straddling).map(|frame| {
            let head = frame.len() - (end - offset);
            frame.get(..head).unwrap_or_default().to_vec()
        });
        self.frames.truncate(straddling);
        if let Some(head) = kept.filter(|head| !head.is_empty()) {
            self.frames.push(Arc::new(head));
        }
    }

    /// Total log size in bytes: the sum of the frame lengths.
    pub fn byte_len(&self) -> usize {
        self.frames.iter().map(|frame| frame.len()).sum()
    }

    /// Number of records appended so far.
    pub fn record_count(&self) -> u64 {
        self.next_seq
    }

    /// The log's bytes end to end, copied: what an on-disk log would hold.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.frames
            .iter()
            .flat_map(|frame| frame.iter().copied())
            .collect()
    }

    /// Replays the log from the beginning, verifying checksums.
    ///
    /// # Errors
    ///
    /// Stops at the first corruption, returning the records recovered so
    /// far alongside the error — the standard crash-recovery contract.
    pub fn replay(&self) -> (Vec<WalRecord>, Option<WalError>) {
        let mut records = Vec::new();
        let err = self.visit(|r| {
            records.push(WalRecord {
                seq: r.seq,
                key: r.key,
                op: r.op,
                payload: r.payload.to_vec(),
            });
        });
        (records, err)
    }

    /// [`replay`](Self::replay) without copying: hands each verified
    /// record to `visit`, its payload borrowed from its frame, in order.
    /// Returns the first corruption, which ends the walk.
    ///
    /// Each frame is checked on its own and reports what a reader of the
    /// contiguous log would at that offset. A frame whose length field
    /// disagrees with its size (a torn frame, or a damaged length) would
    /// be read on past its end: into the next frame, where its CRC
    /// misses, or past the end of the log, which is a truncated record.
    /// A frame too short to hold `len` and `crc`, which only cutting the
    /// log's tail leaves, is a truncated record.
    pub fn visit<'a>(&'a self, mut visit: impl FnMut(WalRecord<&'a [u8]>)) -> Option<WalError> {
        let mut offset = 0usize;
        for frame in &self.frames {
            let Some((len, after_len)) = frame.split_first_chunk::<4>() else {
                return Some(WalError::TruncatedRecord { offset });
            };
            let Some((stored_crc, body)) = after_len.split_first_chunk::<4>() else {
                return Some(WalError::TruncatedRecord { offset });
            };
            let len = u32::from_le_bytes(*len) as usize;
            if body.len() != len {
                let after_header = self.byte_len() - offset - 8;
                return Some(if len > after_header {
                    WalError::TruncatedRecord { offset }
                } else {
                    WalError::ChecksumMismatch { offset }
                });
            }
            if crc32(body) != u32::from_le_bytes(*stored_crc) {
                return Some(WalError::ChecksumMismatch { offset });
            }
            let Some(record) = WalRecord::decode(body) else {
                return Some(WalError::MalformedRecord { offset });
            };
            visit(record);
            offset += frame.len();
        }
        None
    }
}

/// Fault injection on the log's raw bytes, for tests.
#[cfg(test)]
impl WriteAheadLog {
    /// XORs the byte at log offset `offset` with `mask`. A frame the lake
    /// also holds is copied first, so the damage stays in the log.
    pub(crate) fn flip_byte(&mut self, offset: usize, mask: u8) {
        let mut start = 0;
        for frame in &mut self.frames {
            if let Some(byte) = offset
                .checked_sub(start)
                .filter(|&at| at < frame.len())
                .and_then(|at| Arc::make_mut(frame).get_mut(at))
            {
                *byte ^= mask;
                return;
            }
            start += frame.len();
        }
        panic!("offset {offset} is past the log's {start} bytes");
    }

    /// Appends `bytes` as a frame as they are, well formed or not.
    pub(crate) fn push_raw_frame(&mut self, bytes: Vec<u8>) {
        self.frames.push(Arc::new(bytes));
    }
}

/// The contiguous parser the framed log replaced, kept as the test
/// oracle: it reads records end to end from one byte buffer.
#[cfg(test)]
pub(crate) fn replay_contiguous(log: &[u8]) -> (Vec<WalRecord>, Option<WalError>) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut rest = log;
    while !rest.is_empty() {
        let Some((len, after_len)) = rest.split_first_chunk::<4>() else {
            return (records, Some(WalError::TruncatedRecord { offset }));
        };
        let Some((stored_crc, after_crc)) = after_len.split_first_chunk::<4>() else {
            return (records, Some(WalError::TruncatedRecord { offset }));
        };
        let len = u32::from_le_bytes(*len) as usize;
        let Some((body, next)) = after_crc.split_at_checked(len) else {
            return (records, Some(WalError::TruncatedRecord { offset }));
        };
        if crc32(body) != u32::from_le_bytes(*stored_crc) {
            return (records, Some(WalError::ChecksumMismatch { offset }));
        }
        let Some(record) = WalRecord::decode(body) else {
            return (records, Some(WalError::MalformedRecord { offset }));
        };
        records.push(WalRecord {
            seq: record.seq,
            key: record.key,
            op: record.op,
            payload: record.payload.to_vec(),
        });
        offset += 8 + len;
        rest = next;
    }
    (records, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise CRC-32/ISO-HDLC definition the table is built from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    /// Appends a raw record with a valid CRC around an arbitrary body.
    fn push_raw(wal: &mut WriteAheadLog, body: &[u8]) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(body).to_le_bytes());
        buf.extend_from_slice(body);
        wal.push_raw_frame(buf);
    }

    #[test]
    fn crc32_known_value() {
        // The canonical "123456789" check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_layout_is_header_then_raw_payload() {
        let mut wal = WriteAheadLog::new();
        wal.append(0x0102, WalOp::Delete, b"xyz");
        let bytes = wal.to_bytes();
        assert_eq!(bytes.len(), 8 + HEADER_LEN + 3);
        assert_eq!(bytes[..4], ((HEADER_LEN + 3) as u32).to_le_bytes());
        assert_eq!(bytes[4..8], crc32(&bytes[8..]).to_le_bytes());
        assert_eq!(bytes[8..16], 0u64.to_le_bytes());
        assert_eq!(bytes[16..32], 0x0102u128.to_le_bytes());
        assert_eq!(bytes[32..], [1, b'x', b'y', b'z']);
    }

    #[test]
    fn short_body_with_valid_crc_is_malformed() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, WalOp::Put, b"kept");
        let offset = wal.byte_len();
        push_raw(&mut wal, &[0u8; HEADER_LEN - 1]);
        let (records, err) = wal.replay();
        assert_eq!(records.len(), 1, "earlier record recovered");
        assert_eq!(records[0].payload, b"kept");
        assert_eq!(err, Some(WalError::MalformedRecord { offset }));
    }

    #[test]
    fn unknown_op_with_valid_crc_is_malformed() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, WalOp::Put, b"kept");
        let offset = wal.byte_len();
        let mut body = [0u8; HEADER_LEN];
        body[HEADER_LEN - 1] = 3;
        push_raw(&mut wal, &body);
        let (records, err) = wal.replay();
        assert_eq!(records.len(), 1, "earlier record recovered");
        assert_eq!(err, Some(WalError::MalformedRecord { offset }));
    }

    #[test]
    fn replay_round_trips() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, WalOp::Put, b"v1");
        wal.append(1, WalOp::Put, b"v2");
        wal.append(1, WalOp::Delete, b"");
        let (records, err) = wal.replay();
        assert!(err.is_none());
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[2].op, WalOp::Delete);
    }

    #[test]
    fn corruption_detected() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, WalOp::Put, b"payload-a");
        wal.append(2, WalOp::Put, b"payload-b");
        // Flip a byte in the middle of the second record's body.
        let len = wal.to_bytes().len();
        wal.flip_byte(len - 3, 0xff);
        let (records, err) = wal.replay();
        assert_eq!(records.len(), 1, "first record recovered");
        assert!(matches!(err, Some(WalError::ChecksumMismatch { .. })));
    }

    #[test]
    fn torn_tail_detected() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, WalOp::Put, b"payload");
        let new_len = wal.byte_len() - 4;
        wal.truncate_to(new_len);
        let (records, err) = wal.replay();
        assert!(records.is_empty());
        assert!(matches!(err, Some(WalError::TruncatedRecord { .. })));
    }

    #[test]
    fn each_record_is_one_exactly_sized_frame_its_view_shares() {
        let mut wal = WriteAheadLog::new();
        let view = wal.append_shared(7, WalOp::Put, b"payload");
        wal.append(7, WalOp::Delete, b"");
        assert_eq!(view, b"payload");
        assert_eq!(wal.frames.len(), 2);
        for frame in &wal.frames {
            assert_eq!(frame.capacity(), frame.len());
        }
        let mut lent = Vec::new();
        assert_eq!(wal.visit(|r| lent.push(r.payload)), None);
        assert!(
            std::ptr::eq(lent[0], &*view),
            "the view is the logged payload"
        );
        assert_eq!(wal.byte_len(), 2 * PAYLOAD_OFFSET + 7);
        assert_eq!(wal.to_bytes().len(), wal.byte_len());
    }

    #[test]
    fn truncation_inside_a_frame_keeps_its_head() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, WalOp::Put, b"first");
        let first = wal.byte_len();
        wal.append(2, WalOp::Put, b"second");
        wal.append(3, WalOp::Put, b"third");
        let bytes = wal.to_bytes();
        wal.truncate_to(first + 5);
        assert_eq!(wal.to_bytes(), bytes[..first + 5]);
        assert_eq!(wal.frames.len(), 2);
        wal.truncate_to(first);
        assert_eq!(wal.to_bytes(), bytes[..first]);
        assert_eq!(wal.frames.len(), 1);
        wal.truncate_to(first + 100);
        assert_eq!(wal.byte_len(), first);
    }

    #[test]
    fn a_torn_frame_before_more_records_misses_its_crc() {
        let mut wal = WriteAheadLog::new();
        wal.append(1, WalOp::Put, b"kept");
        let torn = wal.append_torn(2, WalOp::Put, b"torn");
        wal.append(3, WalOp::Put, b"after");
        let (records, err) = wal.replay();
        assert_eq!(records.len(), 1);
        assert_eq!(err, Some(WalError::ChecksumMismatch { offset: torn }));
        assert_eq!((records, err), replay_contiguous(&wal.to_bytes()));
    }

    #[test]
    fn sequence_numbers_monotonic() {
        let mut wal = WriteAheadLog::new();
        assert_eq!(wal.append(1, WalOp::Put, b""), 0);
        assert_eq!(wal.append(1, WalOp::Put, b""), 1);
        assert_eq!(wal.record_count(), 2);
    }

    proptest! {
        #[test]
        fn table_crc_matches_bitwise_definition(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            splits in proptest::collection::vec(0usize..4096, 0..4),
        ) {
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut crc = !0;
            let mut from = 0;
            for cut in cuts {
                crc = crc32_update(crc, &data[from..cut]);
                from = cut;
            }
            crc = crc32_update(crc, &data[from..]);
            let expected = crc32_bitwise(&data);
            prop_assert_eq!(!crc, expected);
            prop_assert_eq!(crc32(&data), expected);
        }

        #[test]
        fn arbitrary_payloads_replay(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..20)
        ) {
            let mut wal = WriteAheadLog::new();
            for (i, p) in payloads.iter().enumerate() {
                wal.append(i as u128, WalOp::Put, p);
            }
            let (records, err) = wal.replay();
            prop_assert!(err.is_none());
            prop_assert_eq!(records.len(), payloads.len());
            for (r, p) in records.iter().zip(&payloads) {
                prop_assert_eq!(&r.payload, p);
            }
        }
    }
}
