//! The `.convoy` binary columnar trajectory container.
//!
//! CSV parsing dominates cold-start: every sample costs an integer/float
//! parse, and nothing in the file says where a time range lives. This module
//! defines a read-optimized binary layout — time-blocked, column-major,
//! indexed — so a full load is a straight `memcpy`-shaped column decode and
//! a windowed load touches only the blocks whose time range intersects the
//! window.
//!
//! ## File format (version 1)
//!
//! ```text
//! magic    8 bytes   b"CONVOYTR"
//! version  u32 LE    1
//! blocks   u64 LE    number of data blocks
//! then per block, back to back:
//!   header  56 bytes
//!     records u64 LE   samples in this block (>= 1)
//!     t_min   i64 LE   smallest timestamp in the block
//!     t_max   i64 LE   largest timestamp in the block
//!     bbox    4×f64 LE min_x, min_y, max_x, max_y over the block's samples
//!   payload, column-major (records × 32 bytes total)
//!     ids     records × u64 LE
//!     ts      records × i64 LE
//!     xs      records × f64 LE  (IEEE-754 bit patterns — round trips exactly)
//!     ys      records × f64 LE
//!   crc32   u32 LE    IEEE CRC-32 of this block's header + payload
//! ```
//!
//! Records are sorted by `(t, object)` across the whole file, so block time
//! ranges are non-decreasing and a window `[from, to]` maps to a contiguous
//! run of blocks. The per-block CRC (same [`crc32`] the stream checkpoint
//! uses) means a windowed read verifies only the bytes it actually decodes.
//!
//! Decoding follows the checkpoint discipline: strict total decode, typed
//! [`ContainerError`]s, never a panic — a truncated, bit-flipped, foreign or
//! future-version file is rejected, not partially loaded. Writes are atomic
//! (temp file + fsync + rename), so a crash mid-convert never leaves a torn
//! container behind.
//!
//! ## Decode path
//!
//! A load is built to cost what the bytes cost:
//!
//! - [`crc32`] is slicing-by-8: eight compile-time tables fold one 8-byte
//!   word per step with eight independent lookups, then the remainder goes
//!   bytewise. Checksums are byte-identical to the classic one-table loop.
//! - Each column is read as 8-byte words behind one bounds check.
//! - Records go into **slots**, one per object in order of first
//!   appearance, found through an id → slot hash map. Records are sorted by
//!   `(t, object)`, so each slot's samples arrive time-ascending; one sort
//!   of the slots by id and one exact-capacity copy per slot then build the
//!   database with no re-sort and no growth slack
//!   ([`trajectory::Trajectory::from_points`] still checks monotonicity).
//!
//! Every per-record check — block time range, finite coordinates, block
//! bbox, strict `(t, object)` ascent — runs before a record reaches a slot.

// This module faces arbitrary bytes; every abort path is a bug. Enforced by
// convoy-lint's no-panic-decode rule, the corruption suite
// (`crates/datasets/tests/container_corruption.rs`) and clippy:
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use trajectory::{ObjectId, TimeInterval, TrajPoint, Trajectory, TrajectoryDatabase};

/// The container file's magic bytes (≠ the checkpoint's `CONVOYCK`).
pub const MAGIC: [u8; 8] = *b"CONVOYTR";

/// The current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Default number of records per block: large enough that the per-block
/// header + CRC is noise, small enough that windowed queries skip real work.
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;

/// File header length: magic + version + block count.
const FILE_HEADER_LEN: u64 = 8 + 4 + 8;

/// Per-block header length: record count, t_min, t_max, bbox.
const BLOCK_HEADER_LEN: u64 = 8 + 8 + 8 + 32;

/// Bytes one record occupies in a block payload (id + t + x + y).
const RECORD_LEN: u64 = 32;

/// Per-block CRC trailer length.
const BLOCK_TRAILER_LEN: u64 = 4;

/// Why a `.convoy` container could not be written or read.
#[derive(Debug)]
pub enum ContainerError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the container magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the encoded structure does (torn write).
    Truncated,
    /// A block's trailing CRC-32 does not match its contents.
    ChecksumMismatch {
        /// 0-based index of the corrupt block.
        block: usize,
    },
    /// The structure decoded but violates a format invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "container I/O error: {e}"),
            ContainerError::BadMagic => write!(f, "not a .convoy container (bad magic)"),
            ContainerError::UnsupportedVersion(v) => {
                write!(f, "unsupported container format version {v}")
            }
            ContainerError::Truncated => write!(f, "container is truncated"),
            ContainerError::ChecksumMismatch { block } => {
                write!(f, "container block {block} checksum mismatch")
            }
            ContainerError::Malformed(what) => write!(f, "malformed container: {what}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ContainerError {
    fn from(e: std::io::Error) -> Self {
        ContainerError::Io(e)
    }
}

/// A short read against a length the index promised is a torn file, not a
/// generic I/O failure.
fn map_eof_to_truncated(e: std::io::Error) -> ContainerError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        ContainerError::Truncated
    } else {
        ContainerError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the polynomial zlib and PNG use), slicing-by-8: eight
// tables built at compile time let the hot loop fold eight bytes per step
// with eight independent lookups instead of eight dependent ones. The stream
// checkpoint trailer re-exports this same function.

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so one step can fold a byte
/// that sits `k` places before the end of an 8-byte word.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c; // lint: allow(no-panic-decode) — const loop, i < 256 == table.len()
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // lint: allow(no-panic-decode) — const loop, 1 <= k < 8 and i < 256 match the table shape
            let prev = tables[k - 1][i];
            // lint: allow(no-panic-decode) — const loop, k < 8 and i < 256 match the table shape; the byte index is masked to 0..=255
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Entry `byte & 0xFF` of one CRC table.
#[inline(always)]
fn crc_lookup(table: &[u32; 256], byte: u32) -> u32 {
    // lint: allow(no-panic-decode) — index masked to 0..=255, table length 256
    table[(byte & 0xFF) as usize]
}

/// IEEE CRC-32 of `bytes` (the checksum each block trailer and the stream
/// checkpoint trailer store).
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (words, rest) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        c = crc_lookup(t7, lo)
            ^ crc_lookup(t6, lo >> 8)
            ^ crc_lookup(t5, lo >> 16)
            ^ crc_lookup(t4, lo >> 24)
            ^ crc_lookup(t3, hi)
            ^ crc_lookup(t2, hi >> 8)
            ^ crc_lookup(t1, hi >> 16)
            ^ crc_lookup(t0, hi >> 24);
    }
    for &b in rest {
        c = crc_lookup(t0, c ^ u32::from(b)) ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Writer

/// Serializes `db` as a `.convoy` container with at most `block_records`
/// samples per block (see the module docs for the layout). Records are
/// written sorted by `(t, object)`; the per-block index is derived from the
/// data, so the same database always serializes to the same bytes.
pub fn write_container<W: Write>(
    db: &TrajectoryDatabase,
    mut writer: W,
    block_records: usize,
) -> Result<(), ContainerError> {
    let block_records = block_records.max(1);
    let mut samples = db.all_samples();
    samples.sort_unstable_by_key(|(id, p)| (p.t, id.0));

    let blocks = samples.len().div_ceil(block_records);
    let mut head = Vec::with_capacity(FILE_HEADER_LEN as usize);
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    head.extend_from_slice(&(blocks as u64).to_le_bytes());
    writer.write_all(&head)?;

    let mut block: Vec<u8> = Vec::new();
    for chunk in samples.chunks(block_records) {
        let (Some((_, first)), Some((_, last))) = (chunk.first(), chunk.last()) else {
            continue; // chunks() never yields an empty chunk
        };
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for (_, p) in chunk {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }

        block.clear();
        block.extend_from_slice(&(chunk.len() as u64).to_le_bytes());
        block.extend_from_slice(&first.t.to_le_bytes());
        block.extend_from_slice(&last.t.to_le_bytes());
        for v in [min_x, min_y, max_x, max_y] {
            block.extend_from_slice(&v.to_le_bytes());
        }
        for (id, _) in chunk {
            block.extend_from_slice(&id.0.to_le_bytes());
        }
        for (_, p) in chunk {
            block.extend_from_slice(&p.t.to_le_bytes());
        }
        for (_, p) in chunk {
            block.extend_from_slice(&p.x.to_le_bytes());
        }
        for (_, p) in chunk {
            block.extend_from_slice(&p.y.to_le_bytes());
        }
        let crc = crc32(&block);
        block.extend_from_slice(&crc.to_le_bytes());
        writer.write_all(&block)?;
    }
    Ok(())
}

/// Writes a container to `path` atomically: bytes go to a sibling
/// `<path>.tmp`, are synced, and are renamed over `path` in one step — a
/// crash mid-write never leaves a torn container at `path`.
pub fn write_container_file<P: AsRef<Path>>(
    db: &TrajectoryDatabase,
    path: P,
    block_records: usize,
) -> Result<(), ContainerError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let file = File::create(&tmp)?;
        let mut buffered = std::io::BufWriter::new(file);
        write_container(db, &mut buffered, block_records)?;
        let file = buffered
            .into_inner()
            .map_err(|e| ContainerError::Io(e.into_error()))?;
        file.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader

/// One entry of the reader's in-memory block index, built at open time from
/// the per-block headers alone (payloads are skipped over).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMeta {
    /// Byte offset of the block header within the file.
    pub offset: u64,
    /// Number of records in the block (>= 1).
    pub records: u64,
    /// Smallest timestamp in the block.
    pub t_min: i64,
    /// Largest timestamp in the block.
    pub t_max: i64,
    /// Spatial bounds over the block's samples: `min_x, min_y, max_x, max_y`.
    pub bbox: [f64; 4],
}

impl BlockMeta {
    /// Whether the block's time range intersects `window`.
    pub fn intersects(&self, window: TimeInterval) -> bool {
        self.t_max >= window.start && self.t_min <= window.end
    }

    /// Total on-disk size of the block (header + payload + CRC trailer).
    fn len(&self) -> u64 {
        BLOCK_HEADER_LEN
            .saturating_add(self.records.saturating_mul(RECORD_LEN))
            .saturating_add(BLOCK_TRAILER_LEN)
    }
}

/// What a [`ContainerReader`] load actually touched, alongside the database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Blocks read and decoded (== the index length for a full load).
    pub blocks_read: usize,
    /// Records decoded from those blocks, including any a windowed load
    /// then filtered out at the window's boundary blocks.
    pub records_read: u64,
}

impl ReadStats {
    /// On-disk bytes this load actually read and verified: the headers,
    /// payloads and CRC trailers of the touched blocks (pruned blocks are
    /// seeked over, their bytes never enter memory).
    pub fn bytes_scanned(&self) -> u64 {
        (self.blocks_read as u64)
            .saturating_mul(BLOCK_HEADER_LEN.saturating_add(BLOCK_TRAILER_LEN))
            .saturating_add(self.records_read.saturating_mul(RECORD_LEN))
    }
}

/// A [`ByteReader`] ran out of bytes: the encoded structure is longer than
/// its input (a torn write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

impl From<Truncated> for ContainerError {
    fn from(_: Truncated) -> Self {
        ContainerError::Truncated
    }
}

/// Bounded little-endian decoder over a byte slice, shared by the `.convoy`
/// container and the stream checkpoint: every read is bounds-checked, so
/// corrupt input surfaces as [`Truncated`], never a panic.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(Truncated)?;
        self.pos = end;
        Ok(slice)
    }
    /// The number of bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    /// Reads exactly `N` bytes into a fixed-size array. The copy is bounded
    /// by both sides of the `zip`, so no length mismatch can panic.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let src = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, byte) in out.iter_mut().zip(src) {
            *dst = *byte;
        }
        Ok(out)
    }
    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        let [b] = self.take_array::<1>()?;
        Ok(b)
    }
    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }
    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, Truncated> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }
    /// A little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }
}

/// Parses and sanity-checks one 56-byte block header at `offset`.
fn decode_block_header(header: &[u8], offset: u64) -> Result<BlockMeta, ContainerError> {
    let mut d = ByteReader::new(header);
    let records = d.u64()?;
    let t_min = d.i64()?;
    let t_max = d.i64()?;
    let mut bbox = [0.0f64; 4];
    for v in bbox.iter_mut() {
        *v = d.f64()?;
    }
    if records == 0 {
        return Err(ContainerError::Malformed("empty block"));
    }
    if t_min > t_max {
        return Err(ContainerError::Malformed("block time range inverted"));
    }
    let [min_x, min_y, max_x, max_y] = bbox;
    if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite()) {
        return Err(ContainerError::Malformed("block bbox not finite"));
    }
    if min_x > max_x || min_y > max_y {
        return Err(ContainerError::Malformed("block bbox inverted"));
    }
    Ok(BlockMeta {
        offset,
        records,
        t_min,
        t_max,
        bbox,
    })
}

/// A block-indexed `.convoy` reader.
///
/// Opening validates the file header and walks the per-block headers
/// (seeking over payloads) into an in-memory index; nothing else is read
/// until a load asks for it. Loads decode touched blocks through **reused**
/// scratch buffers — one byte buffer, four column buffers — so a warmed
/// reader performs no per-point allocation on the decode path.
pub struct ContainerReader<R: Read + Seek> {
    reader: R,
    index: Vec<BlockMeta>,
    /// Reused raw-byte buffer, sized to the largest block read so far.
    block_buf: Vec<u8>,
    /// Reused column buffers for one block's decoded payload.
    ids: Vec<u64>,
    ts: Vec<i64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl ContainerReader<std::io::BufReader<File>> {
    /// Opens the container file at `path`.
    pub fn open_file<P: AsRef<Path>>(path: P) -> Result<Self, ContainerError> {
        ContainerReader::open(std::io::BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> ContainerReader<R> {
    /// Opens a container over any seekable byte stream, validating the file
    /// header and building the block index. Strict: short files, foreign
    /// magic, future versions, impossible record counts, non-monotone block
    /// time ranges and trailing bytes are all rejected here.
    pub fn open(mut reader: R) -> Result<Self, ContainerError> {
        let file_len = reader.seek(SeekFrom::End(0))?;
        reader.seek(SeekFrom::Start(0))?;
        if file_len < FILE_HEADER_LEN {
            // Distinguish a torn header from a foreign file by whatever
            // prefix is present.
            let mut head = Vec::new();
            reader.take(FILE_HEADER_LEN).read_to_end(&mut head)?;
            return Err(if MAGIC.starts_with(&head) || head.starts_with(&MAGIC) {
                ContainerError::Truncated
            } else {
                ContainerError::BadMagic
            });
        }
        let mut head = [0u8; FILE_HEADER_LEN as usize];
        reader.read_exact(&mut head)?;
        let mut d = ByteReader::new(&head);
        if d.take(MAGIC.len())? != MAGIC.as_slice() {
            return Err(ContainerError::BadMagic);
        }
        let version = d.u32()?;
        if version != FORMAT_VERSION {
            return Err(ContainerError::UnsupportedVersion(version));
        }
        let blocks = d.u64()?;
        // Bound the count by the bytes actually present (a block is at least
        // one record), so a corrupt count cannot drive an absurd allocation.
        let min_block = BLOCK_HEADER_LEN + RECORD_LEN + BLOCK_TRAILER_LEN;
        if blocks > (file_len - FILE_HEADER_LEN) / min_block {
            return Err(ContainerError::Truncated);
        }

        let mut index: Vec<BlockMeta> = Vec::with_capacity(blocks as usize);
        let mut offset = FILE_HEADER_LEN;
        let mut header = [0u8; BLOCK_HEADER_LEN as usize];
        for _ in 0..blocks {
            reader.seek(SeekFrom::Start(offset))?;
            reader
                .read_exact(&mut header)
                .map_err(map_eof_to_truncated)?;
            let meta = decode_block_header(&header, offset)?;
            if let Some(prev) = index.last() {
                if meta.t_min < prev.t_max {
                    return Err(ContainerError::Malformed("block time ranges not ascending"));
                }
            }
            let end = offset
                .checked_add(meta.len())
                .ok_or(ContainerError::Truncated)?;
            if end > file_len {
                return Err(ContainerError::Truncated);
            }
            index.push(meta);
            offset = end;
        }
        if offset != file_len {
            return Err(ContainerError::Malformed("trailing bytes after blocks"));
        }
        Ok(ContainerReader {
            reader,
            index,
            block_buf: Vec::new(),
            ids: Vec::new(),
            ts: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
        })
    }

    /// The block index (time-ascending).
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.index
    }

    /// Loads the whole container into a database.
    pub fn load(&mut self) -> Result<(TrajectoryDatabase, ReadStats), ContainerError> {
        self.load_impl(None)
    }

    /// Loads only the samples with `window.start <= t <= window.end`,
    /// reading just the blocks whose time range intersects the window (the
    /// [`trajectory::TrajectorySource::load_window`] contract: identical to
    /// a full load restricted to the window).
    pub fn load_window(
        &mut self,
        window: TimeInterval,
    ) -> Result<(TrajectoryDatabase, ReadStats), ContainerError> {
        self.load_impl(Some(window))
    }

    fn load_impl(
        &mut self,
        window: Option<TimeInterval>,
    ) -> Result<(TrajectoryDatabase, ReadStats), ContainerError> {
        // One slot per object, in order of first appearance: the id map
        // finds a record's slot and the record is appended to it. Records
        // arrive time-ascending, so each slot's samples are already in
        // trajectory order.
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let mut slots: Vec<(u64, Vec<TrajPoint>)> = Vec::new();
        let mut stats = ReadStats::default();
        // `(t, id)` of the last decoded record, across blocks: the file is
        // globally sorted, so any subset of blocks must decode strictly
        // increasing — a duplicate `(object, t)` pair is a format violation,
        // not something to silently collapse.
        let mut prev: Option<(i64, u64)> = None;
        for bi in 0..self.index.len() {
            let Some(meta) = self.index.get(bi).copied() else {
                break;
            };
            if let Some(w) = window {
                if !meta.intersects(w) {
                    continue;
                }
            }
            self.read_block(bi, &meta)?;
            stats.blocks_read = stats.blocks_read.saturating_add(1);
            stats.records_read = stats.records_read.saturating_add(meta.records);
            let [min_x, min_y, max_x, max_y] = meta.bbox;
            for (((&id, &t), &x), &y) in self
                .ids
                .iter()
                .zip(self.ts.iter())
                .zip(self.xs.iter())
                .zip(self.ys.iter())
            {
                if t < meta.t_min || t > meta.t_max {
                    return Err(ContainerError::Malformed("record outside block time range"));
                }
                if !(x.is_finite() && y.is_finite()) {
                    return Err(ContainerError::Malformed("non-finite coordinate"));
                }
                if x < min_x || x > max_x || y < min_y || y > max_y {
                    return Err(ContainerError::Malformed("record outside block bbox"));
                }
                if prev.is_some_and(|p| p >= (t, id)) {
                    return Err(ContainerError::Malformed(
                        "records not strictly (t, object)-ascending",
                    ));
                }
                prev = Some((t, id));
                if window.is_some_and(|w| t < w.start || t > w.end) {
                    continue;
                }
                let slot = *slot_of.entry(id).or_insert_with(|| {
                    slots.push((id, Vec::new()));
                    slots.len() - 1
                });
                if let Some((_, points)) = slots.get_mut(slot) {
                    points.push(TrajPoint::new(x, y, t));
                }
            }
        }
        drop(slot_of);
        slots.sort_unstable_by_key(|&(id, _)| id);
        let db = slots
            .into_iter()
            .map(|(id, points)| {
                // An exact-capacity copy, freeing the slot as it goes: no
                // growth slack survives into the database, and trajectories
                // land one after another in id order. (An in-place
                // `shrink_to_fit` leaves each where its last doubling put it;
                // the CuTS* filter, which walks them in id order, measured
                // about 15% slower on that layout.)
                // Records are strictly `(t, object)`-ascending, so per-object
                // timestamps are strictly increasing and `from_points` cannot
                // fail on them; map any residual error instead of unwrapping.
                Trajectory::from_points(points.to_vec())
                    .map(|traj| (ObjectId(id), traj))
                    .map_err(|_| {
                        ContainerError::Malformed("block records do not form a trajectory")
                    })
            })
            .collect::<Result<TrajectoryDatabase, _>>()?;
        Ok((db, stats))
    }

    /// Reads and CRC-checks block `bi` into the reused column buffers.
    fn read_block(&mut self, bi: usize, meta: &BlockMeta) -> Result<(), ContainerError> {
        let total = meta.len();
        self.reader.seek(SeekFrom::Start(meta.offset))?;
        self.block_buf.clear();
        self.block_buf.resize(total as usize, 0);
        self.reader
            .read_exact(&mut self.block_buf)
            .map_err(map_eof_to_truncated)?;

        let body_len = (total - BLOCK_TRAILER_LEN) as usize;
        let (body, trailer) = self.block_buf.split_at(body_len);
        let mut stored = [0u8; BLOCK_TRAILER_LEN as usize];
        for (dst, byte) in stored.iter_mut().zip(trailer) {
            *dst = *byte;
        }
        if crc32(body) != u32::from_le_bytes(stored) {
            return Err(ContainerError::ChecksumMismatch { block: bi });
        }

        let mut d = ByteReader::new(body);
        // Re-decode the header out of the checksummed bytes and require it
        // to match the index built at open time.
        if decode_block_header(d.take(BLOCK_HEADER_LEN as usize)?, meta.offset)? != *meta {
            return Err(ContainerError::Malformed("block header changed since open"));
        }
        // Each column is `records` little-endian 8-byte words, read in one
        // bounds check per column.
        let column_len = usize::try_from(meta.records)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .ok_or(ContainerError::Truncated)?;
        let mut column = || d.take(column_len).map(|bytes| bytes.as_chunks::<8>().0);
        let (ids, ts, xs, ys) = (column()?, column()?, column()?, column()?);
        self.ids.clear();
        self.ts.clear();
        self.xs.clear();
        self.ys.clear();
        self.ids.extend(ids.iter().map(|&w| u64::from_le_bytes(w)));
        self.ts.extend(ts.iter().map(|&w| i64::from_le_bytes(w)));
        self.xs.extend(xs.iter().map(|&w| f64::from_le_bytes(w)));
        self.ys.extend(ys.iter().map(|&w| f64::from_le_bytes(w)));
        if d.pos != body.len() {
            return Err(ContainerError::Malformed("trailing bytes in block"));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic on bad fixtures
mod tests {
    use super::*;
    use crate::{generate, DatasetProfile};
    use std::collections::BTreeSet;
    use std::io::Cursor;

    fn encode(db: &TrajectoryDatabase, block_records: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_container(db, &mut bytes, block_records).unwrap();
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors (zlib's `crc32` agrees).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise table loop `crc32` used before slicing-by-8, frozen
    /// with its own table as the reference the sliced loop must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256u32)
            .map(|i| {
                (0..8).fold(i, |c, _| {
                    if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    }
                })
            })
            .collect();
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    proptest::prop_compose! {
        /// Up to 12 objects with sparse ids whose first appearance is not
        /// in id order: each object's start is drawn on its own, or (when
        /// `reversed`) falls as the id rises, so small ids start late. Some
        /// objects hold a single sample.
        fn arb_db()(num_objects in 1usize..12)
            (ids in proptest::collection::btree_set(0u64..10_000, num_objects),
             reversed in 0u8..2,
             tables in proptest::collection::vec(
                ((0i64..60, 0u8..3),
                 proptest::collection::btree_set(0i64..30, 1..10),
                 proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 10)),
                num_objects))
            -> TrajectoryDatabase {
            let mut db = TrajectoryDatabase::new();
            let n = ids.len() as i64;
            for (rank, (id, ((start, shape), offsets, coords))) in
                ids.into_iter().zip(tables).enumerate()
            {
                let start = if reversed == 1 { (n - rank as i64) * 4 + start % 4 } else { start };
                let times: Vec<i64> = match shape {
                    0 => vec![start],
                    1 => offsets.into_iter().map(|o| start + o % 4).collect::<BTreeSet<_>>().into_iter().collect(),
                    _ => offsets.into_iter().map(|o| start + o).collect(),
                };
                let samples = times.into_iter().zip(coords).map(|(t, (x, y))| (x, y, t));
                db.insert(ObjectId(id), Trajectory::from_tuples(samples).unwrap());
            }
            db
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn sliced_crc_equals_the_bytewise_loop(
            buffer in proptest::collection::vec(0u8..=255, 4096 + 16),
            len in 0usize..4096,
        ) {
            // Every start offset 0..8 inside the buffer and every remainder
            // length 0..7 after the 8-byte words.
            for offset in 0..8 {
                for tail in 0..8 {
                    let bytes = &buffer[offset..offset + len / 8 * 8 + tail];
                    proptest::prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
                }
            }
        }

        #[test]
        fn slot_decode_round_trips_unordered_first_appearances(
            db in arb_db(),
            block_records in 1usize..16,
            window in (-10i64..80, 0i64..40),
        ) {
            let bytes = encode(&db, block_records);
            let mut reader = ContainerReader::open(Cursor::new(&bytes)).unwrap();
            proptest::prop_assert_eq!(&reader.load().unwrap().0, &db);
            let window = TimeInterval::new(window.0, window.0 + window.1);
            proptest::prop_assert_eq!(reader.load_window(window).unwrap().0, db.restrict(window));
        }
    }

    #[test]
    fn round_trip_is_bit_identical_across_block_sizes() {
        let dataset = generate(&DatasetProfile::truck().scaled(0.02), 5);
        for block_records in [1, 7, 64, DEFAULT_BLOCK_RECORDS] {
            let bytes = encode(&dataset.database, block_records);
            let mut reader = ContainerReader::open(Cursor::new(&bytes)).unwrap();
            let (db, stats) = reader.load().unwrap();
            assert_eq!(db, dataset.database, "block_records={block_records}");
            assert_eq!(stats.blocks_read, reader.blocks().len());
            assert_eq!(stats.records_read, dataset.database.total_points() as u64);
        }
    }

    #[test]
    fn empty_database_round_trips_as_zero_blocks() {
        let bytes = encode(&TrajectoryDatabase::new(), 16);
        assert_eq!(bytes.len() as u64, FILE_HEADER_LEN);
        let mut reader = ContainerReader::open(Cursor::new(&bytes)).unwrap();
        assert!(reader.blocks().is_empty());
        let (db, stats) = reader.load().unwrap();
        assert!(db.is_empty());
        assert_eq!(stats, ReadStats::default());
    }

    #[test]
    fn windowed_load_prunes_blocks_and_equals_restrict() {
        let dataset = generate(&DatasetProfile::cattle().scaled(0.05), 11);
        let bytes = encode(&dataset.database, 32);
        let mut reader = ContainerReader::open(Cursor::new(&bytes)).unwrap();
        assert!(reader.blocks().len() > 3, "need multiple blocks to prune");
        let domain = dataset.database.time_domain().unwrap();
        let mid = domain.start + (domain.end - domain.start) / 2;
        let window = TimeInterval::new(domain.start, mid);
        let (windowed, stats) = reader.load_window(window).unwrap();
        assert_eq!(windowed, dataset.database.restrict(window));
        assert!(
            stats.blocks_read < reader.blocks().len(),
            "windowed load must skip blocks: read {} of {}",
            stats.blocks_read,
            reader.blocks().len()
        );
        // A window touching nothing reads nothing.
        let far = TimeInterval::new(domain.end + 1_000, domain.end + 2_000);
        let (empty, stats) = reader.load_window(far).unwrap();
        assert!(empty.is_empty());
        assert_eq!(stats.blocks_read, 0);
    }

    #[test]
    fn reader_buffers_are_reused_across_loads() {
        let dataset = generate(&DatasetProfile::truck().scaled(0.01), 3);
        let bytes = encode(&dataset.database, 16);
        let mut reader = ContainerReader::open(Cursor::new(&bytes)).unwrap();
        let (first, _) = reader.load().unwrap();
        let cap = (reader.block_buf.capacity(), reader.ids.capacity());
        let (second, _) = reader.load().unwrap();
        assert_eq!(first, second);
        assert_eq!(
            (reader.block_buf.capacity(), reader.ids.capacity()),
            cap,
            "warm loads must not regrow the scratch buffers"
        );
    }

    #[test]
    fn foreign_and_future_files_are_rejected() {
        assert!(matches!(
            ContainerReader::open(Cursor::new(b"PNG\r\n\x1a\n_not_a_container____".to_vec())),
            Err(ContainerError::BadMagic)
        ));
        // Future version: magic intact, version bumped.
        let db = generate(&DatasetProfile::truck().scaled(0.01), 3).database;
        let mut bytes = encode(&db, 16);
        bytes[8] = 9;
        assert!(matches!(
            ContainerReader::open(Cursor::new(bytes)),
            Err(ContainerError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let db = generate(&DatasetProfile::truck().scaled(0.01), 3).database;
        let bytes = encode(&db, 16);
        for len in 0..bytes.len() {
            let err = ContainerReader::open(Cursor::new(bytes[..len].to_vec()))
                .and_then(|mut r| r.load())
                .expect_err("truncated container must not open+load");
            assert!(
                matches!(
                    err,
                    ContainerError::BadMagic
                        | ContainerError::Truncated
                        | ContainerError::Malformed(_)
                        | ContainerError::ChecksumMismatch { .. }
                ),
                "len={len}: {err}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let db = generate(&DatasetProfile::truck().scaled(0.01), 3).database;
        let mut bytes = encode(&db, 16);
        bytes.push(0);
        assert!(matches!(
            ContainerReader::open(Cursor::new(bytes)),
            Err(ContainerError::Truncated) | Err(ContainerError::Malformed(_))
        ));
    }
}
