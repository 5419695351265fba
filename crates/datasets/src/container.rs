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

// This module faces arbitrary bytes; every abort path is a bug. Enforced by
// convoy-lint's no-panic-decode rule, the corruption suite
// (`crates/datasets/tests/container_corruption.rs`) and clippy:
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use trajectory::{ObjectId, TimeInterval, TrajectoryBuilder, TrajectoryDatabase};

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
// CRC-32 (IEEE 802.3, the polynomial zlib and PNG use), table built at
// compile time so the hot path is one lookup per byte. The stream
// checkpoint trailer re-exports this same function.

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = c; // lint: allow(no-panic-decode) — const loop, i < 256 == table.len()
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the checksum each block trailer and the stream
/// checkpoint trailer store).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        // lint: allow(no-panic-decode) — index masked to 0..=255, table length 256
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
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

/// Bounded decoder over one block's bytes — the checkpoint `Dec` idiom:
/// every read is bounds-checked, corrupt input surfaces as an error, never
/// a panic.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(ContainerError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(ContainerError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }
    /// Reads exactly `N` bytes into a fixed-size array. The copy is bounded
    /// by both sides of the `zip`, so no length mismatch can panic.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ContainerError> {
        let src = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, byte) in out.iter_mut().zip(src) {
            *dst = *byte;
        }
        Ok(out)
    }
    fn u64(&mut self) -> Result<u64, ContainerError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
    fn i64(&mut self) -> Result<i64, ContainerError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }
    fn f64(&mut self) -> Result<f64, ContainerError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }
}

/// Parses and sanity-checks one 56-byte block header at `offset`.
fn decode_block_header(header: &[u8], offset: u64) -> Result<BlockMeta, ContainerError> {
    let mut d = Dec {
        bytes: header,
        pos: 0,
    };
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
        let mut d = Dec {
            bytes: &head,
            pos: 0,
        };
        if d.take(MAGIC.len())? != MAGIC.as_slice() {
            return Err(ContainerError::BadMagic);
        }
        let version = u32::from_le_bytes(d.take_array()?);
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
        let mut builders: BTreeMap<ObjectId, TrajectoryBuilder> = BTreeMap::new();
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
                builders.entry(ObjectId(id)).or_default().add(x, y, t);
            }
        }
        let mut db = TrajectoryDatabase::new();
        for (id, builder) in builders {
            // Records are strictly `(t, object)`-ascending, so per-object
            // timestamps are strictly increasing and `build` cannot fail on
            // them; map any residual error instead of unwrapping.
            let traj = builder
                .build()
                .map_err(|_| ContainerError::Malformed("block records do not form a trajectory"))?;
            db.insert(id, traj);
        }
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

        let mut d = Dec {
            bytes: body,
            pos: 0,
        };
        // Re-decode the header out of the checksummed bytes and require it
        // to match the index built at open time.
        if decode_block_header(d.take(BLOCK_HEADER_LEN as usize)?, meta.offset)? != *meta {
            return Err(ContainerError::Malformed("block header changed since open"));
        }
        let n = meta.records as usize;
        self.ids.clear();
        self.ts.clear();
        self.xs.clear();
        self.ys.clear();
        self.ids.reserve(n);
        self.ts.reserve(n);
        self.xs.reserve(n);
        self.ys.reserve(n);
        for _ in 0..n {
            self.ids.push(d.u64()?);
        }
        for _ in 0..n {
            self.ts.push(d.i64()?);
        }
        for _ in 0..n {
            self.xs.push(d.f64()?);
        }
        for _ in 0..n {
            self.ys.push(d.f64()?);
        }
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
