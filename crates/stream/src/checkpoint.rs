//! Crash-safe checkpoint/restore for [`ConvoyStream`].
//!
//! A checkpoint captures everything a stream needs to resume
//! **bit-identically**: the feed watermark, the per-object sample buffers
//! (whose newest samples double as the per-object feed-order cursors), the
//! partition cursor, the refinement fold's chains and counters, the
//! undrained output, and every lifetime counter.
//! A partition close folds every tick up to the partition's end, so no
//! partition's coverage outlives its close. Scratch state — the
//! snapshot clusterer, the dedup index, the cached partition blocker — is
//! deliberately *not* stored: a restored stream rebuilds it empty, which is
//! output-neutral (`run N ticks → checkpoint → restore → run M ticks` equals
//! `run N+M ticks` on raw convoys and [`crate::StreamStats`] alike;
//! `tests/checkpoint_equivalence.rs` locks this in).
//!
//! ## File format (version 4)
//!
//! ```text
//! magic   8 bytes   b"CONVOYCK"
//! version u32 LE    4
//! 7 sections, fixed order, each: tag u32 LE + payload length u64 LE + payload
//!   1 CONFIG     query (m, k, e), variant, δ, λ, tolerance mode, eviction
//!   2 WATERMARK  the feed watermark (largest accepted timestamp), optional
//!   3 BUFFERS    per-object samples (ascending ids, ascending timestamps,
//!                none newer than the watermark)
//!   4 FILTER     partition cursor
//!   5 FOLD       refinement-fold state (CmcState view + eviction count)
//!   6 OUTPUT     undrained convoys
//!   7 STATS      stream counters not derivable from the sections above
//! crc32   u32 LE    IEEE CRC-32 of every preceding byte
//! ```
//!
//! All integers are little-endian; floats are stored as their IEEE-754 bit
//! patterns (`f64::to_le_bytes`), so a round trip is bit-exact. Collections
//! are length-prefixed (`u64`) and written in a deterministic order, so the
//! same state always serializes to the same bytes.
//!
//! [`ConvoyStream::checkpoint`] overwrites a kept spare file,
//! `<path>.spare`, in place, syncs it, hard-links the current checkpoint
//! aside, renames the spare over the destination, renames the old
//! checkpoint to be the next spare and syncs the directory. Only the first
//! write after a crash frees a data block (unlinking a multi-megabyte file
//! can cost more than the whole write), and a crash mid-write can lose the
//! checkpoint being written, never corrupt the previous one; the price is
//! one extra checkpoint-sized file beside the destination. Decoding is
//! strict: a truncated, bit-flipped,
//! version-bumped or trailing-garbage file is rejected with a
//! [`CheckpointError`], never a panic or a partial restore. Older versions
//! are rejected as [`CheckpointError::UnsupportedVersion`]: version 1 also
//! stored a per-object validator list, version 2 a held-back boundary
//! partition's window and coverage and a copy of the fold's last tick, and
//! version 3 the filter's candidate chain (its open and closed chains, peak
//! and partition count), the undrained candidates and the chain's candidate
//! and eviction counters.

// This module faces arbitrary bytes; every abort path is a bug. Enforced
// three ways: convoy-lint's no-panic-decode rule, the every-byte-flip
// corruption suite, and clippy at the module level:
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::buffer::ObjectBuffer;
use crate::config::{EvictionPolicy, StreamConfig};
use crate::stream::ConvoyStream;
use convoy_core::{CmcState, CmcStateSnapshot, Convoy, ConvoyQuery, CutsVariant};
use convoy_obs::Obs;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use traj_cluster::Cluster;
use traj_simplify::ToleranceMode;
use trajectory::{ObjectId, TimePartition, TrajPoint};

/// The trailer checksum: the `.convoy` container's IEEE CRC-32, shared.
pub use traj_datasets::container::crc32;
use traj_datasets::container::{ByteReader, Truncated};

/// The checkpoint file's magic bytes.
pub const MAGIC: [u8; 8] = *b"CONVOYCK";

/// The current checkpoint format version.
pub const FORMAT_VERSION: u32 = 4;

const TAG_CONFIG: u32 = 1;
const TAG_WATERMARK: u32 = 2;
const TAG_BUFFERS: u32 = 3;
const TAG_FILTER: u32 = 4;
const TAG_FOLD: u32 = 5;
const TAG_OUTPUT: u32 = 6;
const TAG_STATS: u32 = 7;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the encoded structure does (torn write).
    Truncated,
    /// The trailing CRC-32 does not match the file's contents.
    ChecksumMismatch,
    /// The structure decoded but violates a format invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a convoy checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint is truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Encoder

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.i64(v);
            }
        }
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }
    fn members(&mut self, cluster: &Cluster) {
        self.u64(cluster.len() as u64);
        for id in cluster.members() {
            self.u64(id.0);
        }
    }
    /// Open chains, closed chains and convoys share one layout: members,
    /// start, end.
    fn convoys(&mut self, cs: &[Convoy]) {
        self.u64(cs.len() as u64);
        for c in cs {
            self.members(&c.objects);
            self.i64(c.start);
            self.i64(c.end);
        }
    }
    fn cmc_state(&mut self, s: &CmcStateSnapshot) {
        self.convoys(&s.current);
        self.convoys(&s.closed);
        self.u64(s.peak_candidates as u64);
        self.opt_i64(s.last_tick);
        self.u64(s.ticks_ingested);
        self.u64(s.gap_closures);
        self.u64(s.convoys_closed);
    }
    /// Writes `tag` + length prefix + the payload produced by `body`.
    fn section(&mut self, tag: u32, body: impl FnOnce(&mut Enc)) {
        self.u32(tag);
        let len_at = self.buf.len();
        self.u64(0);
        body(self);
        let len = (self.buf.len() - len_at - 8) as u64;
        // lint: allow(no-panic-decode) — encode path: span written at len_at above, buf only grows
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Decoder: the checkpoint's own structures (options, length prefixes,
// sections, clusters), read through the container's bounds-checked
// [`ByteReader`].

impl From<Truncated> for CheckpointError {
    fn from(_: Truncated) -> Self {
        CheckpointError::Truncated
    }
}

/// Reads an option: a 0/1 tag, then the value `read` decodes when present.
fn opt<'a, T>(
    d: &mut ByteReader<'a>,
    read: impl FnOnce(&mut ByteReader<'a>) -> Result<T, Truncated>,
) -> Result<Option<T>, CheckpointError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read(d)?)),
        _ => Err(CheckpointError::Malformed("option tag")),
    }
}

/// Reads a length prefix, bounding it by the bytes actually left (each item
/// occupies at least `min_item_size` bytes) so a corrupt count can not
/// trigger an absurd allocation.
fn len_prefix(d: &mut ByteReader<'_>, min_item_size: usize) -> Result<usize, CheckpointError> {
    let n = d.u64()?;
    let max = d.remaining() / min_item_size.max(1);
    if n as usize > max {
        return Err(CheckpointError::Truncated);
    }
    Ok(n as usize)
}

fn members(d: &mut ByteReader<'_>) -> Result<Cluster, CheckpointError> {
    let n = len_prefix(d, 8)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(ObjectId(d.u64()?));
    }
    if !ids.is_sorted_by(|a, b| a < b) {
        return Err(CheckpointError::Malformed("cluster members not ascending"));
    }
    Ok(Cluster::new(ids))
}

fn convoys(d: &mut ByteReader<'_>) -> Result<Vec<Convoy>, CheckpointError> {
    let n = len_prefix(d, 24)?;
    (0..n)
        .map(|_| {
            let objects = members(d)?;
            let start = d.i64()?;
            let end = d.i64()?;
            if start > end {
                return Err(CheckpointError::Malformed("convoy interval inverted"));
            }
            Ok(Convoy::new(objects, start, end))
        })
        .collect()
}

fn cmc_state(d: &mut ByteReader<'_>) -> Result<CmcStateSnapshot, CheckpointError> {
    Ok(CmcStateSnapshot {
        current: convoys(d)?,
        closed: convoys(d)?,
        peak_candidates: d.u64()? as usize,
        last_tick: opt(d, ByteReader::i64)?,
        ticks_ingested: d.u64()?,
        gap_closures: d.u64()?,
        convoys_closed: d.u64()?,
    })
}

/// Reads a section header, returning a reader over exactly the section's
/// payload.
fn section<'a>(
    d: &mut ByteReader<'a>,
    expected_tag: u32,
) -> Result<ByteReader<'a>, CheckpointError> {
    let tag = d.u32()?;
    if tag != expected_tag {
        return Err(CheckpointError::Malformed("unexpected section tag"));
    }
    let len = d.u64()?;
    if len > d.remaining() as u64 {
        return Err(CheckpointError::Truncated);
    }
    Ok(ByteReader::new(d.take(len as usize)?))
}

/// Asserts the section's reader consumed its payload exactly.
fn finish_section(d: ByteReader<'_>, what: &'static str) -> Result<(), CheckpointError> {
    if d.remaining() != 0 {
        return Err(CheckpointError::Malformed(what));
    }
    Ok(())
}

fn decode_config(d: &mut ByteReader<'_>) -> Result<StreamConfig, CheckpointError> {
    let m = d.u64()? as usize;
    let k = d.u64()? as usize;
    let e = d.f64()?;
    let variant = match d.u8()? {
        0 => CutsVariant::Cuts,
        1 => CutsVariant::CutsPlus,
        2 => CutsVariant::CutsStar,
        _ => return Err(CheckpointError::Malformed("CuTS variant")),
    };
    let delta = d.f64()?;
    let lambda = d.u64()? as usize;
    let tolerance_mode = match d.u8()? {
        0 => ToleranceMode::Actual,
        1 => ToleranceMode::Global,
        _ => return Err(CheckpointError::Malformed("tolerance mode")),
    };
    let horizon = opt(d, ByteReader::i64)?;
    let max_candidates = opt(d, ByteReader::u64)?.map(|v| v as usize);
    // A λ the configuration would clamp is not one a stream ever ran.
    if m == 0
        || k == 0
        || !e.is_finite()
        || !delta.is_finite()
        || TimePartition::clamp_lambda(lambda) != lambda
    {
        return Err(CheckpointError::Malformed("configuration out of range"));
    }
    Ok(StreamConfig::new(ConvoyQuery::new(m, k, e), delta, lambda)
        .with_variant(variant)
        .with_tolerance_mode(tolerance_mode)
        .with_eviction(EvictionPolicy {
            horizon,
            max_candidates,
        }))
}

impl ConvoyStream {
    /// Serializes the stream's resumable state to checkpoint bytes (see the
    /// module docs for the format).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        // The buffered samples (24 bytes each, 16 more per object) are
        // nearly all of a checkpoint; 256 bytes cover the fixed sections.
        let capacity = 256 + 16 * self.buffers.len() + 24 * self.samples_buffered;
        let mut e = Enc {
            buf: Vec::with_capacity(capacity),
        };
        e.buf.extend_from_slice(&MAGIC);
        e.u32(FORMAT_VERSION);

        let config = self.config;
        e.section(TAG_CONFIG, |e| {
            e.u64(config.query.m as u64);
            e.u64(config.query.k as u64);
            e.f64(config.query.e);
            e.u8(match config.variant {
                CutsVariant::Cuts => 0,
                CutsVariant::CutsPlus => 1,
                CutsVariant::CutsStar => 2,
            });
            e.f64(config.delta);
            e.u64(config.lambda as u64);
            e.u8(match config.tolerance_mode {
                ToleranceMode::Actual => 0,
                ToleranceMode::Global => 1,
            });
            e.opt_i64(config.eviction.horizon);
            e.opt_u64(config.eviction.max_candidates.map(|v| v as u64));
        });

        e.section(TAG_WATERMARK, |e| e.opt_i64(self.watermark));

        e.section(TAG_BUFFERS, |e| {
            e.u64(self.buffers.len() as u64);
            for (object, buffer) in &self.buffers {
                e.u64(object.0);
                e.u64(buffer.samples().len() as u64);
                for p in buffer.samples() {
                    e.f64(p.x);
                    e.f64(p.y);
                    e.i64(p.t);
                }
            }
        });

        e.section(TAG_FILTER, |e| e.opt_i64(self.partition_start));

        let fold = &self.fold;
        e.section(TAG_FOLD, |e| {
            e.cmc_state(&fold.state.export_state());
            e.u64(fold.evicted);
        });

        e.section(TAG_OUTPUT, |e| e.convoys(&self.ready));

        e.section(TAG_STATS, |e| {
            e.u64(self.partitions_closed);
            e.u64(self.peak_samples_buffered as u64);
        });

        let crc = crc32(&e.buf);
        e.u32(crc);
        e.buf
    }

    /// Restores a stream from checkpoint bytes. Strict: any truncation,
    /// corruption or format violation yields an error, never a partial
    /// stream.
    pub fn from_checkpoint_bytes(bytes: &[u8]) -> Result<ConvoyStream, CheckpointError> {
        ConvoyStream::from_checkpoint_bytes_obs(bytes, &Obs::noop())
    }

    /// Like [`ConvoyStream::from_checkpoint_bytes`], recording the restore's
    /// `checkpoint.bytes_read` and `checkpoint.crc_verify_ns` metrics into
    /// `obs`. The recorder is *not* attached to the restored stream — call
    /// [`ConvoyStream::set_obs`] (or use [`ConvoyStream::restore_with_obs`])
    /// for that.
    pub fn from_checkpoint_bytes_obs(
        bytes: &[u8],
        obs: &Obs,
    ) -> Result<ConvoyStream, CheckpointError> {
        // Trailer first: magic, then whole-file integrity, then version —
        // so a bit flip anywhere (the version field included) is reported as
        // corruption, while an intact newer-format file is reported as such.
        if bytes.len() < MAGIC.len() + 4 + 4 {
            return Err(if bytes.starts_with(&MAGIC) || MAGIC.starts_with(bytes) {
                CheckpointError::Truncated
            } else {
                CheckpointError::BadMagic
            });
        }
        if !bytes.starts_with(&MAGIC) {
            return Err(CheckpointError::BadMagic);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let mut stored = [0u8; 4];
        for (dst, byte) in stored.iter_mut().zip(trailer) {
            *dst = *byte;
        }
        let stored_crc = u32::from_le_bytes(stored);
        let live = obs.enabled();
        let crc_started_ns = if live { obs.now_ns() } else { 0 };
        let crc_ok = crc32(body) == stored_crc;
        if live {
            obs.histogram_record(
                "checkpoint.crc_verify_ns",
                obs.now_ns().saturating_sub(crc_started_ns),
            );
            obs.counter_add("checkpoint.bytes_read", bytes.len() as u64);
        }
        if !crc_ok {
            return Err(CheckpointError::ChecksumMismatch);
        }

        let mut d = ByteReader::new(body);
        d.take(MAGIC.len())?; // the magic, checked above
        let version = d.u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }

        let mut s = section(&mut d, TAG_CONFIG)?;
        let config = decode_config(&mut s)?;
        finish_section(s, "trailing bytes in config section")?;

        let mut s = section(&mut d, TAG_WATERMARK)?;
        let watermark = opt(&mut s, ByteReader::i64)?;
        finish_section(s, "trailing bytes in watermark section")?;

        let mut s = section(&mut d, TAG_BUFFERS)?;
        let n = len_prefix(&mut s, 16)?;
        let mut buffers: BTreeMap<ObjectId, ObjectBuffer> = BTreeMap::new();
        let mut samples_buffered = 0usize;
        let mut prev_object: Option<ObjectId> = None;
        for _ in 0..n {
            let object = ObjectId(s.u64()?);
            if prev_object.is_some_and(|prev| prev >= object) {
                return Err(CheckpointError::Malformed("buffers not ascending"));
            }
            prev_object = Some(object);
            let count = len_prefix(&mut s, 24)?;
            let mut samples = Vec::with_capacity(count);
            for _ in 0..count {
                let x = s.f64()?;
                let y = s.f64()?;
                let t = s.i64()?;
                if !(x.is_finite() && y.is_finite()) {
                    return Err(CheckpointError::Malformed("non-finite buffered sample"));
                }
                samples.push(TrajPoint::new(x, y, t));
            }
            samples_buffered += samples.len();
            let buffer = ObjectBuffer::from_samples(samples)
                .ok_or(CheckpointError::Malformed("buffer samples out of order"))?;
            // Each buffer's newest sample is its object's feed-order cursor,
            // so it can never lie past the watermark.
            if watermark.is_none_or(|w| buffer.last_t() > w) {
                return Err(CheckpointError::Malformed(
                    "buffered sample newer than the watermark",
                ));
            }
            buffers.insert(object, buffer);
        }
        finish_section(s, "trailing bytes in buffers section")?;

        let mut s = section(&mut d, TAG_FILTER)?;
        let partition_start = opt(&mut s, ByteReader::i64)?;
        finish_section(s, "trailing bytes in filter section")?;

        let mut s = section(&mut d, TAG_FOLD)?;
        let state = cmc_state(&mut s)?;
        let fold_evicted = s.u64()?;
        finish_section(s, "trailing bytes in fold section")?;

        let mut s = section(&mut d, TAG_OUTPUT)?;
        let ready = convoys(&mut s)?;
        finish_section(s, "trailing bytes in output section")?;

        let mut s = section(&mut d, TAG_STATS)?;
        let partitions_closed = s.u64()?;
        let peak_samples_buffered = s.u64()? as usize;
        finish_section(s, "trailing bytes in stats section")?;

        if d.remaining() != 0 {
            return Err(CheckpointError::Malformed("trailing bytes after sections"));
        }

        let mut stream = ConvoyStream::new(config);
        stream.watermark = watermark;
        stream.buffers = buffers;
        stream.partition_start = partition_start;
        stream.fold.state = CmcState::from_state(&config.query, state);
        stream.fold.evicted = fold_evicted;
        stream.ready = ready;
        stream.partitions_closed = partitions_closed;
        stream.samples_buffered = samples_buffered;
        stream.peak_samples_buffered = peak_samples_buffered.max(samples_buffered);
        Ok(stream)
    }

    /// Writes a checkpoint to `path` atomically and durably, without
    /// unlinking a data inode: beside `path` the write keeps one spare,
    /// checkpoint-sized file, `<path>.spare`, which holds the previous
    /// checkpoint and is overwritten by the next one. With `dir` the parent
    /// directory (`.` for a bare file name), each write
    ///
    /// 0. syncs `dir`, so the renames of an earlier write are durable
    ///    before its spare is overwritten in place;
    /// 1. drops a stray `<path>.prev`, which only a stop mid-write leaves:
    ///    after step 3 it is a second link to `path`, after step 4 the old
    ///    checkpoint's last link, so dropping it frees at most one
    ///    checkpoint's blocks, once after a crash;
    /// 2. overwrites `<path>.spare` in place (creating it if missing),
    ///    trims it to the new length and syncs it; a spare created here is
    ///    made durable by a sync of `dir`, so a later link can never
    ///    outlive it;
    /// 3. hard-links `path` as `<path>.prev`;
    /// 4. renames the spare over `path`: the old inode stays linked as
    ///    `.prev`, so no block is freed;
    /// 5. renames `<path>.prev` to `<path>.spare`;
    /// 6. syncs `dir`, so the renames survive a power loss.
    ///
    /// When the link fails (the first write, or a file system without hard
    /// links) only step 5 is skipped. At every step `path` names a complete,
    /// synced checkpoint: a crash can lose the checkpoint being written,
    /// never corrupt the previous one, and the next write reuses whatever
    /// spare it left.
    pub fn checkpoint<P: AsRef<Path>>(&self, path: P) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        // The guard ends the `checkpoint.write` span on every exit path,
        // early I/O errors included.
        let _span = self.obs.span_guard("checkpoint.write", self.root_span);
        let bytes = self.checkpoint_bytes();
        let sibling = |suffix: &str| {
            let mut name = path.as_os_str().to_owned();
            name.push(suffix);
            std::path::PathBuf::from(name)
        };
        let (spare, prev) = (sibling(".spare"), sibling(".prev"));
        let dir = path
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        let sync_dir = || std::fs::File::open(dir)?.sync_all();
        let live = self.obs.enabled();

        sync_dir()?;
        if prev.exists() {
            std::fs::remove_file(&prev)?;
        }
        let newly_named = !spare.exists();
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&spare)?;
        file.write_all(&bytes)?;
        file.set_len(bytes.len() as u64)?;
        let fsync_started_ns = if live { self.obs.now_ns() } else { 0 };
        file.sync_all()?;
        if live {
            self.obs.histogram_record(
                "checkpoint.fsync_ns",
                self.obs.now_ns().saturating_sub(fsync_started_ns),
            );
        }
        if newly_named {
            sync_dir()?;
        }
        let linked = std::fs::hard_link(path, &prev).is_ok();
        std::fs::rename(&spare, path)?;
        if linked {
            std::fs::rename(&prev, &spare)?;
        }
        sync_dir()?;
        if live {
            self.obs.counter_add("checkpoint.writes", 1);
            self.obs
                .counter_add("checkpoint.bytes_written", bytes.len() as u64);
        }
        Ok(())
    }

    /// Restores a stream from a checkpoint file written by
    /// [`ConvoyStream::checkpoint`]. The stream's full configuration rides
    /// in the checkpoint, so nothing else needs to be supplied.
    pub fn restore<P: AsRef<Path>>(path: P) -> Result<ConvoyStream, CheckpointError> {
        let bytes = std::fs::read(path)?;
        ConvoyStream::from_checkpoint_bytes(&bytes)
    }

    /// Like [`ConvoyStream::restore`], recording the restore metrics into
    /// `obs` and attaching it to the restored stream (equivalent to calling
    /// [`ConvoyStream::set_obs`] afterwards).
    pub fn restore_with_obs<P: AsRef<Path>>(
        path: P,
        obs: &Obs,
    ) -> Result<ConvoyStream, CheckpointError> {
        let bytes = std::fs::read(path)?;
        let mut stream = ConvoyStream::from_checkpoint_bytes_obs(&bytes, obs)?;
        stream.set_obs(obs.clone());
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeedIngest;

    /// Checkpoint bytes (CRC valid) of a stream holding a t=2 sample, with
    /// its watermark overwritten: the encoder writes whatever it is given.
    fn bytes_with_watermark(watermark: Option<i64>) -> Vec<u8> {
        let mut stream = ConvoyStream::new(StreamConfig::new(ConvoyQuery::new(2, 3, 1.0), 0.2, 4));
        for (o, t) in [(0, 0), (1, 0), (0, 1), (1, 2)] {
            assert!(stream.push(ObjectId(o), t, t as f64, 0.0).is_ok());
        }
        stream.watermark = watermark;
        stream.checkpoint_bytes()
    }

    #[test]
    fn buffers_past_the_watermark_are_malformed() {
        assert!(ConvoyStream::from_checkpoint_bytes(&bytes_with_watermark(Some(2))).is_ok());
        for watermark in [Some(1), None] {
            assert!(matches!(
                ConvoyStream::from_checkpoint_bytes(&bytes_with_watermark(watermark)),
                Err(CheckpointError::Malformed(
                    "buffered sample newer than the watermark"
                ))
            ));
        }
    }

    #[test]
    fn lambda_beyond_the_time_axis_is_malformed() {
        let mut stream = ConvoyStream::new(StreamConfig::new(ConvoyQuery::new(2, 3, 1.0), 0.2, 4));
        stream.config.lambda = i64::MAX as usize;
        assert!(ConvoyStream::from_checkpoint_bytes(&stream.checkpoint_bytes()).is_ok());
        for lambda in [i64::MAX as usize + 1, usize::MAX] {
            stream.config.lambda = lambda;
            assert!(matches!(
                ConvoyStream::from_checkpoint_bytes(&stream.checkpoint_bytes()),
                Err(CheckpointError::Malformed("configuration out of range"))
            ));
        }
    }

    /// What a file beside the checkpoint holds when a write stops.
    #[derive(Clone, Copy)]
    enum Held {
        /// The checkpoint on disk before the write.
        Old,
        /// The checkpoint being written.
        New,
        /// The first half of the new checkpoint (a stop mid-overwrite).
        Torn,
        /// Bytes longer than any checkpoint here, so a write must trim.
        Garbage,
        /// A second link to the inode `path` names.
        LinkToPath,
    }

    /// The directory states a stop after each step of a checkpoint write
    /// can leave, as `(suffix, content)` files created in order; `""` is
    /// `path` itself.
    const STOPS: &[(&str, &[(&str, Held)])] = &[
        ("no checkpoint yet", &[]),
        ("first write, torn spare", &[(".spare", Held::Torn)]),
        ("first write, spare synced", &[(".spare", Held::New)]),
        ("no spare", &[("", Held::Old)]),
        (
            "after steps 0-1",
            &[("", Held::Old), (".spare", Held::Garbage)],
        ),
        ("mid step 2", &[("", Held::Old), (".spare", Held::Torn)]),
        ("after step 2", &[("", Held::Old), (".spare", Held::New)]),
        (
            "after step 3: a .prev beside the .spare",
            &[
                ("", Held::Old),
                (".spare", Held::New),
                (".prev", Held::LinkToPath),
            ],
        ),
        (
            "after step 3, spare since deleted: a .prev linked to path",
            &[("", Held::Old), (".prev", Held::LinkToPath)],
        ),
        (
            "after step 4: a stray .prev, no spare",
            &[("", Held::New), (".prev", Held::Old)],
        ),
        ("after step 5", &[("", Held::New), (".spare", Held::Old)]),
    ];

    #[test]
    fn every_stop_in_a_write_leaves_a_restorable_checkpoint(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let dir =
            std::env::temp_dir().join(format!("convoy-checkpoint-stops-{}", std::process::id()));
        let mut stream = ConvoyStream::new(StreamConfig::new(ConvoyQuery::new(2, 3, 1.0), 0.2, 4));
        let mut bytes = Vec::new();
        for t in 0..3 {
            for o in 0..=t {
                stream.push(ObjectId(o as u64), t, t as f64, o as f64)?;
            }
            bytes.push(stream.checkpoint_bytes());
        }
        let [old, new, _] = &bytes[..] else {
            return Err("three checkpoints".into());
        };
        let file = |suffix: &str| {
            let mut name = dir.join("state.snap").into_os_string();
            name.push(suffix);
            std::path::PathBuf::from(name)
        };
        let path = file("");
        for &(stop, files) in STOPS {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir)?;
            for &(suffix, held) in files {
                let content = match held {
                    Held::Old => old.clone(),
                    Held::New => new.clone(),
                    Held::Torn => new[..new.len() / 2].to_vec(),
                    Held::Garbage => vec![0xAB; 3 * new.len()],
                    Held::LinkToPath => {
                        std::fs::hard_link(&path, file(suffix))?;
                        continue;
                    }
                };
                std::fs::write(file(suffix), content)?;
            }

            // A restore reads the old or the new checkpoint, never a mix.
            let before = std::fs::read(&path).ok();
            match &before {
                None => assert!(ConvoyStream::restore(&path).is_err(), "{stop}"),
                Some(held) => {
                    assert!(held == old || held == new, "{stop}: path holds a mix");
                    assert!(ConvoyStream::restore(&path).is_ok(), "{stop}");
                }
            }

            // The next two writes succeed, land exactly their bytes and keep
            // the checkpoint they replace as a separate spare file: `path`
            // and `.spare` read different bytes, so they are not two links
            // to one inode.
            stream.checkpoint(&path)?;
            assert_eq!(std::fs::read(&path)?, stream.checkpoint_bytes(), "{stop}");
            assert_eq!(std::fs::read(file(".spare")).ok(), before, "{stop}");
            let written = stream.checkpoint_bytes();
            stream.push(ObjectId(0), 3, 3.0, 0.0)?;
            stream.checkpoint(&path)?;
            assert_eq!(std::fs::read(&path)?, stream.checkpoint_bytes(), "{stop}");
            assert_eq!(std::fs::read(file(".spare"))?, written, "{stop}");
            assert!(ConvoyStream::restore(&path).is_ok(), "{stop}");
            for stray in [".prev", ".tmp"] {
                assert!(!file(stray).exists(), "{stop}: {stray} left behind");
            }

            // Rewind the stream to the third checkpoint for the next stop.
            stream = ConvoyStream::from_checkpoint_bytes(&bytes[2])?;
        }
        std::fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn version_one_files_are_unsupported() {
        for version in [1u32, 2, 3] {
            let mut bytes = bytes_with_watermark(Some(2));
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let body = bytes.len() - 4;
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                ConvoyStream::from_checkpoint_bytes(&bytes),
                Err(CheckpointError::UnsupportedVersion(v)) if v == version
            ));
        }
    }
}
