//! Crash-safe checkpoint/restore for [`ConvoyStream`].
//!
//! A checkpoint captures everything a stream needs to resume
//! **bit-identically**: the feed validator (watermark + per-object cursors),
//! the per-object sample buffers, the partition cursor, the coarse candidate
//! chain, the refinement fold (including its held-back boundary partition),
//! the undrained output, and every lifetime counter. Scratch state — the
//! snapshot clusterer, the dedup index, the cached partition blocker — is
//! deliberately *not* stored: a restored stream rebuilds it empty, which is
//! output-neutral (`run N ticks → checkpoint → restore → run M ticks` equals
//! `run N+M ticks` on raw convoys and [`crate::StreamStats`] alike;
//! `tests/checkpoint_equivalence.rs` locks this in).
//!
//! ## File format (version 1)
//!
//! ```text
//! magic   8 bytes   b"CONVOYCK"
//! version u32 LE    1
//! 7 sections, fixed order, each: tag u32 LE + payload length u64 LE + payload
//!   1 CONFIG     query (m, k, e), variant, δ, λ, tolerance mode, eviction
//!   2 VALIDATOR  watermark + per-object last timestamps (ascending ids)
//!   3 BUFFERS    per-object samples (ascending ids, ascending timestamps)
//!   4 FILTER     partition cursor + candidate-chain state
//!   5 FOLD       refinement-fold state (CmcState view + boundary coverage)
//!   6 OUTPUT     undrained convoys and candidates
//!   7 STATS      stream counters not derivable from the sections above
//! crc32   u32 LE    IEEE CRC-32 of every preceding byte
//! ```
//!
//! All integers are little-endian; floats are stored as their IEEE-754 bit
//! patterns (`f64::to_le_bytes`), so a round trip is bit-exact. Collections
//! are length-prefixed (`u64`) and written in a deterministic order, so the
//! same state always serializes to the same bytes.
//!
//! [`ConvoyStream::checkpoint`] writes to a sibling temp file, syncs it, and
//! atomically renames it over the destination — a crash mid-write can lose
//! the checkpoint being written, never corrupt the previous one. Decoding is
//! strict: a truncated, bit-flipped, version-bumped or trailing-garbage file
//! is rejected with a [`CheckpointError`], never a panic or a partial
//! restore.

// This module faces arbitrary bytes; every abort path is a bug. Enforced
// three ways: convoy-lint's no-panic-decode rule, the every-byte-flip
// corruption suite, and clippy at the module level:
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::buffer::ObjectBuffer;
use crate::config::{EvictionPolicy, StreamConfig};
use crate::stream::ConvoyStream;
use convoy_core::{
    CandidateChain, CandidateChainSnapshot, CandidateConvoy, CmcStateSnapshot, Convoy, ConvoyQuery,
    CutsVariant, RefineFold, RefineFoldSnapshot,
};
use convoy_obs::Obs;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use traj_cluster::Cluster;
use traj_simplify::ToleranceMode;
use trajectory::{
    FeedValidator, FeedValidatorSnapshot, ObjectId, TimeInterval, TimePoint, TrajPoint,
};

/// The trailer checksum: the `.convoy` container's IEEE CRC-32, shared.
pub use traj_datasets::container::crc32;

/// The checkpoint file's magic bytes.
pub const MAGIC: [u8; 8] = *b"CONVOYCK";

/// The current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

const TAG_CONFIG: u32 = 1;
const TAG_VALIDATOR: u32 = 2;
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
    fn candidate(&mut self, c: &CandidateConvoy) {
        self.members(&c.objects);
        self.i64(c.start);
        self.i64(c.end);
    }
    fn candidates(&mut self, cs: &[CandidateConvoy]) {
        self.u64(cs.len() as u64);
        for c in cs {
            self.candidate(c);
        }
    }
    fn convoys(&mut self, cs: &[Convoy]) {
        self.u64(cs.len() as u64);
        for c in cs {
            self.members(&c.objects);
            self.i64(c.start);
            self.i64(c.end);
        }
    }
    fn cmc_state(&mut self, s: &CmcStateSnapshot) {
        self.candidates(&s.current);
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
// Decoder

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(CheckpointError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    /// Reads exactly `N` bytes into a fixed-size array. The copy is bounded
    /// by both sides of the `zip`, so no length mismatch can panic — unlike
    /// `try_into().unwrap()` or `copy_from_slice`, there is no abort path on
    /// corrupt input.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let src = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, byte) in out.iter_mut().zip(src) {
            *dst = *byte;
        }
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        let [b] = self.take_array::<1>()?;
        Ok(b)
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
    fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }
    fn opt_i64(&mut self) -> Result<Option<i64>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            _ => Err(CheckpointError::Malformed("option tag")),
        }
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(CheckpointError::Malformed("option tag")),
        }
    }
    /// Reads a length prefix, bounding it by the bytes actually left (each
    /// item occupies at least `min_item_size` bytes) so a corrupt count can
    /// not trigger an absurd allocation.
    fn len_prefix(&mut self, min_item_size: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let max = self.remaining() / min_item_size.max(1);
        if n as usize > max {
            return Err(CheckpointError::Truncated);
        }
        Ok(n as usize)
    }
    fn members(&mut self) -> Result<Cluster, CheckpointError> {
        let n = self.len_prefix(8)?;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(ObjectId(self.u64()?));
        }
        if !ids.is_sorted_by(|a, b| a < b) {
            return Err(CheckpointError::Malformed("cluster members not ascending"));
        }
        Ok(Cluster::new(ids))
    }
    fn candidate(&mut self) -> Result<CandidateConvoy, CheckpointError> {
        let objects = self.members()?;
        let start = self.i64()?;
        let end = self.i64()?;
        if start > end {
            return Err(CheckpointError::Malformed("candidate interval inverted"));
        }
        Ok(CandidateConvoy::new(objects, start, end))
    }
    fn candidates(&mut self) -> Result<Vec<CandidateConvoy>, CheckpointError> {
        let n = self.len_prefix(24)?;
        (0..n).map(|_| self.candidate()).collect()
    }
    fn convoys(&mut self) -> Result<Vec<Convoy>, CheckpointError> {
        let n = self.len_prefix(24)?;
        (0..n)
            .map(|_| {
                let objects = self.members()?;
                let start = self.i64()?;
                let end = self.i64()?;
                if start > end {
                    return Err(CheckpointError::Malformed("convoy interval inverted"));
                }
                Ok(Convoy::new(objects, start, end))
            })
            .collect()
    }
    fn cmc_state(&mut self) -> Result<CmcStateSnapshot, CheckpointError> {
        Ok(CmcStateSnapshot {
            current: self.candidates()?,
            closed: self.convoys()?,
            peak_candidates: self.u64()? as usize,
            last_tick: self.opt_i64()?,
            ticks_ingested: self.u64()?,
            gap_closures: self.u64()?,
            convoys_closed: self.u64()?,
        })
    }
    /// Reads a section header, returning a sub-decoder over exactly the
    /// section's payload.
    fn section(&mut self, expected_tag: u32) -> Result<Dec<'a>, CheckpointError> {
        let tag = self.u32()?;
        if tag != expected_tag {
            return Err(CheckpointError::Malformed("unexpected section tag"));
        }
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(CheckpointError::Truncated);
        }
        let body = self.take(len as usize)?;
        Ok(Dec {
            bytes: body,
            pos: 0,
        })
    }
    /// Asserts the decoder consumed its input exactly.
    fn finish_section(self, what: &'static str) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::Malformed(what));
        }
        Ok(())
    }
}

fn decode_config(d: &mut Dec<'_>) -> Result<StreamConfig, CheckpointError> {
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
    let horizon = d.opt_i64()?;
    let max_candidates = d.opt_u64()?.map(|v| v as usize);
    if m == 0 || k == 0 || !e.is_finite() || !delta.is_finite() || lambda < 2 {
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
        let mut e = Enc {
            buf: Vec::with_capacity(256),
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

        let validator = self.validator.export_state();
        e.section(TAG_VALIDATOR, |e| {
            e.opt_i64(validator.watermark);
            e.u64(validator.last_per_object.len() as u64);
            for (object, t) in &validator.last_per_object {
                e.u64(object.0);
                e.i64(*t);
            }
        });

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

        let chain = self.chain.export_state();
        e.section(TAG_FILTER, |e| {
            e.opt_i64(self.partition_start);
            e.candidates(&chain.current);
            e.candidates(&chain.closed);
            e.u64(chain.peak_open as u64);
            e.u64(chain.partitions_folded);
        });

        let fold = self.fold.export_state();
        e.section(TAG_FOLD, |e| {
            e.cmc_state(&fold.state);
            match &fold.prev {
                None => e.u8(0),
                Some((window, coverage)) => {
                    e.u8(1);
                    e.i64(window.start);
                    e.i64(window.end);
                    e.u64(coverage.len() as u64);
                    for id in coverage {
                        e.u64(id.0);
                    }
                }
            }
            e.opt_i64(fold.last_tick);
            e.u64(fold.evicted);
        });

        e.section(TAG_OUTPUT, |e| {
            e.convoys(&self.ready);
            e.candidates(&self.ready_candidates);
        });

        e.section(TAG_STATS, |e| {
            e.u64(self.partitions_closed);
            e.u64(self.filter_candidates);
            e.u64(self.chain_evicted);
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

        let mut d = Dec {
            bytes: body,
            pos: MAGIC.len(),
        };
        let version = d.u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }

        let mut s = d.section(TAG_CONFIG)?;
        let config = decode_config(&mut s)?;
        s.finish_section("trailing bytes in config section")?;

        let mut s = d.section(TAG_VALIDATOR)?;
        let watermark = s.opt_i64()?;
        let n = s.len_prefix(16)?;
        let mut last_per_object: Vec<(ObjectId, TimePoint)> = Vec::with_capacity(n);
        for _ in 0..n {
            let object = ObjectId(s.u64()?);
            let t = s.i64()?;
            last_per_object.push((object, t));
        }
        if !last_per_object.is_sorted_by(|a, b| a.0 < b.0) {
            return Err(CheckpointError::Malformed(
                "validator entries not ascending",
            ));
        }
        s.finish_section("trailing bytes in validator section")?;
        let validator = FeedValidator::from_state(FeedValidatorSnapshot {
            watermark,
            last_per_object,
        });

        let mut s = d.section(TAG_BUFFERS)?;
        let n = s.len_prefix(16)?;
        let mut buffers: BTreeMap<ObjectId, ObjectBuffer> = BTreeMap::new();
        let mut samples_buffered = 0usize;
        let mut prev_object: Option<ObjectId> = None;
        for _ in 0..n {
            let object = ObjectId(s.u64()?);
            if prev_object.is_some_and(|prev| prev >= object) {
                return Err(CheckpointError::Malformed("buffers not ascending"));
            }
            prev_object = Some(object);
            let count = s.len_prefix(24)?;
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
            buffers.insert(object, buffer);
        }
        s.finish_section("trailing bytes in buffers section")?;

        let mut s = d.section(TAG_FILTER)?;
        let partition_start = s.opt_i64()?;
        let chain = CandidateChainSnapshot {
            current: s.candidates()?,
            closed: s.candidates()?,
            peak_open: s.u64()? as usize,
            partitions_folded: s.u64()?,
        };
        s.finish_section("trailing bytes in filter section")?;

        let mut s = d.section(TAG_FOLD)?;
        let state = s.cmc_state()?;
        let prev = match s.u8()? {
            0 => None,
            1 => {
                let start = s.i64()?;
                let end = s.i64()?;
                let count = s.len_prefix(8)?;
                let mut coverage = Vec::with_capacity(count);
                for _ in 0..count {
                    coverage.push(ObjectId(s.u64()?));
                }
                if !coverage.is_sorted_by(|a, b| a < b) {
                    return Err(CheckpointError::Malformed("fold coverage not ascending"));
                }
                if start > end {
                    return Err(CheckpointError::Malformed("fold window inverted"));
                }
                Some((TimeInterval::new(start, end), coverage))
            }
            _ => return Err(CheckpointError::Malformed("option tag")),
        };
        let fold = RefineFoldSnapshot {
            state,
            prev,
            last_tick: s.opt_i64()?,
            evicted: s.u64()?,
        };
        s.finish_section("trailing bytes in fold section")?;

        let mut s = d.section(TAG_OUTPUT)?;
        let ready = s.convoys()?;
        let ready_candidates = s.candidates()?;
        s.finish_section("trailing bytes in output section")?;

        let mut s = d.section(TAG_STATS)?;
        let partitions_closed = s.u64()?;
        let filter_candidates = s.u64()?;
        let chain_evicted = s.u64()?;
        let peak_samples_buffered = s.u64()? as usize;
        s.finish_section("trailing bytes in stats section")?;

        if d.remaining() != 0 {
            return Err(CheckpointError::Malformed("trailing bytes after sections"));
        }

        let mut stream = ConvoyStream::new(config);
        stream.validator = validator;
        stream.buffers = buffers;
        stream.partition_start = partition_start;
        stream.chain = CandidateChain::from_state(&config.query, chain);
        stream.fold = RefineFold::from_state(
            &config.query,
            config.eviction.horizon,
            config.eviction.max_candidates,
            fold,
        );
        stream.ready = ready;
        stream.ready_candidates = ready_candidates;
        stream.partitions_closed = partitions_closed;
        stream.filter_candidates = filter_candidates;
        stream.chain_evicted = chain_evicted;
        stream.samples_buffered = samples_buffered;
        stream.peak_samples_buffered = peak_samples_buffered.max(samples_buffered);
        Ok(stream)
    }

    /// Writes a checkpoint to `path` atomically: the bytes go to a sibling
    /// `<path>.tmp`, are synced to disk, and are renamed over `path` in one
    /// step — a crash mid-write never corrupts an existing checkpoint.
    pub fn checkpoint<P: AsRef<Path>>(&self, path: P) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let live = self.obs.enabled();
        // The guard ends the `checkpoint.write` span on every exit path,
        // early I/O errors included.
        let _span = self.obs.span_guard("checkpoint.write", self.root_span);
        let bytes = self.checkpoint_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            let fsync_started_ns = if live { self.obs.now_ns() } else { 0 };
            file.sync_all()?;
            if live {
                self.obs.histogram_record(
                    "checkpoint.fsync_ns",
                    self.obs.now_ns().saturating_sub(fsync_started_ns),
                );
            }
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
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
