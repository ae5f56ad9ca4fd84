//! Tiered mailbox residency: a bounded hot pool per shard plus a
//! log-structured cold tier on disk, so mailbox state can exceed RAM.
//!
//! The paper budgets mailbox memory explicitly (§4.3) — it is the
//! storage-heavy half of the model — and the per-node activity skew of
//! real interaction streams means a small hot set receives most mail.
//! [`TierShard`] exploits that: each mailbox shard keeps at most `cap`
//! node mailboxes resident in a fixed-size [`MailboxStore`] slot pool,
//! orders them by an intrusive LRU list, and spills the least-recently
//! touched mailbox to the shared [`ColdTier`] when the pool is full.
//! Reading or delivering to a spilled node promotes it back (eviction
//! makes room first), so the hot pool always tracks the working set.
//!
//! The cold tier is an append-only, log-structured segment store:
//! fixed-size records (`node id | payload | FNV-1a-64 digest`, the same
//! checksum discipline as snapshot v2), newest record per node wins,
//! superseded records become dead bytes, and a compaction pass rewrites
//! live records into fresh segments once dead bytes dominate. Opening a
//! directory left behind by a crashed process verifies record digests
//! in order and physically truncates the torn tail; the surviving
//! records are treated as *dead* — the serving snapshot, not the spill
//! log, is the durable truth, so a warm restart repopulates the cold
//! tier from the restored snapshot and stays bitwise on the oracle.
//!
//! Tiering is a pure residency transform: a mailbox's bytes round-trip
//! through [`MailboxStore::export_node_bytes`] losslessly, and the LRU
//! affects only *where* a mailbox lives, never its contents — so
//! `to_flat` over a tiered store is bitwise identical to the
//! all-resident store for any budget, touch order, or thread count.
//! (Sealed segments — immutable once full — are `mmap`'d read-only via
//! a direct libc syscall (std already links libc; no binding crate), so
//! promotion reads and compaction sweeps are page-cache memcpys; the
//! active segment and non-unix targets fall back to positioned
//! `read_at`/`write_at` I/O. See DESIGN.md §6.16.)
//!
//! Eviction must not cost a syscall: the *active* segment's unwritten
//! suffix lives in a RAM tail buffer, so an append is two `memcpy`s and
//! a digest, reads of recently-spilled records are served from that
//! buffer without touching the file, and the buffer reaches disk only
//! when the segment seals (or on the snapshot path's explicit
//! force-flush). Record digests are FNV-1a-64 *folded over 8-byte
//! little-endian words* (remainder bytes singly) — the same FNV-1a
//! primitive as snapshot v2, folded wider because the byte-serial
//! multiply chain would otherwise dominate the eviction path on
//! multi-KB mailbox records.

use crate::mailbox::{MailOrigin, MailboxStore};
use apan_metrics::{ObsHub, Stage};
use apan_tgraph::{NodeId, Time};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Live counters of the tiered store, shared by every shard and scraped
/// by the serving daemon's `METRICS`/`STATS` surfaces. All zeros when
/// tiering is disabled (no budget configured).
#[derive(Debug, Default)]
pub struct TierStats {
    /// Node mailboxes currently resident in the hot pools.
    pub resident: AtomicU64,
    /// Mailboxes evicted (spilled) to the cold tier, cumulative.
    pub evictions: AtomicU64,
    /// Mailboxes promoted back from the cold tier, cumulative.
    pub promotions: AtomicU64,
    /// Bytes across all cold segment files (headers + live + dead).
    pub cold_bytes: AtomicU64,
    /// Observability hook installed by the serving pipeline; tier
    /// events (evict / promote / cold read) record spans through it.
    obs: Mutex<Option<ObsHub>>,
    /// Fast dormancy flag mirroring `obs`: span helpers bail on one
    /// relaxed load when no hub is installed.
    obs_installed: AtomicBool,
    /// Trace id of the request currently driving tier traffic (set by
    /// the pipeline under its ordering tickets). Best-effort
    /// attribution: concurrent sync reads and deliveries share the cell.
    trace: AtomicU64,
}

impl TierStats {
    /// Installs the hub tier spans are recorded through (the serving
    /// pipeline calls this once at boot, sharing its own hub).
    pub fn install_obs(&self, obs: ObsHub) {
        *self.obs.lock() = Some(obs);
        self.obs_installed.store(true, Ordering::Release);
    }

    /// Tags subsequent tier spans with `trace_id` (0 = untraced).
    pub fn set_trace(&self, trace_id: u64) {
        if self.obs_installed.load(Ordering::Relaxed) {
            self.trace.store(trace_id, Ordering::Relaxed);
        }
    }

    /// Opens a tier span: `None` (one relaxed load, no clock read) when
    /// no hub is installed.
    fn span_start(&self) -> Option<(ObsHub, Duration)> {
        if !self.obs_installed.load(Ordering::Relaxed) {
            return None;
        }
        let obs = self.obs.lock().clone()?;
        let t0 = obs.stamp();
        Some((obs, t0))
    }

    /// Closes a tier span opened by [`TierStats::span_start`].
    fn span_end(&self, started: Option<(ObsHub, Duration)>, stage: Stage) {
        if let Some((obs, t0)) = started {
            let t1 = obs.stamp();
            obs.stage_record(stage, self.trace.load(Ordering::Relaxed), t0, t1);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over 8-byte little-endian words, run as **four
/// independent interleaved lanes** whose digests are FNV-folded
/// together at the end (remainder words and bytes fold into that
/// combined hash). Byte-wise FNV is a serial xor-multiply chain —
/// latency-bound at one multiply per byte; word folding cuts that 8×
/// and the four lanes let the multiplies overlap, making the walk
/// throughput-bound instead. That matters here because every eviction
/// digests and every promotion re-checks a multi-KB record. Same
/// offset-basis/prime discipline as the snapshot-v2 codec; the digest
/// value itself is private to the cold-segment format.
fn fnv1a_words(data: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(w.try_into().unwrap());
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = FNV_OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Segment header: magic, format version, and the geometry that fixes
/// the record size. A mismatching header means a stale spill from a
/// differently-configured run; the file is discarded on open.
const SEG_MAGIC: &[u8; 8] = b"APANCOLD";
const SEG_VERSION: u32 = 1;
const SEG_HEADER_LEN: u64 = 8 + 4 + 4 + 4;
/// Target segment size; a record that would overflow starts a new one.
const SEG_BYTES: u64 = 1 << 20;
/// Compaction triggers once dead records reach this floor *and*
/// [`COMPACT_DEAD_RATIO`]× the live count — i.e. at least ¾ of the log
/// is garbage. The ratio bounds disk at `(1 + ratio) × live` bytes
/// while keeping rewrite amplification ≤ `1/ratio` extra writes per
/// record, and the floor stops tiny tiers from compacting constantly.
const COMPACT_MIN_DEAD: usize = 64;
const COMPACT_DEAD_RATIO: usize = 3;
/// A full active segment is scrubbed in place (instead of sealed) once
/// this many of its RAM-tail records have died — enough reclaimed bytes
/// to be worth the O(tail) walk.
const SCRUB_MIN_DEAD: usize = 16;

/// A read-only `mmap` of a sealed segment file, made with a direct
/// `libc` syscall (std already links libc; no binding crate needed).
/// Sealed segments are immutable — compaction writes replacements and
/// deletes the old file — so a fixed-length shared read-only mapping is
/// sound for the mapping's whole lifetime, and promotion reads become
/// page-cache memcpys instead of `pread` syscalls. Unmapped on drop;
/// unlinking a mapped file is fine on unix (the pages live until
/// munmap).
struct SegmentMap {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// The mapping is private to this struct, read-only, and backed by an
// immutable file: moving or sharing the pointer across threads is safe.
unsafe impl Send for SegmentMap {}
unsafe impl Sync for SegmentMap {}

impl SegmentMap {
    #[cfg(unix)]
    fn new(file: &File, len: u64) -> Option<Self> {
        use std::os::unix::io::AsRawFd;
        const PROT_READ: i32 = 1;
        const MAP_SHARED: i32 = 1;
        extern "C" {
            fn mmap(
                addr: *mut core::ffi::c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut core::ffi::c_void;
        }
        if len == 0 {
            return None;
        }
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len as usize,
                PROT_READ,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        // MAP_FAILED is -1; treat any failure as "no map" and let the
        // caller fall back to positioned reads
        if ptr as isize == -1 {
            return None;
        }
        Some(Self {
            ptr: std::ptr::NonNull::new(ptr.cast())?,
            len: len as usize,
        })
    }

    #[cfg(not(unix))]
    fn new(_file: &File, _len: u64) -> Option<Self> {
        None
    }

    fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for SegmentMap {
    fn drop(&mut self) {
        #[cfg(unix)]
        {
            extern "C" {
                fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
            }
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.len);
            }
        }
    }
}

struct Segment {
    path: PathBuf,
    file: File,
    len: u64,
    /// Present once the segment is sealed (or was opened sealed from a
    /// previous run); `None` for the active segment or if mmap failed.
    map: Option<SegmentMap>,
}

#[derive(Clone, Copy)]
struct Loc {
    seg: usize,
    off: u64,
}

/// The log-structured on-disk half of the tiered store: append-only
/// segment files of fixed-size, individually checksummed records,
/// indexed by global node id, compacted when dead bytes dominate.
pub(crate) struct ColdTier {
    dir: PathBuf,
    /// Remove the directory on drop (it was auto-created in the temp
    /// dir). User-specified spill dirs are left behind — a crashed
    /// process's segments are what the restart torn-tail scan exercises.
    own_dir: bool,
    slots: usize,
    dim: usize,
    record_len: u64,
    next_seg_id: u64,
    segments: Vec<Segment>,
    /// The active (last) segment's unwritten suffix: bytes in
    /// `[seg.len - tail.len(), seg.len)` live here, not on disk. Spills
    /// land in RAM and reach the file only when the segment seals or
    /// [`Self::flush`] runs — this is the "+1 segment" the RSS bound
    /// allows for.
    tail: Vec<u8>,
    index: HashMap<u32, Loc>,
    dead: usize,
    /// How many of the tail's records are already dead (superseded or
    /// promoted back while still RAM-resident). Scrubbing drops them
    /// before the tail is ever written, so short-lived churn costs no
    /// disk bytes at all; this counter is the exact trigger.
    tail_dead: usize,
    stats: Arc<TierStats>,
}

impl ColdTier {
    /// Opens (creating if needed) a spill directory. Existing segments
    /// from a previous run are scanned record by record: digests are
    /// verified in order and the file is physically truncated at the
    /// first invalid record (the torn tail a crash leaves behind). The
    /// surviving records are counted dead, not indexed — the snapshot
    /// is the durable truth and the spill log is per-run — so the next
    /// compaction reclaims them.
    pub(crate) fn open(
        dir: &Path,
        slots: usize,
        dim: usize,
        own_dir: bool,
        stats: Arc<TierStats>,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let payload_len = MailboxStore::node_payload_bytes(slots, dim) as u64;
        let record_len = 4 + payload_len + 8;
        let mut ids: Vec<u64> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|r| r.strip_suffix(".log"))
                .and_then(|r| r.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        let mut tier = Self {
            dir: dir.to_path_buf(),
            own_dir,
            slots,
            dim,
            record_len,
            next_seg_id: ids.last().map_or(0, |&id| id + 1),
            segments: Vec::new(),
            tail: Vec::new(),
            index: HashMap::new(),
            dead: 0,
            tail_dead: 0,
            stats,
        };
        for id in ids {
            let path = tier.seg_path(id);
            let file = OpenOptions::new().read(true).write(true).open(&path)?;
            match tier.scan_segment(&file)? {
                Some(valid_len) => {
                    if valid_len < file.metadata()?.len() {
                        // torn tail: drop the partial/corrupt suffix
                        file.set_len(valid_len)?;
                    }
                    tier.dead += ((valid_len - SEG_HEADER_LEN) / record_len) as usize;
                    let map = SegmentMap::new(&file, valid_len);
                    tier.segments.push(Segment {
                        path,
                        file,
                        len: valid_len,
                        map,
                    });
                }
                // wrong magic/version/geometry: a stale spill from a
                // differently-configured run — nothing in it can be a
                // record of ours, discard the whole file
                None => fs::remove_file(&path)?,
            }
        }
        tier.publish_bytes();
        Ok(tier)
    }

    fn seg_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id:06}.log"))
    }

    /// Verifies a segment's header and record digests in order,
    /// returning the byte length of the valid prefix (`None` for a
    /// foreign/mismatched header).
    fn scan_segment(&self, file: &File) -> io::Result<Option<u64>> {
        let total = file.metadata()?.len();
        let mut header = [0u8; SEG_HEADER_LEN as usize];
        if total < SEG_HEADER_LEN {
            return Ok(None);
        }
        file.read_exact_at(&mut header, 0)?;
        let ok = &header[..8] == SEG_MAGIC
            && u32::from_le_bytes(header[8..12].try_into().unwrap()) == SEG_VERSION
            && u32::from_le_bytes(header[12..16].try_into().unwrap()) == self.slots as u32
            && u32::from_le_bytes(header[16..20].try_into().unwrap()) == self.dim as u32;
        if !ok {
            return Ok(None);
        }
        let mut off = SEG_HEADER_LEN;
        let mut buf = vec![0u8; self.record_len as usize];
        while off + self.record_len <= total {
            file.read_exact_at(&mut buf, off)?;
            let body = &buf[..buf.len() - 8];
            let want = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
            if fnv1a_words(body) != want {
                break;
            }
            off += self.record_len;
        }
        Ok(Some(off))
    }

    fn publish_bytes(&self) {
        let total: u64 = self.segments.iter().map(|s| s.len).sum();
        self.stats.cold_bytes.store(total, Ordering::Relaxed);
    }

    /// On-disk byte length of the active (last) segment — everything
    /// past it is in the RAM tail buffer.
    fn active_disk_len(&self) -> u64 {
        self.segments
            .last()
            .map_or(0, |s| s.len - self.tail.len() as u64)
    }

    /// Whether `loc` still sits in the RAM tail (vs. flushed to disk).
    fn in_tail(&self, loc: Loc) -> bool {
        loc.seg + 1 == self.segments.len() && loc.off >= self.active_disk_len()
    }

    /// Drops dead records (superseded or promoted back since they were
    /// appended) from the RAM tail, compacting the survivors in place
    /// and rewriting their index offsets. Churn that lives and dies
    /// within one segment's window — the common fate of hot-boundary
    /// mailboxes under a skewed stream — is reclaimed here for a memmove
    /// and never costs disk bandwidth. Exact: afterwards every tail
    /// record is live.
    fn scrub_tail(&mut self) {
        if self.tail_dead == 0 {
            return;
        }
        let rl = self.record_len as usize;
        let seg_idx = self.segments.len() - 1;
        let disk_len = self.active_disk_len();
        let records = self.tail.len() / rl;
        let mut w = 0usize;
        for r in 0..records {
            let src = r * rl;
            let node = u32::from_le_bytes(self.tail[src..src + 4].try_into().unwrap());
            let live = self
                .index
                .get(&node)
                .is_some_and(|loc| loc.seg == seg_idx && loc.off == disk_len + src as u64);
            if !live {
                continue;
            }
            if w != r {
                self.tail.copy_within(src..src + rl, w * rl);
            }
            self.index.insert(
                node,
                Loc {
                    seg: seg_idx,
                    off: disk_len + (w * rl) as u64,
                },
            );
            w += 1;
        }
        let dropped = records - w;
        self.tail.truncate(w * rl);
        self.segments[seg_idx].len = disk_len + (w * rl) as u64;
        self.dead -= dropped;
        self.tail_dead = 0;
        self.publish_bytes();
    }

    /// Writes the active segment's RAM tail to its file, scrubbing dead
    /// records first (disk is only ever paid for live bytes). A no-op
    /// when the buffer is empty; the snapshot-export path calls this so
    /// a checkpoint leaves the segment files physically complete.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        self.scrub_tail();
        if self.tail.is_empty() {
            return Ok(());
        }
        let disk_len = self.active_disk_len();
        let seg = self.segments.last().expect("tail implies a segment");
        seg.file.write_all_at(&self.tail, disk_len)?;
        self.tail.clear();
        Ok(())
    }

    fn new_segment(&mut self) -> io::Result<()> {
        self.flush()?;
        // the outgoing active segment is now sealed and immutable —
        // map it so its records are read without syscalls from here on.
        // A reopened segment already carries a map of its scanned
        // prefix; if it grew since, remap at the final length.
        if let Some(seg) = self.segments.last_mut() {
            let stale = seg
                .map
                .as_ref()
                .is_some_and(|m| (m.bytes().len() as u64) < seg.len);
            if seg.map.is_none() || stale {
                seg.map = SegmentMap::new(&seg.file, seg.len);
            }
        }
        let id = self.next_seg_id;
        self.next_seg_id += 1;
        let path = self.seg_path(id);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(SEG_HEADER_LEN as usize);
        header.extend_from_slice(SEG_MAGIC);
        header.extend_from_slice(&SEG_VERSION.to_le_bytes());
        header.extend_from_slice(&(self.slots as u32).to_le_bytes());
        header.extend_from_slice(&(self.dim as u32).to_le_bytes());
        file.write_all_at(&header, 0)?;
        self.segments.push(Segment {
            path,
            file,
            len: SEG_HEADER_LEN,
            map: None,
        });
        Ok(())
    }

    /// Appends `node`'s payload as the newest record; any earlier
    /// record for the node becomes dead bytes. I/O failure panics: an
    /// eviction that cannot spill would otherwise silently lose
    /// committed mailbox state.
    pub(crate) fn append(&mut self, node: u32, payload: &[u8]) {
        self.try_append(node, payload)
            .expect("cold tier append failed — cannot spill committed mailbox state");
    }

    fn try_append(&mut self, node: u32, payload: &[u8]) -> io::Result<()> {
        debug_assert_eq!(payload.len() as u64 + 12, self.record_len);
        let loc = self.push_record(node, payload)?;
        if let Some(old) = self.index.insert(node, loc) {
            self.dead += 1;
            if self.in_tail(old) {
                self.tail_dead += 1;
            }
        }
        self.publish_bytes();
        self.maybe_compact()?;
        Ok(())
    }

    /// Appends one record (building it, digest included, in the RAM
    /// tail buffer — no file I/O unless the segment seals) and returns
    /// where it landed. Index bookkeeping is the caller's.
    /// Whether the active segment cannot take one more record.
    fn segment_full(&self) -> bool {
        self.segments
            .last()
            .is_none_or(|s| s.len + self.record_len > SEG_BYTES)
    }

    /// Makes room for one record: when the active segment is full, a
    /// tail scrub is tried first (if enough tail records have died,
    /// reclaiming them in place avoids sealing — and avoids ever
    /// writing them); only a still-full segment seals and rolls over.
    fn ensure_room(&mut self) -> io::Result<()> {
        if !self.segment_full() {
            return Ok(());
        }
        if self.tail_dead >= SCRUB_MIN_DEAD {
            self.scrub_tail();
            if !self.segment_full() {
                return Ok(());
            }
        }
        self.new_segment()
    }

    fn push_record(&mut self, node: u32, payload: &[u8]) -> io::Result<Loc> {
        self.ensure_room()?;
        let body_start = self.tail.len();
        self.tail.extend_from_slice(&node.to_le_bytes());
        self.tail.extend_from_slice(payload);
        let digest = fnv1a_words(&self.tail[body_start..]);
        self.tail.extend_from_slice(&digest.to_le_bytes());
        let seg_idx = self.segments.len() - 1;
        let seg = &mut self.segments[seg_idx];
        let off = seg.len;
        seg.len += self.record_len;
        Ok(Loc { seg: seg_idx, off })
    }

    /// Appends a complete, already-digested record verbatim (the
    /// compaction path — live records move bytes-for-bytes, digest and
    /// all, so a rewrite never recomputes a checksum).
    fn push_raw(&mut self, record: &[u8]) -> io::Result<Loc> {
        debug_assert_eq!(record.len() as u64, self.record_len);
        self.ensure_room()?;
        self.tail.extend_from_slice(record);
        let seg_idx = self.segments.len() - 1;
        let seg = &mut self.segments[seg_idx];
        let off = seg.len;
        seg.len += self.record_len;
        Ok(Loc { seg: seg_idx, off })
    }

    /// Whether the cold tier holds a record for `node`.
    #[cfg(test)]
    pub(crate) fn contains(&self, node: u32) -> bool {
        self.index.contains_key(&node)
    }

    /// Fills `buf` with the complete record (node id, payload, digest)
    /// at `loc`, wherever it lives.
    fn read_record(&self, loc: Loc, node: u32, buf: &mut Vec<u8>) -> io::Result<()> {
        let rl = self.record_len as usize;
        buf.resize(rl, 0);
        let seg = &self.segments[loc.seg];
        let disk_len = self.active_disk_len();
        if loc.seg + 1 == self.segments.len() && loc.off >= disk_len {
            // still in the RAM tail: serve the memcpy and skip the
            // digest re-check — these bytes were digested on append and
            // memory has no torn-write failure mode. Checked before the
            // mapping: a reopened segment carries a map of its scanned
            // prefix yet keeps taking appends, so tail offsets lie past
            // the mapped range.
            let start = (loc.off - disk_len) as usize;
            buf.copy_from_slice(&self.tail[start..start + rl]);
            debug_assert_eq!(u32::from_le_bytes(buf[..4].try_into().unwrap()), node);
            return Ok(());
        }
        if let Some(m) = &seg.map {
            // sealed segment (or a reopened one's mapped prefix): a
            // page-cache memcpy through the mapping — records flushed
            // past the mapping's fixed length fall through to pread
            let start = loc.off as usize;
            if let Some(bytes) = m.bytes().get(start..start + rl) {
                buf.copy_from_slice(bytes);
                self.verify(buf, node);
                return Ok(());
            }
        }
        // active segment's flushed prefix, or a failed/short mmap
        seg.file.read_exact_at(buf, loc.off)?;
        self.verify(buf, node);
        Ok(())
    }

    fn read_at(&self, loc: Loc, node: u32) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_record(loc, node, &mut buf)?;
        buf.truncate(buf.len() - 8);
        buf.drain(..4);
        Ok(buf)
    }

    /// Digest-checks one complete record read back from a file or
    /// mapping. In-run records were fully written before being indexed,
    /// so a mismatch here is disk corruption, not a crash artifact.
    fn verify(&self, record: &[u8], node: u32) {
        let body_len = record.len() - 8;
        let want = u64::from_le_bytes(record[body_len..].try_into().unwrap());
        let got_node = u32::from_le_bytes(record[..4].try_into().unwrap());
        assert!(
            got_node == node && fnv1a_words(&record[..body_len]) == want,
            "cold tier record for node {node} failed its digest check (corrupt segment)"
        );
    }

    /// Reads `node`'s payload without removing it (the snapshot/export
    /// path — cold nodes stay cold across a checkpoint).
    pub(crate) fn peek(&self, node: u32) -> Option<Vec<u8>> {
        let loc = *self.index.get(&node)?;
        Some(self.read_at(loc, node).expect("cold tier read failed"))
    }

    /// Removes and returns `node`'s payload (the promotion path — the
    /// hot copy becomes authoritative, the record becomes dead bytes).
    #[cfg(test)]
    pub(crate) fn take(&mut self, node: u32) -> Option<Vec<u8>> {
        let loc = self.index.remove(&node)?;
        let payload = self.read_at(loc, node).expect("cold tier read failed");
        self.dead += 1;
        if self.in_tail(loc) {
            self.tail_dead += 1;
        }
        Some(payload)
    }

    /// Allocation-free [`take`](Self::take): fills `buf` with the
    /// complete record bytes (node id, payload, digest — the caller
    /// slices the payload out) so the promotion fast path reuses one
    /// buffer across misses. Returns `false` when the node holds no
    /// cold record.
    pub(crate) fn take_record_into(&mut self, node: u32, buf: &mut Vec<u8>) -> bool {
        let Some(loc) = self.index.remove(&node) else {
            return false;
        };
        self.read_record(loc, node, buf)
            .expect("cold tier read failed");
        self.dead += 1;
        if self.in_tail(loc) {
            self.tail_dead += 1;
        }
        true
    }

    fn maybe_compact(&mut self) -> io::Result<()> {
        if self.dead >= COMPACT_MIN_DEAD && self.dead > COMPACT_DEAD_RATIO * self.index.len() {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites live records into fresh segments and deletes the old
    /// files. Works one segment at a time (one segment buffer in
    /// memory, never the whole tier): each old segment is bulk-read,
    /// its records walked in log order, and the ones the index still
    /// points at are moved verbatim — digest included — via
    /// [`Self::push_raw`], so a rewrite costs memcpys, not checksums.
    fn compact(&mut self) -> io::Result<()> {
        self.flush()?;
        let old_segments = std::mem::take(&mut self.segments);
        let old_index = std::mem::take(&mut self.index);
        self.dead = 0;
        let rl = self.record_len as usize;
        let mut buf = Vec::new();
        for (seg_idx, seg) in old_segments.iter().enumerate() {
            // a reopened segment's map covers only its scanned prefix;
            // if the segment grew past it since, bulk-read the file
            let full_map = seg
                .map
                .as_ref()
                .filter(|m| m.bytes().len() as u64 >= seg.len);
            let body = match full_map {
                Some(m) => &m.bytes()[SEG_HEADER_LEN as usize..seg.len as usize],
                None => {
                    buf.resize((seg.len - SEG_HEADER_LEN) as usize, 0u8);
                    seg.file.read_exact_at(&mut buf, SEG_HEADER_LEN)?;
                    &buf[..]
                }
            };
            for (ri, rec) in body.chunks_exact(rl).enumerate() {
                let off = SEG_HEADER_LEN + (ri * rl) as u64;
                let node = u32::from_le_bytes(rec[..4].try_into().unwrap());
                let live = old_index
                    .get(&node)
                    .is_some_and(|l| l.seg == seg_idx && l.off == off);
                if live {
                    let loc = self.push_raw(rec)?;
                    self.index.insert(node, loc);
                }
            }
        }
        for seg in old_segments {
            fs::remove_file(&seg.path)?;
        }
        self.publish_bytes();
        Ok(())
    }

    #[cfg(test)]
    fn live(&self) -> usize {
        self.index.len()
    }

    #[cfg(test)]
    fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

impl Drop for ColdTier {
    fn drop(&mut self) {
        if self.own_dir {
            for seg in &self.segments {
                let _ = fs::remove_file(&seg.path);
            }
            let _ = fs::remove_dir(&self.dir);
        } else {
            // a kept spill dir gets physically complete segments on
            // clean shutdown; a crash skips this, which is exactly the
            // torn/partial state the open() scan is built to absorb
            let _ = self.flush();
        }
    }
}

const NONE: u32 = u32::MAX;

/// Residency bookkeeping for one shard: which locals are resident in
/// which hot pool slots, their LRU order, and the logical node count.
struct TierState {
    /// This shard's index and the partition width — `local * num_shards
    /// + shard` recovers the global node id the cold tier is keyed by.
    shard: usize,
    num_shards: usize,
    /// local id → hot slot.
    map: Vec<Option<u32>>,
    /// hot slot → local id (valid while the slot is bound).
    slot_node: Vec<u32>,
    /// Intrusive LRU list over slots; head is most-, tail is
    /// least-recently touched.
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    lru_head: u32,
    lru_tail: u32,
    free: Vec<u32>,
    cold: Arc<Mutex<ColdTier>>,
    stats: Arc<TierStats>,
    /// Reusable eviction payload buffer.
    scratch: Vec<u8>,
    /// Reusable promotion record buffer (distinct from `scratch`: a
    /// read miss takes from cold *before* acquiring a slot, and the
    /// acquisition's eviction export is what `scratch` holds).
    promote: Vec<u8>,
}

impl TierState {
    fn new(
        cap: usize,
        shard: usize,
        num_shards: usize,
        cold: Arc<Mutex<ColdTier>>,
        stats: Arc<TierStats>,
    ) -> Self {
        assert!(cap >= 1, "hot pool needs at least one slot");
        Self {
            shard,
            num_shards,
            map: Vec::new(),
            slot_node: vec![NONE; cap],
            lru_prev: vec![NONE; cap],
            lru_next: vec![NONE; cap],
            lru_head: NONE,
            lru_tail: NONE,
            free: (0..cap as u32).rev().collect(),
            cold,
            stats,
            scratch: Vec::new(),
            promote: Vec::new(),
        }
    }

    #[inline]
    fn global(&self, local: NodeId) -> u32 {
        local * self.num_shards as u32 + self.shard as u32
    }

    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.lru_prev[slot as usize], self.lru_next[slot as usize]);
        if p == NONE {
            self.lru_head = n;
        } else {
            self.lru_next[p as usize] = n;
        }
        if n == NONE {
            self.lru_tail = p;
        } else {
            self.lru_prev[n as usize] = p;
        }
        self.lru_prev[slot as usize] = NONE;
        self.lru_next[slot as usize] = NONE;
    }

    fn push_mru(&mut self, slot: u32) {
        self.lru_prev[slot as usize] = NONE;
        self.lru_next[slot as usize] = self.lru_head;
        if self.lru_head != NONE {
            self.lru_prev[self.lru_head as usize] = slot;
        }
        self.lru_head = slot;
        if self.lru_tail == NONE {
            self.lru_tail = slot;
        }
    }

    fn push_lru(&mut self, slot: u32) {
        self.lru_next[slot as usize] = NONE;
        self.lru_prev[slot as usize] = self.lru_tail;
        if self.lru_tail != NONE {
            self.lru_next[self.lru_tail as usize] = slot;
        }
        self.lru_tail = slot;
        if self.lru_head == NONE {
            self.lru_head = slot;
        }
    }

    fn touch(&mut self, slot: u32) {
        if self.lru_head != slot {
            self.unlink(slot);
            self.push_mru(slot);
        }
    }

    /// Frees a hot slot, spilling the LRU victim to the cold tier when
    /// the pool is full. The caller binds the returned slot — and owns
    /// re-initializing it: a promotion overwrites every field via
    /// `import_node_bytes`, a fresh bind must `clear_node` first (the
    /// evicted tenant's bytes are still in the slot).
    fn acquire_slot(&mut self, hot: &mut MailboxStore) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.lru_tail;
        debug_assert_ne!(slot, NONE, "cap ≥ 1 and free list empty ⇒ LRU nonempty");
        let victim = self.slot_node[slot as usize];
        let span = self.stats.span_start();
        self.scratch.clear();
        hot.export_node_bytes(slot as usize, &mut self.scratch);
        self.cold.lock().append(self.global(victim), &self.scratch);
        self.stats.span_end(span, Stage::TierEvict);
        self.unlink(slot);
        self.map[victim as usize] = None;
        self.slot_node[slot as usize] = NONE;
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        self.stats.resident.fetch_sub(1, Ordering::Relaxed);
        slot
    }

    fn bind(&mut self, local: NodeId, slot: u32) {
        self.map[local as usize] = Some(slot);
        self.slot_node[slot as usize] = local;
        self.push_mru(slot);
        self.stats.resident.fetch_add(1, Ordering::Relaxed);
    }

    /// Like [`bind`](Self::bind) but inserts at the LRU **tail**:
    /// probationary placement for mailboxes refaulted from cold. A
    /// one-hit-wonder from the access distribution's tail is the next
    /// eviction victim and leaves without displacing the protected hot
    /// set; a genuinely re-warming node earns MRU on its next `touch`.
    /// Without this, each cold refault promoted straight to MRU evicts
    /// a warm node that then refaults in turn — on Zipf-skewed streams
    /// that cascade inflates misses well past the compulsory count.
    /// Purely a residency policy: stored bytes are unaffected either
    /// way.
    fn bind_probation(&mut self, local: NodeId, slot: u32) {
        self.map[local as usize] = Some(slot);
        self.slot_node[slot as usize] = local;
        self.push_lru(slot);
        self.stats.resident.fetch_add(1, Ordering::Relaxed);
    }
}

/// One mailbox shard with optional tiered residency. With no tier
/// (`budget` unset) the inner flat [`MailboxStore`] is indexed by the
/// shard-local node id itself — bitwise and structurally the untiered
/// behavior. With a tier, the inner store is a fixed `cap`-slot pool
/// and this type maps shard-local node ids onto pool slots, promoting
/// from / evicting to the shared [`ColdTier`] as the working set moves.
/// "Where does `local` live" is answered in three places only —
/// [`Self::slot_for_write`], [`Self::slot_for_read`] and the
/// non-promoting [`Self::peek`] — and every operation goes through one
/// of them.
///
/// All methods address *shard-local* node ids; the sharded store's
/// guards translate global ids before calling in.
pub(crate) struct TierShard {
    hot: MailboxStore,
    tier: Option<TierState>,
    /// Logical shard-local node count (what an all-resident flat
    /// store's `num_nodes` would report): grows on write exactly like
    /// `ensure_node`, so `to_flat` reconstructs the same size.
    covered: usize,
}

impl TierShard {
    /// An untiered shard wrapping `hot` directly.
    pub(crate) fn flat(hot: MailboxStore) -> Self {
        Self {
            covered: hot.num_nodes(),
            hot,
            tier: None,
        }
    }

    /// A tiered shard: a `cap`-mailbox hot pool of the given geometry,
    /// covering `covered` logical nodes, spilling to `cold`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tiered(
        cap: usize,
        slots: usize,
        dim: usize,
        update: crate::config::MailboxUpdate,
        shard: usize,
        num_shards: usize,
        covered: usize,
        cold: Arc<Mutex<ColdTier>>,
        stats: Arc<TierStats>,
    ) -> Self {
        Self {
            hot: MailboxStore::new(cap, slots, dim, update),
            tier: Some(TierState::new(cap, shard, num_shards, cold, stats)),
            covered,
        }
    }

    /// Logical shard-local node count.
    pub(crate) fn covered(&self) -> usize {
        self.covered
    }

    pub(crate) fn update_mode(&self) -> crate::config::MailboxUpdate {
        self.hot.update_mode()
    }

    /// Where `local`'s state lives in `hot` for a write, growing the
    /// logical cover (mirroring `ensure_node`). Untiered that is the id
    /// itself; tiered it is a hot slot — the resident one, a spilled
    /// mailbox promoted back, or a fresh zeroed one — evicting the LRU
    /// victim if the pool is full.
    fn slot_for_write(&mut self, local: NodeId) -> NodeId {
        self.covered = self.covered.max(local as usize + 1);
        let Some(t) = self.tier.as_mut() else {
            self.hot.ensure_node(local);
            return local;
        };
        if t.map.len() <= local as usize {
            t.map.resize(local as usize + 1, None);
        }
        if let Some(slot) = t.map[local as usize] {
            t.touch(slot);
            return slot;
        }
        let slot = t.acquire_slot(&mut self.hot);
        let global = t.global(local);
        let read_span = t.stats.span_start();
        let promoted = t.cold.lock().take_record_into(global, &mut t.promote);
        if promoted {
            t.stats.span_end(read_span, Stage::ColdRead);
            let promote_span = t.stats.span_start();
            let body = t.promote.len() - 8;
            self.hot
                .import_node_bytes(slot as usize, &t.promote[4..body]);
            t.stats.promotions.fetch_add(1, Ordering::Relaxed);
            t.bind_probation(local, slot);
            t.stats.span_end(promote_span, Stage::TierPromote);
        } else {
            self.hot.clear_node(slot as usize);
            t.bind(local, slot);
        }
        slot
    }

    /// Where `local`'s state lives in `hot` for a read, promoting a
    /// spilled mailbox (it just proved itself hot). A node with no
    /// state anywhere is `None` (the caller reads zeros) *without*
    /// allocating — reads never grow the store.
    fn slot_for_read(&mut self, local: NodeId) -> Option<NodeId> {
        let Some(t) = self.tier.as_mut() else {
            return ((local as usize) < self.hot.num_nodes()).then_some(local);
        };
        if let Some(&Some(slot)) = t.map.get(local as usize) {
            t.touch(slot);
            return Some(slot);
        }
        let global = t.global(local);
        let read_span = t.stats.span_start();
        if !t.cold.lock().take_record_into(global, &mut t.promote) {
            return None;
        }
        t.stats.span_end(read_span, Stage::ColdRead);
        let promote_span = t.stats.span_start();
        let slot = t.acquire_slot(&mut self.hot);
        let body = t.promote.len() - 8;
        self.hot
            .import_node_bytes(slot as usize, &t.promote[4..body]);
        t.stats.promotions.fetch_add(1, Ordering::Relaxed);
        if t.map.len() <= local as usize {
            t.map.resize(local as usize + 1, None);
        }
        t.bind_probation(local, slot);
        t.stats.span_end(promote_span, Stage::TierPromote);
        Some(slot)
    }

    /// Runs `f` over `local`'s state *without promoting* — inspection
    /// and export must not disturb residency. A resident mailbox is
    /// read in place, a cold one is decoded from its checksummed record
    /// into a standalone single-node store; `None` for a node with no
    /// state anywhere.
    fn peek<R>(&self, local: NodeId, f: impl FnOnce(&MailboxStore, NodeId) -> R) -> Option<R> {
        let Some(t) = self.tier.as_ref() else {
            return ((local as usize) < self.hot.num_nodes()).then(|| f(&self.hot, local));
        };
        if let Some(&Some(slot)) = t.map.get(local as usize) {
            return Some(f(&self.hot, slot));
        }
        let payload = t.cold.lock().peek(t.global(local))?;
        let mut one = MailboxStore::new(1, self.hot.slots(), self.hot.dim(), self.update_mode());
        one.import_node_bytes(0, &payload);
        Some(f(&one, 0))
    }

    pub(crate) fn deliver(&mut self, local: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        let slot = self.slot_for_write(local);
        self.hot.deliver(slot, mail, t, origin);
    }

    pub(crate) fn patch_late(&mut self, local: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        let slot = self.slot_for_write(local);
        self.hot.patch_late(slot, mail, t, origin);
    }

    pub(crate) fn set_embedding(&mut self, local: NodeId, row: &[f32], t: Time) {
        let slot = self.slot_for_write(local);
        self.hot.set_embedding(slot, row, t);
    }

    /// See [`MailboxStore::read_mailbox_into`]; promotes a spilled
    /// mailbox before reading it.
    pub(crate) fn read_mailbox_into(
        &mut self,
        local: NodeId,
        now: Time,
        bi: usize,
        mails: &mut apan_tensor::Tensor,
        ages: &mut [f32],
    ) -> usize {
        match self.slot_for_read(local) {
            Some(slot) => self.hot.read_mailbox_into(slot, now, bi, mails, ages),
            None => 0,
        }
    }

    /// Copies `local`'s last embedding into `out` (left untouched —
    /// zeros — for a node with no state); promotes a spilled mailbox.
    pub(crate) fn copy_embedding_into(&mut self, local: NodeId, out: &mut [f32]) {
        if let Some(slot) = self.slot_for_read(local) {
            out.copy_from_slice(self.hot.embedding(slot));
        }
    }

    /// Scatters one node's state from a flat store into this shard
    /// (`from_flat` construction). Untouched (all-zero) nodes are
    /// skipped — they are representable as "no state anywhere", so a
    /// freshly sized boot store never floods the cold tier with empty
    /// mailboxes (and an untiered shard is born zeroed anyway).
    pub(crate) fn import_node(&mut self, local: NodeId, flat: &MailboxStore, flat_node: usize) {
        if flat.node_is_zero(flat_node) {
            return;
        }
        let slot = self.slot_for_write(local);
        self.hot.copy_node_from(slot as usize, flat, flat_node);
    }

    /// Gathers one node's state into `flat[global_dst]` without
    /// promoting — the `to_flat` / snapshot-export path. A node with no
    /// state anywhere stays zeros.
    pub(crate) fn export_into_flat(
        &self,
        flat: &mut MailboxStore,
        local: NodeId,
        global_dst: usize,
    ) {
        self.peek(local, |state, n| {
            flat.copy_node_from(global_dst, state, n as usize)
        });
    }

    /// Mail count of `local` without promoting (0 if no state).
    pub(crate) fn peek_len(&self, local: NodeId) -> usize {
        self.peek(local, MailboxStore::len).unwrap_or(0)
    }

    /// Mails of `local`, oldest first, owned, without promoting.
    pub(crate) fn peek_mails_of(&self, local: NodeId) -> Vec<(Vec<f32>, Time, MailOrigin)> {
        self.peek(local, |state, n| {
            state
                .mails_of(n)
                .into_iter()
                .map(|(m, t, o)| (m.to_vec(), t, o))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Last embedding-update time of `local` without promoting.
    pub(crate) fn peek_last_update(&self, local: NodeId) -> Time {
        self.peek(local, MailboxStore::last_update).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MailboxUpdate;
    use std::sync::atomic::AtomicU32;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "apan-tier-test-{}-{}-{}",
            tag,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn open_cold(dir: &Path, slots: usize, dim: usize) -> ColdTier {
        ColdTier::open(dir, slots, dim, false, Arc::new(TierStats::default())).unwrap()
    }

    fn payload_for(value: f32, slots: usize, dim: usize) -> Vec<u8> {
        let mut s = MailboxStore::new(1, slots, dim, MailboxUpdate::Fifo);
        s.deliver(
            0,
            &vec![value; dim],
            f64::from(value),
            MailOrigin::default(),
        );
        let mut out = Vec::new();
        s.export_node_bytes(0, &mut out);
        out
    }

    #[test]
    fn cold_append_read_supersede_take() {
        let dir = temp_dir("basic");
        {
            let mut cold = open_cold(&dir, 2, 3);
            let (a, b) = (payload_for(1.0, 2, 3), payload_for(2.0, 2, 3));
            cold.append(7, &a);
            cold.append(9, &b);
            assert_eq!(cold.peek(7).unwrap(), a);
            assert_eq!(cold.peek(9).unwrap(), b);
            assert!(cold.peek(8).is_none());
            // superseding keeps the newest record
            let a2 = payload_for(3.0, 2, 3);
            cold.append(7, &a2);
            assert_eq!(cold.peek(7).unwrap(), a2);
            assert_eq!(cold.live(), 2);
            // take removes (promotion)
            assert_eq!(cold.take(9).unwrap(), b);
            assert!(!cold.contains(9));
            assert!(cold.take(9).is_none());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_torn_tail_and_treats_survivors_as_dead() {
        let dir = temp_dir("torn");
        let record_len;
        {
            let mut cold = open_cold(&dir, 2, 3);
            for n in 0..5u32 {
                cold.append(n, &payload_for(n as f32, 2, 3));
            }
            record_len = cold.record_len;
        }
        // tear the tail: chop the last record in half, as a crash
        // mid-write would
        let seg = dir.join("seg-000000.log");
        let len = fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - record_len / 2).unwrap();
        drop(file);

        let cold = open_cold(&dir, 2, 3);
        // the torn record is physically gone…
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            SEG_HEADER_LEN + 4 * record_len
        );
        // …and the intact survivors are dead, not resurrected: the
        // snapshot, not the spill log, is the durable truth
        assert_eq!(cold.live(), 0);
        assert_eq!(cold.dead, 4);
        drop(cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_segment_serves_appends_past_its_mapped_prefix() {
        // A reopened segment carries a map of its scanned prefix yet
        // stays active for appends: reads of the new records must come
        // from the RAM tail (then pread after a flush), never from past
        // the mapping's fixed end, and compaction must walk the grown
        // file rather than the stale short map.
        let dir = temp_dir("reopen-append");
        {
            let mut cold = open_cold(&dir, 2, 3);
            for n in 0..3u32 {
                cold.append(n, &payload_for(n as f32, 2, 3));
            }
        }
        let mut cold = open_cold(&dir, 2, 3);
        let (a, b) = (payload_for(7.0, 2, 3), payload_for(8.0, 2, 3));
        cold.append(7, &a);
        cold.append(8, &b);
        assert_eq!(cold.peek(7).unwrap(), a); // served from the RAM tail
        cold.flush().unwrap();
        assert_eq!(cold.peek(8).unwrap(), b); // on disk past the map: pread
        cold.compact().unwrap();
        assert_eq!(cold.live(), 2);
        assert_eq!(cold.peek(7).unwrap(), a);
        assert_eq!(cold.peek(8).unwrap(), b);
        drop(cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_corrupted_record_mid_segment() {
        let dir = temp_dir("corrupt");
        let record_len;
        {
            let mut cold = open_cold(&dir, 2, 3);
            for n in 0..4u32 {
                cold.append(n, &payload_for(n as f32, 2, 3));
            }
            record_len = cold.record_len;
        }
        // flip a byte inside record 1: the scan must keep record 0 only
        let seg = dir.join("seg-000000.log");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&seg)
            .unwrap();
        let off = SEG_HEADER_LEN + record_len + 10;
        let mut b = [0u8; 1];
        file.read_exact_at(&mut b, off).unwrap();
        file.write_all_at(&[b[0] ^ 0xFF], off).unwrap();
        drop(file);

        let cold = open_cold(&dir, 2, 3);
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            SEG_HEADER_LEN + record_len
        );
        assert_eq!(cold.dead, 1);
        drop(cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_discards_segments_with_foreign_geometry() {
        let dir = temp_dir("geom");
        {
            let mut cold = open_cold(&dir, 2, 3);
            cold.append(1, &payload_for(1.0, 2, 3));
        }
        // reopen with a different geometry: the stale segment must go
        let cold = open_cold(&dir, 4, 8);
        assert_eq!(cold.segment_count(), 0);
        assert!(!dir.join("seg-000000.log").exists());
        drop(cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_dead_records_and_preserves_live_ones() {
        let dir = temp_dir("compact");
        {
            let mut cold = open_cold(&dir, 2, 3);
            // churn one node far past the compaction threshold while two
            // stable nodes must survive every rewrite
            let keep_a = payload_for(100.0, 2, 3);
            let keep_b = payload_for(200.0, 2, 3);
            cold.append(1000, &keep_a);
            cold.append(2000, &keep_b);
            for i in 0..(COMPACT_MIN_DEAD as u32 * 3) {
                cold.append(5, &payload_for(i as f32, 2, 3));
            }
            assert!(cold.dead < COMPACT_MIN_DEAD, "compaction must have run");
            assert_eq!(cold.live(), 3);
            assert_eq!(cold.peek(1000).unwrap(), keep_a);
            assert_eq!(cold.peek(2000).unwrap(), keep_b);
            // bounded by the live set plus at most one threshold's worth
            // of churn since the last compaction — never the full history
            let total: u64 = cold.segments.iter().map(|s| s.len).sum();
            let bound = SEG_HEADER_LEN * cold.segment_count() as u64
                + (3 + COMPACT_MIN_DEAD as u64) * cold.record_len;
            assert!(
                total <= bound,
                "compaction left {total} bytes (bound {bound})"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_shard_matches_flat_under_churn() {
        let dir = temp_dir("shard");
        let (slots, dim) = (3, 4);
        let stats = Arc::new(TierStats::default());
        let cold = Arc::new(Mutex::new(
            ColdTier::open(&dir, slots, dim, false, Arc::clone(&stats)).unwrap(),
        ));
        // cap 2 forces constant eviction/promotion over 8 locals
        let mut tiered = TierShard::tiered(
            2,
            slots,
            dim,
            MailboxUpdate::Fifo,
            0,
            1,
            0,
            cold,
            Arc::clone(&stats),
        );
        let mut flat = TierShard::flat(MailboxStore::new(0, slots, dim, MailboxUpdate::Fifo));
        for t in 0..200u32 {
            let local = (t * 7 + 3) % 8;
            let mail: Vec<f32> = (0..dim).map(|d| (t + d as u32) as f32).collect();
            tiered.deliver(local, &mail, f64::from(t), MailOrigin::default());
            flat.deliver(local, &mail, f64::from(t), MailOrigin::default());
            if t % 5 == 0 {
                tiered.set_embedding(local, &mail, f64::from(t));
                flat.set_embedding(local, &mail, f64::from(t));
            }
        }
        assert_eq!(tiered.covered(), flat.covered());
        assert!(stats.evictions.load(Ordering::Relaxed) > 0);
        assert!(stats.promotions.load(Ordering::Relaxed) > 0);
        assert_eq!(stats.resident.load(Ordering::Relaxed), 2);
        let mut a = MailboxStore::new(tiered.covered(), slots, dim, MailboxUpdate::Fifo);
        let mut b = MailboxStore::new(flat.covered(), slots, dim, MailboxUpdate::Fifo);
        for local in 0..tiered.covered() as NodeId {
            tiered.export_into_flat(&mut a, local, local as usize);
            flat.export_into_flat(&mut b, local, local as usize);
            // the peek accessors agree with the flat shard too
            assert_eq!(tiered.peek_len(local), flat.peek_len(local));
            assert_eq!(tiered.peek_mails_of(local), flat.peek_mails_of(local));
            assert_eq!(tiered.peek_last_update(local), flat.peek_last_update(local));
        }
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        a.write_snapshot(&mut ba).unwrap();
        b.write_snapshot(&mut bb).unwrap();
        assert_eq!(ba, bb);
        drop(tiered);
        let _ = fs::remove_dir_all(&dir);
    }
}
