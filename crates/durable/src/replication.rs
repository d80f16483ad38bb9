//! WAL shipping: file-level mirroring of one durable store onto peer hosts.
//!
//! Each logical node of the replicated fabric owns a [`crate::DurableServer`]
//! whose store directory is the authoritative journal. A [`ReplicaMirror`]
//! mirrors that store onto a peer host by shipping raw file bytes:
//!
//! * on **attach**, the mirror receives a full copy — `meta.json`, the
//!   snapshot when one exists, and the WAL from byte zero — and opens the
//!   two file handles it keeps until it is detached: the primary's WAL for
//!   reading, its own `wal.log` for writing;
//! * afterwards each ship copies only the WAL bytes between the mirror's
//!   acknowledged offset and the primary's flushed length, file to file, so
//!   a ship costs O(new bytes) plus one `sync_data` however long the log is;
//! * byte offsets only mean something within one **WAL generation**: when
//!   the primary compacts (folds the journal into a snapshot and empties the
//!   log) the generation in its [`JournalMark`] moves, and the mirror — which
//!   cannot express a compaction incrementally — re-attaches: fresh
//!   snapshot, fresh meta, WAL restarted from the new byte zero. The file's
//!   length says nothing here: a compacted log regrows past any old offset.
//!
//! A ship takes its mark under the primary's journal lock
//! ([`DurableServer::flush_journal`]) but copies *without* it, so ingest
//! keeps appending while bytes move. A compaction can therefore land between
//! the mark and the end of the copy; the generation is read again after the
//! copy, and a copy that raced one is thrown away and redone as an attach.
//!
//! The bytes are opaque to the shipper; framing, checksums and torn-tail
//! handling are the WAL's own ([`crate::wal`]), which is exactly what makes
//! a mirror recoverable: `DurableServer::recover_with` on a replica
//! directory replays the longest valid prefix, and a ship interrupted
//! mid-record is indistinguishable from a torn write on the primary.
//!
//! The shipper is deliberately **mechanism only**: it moves bytes between
//! directories and tracks offsets. Scheduling (sync for control-plane,
//! batched for ingest), link delays, fault windows and retry budgets belong
//! to the replicated fabric broker in [`crate::fabric`].

use crate::server::{DurableServer, JournalMark};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// How many marks one ship takes before giving up on a primary that compacts
/// under every copy. Each compaction needs `snapshot_every` fresh records,
/// each pass a few file copies, so the second pass practically always wins.
const SHIP_ATTEMPTS: usize = 3;

/// What one ship call moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipOutcome {
    /// WAL bytes appended to (or re-copied into) the mirror.
    pub wal_bytes: u64,
    /// Whether the mirror was (re-)attached: meta + snapshot + full WAL.
    pub attached: bool,
}

impl ShipOutcome {
    /// Whether the call moved anything at all.
    #[must_use]
    pub fn shipped_anything(&self) -> bool {
        self.attached || self.wal_bytes > 0
    }
}

/// The two handles an attached mirror keeps open across ships. Compaction
/// empties the primary's WAL in place (same inode), so the read handle stays
/// valid for the life of the primary.
#[derive(Debug)]
struct Pipe {
    /// The primary's WAL, read-only.
    source: File,
    /// The mirror's `wal.log`. Written at explicit offsets, not in append
    /// mode: mirror byte `k` is primary byte `k` of the same generation, so
    /// a retried ship overwrites whatever a failed one left behind.
    sink: File,
}

/// One peer host's mirror of a logical node's store. It follows one
/// [`DurableServer`] instance: generations are counted per instance, so a
/// mirror handed a different primary must be [`ReplicaMirror::detach`]ed
/// first (the fabric builds fresh mirrors on failover).
#[derive(Debug)]
pub struct ReplicaMirror {
    /// The physical host holding this mirror.
    host: usize,
    /// The mirror directory on that host.
    dir: PathBuf,
    /// The open handles; `None` until the full-copy attach has happened.
    pipe: Option<Pipe>,
    /// The primary WAL generation `wal_offset` counts bytes of.
    wal_generation: u64,
    /// Bytes of the primary WAL already acknowledged by this mirror.
    wal_offset: u64,
    /// The primary's journal sequence number at the last acknowledged ship
    /// (lag = the primary's current sequence minus this).
    acked_seq: u64,
}

impl ReplicaMirror {
    /// A detached mirror on `host`, stored at `dir` (created on attach).
    #[must_use]
    pub fn new(host: usize, dir: PathBuf) -> Self {
        ReplicaMirror { host, dir, pipe: None, wal_generation: 0, wal_offset: 0, acked_seq: 0 }
    }

    /// The physical host holding this mirror.
    #[must_use]
    pub fn host(&self) -> usize {
        self.host
    }

    /// The mirror directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The primary journal sequence this mirror has acknowledged.
    #[must_use]
    pub fn acked_seq(&self) -> u64 {
        self.acked_seq
    }

    /// Force the next ship to re-attach (full copy, fresh handles) — used
    /// after the mirror host restarted and its disk state can no longer be
    /// trusted.
    pub fn detach(&mut self) {
        self.pipe = None;
        self.wal_offset = 0;
        self.acked_seq = 0;
    }

    /// Mirror the primary's current state into this replica: flush the
    /// primary's group-commit buffer and take its [`JournalMark`], then a
    /// full copy on first contact (or after [`ReplicaMirror::detach`], or
    /// when the primary compacted), an incremental copy of the new WAL bytes
    /// otherwise. The mirror's WAL is `sync_data`'d before the acknowledged
    /// offset and sequence advance.
    ///
    /// # Errors
    /// Propagates the primary's (sticky) journal failure and I/O errors; the
    /// acknowledged offset and sequence only advance on success, so a failed
    /// ship is safely retried — the retry rewrites the same byte range.
    pub fn ship_from(&mut self, primary: &DurableServer) -> std::io::Result<ShipOutcome> {
        for _ in 0..SHIP_ATTEMPTS {
            let mark = primary.flush_journal().map_err(std::io::Error::other)?;
            if let Some(outcome) = self.ship_to(primary, mark)? {
                return Ok(outcome);
            }
        }
        Err(std::io::Error::other("the primary compacted under every ship attempt"))
    }

    /// Bring the mirror up to `mark`. `Ok(None)` when the primary compacted
    /// while the copy ran: what was copied may mix two generations, so the
    /// mirror is left detached for the caller's next attempt.
    fn ship_to(
        &mut self,
        primary: &DurableServer,
        mark: JournalMark,
    ) -> std::io::Result<Option<ShipOutcome>> {
        let attached = self.pipe.is_none()
            || mark.wal_generation != self.wal_generation
            || mark.wal_len < self.wal_offset;
        if attached {
            self.detach();
            self.pipe = Some(self.copy_base(primary)?);
            self.wal_generation = mark.wal_generation;
        }
        let wal_bytes = mark.wal_len - self.wal_offset;
        if attached || wal_bytes > 0 {
            let pipe = self.pipe.as_mut().expect("attached above");
            let copied = copy_range(&mut pipe.source, &mut pipe.sink, self.wal_offset, wal_bytes)?;
            if primary.wal_generation() != mark.wal_generation {
                self.detach();
                return Ok(None);
            }
            if copied != wal_bytes {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("primary WAL ends {} bytes short of its mark", wal_bytes - copied),
                ));
            }
            pipe.sink.sync_data()?;
        }
        self.wal_offset = mark.wal_len;
        self.acked_seq = mark.seq;
        Ok(Some(ShipOutcome { wal_bytes, attached }))
    }

    /// The part of an attach that is not WAL bytes: clear any stale mirror
    /// state (a leftover snapshot from before the primary's compaction
    /// horizon would otherwise shadow the fresh one), copy meta and the
    /// snapshot when present, and open both ends of the pipe.
    fn copy_base(&self, primary: &DurableServer) -> std::io::Result<Pipe> {
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir)?;
        std::fs::copy(primary.meta_path(), self.dir.join("meta.json"))?;
        let snapshot = primary.snapshot_path();
        if snapshot.exists() {
            std::fs::copy(&snapshot, self.dir.join("snapshot.json"))?;
        }
        Ok(Pipe {
            source: File::open(primary.wal_path())?,
            sink: OpenOptions::new().create_new(true).write(true).open(self.dir.join("wal.log"))?,
        })
    }
}

/// Copy up to `len` bytes at offset `from` of `source` to the same offset of
/// `sink`, file to file (no buffer of ours in between). Returns the bytes
/// copied: fewer than `len` when `source` ends early.
fn copy_range(source: &mut File, sink: &mut File, from: u64, len: u64) -> std::io::Result<u64> {
    source.seek(SeekFrom::Start(from))?;
    sink.seek(SeekFrom::Start(from))?;
    std::io::copy(&mut source.take(len), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{DurableConfig, DurableServer};
    use crate::wal::{read_wal, FailMode};
    use exacml_dsms::{Schema, Tuple};
    use exacml_plus::StreamPolicyBuilder;
    use exacml_xacml::Policy;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("exacml-replication-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn policy(id: &str) -> Policy {
        StreamPolicyBuilder::new(id, "weather").subject("LTA").filter("rainrate > 5").build()
    }

    fn weather_batch(from: i64, rows: i64) -> Vec<Tuple> {
        let schema = Schema::weather_example().shared();
        (from..from + rows)
            .map(|i| {
                Tuple::builder_shared(&schema)
                    .set("samplingtime", exacml_dsms::Value::Timestamp(i * 30_000))
                    .set("rainrate", 0.25 * i as f64)
                    .finish_with_defaults()
            })
            .collect()
    }

    /// A primary with the weather stream registered, and a detached mirror.
    fn primary_and_mirror(tag: &str, config: DurableConfig) -> (DurableServer, ReplicaMirror) {
        let root = temp_root(tag);
        let primary = DurableServer::create(root.join("primary"), config).unwrap();
        primary.register_stream("weather", Schema::weather_example()).unwrap();
        (primary, ReplicaMirror::new(1, root.join("mirror")))
    }

    fn wal_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join("wal.log")).unwrap()
    }

    fn recover(mirror: &ReplicaMirror, config: &DurableConfig) -> DurableServer {
        DurableServer::recover_with(mirror.dir(), config.clone()).unwrap()
    }

    #[test]
    fn attach_then_incremental_then_reattach_on_compaction() {
        let config = DurableConfig::local();
        let (primary, mut mirror) = primary_and_mirror("ship", config.clone());

        // First contact: full attach.
        let outcome = mirror.ship_from(&primary).unwrap();
        assert!(outcome.attached);
        assert!(outcome.wal_bytes > 0);
        assert_eq!(mirror.acked_seq(), primary.journal_seq());

        // New appends ship incrementally.
        primary.load_policy(policy("p1")).unwrap();
        let outcome = mirror.ship_from(&primary).unwrap();
        assert!(!outcome.attached);
        assert!(outcome.wal_bytes > 0);
        // Nothing new: nothing ships.
        assert!(!mirror.ship_from(&primary).unwrap().shipped_anything());

        // A mirror recovers to the same state as the primary.
        assert_eq!(recover(&mirror, &config).policy_count(), 1);

        // Compaction shrinks the WAL; the mirror re-attaches.
        primary.snapshot().unwrap();
        let outcome = mirror.ship_from(&primary).unwrap();
        assert!(outcome.attached);
        let recovered = recover(&mirror, &config);
        assert_eq!(recovered.policy_count(), 1);
        assert!(recovered.recovery_report().snapshot_loaded);
    }

    /// The WAL's length cannot tell a compaction: by the next ship the new
    /// log may have regrown past the old offset, and appending its
    /// mid-record tail to the pre-compaction mirror corrupts it.
    #[test]
    fn compaction_then_regrowth_reattaches_instead_of_gluing_a_tail() {
        let config = DurableConfig::local();
        let (primary, mut mirror) = primary_and_mirror("regrow", config.clone());
        assert!(mirror.ship_from(&primary).unwrap().attached);

        primary.snapshot().unwrap();
        for id in ["p1", "p2", "p3"] {
            primary.load_policy(policy(id)).unwrap();
        }
        let outcome = mirror.ship_from(&primary).unwrap();
        assert!(outcome.attached, "a new WAL generation must re-attach: {outcome:?}");
        let recovered = recover(&mirror, &config);
        assert_eq!(recovered.recovery_report().torn_tail, None);
        assert!(recovered.recovery_report().snapshot_loaded);
        assert_eq!(recovered.policy_count(), 3);

        // The same race, forced: the mark is taken, *then* the primary
        // compacts and regrows, then the copy runs. The generation re-check
        // after the copy must discard it and leave the mirror detached.
        primary.load_policy(policy("p4")).unwrap();
        let stale = primary.flush_journal().unwrap();
        primary.snapshot().unwrap();
        primary.push_batch("weather", weather_batch(0, 64)).unwrap();
        assert_eq!(mirror.ship_to(&primary, stale).unwrap(), None);
        assert_eq!(mirror.acked_seq(), 0, "a discarded copy acknowledges nothing");
        assert!(mirror.ship_from(&primary).unwrap().attached);
        let recovered = recover(&mirror, &config);
        assert_eq!(recovered.recovery_report().torn_tail, None);
        assert_eq!(recovered.policy_count(), 4);
        assert_eq!(recovered.journal_seq(), primary.journal_seq());
    }

    #[test]
    fn incremental_ships_keep_the_mirror_byte_identical_to_the_flushed_prefix() {
        let config = DurableConfig { snapshot_every: 0, ..DurableConfig::local() };
        let (primary, mut mirror) = primary_and_mirror("bytes", config.clone());
        let mut shipped = 0;
        for round in 0..12i64 {
            // Group-committed ingest (stays in the writer's buffer until the
            // ship flushes it), and every third round a flush-now control
            // record on top.
            primary.push_batch("weather", weather_batch(round * 40, 40)).unwrap();
            if round % 3 == 0 {
                primary.load_policy(policy(&format!("p{round}"))).unwrap();
            }
            let outcome = mirror.ship_from(&primary).unwrap();
            assert_eq!(outcome.attached, round == 0);
            shipped += outcome.wal_bytes;
            assert_eq!(mirror.acked_seq(), primary.journal_seq());
        }
        let mirrored = wal_bytes(mirror.dir());
        assert_eq!(mirrored, wal_bytes(primary.path()));
        assert_eq!(shipped, mirrored.len() as u64);

        // A torn write on the primary: its journal goes sticky, the ship
        // fails before copying anything, and the mirror stays exactly the
        // primary's valid prefix.
        let acked = mirror.acked_seq();
        primary.install_wal_failpoint(FailMode::TornWrite { keep: 9 });
        assert!(primary.push_batch("weather", weather_batch(480, 40)).is_err());
        assert!(mirror.ship_from(&primary).is_err());
        assert_eq!(mirror.acked_seq(), acked);
        let on_primary = read_wal(&primary.wal_path()).unwrap();
        assert!(on_primary.tail_error.is_some(), "the torn bytes reached the primary's file");
        assert_eq!(wal_bytes(mirror.dir()).len() as u64, on_primary.valid_len);
        assert_eq!(wal_bytes(mirror.dir()), mirrored);
        let recovered = recover(&mirror, &config);
        assert_eq!(recovered.recovery_report().torn_tail, None);
        assert_eq!(recovered.journal_seq(), acked);
    }

    #[test]
    fn a_ship_that_fails_midway_acknowledges_nothing_and_the_retry_completes_the_record() {
        let config = DurableConfig::local();
        let (primary, mut mirror) = primary_and_mirror("midway", config.clone());
        mirror.ship_from(&primary).unwrap();
        let (offset, acked) = (mirror.wal_offset, mirror.acked_seq());

        // The copy comes up short of its mark (as when the source read or
        // the sink write dies partway): an error, nothing acknowledged.
        primary.load_policy(policy("p1")).unwrap();
        let mark = primary.flush_journal().unwrap();
        let beyond = JournalMark { wal_len: mark.wal_len + 64, ..mark };
        let err = mirror.ship_to(&primary, beyond).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!((mirror.wal_offset, mirror.acked_seq()), (offset, acked));

        // Leave the mirror where such a failure leaves it — half a record
        // past the acknowledged offset — and retry: the same byte range is
        // written again from the acknowledged offset, not appended.
        let sink = OpenOptions::new().write(true).open(mirror.dir().join("wal.log")).unwrap();
        sink.set_len(offset + 10).unwrap();
        let outcome = mirror.ship_from(&primary).unwrap();
        assert_eq!(outcome, ShipOutcome { wal_bytes: mark.wal_len - offset, attached: false });
        assert_eq!(wal_bytes(mirror.dir()), wal_bytes(primary.path()));
        assert_eq!(recover(&mirror, &config).policy_count(), 1);
    }

    #[test]
    fn detach_then_ship_reattaches_with_fresh_handles() {
        let config = DurableConfig::local();
        let (primary, mut mirror) = primary_and_mirror("detach", config.clone());
        mirror.ship_from(&primary).unwrap();
        primary.load_policy(policy("p1")).unwrap();

        // The mirror host came back with an empty disk. A handle kept from
        // before would write into the unlinked file and leave the new
        // directory without a log.
        mirror.detach();
        std::fs::remove_dir_all(mirror.dir()).unwrap();
        assert_eq!(mirror.acked_seq(), 0);
        let outcome = mirror.ship_from(&primary).unwrap();
        assert!(outcome.attached);
        assert_eq!(wal_bytes(mirror.dir()), wal_bytes(primary.path()));
        assert_eq!(outcome.wal_bytes, wal_bytes(primary.path()).len() as u64);
        assert_eq!(recover(&mirror, &config).policy_count(), 1);
    }

    /// One thread ingests and loads policies on a primary that compacts every
    /// few records; another ships and recovers the mirror after every
    /// acknowledged ship. Whatever the interleaving, the mirror must be the
    /// primary's state at the acknowledged sequence: no torn tail, exactly
    /// that many records, and a policy count the primary really had between
    /// the start and the end of the ship.
    #[test]
    fn ships_racing_a_compacting_primary_always_recover_an_acknowledged_state() {
        let config = DurableConfig { snapshot_every: 7, ..DurableConfig::local() };
        let (primary, mut mirror) = primary_and_mirror("race", config.clone());
        let (loads_started, loads_finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let ingest_done = AtomicBool::new(false);
        let mut acknowledged = 0;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..240i64 {
                    if i % 6 == 0 {
                        loads_started.fetch_add(1, Ordering::SeqCst);
                        primary.load_policy(policy(&format!("p{i}"))).unwrap();
                        loads_finished.fetch_add(1, Ordering::SeqCst);
                    } else {
                        primary.push_batch("weather", weather_batch(i * 8, 8)).unwrap();
                    }
                }
                ingest_done.store(true, Ordering::SeqCst);
            });
            loop {
                // Read before the ship so the final pass sees everything.
                let last_pass = ingest_done.load(Ordering::SeqCst);
                let finished_before = loads_finished.load(Ordering::SeqCst);
                // A ship may give up when every one of its attempts raced a
                // compaction; it must then have acknowledged nothing new.
                if mirror.ship_from(&primary).is_ok() {
                    acknowledged += 1;
                    let started_after = loads_started.load(Ordering::SeqCst);
                    let recovered = recover(&mirror, &config);
                    assert_eq!(recovered.recovery_report().torn_tail, None);
                    assert_eq!(recovered.journal_seq(), mirror.acked_seq());
                    let policies = recovered.policy_count();
                    assert!(
                        (finished_before..=started_after).contains(&policies),
                        "{policies} policies outside {finished_before}..={started_after}"
                    );
                    if last_pass {
                        assert_eq!(mirror.acked_seq(), primary.journal_seq());
                        break;
                    }
                }
            }
        });
        assert!(acknowledged > 1);
        assert!(primary.wal_generation() > 20, "the primary compacted throughout");
    }
}
