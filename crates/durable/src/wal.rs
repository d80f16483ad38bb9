//! The write-ahead log: checksummed, line-framed records over `std::fs`.
//!
//! # Record framing
//!
//! The log is a plain text file. Every record occupies exactly one line:
//!
//! ```text
//! <checksum> <payload>\n
//! ```
//!
//! where `<checksum>` is the 64-bit FNV-1a hash of the payload bytes,
//! rendered as 16 lower-case hex digits, and `<payload>` is one compact JSON
//! object carrying a monotonically increasing `"seq"` field (see
//! [`crate::record`] for the payload vocabulary). The trailing newline is
//! the commit marker: a record without it was torn mid-write.
//!
//! # Torn writes and truncated tails
//!
//! [`read_wal`] accepts the longest valid prefix of the file and reports
//! everything after it as a lost tail:
//!
//! * a final line with no `\n` is an interrupted append — dropped;
//! * a line whose checksum does not match its payload is a torn or
//!   corrupted write — that record *and everything after it* is dropped
//!   (later records may depend on the lost one, so replaying them would
//!   fabricate a state that never existed);
//! * a payload that fails to parse as JSON or carries no `seq` is treated
//!   the same way.
//!
//! Recovery then truncates the file back to the valid prefix
//! ([`truncate_to`]) before appending again, so one torn write can never
//! shadow later, healthy appends. `docs/RECOVERY.md` walks through the
//! whole procedure.

use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// 64-bit FNV-1a folded over 8-byte little-endian words (the final partial
/// word is zero-padded and the byte length is mixed in, so padding cannot
/// collide). Word-at-a-time keeps the hash off the ingest hot path — ~8×
/// the throughput of the byte-wise original. Not cryptographic — it guards
/// against torn writes and bit rot, not adversaries (the store directory is
/// trusted exactly like the server's memory).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("exact 8-byte chunk"));
        hash = hash.wrapping_mul(PRIME);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(PRIME);
    }
    hash ^ bytes.len() as u64
}

/// Frame one payload as a WAL line (checksum, space, payload, newline).
#[must_use]
pub fn frame(payload: &str) -> String {
    format!("{:016x} {payload}\n", checksum(payload.as_bytes()))
}

/// Parse one framed line (without its newline) back into its payload.
/// Returns `None` when the frame is malformed or the checksum mismatches.
#[must_use]
pub fn unframe(line: &str) -> Option<&str> {
    let (hex, payload) = line.split_at_checked(16)?;
    let payload = payload.strip_prefix(' ')?;
    let stated = u64::from_str_radix(hex, 16).ok()?;
    (stated == checksum(payload.as_bytes())).then_some(payload)
}

/// One successfully read WAL record: its sequence number and parsed payload.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The record's journal sequence number.
    pub seq: u64,
    /// The parsed JSON payload (decoded further by [`crate::record`]).
    pub value: Value,
}

/// What [`read_wal`] found.
#[derive(Debug, Clone, Default)]
pub struct WalContents {
    /// The valid records, in file order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix of the file.
    pub valid_len: u64,
    /// Why reading stopped before the end of the file, if it did. The bytes
    /// past `valid_len` are a torn or corrupted tail.
    pub tail_error: Option<String>,
}

/// Read every valid record from a WAL file. A missing file reads as empty.
///
/// # Errors
/// Fails only on I/O errors; torn or corrupted tails are reported in
/// [`WalContents::tail_error`], not as errors.
pub fn read_wal(path: &Path) -> std::io::Result<WalContents> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalContents::default()),
        Err(e) => return Err(e),
    };
    let mut contents = WalContents::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(newline) = bytes[offset..].iter().position(|b| *b == b'\n') else {
            contents.tail_error = Some("final record has no commit newline".to_string());
            break;
        };
        let line = &bytes[offset..offset + newline];
        let Some(payload) = std::str::from_utf8(line).ok().and_then(unframe) else {
            contents.tail_error = Some(format!("checksum or frame mismatch at byte {offset}"));
            break;
        };
        let parsed = match serde_json::from_str(payload) {
            Ok(value) => value,
            Err(e) => {
                contents.tail_error = Some(format!("unparseable payload at byte {offset}: {e}"));
                break;
            }
        };
        let Some(seq) = parsed.get("seq").and_then(Value::as_f64) else {
            contents.tail_error = Some(format!("record at byte {offset} carries no seq"));
            break;
        };
        contents.records.push(WalRecord { seq: seq as u64, value: parsed });
        offset += newline + 1;
        contents.valid_len = offset as u64;
    }
    Ok(contents)
}

/// Truncate a WAL file back to its valid prefix (dropping a torn tail so
/// later appends cannot be shadowed by garbage in the middle of the file).
///
/// # Errors
/// Propagates I/O errors.
pub fn truncate_to(path: &Path, len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

/// An injected filesystem failure mode for [`WalFailpoint`].
///
/// These model the disk faults the recovery procedure must survive — the
/// real versions need a failing device or an out-of-space volume, the shim
/// produces them on demand on a healthy filesystem.
#[derive(Debug, Clone)]
pub enum FailMode {
    /// The disk has `remaining` bytes left: appends succeed until a record
    /// no longer fits, which is written **torn** (its first bytes reach the
    /// file, the commit newline does not) and converts the failpoint to
    /// [`FailMode::Sticky`] — a full disk does not un-fill itself.
    DiskFull {
        /// Bytes of framed WAL data still accepted before the device fills.
        remaining: usize,
    },
    /// Every write fails with `message`, nothing reaches the file — a dead
    /// or ejected device.
    Sticky {
        /// The error message surfaced on every subsequent write.
        message: String,
    },
    /// The next append is torn after `keep` bytes of the framed record
    /// (simulating a crash mid-`write(2)`), then the failpoint converts to
    /// [`FailMode::Sticky`].
    TornWrite {
        /// Bytes of the framed record that reach the file before the tear.
        keep: usize,
    },
}

/// The decision [`WalFailpoint::intercept`] takes for one framed record.
enum Intercept {
    /// No fault active — write normally.
    Pass,
    /// Write only the first `keep` bytes (torn), then fail with `error`.
    WriteTorn { keep: usize, error: String },
    /// Write nothing, fail with `error`.
    Fail { error: String },
}

/// An error-injecting shim between [`WalWriter`] and the filesystem.
///
/// Disarmed (the default) it costs one relaxed atomic load per append, so
/// the shim stays compiled into the production ingest path. Arming it makes
/// the writer *actually* produce the on-disk states the fault models — a
/// torn record's prefix really reaches the file, so recovery code is
/// exercised against genuine torn tails rather than hand-crafted ones.
#[derive(Debug, Default)]
pub struct WalFailpoint {
    armed: AtomicBool,
    mode: Mutex<Option<FailMode>>,
}

impl WalFailpoint {
    /// Arm the failpoint with a failure mode. Replaces any previous mode.
    pub fn arm(&self, mode: FailMode) {
        *self.mode.lock().expect("failpoint mode lock") = Some(mode);
        self.armed.store(true, Ordering::Release);
    }

    /// Disarm the failpoint; subsequent writes behave normally.
    pub fn disarm(&self) {
        *self.mode.lock().expect("failpoint mode lock") = None;
        self.armed.store(false, Ordering::Release);
    }

    /// Whether a failure mode is currently armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// The sticky error message, when the armed mode fails *every* write
    /// (not just the next append) — flushes must fail too.
    fn sticky_error(&self) -> Option<String> {
        if !self.is_armed() {
            return None;
        }
        match &*self.mode.lock().expect("failpoint mode lock") {
            Some(FailMode::Sticky { message }) => Some(message.clone()),
            _ => None,
        }
    }

    /// Decide what happens to one framed record of `line_len` bytes,
    /// advancing the mode's internal state (budget consumption, conversion
    /// to sticky).
    fn intercept(&self, line_len: usize) -> Intercept {
        let mut guard = self.mode.lock().expect("failpoint mode lock");
        match guard.take() {
            None => Intercept::Pass,
            Some(FailMode::DiskFull { remaining }) => {
                if line_len <= remaining {
                    *guard = Some(FailMode::DiskFull { remaining: remaining - line_len });
                    return Intercept::Pass;
                }
                let message = "no space left on device (injected)".to_string();
                *guard = Some(FailMode::Sticky { message: message.clone() });
                Intercept::WriteTorn { keep: remaining, error: message }
            }
            Some(FailMode::Sticky { message }) => {
                *guard = Some(FailMode::Sticky { message: message.clone() });
                Intercept::Fail { error: message }
            }
            Some(FailMode::TornWrite { keep }) => {
                let message = "write torn mid-append (injected)".to_string();
                *guard = Some(FailMode::Sticky { message: message.clone() });
                Intercept::WriteTorn { keep: keep.min(line_len), error: message }
            }
        }
    }
}

/// An append-only writer over one WAL file.
pub struct WalWriter {
    path: PathBuf,
    file: BufWriter<File>,
    /// Flush + fsync after every record (crash-proof but slow) instead of
    /// only flushing to the OS (torn-tail-proof; loses at most what the OS
    /// had not written back on a *power* failure, nothing on a process
    /// crash).
    sync_writes: bool,
    /// The error-injecting shim. Disarmed in production: one relaxed load
    /// per append.
    failpoint: Arc<WalFailpoint>,
    /// How many times this writer emptied the log ([`WalWriter::reset`]).
    /// Byte offsets into the file only mean something within one generation,
    /// which is what a replication shipper compares before trusting its
    /// acknowledged offset.
    generation: u64,
}

impl WalWriter {
    /// Open (creating if necessary) a WAL file for appending.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn open(path: impl Into<PathBuf>, sync_writes: bool) -> std::io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(WalWriter {
            path,
            file: BufWriter::with_capacity(256 * 1024, file),
            sync_writes,
            failpoint: Arc::new(WalFailpoint::default()),
            generation: 0,
        })
    }

    /// The file this writer appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A shared handle to the writer's error-injecting shim; arm it to make
    /// subsequent writes fail in the chosen [`FailMode`].
    #[must_use]
    pub fn failpoint(&self) -> Arc<WalFailpoint> {
        Arc::clone(&self.failpoint)
    }

    /// Append one framed payload. The record is flushed to the OS before the
    /// call returns (and fsynced when the writer was opened with
    /// `sync_writes`), so an acknowledged append survives a process crash.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn append(&mut self, payload: &str) -> std::io::Result<()> {
        self.append_buffered(payload)?;
        self.flush()
    }

    /// Append one framed payload into the writer's buffer *without* forcing
    /// it to the OS — the group-commit path for data-plane (ingest)
    /// records: the buffer drains when it fills (256 KiB), on the next
    /// synchronous append, on [`WalWriter::flush`], and on drop. A crash in
    /// between loses at most the buffered data records, never an
    /// already-flushed control-plane record.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn append_buffered(&mut self, payload: &str) -> std::io::Result<()> {
        if self.failpoint.armed.load(Ordering::Relaxed) {
            return self.append_through_failpoint(payload);
        }
        // Equivalent to writing `frame(payload)` but without materializing
        // the concatenated line (this is the ingest hot path).
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let sum = checksum(payload.as_bytes());
        let mut head = [0u8; 17];
        for (i, byte) in head[..16].iter_mut().enumerate() {
            *byte = HEX[((sum >> (60 - 4 * i)) & 0xf) as usize];
        }
        head[16] = b' ';
        self.file.write_all(&head)?;
        self.file.write_all(payload.as_bytes())?;
        self.file.write_all(b"\n")
    }

    /// The armed-failpoint append path: consult the shim, and when it orders
    /// a torn write make the record's prefix *actually* reach the file so a
    /// later recovery sees a genuine torn tail.
    fn append_through_failpoint(&mut self, payload: &str) -> std::io::Result<()> {
        let line = frame(payload);
        match self.failpoint.intercept(line.len()) {
            Intercept::Pass => {
                self.file.write_all(line.as_bytes())?;
                Ok(())
            }
            Intercept::WriteTorn { keep, error } => {
                // Drain healthy buffered records first so the torn bytes
                // land after them, exactly as a real device would order it.
                self.file.flush()?;
                let mut raw: &File = self.file.get_ref();
                raw.write_all(&line.as_bytes()[..keep])?;
                raw.sync_data()?;
                Err(std::io::Error::other(error))
            }
            Intercept::Fail { error } => Err(std::io::Error::other(error)),
        }
    }

    /// Drain the buffer to the OS (and to disk when `sync_writes`).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if let Some(message) = self.failpoint.sticky_error() {
            return Err(std::io::Error::other(message));
        }
        self.file.flush()?;
        if self.sync_writes {
            self.file.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// How many times [`WalWriter::reset`] has emptied this log.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The file's current length. Buffered records are not in the file yet:
    /// call after [`WalWriter::flush`] for the length of everything appended.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn file_len(&self) -> std::io::Result<u64> {
        Ok(self.file.get_ref().metadata()?.len())
    }

    /// Reset the log to empty (after its contents were folded into a
    /// snapshot) and start a new generation.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.generation += 1;
        self.file.get_ref().set_len(0)?;
        self.file.get_ref().sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exacml-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn frame_and_unframe_round_trip() {
        let payload = r#"{"seq":7,"op":"release"}"#;
        let line = frame(payload);
        assert!(line.ends_with('\n'));
        assert_eq!(unframe(line.trim_end_matches('\n')), Some(payload));
        // A flipped payload byte breaks the checksum.
        let tampered = line.replace("release", "rElease");
        assert_eq!(unframe(tampered.trim_end_matches('\n')), None);
        // Malformed frames are rejected, not panicked on.
        assert_eq!(unframe(""), None);
        assert_eq!(unframe("zzzz"), None);
        assert_eq!(unframe("0123456789abcdef{no-space}"), None);
    }

    #[test]
    fn append_read_and_missing_file() {
        let path = temp_wal("rt");
        assert!(read_wal(&path).unwrap().records.is_empty());
        let mut writer = WalWriter::open(&path, false).unwrap();
        for seq in 0..5u64 {
            writer.append(&format!(r#"{{"seq":{seq},"op":"noop"}}"#)).unwrap();
        }
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 5);
        assert!(contents.tail_error.is_none());
        assert_eq!(contents.valid_len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(contents.records[3].seq, 3);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncatable() {
        let path = temp_wal("torn");
        let mut writer = WalWriter::open(&path, true).unwrap();
        writer.append(r#"{"seq":0,"op":"a"}"#).unwrap();
        writer.append(r#"{"seq":1,"op":"b"}"#).unwrap();
        drop(writer);
        // Simulate a crash mid-append: half a framed record, no newline.
        let full = std::fs::read(&path).unwrap();
        let torn = frame(r#"{"seq":2,"op":"c"}"#);
        let mut bytes = full.clone();
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 2);
        assert!(contents.tail_error.unwrap().contains("no commit newline"));
        assert_eq!(contents.valid_len, full.len() as u64);

        truncate_to(&path, contents.valid_len).unwrap();
        let clean = read_wal(&path).unwrap();
        assert_eq!(clean.records.len(), 2);
        assert!(clean.tail_error.is_none());
    }

    #[test]
    fn corruption_mid_file_drops_everything_after_it() {
        let path = temp_wal("mid");
        let mut writer = WalWriter::open(&path, false).unwrap();
        for seq in 0..4u64 {
            writer.append(&format!(r#"{{"seq":{seq},"op":"x"}}"#)).unwrap();
        }
        drop(writer);
        // Flip one byte inside the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_start = bytes.iter().position(|b| *b == b'\n').unwrap() + 1;
        bytes[second_start + 20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 1, "records after the corruption must not replay");
        assert!(contents.tail_error.unwrap().contains("checksum"));
    }

    #[test]
    fn disk_full_failpoint_tears_the_overflowing_record_then_sticks() {
        let path = temp_wal("full");
        let mut writer = WalWriter::open(&path, false).unwrap();
        writer.append(r#"{"seq":0,"op":"a"}"#).unwrap();
        let one_record = std::fs::metadata(&path).unwrap().len() as usize;

        // Budget for one-and-a-half more records: the second append fits,
        // the third is torn mid-write.
        writer.failpoint().arm(FailMode::DiskFull { remaining: one_record + one_record / 2 });
        writer.append(r#"{"seq":1,"op":"b"}"#).unwrap();
        let err = writer.append(r#"{"seq":2,"op":"c"}"#).unwrap_err();
        assert!(err.to_string().contains("no space left"), "unexpected error: {err}");
        // The device stays full: later appends and flushes keep failing.
        assert!(writer.append(r#"{"seq":3,"op":"d"}"#).is_err());
        assert!(writer.flush().is_err());
        drop(writer);

        // The torn prefix really reached the file; the readable prefix (two
        // committed records) survives intact.
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert!(on_disk > 2 * one_record as u64, "the torn prefix must reach the file");
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 2);
        assert_eq!(contents.records[1].seq, 1);
        assert!(contents.tail_error.is_some());
    }

    #[test]
    fn torn_write_failpoint_then_recovery_truncates_cleanly() {
        let path = temp_wal("fp-torn");
        let mut writer = WalWriter::open(&path, true).unwrap();
        writer.append(r#"{"seq":0,"op":"a"}"#).unwrap();
        writer.failpoint().arm(FailMode::TornWrite { keep: 7 });
        assert!(writer.append(r#"{"seq":1,"op":"b"}"#).is_err());
        drop(writer);

        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert!(contents.tail_error.is_some());
        truncate_to(&path, contents.valid_len).unwrap();

        // After "replacing the device" (a fresh writer, failpoint disarmed)
        // the log accepts appends again.
        let mut writer = WalWriter::open(&path, true).unwrap();
        writer.append(r#"{"seq":1,"op":"b"}"#).unwrap();
        let clean = read_wal(&path).unwrap();
        assert_eq!(clean.records.len(), 2);
        assert!(clean.tail_error.is_none());
    }

    #[test]
    fn sticky_failpoint_writes_nothing_and_disarm_restores_service() {
        let path = temp_wal("fp-sticky");
        let mut writer = WalWriter::open(&path, false).unwrap();
        writer.append(r#"{"seq":0,"op":"a"}"#).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        let failpoint = writer.failpoint();
        failpoint.arm(FailMode::Sticky { message: "io error (injected)".into() });
        assert!(writer.append(r#"{"seq":1,"op":"b"}"#).is_err());
        assert!(writer.flush().is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before, "sticky writes nothing");
        failpoint.disarm();
        assert!(!failpoint.is_armed());
        writer.append(r#"{"seq":1,"op":"b"}"#).unwrap();
        assert_eq!(read_wal(&path).unwrap().records.len(), 2);
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("reset");
        let mut writer = WalWriter::open(&path, false).unwrap();
        writer.append(r#"{"seq":0,"op":"x"}"#).unwrap();
        assert_eq!(writer.generation(), 0);
        writer.reset().unwrap();
        assert_eq!((writer.generation(), writer.file_len().unwrap()), (1, 0));
        assert!(read_wal(&path).unwrap().records.is_empty());
        writer.append(r#"{"seq":1,"op":"y"}"#).unwrap();
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.records[0].seq, 1);
    }
}
