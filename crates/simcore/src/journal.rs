//! A crash-safe, line-oriented journal of checksummed records.
//!
//! The sweep engine records each finished scenario here so a killed
//! process can resume a batch without recomputing finished work, and the
//! serve daemon records its runs' lifecycle. Durability model:
//!
//! * every record line is a [`durable::frame`]
//!   (`<16-hex FNV-1a> <payload>`); lines whose checksum does not match
//!   (e.g. hand-edited or damaged storage) are dropped on load instead of
//!   poisoning the resume;
//! * an **append writes only the new frames**, in one write to an
//!   `O_APPEND` handle ([`durable::Appender`]), and names its
//!   [`Class`]: a derived record is never synced, a promise is synced
//!   with the file's directory entry before the append returns. A failed
//!   append is cut back off the file;
//! * a crash mid-append can leave a **torn tail** (bytes after the last
//!   newline), and a power cut may drop every derived record after the
//!   last promise. [`Journal::open`] with `resume` cuts a torn tail
//!   before loading, so a new record never glues onto a fragment;
//! * a reader running alongside the writer ([`Journal::load`]) may catch
//!   an append half-written: its last line fails the frame and reads as
//!   not yet appended, so no lock is needed;
//! * a **whole-file rewrite** (compaction, fleet merge) goes through
//!   [`Journal::replace`], i.e. [`durable::replace`], so a crash leaves
//!   the old journal or the new one, never a torn mix;
//! * a journal holds in memory only what [`Journal::open`] or
//!   [`Journal::replace`] loaded, never what it appended since, so a
//!   long-lived writer does not keep its whole history.

use crate::durable::{self, Appender, Class};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a over a byte slice — the workspace's standard content
/// hash (cache keys, record frames, batch keys).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An append-only journal of checksummed text records.
#[derive(Debug)]
pub struct Journal {
    records: Vec<String>,
    appender: Appender,
}

impl Journal {
    /// Opens the journal at `path`.
    ///
    /// With `resume = false` any existing journal is discarded and the
    /// batch starts fresh. With `resume = true` a torn tail (bytes after
    /// the last newline, left by an append a crash cut short) is cut off,
    /// the remaining records are loaded (corrupt lines dropped) and
    /// subsequent appends extend them.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating the parent directory, reading or
    /// cutting the journal, or removing a stale journal; a missing file
    /// on resume is not an error.
    pub fn open(path: impl Into<PathBuf>, resume: bool) -> io::Result<Journal> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut records = Vec::new();
        if resume {
            match fs::read(&path) {
                Ok(bytes) => {
                    let intact = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    if intact < bytes.len() {
                        fs::OpenOptions::new()
                            .write(true)
                            .open(&path)?
                            .set_len(intact as u64)?;
                    }
                    records = parse(&bytes[..intact]);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        } else if path.exists() {
            // A stale journal entry path may even be a directory left by
            // outside interference; clear either form.
            if path.is_dir() {
                fs::remove_dir_all(&path)?;
            } else {
                fs::remove_file(&path)?;
            }
        }
        Ok(Journal {
            records,
            appender: Appender::new(path),
        })
    }

    /// Replaces the journal at `path` with exactly `records`, atomically
    /// ([`durable::replace`] in `class`): a crash leaves the old journal
    /// or the new one, never a torn mix. This is the rewrite for
    /// compaction and merges; appends go through [`Journal::append_all`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the parent directory must exist);
    /// `InvalidInput` for a multi-line record, in which case nothing is
    /// written.
    pub fn replace(
        class: Class,
        path: impl Into<PathBuf>,
        records: Vec<String>,
    ) -> io::Result<Journal> {
        let path = path.into();
        let text = frame_all(&records)?;
        durable::replace(class, &path, text.as_bytes())?;
        Ok(Journal {
            records,
            appender: Appender::new(path),
        })
    }

    /// The records [`Journal::open`] or [`Journal::replace`] loaded, in
    /// order. Appends made since are not kept in memory; read them back
    /// with [`Journal::load`].
    pub fn records(&self) -> &[String] {
        &self.records
    }

    /// The journal's on-disk location.
    pub fn path(&self) -> &Path {
        self.appender.path()
    }

    /// Appends one derived record (newlines inside `payload` are rejected
    /// — one record is one line): `append_all(Class::Derived, &[payload])`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; `InvalidInput` for a multi-line payload.
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        self.append_all(Class::Derived, &[payload])
    }

    /// Appends records of one `class` with a **single** write — and, for a
    /// promise, a single sync ([`Appender::append`]).
    ///
    /// All-or-nothing: if any payload is multi-line, or the write or sync
    /// fails, nothing is appended.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; `InvalidInput` for a multi-line payload.
    pub fn append_all(&mut self, class: Class, payloads: &[impl AsRef<str>]) -> io::Result<()> {
        let text = frame_all(payloads)?;
        self.appender.append(class, text.as_bytes())
    }

    /// Reads the checksummed records of the journal at `path` without
    /// opening it for writing — how the sharded-sweep coordinator merges
    /// the journals of workers it did not itself write. Corrupt lines are
    /// dropped exactly as in [`Journal::open`], but nothing is cut, so the
    /// writer may be appending meanwhile; a missing file reads as empty (a
    /// worker that died before its first append journaled nothing, which
    /// is not an error).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn load(path: &Path) -> io::Result<Vec<String>> {
        match fs::read(path) {
            Ok(bytes) => Ok(parse(&bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }
}

/// Frames `payloads` into one buffer, or `InvalidInput` if any is
/// multi-line (one record is one line).
fn frame_all(payloads: &[impl AsRef<str>]) -> io::Result<String> {
    if payloads.iter().any(|p| p.as_ref().contains('\n')) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "journal records must be single lines",
        ));
    }
    Ok(payloads
        .iter()
        .map(|p| durable::frame(p.as_ref()))
        .collect())
}

/// The payloads of the intact frames in `bytes`. Lossy decoding: a line
/// with damaged UTF-8 fails its checksum and is dropped like any other
/// corrupt line.
fn parse(bytes: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(bytes)
        .lines()
        .filter_map(durable::unframe)
        .map(str::to_string)
        .collect()
}

/// Removes stale sharded-sweep artifacts from a journal directory:
/// per-worker journals (`*.worker-*.jsonl`), lease snapshots
/// (`*.leases.json`), serialized batches (`*.batch.json`) and orphaned
/// temp files (`*.tmp`) left behind by killed coordinators. Files whose
/// name starts with `<current_batch>.` are never touched (another process
/// of the *same* batch may be mid-crash-recovery on them), and neither is
/// anything younger than `older_than` — so a second coordinator running a
/// different batch in the same directory is safe as long as it makes
/// progress within that window. Merged batch journals (`<key>.jsonl`) are
/// deliberately kept: they are the fleet-wide resume state.
///
/// Returns how many files were removed. All I/O failures are tolerated —
/// hygiene must never kill the sweep it tidies up after.
pub fn clean_stale_artifacts(
    dir: &Path,
    current_batch: &str,
    older_than: std::time::Duration,
) -> usize {
    let protect = format!("{current_batch}.");
    durable::remove_stale(dir, older_than, |name| {
        !name.starts_with(&protect)
            && (name.ends_with(".tmp")
                || name.ends_with(".leases.json")
                || name.ends_with(".batch.json")
                || (name.ends_with(".jsonl") && name.contains(".worker-")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bl-journal-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("batch.jsonl")
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn append_then_resume_round_trips() {
        let path = tmp_path("roundtrip");
        let mut j = Journal::open(&path, false).unwrap();
        j.append(r#"{"ev":"start","i":0}"#).unwrap();
        j.append(r#"{"ev":"done","i":0}"#).unwrap();
        drop(j);
        let j = Journal::open(&path, true).unwrap();
        assert_eq!(
            j.records(),
            [r#"{"ev":"start","i":0}"#, r#"{"ev":"done","i":0}"#]
        );
    }

    #[test]
    fn fresh_open_discards_previous_batch() {
        let path = tmp_path("fresh");
        let mut j = Journal::open(&path, false).unwrap();
        j.append("old").unwrap();
        drop(j);
        let j = Journal::open(&path, false).unwrap();
        assert!(j.records().is_empty());
        assert!(!path.exists());
    }

    #[test]
    fn corrupt_lines_are_dropped_on_resume() {
        let path = tmp_path("corrupt");
        let mut j = Journal::open(&path, false).unwrap();
        j.append("good-1").unwrap();
        j.append("good-2").unwrap();
        drop(j);
        // Flip a byte in the second record's payload and append garbage —
        // simulating damaged storage and a torn tail.
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replace("good-2", "evil-2") + "not a framed line\n0123 short";
        fs::write(&path, tampered).unwrap();
        let j = Journal::open(&path, true).unwrap();
        assert_eq!(j.records(), ["good-1"]);
    }

    #[test]
    fn resume_of_missing_journal_is_empty() {
        let path = tmp_path("missing");
        let j = Journal::open(&path, true).unwrap();
        assert!(j.records().is_empty());
    }

    #[test]
    fn multiline_payloads_are_rejected() {
        let path = tmp_path("multiline");
        let mut j = Journal::open(&path, false).unwrap();
        assert!(j.append("two\nlines").is_err());
        assert!(j
            .append_all(Class::Promise, &["fine", "two\nlines"])
            .is_err());
        assert!(
            Journal::load(&path).unwrap().is_empty(),
            "rejected batches append nothing"
        );
    }

    #[test]
    fn append_all_is_one_durable_write_and_loads_back() {
        let path = tmp_path("bulk");
        let mut j = Journal::open(&path, false).unwrap();
        j.append("first").unwrap();
        j.append_all(Class::Promise, &["second", "third"]).unwrap();
        drop(j);
        assert_eq!(Journal::load(&path).unwrap(), ["first", "second", "third"]);
        // Read-only load of a missing journal is empty, not an error.
        assert!(Journal::load(&path.with_extension("absent"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn torn_tail_is_cut_before_the_next_append() {
        let path = tmp_path("torn");
        let records = ["first", "second ΔT", "third"];
        Journal::open(&path, false)
            .unwrap()
            .append_all(Class::Derived, &records)
            .unwrap();
        let clean = fs::read(&path).unwrap();
        for n in 0..=clean.len() {
            fs::write(&path, &clean[..n]).unwrap();
            let mut j = Journal::open(&path, true).unwrap();
            j.append("next").unwrap();
            // A record is intact when its newline survived the cut.
            let intact = clean[..n].iter().filter(|&&b| b == b'\n').count();
            let mut want = records[..intact].to_vec();
            assert_eq!(j.records(), want, "truncated to {n} bytes");
            want.push("next");
            assert_eq!(
                Journal::load(&path).unwrap(),
                want,
                "truncated to {n} bytes"
            );
        }
    }

    #[test]
    fn replace_rewrites_to_the_bytes_appends_would_leave() {
        let path = tmp_path("replace");
        let records: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        let mut j = Journal::open(&path, false).unwrap();
        for r in &records {
            j.append(r).unwrap();
        }
        let appended = fs::read(&path).unwrap();
        j.append("stale").unwrap();

        assert!(Journal::replace(Class::Promise, &path, vec!["two\nlines".to_string()]).is_err());
        assert_eq!(Journal::load(&path).unwrap(), ["a", "b", "c", "stale"]);
        let mut j = Journal::replace(Class::Derived, &path, records.clone()).unwrap();
        assert_eq!(j.records(), records);
        assert_eq!(fs::read(&path).unwrap(), appended);
        j.append("d").unwrap();
        assert_eq!(Journal::load(&path).unwrap(), ["a", "b", "c", "d"]);
        let dir = path.parent().unwrap();
        assert_eq!(fs::read_dir(dir).unwrap().count(), 1, "no temp file left");
    }

    #[test]
    fn stale_shard_artifacts_are_cleaned_but_batch_state_survives() {
        let dir = std::env::temp_dir().join(format!("bl-journal-hygiene-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let touch = |name: &str| fs::write(dir.join(name), b"x").unwrap();
        // Another (dead) batch's debris...
        touch("deadbeef.worker-123-0.jsonl");
        touch("deadbeef.leases.json");
        touch("deadbeef.batch.json");
        touch("deadbeef.jsonl.tmp");
        // ...its merged journal (fleet resume state — must survive)...
        touch("deadbeef.jsonl");
        // ...and the current batch's own in-flight artifacts.
        touch("cafe.worker-77-1.jsonl");
        touch("cafe.leases.json");

        // Young files are protected by the age threshold.
        let removed = clean_stale_artifacts(&dir, "cafe", std::time::Duration::from_secs(3600));
        assert_eq!(removed, 0);
        // With the threshold at zero the foreign debris goes away...
        let removed = clean_stale_artifacts(&dir, "cafe", std::time::Duration::ZERO);
        assert_eq!(removed, 4);
        // ...while the merged journal and the current batch's files stay.
        assert!(dir.join("deadbeef.jsonl").exists());
        assert!(dir.join("cafe.worker-77-1.jsonl").exists());
        assert!(dir.join("cafe.leases.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
