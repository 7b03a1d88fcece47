//! Crash-safe files: the one durable write, the one durable append, the
//! one checksummed record frame, and the one sweep of debris that killed
//! writers leave behind.
//!
//! Every file the workspace must find intact after `SIGKILL` or power
//! loss — `.snap` entries, result-cache entries, the serve daemon's
//! write-ahead batch files, the shard layer's batch file and lease
//! snapshot, and whole-journal rewrites — is written through
//! [`write_atomic`]. Journal records are added through [`append_synced`].
//! Records whose integrity a reader must check are framed by [`frame`]
//! and verified by [`unframe`]:
//!
//! ```text
//! <16-hex FNV-1a of payload> <payload>\n
//! ```
//!
//! A reader that sees a frame fail treats the record as absent (and,
//! where the file is a cache, deletes it so the next writer replaces it).
//!
//! ```
//! use bl_simcore::durable::{frame, unframe};
//!
//! let line = frame(r#"{"ev":"done"}"#);
//! assert_eq!(unframe(&line), Some(r#"{"ev":"done"}"#));
//! assert_eq!(unframe(&line.replace("done", "gone")), None);
//! ```

use crate::journal::fnv1a;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How old a debris file must be before startup hygiene removes it: a
/// writer that has not touched its temp file in a day is dead, while a
/// live one in another process (possibly of another batch sharing the
/// directory) is never swept from under itself.
pub const STALE_AFTER: Duration = Duration::from_secs(24 * 3600);

/// Uniquifies temp names across the threads of one process; the pid in
/// the name separates processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Replaces the file at `path` with `bytes` so that readers — and a
/// process restarted after a crash — see either the old content or the
/// new, never a torn mix.
///
/// The bytes go to a unique sibling `<name>.<pid>-<seq>.tmp`, which is
/// fsynced, renamed over `path`, and then the directory is fsynced so the
/// rename itself survives power loss (best effort: some platforms cannot
/// fsync a directory). Concurrent writers to one path each rename a
/// complete file; the last rename wins. The parent directory must exist.
///
/// # Errors
///
/// Propagates I/O failures (including `path` naming a directory); the
/// temp file is removed on every error path.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".{}-{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let written = fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    sync_dir(path);
    Ok(())
}

/// Appends `bytes` to the file at `path` and makes them durable before
/// returning: one `write_all` to an `O_APPEND` handle, then one
/// `sync_data`.
///
/// `handle` caches that handle; the first append opens it, creating the
/// file if needed, and an append that creates the file also fsyncs the
/// directory, so the new name survives power loss. On a write or sync
/// error the file is cut back to its length before the append, so a
/// failed append leaves no fragment for the next one to glue onto. The
/// parent directory must exist.
///
/// A concurrent reader may see an append half-written; callers that
/// frame their records ([`frame`]) read such a last line as not yet
/// appended, because its frame fails.
///
/// # Errors
///
/// Propagates I/O failures opening, writing or syncing the file.
pub fn append_synced(handle: &mut Option<fs::File>, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file = match handle {
        Some(file) => file,
        None => {
            let new = fs::OpenOptions::new()
                .append(true)
                .create_new(true)
                .open(path);
            let file = match new {
                Ok(file) => {
                    sync_dir(path);
                    file
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    fs::OpenOptions::new().append(true).open(path)?
                }
                Err(e) => return Err(e),
            };
            handle.insert(file)
        }
    };
    let before = file.metadata()?.len();
    let appended = file.write_all(bytes).and_then(|()| file.sync_data());
    if appended.is_err() {
        let _ = file.set_len(before);
    }
    appended
}

/// Fsyncs the directory holding `path`, so a create or rename there
/// survives power loss (best effort: some platforms cannot fsync a
/// directory).
fn sync_dir(path: &Path) {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Ok(d) = fs::File::open(dir.unwrap_or(Path::new("."))) {
        let _ = d.sync_all();
    }
}

/// Frames one record as `<16-hex FNV-1a of payload> <payload>\n`.
///
/// A frame is one line, so `payload` must not contain a newline (callers
/// frame compact JSON, or reject multi-line input first).
pub fn frame(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "a framed record is one line");
    format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()))
}

/// Verifies one framed line (the trailing newline is optional) and
/// returns its payload, or `None` when the sum is not 16 hex digits, the
/// separator is missing, or the payload does not match the sum.
pub fn unframe(line: &str) -> Option<&str> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let (sum, payload) = line.split_once(' ')?;
    if sum.len() != 16 {
        return None;
    }
    let expected = u64::from_str_radix(sum, 16).ok()?;
    (fnv1a(payload.as_bytes()) == expected).then_some(payload)
}

/// Removes the files in `dir` whose name `is_debris` accepts and that
/// were last modified at least `older_than` ago (a file whose age cannot
/// be read counts as brand new). With `older_than` zero every accepted
/// file goes.
///
/// Returns how many files were removed. I/O failures are tolerated —
/// hygiene must never kill the run it tidies up after.
pub fn remove_stale(dir: &Path, older_than: Duration, is_debris: impl Fn(&str) -> bool) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        if !entry.file_name().to_str().is_some_and(&is_debris) {
            continue;
        }
        let age = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .unwrap_or_default();
        if age >= older_than && fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bl-durable-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut v: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn overwrite_leaves_only_the_target() {
        let dir = temp_dir("overwrite");
        let path = dir.join("entry.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(names(&dir), ["entry.json"], "no temp file survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_leave_exactly_one_whole_record() {
        let dir = temp_dir("race");
        let path = dir.join("entry.snap");
        let frames: Vec<String> = (0..8)
            .map(|i| {
                frame(&format!(
                    "{{\"writer\":{i},\"pad\":\"{}\"}}",
                    "x".repeat(4096)
                ))
            })
            .collect();
        let start = Barrier::new(frames.len());
        std::thread::scope(|s| {
            for f in &frames {
                let (start, path) = (&start, &path);
                s.spawn(move || {
                    start.wait();
                    write_atomic(path, f.as_bytes()).unwrap();
                });
            }
        });
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(frames.iter().filter(|f| **f == text).count(), 1);
        assert!(unframe(&text).is_some());
        assert_eq!(names(&dir), ["entry.snap"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn target_occupied_by_a_directory_errors_without_debris() {
        let dir = temp_dir("dirclash");
        let path = dir.join("entry.json");
        fs::create_dir(&path).unwrap();
        assert!(write_atomic(&path, b"payload").is_err());
        assert_eq!(names(&dir), ["entry.json"], "the temp file was removed");
        assert!(path.is_dir());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_extend_the_file_through_one_handle_or_a_fresh_one() {
        let dir = temp_dir("append");
        let path = dir.join("log.jsonl");
        let mut handle = None;
        append_synced(&mut handle, &path, b"a\n").unwrap();
        append_synced(&mut handle, &path, b"b\n").unwrap();
        append_synced(&mut None, &path, b"c\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"a\nb\nc\n");
        assert_eq!(names(&dir), ["log.jsonl"]);
        assert!(append_synced(&mut None, &dir, b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unframe_round_trips_and_rejects_malformed_frames() {
        let line = frame("payload with spaces");
        assert_eq!(unframe(&line), Some("payload with spaces"));
        assert_eq!(unframe(line.trim_end()), Some("payload with spaces"));
        // A short sum: with its leading zero dropped, a sum still parses
        // to the same value, so only the length check rejects it.
        let padded = (0..)
            .map(|i| frame(&format!("payload {i}")))
            .find(|f| f.starts_with('0'))
            .unwrap();
        assert_eq!(unframe(&padded[1..]), None);
        let sum = &line[..16];
        for bad in [
            format!("{}g payload with spaces", &sum[1..]),
            format!("{sum}payload-without-separator"),
            format!("{sum} payload with spaces!"),
            String::new(),
        ] {
            assert_eq!(unframe(&bad), None, "accepted {bad:?}");
        }
    }
}
