//! Crash-safe files: the two write classes, the one checksummed record
//! frame, and the one sweep of debris that killed writers leave behind.
//!
//! Every durable write names its [`Class`] at the call site:
//!
//! * a **promise** ([`Class::Promise`]) backs something a client has been
//!   told. The workspace makes one: the serve daemon's admission record,
//!   which carries the batch (plus the compaction that rewrites the
//!   journal holding it). A promise is synced, with the directory entry
//!   of the file it lands in, before the write returns;
//! * **derived** state ([`Class::Derived`]) is everything a restart can
//!   re-derive: sweep and worker journal records, the daemon's other
//!   lifecycle records, `.snap` entries, result-cache entries, the shard
//!   layer's batch and lease files and its merged journals. It is never
//!   synced. `SIGKILL` loses none of it, because the kernel keeps every
//!   completed `write`; a power cut may lose any of it. Its readers
//!   already take a loss as a miss (a failed frame, an absent or empty
//!   file, a fingerprint mismatch), and a miss costs one deterministic
//!   re-simulation with identical bytes.
//!
//! Both classes keep the same shapes. [`replace`] writes a unique temp
//! sibling and renames it over the target, so readers see the old file or
//! the new one, never a torn mix. [`Appender::append`] adds bytes with one
//! `write_all` to an `O_APPEND` handle and cuts a failed append back off
//! the file. Records whose integrity a reader must check are framed by
//! [`frame`] and verified by [`unframe`]:
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
//!
//! [`PowerCut`] models what a power cut leaves of the files under one
//! directory, so tests can hold every writer to its class. It is inert
//! until a test installs it.

// `durable` is the one module that syncs or renames (`clippy.toml`).
#![allow(clippy::disallowed_methods)]

use crate::journal::fnv1a;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// How old a debris file must be before startup hygiene removes it: a
/// writer that has not touched its temp file in a day is dead, while a
/// live one in another process (possibly of another batch sharing the
/// directory) is never swept from under itself.
pub const STALE_AFTER: Duration = Duration::from_secs(24 * 3600);

/// Uniquifies temp names across the threads of one process; the pid in
/// the name separates processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// What a durable write backs, and therefore whether it is synced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Backs a promise made to a client: the bytes and the file's
    /// directory entry are synced before the write returns.
    Promise,
    /// State a restart re-derives byte-identically: written, never
    /// synced.
    Derived,
}

/// Replaces the file at `path` with `bytes` so that readers — and a
/// process restarted after a crash — see either the old content or the
/// new, never a torn mix.
///
/// The bytes go to a unique sibling `<name>.<pid>-<seq>.tmp`, which is
/// renamed over `path`. A [`Class::Promise`] also fsyncs the temp file
/// before the rename and the directory after it (best effort: some
/// platforms cannot fsync a directory), so the new content survives power
/// loss. Concurrent writers to one path each rename a complete file; the
/// last rename wins. The parent directory must exist.
///
/// # Errors
///
/// Propagates I/O failures (including `path` naming a directory); the
/// temp file is removed on every error path.
pub fn replace(class: Class, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".{}-{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let installed = covering(path);
    let mut watch = Watch::lock(installed.as_deref());
    let written = fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        if class == Class::Promise {
            sync_file(&f, &mut watch)?;
        }
        watch.rename(&tmp, path, bytes.len() as u64, class == Class::Promise)
    });
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if class == Class::Promise {
        sync_dir(path, &mut watch);
    }
    watch.boundary();
    Ok(())
}

/// An append-only writer of one file: the `O_APPEND` handle, opened by
/// the first append, and whether a promise has synced the file's
/// directory entry since.
#[derive(Debug)]
pub struct Appender {
    path: PathBuf,
    file: Option<fs::File>,
    dir_synced: bool,
}

impl Appender {
    /// A writer of `path`; nothing is opened until the first append.
    pub fn new(path: PathBuf) -> Appender {
        Appender {
            path,
            file: None,
            dir_synced: false,
        }
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `bytes` with one `write_all`, creating the file if needed.
    ///
    /// A [`Class::Promise`] is then synced with `sync_data`, and the first
    /// promise through this writer also fsyncs the directory, so the
    /// file's name survives power loss even when a derived append created
    /// it. On a write or sync error the file is cut back to its length
    /// before the append, so a failed append leaves no fragment for the
    /// next one to glue onto. The parent directory must exist.
    ///
    /// A concurrent reader may see an append half-written; callers that
    /// frame their records ([`frame`]) read such a last line as not yet
    /// appended, because its frame fails.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures opening, writing or syncing the file.
    pub fn append(&mut self, class: Class, bytes: &[u8]) -> io::Result<()> {
        let installed = covering(&self.path);
        let mut watch = Watch::lock(installed.as_deref());
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                let new = fs::OpenOptions::new()
                    .append(true)
                    .create_new(true)
                    .open(&self.path);
                let file = match new {
                    Ok(file) => {
                        watch.created(&self.path);
                        file
                    }
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                        fs::OpenOptions::new().append(true).open(&self.path)?
                    }
                    Err(e) => return Err(e),
                };
                self.file.insert(file)
            }
        };
        let before = file.metadata()?.len();
        watch.extends(&self.path, before);
        let appended = file.write_all(bytes).and_then(|()| match class {
            Class::Promise => {
                file.sync_data()?;
                watch.synced(&self.path, before + bytes.len() as u64);
                Ok(())
            }
            Class::Derived => Ok(()),
        });
        if appended.is_err() {
            let _ = file.set_len(before);
            return appended;
        }
        if class == Class::Promise && !self.dir_synced {
            sync_dir(&self.path, &mut watch);
            self.dir_synced = true;
        }
        watch.boundary();
        Ok(())
    }
}

/// Fsyncs a temp file's content before it is renamed into place.
fn sync_file(file: &fs::File, watch: &mut Watch<'_>) -> io::Result<()> {
    file.sync_all()?;
    watch.count_sync();
    Ok(())
}

/// Fsyncs the directory holding `path`, so a create or rename there
/// survives power loss (best effort: some platforms cannot fsync a
/// directory).
fn sync_dir(path: &Path, watch: &mut Watch<'_>) {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let dir = dir.unwrap_or(Path::new("."));
    if fs::File::open(dir).and_then(|d| d.sync_all()).is_ok() {
        watch.dir_synced(dir);
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

// ---- power-cut model --------------------------------------------------------

/// A model of what a power cut leaves of the files under one directory,
/// for tests.
///
/// While installed it watches every [`replace`] and [`Appender::append`]
/// under its root and records, per file, how many bytes have been synced
/// and whether its last create or rename has had its directory synced.
/// A cut then keeps, of each file:
///
/// * nothing new when its create or rename was never followed by a
///   directory sync: the create is undone, and a rename gives back what
///   the path durably held before;
/// * its synced bytes otherwise — so an append is cut back to the last
///   sync, and a file renamed into a synced directory without its own
///   data sync is left empty.
///
/// Files under the root at install count as synced. Unlinks are not
/// modelled: a removed file stays removed. Roots of concurrently
/// installed models must not nest. Dropping the model uninstalls it.
///
/// Nothing is recorded while no model is installed: a write checks one
/// atomic counter and goes on.
#[derive(Debug)]
pub struct PowerCut {
    installed: Arc<Installed>,
}

/// The files a power cut leaves under a model's root, with their bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    files: BTreeMap<PathBuf, Vec<u8>>,
}

#[derive(Debug)]
struct Installed {
    root: PathBuf,
    model: Mutex<Model>,
}

#[derive(Debug, Default)]
struct Model {
    files: BTreeMap<PathBuf, Tracked>,
    syncs: u64,
    /// The image a cut would leave after each completed write; `[0]` is
    /// the state at install.
    boundaries: Vec<Image>,
}

#[derive(Debug)]
struct Tracked {
    /// Whether the directory entry is durable: false from an unsynced
    /// create or rename until the directory is synced.
    named: bool,
    /// How many leading bytes a cut keeps when the entry is durable.
    synced_len: u64,
    /// What the path durably held before the unsynced create or rename.
    prior: Option<Vec<u8>>,
}

/// Installed models, and their count for the inert fast path.
static MODELS: Mutex<Vec<Arc<Installed>>> = Mutex::new(Vec::new());
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

/// The installed model whose root holds `path`, if any.
fn covering(path: &Path) -> Option<Arc<Installed>> {
    if INSTALLED.load(Ordering::SeqCst) == 0 {
        return None;
    }
    let models = MODELS.lock().expect("power-cut registry poisoned");
    models.iter().find(|m| path.starts_with(&m.root)).cloned()
}

/// One write's view of the model covering its path: the model stays
/// locked for the whole write, so no image sees the write half done. With
/// no model installed every method does nothing.
struct Watch<'a>(Option<MutexGuard<'a, Model>>);

impl<'a> Watch<'a> {
    fn lock(installed: Option<&'a Installed>) -> Watch<'a> {
        Watch(installed.map(|i| i.model.lock().expect("power-cut model poisoned")))
    }

    fn created(&mut self, path: &Path) {
        if let Some(m) = &mut self.0 {
            m.files.insert(
                path.to_path_buf(),
                Tracked {
                    named: false,
                    synced_len: 0,
                    prior: None,
                },
            );
        }
    }

    /// Registers a file first met on an append as durable up to `len`.
    fn extends(&mut self, path: &Path, len: u64) {
        if let Some(m) = &mut self.0 {
            m.files.entry(path.to_path_buf()).or_insert(Tracked {
                named: true,
                synced_len: len,
                prior: None,
            });
        }
    }

    fn synced(&mut self, path: &Path, len: u64) {
        self.count_sync();
        if let Some(t) = self.0.as_mut().and_then(|m| m.files.get_mut(path)) {
            t.synced_len = len;
        }
    }

    fn count_sync(&mut self) {
        if let Some(m) = &mut self.0 {
            m.syncs += 1;
        }
    }

    fn dir_synced(&mut self, dir: &Path) {
        self.count_sync();
        if let Some(m) = &mut self.0 {
            for (_, t) in m.files.iter_mut().filter(|(p, _)| p.parent() == Some(dir)) {
                t.named = true;
                t.prior = None;
            }
        }
    }

    /// Renames `from` over `to`, recording the rename as not yet durable.
    fn rename(&mut self, from: &Path, to: &Path, len: u64, synced: bool) -> io::Result<()> {
        let Some(m) = &mut self.0 else {
            return fs::rename(from, to);
        };
        let prior = m.survivor(to);
        fs::rename(from, to)?;
        m.files.insert(
            to.to_path_buf(),
            Tracked {
                named: false,
                synced_len: if synced { len } else { 0 },
                prior,
            },
        );
        Ok(())
    }

    fn boundary(&mut self) {
        if let Some(m) = &mut self.0 {
            let image = m.image();
            m.boundaries.push(image);
        }
    }
}

impl Model {
    /// A model that counts every regular file under `root` as synced.
    fn of_tree(root: &Path) -> Model {
        let mut model = Model::default();
        let mut dirs = vec![root.to_path_buf()];
        while let Some(dir) = dirs.pop() {
            for entry in fs::read_dir(&dir).into_iter().flatten().flatten() {
                let Ok(kind) = entry.file_type() else {
                    continue;
                };
                if kind.is_dir() {
                    dirs.push(entry.path());
                } else if kind.is_file() {
                    let len = entry.metadata().map_or(0, |m| m.len());
                    model.files.insert(
                        entry.path(),
                        Tracked {
                            named: true,
                            synced_len: len,
                            prior: None,
                        },
                    );
                }
            }
        }
        let image = model.image();
        model.boundaries.push(image);
        model
    }

    /// What a cut now would leave at `path`: `None` when nothing.
    fn survivor(&self, path: &Path) -> Option<Vec<u8>> {
        match self.files.get(path) {
            Some(t) if !t.named => t.prior.clone(),
            Some(t) if t.synced_len == 0 => path.is_file().then(Vec::new),
            Some(t) => fs::read(path).ok().map(|mut bytes| {
                bytes.truncate(t.synced_len as usize);
                bytes
            }),
            // Never written under the model: whatever is there is durable.
            None => fs::read(path).ok(),
        }
    }

    fn image(&self) -> Image {
        let files = self
            .files
            .keys()
            .filter_map(|p| self.survivor(p).map(|bytes| (p.clone(), bytes)))
            .collect();
        Image { files }
    }
}

impl PowerCut {
    /// Starts modelling the files under `root`, counting those already
    /// there as synced.
    pub fn install(root: impl Into<PathBuf>) -> PowerCut {
        let root = root.into();
        let model = Mutex::new(Model::of_tree(&root));
        let installed = Arc::new(Installed { root, model });
        MODELS
            .lock()
            .expect("power-cut registry poisoned")
            .push(installed.clone());
        INSTALLED.fetch_add(1, Ordering::SeqCst);
        PowerCut { installed }
    }

    fn model(&self) -> MutexGuard<'_, Model> {
        self.installed
            .model
            .lock()
            .expect("power-cut model poisoned")
    }

    /// File and directory syncs made under the root since install.
    pub fn syncs(&self) -> u64 {
        self.model().syncs
    }

    /// What a cut at each record boundary would leave: `[0]` is the state
    /// at install and `[i]` the state after the `i`th completed write.
    pub fn boundaries(&self) -> Vec<Image> {
        self.model().boundaries.clone()
    }

    /// Cuts the power now: every modelled file is rewritten to what a cut
    /// keeps, or removed. The model then starts over with every file
    /// under the root counted as synced.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures rewriting a file.
    pub fn power_cut(&self) -> io::Result<()> {
        let mut model = self.model();
        let image = model.image();
        for path in model.files.keys() {
            if !image.files.contains_key(path) {
                let _ = fs::remove_file(path);
            }
        }
        image.restore()?;
        *model = Model::of_tree(&self.installed.root);
        Ok(())
    }
}

impl Drop for PowerCut {
    fn drop(&mut self) {
        if let Ok(mut models) = MODELS.lock() {
            models.retain(|m| !Arc::ptr_eq(m, &self.installed));
        }
        INSTALLED.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Image {
    /// The surviving files and their bytes.
    pub fn files(&self) -> &BTreeMap<PathBuf, Vec<u8>> {
        &self.files
    }

    /// Writes every surviving file back with its bytes, creating parent
    /// directories. Files outside the image are left alone, so restore
    /// into an emptied root to get exactly the state a cut leaves.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn restore(&self) -> io::Result<()> {
        for (path, bytes) in &self.files {
            if let Some(dir) = path.parent() {
                fs::create_dir_all(dir)?;
            }
            fs::write(path, bytes)?;
        }
        Ok(())
    }
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
        replace(Class::Derived, &path, b"first").unwrap();
        replace(Class::Promise, &path, b"second").unwrap();
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
                    replace(Class::Derived, path, f.as_bytes()).unwrap();
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
        assert!(replace(Class::Derived, &path, b"payload").is_err());
        assert_eq!(names(&dir), ["entry.json"], "the temp file was removed");
        assert!(path.is_dir());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_extend_the_file_through_one_handle_or_a_fresh_one() {
        let dir = temp_dir("append");
        let path = dir.join("log.jsonl");
        let mut appender = Appender::new(path.clone());
        appender.append(Class::Derived, b"a\n").unwrap();
        appender.append(Class::Promise, b"b\n").unwrap();
        Appender::new(path.clone())
            .append(Class::Derived, b"c\n")
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"a\nb\nc\n");
        assert_eq!(names(&dir), ["log.jsonl"]);
        assert!(Appender::new(dir.clone())
            .append(Class::Derived, b"x")
            .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_promise_syncs_its_bytes_and_once_its_directory_and_derived_state_never() {
        let dir = temp_dir("sync-count");
        let cut = PowerCut::install(&dir);
        let mut journal = Appender::new(dir.join("runs.jsonl"));
        journal.append(Class::Derived, b"draining\n").unwrap();
        replace(Class::Derived, &dir.join("entry.snap"), b"snap").unwrap();
        assert_eq!(cut.syncs(), 0, "derived writes never sync");
        journal.append(Class::Promise, b"admitted 1\n").unwrap();
        assert_eq!(cut.syncs(), 2, "the first promise syncs data and directory");
        journal.append(Class::Promise, b"admitted 2\n").unwrap();
        assert_eq!(cut.syncs(), 3, "later promises sync their data only");
        replace(Class::Promise, &dir.join("compacted.jsonl"), b"c\n").unwrap();
        assert_eq!(
            cut.syncs(),
            5,
            "a promised replace syncs file and directory"
        );
        assert_eq!(
            cut.boundaries().len(),
            6,
            "the install state plus five writes"
        );
        // Writes outside the root are not counted.
        let outside = temp_dir("sync-count-outside");
        Appender::new(outside.join("log"))
            .append(Class::Promise, b"x\n")
            .unwrap();
        assert_eq!(cut.syncs(), 5);
        drop(cut);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&outside);
    }

    #[test]
    fn a_power_cut_keeps_promises_and_may_lose_every_derived_write() {
        let dir = temp_dir("cut");
        let sub = dir.join("journal");
        fs::create_dir_all(&sub).unwrap();
        fs::write(dir.join("old.snap"), b"old").unwrap();
        let cut = PowerCut::install(&dir);

        // A file a derived append created, which a later promise through
        // the same writer names durably: both records survive.
        let mut runs = Appender::new(dir.join("runs.jsonl"));
        runs.append(Class::Derived, b"draining\n").unwrap();
        // Derived state: an unsynced create, an unsynced rename over a
        // durable file, and a new file renamed into the same directory.
        Appender::new(sub.join("sweep.jsonl"))
            .append(Class::Derived, b"done\n")
            .unwrap();
        replace(Class::Derived, &dir.join("old.snap"), b"new").unwrap();
        replace(Class::Derived, &dir.join("fresh.snap"), b"fresh").unwrap();
        let before_promise = cut.boundaries().last().unwrap().clone();
        runs.append(Class::Promise, b"admitted\n").unwrap();
        runs.append(Class::Derived, b"complete\n").unwrap();

        let image = cut.boundaries().last().unwrap().clone();
        cut.power_cut().unwrap();
        let read = |p: &Path| fs::read(p).ok();
        assert_eq!(
            read(&dir.join("runs.jsonl")).as_deref(),
            Some(&b"draining\nadmitted\n"[..]),
            "cut back to the last sync"
        );
        assert_eq!(
            read(&sub.join("sweep.jsonl")),
            None,
            "unsynced create undone"
        );
        // The promise synced the directory, so both renames there stand,
        // but neither had its data synced: each is left empty.
        assert_eq!(read(&dir.join("old.snap")).as_deref(), Some(&b""[..]));
        assert_eq!(read(&dir.join("fresh.snap")).as_deref(), Some(&b""[..]));
        assert_eq!(
            names(&dir),
            ["fresh.snap", "journal", "old.snap", "runs.jsonl"]
        );
        assert_eq!(
            image.files().keys().cloned().collect::<Vec<_>>(),
            [
                dir.join("fresh.snap"),
                dir.join("old.snap"),
                dir.join("runs.jsonl")
            ]
        );

        // After a cut the survivors count as synced.
        runs = Appender::new(dir.join("runs.jsonl"));
        runs.append(Class::Derived, b"lost\n").unwrap();
        cut.power_cut().unwrap();
        assert_eq!(
            read(&dir.join("runs.jsonl")).as_deref(),
            Some(&b"draining\nadmitted\n"[..])
        );
        drop(cut);

        // Before the promise nothing had synced the directory: the renames
        // are undone (the old entry comes back) and the journal is gone.
        let _ = fs::remove_dir_all(&dir);
        before_promise.restore().unwrap();
        assert_eq!(names(&dir), ["old.snap"]);
        assert_eq!(read(&dir.join("old.snap")).as_deref(), Some(&b"old"[..]));
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
