//! Persistent content-addressed snapshot store.
//!
//! A warmed simulation prefix is expensive to build and cheap to describe:
//! its identity is its chain key (`biglittle::sweep::chain_keys`: an FNV
//! over the serialized prefix scenario, the snapshot instant and the crate
//! version) that the sweep planner already uses to match fork candidates.
//! This module gives that key a durable home so *any* process — a later
//! sweep or served run, a sharded worker, another host sharing the store
//! directory — can hydrate the warmed state instead of re-simulating it.
//!
//! The store is deliberately ignorant of what a snapshot *is*: it moves
//! opaque [`serde::Value`] payloads plus a little metadata. The simulation
//! layer owns serialization and, crucially, verification — after
//! hydrating, it recomputes the state fingerprint and discards the entry
//! on mismatch. Bytes from disk are never trusted to be a simulation; they
//! only get to *propose* one.
//!
//! ## On-disk format
//!
//! One file per snapshot at `<dir>/<key>.snap`, written through
//! [`durable::replace`] as derived state: never synced, because a lost
//! or empty entry is a miss and the trunk is re-simulated to the same
//! bytes. The content is a single [`durable::frame`]d line
//!
//! ```text
//! <16-hex FNV-1a of payload> <payload JSON>
//! ```
//!
//! where the payload carries `{version, key, fingerprint, warm_ms, state}`.
//! A reader validates, in order: the frame checksum, the format version,
//! and that the embedded key matches the filename's key. Any failure —
//! torn write, damaged storage, stale format — deletes the file and
//! reports a miss, mirroring the result cache's self-healing behavior.
//!
//! ## Tiers
//!
//! Reads go memory-LRU → disk → miss (the caller then falls back to a cold
//! run). The in-memory tier caches *verified* parsed entries so repeated
//! hydrations through one [`SnapStore`] handle skip the read + checksum +
//! parse. It lives as long as its handle: the sweep engine opens one
//! handle per sweep, so entries are shared within a sweep and read from
//! disk again by the next one, even in the same process.

use crate::durable;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Version tag embedded in every entry; bump on any incompatible change to
/// the serialized simulation state so old stores read as misses, not as
/// garbage handed to the deserializer.
pub const SNAP_FORMAT_VERSION: u32 = 1;

/// Default number of verified entries the in-memory tier retains.
pub const DEFAULT_MEMORY_CAPACITY: usize = 16;

/// One stored snapshot: the serialized simulation state plus the metadata
/// needed to verify and account for it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SnapEntry {
    /// Format version; entries from other versions are treated as corrupt.
    pub version: u32,
    /// The chain key this entry was published under. Stored
    /// redundantly with the filename so a renamed/copied file cannot
    /// impersonate another prefix.
    pub key: String,
    /// The producer's state fingerprint. Hydrators recompute the
    /// fingerprint of the rebuilt simulation and discard on mismatch.
    pub fingerprint: u64,
    /// Wall-clock milliseconds the producer spent simulating up to this
    /// snapshot — what a hydrator saves by not replaying the trunk.
    pub warm_ms: f64,
    /// The serialized simulation state, opaque to the store.
    pub state: serde::Value,
}

/// Outcome counters for one store handle, reported into sweep stats.
#[derive(Debug, Default, Clone, Copy)]
pub struct SnapStoreCounters {
    /// Entries served (memory or disk tier).
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries written.
    pub published: u64,
    /// Corrupt/stale entries deleted during lookup (self-healing).
    pub healed: u64,
}

/// A content-addressed snapshot store over one directory.
///
/// Thread-safe: sweeps hydrate and publish from pool workers concurrently.
/// Publishing the same key twice is benign — snapshots are deterministic
/// functions of their key, so the last atomic rename wins with identical
/// content.
#[derive(Debug)]
pub struct SnapStore {
    dir: PathBuf,
    capacity: usize,
    /// Most-recently-used first. Small (≤ capacity), so linear scans are
    /// cheaper than any map would be.
    lru: Mutex<Vec<SnapEntry>>,
    counters: Mutex<SnapStoreCounters>,
}

impl SnapStore {
    /// Opens (creating if needed) the store at `dir` with the default
    /// in-memory capacity. Creation failures are deferred: the store opens
    /// regardless and publishes will report the I/O error.
    pub fn open(dir: impl Into<PathBuf>) -> SnapStore {
        SnapStore::with_capacity(dir, DEFAULT_MEMORY_CAPACITY)
    }

    /// Opens the store with an explicit in-memory entry capacity
    /// (`0` disables the memory tier).
    pub fn with_capacity(dir: impl Into<PathBuf>, capacity: usize) -> SnapStore {
        let dir = dir.into();
        let _ = fs::create_dir_all(&dir);
        SnapStore {
            dir,
            capacity,
            lru: Mutex::new(Vec::new()),
            counters: Mutex::new(SnapStoreCounters::default()),
        }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `key`'s entry lives on disk.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.snap"))
    }

    /// Looks up `key`: memory tier first, then disk. A disk entry that
    /// fails the frame checksum, carries a foreign version, or embeds a
    /// different key is deleted (self-healing) and reads as a miss.
    pub fn load(&self, key: &str) -> Option<SnapEntry> {
        if let Some(hit) = self.lru_get(key) {
            self.counters.lock().unwrap().hits += 1;
            return Some(hit);
        }
        let path = self.path_for(key);
        let Ok(bytes) = fs::read(&path) else {
            self.counters.lock().unwrap().misses += 1;
            return None;
        };
        match parse_entry(&bytes, key) {
            Some(entry) => {
                self.lru_put(entry.clone());
                self.counters.lock().unwrap().hits += 1;
                Some(entry)
            }
            None => {
                // Unverifiable bytes: delete so the next producer rewrites
                // a good entry instead of every reader re-failing.
                let _ = fs::remove_file(&path);
                let mut c = self.counters.lock().unwrap();
                c.healed += 1;
                c.misses += 1;
                None
            }
        }
    }

    /// Writes `entry` under its own key ([`durable::replace`], derived
    /// state) and caches it in the memory tier.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the store stays usable (a failed publish
    /// is just a future miss).
    pub fn publish(&self, entry: &SnapEntry) -> io::Result<()> {
        let payload = serde_json::to_string(entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        fs::create_dir_all(&self.dir)?;
        durable::replace(
            durable::Class::Derived,
            &self.path_for(&entry.key),
            durable::frame(&payload).as_bytes(),
        )?;
        self.lru_put(entry.clone());
        self.counters.lock().unwrap().published += 1;
        Ok(())
    }

    /// Drops `key` from both tiers — what a hydrator calls when the
    /// rebuilt simulation's fingerprint does not match the entry's.
    pub fn invalidate(&self, key: &str) {
        self.lru.lock().unwrap().retain(|e| e.key != key);
        let _ = fs::remove_file(self.path_for(key));
    }

    /// Snapshot of the handle's outcome counters.
    pub fn counters(&self) -> SnapStoreCounters {
        *self.counters.lock().unwrap()
    }

    fn lru_get(&self, key: &str) -> Option<SnapEntry> {
        if self.capacity == 0 {
            return None;
        }
        let mut lru = self.lru.lock().unwrap();
        let pos = lru.iter().position(|e| e.key == key)?;
        let entry = lru.remove(pos);
        lru.insert(0, entry.clone());
        Some(entry)
    }

    fn lru_put(&self, entry: SnapEntry) {
        if self.capacity == 0 {
            return;
        }
        let mut lru = self.lru.lock().unwrap();
        lru.retain(|e| e.key != entry.key);
        lru.insert(0, entry);
        lru.truncate(self.capacity);
    }
}

/// Validates one store file's content against the key it was looked up
/// under. Returns `None` for anything that cannot be trusted.
fn parse_entry(bytes: &[u8], key: &str) -> Option<SnapEntry> {
    let payload = durable::unframe(std::str::from_utf8(bytes).ok()?)?;
    let entry: SnapEntry = serde_json::from_str(payload).ok()?;
    (entry.version == SNAP_FORMAT_VERSION && entry.key == key).then_some(entry)
}

/// Removes stale temp files (`*.tmp`) and orphaned snapshot files (names
/// not of the `<16-hex-key>.snap` form) from `dir`, skipping anything
/// younger than `older_than`. Returns how many files were removed. All
/// I/O failures are tolerated — hygiene never kills the run it tidies
/// up after.
pub fn clean_stale_snapshots(dir: &Path, older_than: Duration) -> usize {
    durable::remove_stale(dir, older_than, |name| {
        let orphaned_snap = name
            .strip_suffix(".snap")
            .is_some_and(|k| !(k.len() == 16 && k.bytes().all(|b| b.is_ascii_hexdigit())));
        name.ends_with(".tmp") || orphaned_snap
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> SnapStore {
        let dir =
            std::env::temp_dir().join(format!("bl-snapstore-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SnapStore::open(dir)
    }

    fn entry(key: &str, fingerprint: u64) -> SnapEntry {
        SnapEntry {
            version: SNAP_FORMAT_VERSION,
            key: key.to_string(),
            fingerprint,
            warm_ms: 12.5,
            state: serde_json::to_value(vec![1u64, 2, 3]).unwrap(),
        }
    }

    #[test]
    fn publish_then_load_round_trips() {
        let store = temp_store("roundtrip");
        let e = entry("00000000deadbeef", 42);
        store.publish(&e).unwrap();
        assert_eq!(store.load("00000000deadbeef"), Some(e.clone()));
        // And from a second handle (fresh memory tier): the disk tier serves.
        let other = SnapStore::open(store.dir());
        assert_eq!(other.load("00000000deadbeef"), Some(e));
        assert_eq!(other.counters().hits, 1);
    }

    #[test]
    fn missing_key_is_a_miss() {
        let store = temp_store("miss");
        assert_eq!(store.load("0000000000000abc"), None);
        assert_eq!(store.counters().misses, 1);
    }

    #[test]
    fn corrupt_entry_is_deleted_and_reads_as_miss() {
        let store = temp_store("corrupt");
        let e = entry("00000000cafebabe", 7);
        store.publish(&e).unwrap();
        let path = store.path_for(&e.key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("12.5", "99.9")).unwrap();
        let fresh = SnapStore::open(store.dir());
        assert_eq!(fresh.load(&e.key), None, "tampered entry must not load");
        assert!(!path.exists(), "tampered entry must be deleted");
        assert_eq!(fresh.counters().healed, 1);
    }

    #[test]
    fn truncated_entry_self_heals() {
        let store = temp_store("truncated");
        let e = entry("00000000aaaa0000", 9);
        store.publish(&e).unwrap();
        let path = store.path_for(&e.key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let fresh = SnapStore::open(store.dir());
        assert_eq!(fresh.load(&e.key), None);
        assert!(!path.exists());
    }

    #[test]
    fn version_mismatch_reads_as_miss_and_heals() {
        let store = temp_store("version");
        let mut e = entry("00000000bbbb0000", 1);
        e.version = SNAP_FORMAT_VERSION + 1;
        // Hand-frame it so the checksum is valid but the version is foreign.
        let payload = serde_json::to_string(&e).unwrap();
        fs::write(store.path_for(&e.key), durable::frame(&payload)).unwrap();
        assert_eq!(store.load(&e.key), None);
        assert!(!store.path_for(&e.key).exists());
    }

    #[test]
    fn renamed_file_cannot_impersonate_another_key() {
        let store = temp_store("impersonate");
        let e = entry("00000000cccc0000", 3);
        store.publish(&e).unwrap();
        #[allow(clippy::disallowed_methods)] // moves an entry by hand
        fs::rename(store.path_for(&e.key), store.path_for("00000000dddd0000")).unwrap();
        assert_eq!(store.load("00000000dddd0000"), None);
        assert!(!store.path_for("00000000dddd0000").exists());
    }

    #[test]
    fn memory_tier_serves_after_disk_entry_vanishes() {
        let store = temp_store("memtier");
        let e = entry("00000000eeee0000", 5);
        store.publish(&e).unwrap();
        fs::remove_file(store.path_for(&e.key)).unwrap();
        // Still served from memory — publish cached it.
        assert_eq!(store.load(&e.key), Some(e.clone()));
        // invalidate drops both tiers.
        store.invalidate(&e.key);
        assert_eq!(store.load(&e.key), None);
    }

    #[test]
    fn lru_capacity_is_bounded() {
        let dir = std::env::temp_dir().join(format!("bl-snapstore-lru-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SnapStore::with_capacity(&dir, 2);
        for i in 0..4u64 {
            store.publish(&entry(&format!("{i:016x}"), i)).unwrap();
        }
        assert!(store.lru.lock().unwrap().len() <= 2);
        // Evicted entries still load from disk.
        assert!(store.load("0000000000000000").is_some());
    }

    #[test]
    fn hygiene_removes_tmp_and_orphans_but_keeps_entries() {
        let store = temp_store("hygiene");
        store.publish(&entry("0000000000000123", 1)).unwrap();
        fs::write(store.dir().join("dead.1234-0.tmp"), b"x").unwrap();
        fs::write(store.dir().join("not-a-key.snap"), b"x").unwrap();
        assert_eq!(
            clean_stale_snapshots(store.dir(), Duration::from_secs(3600)),
            0,
            "young files are protected"
        );
        assert_eq!(clean_stale_snapshots(store.dir(), Duration::ZERO), 2);
        assert!(store.path_for("0000000000000123").exists());
    }
}
