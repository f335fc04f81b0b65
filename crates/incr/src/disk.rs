//! The persistent on-disk cache.
//!
//! One file per `(stage, key)` under the cache directory, named
//! `<stage>-<key hex>.bin`. Every entry is self-describing:
//!
//! ```text
//! magic "SILCINCR" | format version u32 | stage tag u8 | key fp 16B |
//! payload len u64  | payload            | checksum of payload 16B
//! ```
//!
//! The checksum is the payload's [`silc_geom::Fingerprint`] digest
//! (MurmurHash3 x64_128 over the stored bytes), which is also the
//! value's fingerprint: the stored bytes are its `fp_hash` stream.
//!
//! Loading is **corruption-tolerant by construction**: any mismatch —
//! wrong magic, stale version, foreign stage or key, truncation, bad
//! checksum, undecodable payload — logs one warning to stderr and
//! behaves exactly like a cache miss. A damaged cache can slow a build
//! down; it can never break one or change its output.
//!
//! Writes go through a temp file in the same directory followed by an
//! atomic rename, so concurrent batch jobs and interrupted runs leave
//! either the old entry or the new one, never a torn file.

use crate::engine::Stage;
use silc_geom::{Fp, FpHasher};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 8] = b"SILCINCR";

/// Bump on any incompatible change to the entry layout **or** to any
/// persisted type's [`crate::Persist`] encoding. Old entries are then
/// ignored (and overwritten), not misread. Version 2: a `Design` no
/// longer carries a raw id before each cell (ids are dense). Version 3:
/// an `extract` entry holds the netlist, not its signature. Version 4:
/// keys and checksums are MurmurHash3 x64_128 digests, not FNV-1a.
pub const FORMAT_VERSION: u32 = 4;

/// Handle to a cache directory.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    /// Distinguishes temp files of concurrent writers within a process.
    seq: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskCache, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache directory `{}`: {e}", dir.display()))?;
        Ok(DiskCache {
            dir,
            seq: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, stage: Stage, key: Fp) -> PathBuf {
        self.dir
            .join(format!("{}-{}.bin", stage.name, key.to_hex()))
    }

    /// Loads the payload for `(stage, key)`, or `None` on miss or on any
    /// form of damage (warned on stderr, then treated as a miss).
    pub fn load(&self, stage: Stage, key: Fp) -> Option<Vec<u8>> {
        let path = self.entry_path(stage, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                warn(&path, &format!("unreadable: {e}"));
                return None;
            }
        };
        match parse_entry(&bytes, stage, key) {
            Ok(payload) => Some(payload.to_vec()),
            Err(reason) => {
                warn(&path, &reason);
                None
            }
        }
    }

    /// Writes the payload for `(stage, key)` atomically, returning the
    /// total bytes written. I/O failures warn and return 0 — a cache
    /// that cannot store is slow, not broken.
    pub fn store(&self, stage: Stage, key: Fp, payload: &[u8]) -> u64 {
        let entry = build_entry(stage, key, payload);
        let path = self.entry_path(stage, key);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let result = fs::write(&tmp, &entry).and_then(|()| fs::rename(&tmp, &path));
        match result {
            Ok(()) => entry.len() as u64,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                warn(&path, &format!("cannot store: {e}"));
                0
            }
        }
    }
}

fn warn(path: &Path, reason: &str) {
    eprintln!(
        "silc-incr: warning: ignoring cache entry `{}`: {reason}",
        path.display()
    );
}

fn checksum(payload: &[u8]) -> Fp {
    let mut h = FpHasher::new();
    h.write(payload);
    h.finish()
}

fn build_entry(stage: Stage, key: Fp, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 53);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(stage.tag);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out
}

fn parse_entry(bytes: &[u8], stage: Stage, key: Fp) -> Result<&[u8], String> {
    const HEADER: usize = 8 + 4 + 1 + 16 + 8;
    const TRAILER: usize = 16;
    if bytes.len() < HEADER + TRAILER {
        return Err("truncated header".into());
    }
    if &bytes[..8] != MAGIC {
        return Err("bad magic".into());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version}, expected {FORMAT_VERSION}"
        ));
    }
    if bytes[12] != stage.tag {
        return Err(format!("stage tag {} is not `{}`", bytes[12], stage.name));
    }
    let entry_key = Fp::from_le_bytes(bytes[13..29].try_into().unwrap());
    if entry_key != key {
        return Err("key mismatch".into());
    }
    let payload_len = u64::from_le_bytes(bytes[29..37].try_into().unwrap());
    if bytes.len() as u64 != HEADER as u64 + payload_len + TRAILER as u64 {
        return Err("payload length mismatch".into());
    }
    let payload = &bytes[HEADER..HEADER + payload_len as usize];
    let stored = Fp::from_le_bytes(bytes[bytes.len() - TRAILER..].try_into().unwrap());
    if checksum(payload) != stored {
        return Err("checksum mismatch".into());
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("silc-incr-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> Fp {
        Fp::from_raw(u128::from(n) | 0xdead << 64)
    }

    const STAGE: Stage = Stage::CIF;

    #[test]
    fn store_then_load_round_trips() {
        let cache = DiskCache::open(tmp_dir("rt")).unwrap();
        assert!(cache.load(STAGE, key(1)).is_none());
        let written = cache.store(STAGE, key(1), b"payload bytes");
        assert!(written > b"payload bytes".len() as u64);
        assert_eq!(cache.load(STAGE, key(1)).unwrap(), b"payload bytes");
        // Foreign key and foreign stage both miss.
        assert!(cache.load(STAGE, key(2)).is_none());
        assert!(cache.load(Stage::DRC, key(1)).is_none());
    }

    #[test]
    fn every_corruption_is_a_miss() {
        let cache = DiskCache::open(tmp_dir("corrupt")).unwrap();
        cache.store(STAGE, key(3), b"important");
        let path = cache
            .dir()
            .join(format!("{}-{}.bin", STAGE.name, key(3).to_hex()));
        let good = fs::read(&path).unwrap();

        // Flip one payload byte: checksum mismatch.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 20] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(cache.load(STAGE, key(3)).is_none());

        // Truncate: length mismatch.
        fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(cache.load(STAGE, key(3)).is_none());

        // Garbage: bad magic.
        fs::write(&path, b"not a cache entry at all").unwrap();
        assert!(cache.load(STAGE, key(3)).is_none());

        // Stale version.
        let mut stale = good.clone();
        stale[8] = stale[8].wrapping_add(1);
        fs::write(&path, &stale).unwrap();
        assert!(cache.load(STAGE, key(3)).is_none());

        // Restoring the pristine bytes restores the hit.
        fs::write(&path, &good).unwrap();
        assert_eq!(cache.load(STAGE, key(3)).unwrap(), b"important");
    }

    #[test]
    fn overwrite_replaces_the_entry() {
        let cache = DiskCache::open(tmp_dir("ow")).unwrap();
        cache.store(STAGE, key(4), b"v1");
        cache.store(STAGE, key(4), b"v2");
        assert_eq!(cache.load(STAGE, key(4)).unwrap(), b"v2");
    }
}
