//! The persistent compiled-artifact store (DESIGN.md §8.5).
//!
//! A directory of flat files, one per compiled artifact, keyed by a content
//! hash of the artifact's cache key (the canonical display text of the
//! schema or schema pair it was compiled from). A process that restarts
//! against the same store — CI shards, repeated CLI batch runs — loads
//! compiled tables off disk instead of re-running subset construction and
//! shape enumeration.
//!
//! Only those two costly families are stored ([`Family`]). Every other
//! engine artifact is one linear pass over a schema or mapping that the
//! caller already holds parsed, and compiles faster than a file read,
//! checksum and decode (DESIGN.md §8.5).
//!
//! Every file wraps its payload in an envelope:
//!
//! ```text
//! magic "XMAP" | format version u32 | family tag u8
//! | key (length-prefixed)           -- detects hash collisions
//! | payload (length-prefixed)
//! | checksum u64                    -- over all preceding bytes
//! ```
//!
//! The store is *advisory*: any mismatch — bad magic, other format
//! version, checksum failure, truncation, wrong key — degrades to "not
//! cached" and the caller compiles fresh. Bumping [`FORMAT_VERSION`]
//! whenever any serialized structure changes is the entire migration
//! story: a file of another format version is removed when it is read,
//! and opening a store removes the files of the families earlier layouts
//! kept (`sat`, `chase`, `streamindex`, `streamchase`, `deltachase`), so
//! neither lingers on disk.
//!
//! Writes go through a temp file in the same directory followed by a
//! rename, so concurrent readers never observe a half-written artifact.

use std::fs;
use std::hash::Hasher;
use std::io::Write;
use std::path::{Path, PathBuf};
use xmlmap_codec::{checksum, Decoder, Encoder};
use xmlmap_regex::FastHasher;

/// Bump whenever the serialized form of *any* artifact family changes
/// (2: the `DtdIndex` payload of the since-dropped `Sat` and
/// `StreamIndex` families became the schema text alone; 3: an `Automata`
/// payload is the two schema texts, the compiled pair without its label
/// tables, and a checksum — the sparse hedge automata are no longer
/// stored).
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 4] = b"XMAP";

/// The persisted artifact families: the two whose rebuild costs more than
/// a load. Their tags are unchanged since the store also held the cheap
/// families, so an older store of the same format version still serves
/// them; files of the dropped families are removed unread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `AutomataCache` — per-schema-pair determinized hedge automata
    /// (subset construction).
    Automata,
    /// `ShapeCache` — per-schema memoized shape enumerations (exponential
    /// in their bound).
    Shapes,
}

impl Family {
    fn tag(self) -> u8 {
        match self {
            Family::Automata => 2,
            Family::Shapes => 3,
        }
    }

    /// Filename prefix for the family.
    pub fn name(self) -> &'static str {
        match self {
            Family::Automata => "automata",
            Family::Shapes => "shapes",
        }
    }
}

/// The families earlier layouts stored and this one rebuilds in memory.
/// [`ArtifactStore::new`] removes their `<family>-<16 hex>.bin` files.
const DROPPED_FAMILIES: [&str; 5] = ["sat", "chase", "streamindex", "streamchase", "deltachase"];

/// Is `name` an artifact file of a dropped family? Exactly the names
/// [`ArtifactStore`] wrote for them: temp files and anything else in the
/// directory do not match.
fn is_dropped_artifact(name: &str) -> bool {
    let Some((family, hash)) = name
        .strip_suffix(".bin")
        .and_then(|stem| stem.split_once('-'))
    else {
        return false;
    };
    DROPPED_FAMILIES.contains(&family)
        && hash.len() == 16
        && hash.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Why a stored artifact was not usable. [`LoadError::Missing`] is the
/// ordinary cold-cache case; the other variants are surfaced only as a
/// diagnostic counter (`CacheCounters::disk_errors`), never as an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// No artifact stored under this key (or a hash-collision slot holding
    /// a different key).
    Missing,
    /// The file exists but its envelope or checksum is damaged.
    Corrupt,
    /// The file was written by a build with a different artifact format.
    VersionMismatch,
}

/// A directory of checksummed compiled artifacts.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if necessary) the store directory, removing the
    /// artifact files of the families earlier layouts stored.
    pub fn new(dir: impl AsRef<Path>) -> std::io::Result<ArtifactStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)?.flatten() {
            if entry.file_name().to_str().is_some_and(is_dropped_artifact) {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(ArtifactStore { dir })
    }

    fn path_for(&self, family: Family, key: &str) -> PathBuf {
        let mut h = FastHasher::default();
        h.write(key.as_bytes());
        self.dir
            .join(format!("{}-{:016x}.bin", family.name(), h.finish()))
    }

    /// Loads the payload stored for `(family, key)`, verifying the
    /// envelope. Never panics on damaged files. A file of another format
    /// version is removed: no build of this one will read it.
    pub fn load(&self, family: Family, key: &str) -> Result<Vec<u8>, LoadError> {
        let path = self.path_for(family, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return Err(LoadError::Missing),
        };
        if bytes.len() < 8 {
            return Err(LoadError::Corrupt);
        }
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        if checksum(body) != u64::from_le_bytes(sum.try_into().unwrap()) {
            return Err(LoadError::Corrupt);
        }
        let mut d = Decoder::new(body);
        if d.take_magic() != Some(*MAGIC) {
            return Err(LoadError::Corrupt);
        }
        match d.u32() {
            Ok(v) if v == FORMAT_VERSION => {}
            Ok(_) => {
                let _ = fs::remove_file(&path);
                return Err(LoadError::VersionMismatch);
            }
            Err(_) => return Err(LoadError::Corrupt),
        }
        match d.u8() {
            Ok(t) if t == family.tag() => {}
            Ok(_) | Err(_) => return Err(LoadError::Corrupt),
        }
        match d.str() {
            // Another key hashing to the same file: treat as absent.
            Ok(k) if k != key => return Err(LoadError::Missing),
            Ok(_) => {}
            Err(_) => return Err(LoadError::Corrupt),
        }
        let payload = d.bytes().map_err(|_| LoadError::Corrupt)?;
        d.expect_end().map_err(|_| LoadError::Corrupt)?;
        Ok(payload)
    }

    /// Stores `payload` under `(family, key)` atomically (temp file +
    /// rename). Errors are swallowed — the store is an accelerator, and a
    /// full or read-only disk must never fail an engine operation.
    pub fn save(&self, family: Family, key: &str, payload: &[u8]) {
        let mut e = Encoder::new();
        e.magic(MAGIC);
        e.u32(FORMAT_VERSION);
        e.u8(family.tag());
        e.str(key);
        e.bytes(payload);
        let mut body = e.finish();
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());

        let path = self.path_for(family, key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&body))
            .is_ok();
        if written {
            let _ = fs::rename(&tmp, &path);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xmlmap-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip() {
        let store = ArtifactStore::new(tmpdir("rt")).unwrap();
        assert_eq!(store.load(Family::Shapes, "k"), Err(LoadError::Missing));
        store.save(Family::Shapes, "k", b"payload");
        assert_eq!(store.load(Family::Shapes, "k").unwrap(), b"payload");
        // Same key, different family: separate slots.
        assert_eq!(store.load(Family::Automata, "k"), Err(LoadError::Missing));
    }

    #[test]
    fn corruption_is_detected_not_fatal() {
        let dir = tmpdir("corrupt");
        let store = ArtifactStore::new(&dir).unwrap();
        store.save(Family::Automata, "key", b"0123456789");
        let path = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();

        // Truncation.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(store.load(Family::Automata, "key"), Err(LoadError::Corrupt));

        // Single byte flip.
        let mut flipped = full.clone();
        flipped[10] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert_eq!(store.load(Family::Automata, "key"), Err(LoadError::Corrupt));

        // Restore: loads again.
        fs::write(&path, &full).unwrap();
        assert_eq!(store.load(Family::Automata, "key").unwrap(), b"0123456789");
    }

    #[test]
    fn version_mismatch_is_reported() {
        let dir = tmpdir("version");
        let store = ArtifactStore::new(&dir).unwrap();
        store.save(Family::Automata, "key", b"x");
        let path = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();

        // Rewrite the envelope with a bumped version and a fixed checksum.
        let mut e = Encoder::new();
        e.magic(MAGIC);
        e.u32(FORMAT_VERSION + 1);
        e.u8(Family::Automata.tag());
        e.str("key");
        e.bytes(b"x");
        let mut body = e.finish();
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        fs::write(&path, &body).unwrap();
        assert_eq!(
            store.load(Family::Automata, "key"),
            Err(LoadError::VersionMismatch)
        );
        // The stale file is gone, so the slot now reads as cold.
        assert!(!path.exists());
        assert_eq!(store.load(Family::Automata, "key"), Err(LoadError::Missing));
    }

    #[test]
    fn opening_removes_only_dropped_family_artifacts() {
        let dir = tmpdir("dropped");
        fs::create_dir_all(&dir).unwrap();
        let hash = "0123456789abcdef";
        let dropped: Vec<String> = DROPPED_FAMILIES
            .iter()
            .map(|family| format!("{family}-{hash}.bin"))
            .collect();
        let kept = [
            format!("automata-{hash}.bin"),
            format!("shapes-{hash}.bin"),
            format!("sat-{hash}.tmp.4242"),
            "sat-0123456789abcde.bin".to_string(),
            "sat-0123456789ABCDEF.bin".to_string(),
            format!("satx-{hash}.bin"),
            format!("sat-{hash}.bin.bak"),
            "notes.txt".to_string(),
        ];
        for name in dropped.iter().chain(&kept) {
            fs::write(dir.join(name), b"x").unwrap();
        }
        ArtifactStore::new(&dir).unwrap();
        for name in &dropped {
            assert!(!dir.join(name).exists(), "{name} was kept");
        }
        for name in &kept {
            assert!(dir.join(name).exists(), "{name} was removed");
        }
    }

    #[test]
    fn key_collision_slot_reads_as_missing() {
        let store = ArtifactStore::new(tmpdir("collide")).unwrap();
        store.save(Family::Shapes, "key-a", b"a");
        // Forge the path of a *different* key onto key-a's file by writing
        // key-b and then asking for it under key-a's artifact: simplest
        // honest check is that a stored key only answers to itself.
        assert_eq!(store.load(Family::Shapes, "key-b"), Err(LoadError::Missing));
        assert_eq!(store.load(Family::Shapes, "key-a").unwrap(), b"a");
    }
}
