//! Content-addressed suite-level result cache.
//!
//! Every grid cell of an [`crate::suite::ExperimentSuite`] is a pure
//! function of its serializable [`ScenarioConfig`] (same seed ⇒ same
//! outcome), so finished [`ScenarioOutcome`]s can be persisted under a
//! **content hash of the canonicalized config JSON** and replayed on any
//! later run that materializes the same cell — repeated sweeps with
//! overlapping grids (`paper all`, ablations sharing their baselines,
//! interrupted runs restarted with `--resume`) become near-free.
//!
//! Layout: one JSON file per key, `<dir>/<sha256-hex>.json`, each holding a
//! `CacheEntry` (schema version, key echo, the outcome, and the measured
//! wall time — the one field serde skips — preserved as nanoseconds so a
//! warm run reports the cold run's timings). Writes go through a temp file
//! plus rename, so a killed run never leaves a torn entry behind; corrupt
//! or schema-stale entries read as misses and are reclaimed by
//! [`SuiteCache::gc`].
//!
//! The key is [`scenario_key`]: SHA-256 over a schema-version salt line
//! followed by [`serde_json::to_string_canonical`] of the config. The
//! canonical form is insertion-order independent (sorted keys, stable
//! number formatting), so any two structurally equal configs — however
//! they were built — address the same entry, and *any* config field flip
//! addresses a different one.
//!
//! Attack and defense hyper-parameters need no special handling: an
//! `AttackSel`/`DefenseSel` carries them as a canonical params map inside
//! the config JSON, so `pieck-uea:scale=2` and `pieck-uea:scale=3` — like
//! `ours:beta=0.5` and `ours:beta=0.6` — address different entries by
//! construction. File-backed datasets (`--dataset file:PATH`) additionally
//! hash the file's bytes, so editing the dump re-keys its cells.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;
use std::{fs, io};

use serde::{Deserialize, Serialize};

use crate::scenario::{ScenarioCheckpoint, ScenarioConfig, ScenarioOutcome};

/// Bump whenever the meaning of a config field, the outcome layout, or the
/// simulation semantics change: the version salts every key, so old entries
/// simply stop matching (and `gc` reclaims them) instead of serving stale
/// results.
///
/// v2: `FederationConfig::n_threads` became `round_threads` (a
/// [`RoundThreads`](frs_federation::RoundThreads) policy), outcomes record
/// `max_round_threads`, and registry fingerprints joined the hash payload.
///
/// v3: defense hyper-parameters moved off the scenario
/// (`ScenarioConfig::our_defense` is gone) and into the `DefenseSel`'s
/// canonical params payload, so every `--defense name:k=v` override is part
/// of the config JSON the key hashes; file-backed datasets
/// (`DataSource::File`) additionally mix the file's SHA-256 into the
/// payload, so a changed dump re-keys its cells.
///
/// v4: attack-side params parity. `AttackSel` carries a canonical params
/// payload exactly like `DefenseSel` (so `--attack pieck-uea:scale=2`
/// addresses its own cells by construction), the `ConfigPatch` attack knobs
/// (`mined_top_n`, `poison_scale`) route into selection params *only when
/// the attack's schema declares the key* (inert knob flips no longer
/// duplicate cells), and the `table6`/`table9` ablation variants became
/// parameterized builtins (their behaviour is now code versioned by this
/// schema, not a runtime fingerprint).
///
/// v5: mid-run checkpoint sidecars (`<key>.ckpt.json`, see
/// [`SuiteCache::store_checkpoint`]) joined the cache's file namespace, and
/// every client gained `checkpoint_state`/`restore_state` hooks the round
/// loop now drives. Entries predating the hooks were produced by a code
/// path this schema no longer runs, so the bump re-keys them — and a
/// checkpoint sidecar alone can never forge a warm cell: only a completed
/// run writes `<key>.json`.
///
/// v6: million-client rounds. `FederationConfig::users_per_round` became
/// `clients_per_round` (a [`ClientsPerRound`](frs_federation::ClientsPerRound)
/// count *or* population fraction, serialized as a bare number), which
/// renames a key in every canonical config JSON; benign clients materialize
/// lazily from an arena pool and robust rules can run item-sharded. Both are
/// bit-identical to the eager/dense paths, but the config shape changed, so
/// the bump re-keys everything rather than guessing at old entries.
pub const CACHE_SCHEMA_VERSION: u32 = 6;

/// The content-addressed key of one scenario: SHA-256 (hex) over a
/// schema-version salt, the canonical config JSON, and the dataset file's
/// digest.
///
/// Execution-only knobs that provably don't change the outcome are
/// normalized out before hashing — today that is
/// `FederationConfig::round_threads` (results are bit-identical at any
/// fan-out width or policy), so runs that differ only in intra-round
/// parallelism share entries.
pub fn scenario_key(cfg: &ScenarioConfig) -> String {
    let mut normalized = cfg.clone();
    normalized.federation.round_threads = frs_federation::RoundThreads::default();
    // The two empty `*-fingerprint:` lines stay: every existing key was
    // hashed with them, so dropping them would re-key every cache entry.
    let payload = format!(
        "frs-scenario-v{CACHE_SCHEMA_VERSION}\n{}\nattack-fingerprint:\ndefense-fingerprint:\ndataset-file:{}",
        normalized.canonical_json(),
        dataset_file_digest(cfg),
    );
    sha256_hex(payload.as_bytes())
}

/// SHA-256 of a file-backed dataset's bytes (empty for synthetic specs),
/// so the cache sees dump edits the config path alone cannot. Unreadable
/// files key under a constant marker — the run itself will fail loudly at
/// load time, so no result is ever stored under it from a good dump.
fn dataset_file_digest(cfg: &ScenarioConfig) -> String {
    match cfg.dataset.file_path() {
        None => String::new(),
        Some(path) => file_digest_memoized(path),
    }
}

type DigestMemo = Mutex<HashMap<String, (u64, Option<std::time::SystemTime>, String)>>;

/// Per-process digest memo keyed by `(len, mtime)`: a `paper all
/// --dataset file:…` keys hundreds of cells against one dump, and hashing
/// megabytes per cell would dominate warm replays. A changed length or
/// mtime re-reads (the re-key path); an unchanged stat reuses the digest.
fn file_digest_memoized(path: &str) -> String {
    static MEMO: OnceLock<DigestMemo> = OnceLock::new();
    let Ok(meta) = fs::metadata(path) else {
        return "unreadable".to_string();
    };
    let stamp = (meta.len(), meta.modified().ok());
    let memo = MEMO.get_or_init(Default::default);
    if let Some((len, mtime, digest)) = memo.lock().expect("digest memo poisoned").get(path) {
        if (*len, *mtime) == stamp {
            return digest.clone();
        }
    }
    let digest = fs::read(path)
        .map(|bytes| sha256_hex(&bytes))
        .unwrap_or_else(|_| "unreadable".to_string());
    memo.lock()
        .expect("digest memo poisoned")
        .insert(path.to_string(), (stamp.0, stamp.1, digest.clone()));
    digest
}

/// One persisted cache file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheEntry {
    /// Schema the entry was written under; mismatches read as misses.
    schema: u32,
    /// Echo of the file's key, guarding against renamed/copied files.
    key: String,
    /// `ScenarioOutcome::mean_round_time` survives here (serde skips it).
    mean_round_time_ns: u64,
    outcome: ScenarioOutcome,
}

/// One persisted mid-run checkpoint sidecar, written next to the entry it
/// will eventually become (`<key>.ckpt.json` beside `<key>.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointFile {
    /// Schema the checkpoint was written under; mismatches read as misses.
    schema: u32,
    /// Echo of the file's key, guarding against renamed/copied files.
    key: String,
    checkpoint: ScenarioCheckpoint,
}

/// Aggregate statistics over a cache directory (`paper cache stats`).
///
/// Only files matching the cache's own naming scheme (`<64-hex>.json`
/// entries, `<64-hex>.ckpt.json` checkpoint sidecars, and
/// `.<64-hex>[.ckpt].tmp.*` temp leftovers) are counted — anything else in
/// the directory is foreign and left strictly alone, so sharing a directory
/// with report sinks cannot lose data to `gc`/`clear`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Entries readable under the current schema.
    pub live: usize,
    /// Entries written under another schema version.
    pub stale: usize,
    /// Unreadable/torn entry files and leftover temp files.
    pub corrupt: usize,
    /// Checkpoint sidecars readable under the current schema (resumable
    /// partially-trained cells). Stale/corrupt sidecars count under
    /// `stale`/`corrupt` like entries.
    pub checkpoints: usize,
    /// Bytes across all checkpoint sidecars (readable or not).
    pub checkpoint_bytes: u64,
    /// Total bytes across all cache-owned files.
    pub total_bytes: u64,
}

impl CacheStats {
    /// All files the stats cover.
    pub fn files(&self) -> usize {
        self.live + self.stale + self.corrupt + self.checkpoints
    }
}

/// What [`SuiteCache::gc`] removed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GcOutcome {
    /// Files deleted (stale schema, corrupt, or — with `clear` — live too).
    pub removed: usize,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
}

/// One file [`SuiteCache::gc`] would remove (`paper cache gc --dry-run`).
#[derive(Debug, Clone, PartialEq)]
pub struct DoomedFile {
    pub path: PathBuf,
    pub bytes: u64,
    /// Why it is collectable (e.g. `"stale schema"`, `"orphaned checkpoint"`).
    pub reason: &'static str,
}

/// A content-addressed store of scenario outcomes, one JSON file per key.
///
/// Safe to share across the suite's worker threads (`&self` everywhere) and
/// across concurrent processes: writes are atomic renames and two writers
/// racing on one key produce identical content by construction.
#[derive(Debug)]
pub struct SuiteCache {
    dir: PathBuf,
    /// Distinguishes temp files of concurrent in-process writers.
    tmp_seq: AtomicU64,
}

impl SuiteCache {
    /// Opens (creating if missing) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    fn checkpoint_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.ckpt.json"))
    }

    /// The `n`-th rotated checkpoint sidecar (`n ≥ 1`; the newest is always
    /// the unnumbered [`SuiteCache::checkpoint_path`]).
    fn rotated_checkpoint_path(&self, key: &str, n: usize) -> PathBuf {
        self.dir.join(format!("{key}.ckpt.{n}.json"))
    }

    /// Atomic write shared by [`SuiteCache::store`] and
    /// [`SuiteCache::store_checkpoint`]: a unique temp file in the cache's
    /// own namespace, then a rename onto `target`.
    fn write_atomic(&self, tmp_tag: &str, target: &Path, text: &str) -> io::Result<()> {
        let tmp = self.dir.join(format!(
            ".{tmp_tag}.tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, text)?;
        match fs::rename(&tmp, target) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Looks up the outcome stored under `key`. Missing, torn, schema-stale,
    /// or mis-keyed entries all read as `None` — a miss is always safe, the
    /// caller just recomputes.
    pub fn load(&self, key: &str) -> Option<ScenarioOutcome> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        let entry: CacheEntry = serde_json::from_str(&text).ok()?;
        if entry.schema != CACHE_SCHEMA_VERSION || entry.key != key {
            return None;
        }
        let mut outcome = entry.outcome;
        outcome.mean_round_time = Duration::from_nanos(entry.mean_round_time_ns);
        Some(outcome)
    }

    /// Persists `outcome` under `key` atomically (temp file + rename).
    pub fn store(&self, key: &str, outcome: &ScenarioOutcome) -> io::Result<()> {
        let entry = CacheEntry {
            schema: CACHE_SCHEMA_VERSION,
            key: key.to_string(),
            mean_round_time_ns: outcome.mean_round_time.as_nanos().min(u64::MAX as u128) as u64,
            outcome: outcome.clone(),
        };
        let text = serde_json::to_string(&entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.write_atomic(key, &self.entry_path(key), &text)
    }

    /// Looks up the mid-run checkpoint stored beside `key`'s entry slot.
    /// Missing, torn, schema-stale, or mis-keyed sidecars all read as
    /// `None` — the cell simply recomputes from round zero. When the newest
    /// sidecar is unreadable but rotated generations exist (`--keep-
    /// checkpoints K`), the freshest readable rotation is returned instead:
    /// a torn newest file costs one checkpoint interval, not the whole run.
    pub fn load_checkpoint(&self, key: &str) -> Option<ScenarioCheckpoint> {
        if let Some(ckpt) = self.read_checkpoint_file(&self.checkpoint_path(key), key) {
            return Some(ckpt);
        }
        for n in 1.. {
            let path = self.rotated_checkpoint_path(key, n);
            if !path.exists() {
                return None;
            }
            if let Some(ckpt) = self.read_checkpoint_file(&path, key) {
                return Some(ckpt);
            }
        }
        None
    }

    fn read_checkpoint_file(&self, path: &Path, key: &str) -> Option<ScenarioCheckpoint> {
        let text = fs::read_to_string(path).ok()?;
        let file: CheckpointFile = serde_json::from_str(&text).ok()?;
        if file.schema != CACHE_SCHEMA_VERSION || file.key != key {
            return None;
        }
        Some(file.checkpoint)
    }

    /// Persists a mid-run checkpoint under `key` atomically. Overwrites any
    /// previous checkpoint for the key — only the latest round matters.
    pub fn store_checkpoint(&self, key: &str, checkpoint: &ScenarioCheckpoint) -> io::Result<()> {
        self.store_checkpoint_rotating(key, checkpoint, 1)
    }

    /// Persists a mid-run checkpoint under `key`, retaining the last `keep`
    /// generations: the previous newest becomes `<key>.ckpt.1.json`, the
    /// one before that `.2`, and so on; anything at index ≥ `keep` is
    /// pruned. Every step is a rename or a tmp+rename — the newest sidecar
    /// is never deleted, only superseded, so a crash at any point leaves a
    /// loadable checkpoint behind. `keep = 1` is the classic single-sidecar
    /// behavior.
    pub fn store_checkpoint_rotating(
        &self,
        key: &str,
        checkpoint: &ScenarioCheckpoint,
        keep: usize,
    ) -> io::Result<()> {
        let keep = keep.max(1);
        let primary = self.checkpoint_path(key);
        if keep > 1 && primary.exists() {
            // Shift older generations up, newest-rotation last → first.
            for n in (1..keep - 1).rev() {
                let from = self.rotated_checkpoint_path(key, n);
                if from.exists() {
                    fs::rename(&from, self.rotated_checkpoint_path(key, n + 1))?;
                }
            }
            fs::rename(&primary, self.rotated_checkpoint_path(key, 1))?;
        }
        // Prune generations past the retention window (rotated indices run
        // 1..keep; this also cleans up after a `keep` shrink between runs).
        for n in keep.. {
            match fs::remove_file(self.rotated_checkpoint_path(key, n)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => break,
                Err(e) => return Err(e),
            }
        }
        let file = CheckpointFile {
            schema: CACHE_SCHEMA_VERSION,
            key: key.to_string(),
            checkpoint: checkpoint.clone(),
        };
        let text = serde_json::to_string(&file)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.write_atomic(&format!("{key}.ckpt"), &primary, &text)
    }

    /// Removes `key`'s checkpoint sidecars — the newest and every rotated
    /// generation (a completed cell no longer needs them). Returns whether
    /// any file was actually deleted.
    pub fn remove_checkpoint(&self, key: &str) -> io::Result<bool> {
        let mut removed = match fs::remove_file(self.checkpoint_path(key)) {
            Ok(()) => true,
            Err(e) if e.kind() == io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        for n in 1.. {
            match fs::remove_file(self.rotated_checkpoint_path(key, n)) {
                Ok(()) => removed = true,
                Err(e) if e.kind() == io::ErrorKind::NotFound => break,
                Err(e) => return Err(e),
            }
        }
        Ok(removed)
    }

    /// Classifies every cache-owned file in the directory (foreign files —
    /// anything not named like an entry, checkpoint, or one of our temp
    /// files — are invisible to stats and untouchable by [`SuiteCache::gc`]).
    pub fn stats(&self) -> io::Result<CacheStats> {
        let mut stats = CacheStats::default();
        for (path, bytes, kind) in self.owned_files()? {
            stats.total_bytes += bytes;
            match kind {
                FileKind::Temp => stats.corrupt += 1,
                FileKind::Entry => match Self::classify(&path) {
                    EntryState::Live => stats.live += 1,
                    EntryState::Stale => stats.stale += 1,
                    EntryState::Corrupt => stats.corrupt += 1,
                },
                FileKind::Checkpoint => {
                    stats.checkpoint_bytes += bytes;
                    match Self::classify_checkpoint(&path) {
                        EntryState::Live => stats.checkpoints += 1,
                        EntryState::Stale => stats.stale += 1,
                        EntryState::Corrupt => stats.corrupt += 1,
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Everything a `gc(everything)` sweep would remove right now, with a
    /// per-file reason — the `paper cache gc --dry-run` listing. Checkpoint
    /// policy: stale/corrupt sidecars go like entries; a readable sidecar is
    /// *orphaned* (and collected) once its cell has a live finished entry,
    /// and *expired* (collected) once older than a week — a resume that
    /// stale is a rerun in disguise. Fresh resumable checkpoints survive.
    pub fn gc_plan(&self, everything: bool) -> io::Result<Vec<DoomedFile>> {
        let mut doomed = Vec::new();
        for (path, bytes, kind) in self.owned_files()? {
            let reason = match kind {
                FileKind::Temp => Some("leftover temp file"),
                FileKind::Entry => {
                    if everything {
                        Some("clear")
                    } else {
                        match Self::classify(&path) {
                            EntryState::Live => None,
                            EntryState::Stale => Some("stale schema"),
                            EntryState::Corrupt => Some("corrupt entry"),
                        }
                    }
                }
                FileKind::Checkpoint => {
                    if everything {
                        Some("clear")
                    } else {
                        match Self::classify_checkpoint(&path) {
                            EntryState::Stale => Some("stale schema"),
                            EntryState::Corrupt => Some("corrupt checkpoint"),
                            EntryState::Live => {
                                let entry = entry_path_of_checkpoint(&path);
                                if Self::classify(&entry) == EntryState::Live {
                                    Some("orphaned checkpoint (cell finished)")
                                } else if file_older_than(&path, CHECKPOINT_EXPIRY_AGE) {
                                    Some("expired checkpoint")
                                } else {
                                    None
                                }
                            }
                        }
                    }
                }
            };
            if let Some(reason) = reason {
                doomed.push(DoomedFile {
                    path,
                    bytes,
                    reason,
                });
            }
        }
        Ok(doomed)
    }

    /// Removes schema-stale and corrupt entries, leftover temp files, and
    /// orphaned/expired checkpoint sidecars (see [`SuiteCache::gc_plan`]);
    /// with `everything`, removes live entries and checkpoints too (`paper
    /// cache clear`). Foreign files sharing the directory are never touched.
    pub fn gc(&self, everything: bool) -> io::Result<GcOutcome> {
        let mut out = GcOutcome::default();
        for file in self.gc_plan(everything)? {
            match fs::remove_file(&file.path) {
                Ok(()) => {
                    out.removed += 1;
                    out.reclaimed_bytes += file.bytes;
                }
                // A concurrent gc/clear (or external cleanup) already
                // removed it — the goal state is reached either way.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Every cache-owned regular file with its size and name-derived kind,
    /// skipping foreign files.
    fn owned_files(&self) -> io::Result<Vec<(PathBuf, u64, FileKind)>> {
        let mut files = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let meta = match entry.metadata() {
                Ok(meta) => meta,
                // A concurrent gc/clear removed it between the directory
                // listing and the stat — it's not ours to count anymore.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let path = entry.path();
            if let (true, Some(kind)) = (meta.is_file(), Self::file_kind(&path)) {
                // Fresh temp files may be a concurrent store() mid-write;
                // they only become "ours to reclaim" once stale.
                if kind == FileKind::Temp && !temp_is_leftover(&path) {
                    continue;
                }
                files.push((path, meta.len(), kind));
            }
        }
        files.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(files)
    }

    /// `Some(Entry)` for `<64-hex>.json`, `Some(Checkpoint)` for
    /// `<64-hex>.ckpt.json` and rotated `<64-hex>.ckpt.<N>.json`
    /// generations, `Some(Temp)` for our `.<64-hex>[.ckpt].tmp.*` writer
    /// leftovers, `None` for foreign files.
    fn file_kind(path: &Path) -> Option<FileKind> {
        let name = path.file_name()?.to_str()?;
        if let Some(stem) = name.strip_suffix(".json") {
            if is_hex_key(stem) {
                return Some(FileKind::Entry);
            }
            if checkpoint_key_of_stem(stem).is_some() {
                return Some(FileKind::Checkpoint);
            }
        }
        // Byte-wise: foreign dotfile names may not have a char boundary at
        // byte 64, so no string slicing here.
        if let Some(rest) = name.strip_prefix('.') {
            let bytes = rest.as_bytes();
            let key_is_hex = bytes.len() > 64
                && bytes[..64]
                    .iter()
                    .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
            if key_is_hex
                && (bytes[64..].starts_with(b".tmp.") || bytes[64..].starts_with(b".ckpt.tmp."))
            {
                return Some(FileKind::Temp);
            }
        }
        None
    }

    fn classify(path: &Path) -> EntryState {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            return EntryState::Corrupt;
        };
        let Ok(text) = fs::read_to_string(path) else {
            return EntryState::Corrupt;
        };
        match serde_json::from_str::<CacheEntry>(&text) {
            Ok(entry) if entry.schema == CACHE_SCHEMA_VERSION && entry.key == stem => {
                EntryState::Live
            }
            Ok(_) => EntryState::Stale,
            Err(_) => EntryState::Corrupt,
        }
    }

    fn classify_checkpoint(path: &Path) -> EntryState {
        // `<key>.ckpt[.N].json` — the echo check compares against the bare
        // key, for the newest sidecar and rotated generations alike.
        let key = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(checkpoint_key_of_stem);
        let Some(key) = key else {
            return EntryState::Corrupt;
        };
        let Ok(text) = fs::read_to_string(path) else {
            return EntryState::Corrupt;
        };
        match serde_json::from_str::<CheckpointFile>(&text) {
            Ok(file) if file.schema == CACHE_SCHEMA_VERSION && file.key == key => EntryState::Live,
            Ok(_) => EntryState::Stale,
            Err(_) => EntryState::Corrupt,
        }
    }
}

/// `<dir>/<key>.ckpt[.N].json` → `<dir>/<key>.json` (the entry the
/// checkpoint would have become).
fn entry_path_of_checkpoint(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    let key = name
        .strip_suffix(".json")
        .and_then(checkpoint_key_of_stem)
        .unwrap_or(name);
    path.with_file_name(format!("{key}.json"))
}

/// `<64-hex>.ckpt` or rotated `<64-hex>.ckpt.<digits>` → the bare key.
/// `None` when the stem is not a checkpoint sidecar's.
fn checkpoint_key_of_stem(stem: &str) -> Option<&str> {
    let before_rotation = match stem.rsplit_once('.') {
        Some((head, index)) if !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()) => {
            head
        }
        _ => stem,
    };
    let key = before_rotation.strip_suffix(".ckpt")?;
    is_hex_key(key).then_some(key)
}

/// True for a 64-char lowercase-hex cache key.
fn is_hex_key(s: &str) -> bool {
    s.len() == 64 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Temp files older than this are leftovers of a dead writer. Younger ones
/// may belong to an in-flight [`SuiteCache::store`] in another process —
/// a store takes milliseconds, so an hour is conservatively safe — and are
/// invisible to [`SuiteCache::stats`]/[`SuiteCache::gc`].
const TEMP_LEFTOVER_AGE: Duration = Duration::from_secs(3600);

/// Whether a temp file is old enough to be a dead writer's leftover.
/// Unreadable or future mtimes read as "maybe in flight": never delete
/// what might still be renamed.
fn temp_is_leftover(path: &Path) -> bool {
    file_older_than(path, TEMP_LEFTOVER_AGE)
}

/// Checkpoints this much older than their last write are expired for `gc`:
/// nobody resumes a week-dead run, and the cells they'd resume into have
/// likely been re-keyed by code changes anyway.
const CHECKPOINT_EXPIRY_AGE: Duration = Duration::from_secs(7 * 24 * 3600);

/// Whether `path`'s mtime is at least `age` in the past. Unreadable or
/// future mtimes read as "young": never delete what might still be in use.
fn file_older_than(path: &Path, age: Duration) -> bool {
    fs::metadata(path)
        .and_then(|meta| meta.modified())
        .ok()
        .and_then(|modified| modified.elapsed().ok())
        .is_some_and(|elapsed| elapsed >= age)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    Entry,
    Checkpoint,
    Temp,
}

#[derive(Debug, PartialEq, Eq)]
enum EntryState {
    Live,
    Stale,
    Corrupt,
}

// --------------------------------------------------------------- SHA-256

/// SHA-256 digest as lowercase hex. Self-contained (FIPS 180-4) because the
/// sanctioned dependency set has no hashing crate; tested against published
/// vectors below.
pub fn sha256_hex(data: &[u8]) -> String {
    let digest = sha256(data);
    let mut out = String::with_capacity(64);
    for byte in digest {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    // Padding: 0x80, zeros, then the bit length as a big-endian u64.
    let mut message = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in message.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (state, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(add);
        }
    }

    let mut digest = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        digest[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TrendPoint;
    use frs_data::DatasetSpec;
    use frs_model::ModelKind;

    fn temp_cache(tag: &str) -> SuiteCache {
        let dir =
            std::env::temp_dir().join(format!("frs-suite-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SuiteCache::open(dir).unwrap()
    }

    fn sample_outcome() -> ScenarioOutcome {
        ScenarioOutcome {
            er_percent: 93.39,
            hr_percent: 41.5,
            ndcg: 0.2172,
            targets: vec![17, 230],
            mean_round_time: Duration::from_micros(1234),
            total_upload_bytes: 987_654,
            max_round_threads: 3,
            trend: vec![TrendPoint {
                round: 10,
                er: 12.0,
                hr: 30.5,
            }],
        }
    }

    #[test]
    fn sha256_matches_published_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Two-block message (padding crosses a block boundary).
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn keys_are_stable_and_config_sensitive() {
        let cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, 7);
        let key = scenario_key(&cfg);
        assert_eq!(key.len(), 64);
        assert_eq!(key, scenario_key(&cfg.clone()));

        let mut flipped = cfg.clone();
        flipped.rounds += 1;
        assert_ne!(key, scenario_key(&flipped));
        let mut reseeded = cfg.clone();
        reseeded.federation.seed ^= 1;
        assert_ne!(key, scenario_key(&reseeded));

        // Execution-only parallelism is normalized out: same outcome, same
        // entry regardless of intra-round width or policy.
        use frs_federation::RoundThreads;
        let mut threaded = cfg.clone();
        threaded.federation.round_threads = RoundThreads::Fixed(8);
        assert_eq!(key, scenario_key(&threaded));
        let mut auto = cfg;
        auto.federation.round_threads = RoundThreads::Auto;
        assert_eq!(key, scenario_key(&auto));
    }

    /// Literal keys: a change to how configs or selections serialize would
    /// re-key every cached cell, and comparisons within one build cannot
    /// see that. Changing one of these values needs a schema bump.
    #[test]
    fn keys_are_pinned_across_builds() {
        use frs_attacks::AttackSel;
        use frs_defense::DefenseSel;

        let baseline = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, 7);
        let mut attacked = baseline.clone();
        attacked.attack = AttackSel::named("pieck-uea");
        attacked.defense = DefenseSel::named("ours");
        let mut parameterized = baseline.clone();
        parameterized.attack = AttackSel::parse("pieck-uea:scale=2,top_n=20").unwrap();
        parameterized.defense = DefenseSel::parse("ours:beta=0.9,re2=false").unwrap();
        let mut variant = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Ncf, 3);
        variant.attack = AttackSel::named("ipe-ablation-pkl");
        variant.defense = DefenseSel::parse("median:shards=8").unwrap();

        assert_eq!(CACHE_SCHEMA_VERSION, 6);
        for (cfg, key) in [
            (
                &baseline,
                "7eaa8927b24dcb4a902a794995f0fa06296c96994fdc67dda28ee2a8d5a3d14b",
            ),
            (
                &attacked,
                "400fef131470de7636a5fa4d88baf9dfa3c80d09b0dddbc099ede61dd41cce05",
            ),
            (
                &parameterized,
                "b76f352d804d64ec211eb3785367435cd4b0b6e28c82044b681b7fd73b1cbd80",
            ),
            (
                &variant,
                "97b4f1b1b07661f79bb92c0f628d6fbfe384d15dd6fea275e9086ea7659ef84d",
            ),
        ] {
            assert_eq!(scenario_key(cfg), key, "{}", cfg.canonical_json());
        }
    }

    #[test]
    fn defense_params_are_part_of_the_key() {
        use frs_defense::DefenseSel;

        let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, 7);
        cfg.defense = DefenseSel::named("ours");
        let bare = scenario_key(&cfg);

        cfg.defense = DefenseSel::parse("ours:beta=0.5").unwrap();
        let beta_half = scenario_key(&cfg);
        assert_ne!(bare, beta_half, "an explicit param addresses a new cell");

        cfg.defense = DefenseSel::parse("ours:beta=0.6").unwrap();
        assert_ne!(beta_half, scenario_key(&cfg), "param value flips re-key");

        cfg.defense = DefenseSel::named("ours").with_param("beta", 0.5f32);
        assert_eq!(
            beta_half,
            scenario_key(&cfg),
            "construction path is irrelevant"
        );
    }

    #[test]
    fn attack_params_are_part_of_the_key() {
        use frs_attacks::AttackSel;

        let mut cfg = ScenarioConfig::baseline(DatasetSpec::tiny(), ModelKind::Mf, 7);
        cfg.attack = AttackSel::named("pieck-uea");
        let bare = scenario_key(&cfg);

        cfg.attack = AttackSel::parse("pieck-uea:scale=2.0").unwrap();
        let scale_two = scenario_key(&cfg);
        assert_ne!(bare, scale_two, "an explicit param addresses a new cell");

        cfg.attack = AttackSel::parse("pieck-uea:scale=3").unwrap();
        assert_ne!(scale_two, scenario_key(&cfg), "param value flips re-key");

        cfg.attack = AttackSel::named("pieck-uea").with_param("scale", 2.0f32);
        assert_eq!(
            scale_two,
            scenario_key(&cfg),
            "construction path is irrelevant"
        );
    }

    #[test]
    fn store_load_round_trips_including_round_time() {
        let cache = temp_cache("roundtrip");
        let outcome = sample_outcome();
        let key = "a".repeat(64);
        assert!(cache.load(&key).is_none());
        cache.store(&key, &outcome).unwrap();
        let back = cache.load(&key).unwrap();
        assert_eq!(back.er_percent, outcome.er_percent);
        assert_eq!(back.hr_percent, outcome.hr_percent);
        assert_eq!(back.ndcg, outcome.ndcg);
        assert_eq!(back.targets, outcome.targets);
        assert_eq!(back.total_upload_bytes, outcome.total_upload_bytes);
        assert_eq!(back.trend.len(), 1);
        // The serde-skipped wall time survives via the ns side channel.
        assert_eq!(back.mean_round_time, outcome.mean_round_time);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn torn_stale_and_miskeyed_entries_read_as_misses() {
        let cache = temp_cache("misses");
        let key = "b".repeat(64);
        fs::write(cache.entry_path(&key), "{ torn").unwrap();
        assert!(cache.load(&key).is_none());

        // A valid entry stored under the wrong file name misses too.
        cache.store(&key, &sample_outcome()).unwrap();
        let other = "c".repeat(64);
        fs::copy(cache.entry_path(&key), cache.entry_path(&other)).unwrap();
        assert!(cache.load(&other).is_none());
        assert!(cache.load(&key).is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_and_gc_classify_entries() {
        let cache = temp_cache("gc");
        let live = "d".repeat(64);
        cache.store(&live, &sample_outcome()).unwrap();
        fs::write(cache.dir().join(format!("{}.json", "e".repeat(64))), "junk").unwrap();
        // A stale-schema entry: rewrite a valid one with schema 0.
        let stale_key = "f".repeat(64);
        cache.store(&stale_key, &sample_outcome()).unwrap();
        let text = fs::read_to_string(cache.entry_path(&stale_key)).unwrap();
        fs::write(
            cache.entry_path(&stale_key),
            text.replace(
                &format!("\"schema\":{CACHE_SCHEMA_VERSION}"),
                "\"schema\":0",
            ),
        )
        .unwrap();

        let stats = cache.stats().unwrap();
        assert_eq!((stats.live, stats.stale, stats.corrupt), (1, 1, 1));
        assert!(stats.total_bytes > 0);

        let gc = cache.gc(false).unwrap();
        assert_eq!(gc.removed, 2);
        let stats = cache.stats().unwrap();
        assert_eq!((stats.live, stats.stale, stats.corrupt), (1, 0, 0));

        let cleared = cache.gc(true).unwrap();
        assert_eq!(cleared.removed, 1);
        assert_eq!(cache.stats().unwrap().files(), 0);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn foreign_files_are_invisible_and_survive_clear() {
        // A cache dir shared with report sinks (`--cache-dir out --json out`)
        // must never lose the reports to gc/clear.
        let cache = temp_cache("foreign");
        cache.store(&"a".repeat(64), &sample_outcome()).unwrap();
        for foreign in ["table4.json", "table4.csv", "notes.txt", "UPPER.json"] {
            fs::write(cache.dir().join(foreign), "user data").unwrap();
        }
        // Including a multibyte dotfile long enough that byte 64 is not a
        // char boundary — stats/gc must skip it, not panic.
        let multibyte = format!(".{}", "日".repeat(24));
        fs::write(cache.dir().join(&multibyte), "user data").unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!((stats.live, stats.stale, stats.corrupt), (1, 0, 0));

        let cleared = cache.gc(true).unwrap();
        assert_eq!(cleared.removed, 1, "only the cache's own entry goes");
        for foreign in ["table4.json", "table4.csv", "notes.txt", "UPPER.json"] {
            assert!(cache.dir().join(foreign).exists(), "{foreign} must survive");
        }
        assert!(cache.dir().join(&multibyte).exists());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn orphaned_temp_files_count_as_leftovers_and_are_collected() {
        // A run killed between write and rename leaves `.<key>.tmp.<pid>.<n>`.
        let cache = temp_cache("orphan");
        let tmp_path = cache.dir().join(format!(".{}.tmp.999.0", "b".repeat(64)));
        fs::write(&tmp_path, "{\"half\":").unwrap();

        // Fresh: could be a concurrent writer mid-store — invisible, kept.
        let stats = cache.stats().unwrap();
        assert_eq!((stats.live, stats.stale, stats.corrupt), (0, 0, 0));
        assert_eq!(cache.gc(true).unwrap().removed, 0);
        assert!(tmp_path.exists(), "in-flight temp must survive gc");

        // Aged past the leftover threshold: counted and collected.
        let old = std::time::SystemTime::now() - Duration::from_secs(2 * 3600);
        fs::OpenOptions::new()
            .write(true)
            .open(&tmp_path)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!((stats.live, stats.stale, stats.corrupt), (0, 0, 1));
        assert_eq!(cache.gc(false).unwrap().removed, 1);
        assert!(!tmp_path.exists());
        let _ = fs::remove_dir_all(cache.dir());
    }

    fn sample_checkpoint(round: usize) -> ScenarioCheckpoint {
        use frs_model::ModelConfig;
        let mut rng = frs_linalg::SeedStream::new(7).rng("ckpt-test", 0);
        ScenarioCheckpoint {
            trend: vec![TrendPoint {
                round: 5,
                er: 1.5,
                hr: 2.5,
            }],
            sim: frs_federation::SimulationCheckpoint {
                format: frs_federation::CHECKPOINT_FORMAT_VERSION,
                round,
                model: frs_model::GlobalModel::new(&ModelConfig::mf(4), 8, &mut rng),
                stats: Default::default(),
                clients: vec![serde::Value::Null; 3],
                aggregator: serde::Value::Null,
            },
        }
    }

    #[test]
    fn checkpoint_store_load_remove_round_trips() {
        let cache = temp_cache("ckpt-roundtrip");
        let key = "a".repeat(64);
        assert!(cache.load_checkpoint(&key).is_none());
        cache.store_checkpoint(&key, &sample_checkpoint(5)).unwrap();
        let back = cache.load_checkpoint(&key).unwrap();
        assert_eq!(back.sim.round, 5);
        assert_eq!(back.trend.len(), 1);
        assert_eq!(back.trend[0].er, 1.5);
        // A checkpoint sidecar must never read as a finished cell.
        assert!(cache.load(&key).is_none());

        // Overwrites keep only the latest round.
        cache.store_checkpoint(&key, &sample_checkpoint(9)).unwrap();
        assert_eq!(cache.load_checkpoint(&key).unwrap().sim.round, 9);

        assert!(cache.remove_checkpoint(&key).unwrap());
        assert!(!cache.remove_checkpoint(&key).unwrap(), "already gone");
        assert!(cache.load_checkpoint(&key).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn rotation_retains_the_last_k_generations() {
        let cache = temp_cache("ckpt-rotate");
        let key = "a".repeat(64);
        for round in 1..=5 {
            cache
                .store_checkpoint_rotating(&key, &sample_checkpoint(round), 3)
                .unwrap();
        }
        // keep=3: the newest plus two rotated generations, no more.
        assert_eq!(cache.load_checkpoint(&key).unwrap().sim.round, 5);
        assert!(cache.rotated_checkpoint_path(&key, 1).exists());
        assert!(cache.rotated_checkpoint_path(&key, 2).exists());
        assert!(!cache.rotated_checkpoint_path(&key, 3).exists());

        // A torn newest sidecar falls back to the freshest rotation — one
        // interval lost, not the whole run.
        fs::write(cache.checkpoint_path(&key), "{ torn").unwrap();
        assert_eq!(cache.load_checkpoint(&key).unwrap().sim.round, 4);

        // remove takes every generation.
        assert!(cache.remove_checkpoint(&key).unwrap());
        assert!(cache.load_checkpoint(&key).is_none());
        assert!(!cache.rotated_checkpoint_path(&key, 1).exists());
        assert!(!cache.rotated_checkpoint_path(&key, 2).exists());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn shrinking_keep_prunes_old_generations() {
        let cache = temp_cache("ckpt-shrink");
        let key = "b".repeat(64);
        for round in 1..=4 {
            cache
                .store_checkpoint_rotating(&key, &sample_checkpoint(round), 4)
                .unwrap();
        }
        assert!(cache.rotated_checkpoint_path(&key, 3).exists());
        // Back to the default single sidecar: rotations are pruned.
        cache
            .store_checkpoint_rotating(&key, &sample_checkpoint(5), 1)
            .unwrap();
        assert_eq!(cache.load_checkpoint(&key).unwrap().sim.round, 5);
        for n in 1..=4 {
            assert!(!cache.rotated_checkpoint_path(&key, n).exists(), "gen {n}");
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_and_gc_understand_rotated_sidecars() {
        let cache = temp_cache("ckpt-rotate-gc");
        let key = "c".repeat(64);
        for round in 1..=3 {
            cache
                .store_checkpoint_rotating(&key, &sample_checkpoint(round), 3)
                .unwrap();
        }
        let stats = cache.stats().unwrap();
        assert_eq!(stats.checkpoints, 3, "rotations count as checkpoints");
        // All resumable: gc leaves every generation.
        assert_eq!(cache.gc(false).unwrap().removed, 0);

        // Once the cell finishes, all generations are orphans.
        cache.store(&key, &sample_outcome()).unwrap();
        let plan = cache.gc_plan(false).unwrap();
        assert_eq!(plan.len(), 3);
        assert!(plan
            .iter()
            .all(|d| d.reason == "orphaned checkpoint (cell finished)"));
        assert_eq!(cache.gc(false).unwrap().removed, 3);
        assert!(cache.load_checkpoint(&key).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn torn_or_miskeyed_checkpoints_read_as_misses() {
        let cache = temp_cache("ckpt-misses");
        let key = "b".repeat(64);
        fs::write(cache.checkpoint_path(&key), "{ torn").unwrap();
        assert!(cache.load_checkpoint(&key).is_none());

        // A valid sidecar copied under another key's name misses too.
        cache.store_checkpoint(&key, &sample_checkpoint(3)).unwrap();
        let other = "c".repeat(64);
        fs::copy(cache.checkpoint_path(&key), cache.checkpoint_path(&other)).unwrap();
        assert!(cache.load_checkpoint(&other).is_none());
        assert!(cache.load_checkpoint(&key).is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_report_checkpoints_beside_entries() {
        let cache = temp_cache("ckpt-stats");
        cache.store(&"d".repeat(64), &sample_outcome()).unwrap();
        cache
            .store_checkpoint(&"e".repeat(64), &sample_checkpoint(2))
            .unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!((stats.live, stats.checkpoints), (1, 1));
        assert_eq!(stats.files(), 2);
        assert!(stats.checkpoint_bytes > 0);
        assert!(stats.total_bytes > stats.checkpoint_bytes);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_keeps_fresh_resumable_checkpoints() {
        // A checkpoint whose cell has no finished entry is a resumable run
        // in flight — gc must leave it; only clear takes it.
        let cache = temp_cache("ckpt-keep");
        let key = "d".repeat(64);
        cache.store_checkpoint(&key, &sample_checkpoint(4)).unwrap();
        assert_eq!(cache.gc(false).unwrap().removed, 0);
        assert!(cache.load_checkpoint(&key).is_some());
        assert_eq!(cache.gc(true).unwrap().removed, 1);
        assert!(cache.load_checkpoint(&key).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_collects_orphaned_corrupt_and_expired_checkpoints() {
        let cache = temp_cache("ckpt-gc");
        // Orphaned: the cell finished (live entry), the sidecar lingers.
        let done = "d".repeat(64);
        cache.store(&done, &sample_outcome()).unwrap();
        cache
            .store_checkpoint(&done, &sample_checkpoint(6))
            .unwrap();
        // Corrupt sidecar.
        let torn = "e".repeat(64);
        fs::write(cache.checkpoint_path(&torn), "{ torn").unwrap();
        // Expired: resumable, but a week stale.
        let old_key = "f".repeat(64);
        cache
            .store_checkpoint(&old_key, &sample_checkpoint(1))
            .unwrap();
        let old = std::time::SystemTime::now() - CHECKPOINT_EXPIRY_AGE - Duration::from_secs(60);
        fs::OpenOptions::new()
            .write(true)
            .open(cache.checkpoint_path(&old_key))
            .unwrap()
            .set_modified(old)
            .unwrap();

        let plan = cache.gc_plan(false).unwrap();
        let mut reasons: Vec<&str> = plan.iter().map(|d| d.reason).collect();
        reasons.sort_unstable();
        assert_eq!(
            reasons,
            [
                "corrupt checkpoint",
                "expired checkpoint",
                "orphaned checkpoint (cell finished)",
            ]
        );

        let gc = cache.gc(false).unwrap();
        assert_eq!(gc.removed, 3);
        assert!(gc.reclaimed_bytes > 0);
        let stats = cache.stats().unwrap();
        assert_eq!((stats.live, stats.checkpoints, stats.corrupt), (1, 0, 0));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_plan_is_a_dry_run() {
        let cache = temp_cache("ckpt-plan");
        let key = "a".repeat(64);
        cache.store(&key, &sample_outcome()).unwrap();
        cache.store_checkpoint(&key, &sample_checkpoint(2)).unwrap();
        let plan = cache.gc_plan(true).unwrap();
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|d| d.reason == "clear"));
        // Nothing was touched.
        assert!(cache.load(&key).is_some());
        assert!(cache.load_checkpoint(&key).is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn checkpoint_temp_files_are_recognized_leftovers() {
        let cache = temp_cache("ckpt-tmp");
        let tmp = cache
            .dir()
            .join(format!(".{}.ckpt.tmp.999.0", "b".repeat(64)));
        fs::write(&tmp, "{\"half\":").unwrap();
        // Fresh: invisible (could be a concurrent writer).
        assert_eq!(cache.gc(true).unwrap().removed, 0);
        assert!(tmp.exists());
        let old = std::time::SystemTime::now() - Duration::from_secs(2 * 3600);
        fs::OpenOptions::new()
            .write(true)
            .open(&tmp)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let plan = cache.gc_plan(false).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].reason, "leftover temp file");
        assert_eq!(cache.gc(false).unwrap().removed, 1);
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_gc_runs_both_succeed() {
        // Two clears race on the same entries: each lists every file, so
        // the loser of each per-file removal sees NotFound — which must
        // read as "goal reached", not as an error aborting the sweep.
        let cache = temp_cache("gc-race");
        for i in 0..32 {
            cache
                .store(&format!("{i:02x}").repeat(32), &sample_outcome())
                .unwrap();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| cache.gc(true))).collect();
            for handle in handles {
                handle.join().unwrap().expect("racing gc must not error");
            }
        });
        assert_eq!(cache.stats().unwrap().files(), 0);
        let _ = fs::remove_dir_all(cache.dir());
    }
}
