//! Durable checkpoint directory: atomic file writes, per-iteration
//! completeness, and latest-complete restore with fallback.
//!
//! One training run writes into one directory. Engine checkpoints are one
//! file per rank per stamped iteration (`ckpt-it0000000004-rank002.bin`);
//! an iteration is *complete* only when all `world_size` rank files exist
//! and decode cleanly. Restore walks complete sets newest-first and falls
//! back past any set containing a torn or corrupted file, collecting a
//! diagnostic per rejected file — corruption is reported loudly, never
//! silently skipped.
//!
//! Durability protocol per file: write to `*.tmp`, `fsync` the file, rename
//! over the final name, `fsync` the directory. A crash at any point leaves
//! either the complete old state or a stray `*.tmp` that no reader ever
//! opens — never a half-written `.bin`.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use symi::{EngineConfig, EngineSnapshot};
use symi_model::{Checkpoint, ModelConfig};

use crate::error::CkptError;
use crate::format;

fn label(path: &Path) -> String {
    path.display().to_string()
}

/// Writes `bytes` to `path` with the tmp + fsync + rename + dir-fsync
/// protocol. Readers either see the old file or the complete new one.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| CkptError::io(label(&tmp), e))?;
        f.write_all(bytes).map_err(|e| CkptError::io(label(&tmp), e))?;
        f.sync_all().map_err(|e| CkptError::io(label(&tmp), e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| CkptError::io(label(path), e))?;
    if let Some(parent) = path.parent() {
        // Persist the rename itself: fsync the directory entry.
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// `ckpt-it{iteration:010}-rank{rank:03}.bin`
pub(crate) fn engine_file_name(iteration: u64, rank: usize) -> String {
    format!("ckpt-it{iteration:010}-rank{rank:03}.bin")
}

/// `trainer-it{iteration:010}.bin`
pub(crate) fn trainer_file_name(iteration: u64) -> String {
    format!("trainer-it{iteration:010}.bin")
}

/// Inverse of `engine_file_name`.
pub fn parse_engine_file_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("ckpt-it")?.strip_suffix(".bin")?;
    let (it, rank) = rest.split_once("-rank")?;
    Some((it.parse().ok()?, rank.parse().ok()?))
}

/// Inverse of `trainer_file_name`.
pub fn parse_trainer_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("trainer-it")?.strip_suffix(".bin")?.parse().ok()
}

/// Outcome of a latest-complete restore scan: the newest fully-valid set
/// (if any) plus one diagnostic line per file that forced a fallback.
pub struct LatestEngine {
    pub loaded: Option<(u64, Vec<EngineSnapshot>)>,
    pub rejected: Vec<String>,
}

/// Same shape for the single-file trainer checkpoints.
pub struct LatestTrainer {
    pub loaded: Option<Checkpoint>,
    pub rejected: Vec<String>,
}

/// Handle on one checkpoint directory.
#[derive(Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CkptError::io(label(&dir), e))?;
        Ok(Self { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn engine_path(&self, iteration: u64, rank: usize) -> PathBuf {
        self.dir.join(engine_file_name(iteration, rank))
    }

    pub fn trainer_path(&self, iteration: u64) -> PathBuf {
        self.dir.join(trainer_file_name(iteration))
    }

    /// Synchronous encode + atomic write of one rank's snapshot. The async
    /// path ([`crate::AsyncCheckpointWriter`]) does the same work off the
    /// training thread. Returns bytes written.
    #[cfg(test)]
    pub(crate) fn write_engine(
        &self,
        cfg: &EngineConfig,
        snap: &EngineSnapshot,
    ) -> Result<u64, CkptError> {
        let bytes = format::encode_engine(cfg, snap);
        write_atomic(&self.engine_path(snap.iteration, snap.logical_rank), &bytes)?;
        Ok(bytes.len() as u64)
    }

    pub fn write_trainer(&self, cfg: &ModelConfig, ckpt: &Checkpoint) -> Result<u64, CkptError> {
        let bytes = format::encode_trainer(cfg, ckpt);
        write_atomic(&self.trainer_path(ckpt.iteration), &bytes)?;
        Ok(bytes.len() as u64)
    }

    fn list_names(&self) -> Result<Vec<String>, CkptError> {
        let rd = std::fs::read_dir(&self.dir).map_err(|e| CkptError::io(label(&self.dir), e))?;
        let mut names = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| CkptError::io(label(&self.dir), e))?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Iterations for which all `world_size` rank files exist (presence
    /// only — validity is established at load time), ascending.
    pub fn complete_engine_iterations(&self, world_size: usize) -> Result<Vec<u64>, CkptError> {
        let mut by_iter: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        for name in self.list_names()? {
            if let Some((it, rank)) = parse_engine_file_name(&name) {
                by_iter.entry(it).or_default().push(rank);
            }
        }
        Ok(by_iter
            .into_iter()
            .filter(|(_, ranks)| {
                let mut sorted = ranks.clone();
                sorted.sort_unstable();
                sorted.len() == world_size && sorted.iter().enumerate().all(|(i, &r)| i == r)
            })
            .map(|(it, _)| it)
            .collect())
    }

    /// Loads and validates every rank file of one iteration, in rank order.
    pub(crate) fn load_engine_set(
        &self,
        iteration: u64,
        world_size: usize,
        expected: Option<&EngineConfig>,
    ) -> Result<Vec<EngineSnapshot>, CkptError> {
        let mut snaps = Vec::with_capacity(world_size);
        for rank in 0..world_size {
            let path = self.engine_path(iteration, rank);
            let file = label(&path);
            let bytes = std::fs::read(&path).map_err(|e| CkptError::io(file.clone(), e))?;
            let ef = format::decode_engine(&file, &bytes, expected)?;
            if ef.snapshot.iteration != iteration {
                return Err(CkptError::FieldMismatch {
                    file,
                    field: "header.iteration".into(),
                    detail: format!(
                        "file named for iteration {iteration} but stamped {}",
                        ef.snapshot.iteration
                    ),
                });
            }
            if ef.snapshot.world_size != world_size || ef.snapshot.logical_rank != rank {
                return Err(CkptError::FieldMismatch {
                    file,
                    field: "header.logical_rank".into(),
                    detail: format!(
                        "file named for rank {rank}/{world_size} but stamped {}/{}",
                        ef.snapshot.logical_rank, ef.snapshot.world_size
                    ),
                });
            }
            snaps.push(ef.snapshot);
        }
        Ok(snaps)
    }

    /// The restore entry point: newest complete set that validates end to
    /// end. A set with any bad file is rejected (each failure recorded
    /// verbatim in `rejected`) and the scan falls back to the next older
    /// complete set.
    pub fn load_latest_engine(
        &self,
        world_size: usize,
        expected: Option<&EngineConfig>,
    ) -> Result<LatestEngine, CkptError> {
        let mut rejected = Vec::new();
        for &it in self.complete_engine_iterations(world_size)?.iter().rev() {
            match self.load_engine_set(it, world_size, expected) {
                Ok(snaps) => return Ok(LatestEngine { loaded: Some((it, snaps)), rejected }),
                Err(e) => rejected.push(e.to_string()),
            }
        }
        Ok(LatestEngine { loaded: None, rejected })
    }

    /// Newest trainer checkpoint that validates, falling back past bad
    /// files just like the engine path.
    pub fn load_latest_trainer(
        &self,
        expected: Option<&ModelConfig>,
    ) -> Result<LatestTrainer, CkptError> {
        let mut iters: Vec<u64> =
            self.list_names()?.iter().filter_map(|n| parse_trainer_file_name(n)).collect();
        iters.sort_unstable();
        let mut rejected = Vec::new();
        for &it in iters.iter().rev() {
            let path = self.trainer_path(it);
            let file = label(&path);
            let loaded = std::fs::read(&path)
                .map_err(|e| CkptError::io(file.clone(), e))
                .and_then(|bytes| format::decode_trainer(&file, &bytes, expected));
            match loaded {
                Ok(ckpt) => return Ok(LatestTrainer { loaded: Some(ckpt), rejected }),
                Err(e) => rejected.push(e.to_string()),
            }
        }
        Ok(LatestTrainer { loaded: None, rejected })
    }

    /// Retention: keeps the newest `keep` *complete* engine sets, deletes
    /// every engine file older than the oldest kept iteration, and sweeps
    /// stray `*.tmp` files. Files newer than the oldest kept set (e.g. an
    /// in-flight incomplete set) are never touched. Returns files removed.
    pub(crate) fn prune_engine(&self, keep: usize, world_size: usize) -> Result<usize, CkptError> {
        let complete = self.complete_engine_iterations(world_size)?;
        if complete.len() <= keep || keep == 0 {
            return Ok(0);
        }
        let oldest_kept = complete[complete.len() - keep];
        let mut removed = 0;
        for name in self.list_names()? {
            let path = self.dir.join(&name);
            let stale_tmp = name.ends_with(".tmp");
            let old_engine = parse_engine_file_name(&name).is_some_and(|(it, _)| it < oldest_kept);
            if stale_tmp || old_engine {
                std::fs::remove_file(&path).map_err(|e| CkptError::io(label(&path), e))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_tensor::AdamConfig;

    fn cfg() -> EngineConfig {
        EngineConfig {
            d_model: 4,
            d_ff: 8,
            expert_classes: 2,
            slots_per_rank: 2,
            slot_capacity: 64,
            adam: AdamConfig::default(),
            seed: 7,
            layer_id: 0,
        }
    }

    fn snap(c: &EngineConfig, iteration: u64, world: usize, rank: usize) -> EngineSnapshot {
        use symi_collectives::coll::chunk_range;
        let params = symi_model::expert::param_count(c.d_model, c.d_ff);
        let (start, end) = chunk_range(params, world, rank);
        let len = end - start;
        let shard = |salt: f32| symi::ShardState {
            offset: start,
            master: (0..len).map(|i| i as f32 + salt).collect(),
            m: vec![salt; len],
            v: vec![salt * 0.5; len],
            t: iteration,
        };
        let total = c.slots_per_rank * world;
        EngineSnapshot {
            iteration,
            world_size: world,
            logical_rank: rank,
            replica_counts: vec![total / 2, total - total / 2],
            popularity: None,
            shards: vec![shard(0.0), shard(1.0)],
        }
    }

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("symi_ckpt_store_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir).unwrap()
    }

    fn write_set(store: &CheckpointStore, c: &EngineConfig, it: u64, world: usize) {
        for rank in 0..world {
            store.write_engine(c, &snap(c, it, world, rank)).unwrap();
        }
    }

    #[test]
    fn latest_complete_set_wins_and_incomplete_sets_are_ignored() {
        let store = temp_store("latest");
        let c = cfg();
        write_set(&store, &c, 2, 2);
        write_set(&store, &c, 4, 2);
        // Iteration 6 is incomplete: only rank 0 made it to disk.
        store.write_engine(&c, &snap(&c, 6, 2, 0)).unwrap();

        assert_eq!(store.complete_engine_iterations(2).unwrap(), vec![2, 4]);
        let latest = store.load_latest_engine(2, Some(&c)).unwrap();
        let (it, snaps) = latest.loaded.unwrap();
        assert_eq!(it, 4);
        assert_eq!(snaps.len(), 2);
        assert!(latest.rejected.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_newest_set_falls_back_with_loud_diagnostics() {
        let store = temp_store("fallback");
        let c = cfg();
        write_set(&store, &c, 2, 2);
        write_set(&store, &c, 4, 2);
        // Flip one payload byte in the newest set's rank-1 file.
        let victim = store.engine_path(4, 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        let at = bytes.len() - 20;
        bytes[at] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        let latest = store.load_latest_engine(2, Some(&c)).unwrap();
        let (it, _) = latest.loaded.unwrap();
        assert_eq!(it, 2, "falls back past the corrupt set");
        assert_eq!(latest.rejected.len(), 1);
        assert!(
            latest.rejected[0].contains("rank001") && latest.rejected[0].contains("CRC"),
            "diagnostic names the file and the failure: {}",
            latest.rejected[0]
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn prune_keeps_newest_complete_sets_and_sweeps_tmp() {
        let store = temp_store("prune");
        let c = cfg();
        for it in [2, 4, 6] {
            write_set(&store, &c, it, 2);
        }
        std::fs::write(store.dir().join("ckpt-it0000000008-rank000.tmp"), b"junk").unwrap();
        let removed = store.prune_engine(2, 2).unwrap();
        assert_eq!(removed, 3, "one stale set (2 files) + one tmp");
        assert_eq!(store.complete_engine_iterations(2).unwrap(), vec![4, 6]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn world_size_changes_keep_checkpoint_sets_separate_and_restorable() {
        // One directory, one elastic run: world 4 history, a post-shrink
        // world-3 set, a post-join world-5 set.
        let store = temp_store("elastic_worlds");
        let c = cfg();
        write_set(&store, &c, 5, 4);
        write_set(&store, &c, 9, 3);
        write_set(&store, &c, 12, 5);

        // Each world sees exactly its own complete sets — other-world sets
        // are neither mixed in nor reported torn.
        assert_eq!(store.complete_engine_iterations(4).unwrap(), vec![5]);
        assert_eq!(store.complete_engine_iterations(3).unwrap(), vec![9]);
        assert_eq!(store.complete_engine_iterations(5).unwrap(), vec![12]);

        // Restore after scale-out picks the consistent grown set, with no
        // rejection noise from the smaller-world history.
        let latest = store.load_latest_engine(5, Some(&c)).unwrap();
        let (it, snaps) = latest.loaded.unwrap();
        assert_eq!(it, 12);
        assert_eq!(snaps.len(), 5);
        assert!(snaps.iter().enumerate().all(|(r, s)| s.world_size == 5 && s.logical_rank == r));
        assert!(latest.rejected.is_empty());

        // The pre-change sets stay restorable at their own world.
        let old = store.load_latest_engine(4, Some(&c)).unwrap();
        assert_eq!(old.loaded.unwrap().0, 5);
        assert!(old.rejected.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn prune_under_one_world_never_touches_newer_other_world_sets() {
        let store = temp_store("elastic_prune");
        let c = cfg();
        write_set(&store, &c, 2, 4);
        write_set(&store, &c, 5, 4);
        write_set(&store, &c, 9, 3); // post-shrink, newer
        write_set(&store, &c, 12, 5); // post-join, newest

        // Pruning with the *old* world keeps its newest set (iteration 5)
        // and only deletes strictly older files — the newer post-change
        // sets survive untouched.
        let removed = store.prune_engine(1, 4).unwrap();
        assert_eq!(removed, 4, "exactly the world-4 set at iteration 2");
        assert_eq!(store.complete_engine_iterations(4).unwrap(), vec![5]);
        assert_eq!(store.complete_engine_iterations(3).unwrap(), vec![9]);
        assert_eq!(store.complete_engine_iterations(5).unwrap(), vec![12]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn same_iteration_rewrite_after_join_is_complete_only_for_the_grown_world() {
        // A driver checkpointing at the join boundary rewrites the boundary
        // iteration under the grown world's stamps (ranks 0..3 overwritten,
        // rank 4 added): the result must be complete for world 5 only — the
        // world-4 query neither mixes the superset in nor reports it torn.
        let store = temp_store("elastic_boundary");
        let c = cfg();
        write_set(&store, &c, 7, 4); // pre-join boundary checkpoint
        write_set(&store, &c, 7, 5); // post-join rewrite, same iteration
        assert_eq!(store.complete_engine_iterations(5).unwrap(), vec![7]);
        assert_eq!(store.complete_engine_iterations(4).unwrap(), Vec::<u64>::new());
        let latest = store.load_latest_engine(5, Some(&c)).unwrap();
        assert_eq!(latest.loaded.unwrap().0, 7);
        assert!(latest.rejected.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn file_name_round_trip() {
        assert_eq!(parse_engine_file_name(&engine_file_name(1234, 56)), Some((1234, 56)));
        assert_eq!(parse_trainer_file_name(&trainer_file_name(9)), Some(9));
        assert_eq!(parse_engine_file_name("trainer-it0000000009.bin"), None);
        assert_eq!(parse_engine_file_name("ckpt-it12-rank1.tmp"), None);
    }
}
