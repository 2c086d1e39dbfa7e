//! Interval checkpoint rotation with bounded retention and
//! corruption-tolerant restore.
//!
//! Every rotation writes one *generation*: a consistent cut of every
//! hosted agent's [`Checkpoint`] taken at the same period boundary, one
//! file per stub, all atomically (temp + rename — see
//! [`Checkpoint::write_atomic`]). Generations are numbered by a
//! monotonic sequence embedded in the file name
//! (`ck-<seq>.s<stub>.json`), and only the newest `keep` generations are
//! retained.
//!
//! Restore walks generations newest-first and returns the first one
//! whose *every* stub file validates (magic, version, CRC). A crash that
//! corrupts or truncates the newest generation therefore costs at most
//! one rotation interval of progress, never the whole run.

use std::path::{Path, PathBuf};

use syndog_router::{Checkpoint, CheckpointError};

/// Rotating checkpoint writer/reader over one directory.
#[derive(Debug)]
pub struct CheckpointRotation {
    dir: PathBuf,
    keep: usize,
    next_seq: u64,
}

/// `ck-<seq>.s<stub>.json` → `(seq, stub)`.
fn parse_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("ck-")?.strip_suffix(".json")?;
    let (seq, stub) = rest.split_once(".s")?;
    Some((seq.parse().ok()?, stub.parse().ok()?))
}

impl CheckpointRotation {
    /// Opens (creating if needed) a rotation directory, continuing the
    /// sequence after any generations already present.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or read.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero — retaining nothing means never being
    /// able to restore.
    pub fn open(dir: &Path, keep: usize) -> std::io::Result<CheckpointRotation> {
        assert!(keep > 0, "retention must keep at least one generation");
        std::fs::create_dir_all(dir)?;
        let next_seq = Self::scan(dir)?.last().map_or(0, |&seq| seq + 1);
        Ok(CheckpointRotation {
            dir: dir.to_path_buf(),
            keep,
            next_seq,
        })
    }

    /// Distinct generation sequence numbers on disk, ascending.
    fn scan(dir: &Path) -> std::io::Result<Vec<u64>> {
        let mut seqs: Vec<u64> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| parse_name(&entry.file_name().to_string_lossy()).map(|(s, _)| s))
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        Ok(seqs)
    }

    /// The file path of generation `seq`, stub `stub`.
    pub fn slot_path(&self, seq: u64, stub: usize) -> PathBuf {
        self.dir.join(format!("ck-{seq:08}.s{stub}.json"))
    }

    /// Writes one generation — a consistent cut of every stub's
    /// checkpoint — then prunes to the retention bound. Returns the
    /// generation's sequence number.
    ///
    /// # Errors
    ///
    /// Returns the first I/O failure; an incomplete generation may
    /// remain on disk, but restore skips it (it is not fully valid).
    pub fn rotate(&mut self, checkpoints: &[Checkpoint]) -> std::io::Result<u64> {
        let seq = self.next_seq;
        for (stub, checkpoint) in checkpoints.iter().enumerate() {
            checkpoint.write_atomic(&self.slot_path(seq, stub))?;
        }
        self.next_seq = seq + 1;
        self.prune()?;
        Ok(seq)
    }

    /// Removes the oldest generations until at most `keep` remain.
    fn prune(&self) -> std::io::Result<()> {
        let seqs = Self::scan(&self.dir)?;
        for &seq in seqs.iter().take(seqs.len().saturating_sub(self.keep)) {
            for entry in std::fs::read_dir(&self.dir)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().to_string();
                if parse_name(&name).is_some_and(|(s, _)| s == seq) {
                    std::fs::remove_file(entry.path())?;
                }
            }
        }
        Ok(())
    }

    /// The newest generation sequence on disk, if any.
    pub fn latest_seq(&self) -> Option<u64> {
        Self::scan(&self.dir).ok()?.last().copied()
    }

    /// Restores the newest generation in which **all** `stubs` files
    /// validate, walking backwards past corrupt or incomplete
    /// generations. Returns `(seq, checkpoints)` in stub order, or
    /// `None` when no generation is fully valid.
    pub fn latest_valid(&self, stubs: usize) -> Option<(u64, Vec<Checkpoint>)> {
        let seqs = Self::scan(&self.dir).ok()?;
        for &seq in seqs.iter().rev() {
            let generation: Result<Vec<Checkpoint>, CheckpointError> = (0..stubs)
                .map(|stub| Checkpoint::read_file(&self.slot_path(seq, stub)))
                .collect();
            if let Ok(checkpoints) = generation {
                return Some((seq, checkpoints));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog::{PeriodSignals, SynDogConfig};
    use syndog_router::SynDogAgent;

    fn temp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("syndog-rotate-{}-{name}", std::process::id()))
    }

    fn checkpoint_at(periods: u64) -> Checkpoint {
        let mut agent = SynDogAgent::new(
            "10.1.0.0/16".parse().unwrap(),
            SynDogConfig::paper_default(),
        );
        for _ in 0..periods {
            agent.observe_period(PeriodSignals {
                syn: 100,
                synack: 98,
                fin: 90,
                rst: 4,
            });
        }
        agent.checkpoint()
    }

    #[test]
    fn rotation_retains_exactly_keep_generations() {
        let dir = temp_dir("retain");
        std::fs::remove_dir_all(&dir).ok();
        let mut rotation = CheckpointRotation::open(&dir, 3).unwrap();
        // Two stubs per generation, 7 rotations with keep = 3.
        for k in 1..=7u64 {
            let seq = rotation
                .rotate(&[checkpoint_at(k), checkpoint_at(k + 1)])
                .unwrap();
            assert_eq!(seq, k - 1);
        }
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .collect();
        assert_eq!(files.len(), 3 * 2, "{files:?}");
        let seqs = CheckpointRotation::scan(&dir).unwrap();
        assert_eq!(seqs, vec![4, 5, 6]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_valid_picks_the_newest_generation() {
        let dir = temp_dir("newest");
        std::fs::remove_dir_all(&dir).ok();
        let mut rotation = CheckpointRotation::open(&dir, 2).unwrap();
        rotation.rotate(&[checkpoint_at(3)]).unwrap();
        let newest = checkpoint_at(9);
        rotation.rotate(std::slice::from_ref(&newest)).unwrap();
        let (seq, restored) = rotation.latest_valid(1).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(restored, vec![newest]);
    }

    #[test]
    fn corrupt_newest_falls_back_to_the_previous_generation() {
        let dir = temp_dir("fallback");
        std::fs::remove_dir_all(&dir).ok();
        let mut rotation = CheckpointRotation::open(&dir, 3).unwrap();
        let good = checkpoint_at(5);
        rotation.rotate(std::slice::from_ref(&good)).unwrap();
        rotation.rotate(&[checkpoint_at(8)]).unwrap();
        // Truncate the newest file mid-envelope, as a crash would.
        let newest = rotation.slot_path(1, 0);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
        let (seq, restored) = rotation.latest_valid(1).unwrap();
        assert_eq!(seq, 0, "fell back past the truncated generation");
        assert_eq!(restored, vec![good]);
        // An incomplete multi-stub generation is skipped the same way.
        rotation.rotate(&[checkpoint_at(10)]).unwrap(); // seq 2, one stub
        assert_eq!(rotation.latest_valid(2).map(|(s, _)| s), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_continues_the_sequence() {
        let dir = temp_dir("reopen");
        std::fs::remove_dir_all(&dir).ok();
        let mut rotation = CheckpointRotation::open(&dir, 5).unwrap();
        rotation.rotate(&[checkpoint_at(2)]).unwrap();
        rotation.rotate(&[checkpoint_at(4)]).unwrap();
        drop(rotation);
        let mut rotation = CheckpointRotation::open(&dir, 5).unwrap();
        assert_eq!(rotation.latest_seq(), Some(1));
        assert_eq!(rotation.rotate(&[checkpoint_at(6)]).unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_restores_nothing() {
        let dir = temp_dir("empty");
        std::fs::remove_dir_all(&dir).ok();
        let rotation = CheckpointRotation::open(&dir, 1).unwrap();
        assert_eq!(rotation.latest_seq(), None);
        assert!(rotation.latest_valid(1).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
