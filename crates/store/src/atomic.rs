//! Crash-safe file replacement: temp file + fsync + atomic rename.
//!
//! Every durable artifact the store produces (`.tlpg` graphs, partition
//! segments, manifests, checkpoints) is written with [`atomic_write`]: the
//! payload is emitted to a sibling temp file, synced to stable storage, and
//! renamed over the final path in one step. A crash at any point leaves
//! either the previous file (or nothing) at the final path — never a torn
//! write. Stray temp files from crashed writers are ignored by readers and
//! overwritten by the next successful write.

use crate::faults::FaultFile;
use crate::StoreError;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Extension appended to the final name while a write is in flight.
const TMP_SUFFIX: &str = ".tmp";

/// Returns the sibling temp path writes to `path` stage through.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(TMP_SUFFIX);
    path.with_file_name(name)
}

/// Writes a file at `path` atomically.
///
/// `emit` receives a buffered, fault-injectable writer for the payload.
/// After it returns the data is flushed and fsynced, then the temp file is
/// renamed onto `path`. On any error the temp file is removed (best effort)
/// and `path` is left untouched.
///
/// # Errors
///
/// Returns [`StoreError::Io`] if creating, writing, syncing, or renaming
/// the temp file fails, and propagates errors from `emit`.
pub fn atomic_write<F>(path: &Path, emit: F) -> Result<(), StoreError>
where
    F: FnOnce(&mut BufWriter<FaultFile>) -> Result<(), StoreError>,
{
    let tmp = temp_path(path);
    let result = write_temp(&tmp, emit).and_then(|()| {
        std::fs::rename(&tmp, path).map_err(StoreError::Io)?;
        sync_parent_dir(path);
        Ok(())
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_temp<F>(tmp: &Path, emit: F) -> Result<(), StoreError>
where
    F: FnOnce(&mut BufWriter<FaultFile>) -> Result<(), StoreError>,
{
    let file = FaultFile::create(tmp).map_err(StoreError::Io)?;
    let mut out = BufWriter::new(file);
    emit(&mut out)?;
    out.flush().map_err(StoreError::Io)?;
    out.get_ref().sync_all().map_err(StoreError::Io)?;
    Ok(())
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable. Failures are ignored: the data file is already
/// synced, and directory sync is not supported on all platforms.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::faults::{self, FaultKind, FaultSchedule};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tlp-atomic-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn successful_write_lands_and_removes_temp() {
        let dir = temp_dir("ok");
        let path = dir.join("data");
        atomic_write(&path, |out| {
            out.write_all(b"payload").map_err(StoreError::Io)
        })
        .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        assert!(!temp_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_preserves_previous_file() {
        let dir = temp_dir("keep");
        let path = dir.join("data");
        std::fs::write(&path, b"old").unwrap();
        faults::arm(FaultSchedule {
            at_op: 1, // create = op 0; first write fails
            kind: FaultKind::Crash,
            seed: 0,
        });
        let err = atomic_write(&path, |out| {
            out.write_all(b"new-but-doomed").map_err(StoreError::Io)
        });
        faults::disarm();
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert!(!temp_path(&path).exists(), "temp file must be cleaned up");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_during_sync_leaves_target_absent() {
        let dir = temp_dir("nospc");
        let path = dir.join("data");
        faults::arm(FaultSchedule {
            at_op: 2, // create, write, then sync fails
            kind: FaultKind::Enospc,
            seed: 0,
        });
        let err = atomic_write(&path, |out| out.write_all(b"x").map_err(StoreError::Io));
        faults::disarm();
        assert!(err.is_err());
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
