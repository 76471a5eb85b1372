//! The on-disk checkpoint store: one directory per run, one file per
//! snapshot, listed newest first.
//!
//! Every layer that periodically checkpoints (core's `run_with_checkpoints`,
//! the campaign server's supervised trials) uses the same naming scheme —
//! `ckpt_<time_ns:020>.bin` — so their stores are interchangeable: a trial
//! checkpointed by a batch sweep resumes under the server and vice versa.
//! This module owns that scheme and the newest-first listing. The
//! fallback policy on top of it (skip a file that does not read, parse or
//! apply, and try the next older one) lives in one place too:
//! `cavenet_core`'s `Experiment::resume_newest`, because only a restore
//! into a real engine proves that a snapshot applies.
//!
//! A snapshot is written to `ckpt_<time_ns:020>.bin.tmp` and renamed into
//! place, so a writer that dies mid-write leaves a `.tmp` file that no
//! scan matches, never a torn `ckpt_*.bin`. Stores that only need a
//! restart point bound themselves with [`retain_newest`].

use std::fs;
use std::path::{Path, PathBuf};

use crate::format::Snapshot;

/// File name of the checkpoint captured at virtual time `time_ns`
/// (zero-padded so lexicographic order equals capture order).
pub fn file_name(time_ns: u64) -> String {
    format!("ckpt_{time_ns:020}.bin")
}

/// Full path of the checkpoint captured at `time_ns` inside `dir`.
pub fn file_path(dir: &Path, time_ns: u64) -> PathBuf {
    dir.join(file_name(time_ns))
}

/// The capture time encoded in a checkpoint file name, if it is one.
pub fn capture_time(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("ckpt_")?
        .strip_suffix(".bin")?
        .parse::<u64>()
        .ok()
}

/// Checkpoint files in `dir`, newest (largest capture time) first. A
/// missing directory is an empty store, not an error; files that do not
/// match the naming scheme are ignored.
///
/// # Errors
///
/// Any I/O error other than the directory being absent.
pub fn list_newest_first(dir: &Path) -> Result<Vec<PathBuf>, std::io::Error> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if let Some(t) = capture_time(&path) {
            found.push((t, path));
        }
    }
    found.sort_unstable_by_key(|&(t, _)| std::cmp::Reverse(t));
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

/// Serialize `snap` into `dir` (created if needed) under the standard
/// name for capture time `time_ns`, returning the path written. The bytes
/// go to a `.tmp` sibling first and are renamed into place, so the
/// standard name only ever holds a complete snapshot.
///
/// # Errors
///
/// Any failure creating the directory, writing the file or renaming it.
pub fn write_snapshot(
    dir: &Path,
    time_ns: u64,
    snap: &Snapshot,
) -> Result<PathBuf, std::io::Error> {
    fs::create_dir_all(dir)?;
    let path = file_path(dir, time_ns);
    let tmp = path.with_extension("bin.tmp");
    fs::write(&tmp, snap.to_bytes())?;
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Delete all but the `keep` newest checkpoint files in `dir`. Files that
/// do not match the naming scheme (a stale `.tmp` included) are left
/// alone.
///
/// # Errors
///
/// Any I/O error listing the directory or removing a file.
pub fn retain_newest(dir: &Path, keep: usize) -> Result<(), std::io::Error> {
    for path in list_newest_first(dir)?.iter().skip(keep) {
        fs::remove_file(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::section;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cavenet_store_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_snapshot(marker: u8) -> Snapshot {
        let mut s = Snapshot::new();
        s.insert(section::ENGINE, vec![marker; 4]).unwrap();
        s
    }

    #[test]
    fn names_round_trip_and_sort() {
        let p = file_path(Path::new("/x"), 42);
        assert_eq!(capture_time(&p), Some(42));
        assert!(file_name(9) < file_name(10), "zero-padding keeps order");
        assert_eq!(capture_time(Path::new("other.bin")), None);
    }

    #[test]
    fn missing_dir_is_an_empty_store() {
        let dir = scratch("missing");
        assert!(list_newest_first(&dir).unwrap().is_empty());
    }

    #[test]
    fn writes_leave_no_tmp_and_stale_tmp_is_never_listed() {
        let dir = scratch("tmp");
        write_snapshot(&dir, 100, &tiny_snapshot(1)).unwrap();
        let names = |dir: &Path| {
            let mut names: Vec<String> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(names(&dir), vec![file_name(100)], "the .tmp was renamed");

        // A writer that died mid-write at a later time left a torn `.tmp`.
        let stale = dir.join(format!("{}.tmp", file_name(200)));
        fs::write(&stale, [0xde, 0xad]).unwrap();
        let listed = list_newest_first(&dir).unwrap();
        assert_eq!(listed, vec![file_path(&dir, 100)]);
        retain_newest(&dir, 0).unwrap();
        assert!(stale.exists(), "retention only touches checkpoint files");
        assert!(list_newest_first(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retain_newest_keeps_the_newest_files() {
        let dir = scratch("retain");
        for t in [5u64, 500, 50, 5_000] {
            write_snapshot(&dir, t, &tiny_snapshot(t as u8)).unwrap();
        }
        retain_newest(&dir, 2).unwrap();
        let times: Vec<u64> = list_newest_first(&dir)
            .unwrap()
            .iter()
            .filter_map(|p| capture_time(p))
            .collect();
        assert_eq!(times, vec![5_000, 500]);
        retain_newest(&dir, 2).unwrap();
        assert_eq!(list_newest_first(&dir).unwrap().len(), 2, "idempotent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_first_ordering() {
        let dir = scratch("order");
        for t in [5u64, 500, 50] {
            write_snapshot(&dir, t, &tiny_snapshot(t as u8)).unwrap();
        }
        let times: Vec<u64> = list_newest_first(&dir)
            .unwrap()
            .iter()
            .filter_map(|p| capture_time(p))
            .collect();
        assert_eq!(times, vec![500, 50, 5]);
        let _ = fs::remove_dir_all(&dir);
    }
}
