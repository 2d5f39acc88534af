//! Durable, checksummed file commits — the one write path every persisted
//! artifact shares.
//!
//! Layout: payload, then a trailer of the payload's IEEE CRC-32
//! (little-endian) and the `SAGECRC1` magic. Commit protocol: write
//! `<path>.tmp`, fsync it, rename over the target, fsync the parent
//! directory (best-effort — not every platform lets a directory be
//! opened). A crash at any point leaves either the previous file or the
//! complete new one, never a torn hybrid.
//!
//! [`commit_framed`] threads a *barrier hook* through the protocol —
//! called with each [`CrashPoint`] as the commit crosses it — which is how
//! the live-corpus store injects deterministic crashes
//! ([`sage_resilience::CrashPlan`]) for its recovery drills. Production
//! callers use [`commit_bytes`], whose hook is a no-op.

use sage_resilience::CrashPoint;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Trailing magic that marks a file carrying the CRC-32 trailer. Distinct
/// from any header magic so a truncated header is never confused with a
/// missing trailer.
pub const TRAILER_MAGIC: &[u8; 8] = b"SAGECRC1";

/// Trailer layout: 4-byte little-endian CRC-32 of the payload, then
/// [`TRAILER_MAGIC`].
pub const TRAILER_LEN: usize = 4 + TRAILER_MAGIC.len();

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) — the checksum in the
/// saved-file trailer. Table-driven; the table is built at compile time.
/// Test vector: `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = TABLE[((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Append the CRC-32 trailer to `payload`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len() + TRAILER_LEN);
    framed.extend_from_slice(payload);
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(TRAILER_MAGIC);
    framed
}

/// Verify and strip the trailer of `raw`, returning the payload.
///
/// Both failures are [`std::io::ErrorKind::InvalidData`] errors naming
/// `what`: a missing `SAGECRC1` suffix (a file cut short loses its trailer
/// first) and a CRC that does not match the payload ("torn write or bit
/// rot").
pub fn unframe(mut raw: Vec<u8>, what: &str) -> std::io::Result<Vec<u8>> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    if raw.len() < TRAILER_LEN || raw[raw.len() - TRAILER_MAGIC.len()..] != TRAILER_MAGIC[..] {
        return Err(invalid(format!(
            "missing SAGECRC1 trailer in {what}: truncated or not a SAGE file"
        )));
    }
    let body_end = raw.len() - TRAILER_LEN;
    let stored = u32::from_le_bytes([
        raw[body_end],
        raw[body_end + 1],
        raw[body_end + 2],
        raw[body_end + 3],
    ]);
    let actual = crc32(&raw[..body_end]);
    if stored != actual {
        return Err(invalid(format!(
            "checksum mismatch in {what} (stored {stored:#010x}, \
             computed {actual:#010x}): torn write or bit rot"
        )));
    }
    raw.truncate(body_end);
    Ok(raw)
}

/// The scratch path a commit writes before renaming: `<path>.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Fsync the directory entry so a rename inside it is durable. Failures
/// are ignored: not every platform lets a directory be opened.
pub fn fsync_dir(dir: &Path) {
    if !dir.as_os_str().is_empty() {
        if let Ok(handle) = std::fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
}

/// Atomically commit `framed` to `path`, calling `barrier` at each
/// [`CrashPoint`] the protocol crosses (pre-tmp, post-tmp, pre-rename,
/// post-rename — the pre-manifest barrier belongs to the caller's own
/// commit sequence).
///
/// A barrier that returns an error aborts the commit **leaving the disk
/// exactly as a real crash at that point would** — in particular, a stray
/// `.tmp` file survives a post-tmp/pre-rename abort for recovery to
/// discard. Genuine I/O failures clean up the scratch file as before.
pub fn commit_framed(
    path: &Path,
    framed: &[u8],
    barrier: &mut dyn FnMut(CrashPoint) -> std::io::Result<()>,
) -> std::io::Result<()> {
    barrier(CrashPoint::PreTmp)?;
    let tmp = tmp_path(path);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(framed)?;
        file.sync_all()?;
    }
    barrier(CrashPoint::PostTmp)?;
    barrier(CrashPoint::PreRename)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Some(dir) = path.parent() {
        fsync_dir(dir);
    }
    barrier(CrashPoint::PostRename)?;
    Ok(())
}

/// [`commit_framed`] with no crash barriers: the production write path.
pub fn commit_bytes(path: &Path, framed: &[u8]) -> std::io::Result<()> {
    commit_framed(path, framed, &mut |_| Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_ieee_test_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_unframe_roundtrip() {
        let payload = b"hello sage".to_vec();
        let framed = frame(&payload);
        assert_eq!(framed.len(), payload.len() + TRAILER_LEN);
        assert_eq!(unframe(framed, "test file").unwrap(), payload);
    }

    #[test]
    fn corrupted_frame_is_a_checksum_error() {
        let mut framed = frame(b"hello sage");
        framed[3] ^= 0x20;
        let err = unframe(framed, "test file").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch in test file"), "{err}");
    }

    #[test]
    fn missing_trailer_is_an_error() {
        // Never framed, cut inside the trailer, and shorter than a trailer.
        let mut cut = frame(b"hello sage");
        cut.truncate(cut.len() - 1);
        for raw in [b"no trailer here".to_vec(), cut, b"short".to_vec()] {
            let err = unframe(raw, "test file").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                "missing SAGECRC1 trailer in test file: truncated or not a SAGE file"
            );
        }
    }

    #[test]
    fn commit_writes_atomically_and_removes_tmp() {
        let path = std::env::temp_dir().join("sage_fsx_commit_test.bin");
        let framed = frame(b"payload");
        commit_bytes(&path, &framed).expect("commit");
        assert_eq!(std::fs::read(&path).unwrap(), framed);
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn aborted_barrier_leaves_crash_consistent_disk() {
        let dir = std::env::temp_dir().join("sage_fsx_barrier_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.bin");
        let framed = frame(b"next version");

        // Crash before the tmp write: nothing on disk.
        let mut at_pre = |p: CrashPoint| {
            if p == CrashPoint::PreTmp {
                Err(std::io::Error::other("crash"))
            } else {
                Ok(())
            }
        };
        assert!(commit_framed(&path, &framed, &mut at_pre).is_err());
        assert!(!path.exists() && !tmp_path(&path).exists());

        // Crash after the tmp write: the stray tmp survives, target absent.
        let mut at_post_tmp = |p: CrashPoint| {
            if p == CrashPoint::PostTmp {
                Err(std::io::Error::other("crash"))
            } else {
                Ok(())
            }
        };
        assert!(commit_framed(&path, &framed, &mut at_post_tmp).is_err());
        assert!(!path.exists());
        assert!(tmp_path(&path).exists(), "torn tmp must remain, as a real crash leaves it");
        std::fs::remove_file(tmp_path(&path)).ok();

        // Crash after the rename: the commit is already durable.
        let mut at_post_rename = |p: CrashPoint| {
            if p == CrashPoint::PostRename {
                Err(std::io::Error::other("crash"))
            } else {
                Ok(())
            }
        };
        assert!(commit_framed(&path, &framed, &mut at_post_rename).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), framed);
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
