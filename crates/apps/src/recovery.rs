//! Shared recovery plumbing: record checksums and the per-recovery report.
//!
//! Clean crash simulation only loses *whole* updates — a line either
//! reverts to its durable image or survives intact. Under fault injection
//! ([`nvm_runtime::FaultConfig`]) a record can additionally be **torn**
//! (prefix of the new bytes, suffix of the old) or **poisoned** (reads
//! return [`nvm_runtime::PmemError::MediaError`]). Every application
//! therefore seals its persistent records with a salted checksum and its
//! `recover()` scans the rebooted pool, drops records that fail
//! validation, and reports what it dropped so the crash-sweep oracle can
//! attribute missing data to injected faults instead of application bugs.

use nvm_runtime::{PAddr, CACHE_LINE};
use std::fmt;

/// Per-application checksum salts — a record replayed against the wrong
/// salt (e.g. a WAL entry misread as an AOF entry) never validates.
pub const PMKV_SALT: u64 = 0x9E6B_5521_4B1C_0001;
pub const REDIS_AOF_SALT: u64 = 0x9E6B_5521_4B1C_0002;
pub const NSTORE_WAL_SALT: u64 = 0x9E6B_5521_4B1C_0003;

/// Salted 64-bit checksum over a record's words (splitmix64 mixing).
/// Strong enough that a torn 8-byte span flips the sum with overwhelming
/// probability; cheap enough to compute on every update.
pub fn checksum(salt: u64, parts: &[u64]) -> u64 {
    let mut h = salt ^ (parts.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &p in parts {
        let mut z = h ^ p;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Whether the `len` bytes at `at` touch one of the `failed` lines
/// (ascending, as [`nvm_runtime::PmemPool::read_lines`] returns them):
/// the record's media stayed unreadable, so recovery drops and scrubs it.
pub(crate) fn on_failed_line(failed: &[u64], at: PAddr, len: u64) -> bool {
    let first = at.0 / CACHE_LINE;
    let last = (at.0 + len - 1) / CACHE_LINE;
    failed.get(failed.partition_point(|&line| line < first)).is_some_and(|&line| line <= last)
}

/// What one `recover()` pass saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Non-empty record slots examined.
    pub scanned: u64,
    /// Records that validated and were adopted / replayed.
    pub adopted: u64,
    /// Records dropped for checksum mismatch (torn write).
    pub torn_dropped: u64,
    /// Records dropped because the media errored even after retries.
    pub poisoned_dropped: u64,
}

impl RecoveryReport {
    /// Total records lost to injected faults.
    pub fn dropped(&self) -> u64 {
        self.torn_dropped + self.poisoned_dropped
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned {} records: {} adopted, {} torn, {} poisoned",
            self.scanned, self.adopted, self.torn_dropped, self.poisoned_dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_salt_sensitive() {
        let a = checksum(PMKV_SALT, &[1, 2, 3]);
        assert_eq!(a, checksum(PMKV_SALT, &[1, 2, 3]));
        assert_ne!(a, checksum(REDIS_AOF_SALT, &[1, 2, 3]));
        assert_ne!(a, checksum(PMKV_SALT, &[1, 2, 4]));
        assert_ne!(a, checksum(PMKV_SALT, &[1, 2]));
    }

    #[test]
    fn single_byte_tears_flip_the_sum() {
        // A torn store resurfaces old bytes inside one word: any one-byte
        // difference must change the checksum.
        let base = checksum(NSTORE_WAL_SALT, &[0xDEAD_BEEF, 7]);
        for byte in 0..8 {
            let torn = 0xDEAD_BEEFu64 ^ (0xFF << (byte * 8));
            assert_ne!(base, checksum(NSTORE_WAL_SALT, &[torn, 7]));
        }
    }
}
