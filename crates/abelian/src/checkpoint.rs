//! Coordinated in-memory checkpointing for crash-stop recovery.
//!
//! Every `k` rounds each host snapshots its vertex state (label bits,
//! consumed-output bits, changed flags) and the round counter into a shared
//! [`CheckpointStore`]. The saves are *coordinated by construction*: a host
//! saves when the last receive of a round has returned — every peer's
//! traffic of that round is folded in, and none of the next can be (the
//! layers hold it until this host opens that round) — so every host that
//! saves round `r` saved exactly the state a crash-free run would have at
//! that boundary, without a barrier. When a host
//! crashes, survivors and the respawned host all roll back to the **last
//! common checkpoint** ([`CheckpointStore::latest_common`]) and re-execute;
//! because the engines' reductions are confluent, the re-executed run
//! reaches the same fixpoint bit for bit.
//!
//! Snapshots are sealed into a self-describing byte format protected by a
//! CRC-32 ([`seal`] / [`open`]):
//!
//! ```text
//! [magic u32 LE][round u64 LE][nsec u32 LE]
//!   ([len u32 LE][bytes...]) * nsec
//! [crc32 u32 LE]   // over everything before it
//! ```
//!
//! The store is in-memory (this repo simulates a cluster in one process);
//! the format exists so a snapshot crossing a real medium — disk, a peer's
//! memory — would detect corruption instead of silently restoring garbage.
//! Activity is counted under `engine.ckpt.*` in `lci-trace`.

use lci_fabric::frame::Crc32;
use lci_trace::Counter;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Magic prefix of a sealed snapshot (`"ABCK"` little-endian).
pub const MAGIC: u32 = 0x4B43_4241;

/// CRC-32 of `data` (IEEE polynomial — the fabric's frame checksum, reused).
fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// One host's engine state at a round boundary, as opaque sections.
///
/// The engines use three sections — label bits, consumed-output bits
/// (empty when the app has no consumed output), changed flags — but the
/// format carries any section list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Rounds completed when the snapshot was taken (the round counter the
    /// restored host resumes from).
    pub round: u64,
    /// Opaque state sections, order significant to the producer.
    pub sections: Vec<Vec<u8>>,
}

/// Why [`open`] rejected a sealed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Shorter than the fixed header + trailer.
    Truncated,
    /// Magic prefix mismatch: not a sealed snapshot.
    BadMagic,
    /// CRC-32 mismatch: the bytes were corrupted after sealing.
    BadCrc,
    /// Section lengths disagree with the byte count.
    Malformed,
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "sealed snapshot truncated"),
            CkptError::BadMagic => write!(f, "not a sealed snapshot (bad magic)"),
            CkptError::BadCrc => write!(f, "sealed snapshot failed CRC"),
            CkptError::Malformed => write!(f, "sealed snapshot sections malformed"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Seal a snapshot into the self-describing CRC-protected byte format.
pub fn seal(snap: &Snapshot) -> Vec<u8> {
    let body: usize = snap.sections.iter().map(|s| 4 + s.len()).sum();
    let mut out = Vec::with_capacity(16 + body + 4);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&snap.round.to_le_bytes());
    out.extend_from_slice(&(snap.sections.len() as u32).to_le_bytes());
    for s in &snap.sections {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Open a sealed snapshot, verifying magic and CRC. Total on arbitrary
/// bytes: every flipped bit in `bytes` is either caught by the CRC or (in
/// the CRC itself) fails the comparison.
pub fn open(bytes: &[u8]) -> Result<Snapshot, CkptError> {
    if bytes.len() < 16 + 4 {
        return Err(CkptError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    if u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) != MAGIC {
        return Err(CkptError::BadMagic);
    }
    if crc32(body) != stored {
        return Err(CkptError::BadCrc);
    }
    let round = u64::from_le_bytes(body[4..12].try_into().expect("8 bytes"));
    let nsec = u32::from_le_bytes(body[12..16].try_into().expect("4 bytes")) as usize;
    let mut sections = Vec::with_capacity(nsec);
    let mut off = 16;
    for _ in 0..nsec {
        if off + 4 > body.len() {
            return Err(CkptError::Malformed);
        }
        let len =
            u32::from_le_bytes(body[off..off + 4].try_into().expect("4 bytes")) as usize;
        off += 4;
        if off + len > body.len() {
            return Err(CkptError::Malformed);
        }
        sections.push(body[off..off + len].to_vec());
        off += len;
    }
    if off != body.len() {
        return Err(CkptError::Malformed);
    }
    Ok(Snapshot { round, sections })
}

/// Shared store of sealed snapshots, one map per host keyed by round.
///
/// All snapshots are kept (not just the latest): a crash can strike while
/// some hosts have already saved round `r` and others have not, in which
/// case recovery must fall back to the newest round present on *every*
/// host ([`CheckpointStore::latest_common`]).
pub struct CheckpointStore {
    hosts: Vec<Mutex<BTreeMap<u64, Vec<u8>>>>,
}

impl CheckpointStore {
    /// An empty store for `num_hosts` hosts.
    pub fn new(num_hosts: usize) -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore {
            hosts: (0..num_hosts).map(|_| Mutex::new(BTreeMap::new())).collect(),
        })
    }

    /// Number of hosts the store was built for.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Seal and save `snap` for `host`, keyed by its round.
    pub fn save(&self, host: u16, snap: &Snapshot) {
        let sealed = seal(snap);
        lci_trace::incr(Counter::EngineCkptSaves);
        lci_trace::add(Counter::EngineCkptBytes, sealed.len() as u64);
        self.hosts[host as usize].lock().insert(snap.round, sealed);
    }

    /// Open `host`'s snapshot at `round`, verifying the seal.
    pub fn load(&self, host: u16, round: u64) -> Result<Snapshot, CkptError> {
        let sealed = self.hosts[host as usize]
            .lock()
            .get(&round)
            .cloned()
            .ok_or(CkptError::Truncated)?;
        open(&sealed)
    }

    /// The newest round for which *every* host has a snapshot — the only
    /// rollback target that restores a globally consistent round boundary.
    /// `None` while any host has no snapshot at all (recovery then re-runs
    /// from the initial state).
    pub fn latest_common(&self) -> Option<u64> {
        let mut common: Option<u64> = None;
        for h in &self.hosts {
            let newest = *h.lock().keys().next_back()?;
            common = Some(match common {
                Some(c) => c.min(newest),
                None => newest,
            });
        }
        // Saves are coordinated (every host saves at the same multiples of
        // the interval), so the min of the newest rounds is present in all.
        common
    }

    /// Drop every snapshot (tests).
    pub fn clear(&self) {
        for h in &self.hosts {
            h.lock().clear();
        }
    }
}

/// How an engine run participates in checkpointing.
///
/// Passed to the `*_with_ckpt` run entry points. `every == 0` disables
/// periodic saves (useful when only restoring); `resume_from` names the
/// round every host must restore before executing — it is the caller's
/// job (see the recovery driver) to pick a round present on all hosts,
/// normally [`CheckpointStore::latest_common`].
#[derive(Clone)]
pub struct CkptPlan {
    /// Where snapshots are kept.
    pub store: Arc<CheckpointStore>,
    /// Save every `every` rounds (0 = never save).
    pub every: u64,
    /// Restore this round's snapshot before the first round, or start fresh.
    pub resume_from: Option<u64>,
}

impl CkptPlan {
    /// A plan that saves every `every` rounds into `store`, starting fresh.
    pub fn saving(store: Arc<CheckpointStore>, every: u64) -> CkptPlan {
        CkptPlan {
            store,
            every,
            resume_from: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let snap = Snapshot {
            round: 12,
            sections: vec![vec![1, 2, 3], Vec::new(), vec![0xFF; 100]],
        };
        let bytes = seal(&snap);
        assert_eq!(open(&bytes).expect("roundtrip"), snap);
    }

    #[test]
    fn every_flipped_bit_is_rejected() {
        let snap = Snapshot {
            round: 3,
            sections: vec![vec![7; 9]],
        };
        let sealed = seal(&snap);
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open(&bad).is_err(),
                    "flip of byte {byte} bit {bit} must not open"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let sealed = seal(&Snapshot {
            round: 1,
            sections: vec![vec![4; 32]],
        });
        for cut in 0..sealed.len() {
            assert!(open(&sealed[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn store_tracks_latest_common_round() {
        let store = CheckpointStore::new(3);
        assert_eq!(store.latest_common(), None);
        let snap_at = |r: u64| Snapshot {
            round: r,
            sections: vec![r.to_le_bytes().to_vec()],
        };
        for h in 0..3u16 {
            store.save(h, &snap_at(4));
        }
        assert_eq!(store.latest_common(), Some(4));
        // Host 2 crashed before saving round 8.
        store.save(0, &snap_at(8));
        store.save(1, &snap_at(8));
        assert_eq!(store.latest_common(), Some(4));
        store.save(2, &snap_at(8));
        assert_eq!(store.latest_common(), Some(8));
        assert_eq!(store.load(1, 8).expect("present").round, 8);
        assert!(store.load(1, 5).is_err(), "absent round");
        store.clear();
        assert_eq!(store.latest_common(), None);
    }
}
