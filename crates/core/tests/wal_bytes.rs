//! No-panic properties for write-ahead-log bytes. Arbitrary bytes, and
//! byte flips and cuts of a valid multi-record log, go through
//! `Wal::replay`, `Wal::open` and `LiveGraphStore::open` on a store
//! directory. Each must return `Err` or a clean prefix: the replayed
//! operations equal a prefix of the operations written, and a reopened
//! store holds exactly the state those operations build.

use hexastore::wal::{self, Wal, WalOp};
use hexastore::LiveGraphStore;
use proptest::prelude::*;
use rdf_model::{Term, Triple};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hexwal-bytes-{}-{tag}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn triple(s: u32, o: u32) -> Triple {
    let object = match o % 3 {
        0 => Term::iri(format!("http://w/o{o}")),
        1 => Term::literal(format!("plain {o} with \"quotes\"\nand newlines")),
        _ => Term::lang_literal(format!("étiquette {o}"), "fr"),
    };
    Triple::new(Term::iri(format!("http://w/s{s}")), Term::iri("http://w/p"), object)
}

/// The state a prefix of `ops` builds from an empty store.
fn state_after(ops: &[WalOp]) -> HashSet<Triple> {
    let mut state = HashSet::new();
    for op in ops {
        match op {
            WalOp::Insert(t) => state.insert(t.clone()),
            WalOp::Remove(t) => state.remove(t),
        };
    }
    state
}

/// Writes `picks` through a live store in a fresh directory and returns
/// the directory, its WAL file and the operations the WAL logged (the
/// store logs only the writes that change its state).
fn logged_store(tag: &str, picks: &[(bool, u32, u32)]) -> (PathBuf, PathBuf, Vec<WalOp>) {
    let dir = scratch_dir(tag);
    let mut live = LiveGraphStore::open(&dir).unwrap();
    let mut logged = Vec::new();
    for &(remove, s, o) in picks {
        let t = triple(s, o);
        if remove {
            if live.remove(&t).unwrap() {
                logged.push(WalOp::Remove(t));
            }
        } else if live.insert(&t).unwrap() {
            logged.push(WalOp::Insert(t));
        }
    }
    live.sync().unwrap();
    drop(live);
    let files: Vec<PathBuf> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "an uncompacted store holds only its WAL: {files:?}");
    let wal_path = files.into_iter().next().unwrap();
    assert_eq!(Wal::replay(&wal_path).unwrap().0, logged, "the intact log replays in full");
    (dir, wal_path, logged)
}

/// Puts `bytes` in place as the WAL of `dir` and checks all three
/// readers. `written` is the log the bytes were damaged from, if any.
/// The file at `wal_path` is consumed: `Wal::open` and the live store
/// may truncate it.
fn check_wal_bytes(dir: &Path, wal_path: &Path, bytes: &[u8], written: Option<&[WalOp]>) {
    std::fs::write(wal_path, bytes).unwrap();
    let replayed = Wal::replay(wal_path);
    if let (Ok((ops, _)), Some(written)) = (&replayed, written) {
        assert!(ops.len() <= written.len(), "{} ops replayed from {}", ops.len(), written.len());
        assert_eq!(ops, &written[..ops.len()], "replay is not a prefix of the log");
    }

    // Wal::open on a copy, so the live store below sees the same bytes.
    let copy = dir.with_extension("copy.hexwal");
    std::fs::write(&copy, bytes).unwrap();
    if let Ok((wal, ops)) = Wal::open(&copy) {
        let replayed = replayed.as_ref().expect("Wal::open accepted a log Wal::replay refused");
        assert_eq!(ops, replayed.0, "Wal::open and Wal::replay disagree");
        // Opening cut the file back to its clean prefix: a second replay
        // reads the same ops and no torn tail.
        let clean = wal.len_bytes();
        drop(wal);
        let (again, again_clean) = Wal::replay(&copy).unwrap();
        assert_eq!(again, ops);
        assert_eq!(again_clean, clean);
        assert_eq!(std::fs::metadata(&copy).unwrap().len(), clean);
    }
    std::fs::remove_file(&copy).ok();

    if let Ok(live) = LiveGraphStore::open(dir) {
        let (ops, _) = replayed.expect("LiveGraphStore::open accepted a log Wal::replay refused");
        let expected = state_after(&ops);
        assert_eq!(live.len(), expected.len(), "reopened store size");
        for t in &expected {
            assert!(live.contains(t), "reopened store lost {t}");
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

fn arb_picks() -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    proptest::collection::vec(
        (0u32..3, 0u32..4, 0u32..6).prop_map(|(r, s, o)| (r == 0, s, o)),
        2..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes, bare or behind a valid header, never panic any
    /// reader.
    #[test]
    fn arbitrary_wal_bytes_never_panic(
        tail in proptest::collection::vec(0u8..=255, 0..96),
        with_header in 0u32..2,
    ) {
        let dir = scratch_dir("arbitrary");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        if with_header == 1 {
            bytes.extend_from_slice(&wal::MAGIC);
            bytes.extend_from_slice(&wal::VERSION.to_le_bytes());
        }
        bytes.extend_from_slice(&tail);
        check_wal_bytes(&dir, &dir.join("wal.hexwal"), &bytes, None);
    }

    /// Flipped bytes in a valid log replay a prefix of what was written,
    /// or are refused.
    #[test]
    fn flipped_wal_bytes_replay_a_clean_prefix(
        picks in arb_picks(),
        flips in proptest::collection::vec((0usize..4096, 1u8..=255), 1..4),
    ) {
        let (dir, wal_path, written) = logged_store("flip", &picks);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        for (at, mask) in flips {
            let len = bytes.len();
            bytes[at % len] ^= mask;
        }
        check_wal_bytes(&dir, &wal_path, &bytes, Some(&written));
    }

    /// A valid log cut at any length, optionally with one flipped byte
    /// before the cut, replays a prefix of what was written.
    #[test]
    fn cut_wal_bytes_replay_a_clean_prefix(
        picks in arb_picks(),
        cut in 0usize..4096,
        flip in proptest::option::of((0usize..4096, 1u8..=255)),
    ) {
        let (dir, wal_path, written) = logged_store("cut", &picks);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.truncate(cut % (bytes.len() + 1));
        if let (Some((at, mask)), false) = (flip, bytes.is_empty()) {
            let len = bytes.len();
            bytes[at % len] ^= mask;
        }
        check_wal_bytes(&dir, &wal_path, &bytes, Some(&written));
    }
}
