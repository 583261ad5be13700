//! Durability acceptance: storage-fault recovery on the design store and
//! the warm-restart byte-identity lane.
//!
//! Two claims under test, both over real corpus content:
//!
//! * A store that suffers a torn write, silent checksum flip, or
//!   transient read error never serves wrong bytes — intact records
//!   survive recovery, damage is surfaced in the stats and the
//!   non-destructive `verify_dir` audit, and re-puts heal the loss.
//! * A `--store-dir` server restarted over the same directory answers the
//!   full golden corpus byte-identically to its first life — and to the
//!   in-process reference — without writing a single new record (every
//!   design comes off disk, not from a reparse). A directory written in
//!   the retired design-record format answers correctly too.

use std::time::Duration;

use localwm_cdfg::parse_cdfg;
use localwm_engine::{DesignContext, Parallelism};
use localwm_serve::{Client, Request, RequestKind, ServeConfig};
use localwm_store::binval::{fnv1a, value_to_bytes};
use localwm_store::segment::Segment;
use localwm_store::{DesignStore, RecordKind, StoreConfig};
use localwm_testkit::corpus;
use localwm_testkit::oracle::inproc_lines;
use serde::{Serialize, Value};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "localwm-store-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One counter out of a stats `store`/`protocol` block (counters
/// serialize as non-negative `Int`s).
fn counter(block: &Value, name: &str) -> i64 {
    match block.field(name) {
        Some(Value::Int(n)) => *n,
        Some(Value::UInt(n)) => i64::try_from(*n).expect("counter fits"),
        other => panic!("stats field {name} missing or non-integer: {other:?}"),
    }
}

/// Runs the full corpus stream through a fresh connection to `addr`,
/// returning the raw response lines.
fn run_corpus(addr: &str, requests: &[Request]) -> Vec<String> {
    let mut client = Client::connect_within(addr, Duration::from_secs(5)).expect("connect");
    let mut lines = Vec::with_capacity(requests.len());
    for req in requests {
        client.send(req).expect("send");
        lines.push(client.recv_line().expect("recv"));
    }
    lines
}

fn store_server(dir: &std::path::Path) -> localwm_serve::ServerHandle {
    localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 64,
        cache_cap: 8,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: Some(dir.to_str().expect("utf8 path").to_owned()),
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .expect("bind store-backed server")
}

/// The warm-restart lane: life 2 of a store-backed server answers the
/// corpus byte-identically to life 1 and to the in-process reference,
/// with zero store writes — every hit is served off disk unparsed.
#[test]
fn warm_restarted_server_answers_the_corpus_byte_identically() {
    let dir = tmp_dir("warm-restart");
    let requests = corpus::corpus_requests(&corpus::builtin_cases());
    let reference = inproc_lines(&requests, 8, Parallelism::Serial);

    let handle = store_server(&dir);
    let first_life = run_corpus(&handle.addr().to_string(), &requests);
    handle.shutdown();
    assert_eq!(first_life, reference, "life 1 matches the reference");

    let handle = store_server(&dir);
    let addr = handle.addr().to_string();
    let second_life = run_corpus(&addr, &requests);
    assert_eq!(
        second_life, first_life,
        "a restarted replica is byte-identical to its first life"
    );

    let mut client = Client::connect_within(&addr, Duration::from_secs(5)).expect("connect");
    let stats = client
        .call(&Request::new(RequestKind::Stats))
        .expect("stats");
    let store = stats.result_field("store").expect("store block");
    assert_eq!(
        counter(store, "puts"),
        0,
        "life 2 wrote nothing: every design came off disk"
    );
    assert!(
        counter(store, "hits") > 0,
        "life 2 served designs from the store, not from reparses"
    );
    assert_eq!(
        counter(store, "dropped_tail"),
        0,
        "clean shutdown, clean open"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A store directory written before design records moved to the compact
/// encoding still answers correctly. Its design records (tag 0, payload a
/// `binval`-encoded `Value` tree) are never decoded: life 1 parses each
/// design once and writes the new record through — its alias records
/// already exist — and life 2 serves every design from disk.
#[test]
fn old_format_store_dir_is_reparsed_once_then_served_from_disk() {
    const OLD_DESIGN_TAG: u8 = 0;
    let dir = tmp_dir("old-format");
    let cases = corpus::builtin_cases();
    let requests = corpus::corpus_requests(&cases);
    let reference = inproc_lines(&requests, 8, Parallelism::Serial);

    std::fs::create_dir_all(&dir).expect("store dir");
    let mut seg = Segment::create(&dir, 0).expect("segment");
    for case in &cases {
        let graph = parse_cdfg(&case.design).expect("corpus design parses");
        let hash = DesignContext::new(graph.clone()).content_hash();
        let design = value_to_bytes(&graph.to_value());
        seg.append_bytes(&Segment::encode_record(OLD_DESIGN_TAG, hash, &design))
            .expect("append design");
        let alias = Segment::encode_record(
            RecordKind::Alias.tag(),
            fnv1a(case.design.as_bytes()),
            &hash.to_le_bytes(),
        );
        seg.append_bytes(&alias).expect("append alias");
    }
    drop(seg);

    let stats = |addr: &str| {
        let mut client = Client::connect_within(addr, Duration::from_secs(5)).expect("connect");
        let stats = client
            .call(&Request::new(RequestKind::Stats))
            .expect("stats");
        stats.result_field("store").expect("store block").clone()
    };
    let designs = cases.len() as i64;

    let handle = store_server(&dir);
    let addr = handle.addr().to_string();
    assert_eq!(
        run_corpus(&addr, &requests),
        reference,
        "life 1 over the old dir matches a storeless server"
    );
    let store = stats(&addr);
    assert_eq!(
        counter(&store, "puts"),
        designs,
        "one new design record per design; the aliases were already there"
    );
    assert_eq!(counter(&store, "records"), 3 * designs);
    handle.shutdown();

    let handle = store_server(&dir);
    let addr = handle.addr().to_string();
    assert_eq!(
        run_corpus(&addr, &requests),
        reference,
        "life 2 matches too"
    );
    let store = stats(&addr);
    assert_eq!(counter(&store, "puts"), 0, "life 2 wrote nothing");
    assert!(counter(&store, "hits") > 0, "life 2 served from the store");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;
    use localwm_store::fault::{StoreFaultAction, StoreFaultPlan, StorePoint};

    /// The corpus designs as store payloads: content bytes whose exact
    /// survival the recovery assertions check.
    fn corpus_payloads() -> Vec<(u64, Vec<u8>)> {
        corpus::builtin_cases()
            .iter()
            .enumerate()
            .map(|(i, case)| (i as u64 + 1, case.design.clone().into_bytes()))
            .collect()
    }

    /// A seeded short write tears the tail record; reopening drops
    /// exactly that record, serves every other byte-identically, and a
    /// re-put of the lost key heals the store.
    #[test]
    fn torn_corpus_write_recovers_on_reopen_and_heals() {
        let dir = tmp_dir("torn-write");
        let payloads = corpus_payloads();
        let torn = payloads.len() as u64 - 1; // the last put tears
        {
            let plan =
                StoreFaultPlan::single(StorePoint::Append, torn, StoreFaultAction::ShortWrite);
            let store =
                DesignStore::open_with_faults(&dir, StoreConfig::default(), &plan).expect("open");
            for (key, payload) in &payloads {
                store.put(RecordKind::Design, *key, payload).expect("put");
            }
        }
        let store = DesignStore::open(&dir).expect("reopen after tear");
        let stats = store.stats();
        assert_eq!(stats.dropped_tail, 1, "the torn append is surfaced");
        assert_eq!(stats.recovered, payloads.len() as u64 - 1);
        for (key, payload) in &payloads[..payloads.len() - 1] {
            assert_eq!(
                store
                    .get(RecordKind::Design, *key)
                    .expect("get")
                    .expect("present"),
                *payload,
                "intact corpus designs survive byte-identically"
            );
        }
        let (lost_key, lost_payload) = payloads.last().expect("corpus nonempty");
        assert_eq!(store.get(RecordKind::Design, *lost_key).expect("get"), None);
        assert!(store
            .put(RecordKind::Design, *lost_key, lost_payload)
            .expect("re-put"));
        assert_eq!(
            store
                .get(RecordKind::Design, *lost_key)
                .expect("get")
                .expect("healed"),
            *lost_payload
        );
        assert!(DesignStore::verify_dir(&dir).expect("audit").ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A silent checksum flip mid-stream: the damaged record fails loudly
    /// on read (never wrong bytes), the non-destructive audit names the
    /// corruption, and reopening recovers everything before the flip.
    #[test]
    fn checksum_flip_is_surfaced_never_served() {
        let dir = tmp_dir("checksum-flip");
        let payloads = corpus_payloads();
        let flipped = 1u64; // the second put lands corrupted
        let store = {
            let plan =
                StoreFaultPlan::single(StorePoint::Append, flipped, StoreFaultAction::ChecksumFlip);
            DesignStore::open_with_faults(&dir, StoreConfig::default(), &plan).expect("open")
        };
        for (key, payload) in &payloads {
            store.put(RecordKind::Design, *key, payload).expect("put");
        }
        let bad_key = payloads[flipped as usize].0;
        assert!(
            store.get(RecordKind::Design, bad_key).is_err(),
            "the flipped record fails its read instead of serving wrong bytes"
        );
        assert_eq!(store.stats().checksum_failures, 1);
        let audit = DesignStore::verify_dir(&dir).expect("audit");
        assert!(!audit.ok(), "the audit reports the flip");
        assert!(audit.corrupt[0].contains("checksum"), "{:?}", audit.corrupt);
        drop(store);
        // Recovery: the scan stops at the flip, so everything before it
        // survives and the store reopens healthy.
        let store = DesignStore::open(&dir).expect("reopen");
        assert_eq!(store.stats().dropped_tail, 1);
        assert_eq!(
            store
                .get(RecordKind::Design, payloads[0].0)
                .expect("get")
                .expect("present"),
            payloads[0].1
        );
        assert!(DesignStore::verify_dir(&dir)
            .expect("post-recovery audit")
            .ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A transient read error fails one get without poisoning the store:
    /// the next read of the same record succeeds byte-identically.
    #[test]
    fn transient_read_error_does_not_poison_the_store() {
        let dir = tmp_dir("read-error");
        let payloads = corpus_payloads();
        let plan = StoreFaultPlan::single(StorePoint::Read, 0, StoreFaultAction::ReadError);
        let store =
            DesignStore::open_with_faults(&dir, StoreConfig::default(), &plan).expect("open");
        for (key, payload) in &payloads {
            store.put(RecordKind::Design, *key, payload).expect("put");
        }
        assert!(store.get(RecordKind::Design, payloads[0].0).is_err());
        assert_eq!(
            store
                .get(RecordKind::Design, payloads[0].0)
                .expect("retry")
                .expect("present"),
            payloads[0].1,
            "the fault was transient; the record is intact"
        );
        assert_eq!(
            store.stats().checksum_failures,
            0,
            "plumbing, not corruption"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
