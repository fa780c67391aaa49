//! E10 — end-to-end commit latency on the reactor runtime (one event
//! loop, wall-clock timers and file-backed WALs), one commit at a
//! time. The per-protocol comparison shows the shape the paper's §1
//! motivates: commit processing is where the time goes, and the
//! variants differ by their forced writes and message rounds.

use acp_engine::SiteEngine;
use acp_net::{ReactorCluster, ReactorConfig};
use acp_types::{CoordinatorKind, Outcome, ProtocolKind, SelectionPolicy, TxnId};
use acp_wal::{MemLog, StableLog};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_cluster");
    g.sample_size(20);
    for (name, kind, protos) in [
        (
            "prany_mixed",
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            vec![ProtocolKind::PrA, ProtocolKind::PrC],
        ),
        (
            "prn_pair",
            CoordinatorKind::Single(ProtocolKind::PrN),
            vec![ProtocolKind::PrN; 2],
        ),
        (
            "prc_pair",
            CoordinatorKind::Single(ProtocolKind::PrC),
            vec![ProtocolKind::PrC; 2],
        ),
    ] {
        g.bench_function(BenchmarkId::new("commit_roundtrip", name), |b| {
            let config = ReactorConfig::new(kind, &protos);
            let mut cluster = ReactorCluster::spawn(&config);
            let parts = cluster.participants();
            b.iter(|| {
                let txn = cluster.next_txn();
                for &p in &parts {
                    cluster.apply(p, txn, b"bench-key", b"bench-value");
                }
                let outcome = cluster.commit(txn, &parts).expect("decision");
                assert_eq!(outcome, Outcome::Commit);
            });
            let _ = cluster.shutdown();
        });
    }
    g.finish();
}

fn bench_storage_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_engine");
    g.bench_function("txn_put_prepare_commit", |b| {
        let mut engine = SiteEngine::new(MemLog::new());
        // The participant's log the redo is staged in.
        let mut redo = MemLog::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let txn = TxnId::new(i);
            engine.begin(txn);
            engine
                .put(txn, format!("k{}", i % 64).as_bytes(), b"v")
                .expect("put");
            engine
                .prepare(txn, |u| redo.append_ref(u, true).map(drop))
                .expect("prepare");
            engine.resolve(txn, Outcome::Commit).expect("resolve");
            black_box(&engine);
        });
    });
    g.bench_function("read_txn", |b| {
        let mut engine = SiteEngine::new(MemLog::new());
        let seed = TxnId::new(1);
        engine.begin(seed);
        engine.put(seed, b"k", b"v").expect("put");
        engine.prepare(seed, |_| Ok(())).expect("prepare");
        engine.resolve(seed, Outcome::Commit).expect("resolve");
        let mut i = 1u64;
        b.iter(|| {
            i += 1;
            let txn = TxnId::new(i);
            engine.begin(txn);
            let v = engine.get(txn, b"k").expect("get");
            engine.abort_active(txn).expect("end");
            black_box(v)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_cluster, bench_storage_engine);
criterion_main!(benches);
