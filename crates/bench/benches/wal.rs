//! WAL substrate benchmarks: append/force throughput, codec speed and
//! recovery-scan speed for both log implementations.

use acp_types::{LogPayload, Outcome, SiteId, TxnId};
use acp_wal::encode::{decode_payload, encode_frame_into, encode_payload};
use acp_wal::tempdir::TempDir;
use acp_wal::{FileLog, Lsn, MemLog, StableLog};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn payload(i: u64) -> LogPayload {
    LogPayload::PartDecision {
        txn: TxnId::new(i),
        outcome: if i.is_multiple_of(2) {
            Outcome::Commit
        } else {
            Outcome::Abort
        },
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_codec");
    let p = LogPayload::Prepared {
        txn: TxnId::new(42),
        coordinator: SiteId::new(7),
    };
    let encoded = encode_payload(&p);
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_payload", |b| {
        b.iter(|| encode_payload(black_box(&p)))
    });
    // What a log's append does: frame the record at the end of a
    // write buffer it already owns.
    let mut buffer = Vec::new();
    g.bench_function("encode_frame_into", |b| {
        b.iter(|| {
            buffer.clear();
            encode_frame_into(&mut buffer, Lsn(41), true, black_box(&p));
            black_box(buffer.len())
        })
    });
    g.bench_function("decode_payload", |b| {
        b.iter(|| decode_payload(black_box(&encoded)).expect("decode"))
    });
    g.finish();
}

fn bench_memlog(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_memlog");
    g.bench_function("append_lazy", |b| {
        b.iter_batched(
            MemLog::new,
            |mut log| {
                for i in 0..100 {
                    log.append(payload(i), false).expect("append");
                }
                log
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("append_forced", |b| {
        b.iter_batched(
            MemLog::new,
            |mut log| {
                for i in 0..100 {
                    log.append(payload(i), true).expect("append");
                }
                log
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("scan_1000", |b| {
        let mut log = MemLog::new();
        for i in 0..1000 {
            log.append(payload(i), true).expect("append");
        }
        b.iter(|| acp_wal::scan::analyze(&log.records().expect("records")));
    });
    g.finish();
}

fn bench_filelog(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_filelog");
    g.sample_size(20);
    let dir = TempDir::new("bench").expect("tempdir");
    g.bench_function("append_forced", |b| {
        let mut n = 0u32;
        b.iter_batched(
            || {
                n += 1;
                FileLog::create(dir.path().join(format!("w{n}"))).expect("create")
            },
            |mut log| {
                for i in 0..20 {
                    log.append(payload(i), true).expect("append");
                }
                log
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("reopen_500_records", |b| {
        let path = dir.path().join("reopen");
        let mut log = FileLog::create(&path).expect("create");
        for i in 0..500 {
            log.append(payload(i), i.is_multiple_of(10))
                .expect("append");
        }
        log.flush().expect("flush");
        drop(log);
        b.iter(|| FileLog::open(&path).expect("open"));
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_memlog, bench_filelog);
criterion_main!(benches);
