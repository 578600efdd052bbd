//! Load and update benches — the ablation DESIGN.md calls out.
//!
//! The paper (§4.2) concedes that "updates and insertions … affect all six
//! indices, hence can be slow". These benches quantify that cost against
//! the baselines, and measure the sort-based bulk loader against
//! incremental insertion (the design choice it justifies).

use criterion::{criterion_group, criterion_main, Criterion};
use hex_baselines::{Covp1, Covp2, TriplesTable};
use hex_bench::lubm_dataset;
use hex_dict::{Dictionary, IdTriple};
use hexastore::{bulk, Hexastore, TripleStore};
use std::hint::black_box;
use std::time::Duration;

const SCALE: usize = 30_000;

fn encoded_dataset() -> Vec<IdTriple> {
    let mut dict = Dictionary::new();
    lubm_dataset(SCALE).iter().map(|t| dict.encode_triple(t)).collect()
}

fn bench_load(c: &mut Criterion) {
    let triples = encoded_dataset();

    let mut g = c.benchmark_group("load");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    g.bench_function("hexastore_bulk_serial", |b| {
        b.iter(|| black_box(bulk::build_with(triples.clone(), bulk::Config::serial())))
    });
    g.bench_function("hexastore_bulk_parallel4", |b| {
        b.iter(|| black_box(bulk::build_with(triples.clone(), bulk::Config::parallel(4))))
    });
    g.bench_function("hexastore_incremental", |b| {
        b.iter(|| {
            let mut h = Hexastore::new();
            for &t in &triples {
                h.insert(t);
            }
            black_box(h)
        })
    });
    g.bench_function("covp1_incremental", |b| {
        b.iter(|| black_box(Covp1::from_triples(triples.iter().copied())))
    });
    g.bench_function("covp2_incremental", |b| {
        b.iter(|| black_box(Covp2::from_triples(triples.iter().copied())))
    });
    g.bench_function("triples_table", |b| {
        b.iter(|| black_box(TriplesTable::from_triples(triples.iter().copied())))
    });
    g.finish();

    // Update cost: re-insert/remove a fixed slice against a loaded store —
    // the six-index maintenance the paper flags as the weak spot.
    let loaded = bulk::build(triples.clone());
    let slice: Vec<IdTriple> = triples.iter().copied().take(1_000).collect();
    let mut g = c.benchmark_group("update");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    g.bench_function("hexastore_remove_insert_1k", |b| {
        b.iter_batched(
            || loaded.clone(),
            |mut h| {
                for &t in &slice {
                    h.remove(t);
                }
                for &t in &slice {
                    h.insert(t);
                }
                black_box(h.len())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    let loaded_covp1 = Covp1::from_triples(triples.iter().copied());
    g.bench_function("covp1_remove_insert_1k", |b| {
        b.iter_batched(
            || loaded_covp1.clone(),
            |mut s| {
                for &t in &slice {
                    s.remove(t);
                }
                for &t in &slice {
                    s.insert(t);
                }
                black_box(s.len())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_load);
criterion_main!(benches);
