//! Planner ablation: the prepared-plan surface against fixed join orders
//! and the paper's hand-written physical plans, with the statistics mode
//! on and off.
//!
//! This quantifies (a) how much the greedy fewest-matches-first ordering
//! buys over a naive left-to-right evaluation, (b) what the
//! bound-variable fan-out refinement adds on a star join whose good
//! order the constants-only estimates cannot see, and (c) what the
//! declarative engine costs over the paper's hand-tuned plans. The
//! twelve-query sweep lives in `plans_figure` (`figures --figure plans`,
//! `BENCH_ci.json` `query_plans`); this bench is the statistically
//! careful fixed-scale complement.

use criterion::{criterion_group, criterion_main, Criterion};
use hex_bench::lubm_dataset;
use hex_bench_queries::lubm::{self, LubmIds};
use hex_bench_queries::{lubm_queries, Suite};
use hex_query::{BgpCursor, DatasetQuery};
use std::hint::black_box;
use std::time::Duration;

const SCALE: usize = 60_000;

fn bench_plans(c: &mut Criterion) {
    let data = lubm_dataset(SCALE);
    let suite = Suite::build(&data);
    let ids = LubmIds::resolve(&suite.dict).expect("dataset resolves all query terms");
    let graph = suite.dataset();
    let stats = suite.stats();
    let queries = lubm_queries(&suite.dict).expect("dataset resolves all query terms");
    let lq4 = &queries.iter().find(|q| q.name == "LQ4").unwrap().text;

    // Sanity: the planner modes agree on LQ4's rows.
    let plain = graph.prepare(lq4).unwrap();
    let refined = graph.prepare_with_stats(lq4, Some(&stats)).unwrap();
    let reference = {
        let mut rows: Vec<_> = plain.solutions().collect();
        rows.sort();
        rows
    };
    {
        let mut rows: Vec<_> = refined.solutions().collect();
        rows.sort();
        assert_eq!(rows, reference);
    }
    println!("# planner ablation: {} LQ4 result rows", reference.len());

    // (a) + (b): the star join under the three join-order regimes. The
    // worst fixed order runs the open (?s ?p ?c) pattern dead last after
    // a cross product, which is what the constants-only greedy also
    // falls into on this shape.
    let mut g = c.benchmark_group("lq4_join_order");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    g.bench_function("planned_constants_only", |b| b.iter(|| black_box(plain.solutions().count())));
    g.bench_function("planned_with_stats", |b| b.iter(|| black_box(refined.solutions().count())));
    g.bench_function("worst_fixed_order", |b| {
        let q = plain.query();
        let bgp = q.bgp.as_ref().unwrap();
        b.iter(|| {
            black_box(BgpCursor::new(&suite.hexastore, bgp, &[0, 2, 1]).collect::<Vec<_>>().len())
        })
    });
    g.finish();

    // (c): declarative engine vs hand-written plan for LQ1.
    let lq1 = &queries.iter().find(|q| q.name == "LQ1").unwrap().text;
    let lq1_plan = graph.prepare(lq1).unwrap();
    let mut g = c.benchmark_group("engine_vs_hand_plan");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    g.bench_function("lq1_prepared", |b| b.iter(|| black_box(lq1_plan.solutions().count())));
    g.bench_function("lq1_prepare_and_run", |b| {
        b.iter(|| black_box(graph.query(lq1).unwrap().len()))
    });
    g.bench_function("lq1_hand_plan", |b| {
        b.iter(|| black_box(lubm::lq1_hexastore(&suite.hexastore, &ids)))
    });
    g.finish();
}

criterion_group!(benches, bench_plans);
criterion_main!(benches);
