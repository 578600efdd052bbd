//! The workspace benchmark.
//!
//! ```text
//! perfbench --workload <bulk-export|point-lookup|live-churn> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One run makes the workload's inputs from the seed, builds the store
//! from N-Triples text (three times, for a median set-up time), reopens
//! it for `first_answer_ms`, runs the read phase (two closed-loop query
//! clients) and the live phase (an open-loop writer and one reader on a
//! `LiveGraphStore`), then checks every answer against a triples-table
//! oracle and the reopened live store against the writer's model. The
//! last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for what each workload and metric is for.

mod inputs;
mod live;
mod queries;
mod read;
mod setup;
mod stores;
mod trace;
mod util;

use inputs::{Mix, Pools, Workload};
use read::{Client, ClientOut, Planning, Probe};
use setup::Store;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use trace::{Layer, Trace, Tracer};
use util::{mean, median, ms_since, quantile, Metrics};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Reopens per batch; `first_answer_ms` is the 10th percentile of five
/// batches: one after each set-up, one after the read phase and one
/// after the live phase. A reopen takes tens of milliseconds, and the
/// neighbours on a shared host slow whole batches of them down by half
/// as much again; the fastest tenth are the reopens they left alone.
const FIRST_ANSWER_REPS: usize = 6;
/// Share of `--seconds` the read workloads give the read phase; the rest
/// goes to the live phase.
const READ_SHARE: f64 = 0.65;
/// Closed-loop query clients of the read phase.
const CLIENTS: u64 = 2;
/// A run still going after this long gives up with an error, so that
/// no fault can keep it running without end.
const RUN_LIMIT: Duration = Duration::from_secs(165);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <bulk-export|point-lookup|live-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Args { workload, seed, seconds, trace })
        }
        _ => Err("every flag is required".into()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    // A panic on any thread ends the run at once: a client left waiting
    // at a barrier for a thread that died would otherwise wait forever.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report(info);
        std::process::exit(101);
    }));
    let start = Instant::now();
    std::thread::spawn(move || {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("perfbench: still running after {} s; giving up", RUN_LIMIT.as_secs());
        std::process::exit(1);
    });
    let result = inputs::check_pinned(args.workload).and_then(|()| {
        eprintln!("perfbench: pinned inputs checked in {:.1} s", ms_since(start) / 1e3);
        measure(&args, &work)
    });
    std::fs::remove_dir_all(&work).ok();
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Where the query texts of the read phase come from.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// Whole passes over the twelve paper queries, after one warm-up
    /// pass per client.
    Paper,
    /// The point-lookup mix.
    Lookups(&'a Pools),
}

/// What the clients of a read phase share.
struct Phase<'a> {
    source: Source<'a>,
    planning: Planning,
    secs: f64,
    seed: u64,
    /// Lines the clients up after warm-up.
    together: Barrier,
}

/// Runs [`CLIENTS`] closed-loop clients on `ds` for `secs` after each
/// has warmed its plan cache.
fn read_phase<S: Probe + Sync>(
    ds: &hexastore::Dataset<S>,
    source: Source<'_>,
    planning: Planning,
    secs: f64,
    seed: u64,
    tracers: &mut [Tracer],
) -> ClientOut {
    let phase = Phase { source, planning, secs, seed, together: Barrier::new(tracers.len()) };
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(i, tracer)| {
                let phase = &phase;
                scope.spawn(move || {
                    if tracer.on() {
                        client(&read::counting(ds), phase, i, tracer)
                    } else {
                        client(ds, phase, i, tracer)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a query client panicked")).collect()
    });
    let mut all = ClientOut::default();
    for o in outs {
        all.merge(o);
    }
    all
}

fn client<S: Probe>(
    ds: &hexastore::Dataset<S>,
    phase: &Phase<'_>,
    index: usize,
    tracer: &mut Tracer,
) -> ClientOut {
    let mut c = Client::new(phase.planning);
    if let Source::Paper = phase.source {
        for (_, text) in queries::PAPER {
            tracer.next_op();
            c.query(ds, text, false, Instant::now(), tracer);
        }
    }
    phase.together.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(phase.secs);
    match phase.source {
        // Each pass walks the queries in a fresh order, so that every
        // query meets each of the other client's queries about equally
        // often: which heavy queries overlap would otherwise be fixed
        // for a whole run by small timing differences.
        Source::Paper => {
            let mut order: Vec<&str> = queries::PAPER.iter().map(|(_, t)| *t).collect();
            let mut rng = inputs::Rng::new(phase.seed ^ (0x0bad_5eed << index));
            while Instant::now() < deadline {
                rng.shuffle(&mut order);
                for text in &order {
                    tracer.next_op();
                    c.query(ds, text, true, Instant::now(), tracer);
                }
            }
        }
        Source::Lookups(pools) => {
            let mut mix = Mix::new(pools, phase.seed ^ index as u64);
            while Instant::now() < deadline {
                let text = mix.next_text();
                tracer.next_op();
                c.query(ds, &text, true, Instant::now(), tracer);
            }
        }
    }
    c.out.qps = c.out.latencies_ms.len() as f64 / start.elapsed().as_secs_f64();
    c.finish()
}

/// Checks every distinct answer against the oracle; returns how many
/// runs got a wrong answer.
fn check_answers(answers: &HashMap<String, read::Answer>, oracle: &Oracle) -> u64 {
    answers
        .iter()
        .filter(|(text, a)| oracle.digest(text) != Some(a.digest))
        .map(|(_, a)| a.runs)
        .sum()
}

/// The answer oracle: the same query texts planned and run on
/// `hex_baselines::TriplesTable` relations built from the encoder's
/// output, outside every timed phase.
///
/// Plans use statistics, so that a bad join order cannot make the check
/// slow; the order does not change the answer.
struct Oracle {
    dict: hex_dict::Dictionary,
    store: stores::Oracle,
    stats: hexastore::DatasetStats,
}

impl Oracle {
    fn new(dict: hex_dict::Dictionary, ids: &[hex_dict::IdTriple]) -> Oracle {
        let store = stores::Oracle::new(ids);
        let stats = hexastore::DatasetStats::from_store(&store);
        Oracle { dict, store, stats }
    }

    fn plan(&self, text: &str) -> Option<hex_query::Plan<'_>> {
        hex_query::prepare_on_with_stats(&self.store, &self.dict, text, Some(&self.stats)).ok()
    }

    fn digest(&self, text: &str) -> Option<u64> {
        Some(util::tsv_digest(&self.plan(text)?.run().to_tsv()))
    }
}

/// The span layers of the traced phases.
#[derive(Default)]
struct Traces {
    setup: Trace,
    read: Trace,
    live: Trace,
}

fn measure(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let mut traces = Traces::default();
    let mut main_tracer = Tracer::new(args.trace, epoch, 0);
    let phase = |name: &str| eprintln!("perfbench: {name} done at {:.1} s", ms_since(epoch) / 1e3);
    let inputs = inputs::generate(w, args.seed);
    phase("inputs");
    let window = rdf_model::parse_document(&inputs.window_nt).map_err(|e| e.to_string())?;
    let dir = work.join("live");

    // Set-ups, each followed by a batch of reopens, so that both figures
    // sample more of the run than one stretch of it.
    let (mut setup_s, mut first_answer_ms, mut last) = (Vec::new(), Vec::new(), None);
    for rep in 0..SETUP_REPS {
        drop(last.take()); // close the store before its file is rewritten
        let keep_ids = rep + 1 == SETUP_REPS;
        let setup = setup::run(w, &inputs.base_nt, &dir, keep_ids, &mut main_tracer)?;
        setup_s.push(setup.seconds);
        let (more, store) = setup::first_answer(w, &dir, FIRST_ANSWER_REPS)?;
        first_answer_ms.extend(more);
        last = Some((setup, store));
    }
    drop(inputs.base_nt);
    let (setup, store) = last.ok_or("no set-up ran")?;
    let setup::Setup { terms, triples, snapshot_bytes, oracle_input, .. } = setup;
    if args.trace {
        setup::side_opens(w, &dir, &mut main_tracer)?;
    }
    // The live phase compacts generation 0 away; the last batch of
    // reopens opens this copy of it.
    let pristine = work.join("pristine");
    setup::copy_gen0(&dir, &pristine)?;
    phase("setup");

    // Read phase: the whole run on live-churn goes to the live phase. A
    // traced run first measures the same query stream untraced, for the
    // tracing overhead.
    let read_secs = if w == Workload::LiveChurn { 0.0 } else { args.seconds * READ_SHARE };
    let live_secs = args.seconds - read_secs;
    let tracers = |on: bool, base: u64| -> Vec<Tracer> {
        (0..CLIENTS).map(|i| Tracer::new(on, epoch, base + i)).collect()
    };
    let mut calibration = None;
    let read_out = {
        let run = |secs: f64, on: bool| -> Result<(ClientOut, Trace), String> {
            let mut ts = tracers(on, 10);
            let out = match (&store, w) {
                (Store::Heap(ds), Workload::BulkExport) => {
                    read_phase(ds, Source::Paper, Planning::Stats, secs, args.seed, &mut ts)
                }
                (Store::Mmap(ds), Workload::PointLookup) => {
                    let pools = inputs.read_pools.as_ref().ok_or("no point-lookup pools")?;
                    let src = Source::Lookups(pools);
                    read_phase(ds, src, Planning::Plain, secs, args.seed, &mut ts)
                }
                (Store::Live(live), Workload::LiveChurn) => {
                    let src = Source::Lookups(&inputs.live_pools);
                    read_phase(&live.snapshot(), src, Planning::Plain, secs, args.seed, &mut ts)
                }
                _ => unreachable!("each workload opens its own backing"),
            };
            let mut trace = Trace::default();
            for t in ts {
                trace.absorb(t);
            }
            Ok((out, trace))
        };
        if args.trace {
            let secs = if w == Workload::LiveChurn { args.seconds / 4.0 } else { read_secs };
            let (plain, _) = run(secs / 2.0, false)?;
            let (traced, trace) = run(secs / 2.0, true)?;
            calibration = Some(overhead_pct(&plain, &traced));
            traces.read = trace;
            if w == Workload::LiveChurn {
                ClientOut::default()
            } else {
                traced
            }
        } else if read_secs > 0.0 {
            run(read_secs, false)?.0
        } else {
            ClientOut::default()
        }
    };

    phase("read phase");
    drop(store);
    let (more, store) = setup::first_answer(w, &dir, FIRST_ANSWER_REPS)?;
    first_answer_ms.extend(more);
    // Live phase.
    let live = match store {
        Store::Live(live) => live,
        other => {
            drop(other);
            main_tracer.next_op();
            main_tracer.span("hexastore.graph.open", || {
                hexastore::LiveGraphStore::open(&dir).map_err(|e| e.to_string())
            })?
        }
    };
    let cycles = (live::RATE * live_secs / live::cycle_len(live.len()) as f64).round().max(2.0);
    let present = vec![inputs.window_in_base; window.len()];
    let (mut wt, mut rt) = (Tracer::new(args.trace, epoch, 20), Tracer::new(args.trace, epoch, 21));
    let live_out = live::run(
        live,
        &window,
        present,
        cycles as usize,
        &inputs.live_pools,
        args.seed ^ 0x11fe,
        (&mut wt, &mut rt),
    )?;
    let (more, store) = setup::first_answer(w, &pristine, FIRST_ANSWER_REPS)?;
    drop(store);
    first_answer_ms.extend(more);
    phase("live phase");
    traces.live.absorb(wt);
    traces.live.absorb(rt);
    traces.setup.absorb(main_tracer);

    // Answers, outside every timed phase.
    let (dict, ids) = oracle_input.ok_or("the last set-up keeps the oracle's input")?;
    let oracle = Oracle::new(dict, &ids);
    drop(ids);
    let wrong = check_answers(&read_out.answers, &oracle)
        + check_answers(&live_out.reader.answers, &oracle);
    let empty_paper = if w == Workload::BulkExport {
        queries::PAPER
            .iter()
            .filter(|(_, text)| oracle.plan(text).is_none_or(|p| p.solutions().next().is_none()))
            .count() as u64
    } else {
        0
    };

    phase("answer checks");
    let e2e = if w == Workload::LiveChurn { &live_out.reader } else { &read_out };
    let wr = &live_out.writer;
    let attempted = read_out.latencies_ms.len() as u64
        + live_out.reader.latencies_ms.len() as u64
        + wr.attempted;
    let failed =
        read_out.failed + live_out.reader.failed + wrong + wr.failed + live_out.lost + empty_paper;
    if failed > 0 {
        eprintln!(
            "perfbench: {failed} failed: {} query errors, {wrong} wrong answers, {} write errors, \
             {} lost writes, {empty_paper} empty paper queries",
            read_out.failed + live_out.reader.failed,
            wr.failed,
            live_out.lost
        );
    }

    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", median(&setup_s), "s");
        m.put("qps", e2e.qps, "1/s");
        m.put("query_p50_ms", e2e.p50_ms(), "ms");
        m.put("query_p99_ms", quantile(&e2e.latencies_ms, 0.99), "ms");
        m.put("first_answer_ms", quantile(&first_answer_ms, 0.1), "ms");
        m.put("write_durable_p99_ms", per_cycle_p99(&wr.durable_ms, wr.cycle), "ms");
        m.put("write_visible_p99_ms", per_cycle_p99(&wr.visible_ms, wr.cycle), "ms");
        let written = (wr.wal_bytes + wr.generation_bytes) as f64;
        m.put("write_amp", written / wr.written_bytes.max(1) as f64, "ratio");
        m.put("store_bytes_per_triple", snapshot_bytes as f64 / triples.max(1) as f64, "bytes");
        m.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
    } else {
        let query_trace = if w == Workload::LiveChurn { &traces.live } else { &traces.read };
        per_layer(
            &mut m,
            &traces,
            query_trace,
            PerLayerInputs {
                terms,
                e2e,
                live: &live_out,
                overhead_pct: calibration.unwrap_or(0.0),
            },
        );
        let out_dir = PathBuf::from(".perfbench");
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let path = out_dir.join(format!("trace-{}-{}.tsv", w.name(), args.seed));
        Trace::write_tsv(&[&traces.setup, &traces.read, &traces.live], &path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote the spans to {}", path.display());
    }
    Ok(m.result_line(failed == 0, attempted.max(1), failed))
}

/// The 99th percentile of each whole compaction cycle's write latencies
/// (`xs` in write order), median over the cycles. The first cycle is
/// left out: it alone has no compaction before it to stall its writes.
fn per_cycle_p99(xs: &[f64], cycle: usize) -> f64 {
    let cycle = cycle.max(1);
    let later = xs.get(cycle..).unwrap_or_default();
    let p99s: Vec<f64> = later.chunks_exact(cycle).map(|c| quantile(c, 0.99)).collect();
    if p99s.is_empty() {
        // A writer cut short before its first whole cycle.
        return quantile(xs, 0.99);
    }
    median(&p99s)
}

/// Tracing overhead: how much longer the traced half's queries took on
/// average than the untraced half's, over the queries both completed
/// (the two halves send the same query stream).
fn overhead_pct(plain: &ClientOut, traced: &ClientOut) -> f64 {
    let n = plain.latencies_ms.len().min(traced.latencies_ms.len());
    let (a, b) = (mean(&plain.latencies_ms[..n]), mean(&traced.latencies_ms[..n]));
    if a > 0.0 {
        (b / a - 1.0) * 100.0
    } else {
        0.0
    }
}

struct PerLayerInputs<'a> {
    terms: usize,
    /// The client whose queries the end-to-end query metrics measure.
    e2e: &'a ClientOut,
    live: &'a live::LiveOut,
    overhead_pct: f64,
}

fn layer(layers: &std::collections::BTreeMap<&'static str, Layer>, name: &str) -> Layer {
    layers.get(name).copied().unwrap_or_default()
}

/// Mean span duration of `name`, in seconds.
fn mean_s(layers: &std::collections::BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    let l = layer(layers, name);
    l.total_ns as f64 / l.count.max(1) as f64 / 1e9
}

/// 1 minus the share of the root spans' time that no layer span
/// covers. Warns when the layers miss more than a tenth of it.
fn coverage(layers: &std::collections::BTreeMap<&'static str, Layer>, roots: &[&str]) -> f64 {
    let (uncovered, total) = roots
        .iter()
        .map(|r| layer(layers, r))
        .fold((0, 0), |(u, t), l| (u + l.self_ns, t + l.root_ns));
    let covered = 1.0 - uncovered as f64 / total.max(1) as f64;
    if covered < 0.9 {
        eprintln!("perfbench: the layers cover only {covered:.3} of the {roots:?} time");
    }
    covered
}

fn per_layer(m: &mut Metrics, traces: &Traces, query_trace: &Trace, x: PerLayerInputs<'_>) {
    let setup = traces.setup.layers();
    m.put("rdf_model.parse_s", mean_s(&setup, "rdf_model.parse"), "s");
    m.put("hex_dict.encode_s", mean_s(&setup, "hex_dict.encode"), "s");
    m.put("hex_dict.terms", x.terms as f64, "count");
    m.put("hexastore.bulk.build_s", mean_s(&setup, "hexastore.bulk.build"), "s");
    m.put("hexastore.hexsnap.save_s", mean_s(&setup, "hexastore.hexsnap.save"), "s");
    m.put("hexastore.hexsnap.load_s", mean_s(&setup, "hexastore.hexsnap.load"), "s");
    m.put("hex_disk.open_s", mean_s(&setup, "hex_disk.open"), "s");
    m.put("hexastore.graph.open_s", mean_s(&setup, "hexastore.graph.open"), "s");
    m.put("bench.setup_coverage", coverage(&setup, &["setup"]), "ratio");

    // Prepare, walk, result and TSV per timed query; parse, compile and
    // plan per call, i.e. per plan-cache miss, warm-up included.
    let all = query_trace.layers();
    let q = query_trace.layers_of(&["query", "read"]);
    let n = x.e2e.latencies_ms.len().max(1) as f64;
    let per_query_us = |name: &str| layer(&q, name).total_ns as f64 / n / 1e3;
    let per_call_us = |name: &str| mean_s(&all, name) * 1e6;
    let (walk, run, drop, tsv) = (
        per_query_us("hex_query.exec.walk"),
        per_query_us("hex_query.engine.run"),
        per_query_us("hex_query.engine.drop"),
        per_query_us("hex_query.engine.tsv"),
    );
    // Project, DISTINCT, decode and freeing the decoded rows. Can read
    // slightly below 0 where the walk is nearly all of `run`.
    let result = run - walk + drop;
    m.put("hex_query.plan_cache.prepare_us", per_query_us("hex_query.plan_cache.prepare"), "us");
    m.put("hex_query.parser.parse_us", per_call_us("hex_query.parser.parse"), "us");
    m.put("hex_query.engine.compile_us", per_call_us("hex_query.engine.compile"), "us");
    m.put("hex_query.engine.plan_us", per_call_us("hex_query.engine.plan"), "us");
    let lookups = (x.e2e.cache_hits + x.e2e.cache_misses).max(1) as f64;
    m.put("hex_query.plan_cache.hit_ratio", x.e2e.cache_hits as f64 / lookups, "ratio");
    m.put("hex_query.plan_cache.entries", x.e2e.cache_entries as f64, "count");
    let timed = x.e2e.latencies_ms.len().max(1) as f64;
    m.put("bench.repeated_text_share", x.e2e.repeated as f64 / timed, "ratio");
    m.put("hex_query.exec.walk_us", walk, "us");
    let rows = x.e2e.rows_walked as f64 / x.e2e.rows_returned.max(1) as f64;
    m.put("hex_query.exec.rows_per_result", rows, "ratio");
    m.put("hexastore.probes_per_query", x.e2e.probes as f64 / n, "count");
    m.put("hex_query.engine.result_us", result, "us");
    m.put("hex_query.engine.tsv_us", tsv, "us");
    let op_us = ["query", "read"].iter().map(|r| layer(&q, r).root_ns).sum::<u64>() as f64
        / 1e3
        / layer(&q, "query").count.max(1) as f64;
    m.put("hex_query.result_share", (result + tsv) / op_us.max(1e-9), "ratio");
    let live = traces.live.layers();
    let load = layer(&live, "hexastore.graph.snapshot_load");
    m.put(
        "hexastore.graph.snapshot_load_us",
        load.total_ns as f64 / load.count.max(1) as f64 / 1e3,
        "us",
    );
    m.put("bench.query_coverage", coverage(&q, &["query", "read"]), "ratio");
    m.put("bench.query_samples", x.e2e.latencies_ms.len() as f64, "count");
    m.put("bench.trace_overhead_pct", x.overhead_pct, "%");

    let wr = &x.live.writer;
    m.put("hexastore.graph.insert_us", mean(&wr.write_us), "us");
    m.put("hexastore.wal.sync_p50_ms", quantile(&wr.sync_ms, 0.5), "ms");
    m.put("hexastore.wal.sync_p99_ms", quantile(&wr.sync_ms, 0.99), "ms");
    m.put(
        "hexastore.wal.bytes_per_write",
        wr.wal_bytes as f64 / wr.attempted.max(1) as f64,
        "bytes",
    );
    m.put("hexastore.graph.compact_ms", mean(&wr.compact_ms), "ms");
    let compactions = wr.compact_ms.len().max(1) as f64;
    m.put("hexastore.graph.compact_bytes", wr.generation_bytes as f64 / compactions, "bytes");
    m.put("hexastore.graph.stalled_writes", wr.stalled as f64, "count");
    let reader = &x.live.reader;
    let in_compaction: Vec<f64> = reader
        .starts
        .iter()
        .zip(&reader.latencies_ms)
        .filter(|(s, lat)| {
            let end = **s + Duration::from_secs_f64(**lat / 1e3);
            wr.compactions.iter().any(|(cs, ce)| **s <= *ce && *cs <= end)
        })
        .map(|(_, lat)| *lat)
        .collect();
    m.put("hexastore.graph.reader_p99_in_compaction_ms", quantile(&in_compaction, 0.99), "ms");
    m.put("hexastore.graph.recover_s", x.live.recover_s, "s");
    m.put("bench.writer_lag_ms", quantile(&wr.lag_ms, 0.99), "ms");
    m.put("bench.write_coverage", coverage(&live, &["write"]), "ratio");
}
