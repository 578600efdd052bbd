//! The live phase: one writer in an open loop toggles the window
//! triples through a `LiveGraphStore` (WAL append, periodic sync and
//! compaction), while one reader runs point lookups on the published
//! snapshots. Afterwards the store is dropped without compacting,
//! reopened, and checked against the writer's model.

use crate::inputs::{Mix, Pools};
use crate::read::{Client, ClientOut, Planning};
use crate::stores::{Counting, Snap};
use crate::trace::Tracer;
use crate::util::ms_since;
use hexastore::{bulk, hexsnap, Dataset, FrozenGraphStore, LiveGraphStore, SnapshotHandle};
use rdf_model::Triple;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Writes per second the open-loop writer is scheduled at.
pub const RATE: f64 = 20_000.0;
/// Writes between two `sync` calls.
pub const SYNC_EVERY: usize = 100;
/// A compaction runs each time the writes since the last one reach this
/// share of the store, rounded to a multiple of [`SYNC_EVERY`]: large
/// stores compact less often, so the writer keeps up on every workload.
const COMPACT_SHARE: f64 = 1.0 / 40.0;

/// Writes per compaction cycle on a store of `triples`.
pub fn cycle_len(triples: usize) -> usize {
    let syncs = (triples as f64 * COMPACT_SHARE / SYNC_EVERY as f64).round() as usize;
    syncs.max(1) * SYNC_EVERY
}

#[derive(Default)]
pub struct WriterOut {
    /// Writes per compaction cycle.
    pub cycle: usize,
    /// Due time → `sync` covering the write returned, ms, in write order.
    pub durable_ms: Vec<f64>,
    /// Due time → `compact` publishing the write returned, ms, in write
    /// order.
    pub visible_ms: Vec<f64>,
    /// How late each write started against its due time, ms.
    pub lag_ms: Vec<f64>,
    pub write_us: Vec<f64>,
    pub sync_ms: Vec<f64>,
    pub compact_ms: Vec<f64>,
    pub compactions: Vec<(Instant, Instant)>,
    /// Writes whose due time fell inside a compaction.
    pub stalled: u64,
    pub wal_bytes: u64,
    pub generation_bytes: u64,
    /// The written triples in N-Triples form, bytes.
    pub written_bytes: u64,
    pub attempted: u64,
    /// Writes that failed or whose result contradicts the model.
    pub failed: u64,
    /// Successful inserts minus successful removes.
    pub net_inserted: i64,
}

pub struct LiveOut {
    pub writer: WriterOut,
    pub reader: ClientOut,
    pub recover_s: f64,
    /// Window triples (or the store size) the reopened store got wrong.
    pub lost: u64,
}

fn io<T>(r: hexsnap::Result<T>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Runs `cycles` compaction cycles of writes over `window` at [`RATE`]
/// on `live`, and half a cycle more that is synced but not compacted,
/// with a reader on `pools` until the writes are done. Then drops the
/// store, reopens it and checks it against the writes. `present[j]`
/// says whether `window[j]` is in the store at the start.
#[allow(clippy::too_many_arguments)]
pub fn run(
    mut live: LiveGraphStore,
    window: &[Triple],
    mut present: Vec<bool>,
    cycles: usize,
    pools: &Pools,
    seed: u64,
    tracers: (&mut Tracer, &mut Tracer),
) -> Result<LiveOut, String> {
    let (wtracer, rtracer) = tracers;
    let handle = live.subscribe();
    let done = AtomicBool::new(false);
    let start_len = live.len();
    let cycle = cycle_len(start_len);
    let line_bytes: Vec<u64> = window.iter().map(|t| t.to_string().len() as u64 + 1).collect();
    let (writer, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_until(&handle, &done, pools, seed, rtracer));
        let writer = write(&mut live, window, &mut present, &line_bytes, cycle, cycles, wtracer);
        done.store(true, Ordering::Relaxed);
        (writer, reader.join().expect("the reader thread panicked"))
    });
    let writer = writer?;
    let dir = live.dir().to_path_buf();
    drop(live);
    let start = Instant::now();
    let reopened = io(LiveGraphStore::open(&dir))?;
    let recover_s = start.elapsed().as_secs_f64();
    let mut lost =
        window.iter().zip(&present).filter(|(t, &p)| reopened.contains(t) != p).count() as u64;
    if reopened.len() as i64 != start_len as i64 + writer.net_inserted {
        lost += 1;
    }
    Ok(LiveOut { writer, reader, recover_s, lost })
}

#[allow(clippy::too_many_arguments)]
fn write(
    live: &mut LiveGraphStore,
    window: &[Triple],
    present: &mut [bool],
    line_bytes: &[u64],
    cycle: usize,
    cycles: usize,
    tracer: &mut Tracer,
) -> Result<WriterOut, String> {
    let mut out = WriterOut { cycle, ..WriterOut::default() };
    // A tail after the last compaction stays in the log only, so that
    // the reopen replays it.
    let ops = cycle * cycles + cycle / 2 / SYNC_EVERY * SYNC_EVERY;
    let mut unsynced: Vec<Instant> = Vec::with_capacity(SYNC_EVERY);
    let mut unpublished: Vec<Instant> = Vec::with_capacity(cycle);
    let t0 = Instant::now();
    // A writer that falls far behind its schedule (a slow disk makes
    // every `sync` and compaction slow) stops at twice the schedule's
    // length, so that the run's length stays bounded.
    let stop = t0 + Duration::from_secs_f64(2.0 * ops as f64 / RATE);
    let mut sent = 0;
    for i in 0..ops {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
        let now = Instant::now();
        if now >= stop {
            break;
        }
        if due > now {
            std::thread::sleep(due - now);
        }
        sent += 1;
        out.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let j = i % window.len();
        tracer.next_op();
        let root = tracer.begin("write");
        let start = Instant::now();
        let result = tracer.span("hexastore.graph.insert", || {
            if present[j] {
                live.remove(&window[j])
            } else {
                live.insert(&window[j])
            }
        });
        out.write_us.push(start.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        match result {
            Ok(true) => {
                out.net_inserted += if present[j] { -1 } else { 1 };
                present[j] = !present[j];
            }
            Ok(false) | Err(_) => out.failed += 1,
        }
        out.written_bytes += line_bytes[j];
        unsynced.push(due);
        unpublished.push(due);
        if (i + 1) % SYNC_EVERY == 0 {
            let start = Instant::now();
            io(tracer.span("hexastore.wal.sync", || live.sync()))?;
            out.sync_ms.push(ms_since(start));
            out.durable_ms.extend(unsynced.drain(..).map(ms_since));
        }
        if (i + 1) % cycle == 0 {
            out.wal_bytes += live.wal_bytes();
            let start = Instant::now();
            io(tracer
                .span("hexastore.graph.compact", || live.compact_with(bulk::Config::serial())))?;
            let end = Instant::now();
            out.compact_ms.push((end - start).as_secs_f64() * 1e3);
            out.compactions.push((start, end));
            out.visible_ms.extend(unpublished.drain(..).map(|d| (end - d).as_secs_f64() * 1e3));
            let gen = hexsnap::generation_path(live.dir(), live.generation());
            out.generation_bytes += std::fs::metadata(gen).map_err(|e| e.to_string())?.len();
        }
        tracer.end(root);
    }
    if !unsynced.is_empty() {
        // Cut short: sync the last writes, so the model holds them.
        let start = Instant::now();
        io(live.sync())?;
        out.sync_ms.push(ms_since(start));
        out.durable_ms.extend(unsynced.drain(..).map(ms_since));
        eprintln!("perfbench: the writer fell behind and stopped after {sent} of {ops} writes");
    }
    out.wal_bytes += live.wal_bytes();
    let compactions = &out.compactions;
    out.stalled = (0..sent)
        .map(|i| t0 + Duration::from_secs_f64(i as f64 / RATE))
        .filter(|due| compactions.iter().any(|(s, e)| s <= due && due <= e))
        .count() as u64;
    Ok(out)
}

/// The reader: point lookups on the latest published snapshot, one at a
/// time, until `done`. An operation is `SnapshotHandle::load` plus the
/// query on what it returned.
fn read_until(
    handle: &SnapshotHandle,
    done: &AtomicBool,
    pools: &Pools,
    seed: u64,
    tracer: &mut Tracer,
) -> ClientOut {
    let mut mix = Mix::new(pools, seed);
    let mut client = Client::new(Planning::Plain);
    let mut snap = handle.load();
    // The counting view lives as long as its generation, because the
    // plan cache keys on the dataset it was planned against.
    let view = |snap: &Arc<FrozenGraphStore>| {
        Dataset::from_parts(snap.dict().clone(), Counting::new(Snap(Arc::clone(snap))))
    };
    let mut counted = view(&snap);
    let start = Instant::now();
    while !done.load(Ordering::Relaxed) {
        let text = mix.next_text();
        tracer.next_op();
        let op_start = Instant::now();
        let root = tracer.begin("read");
        let current = tracer.span("hexastore.graph.snapshot_load", || handle.load());
        if !Arc::ptr_eq(&current, &snap) {
            snap = current;
            if tracer.on() {
                counted = view(&snap);
            }
        }
        if tracer.on() {
            client.query(&counted, &text, true, op_start, tracer);
        } else {
            client.query(&snap, &text, true, op_start, tracer);
        }
        tracer.end(root);
    }
    client.out.qps = client.out.latencies_ms.len() as f64 / start.elapsed().as_secs_f64();
    client.finish()
}
