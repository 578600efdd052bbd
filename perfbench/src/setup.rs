//! Setup: N-Triples text → queryable store on the workload's backing,
//! and the reopen that `first_answer_ms` times.

use crate::inputs::Workload;
use crate::queries;
use crate::trace::Tracer;
use crate::util::ms_since;
use hex_dict::{Dictionary, IdTriple};
use hex_disk::MmapFrozenHexastore;
use hexastore::{hexsnap, Dataset, FrozenGraphStore, LiveGraphStore, TripleStore};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The store a workload serves from. One exists at a time, so the size
/// difference between the variants does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Store {
    /// `hexsnap::load_frozen`: slabs read into memory.
    Heap(FrozenGraphStore),
    /// `hex_disk::open_dataset`: slabs and dictionary behind an mmap.
    Mmap(Dataset<MmapFrozenHexastore>),
    /// `LiveGraphStore::open`: generation 0 plus a write-ahead log.
    Live(LiveGraphStore),
}

fn backing(w: Workload) -> fn(&Path) -> Result<Store, String> {
    match w {
        Workload::BulkExport => |dir| {
            let (dict, store) = hexsnap::load_frozen(newest(dir)?).map_err(|e| e.to_string())?;
            Ok(Store::Heap(Dataset::from_parts(dict, store)))
        },
        Workload::PointLookup => {
            |dir| Ok(Store::Mmap(hex_disk::open_dataset(newest(dir)?).map_err(|e| e.to_string())?))
        }
        Workload::LiveChurn => {
            |dir| Ok(Store::Live(LiveGraphStore::open(dir).map_err(|e| e.to_string())?))
        }
    }
}

/// The span name of the open call on a workload's backing.
fn open_layer(w: Workload) -> &'static str {
    match w {
        Workload::BulkExport => "hexastore.hexsnap.load",
        Workload::PointLookup => "hex_disk.open",
        Workload::LiveChurn => "hexastore.graph.open",
    }
}

/// Generation 0 of the live directory: the snapshot setup writes.
fn gen0(dir: &Path) -> PathBuf {
    hexsnap::generation_path(dir, 0)
}

/// The newest snapshot generation in the live directory.
fn newest(dir: &Path) -> Result<PathBuf, String> {
    match hexsnap::newest_generation(dir).map_err(|e| e.to_string())? {
        Some((_, path)) => Ok(path),
        None => Err(format!("no snapshot in {}", dir.display())),
    }
}

pub struct Setup {
    /// Seconds from text to queryable store.
    pub seconds: f64,
    pub terms: usize,
    pub triples: usize,
    pub snapshot_bytes: u64,
    /// The ids and dictionary the encoder produced, when asked for: the
    /// answer oracle's input.
    pub oracle_input: Option<(Dictionary, Vec<IdTriple>)>,
}

/// Builds the workload's store from `nt`: parses, encodes on two
/// threads, bulk-builds the frozen slabs, saves them as generation 0 of
/// a fresh `dir` and opens them on the workload's backing. The caller
/// must have closed any other store on `dir`.
pub fn run(
    w: Workload,
    nt: &str,
    dir: &Path,
    keep_ids: bool,
    tracer: &mut Tracer,
) -> Result<Setup, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    tracer.next_op();
    let start = Instant::now();
    let root = tracer.begin("setup");
    let parsed = tracer.span("rdf_model.parse", || rdf_model::parse_document(nt));
    let parsed = parsed.map_err(|e| e.to_string())?;
    let mut dict = Dictionary::new();
    let ids = tracer.span("hex_dict.encode", || dict.encode_triples_parallel(&parsed, 2));
    tracer.span("rdf_model.drop", || drop(parsed));
    // The oracle's copy of the ids is not part of setup.
    let pause = Instant::now();
    let oracle_ids = keep_ids.then(|| ids.clone());
    let paused_ms = ms_since(pause);
    let frozen = tracer.span("hexastore.bulk.build", || hexastore::bulk::build_frozen(ids));
    tracer
        .span("hexastore.hexsnap.save", || hexsnap::save_frozen(gen0(dir), &dict, &frozen))
        .map_err(|e| e.to_string())?;
    let (terms, triples) = (dict.len(), frozen.len());
    drop(frozen);
    let store = tracer.span(open_layer(w), || backing(w)(dir))?;
    tracer.end(root);
    let seconds = (ms_since(start) - paused_ms) / 1e3;
    drop(store);
    let snapshot_bytes = std::fs::metadata(gen0(dir)).map_err(|e| e.to_string())?.len();
    // `save_frozen` leaves the flush to the kernel. Flush now, outside
    // the timing, so that no write-back of the snapshot competes with
    // what is measured next.
    let flush = |p: &Path| std::fs::File::open(p).and_then(|f| f.sync_all());
    flush(&gen0(dir)).and_then(|()| flush(dir)).map_err(|e| e.to_string())?;
    Ok(Setup {
        seconds,
        terms,
        triples,
        snapshot_bytes,
        oracle_input: oracle_ids.map(|ids| (dict, ids)),
    })
}

/// Milliseconds from reopening the workload's snapshot to the first row
/// of [`queries::FIRST_ANSWER`], once per repetition, and the store the
/// last repetition opened. The caller must have closed any other store
/// on `dir`.
pub fn first_answer(w: Workload, dir: &Path, reps: usize) -> Result<(Vec<f64>, Store), String> {
    let open = backing(w);
    let mut out = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take()); // each repetition opens from cold
        let start = Instant::now();
        let store = open(dir)?;
        let first = match &store {
            Store::Heap(ds) => first_row(ds)?,
            Store::Mmap(ds) => first_row(ds)?,
            Store::Live(live) => first_row(&live.snapshot())?,
        };
        out.push(ms_since(start));
        if !first {
            return Err("the first-answer query returned no row".into());
        }
        last = Some(store);
    }
    Ok((out, last.ok_or("first answer needs at least one repetition")?))
}

fn first_row<S: TripleStore>(ds: &Dataset<S>) -> Result<bool, String> {
    let plan = hex_query::prepare_on(ds.store(), ds.dict(), queries::FIRST_ANSWER)
        .map_err(|e| e.to_string())?;
    let first = plan.solutions().next().is_some();
    Ok(first)
}

/// Copies generation 0 of `dir` into the new directory `to`.
pub fn copy_gen0(dir: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to)
        .and_then(|()| std::fs::copy(gen0(dir), gen0(to)))
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Times the open calls that are not on the workload's setup path, so a
/// traced run reports every layer on every workload.
pub fn side_opens(w: Workload, dir: &Path, tracer: &mut Tracer) -> Result<(), String> {
    if w != Workload::BulkExport {
        tracer.next_op();
        let r = tracer.span("hexastore.hexsnap.load", || hexsnap::load_frozen(gen0(dir)));
        r.map_err(|e| e.to_string())?;
    }
    if w != Workload::PointLookup {
        tracer.next_op();
        let r = tracer.span("hex_disk.open", || hex_disk::open_dataset(gen0(dir)));
        r.map_err(|e| e.to_string())?;
    }
    Ok(())
}
