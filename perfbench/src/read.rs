//! The query path: query text → plan (through a `PlanCache`) → rows →
//! TSV, timed end to end per query and, when traced, split into the
//! crates' layers.

use crate::stores::Counting;
use crate::trace::Tracer;
use crate::util::{fnv1a, median, ms_since, tsv_digest};
use hex_dict::Id;
use hex_disk::MmapFrozenHexastore;
use hex_query::{
    compile, merge_candidates, merge_group, parse_query, BgpCursor, CompiledFilter, FilterOp,
    FilterSide, MergeCursor, Plan, PlanCache, QueryError,
};
use hexastore::{Dataset, FrozenHexastore, StatsSource, TripleStore};
use std::collections::HashMap;
use std::ops::Deref;
use std::time::Instant;

/// How a client plans: statistics-driven as the paper queries are, or
/// plain as the serving loop does.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Planning {
    Stats,
    Plain,
}

/// What the runs of one query text returned.
pub struct Answer {
    /// Digest of the first answer; later answers must match it.
    pub digest: u64,
    /// Runs, warm-up included.
    pub runs: u64,
}

/// Everything a query client observed.
#[derive(Default)]
pub struct ClientOut {
    /// End-to-end latency of each timed query, in ms.
    pub latencies_ms: Vec<f64>,
    /// Start of each timed query, aligned with `latencies_ms`.
    pub starts: Vec<Instant>,
    /// A digest of each timed query's text, aligned with `latencies_ms`.
    pub text_of: Vec<u64>,
    pub answers: HashMap<String, Answer>,
    /// Queries that returned an error, or an answer that differs from
    /// an earlier answer to the same text.
    pub failed: u64,
    /// Timed queries whose text this client had sent before.
    pub repeated: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_entries: u64,
    /// Index probes the timed queries made (traced runs).
    pub probes: u64,
    /// Binding rows the timed queries walked and returned (traced runs).
    pub rows_walked: u64,
    pub rows_returned: u64,
    /// Timed queries per second of the timed phase, summed over the
    /// clients.
    pub qps: f64,
}

impl ClientOut {
    pub fn merge(&mut self, o: ClientOut) {
        self.latencies_ms.extend(o.latencies_ms);
        self.starts.extend(o.starts);
        self.text_of.extend(o.text_of);
        for (text, a) in o.answers {
            match self.answers.get_mut(&text) {
                Some(e) if e.digest != a.digest => self.failed += a.runs,
                Some(e) => e.runs += a.runs,
                None => {
                    self.answers.insert(text, a);
                }
            }
        }
        self.failed += o.failed;
        self.repeated += o.repeated;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_entries += o.cache_entries;
        self.probes += o.probes;
        self.rows_walked += o.rows_walked;
        self.rows_returned += o.rows_returned;
        self.qps += o.qps;
    }

    /// The median query latency, taken per text: see
    /// [`median_by_text`].
    pub fn p50_ms(&self) -> f64 {
        median_by_text(self.text_of.iter().copied().zip(self.latencies_ms.iter().copied()))
    }
}

/// The median latency taken per text: each distinct text's median, and
/// the median of those weighted by each text's runs. Where texts rarely
/// repeat this is the plain median; on a fixed set of texts it is the
/// typical latency of the middle text, rather than the edge between two
/// texts' latencies, which would jump between them from run to run.
fn median_by_text(runs: impl Iterator<Item = (u64, f64)>) -> f64 {
    let mut by: HashMap<u64, Vec<f64>> = HashMap::new();
    for (text, ms) in runs {
        by.entry(text).or_default().push(ms);
    }
    let mut medians: Vec<(f64, usize)> = by.values().map(|v| (median(v), v.len())).collect();
    medians.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = medians.iter().map(|m| m.1).sum();
    let mut seen = 0;
    for (m, n) in medians {
        seen += n;
        if 2 * seen >= total {
            return m;
        }
    }
    0.0
}

/// A store a client can query: the store under test, or the counting
/// view of it that traced runs query through.
pub trait Probe: StatsSource {
    /// Index probes counted so far.
    fn probes(&self) -> u64 {
        0
    }
}

impl Probe for FrozenHexastore {}

impl Probe for MmapFrozenHexastore {}

impl<P: Deref> Probe for Counting<P>
where
    P::Target: TripleStore,
{
    fn probes(&self) -> u64 {
        Counting::probes(self)
    }
}

/// A query client with its own plan cache.
pub struct Client {
    cache: PlanCache,
    planning: Planning,
    pub out: ClientOut,
}

impl Client {
    pub fn new(planning: Planning) -> Self {
        Client { cache: PlanCache::new(), planning, out: ClientOut::default() }
    }

    /// Runs `text` once on `ds`, as an operation that began at `start`.
    /// `timed` queries count towards the end-to-end figures; warm-up
    /// queries only fill the cache (and the trace).
    pub fn query<S: Probe>(
        &mut self,
        ds: &Dataset<S>,
        text: &str,
        timed: bool,
        start: Instant,
        tracer: &mut Tracer,
    ) {
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        let probes = ds.store().probes();
        let root = tracer.begin(if timed { "query" } else { "warmup" });
        let answer = self.answer(ds, text, tracer);
        tracer.end(root);
        let latency = ms_since(start);
        let answer = answer.map(|(tsv, rows, plan)| (tsv_digest(&tsv), rows, plan));
        let missed = self.cache.misses() > misses;
        if timed {
            self.out.probes += ds.store().probes() - probes;
            self.out.latencies_ms.push(latency);
            self.out.starts.push(start);
            self.out.text_of.push(fnv1a(text.as_bytes()));
            self.out.cache_hits += self.cache.hits() - hits;
            self.out.cache_misses += self.cache.misses() - misses;
        }
        let digest = match answer {
            Ok((digest, rows, plan)) => {
                if tracer.on() {
                    let walked = self.trace_extras(ds, text, missed, &plan, tracer);
                    if timed {
                        self.out.rows_walked += walked;
                        self.out.rows_returned += rows as u64;
                    }
                }
                digest
            }
            Err(_) => {
                self.out.failed += 1;
                return;
            }
        };
        match self.out.answers.get_mut(text) {
            Some(a) => {
                if timed {
                    self.out.repeated += 1;
                }
                if a.digest == digest {
                    a.runs += 1;
                } else {
                    self.out.failed += 1;
                }
            }
            None => {
                self.out.answers.insert(text.to_string(), Answer { digest, runs: 1 });
            }
        }
    }

    /// The measured path: plan through the cache, run, render as TSV,
    /// free the rows. Returns the TSV, its row count and the plan.
    fn answer<'a, S: Probe>(
        &mut self,
        ds: &'a Dataset<S>,
        text: &str,
        tracer: &mut Tracer,
    ) -> Result<(String, usize, Plan<'a>), QueryError> {
        let (cache, planning) = (&mut self.cache, self.planning);
        let plan = tracer.span("hex_query.plan_cache.prepare", || match planning {
            Planning::Stats => cache.prepare_with_stats(ds, text),
            Planning::Plain => cache.prepare(ds, text),
        })?;
        let rs = tracer.span("hex_query.engine.run", || plan.run());
        let tsv = tracer.span("hex_query.engine.tsv", || rs.to_tsv());
        let rows = rs.len();
        tracer.span("hex_query.engine.drop", || drop(rs));
        Ok((tsv, rows, plan))
    }

    /// Traced runs only, after the query's own span and probe count:
    /// replays the join walk the cached plan chose, and on a cache miss
    /// repeats parse, compile and plan one call at a time to split the
    /// miss's cost. Returns the binding rows walked.
    fn trace_extras<S: Probe>(
        &mut self,
        ds: &Dataset<S>,
        text: &str,
        missed: bool,
        plan: &Plan<'_>,
        tracer: &mut Tracer,
    ) -> u64 {
        let store: &dyn TripleStore = ds.store();
        if missed {
            // The cached plan came from the same three calls, so neither
            // can fail here.
            let parsed = tracer.span("hex_query.parser.parse", || parse_query(text));
            let parsed = parsed.expect("the cache parsed this text");
            let cq = tracer.span("hex_query.engine.compile", || compile(&parsed, ds.dict()));
            let cq = cq.expect("the cache compiled this text");
            tracer.span("hex_query.engine.plan", || match self.planning {
                Planning::Stats => {
                    let stats = ds.stats();
                    Plan::from_compiled_with_stats(cq, ds.dict(), store, Some(&stats)).steps().len()
                }
                Planning::Plain => Plan::from_compiled(cq, ds.dict(), store).steps().len(),
            });
        }
        tracer.span("hex_query.exec.walk", || walk(plan, store))
    }

    /// The client's observations, with the plan cache's size.
    pub fn finish(mut self) -> ClientOut {
        self.out.cache_entries = self.cache.len() as u64;
        self.out
    }
}

/// A FILTER test on a binding row, from the filter's public parts.
fn accepts(f: &CompiledFilter, row: &[Option<Id>]) -> bool {
    let side = |s: FilterSide| match s {
        FilterSide::Slot(v) => row[v.index()].map(Some),
        FilterSide::Known(id) => Some(Some(id)),
        FilterSide::Unknown => Some(None),
    };
    let (Some(l), Some(r)) = (side(f.left), side(f.right)) else {
        return false;
    };
    let equal = matches!((l, r), (Some(a), Some(b)) if a == b);
    match f.op {
        FilterOp::Eq => equal,
        FilterOp::Ne => !equal,
    }
}

/// Drains the join walk of `plan` on `store`: the merge cursor when the
/// plan starts with a merge group the store can serve, else the nested
/// cursor, with each FILTER checked at the first step that binds all of
/// its variables. Returns the binding rows walked (at most one for ASK).
pub fn walk(plan: &Plan<'_>, store: &dyn TripleStore) -> u64 {
    let q = plan.query();
    let Some(bgp) = q.bgp.as_ref().filter(|_| !plan.is_statically_empty()) else {
        return 0;
    };
    let steps = plan.steps();
    let order: Vec<usize> = steps.iter().map(|s| s.pattern).collect();
    let mut bound = vec![false; usize::from(bgp.var_count)];
    let depth_of: Vec<Option<usize>> = {
        let mut bound_after = Vec::with_capacity(steps.len());
        for s in steps {
            for v in bgp.patterns[s.pattern].vars() {
                bound[v.index()] = true;
            }
            bound_after.push(bound.clone());
        }
        q.filters
            .iter()
            .map(|f| {
                let slots: Vec<usize> = [f.left, f.right]
                    .into_iter()
                    .filter_map(|s| match s {
                        FilterSide::Slot(v) => Some(v.index()),
                        _ => None,
                    })
                    .collect();
                bound_after.iter().position(|b| slots.iter().all(|&i| b[i]))
            })
            .collect()
    };
    let checks = q.filters.iter().zip(&depth_of).filter_map(|(f, d)| d.map(|d| (d, *f)));
    let mut rows: Box<dyn Iterator<Item = Vec<Option<Id>>> + '_> = match merge_group(bgp, steps)
        .and_then(|(group, var)| {
            merge_candidates(store, bgp, &order, group).map(|c| (group, var, c))
        }) {
        Some((group, var, candidates)) => {
            let mut c = MergeCursor::new(store, bgp, &order, group, var, candidates);
            for (d, f) in checks {
                c.add_check(d, Box::new(move |row| accepts(&f, row)));
            }
            Box::new(c)
        }
        None => {
            let mut c = BgpCursor::new(store, bgp, &order);
            for (d, f) in checks {
                c.add_check(d, Box::new(move |row| accepts(&f, row)));
            }
            Box::new(c)
        }
    };
    if q.ask {
        u64::from(rows.next().is_some())
    } else {
        rows.count() as u64
    }
}

/// A dataset view that counts the index probes made through it.
pub fn counting<S: TripleStore>(ds: &Dataset<S>) -> Dataset<Counting<&S>> {
    Dataset::from_parts(ds.dict().clone(), Counting::new(ds.store()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexastore::GraphStore;

    #[test]
    fn walk_counts_filtered_and_merged_rows_like_the_engine() {
        let mut g = GraphStore::new();
        g.load_ntriples(
            "<http://x/a> <http://x/type> <http://x/T> .\n\
             <http://x/a> <http://x/lang> \"fr\" .\n\
             <http://x/b> <http://x/type> <http://x/T> .\n\
             <http://x/b> <http://x/lang> \"fr\" .\n\
             <http://x/c> <http://x/type> <http://x/U> .\n",
        )
        .unwrap();
        let frozen = g.freeze();
        for text in [
            "SELECT ?s WHERE { ?s <http://x/type> <http://x/T> . ?s <http://x/lang> \"fr\" . }",
            "SELECT ?s ?t WHERE { ?s <http://x/type> ?t . FILTER(?t != <http://x/T>) }",
            "ASK { ?s <http://x/type> ?t . }",
        ] {
            let plan = hex_query::prepare_on(frozen.store(), frozen.dict(), text).unwrap();
            let want = plan.solutions().count() as u64;
            assert_eq!(walk(&plan, frozen.store()), want, "{text}");
        }
    }
}
