//! Workload inputs, made from the run's seed: the N-Triples text the
//! store is built from, the triples the live writer toggles, and the
//! point-lookup query streams.

use crate::queries::{self, Shape};
use crate::util::Fnv;
use hex_datagen::{barton, lubm};
use rdf_model::{Term, Triple};
use std::collections::{HashMap, HashSet};

/// The seed at which each workload's inputs are pinned by digest.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkExport,
    PointLookup,
    LiveChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk-export" => Some(Workload::BulkExport),
            "point-lookup" => Some(Workload::PointLookup),
            "live-churn" => Some(Workload::LiveChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkExport => "bulk-export",
            Workload::PointLookup => "point-lookup",
            Workload::LiveChurn => "live-churn",
        }
    }

    /// FNV-1a of the workload's N-Triples (store text, then window text)
    /// at [`DEFAULT_SEED`]. A change to the generators fails the run
    /// instead of silently changing what is measured.
    fn pinned_digest(self) -> u64 {
        match self {
            Workload::BulkExport => 0x5b7e_5800_de3a_dfd3,
            Workload::PointLookup => 0xb3ff_0263_1679_9905,
            Workload::LiveChurn => 0x468c_ae87_c9e0_cb45,
        }
    }
}

/// Triples the live writer toggles on the read workloads.
const READ_WINDOW: usize = 25_000;

pub struct Inputs {
    /// N-Triples text of the store built at setup (generation 0).
    pub base_nt: String,
    /// N-Triples text of the triples the live writer toggles.
    pub window_nt: String,
    /// Whether the window triples are part of the base.
    pub window_in_base: bool,
    /// Constants of the point-lookup read phase.
    pub read_pools: Option<Pools>,
    /// Constants of the live reader: none the writer's triples touch.
    pub live_pools: Pools,
}

fn take(n: usize, gen: impl FnOnce(&mut dyn FnMut(Triple))) -> Vec<Triple> {
    let mut out = Vec::with_capacity(n);
    gen(&mut |t| {
        if out.len() < n {
            out.push(t)
        }
    });
    assert_eq!(out.len(), n, "generator produced too few triples");
    out
}

fn lubm_triples(n: usize, universities: usize, seed: u64) -> Vec<Triple> {
    let config = lubm::LubmConfig { universities, seed: 0x1b4d_0000 ^ seed, ..Default::default() };
    take(n, |emit| lubm::generate_into(&config, emit))
}

/// The store triples and the window triples of a workload. The window
/// holds distinct triples, and on live-churn none of the store's, so
/// that every write the live writer makes changes the store.
fn triples(w: Workload, seed: u64) -> (Vec<Triple>, Vec<Triple>) {
    let (base, mut window) = generated(w, seed);
    let mut seen: HashSet<&Triple> = HashSet::new();
    if w == Workload::LiveChurn {
        seen.extend(&base);
    }
    let keep: Vec<bool> = window.iter().map(|t| seen.insert(t)).collect();
    let mut keep = keep.into_iter();
    window.retain(|_| keep.next().expect("one flag per window triple"));
    (base, window)
}

fn generated(w: Workload, seed: u64) -> (Vec<Triple>, Vec<Triple>) {
    match w {
        Workload::BulkExport => {
            let config = barton::BartonConfig {
                records: 36_000,
                seed: 0xba57_0000 ^ seed,
                ..Default::default()
            };
            let mut base = take(250_000, |emit| barton::generate_into(&config, emit));
            base.extend(lubm_triples(250_000, 9, seed));
            let window = base[base.len() - READ_WINDOW..].to_vec();
            (base, window)
        }
        Workload::PointLookup => {
            let base = lubm_triples(1_000_000, 34, seed);
            let window = base[base.len() - READ_WINDOW..].to_vec();
            (base, window)
        }
        Workload::LiveChurn => {
            let mut base = lubm_triples(500_000, 17, seed);
            let window = base.split_off(400_000);
            (base, window)
        }
    }
}

fn digest(base: &[Triple], window: &[Triple]) -> u64 {
    let mut h = Fnv::new();
    for t in base.iter().chain(window) {
        h.write(t.to_string().as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// Checks the pinned digest of the workload's inputs at the default seed.
pub fn check_pinned(w: Workload) -> Result<(), String> {
    let (base, window) = triples(w, DEFAULT_SEED);
    let got = digest(&base, &window);
    if got == w.pinned_digest() {
        Ok(())
    } else {
        Err(format!(
            "{}: inputs at seed {DEFAULT_SEED} have digest {got:#018x}, pinned {:#018x}; \
             the generators changed what this benchmark measures",
            w.name(),
            w.pinned_digest()
        ))
    }
}

pub fn generate(w: Workload, seed: u64) -> Inputs {
    let (base, window) = triples(w, seed);
    let window_terms: HashSet<&Term> =
        window.iter().flat_map(|t| [&t.subject, &t.object]).collect();
    Inputs {
        base_nt: rdf_model::write_document(&base),
        window_nt: rdf_model::write_document(&window),
        window_in_base: w != Workload::LiveChurn,
        read_pools: (w == Workload::PointLookup).then(|| Pools::new(&base, &HashSet::new(), seed)),
        live_pools: Pools::new(&base, &window_terms, seed),
    }
}

/// SplitMix64: the benchmark's own generator for query streams.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n` with exponent `s`, sampled from its CDF.
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf(cdf)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// Zipf exponent of the point-lookup constants: skewed, yet most texts
/// drawn in a run are new to the plan cache.
const ZIPF_S: f64 = 0.75;
/// Objects with more incoming triples than this are left out of object
/// lookups, which are meant to be small (class IRIs have ~10^5).
const OBJECT_MAX_FANIN: usize = 50;

/// A ranked list of constants: a seeded permutation sampled by Zipf.
pub struct Pool {
    terms: Vec<String>,
    zipf: Zipf,
}

impl Pool {
    fn new(terms: Vec<&Term>, rng: &mut Rng) -> Pool {
        assert!(!terms.is_empty(), "a constant pool is empty");
        let mut terms: Vec<String> = terms.into_iter().map(Term::to_string).collect();
        rng.shuffle(&mut terms);
        let zipf = Zipf::new(terms.len(), ZIPF_S);
        Pool { terms, zipf }
    }

    fn draw(&self, rng: &mut Rng) -> &str {
        &self.terms[self.zipf.sample(rng)]
    }
}

/// The constants point-lookup queries draw from.
pub struct Pools {
    pub subjects: Pool,
    pub objects: Pool,
    pub teachers: Pool,
    pub students: Pool,
}

impl Pools {
    /// Pools over `triples`. Every term in `exclude` is left out, and so
    /// is every star start whose answer could reach such a term, so
    /// that writes of triples over `exclude` never change an answer.
    pub fn new(triples: &[Triple], exclude: &HashSet<&Term>, seed: u64) -> Pools {
        let (teach, takes) = (Term::iri(queries::TEACHER_OF), Term::iri(queries::TAKES_COURSE));
        // A course is tainted if a triple links it to an excluded term:
        // a star through it could then gain or lose rows.
        let tainted: HashSet<&Term> = triples
            .iter()
            .filter(|t| exclude.contains(&t.subject) || exclude.contains(&t.object))
            .map(|t| &t.object)
            .collect();
        let mut subjects = Vec::new();
        let mut seen = HashSet::new();
        let mut fanin: HashMap<&Term, usize> = HashMap::new();
        let mut objects = Vec::new();
        let mut starts: [HashMap<&Term, bool>; 2] = Default::default();
        let mut start_order: [Vec<&Term>; 2] = Default::default();
        for t in triples {
            let (s, o) = (&t.subject, &t.object);
            if seen.insert(s) && !exclude.contains(s) {
                subjects.push(s);
            }
            let role = if t.predicate == teach {
                Some(0)
            } else if t.predicate == takes {
                Some(1)
            } else {
                None
            };
            if let Some(r) = role {
                let clean = !exclude.contains(s) && !tainted.contains(o);
                match starts[r].get_mut(s) {
                    Some(ok) => *ok &= clean,
                    None => {
                        starts[r].insert(s, clean);
                        start_order[r].push(s);
                    }
                }
            }
            let n = fanin.entry(o).or_insert(0);
            if *n == 0 {
                objects.push(o);
            }
            *n += 1;
        }
        objects.retain(|o| fanin[o] <= OBJECT_MAX_FANIN && !exclude.contains(o));
        let [teachers, students] =
            [0, 1].map(|r| start_order[r].iter().copied().filter(|s| starts[r][s]).collect());
        let mut rng = Rng::new(seed ^ 0x9001);
        Pools {
            subjects: Pool::new(subjects, &mut rng),
            objects: Pool::new(objects, &mut rng),
            teachers: Pool::new(teachers, &mut rng),
            students: Pool::new(students, &mut rng),
        }
    }
}

/// An endless stream of point-lookup texts: the four shapes, and the
/// three star variants, in turn, so that every run sends them in the
/// same proportions; constants drawn from [`Pools`].
pub struct Mix<'a> {
    pools: &'a Pools,
    rng: Rng,
    sent: usize,
}

impl<'a> Mix<'a> {
    pub fn new(pools: &'a Pools, seed: u64) -> Mix<'a> {
        Mix { pools, rng: Rng::new(seed), sent: 0 }
    }

    pub fn next_text(&mut self) -> String {
        let n = queries::SHAPES.len();
        let (shape, variant) = (queries::SHAPES[self.sent % n], self.sent / n % 3);
        self.sent += 1;
        let p = self.pools;
        match shape {
            Shape::Subject => queries::subject_lookup(p.subjects.draw(&mut self.rng)),
            Shape::Object => queries::object_lookup(p.objects.draw(&mut self.rng)),
            Shape::Ask => {
                let s = p.subjects.draw(&mut self.rng).to_string();
                queries::ask(&s, p.objects.draw(&mut self.rng))
            }
            Shape::Star if variant == 2 => queries::star(p.students.draw(&mut self.rng), 2),
            Shape::Star => queries::star(p.teachers.draw(&mut self.rng), variant),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(1000, ZIPF_S);
        let mut rng = Rng::new(3);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let low = draws.iter().filter(|&&d| d < 100).count();
        assert!(low > 3000, "{low}");
    }

    #[test]
    fn mix_is_a_function_of_its_seed() {
        let triples = lubm::generate(&lubm::LubmConfig::tiny());
        let pools = Pools::new(&triples, &HashSet::new(), 5);
        let a: Vec<String> = {
            let mut m = Mix::new(&pools, 9);
            (0..50).map(|_| m.next_text()).collect()
        };
        let mut m = Mix::new(&pools, 9);
        let b: Vec<String> = (0..50).map(|_| m.next_text()).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|q| hex_query::parse_query(q).is_ok()));
    }
}
