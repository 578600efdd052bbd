//! Two stores the benchmark puts next to the program's own.
//!
//! [`Counting`] forwards every call to the store under test and counts
//! the index probes the engine makes (`iter_matching`, `count_matching`,
//! `sorted_list`). [`Oracle`] answers the same query texts from two
//! `hex_baselines::TriplesTable` relations, a store implementation that
//! shares no index code with the Hexastore, so the engine's answers on
//! the store under test can be checked against it.

use hex_baselines::TriplesTable;
use hex_dict::{Id, IdTriple};
use hexastore::{
    FrozenGraphStore, FrozenHexastore, IdPattern, IndexKind, IndexSet, SortedListAccess,
    StatsSource, TripleIter, TripleStore,
};
use std::cell::Cell;
use std::ops::Deref;
use std::sync::Arc;

/// A forwarding store that counts index probes. `P` points at the store
/// under test: a reference, or a [`Snap`] that keeps a published
/// generation alive.
pub struct Counting<P> {
    inner: P,
    probes: Cell<u64>,
}

impl<P: Deref> Counting<P>
where
    P::Target: TripleStore,
{
    pub fn new(inner: P) -> Self {
        Counting { inner, probes: Cell::new(0) }
    }

    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    fn probe(&self) {
        self.probes.set(self.probes.get() + 1);
    }
}

impl<P: Deref> TripleStore for Counting<P>
where
    P::Target: TripleStore,
{
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn insert(&mut self, _: IdTriple) -> bool {
        unreachable!("the benchmark only reads through a counting store")
    }

    fn remove(&mut self, _: IdTriple) -> bool {
        unreachable!("the benchmark only reads through a counting store")
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.inner.contains(t)
    }

    fn for_each_matching(&self, pat: IdPattern, f: &mut dyn FnMut(IdTriple)) {
        self.inner.for_each_matching(pat, f)
    }

    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        self.probe();
        self.inner.iter_matching(pat)
    }

    fn iter_matching_range(&self, pat: IdPattern, start: usize, end: usize) -> TripleIter<'_> {
        self.probe();
        self.inner.iter_matching_range(pat, start, end)
    }

    fn capabilities(&self) -> IndexSet {
        self.inner.capabilities()
    }

    fn count_matching(&self, pat: IdPattern) -> usize {
        self.probe();
        self.inner.count_matching(pat)
    }

    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }

    fn sorted_lists(&self) -> Option<&dyn SortedListAccess> {
        self.inner.sorted_lists().map(|_| self as &dyn SortedListAccess)
    }
}

impl<P: Deref> SortedListAccess for Counting<P>
where
    P::Target: TripleStore,
{
    fn sorted_list(&self, pat: IdPattern) -> Option<&[Id]> {
        self.probe();
        self.inner.sorted_lists()?.sorted_list(pat)
    }
}

impl<P: Deref> StatsSource for Counting<P> where P::Target: TripleStore {}

/// A published generation, held alive, dereferencing to its store.
pub struct Snap(pub Arc<FrozenGraphStore>);

impl Deref for Snap {
    type Target = FrozenHexastore;

    fn deref(&self) -> &FrozenHexastore {
        self.0.store()
    }
}

/// Read-only reference store: three sorted triples tables, one per
/// leading position. The spo table holds triples as they are; the ops
/// table holds each as `(o, p, s)` and the pos table as `(p, o, s)`, so
/// a pattern binding any one position is a prefix search of one table.
pub struct Oracle {
    spo: TriplesTable,
    ops: TriplesTable,
    pos: TriplesTable,
}

/// `(s, p, o)` ↔ `(o, p, s)`; its own inverse.
fn ops(t: IdTriple) -> IdTriple {
    IdTriple { s: t.o, p: t.p, o: t.s }
}

/// `(s, p, o)` → `(p, o, s)`.
fn pos(t: IdTriple) -> IdTriple {
    IdTriple { s: t.p, p: t.o, o: t.s }
}

/// `(p, o, s)` → `(s, p, o)`.
fn unpos(t: IdTriple) -> IdTriple {
    IdTriple { s: t.o, p: t.s, o: t.p }
}

impl Oracle {
    pub fn new(triples: &[IdTriple]) -> Oracle {
        Oracle {
            spo: TriplesTable::from_triples(triples.iter().copied()),
            ops: TriplesTable::from_triples(triples.iter().copied().map(ops)),
            pos: TriplesTable::from_triples(triples.iter().copied().map(pos)),
        }
    }
}

impl TripleStore for Oracle {
    fn name(&self) -> &'static str {
        "Oracle"
    }

    fn len(&self) -> usize {
        self.spo.len()
    }

    fn insert(&mut self, _: IdTriple) -> bool {
        unreachable!("the oracle is read-only")
    }

    fn remove(&mut self, _: IdTriple) -> bool {
        unreachable!("the oracle is read-only")
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.spo.contains(t)
    }

    fn for_each_matching(&self, pat: IdPattern, f: &mut dyn FnMut(IdTriple)) {
        match (pat.s, pat.p, pat.o) {
            (None, p, Some(o)) => {
                self.ops.for_each_matching(IdPattern::new(Some(o), p, None), &mut |t| f(ops(t)))
            }
            (None, Some(p), None) => self
                .pos
                .for_each_matching(IdPattern::new(Some(p), None, None), &mut |t| f(unpos(t))),
            _ => self.spo.for_each_matching(pat, f),
        }
    }

    fn count_matching(&self, pat: IdPattern) -> usize {
        // Prefix patterns count by binary search; the rest by visiting.
        let prefix = match (pat.s, pat.p, pat.o) {
            (None, None, None) => return self.len(),
            (Some(s), p, None) => Some((&self.spo, s, p)),
            (None, p, Some(o)) => Some((&self.ops, o, p)),
            (None, Some(p), None) => Some((&self.pos, p, None)),
            _ => None,
        };
        match prefix {
            Some((table, a, b)) => {
                let key = |t: &IdTriple| (t.s, b.map(|_| t.p));
                let rows = table.rows();
                rows.partition_point(|t| key(t) <= (a, b))
                    - rows.partition_point(|t| key(t) < (a, b))
            }
            None => {
                let mut n = 0;
                self.for_each_matching(pat, &mut |_| n += 1);
                n
            }
        }
    }

    fn capabilities(&self) -> IndexSet {
        IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Ops).with(IndexKind::Pos)
    }

    fn heap_bytes(&self) -> usize {
        self.spo.heap_bytes() + self.ops.heap_bytes() + self.pos.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    #[test]
    fn oracle_answers_and_counts_every_shape_like_a_scan() {
        let rows = [t(1, 10, 100), t(1, 11, 101), t(2, 10, 100), t(3, 12, 1), t(1, 10, 101)];
        let oracle = Oracle::new(&rows);
        let table = TriplesTable::from_triples(rows);
        let ids = [None, Some(Id(1)), Some(Id(10)), Some(Id(100)), Some(Id(101))];
        for s in ids {
            for p in ids {
                for o in ids {
                    let pat = IdPattern::new(s, p, o);
                    let mut got = oracle.matching(pat);
                    let mut want = table.matching(pat);
                    got.sort();
                    want.sort();
                    assert_eq!(got, want, "{pat:?}");
                    assert_eq!(oracle.count_matching(pat), want.len(), "{pat:?}");
                }
            }
        }
    }

    #[test]
    fn counting_store_counts_probes() {
        let table = TriplesTable::from_triples([t(1, 10, 100), t(2, 10, 100)]);
        let c = Counting::new(&table);
        assert_eq!(c.count_matching(IdPattern::new(None, Some(Id(10)), None)), 2);
        assert_eq!(c.iter_matching(IdPattern::ALL).count(), 2);
        assert_eq!(c.probes(), 2);
    }
}
