//! Parallel BGP execution: shard the first step, merge in shard order.
//!
//! A prepared [`Plan`] walks its join tree depth-first from the first
//! step's candidate cursor. That cursor is the *only* fan-out point whose
//! extent is known up front (`count_matching` answers it in O(log n) on
//! every index-backed store), and deeper levels depend on nothing outside
//! their own binding row — so the walk parallelizes by splitting the
//! first step's `[0, n)` candidate range into contiguous shards, running
//! the ordinary [`crate::exec::BgpCursor`] over each shard on its own
//! thread via [`TripleStore::iter_matching_range`], and concatenating the
//! shard outputs in shard order. On a frozen slab store a shard start is
//! an offset computation, not a skip-walk.
//!
//! The concatenation is — by the range contract of
//! [`TripleStore::iter_matching_range`] — *exactly* the row sequence the
//! single-threaded cursor produces, so the downstream solution-modifier
//! pipeline (projection, DISTINCT, OFFSET/LIMIT, decoding) runs unchanged
//! over it and the results are byte-identical, not merely set-equal.
//! LIMIT pushdown stays sound per shard: a row at index `j` of any shard
//! sits at position `≥ j` of the concatenation, so each shard can stop at
//! the global `offset + limit` demand independently.
//!
//! Merge-group plans shard the same way one level up: the group's
//! sorted lists are intersected once on the calling thread and each
//! worker's cursor borrows a contiguous slice of the *candidate list* as
//! its first fan-out. Either way a shard is the one cursor every plan
//! runs, restricted to `[from, to)` of its first fan-out.
//! DISTINCT+LIMIT queries additionally cap each shard at `offset +
//! limit` locally-distinct projected rows (`Prepared::distinct_shard_cap`):
//! any global winner is among the first that many distinct rows of its
//! own shard, so the cap never drops one.
//!
//! Entry point: [`Plan::run_parallel`]. It needs the store by concrete
//! `&S where S: TripleStore + Sync` reference — the plan's own `&dyn
//! TripleStore` borrow carries no `Sync` bound, so it cannot cross the
//! worker-thread boundary.

use crate::algebra::VarId;
use crate::engine::{Plan, ResultSet};
use hex_dict::Id;
use hexastore::TripleStore;
use std::borrow::Cow;
use std::collections::HashSet;

/// Drains one shard's cursor into its row vector. With `cap` set
/// (parallel DISTINCT+LIMIT — see `Prepared::distinct_shard_cap` for the
/// soundness argument) the worker keeps a local seen-set of projected
/// rows and stops once it holds `cap` entries; rows whose projection is
/// undefined or locally duplicated are dropped, since the downstream
/// modifier pipeline would drop them anyway (a within-shard duplicate is
/// preceded globally by its first occurrence in the same shard).
fn collect_shard(
    cursor: impl Iterator<Item = Vec<Option<Id>>>,
    slots: &[VarId],
    cap: Option<usize>,
) -> Vec<Vec<Option<Id>>> {
    let Some(cap) = cap else { return cursor.collect() };
    if cap == 0 {
        return Vec::new();
    }
    let mut seen: HashSet<Vec<Id>> = HashSet::new();
    let mut out = Vec::new();
    for row in cursor {
        let Some(ids) = slots.iter().map(|v| row[v.index()]).collect::<Option<Vec<Id>>>() else {
            continue;
        };
        if seen.insert(ids) {
            out.push(row);
            if seen.len() >= cap {
                break;
            }
        }
    }
    out
}

impl Plan<'_> {
    /// Runs the plan to completion with the first step's candidate range
    /// partitioned across `threads` worker threads, collecting a
    /// [`ResultSet`] **byte-identical** to [`Plan::run`]'s — row order,
    /// DISTINCT winners and OFFSET/LIMIT windows included.
    ///
    /// `store` must be the very store the plan was prepared against
    /// (checked by a debug assertion); it is taken again here, typed,
    /// because sharing it across threads requires a `Sync` bound the
    /// plan's internal `&dyn TripleStore` cannot express.
    ///
    /// Falls back to the single-threaded walk when parallelism cannot
    /// help: `threads <= 1`, ASK (first-solution short-circuit beats any
    /// fan-out), statically empty plans, empty BGPs, or fewer first-step
    /// candidates than two shards' worth.
    ///
    /// ```
    /// use hexastore::GraphStore;
    /// use hex_query::DatasetQuery;
    ///
    /// let mut g = GraphStore::new();
    /// g.load_ntriples(r#"
    /// <http://x/ID3> <http://x/advisor> <http://x/ID2> .
    /// <http://x/ID4> <http://x/advisor> <http://x/ID1> .
    /// "#).unwrap();
    /// let frozen = g.freeze();
    /// let plan = frozen.prepare("SELECT ?s WHERE { ?s <http://x/advisor> ?a . }").unwrap();
    /// assert_eq!(plan.run_parallel(frozen.store(), 4), plan.run());
    /// ```
    pub fn run_parallel<S: TripleStore + Sync>(&self, store: &S, threads: usize) -> ResultSet {
        debug_assert!(
            std::ptr::eq(self.store_data_ptr(), store as *const S as *const ()),
            "run_parallel must be handed the same store the plan was prepared against"
        );
        let query = self.query();
        let prepared = self.prepared();
        let bgp = match prepared.bgp() {
            Some(bgp) if !bgp.patterns.is_empty() => bgp,
            _ => return self.run(),
        };
        if threads <= 1 || query.ask {
            return self.run();
        }
        // The first fan-out's extent: the merge group's candidates,
        // intersected once here and borrowed by every shard, or the first
        // pattern's matches. Concatenating the shards' outputs in range
        // order reproduces the serial cursor's row sequence exactly.
        let candidates = prepared.merge_candidates(bgp, store);
        let n = match &candidates {
            Some(list) => list.len(),
            None => {
                store.count_matching(bgp.patterns[self.steps()[0].pattern].access(&bgp.empty_row()))
            }
        };
        let workers = threads.min(n);
        if workers <= 1 {
            return self.run();
        }
        let candidates = candidates.as_deref();
        let shard_cap = prepared.distinct_shard_cap();
        let slots = &query.slots[..];
        let shards: Vec<Vec<Vec<Option<Id>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let shard = (w * n / workers, (w + 1) * n / workers);
                    scope.spawn(move || {
                        let candidates = candidates.map(Cow::Borrowed);
                        let cursor = prepared.cursor(bgp, store, candidates, Some(shard));
                        collect_shard(cursor, slots, shard_cap)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("query worker panicked")).collect()
        });
        let merged = shards.into_iter().flatten();
        let rows = self.solutions_over(Some(Box::new(merged))).collect();
        ResultSet { vars: query.vars.clone(), rows }
    }
}

#[cfg(test)]
mod tests {
    use crate::algebra::{Bgp, Pattern, PatternTerm, VarId};
    use crate::engine::{CompiledQuery, Plan};
    use crate::prepare_on;
    use hex_dict::{Dictionary, Id, IdTriple};
    use hexastore::{FrozenHexastore, Hexastore, TripleStore};
    use proptest::prelude::*;
    use rdf_model::Term;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    /// A dictionary decoding ids `0..n` (so result rows can decode).
    fn dict_of(n: u32) -> Dictionary {
        let mut dict = Dictionary::new();
        for i in 0..n {
            dict.encode(&Term::iri(format!("http://x/t{i}")));
        }
        dict
    }

    /// A chain-join dataset with fan-out: students → advisors → schools.
    fn chain() -> (FrozenHexastore, Dictionary) {
        let mut store = Hexastore::new();
        for s in 0..40u32 {
            store.insert(t(s, 90, 50 + s % 5)); // advisor
            store.insert(t(50 + s % 5, 91, 60 + s % 3)); // worksFor
            store.insert(t(s, 92, 70)); // type
        }
        let dict = dict_of(100);
        (store.freeze(), dict)
    }

    #[test]
    fn parallel_matches_single_threaded_byte_for_byte() {
        let (store, dict) = chain();
        let queries = [
            "SELECT ?s ?a WHERE { ?s <http://x/t90> ?a . }",
            "SELECT ?s ?w WHERE { ?s <http://x/t90> ?a . ?a <http://x/t91> ?w . }",
            "SELECT DISTINCT ?a ?w WHERE { ?s <http://x/t90> ?a . ?a <http://x/t91> ?w . }",
            "SELECT ?s WHERE { ?s <http://x/t92> <http://x/t70> . } OFFSET 7 LIMIT 9",
            "SELECT ?s WHERE { ?s <http://x/t90> ?a . FILTER(?a != <http://x/t52>) }",
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }",
            "ASK { ?s <http://x/t90> ?a . }",
        ];
        for q in queries {
            let plan = prepare_on(&store, &dict, q).unwrap();
            let reference = plan.run();
            for threads in [1, 2, 3, 4, 7, 64] {
                let got = plan.run_parallel(&store, threads);
                assert_eq!(got, reference, "query {q} with {threads} threads");
            }
        }
    }

    #[test]
    fn degenerate_plans_fall_back() {
        let (store, dict) = chain();
        // Statically empty: constant absent from the dictionary.
        let plan =
            prepare_on(&store, &dict, "SELECT ?s WHERE { ?s <http://x/nope> ?o . }").unwrap();
        assert!(plan.run_parallel(&store, 4).is_empty());
        // Empty BGP: one empty row.
        let q = CompiledQuery {
            bgp: Some(Bgp::new(vec![])),
            vars: vec![],
            slots: vec![],
            var_names: vec![],
            distinct: false,
            filters: vec![],
            ask: false,
            limit: None,
            offset: 0,
        };
        let plan = Plan::from_compiled(q, &dict, &store);
        assert_eq!(plan.run_parallel(&store, 4).len(), 1);
        // First step matches nothing: zero shards, still correct.
        let plan =
            prepare_on(&store, &dict, "SELECT ?s WHERE { ?s <http://x/t91> <http://x/t99> . }")
                .unwrap();
        assert!(plan.run_parallel(&store, 4).is_empty());
    }

    /// Strategy: a small random triple set plus a random 1–3 pattern BGP
    /// with random modifiers — the oracle space for the equivalence
    /// property below.
    fn term_strategy() -> impl Strategy<Value = PatternTerm> {
        prop_oneof![
            (0u32..12).prop_map(|id| PatternTerm::Const(Id(id))),
            (0u16..4).prop_map(|v| PatternTerm::Var(VarId(v))),
        ]
    }

    fn pattern_strategy() -> impl Strategy<Value = Pattern> {
        (term_strategy(), term_strategy(), term_strategy())
            .prop_map(|(s, p, o)| Pattern::new(s, p, o))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn parallel_equals_single_threaded_oracle(
            triples in proptest::collection::vec((0u32..12, 0u32..12, 0u32..12), 0..60),
            patterns in proptest::collection::vec(pattern_strategy(), 1..4),
            distinct in (0u8..2).prop_map(|b| b == 1),
            limit in proptest::option::of(0usize..20),
            offset in 0usize..5,
            threads in 2usize..9,
        ) {
            let store =
                Hexastore::from_triples(triples.into_iter().map(|(s, p, o)| t(s, p, o))).freeze();
            let dict = dict_of(12);
            let bgp = Bgp::new(patterns);
            // Project every variable the BGP binds, in slot order.
            let slots: Vec<VarId> = (0..bgp.var_count).map(VarId).collect();
            let q = CompiledQuery {
                vars: slots.iter().map(|v| format!("v{}", v.0)).collect(),
                var_names: slots.iter().map(|v| format!("v{}", v.0)).collect(),
                slots,
                bgp: Some(bgp),
                distinct,
                filters: vec![],
                ask: false,
                limit,
                offset,
            };
            let plan = Plan::from_compiled(q, &dict, &store);
            let reference = plan.run();
            let got = plan.run_parallel(&store, threads);
            prop_assert_eq!(got, reference);
        }
    }
}
