//! Property-based validation of the BGP executor against a brute-force
//! reference: enumerate *all* assignments of store triples to patterns and
//! keep the consistent ones. Slow but obviously correct — any divergence
//! in the planner, the access-path dispatch or the binding extension logic
//! shows up here.

use hex_dict::{Id, IdTriple};
use hex_query::{plan_steps, Bgp, BgpCursor, Pattern, PatternTerm, VarId};
use hexastore::{Hexastore, IdPattern, TripleStore};
use proptest::prelude::*;

fn arb_triple() -> impl Strategy<Value = IdTriple> {
    (0u32..6, 0u32..4, 0u32..6).prop_map(IdTriple::from)
}

fn arb_pattern_term(max_var: u16) -> impl Strategy<Value = PatternTerm> {
    prop_oneof![
        (0u32..6).prop_map(|v| PatternTerm::Const(Id(v))),
        (0u16..max_var).prop_map(|v| PatternTerm::Var(VarId(v))),
    ]
}

fn arb_bgp() -> impl Strategy<Value = Bgp> {
    proptest::collection::vec(
        (arb_pattern_term(3), arb_pattern_term(3), arb_pattern_term(3))
            .prop_map(|(s, p, o)| Pattern::new(s, p, o)),
        1..4,
    )
    .prop_map(Bgp::new)
}

/// Brute force: try every |store|^k assignment of triples to the k
/// patterns, keeping assignments whose variable bindings are consistent.
fn brute_force(store: &Hexastore, bgp: &Bgp) -> Vec<Vec<Option<Id>>> {
    let all = store.matching(IdPattern::ALL);
    let k = bgp.patterns.len();
    let mut results = Vec::new();
    let mut idx = vec![0usize; k];
    if all.is_empty() {
        return results;
    }
    'outer: loop {
        // Check the current assignment.
        let mut row = bgp.empty_row();
        let mut ok = true;
        'check: for (pat, &i) in bgp.patterns.iter().zip(&idx) {
            let t = all[i];
            for (term, value) in [(pat.s, t.s), (pat.p, t.p), (pat.o, t.o)] {
                match term {
                    PatternTerm::Const(c) => {
                        if c != value {
                            ok = false;
                            break 'check;
                        }
                    }
                    PatternTerm::Var(v) => match row[v.index()] {
                        Some(existing) if existing != value => {
                            ok = false;
                            break 'check;
                        }
                        _ => row[v.index()] = Some(value),
                    },
                }
            }
        }
        if ok {
            results.push(row);
        }
        // Next assignment.
        for slot in (0..k).rev() {
            idx[slot] += 1;
            if idx[slot] < all.len() {
                continue 'outer;
            }
            idx[slot] = 0;
            if slot == 0 {
                break 'outer;
            }
        }
    }
    results.sort();
    results.dedup();
    results
}

/// The executor's binding rows for `bgp`, walked in the planner's order.
fn planned_rows(store: &Hexastore, bgp: &Bgp) -> Vec<Vec<Option<Id>>> {
    let order: Vec<usize> = plan_steps(store, bgp).iter().map(|s| s.pattern).collect();
    BgpCursor::new(store, bgp, &order).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn executor_matches_brute_force(
        triples in proptest::collection::vec(arb_triple(), 0..10),
        bgp in arb_bgp(),
    ) {
        let store = Hexastore::from_triples(triples);
        let mut got = planned_rows(&store, &bgp);
        got.sort();
        got.dedup();
        let expected = brute_force(&store, &bgp);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn executor_is_order_invariant(
        triples in proptest::collection::vec(arb_triple(), 0..12),
        bgp in arb_bgp(),
    ) {
        let store = Hexastore::from_triples(triples);
        let reference = {
            let mut r = planned_rows(&store, &bgp);
            r.sort();
            r.dedup();
            r
        };
        // Every explicit evaluation order yields the same result set.
        let k = bgp.patterns.len();
        let mut order: Vec<usize> = (0..k).collect();
        // Enumerate permutations (k ≤ 3 → at most 6).
        permute(&mut order, 0, &mut |perm| {
            let mut rows = BgpCursor::new(&store, &bgp, perm).collect::<Vec<_>>();
            rows.sort();
            rows.dedup();
            assert_eq!(rows, reference, "order {perm:?}");
        });
    }
}

fn permute(items: &mut Vec<usize>, start: usize, f: &mut impl FnMut(&[usize])) {
    if start == items.len() {
        f(items);
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute(items, start + 1, f);
        items.swap(start, i);
    }
}
