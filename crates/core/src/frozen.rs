//! Read-only Hexastores over flat slabs: zero-copy query structures.
//!
//! The mutable [`Hexastore`] pays for updatability with one heap
//! allocation per vector and per terminal list. Most production stores
//! spend their life *read-only* — bulk-loaded once, queried millions of
//! times, snapshotted to disk between restarts — so this module provides
//! the frozen counterparts:
//!
//! - [`FrozenHexastore`]: all six orderings as [`FlatVecMap`] /
//!   [`FlatArena`] columns, paired orderings still sharing one terminal
//!   item column, answering every access shape with the same single
//!   probes as the mutable store but with zero per-list allocations;
//! - [`FrozenPartialHexastore`]: the frozen form of a
//!   [`PartialHexastore`] — only the kept orderings, each owning its
//!   lists.
//!
//! Conversions are loss-free both ways ([`Hexastore::freeze`] /
//! [`FrozenHexastore::thaw`], and likewise for partial stores), and
//! [`crate::bulk::build_frozen`] emits the slabs *directly* from sorted
//! runs without ever materializing the nested mutable form. The flat
//! layout is also exactly what the [`crate::hexsnap`] binary snapshot
//! stores, which is what makes "open a snapshot into a query-ready
//! store" a column read instead of a six-index rebuild — or, through
//! [`FrozenHexastore::from_columns`] and the `hex-disk` crate, no read
//! at all: the columns can be windows of a memory-mapped file, served
//! by this same read path.

use crate::advisor::{IndexKind, IndexSet};
use crate::arena::ListArena;
use crate::partial::{project, unproject, PartialHexastore};
use crate::pattern::{IdPattern, Shape};
use crate::slab::{Column, FlatArena, FlatVecMap, Span};
use crate::sorted;
use crate::store::{Hexastore, SpaceStats, TwoLevel};
use crate::traits::{SortedListAccess, TripleIter, TripleStore};
use crate::vecmap::VecMap;
use hex_dict::{Id, IdTriple};
use std::ops::Range;
use std::sync::Arc;

/// One frozen ordering: a flat two-level index. `k1` maps each header to
/// a [`Span`] over the parallel `k2`/`lists` columns; `lists` holds the
/// terminal-list index in the ordering's [`FlatArena`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub(crate) struct FrozenIndex {
    pub(crate) k1: FlatVecMap<Id, Span>,
    pub(crate) k2: Column<Id>,
    pub(crate) lists: Column<u32>,
}

impl FrozenIndex {
    pub(crate) fn with_capacity(headers: usize, pairs: usize) -> Self {
        FrozenIndex {
            k1: FlatVecMap::with_capacity(headers),
            k2: Column::with_capacity(pairs),
            lists: Column::with_capacity(pairs),
        }
    }

    /// Starts a `k1` group; pass the result to [`Self::end_k1`].
    pub(crate) fn begin_k1(&self) -> u32 {
        u32::try_from(self.k2.len()).expect("frozen index overflow: 2^32 vector entries")
    }

    /// Appends one `(k2, list)` leaf to the open group.
    pub(crate) fn push_leaf(&mut self, k2: Id, list: u32) {
        self.k2.vec_mut().push(k2);
        self.lists.vec_mut().push(list);
    }

    /// Closes a `k1` group started at `start`.
    pub(crate) fn end_k1(&mut self, k1: Id, start: u32) {
        let len = u32::try_from(self.k2.len()).expect("frozen index overflow") - start;
        debug_assert!(len > 0, "index headers never map to empty vectors");
        self.k1.push_sorted(k1, Span { off: start, len });
    }

    /// The columns as plain slices, dereferenced once — a shared column
    /// costs a dynamic call per dereference, so a probe takes its
    /// slices up front. `k2` and `lists` are cut to a common length.
    fn view(&self) -> IndexView<'_> {
        let (k2, lists): (&[Id], &[u32]) = (&self.k2, &self.lists);
        let n = k2.len().min(lists.len());
        IndexView {
            keys: self.k1.keys(),
            spans: self.k1.values(),
            k2: &k2[..n],
            lists: &lists[..n],
        }
    }

    /// The `(k2, list)` leaves of one header's span, in stored order.
    fn leaves(&self, span: Span) -> impl Iterator<Item = (Id, u32)> + '_ {
        let (k2, lists) = self.view().group(span);
        k2.iter().copied().zip(lists.iter().copied())
    }

    fn header_count(&self) -> usize {
        self.k1.len()
    }

    fn pair_count(&self) -> usize {
        self.k2.len()
    }

    fn heap_bytes(&self) -> usize {
        self.k1.heap_bytes() + self.k2.heap_bytes() + self.lists.heap_bytes()
    }

    /// Reassembles an index from deserialized columns, validating the
    /// structural invariants binary search relies on: spans tile the
    /// `k2`/`lists` columns exactly in header order, every group's `k2`
    /// run is strictly ascending, and every list index is in range for
    /// the `arena_lists`-sized arena. Returns `None` on any violation.
    pub(crate) fn from_raw_parts(
        k1: FlatVecMap<Id, Span>,
        k2: Vec<Id>,
        lists: Vec<u32>,
        arena_lists: usize,
    ) -> Option<Self> {
        if k2.len() != lists.len() {
            return None;
        }
        let mut cursor = 0usize;
        for (_, span) in k1.iter() {
            if span.len == 0 || span.off as usize != cursor {
                return None;
            }
            cursor += span.len();
            if cursor > k2.len() {
                return None;
            }
            if k2[span.range()].windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
        }
        if cursor != k2.len() || lists.iter().any(|&l| (l as usize) >= arena_lists) {
            return None;
        }
        Some(FrozenIndex { k1, k2: k2.into(), lists: lists.into() })
    }
}

/// A [`FrozenIndex`]'s columns as plain slices (see
/// [`FrozenIndex::view`]).
#[derive(Clone, Copy)]
struct IndexView<'a> {
    keys: &'a [Id],
    spans: &'a [Span],
    k2: &'a [Id],
    lists: &'a [u32],
}

impl<'a> IndexView<'a> {
    /// The parallel `k2`/`lists` windows of one header's span, clamped
    /// to the columns (see the trust model in [`crate::slab`]).
    fn group(self, span: Span) -> (&'a [Id], &'a [u32]) {
        let window = span.clamped(self.k2.len());
        (&self.k2[window.clone()], &self.lists[window])
    }
}

/// A binary search's hit as a one-element range, a miss as an empty one.
fn hit(found: Result<usize, usize>) -> Range<usize> {
    found.map_or(0..0, |i| i..i + 1)
}

/// The keys `pat` binds, in the key order of ordering `kind`, and how
/// many positions it binds. Every ordering that serves the pattern's
/// shape ([`crate::advisor::serving_indices`]) puts the bound positions
/// first, so `bound` keys are a prefix of the ordering.
fn keys_of(kind: IndexKind, pat: IdPattern) -> (usize, (Id, Id, Id)) {
    let or0 = |x: Option<Id>| x.unwrap_or(Id(0));
    let bound = [pat.s, pat.p, pat.o].iter().flatten().count();
    (bound, project(kind, IdTriple::new(or0(pat.s), or0(pat.p), or0(pat.o))))
}

/// The answer of a pattern binding two or three positions, in an
/// ordering serving it: one terminal list, narrowed to the bound item
/// when all three are bound — two binary searches, no walk. `None` for
/// patterns binding fewer positions.
fn point<'a>(
    kind: IndexKind,
    ix: &'a FrozenIndex,
    arena: &'a FlatArena,
    pat: IdPattern,
) -> Option<&'a [Id]> {
    let (bound, (k1, k2, item)) = keys_of(kind, pat);
    if bound < 2 {
        return None;
    }
    let ix = ix.view();
    let list = match ix.keys.binary_search(&k1).ok().and_then(|h| ix.spans.get(h)) {
        Some(&span) => {
            let (k2s, lists) = ix.group(span);
            k2s.binary_search(&k2).map_or(&[][..], |i| arena.get(lists[i]))
        }
        None => &[],
    };
    Some(if bound == 3 { &list[hit(list.binary_search(&item))] } else { list })
}

/// The triple of a two- or three-bound `pat` whose free position (if
/// any) holds `x` — how a [`point`] list's items become triples.
fn fill(pat: IdPattern, x: Id) -> IdTriple {
    IdTriple::new(pat.s.unwrap_or(x), pat.p.unwrap_or(x), pat.o.unwrap_or(x))
}

/// The matches of a pattern binding at most one position, in an
/// ordering serving it, as `(k1, k2, items)` groups in the ordering's
/// sort order: one header's division when a position is bound, every
/// header when none is. The leaves of a header are a slice walk, so
/// internal iteration (`sum`, `for_each`) runs as tight loops.
fn walk<'a>(
    kind: IndexKind,
    ix: &'a FrozenIndex,
    arena: &'a FlatArena,
    pat: IdPattern,
) -> impl Iterator<Item = (Id, Id, &'a [Id])> + 'a {
    let (bound, (k1, _, _)) = keys_of(kind, pat);
    debug_assert!(bound <= 1, "two- and three-bound patterns are point lookups");
    let (ix, arena) = (ix.view(), arena.view());
    let headers = if bound == 1 { hit(ix.keys.binary_search(&k1)) } else { 0..ix.keys.len() };
    headers.flat_map(move |h| {
        let (k2s, lists) = ix.group(ix.spans.get(h).copied().unwrap_or_default());
        let k1 = ix.keys[h];
        k2s.iter().zip(lists).map(move |(&k2, &l)| (k1, k2, arena.get(l)))
    })
}

/// The triples of [`walk`] groups of ordering `kind`.
fn unproject_groups<'a>(
    kind: IndexKind,
    groups: impl Iterator<Item = (Id, Id, &'a [Id])> + 'a,
) -> impl Iterator<Item = IdTriple> + 'a {
    groups.flat_map(move |(k1, k2, items)| items.iter().map(move |&x| unproject(kind, k1, k2, x)))
}

/// Every triple matching `pat` in ordering `kind`, as a cursor.
fn triples<'a>(
    kind: IndexKind,
    ix: &'a FrozenIndex,
    arena: &'a FlatArena,
    pat: IdPattern,
) -> TripleIter<'a> {
    match point(kind, ix, arena, pat) {
        Some(list) => Box::new(list.iter().map(move |&x| fill(pat, x))),
        None => Box::new(unproject_groups(kind, walk(kind, ix, arena, pat))),
    }
}

/// One frozen index pair: primary ordering, mirror ordering, shared arena.
pub(crate) type FrozenPair = (FrozenIndex, FrozenIndex, FlatArena);

/// The columns of one terminal-list arena, as the `hexsnap` `FROZ`
/// section stores them; input to [`FrozenHexastore::from_columns`].
pub struct ArenaColumns {
    /// The `(offset, len)` window of each list in `items`.
    pub spans: Column<Span>,
    /// Every list's sorted items, concatenated.
    pub items: Column<Id>,
}

/// The columns of one ordering, as the `hexsnap` `FROZ` section stores
/// them; input to [`FrozenHexastore::from_columns`].
pub struct OrderingColumns {
    /// Sorted header keys.
    pub keys: Column<Id>,
    /// Each header's window of `k2`/`lists`, parallel to `keys`.
    pub spans: Column<Span>,
    /// Second-level keys, ascending within each header's window.
    pub k2: Column<Id>,
    /// The arena list of each `(k1, k2)` leaf, parallel to `k2`.
    pub lists: Column<u32>,
}

/// A read-only Hexastore over flat slabs.
///
/// Holds the same six orderings and three shared terminal-list arenas as
/// the mutable [`Hexastore`], but every level is a contiguous column:
/// lookups are binary searches over key columns and terminal lists are
/// slices of one item column — no nested vectors, no per-list heap
/// blocks. Obtain one with [`Hexastore::freeze`], the direct bulk path
/// [`crate::bulk::build_frozen`], by opening a [`crate::hexsnap`]
/// snapshot with prebuilt slab sections, or over shared (for example
/// memory-mapped) columns with [`FrozenHexastore::from_columns`].
///
/// Frozen stores are immutable: [`TripleStore::insert`] and
/// [`TripleStore::remove`] panic. Use [`FrozenHexastore::thaw`] to get an
/// updatable [`Hexastore`] back (loss-free).
///
/// The slabs live behind one shared allocation, so [`Clone`] is a
/// reference-count bump, never a column copy — cloning a frozen store is
/// how a snapshot is handed to another reader thread
/// ([`crate::LiveGraphStore::subscribe`] publishes exactly such clones),
/// and the store is [`Send`]`+`[`Sync`] because nothing in it mutates.
///
/// ```
/// use hexastore::{FrozenHexastore, IdPattern, TripleStore};
/// use hex_dict::IdTriple;
///
/// let frozen = FrozenHexastore::from_triples([
///     IdTriple::from((0, 1, 2)),
///     IdTriple::from((0, 1, 3)),
///     IdTriple::from((4, 1, 2)),
/// ]);
/// assert_eq!(frozen.count_matching(IdPattern::o(hex_dict::Id(2))), 2);
/// let mut thawed = frozen.thaw();
/// assert!(thawed.insert(IdTriple::from((9, 9, 9))));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct FrozenHexastore {
    inner: Arc<FrozenInner>,
}

/// The shared slab payload of a [`FrozenHexastore`]: six orderings over
/// three paired terminal arenas. One allocation, arbitrarily many
/// reader handles.
#[derive(PartialEq, Eq)]
struct FrozenInner {
    spo: FrozenIndex,
    sop: FrozenIndex,
    pso: FrozenIndex,
    pos: FrozenIndex,
    osp: FrozenIndex,
    ops: FrozenIndex,
    /// Terminal object lists, shared by spo and pso.
    o_lists: FlatArena,
    /// Terminal property lists, shared by sop and osp.
    p_lists: FlatArena,
    /// Terminal subject lists, shared by pos and ops.
    s_lists: FlatArena,
    len: usize,
}

impl FrozenHexastore {
    /// Bulk-builds a frozen store from an arbitrary triple collection —
    /// sorted runs are emitted straight into the slabs, never through the
    /// mutable nested representation.
    pub fn from_triples(triples: impl IntoIterator<Item = IdTriple>) -> Self {
        crate::bulk::build_frozen(triples.into_iter().collect())
    }

    pub(crate) fn from_parts(
        spo_pair: FrozenPair,
        sop_pair: FrozenPair,
        pos_pair: FrozenPair,
        len: usize,
    ) -> Self {
        let (spo, pso, o_lists) = spo_pair;
        let (sop, osp, p_lists) = sop_pair;
        let (pos, ops, s_lists) = pos_pair;
        Self::from_raw_parts([spo, sop, pso, pos, osp, ops], [o_lists, p_lists, s_lists], len)
    }

    /// Assembles a store from slab columns — typically typed windows of
    /// a memory-mapped `hexsnap` file — in the canonical section order:
    /// arenas object, property, subject lists; orderings spo, sop, pso,
    /// pos, osp, ops.
    ///
    /// Only O(columns) structural checks are made: every arena holds
    /// `len` items, and parallel columns have equal lengths. The column
    /// data is never read, so this costs the same for any store size;
    /// the clamped readers turn data-level corruption into wrong
    /// answers, never a panic (see the trust model in [`crate::slab`]).
    /// [`crate::hexsnap::load_frozen`] validates fully instead.
    pub fn from_columns(
        len: usize,
        arenas: [ArenaColumns; 3],
        orderings: [OrderingColumns; 6],
    ) -> Result<Self, &'static str> {
        if arenas.iter().any(|a| a.items.len() != len) {
            return Err("declared triple count disagrees with slab columns");
        }
        if orderings.iter().any(|o| o.keys.len() != o.spans.len() || o.k2.len() != o.lists.len()) {
            return Err("parallel ordering columns differ in length");
        }
        Ok(Self::from_raw_parts(
            orderings.map(|o| FrozenIndex {
                k1: FlatVecMap::from_columns(o.keys, o.spans),
                k2: o.k2,
                lists: o.lists,
            }),
            arenas.map(|a| FlatArena::from_columns(a.items, a.spans)),
            len,
        ))
    }

    /// The six orderings in canonical order (spo, sop, pso, pos, osp,
    /// ops) — the serialization walk of the `hexsnap` format.
    pub(crate) fn orderings(&self) -> [&FrozenIndex; 6] {
        [
            &self.inner.spo,
            &self.inner.sop,
            &self.inner.pso,
            &self.inner.pos,
            &self.inner.osp,
            &self.inner.ops,
        ]
    }

    /// The three shared arenas in canonical order (object, property,
    /// subject lists).
    pub(crate) fn arenas(&self) -> [&FlatArena; 3] {
        [&self.inner.o_lists, &self.inner.p_lists, &self.inner.s_lists]
    }

    pub(crate) fn from_raw_parts(
        orderings: [FrozenIndex; 6],
        arenas: [FlatArena; 3],
        len: usize,
    ) -> Self {
        let [spo, sop, pso, pos, osp, ops] = orderings;
        let [o_lists, p_lists, s_lists] = arenas;
        FrozenHexastore {
            inner: Arc::new(FrozenInner {
                spo,
                sop,
                pso,
                pos,
                osp,
                ops,
                o_lists,
                p_lists,
                s_lists,
                len,
            }),
        }
    }

    /// The ordering (and its arena) that serves `shape` in the paper's
    /// one probe. The choice fixes the order matches come out in: spo
    /// for everything subject-led, sop for `(s, o)`, pso for `p`, pos
    /// for `(p, o)`, osp for `o`.
    fn route(&self, shape: Shape) -> (IndexKind, &FrozenIndex, &FlatArena) {
        let i = &*self.inner;
        match shape {
            Shape::Spo | Shape::Sp | Shape::S | Shape::None_ => {
                (IndexKind::Spo, &i.spo, &i.o_lists)
            }
            Shape::So => (IndexKind::Sop, &i.sop, &i.p_lists),
            Shape::Po => (IndexKind::Pos, &i.pos, &i.s_lists),
            Shape::P => (IndexKind::Pso, &i.pso, &i.o_lists),
            Shape::O => (IndexKind::Osp, &i.osp, &i.p_lists),
        }
    }

    /// [`point`] over the ordering serving `pat`.
    fn point(&self, pat: IdPattern) -> Option<&[Id]> {
        let (kind, ix, arena) = self.route(pat.shape());
        point(kind, ix, arena, pat)
    }

    /// Sorted objects o with (s, p, o) stored — the spo/pso shared list.
    pub fn objects_for(&self, s: Id, p: Id) -> &[Id] {
        self.point(IdPattern::sp(s, p)).unwrap_or_default()
    }

    /// Sorted properties p with (s, p, o) stored — the sop/osp shared list.
    pub fn properties_for(&self, s: Id, o: Id) -> &[Id] {
        self.point(IdPattern::so(s, o)).unwrap_or_default()
    }

    /// Sorted subjects s with (s, p, o) stored — the pos/ops shared list.
    pub fn subjects_for(&self, p: Id, o: Id) -> &[Id] {
        self.point(IdPattern::po(p, o)).unwrap_or_default()
    }

    /// Sorted iterator over all distinct subjects.
    pub fn subjects(&self) -> impl Iterator<Item = Id> + '_ {
        self.inner.spo.k1.keys().iter().copied()
    }

    /// Sorted iterator over all distinct properties.
    pub fn properties(&self) -> impl Iterator<Item = Id> + '_ {
        self.inner.pso.k1.keys().iter().copied()
    }

    /// Sorted iterator over all distinct objects.
    pub fn objects(&self) -> impl Iterator<Item = Id> + '_ {
        self.inner.osp.k1.keys().iter().copied()
    }

    /// Number of distinct subjects.
    pub fn subject_count(&self) -> usize {
        self.inner.spo.header_count()
    }

    /// Number of distinct properties.
    pub fn property_count(&self) -> usize {
        self.inner.pso.header_count()
    }

    /// Number of distinct objects.
    pub fn object_count(&self) -> usize {
        self.inner.osp.header_count()
    }

    /// The largest id referenced anywhere in the slabs, if any — the
    /// snapshot loader's bound check against the dictionary size.
    pub(crate) fn max_id(&self) -> Option<Id> {
        let mut max: Option<Id> = None;
        let mut update = |candidate: Option<Id>| {
            if let Some(c) = candidate {
                max = Some(max.map_or(c, |m| m.max(c)));
            }
        };
        for ix in self.orderings() {
            // Header keys are sorted; k2 groups are only locally sorted.
            update(ix.k1.keys().last().copied());
            update(ix.k2.iter().max().copied());
        }
        for arena in self.arenas() {
            update(arena.items_raw().iter().max().copied());
        }
        max
    }

    /// The same header/vector/list entry accounting as
    /// [`Hexastore::space_stats`] — freezing never changes the paper's
    /// §4.1 quantities, only how they are laid out.
    pub fn space_stats(&self) -> SpaceStats {
        SpaceStats {
            triples: self.inner.len,
            header_entries: self.orderings().iter().map(|ix| ix.header_count()).sum(),
            vector_entries: self.orderings().iter().map(|ix| ix.pair_count()).sum(),
            list_entries: self.arenas().iter().map(|a| a.total_items()).sum(),
        }
    }

    /// Converts back into a mutable [`Hexastore`] (loss-free: the same
    /// triples, sharing structure, and space accounting).
    pub fn thaw(self) -> Hexastore {
        let spo_pair = thaw_pair(&self.inner.spo, &self.inner.pso, &self.inner.o_lists);
        let sop_pair = thaw_pair(&self.inner.sop, &self.inner.osp, &self.inner.p_lists);
        let pos_pair = thaw_pair(&self.inner.pos, &self.inner.ops, &self.inner.s_lists);
        Hexastore::from_built_parts(spo_pair, sop_pair, pos_pair, self.inner.len)
    }
}

impl std::fmt::Debug for FrozenHexastore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenHexastore")
            .field("triples", &self.inner.len)
            .field("subjects", &self.subject_count())
            .field("properties", &self.property_count())
            .field("objects", &self.object_count())
            .finish()
    }
}

impl Hexastore {
    /// Builds the read-only flat-slab representation. The conversion
    /// walks each index pair once and allocates the slabs at their exact
    /// final sizes; shared terminal lists stay shared (each list is
    /// copied into the pair's item column exactly once). Borrows `self`,
    /// so the mutable store can keep serving while a snapshot freezes.
    pub fn freeze(&self) -> FrozenHexastore {
        let [(spo, pso, o), (sop, osp, p), (pos, ops, s)] = self.pair_refs();
        let spo_pair = freeze_pair(spo, pso, o);
        let sop_pair = freeze_pair(sop, osp, p);
        let pos_pair = freeze_pair(pos, ops, s);
        FrozenHexastore::from_parts(spo_pair, sop_pair, pos_pair, self.len())
    }
}

/// Flattens one mutable index pair. The primary walk visits every live
/// arena list exactly once (each list is keyed by exactly one `(k1, k2)`
/// pair of the primary ordering), which both fills the flat arena in
/// primary order and yields the `ListId` → flat-index remapping the
/// mirror walk needs to preserve sharing.
fn freeze_pair(primary: &TwoLevel, mirror: &TwoLevel, arena: &ListArena) -> FrozenPair {
    let pairs: usize = primary.values().map(VecMap::len).sum();
    let mut fprimary = FrozenIndex::with_capacity(primary.len(), pairs);
    let mut farena = FlatArena::with_capacity(arena.live_lists(), arena.total_items());
    let mut remap = vec![u32::MAX; arena.slot_count()];
    for (k1, inner) in primary.iter() {
        let start = fprimary.begin_k1();
        for (k2, &lid) in inner.iter() {
            let flat = farena.push_list(arena.get(lid).iter().copied());
            remap[lid.index()] = flat;
            fprimary.push_leaf(k2, flat);
        }
        fprimary.end_k1(k1, start);
    }
    let mut fmirror = FrozenIndex::with_capacity(mirror.len(), pairs);
    for (k2, inner) in mirror.iter() {
        let start = fmirror.begin_k1();
        for (k1, &lid) in inner.iter() {
            debug_assert_ne!(remap[lid.index()], u32::MAX, "mirror references unknown list");
            fmirror.push_leaf(k1, remap[lid.index()]);
        }
        fmirror.end_k1(k2, start);
    }
    (fprimary, fmirror, farena)
}

/// Rebuilds one mutable index pair from its frozen form, append-only.
fn thaw_pair(
    fprimary: &FrozenIndex,
    fmirror: &FrozenIndex,
    farena: &FlatArena,
) -> (TwoLevel, TwoLevel, ListArena) {
    let mut arena = ListArena::with_capacity(farena.list_count());
    let mut remap: Vec<Option<crate::arena::ListId>> = vec![None; farena.list_count()];
    let mut primary = TwoLevel::with_capacity(fprimary.header_count());
    for (k1, &span) in fprimary.k1.iter() {
        let mut inner = VecMap::with_capacity(span.len());
        for (k2, flat) in fprimary.leaves(span) {
            let lid = arena.alloc_sorted(farena.get(flat).to_vec());
            if let Some(slot) = remap.get_mut(flat as usize) {
                *slot = Some(lid);
            }
            inner.push_sorted(k2, lid);
        }
        primary.push_sorted(k1, inner);
    }
    let mut mirror = TwoLevel::with_capacity(fmirror.header_count());
    for (k2, &span) in fmirror.k1.iter() {
        let mut inner = VecMap::with_capacity(span.len());
        // A leaf naming no primary list exists only in a corrupt mapped
        // file; it is dropped rather than trusted.
        for (k1, flat) in fmirror.leaves(span) {
            if let Some(lid) = remap.get(flat as usize).copied().flatten() {
                inner.push_sorted(k1, lid);
            }
        }
        mirror.push_sorted(k2, inner);
    }
    (primary, mirror, arena)
}

impl TripleStore for FrozenHexastore {
    fn name(&self) -> &'static str {
        "FrozenHexastore"
    }

    fn len(&self) -> usize {
        self.inner.len
    }

    /// # Panics
    ///
    /// Always — frozen stores are read-only. [`FrozenHexastore::thaw`]
    /// first.
    fn insert(&mut self, _: IdTriple) -> bool {
        panic!("FrozenHexastore is read-only: thaw() to a mutable Hexastore first")
    }

    /// # Panics
    ///
    /// Always — frozen stores are read-only. [`FrozenHexastore::thaw`]
    /// first.
    fn remove(&mut self, _: IdTriple) -> bool {
        panic!("FrozenHexastore is read-only: thaw() to a mutable Hexastore first")
    }

    fn contains(&self, t: IdTriple) -> bool {
        sorted::contains(self.objects_for(t.s, t.p), &t.o)
    }

    fn for_each_matching(&self, pat: IdPattern, f: &mut dyn FnMut(IdTriple)) {
        // Direct loops — the visitor path must not pay the cursor's
        // boxing and per-triple dynamic dispatch on the store built for
        // fast reads.
        let (kind, ix, arena) = self.route(pat.shape());
        match point(kind, ix, arena, pat) {
            Some(list) => list.iter().for_each(|&x| f(fill(pat, x))),
            None => walk(kind, ix, arena, pat).for_each(|(k1, k2, items)| {
                items.iter().for_each(|&x| f(unproject(kind, k1, k2, x)))
            }),
        }
    }

    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        let (kind, ix, arena) = self.route(pat.shape());
        triples(kind, ix, arena, pat)
    }

    /// The flat layout makes a range start an offset computation: a
    /// point lookup slices its list, and a walk skips whole terminal
    /// lists ahead of `start` by length arithmetic, entering at most one
    /// mid-way — no triple ahead of `start` is ever constructed.
    fn iter_matching_range(&self, pat: IdPattern, start: usize, end: usize) -> TripleIter<'_> {
        let (kind, ix, arena) = self.route(pat.shape());
        if let Some(list) = point(kind, ix, arena, pat) {
            let hi = end.min(list.len());
            return Box::new(list[start.min(hi)..hi].iter().map(move |&x| fill(pat, x)));
        }
        let mut skip = start;
        let windowed = walk(kind, ix, arena, pat).filter_map(move |(k1, k2, items)| {
            let from = skip.min(items.len());
            skip -= from;
            (from < items.len()).then(|| (k1, k2, &items[from..]))
        });
        Box::new(unproject_groups(kind, windowed).take(end.saturating_sub(start)))
    }

    fn capabilities(&self) -> IndexSet {
        IndexSet::all()
    }

    fn count_matching(&self, pat: IdPattern) -> usize {
        match pat.shape() {
            Shape::None_ => self.inner.len,
            _ => {
                let (kind, ix, arena) = self.route(pat.shape());
                point(kind, ix, arena, pat).map_or_else(
                    || walk(kind, ix, arena, pat).map(|(_, _, items)| items.len()).sum(),
                    <[Id]>::len,
                )
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.orderings().iter().map(|ix| ix.heap_bytes()).sum::<usize>()
            + self.arenas().iter().map(|a| a.heap_bytes()).sum::<usize>()
    }

    fn sorted_lists(&self) -> Option<&dyn SortedListAccess> {
        Some(self)
    }
}

impl SortedListAccess for FrozenHexastore {
    fn sorted_list(&self, pat: IdPattern) -> Option<&[Id]> {
        two_bound(pat).then(|| self.point(pat)).flatten()
    }
}

/// True for the shapes whose matches are one terminal list.
fn two_bound(pat: IdPattern) -> bool {
    matches!(pat.shape(), Shape::Sp | Shape::So | Shape::Po)
}

/// The frozen form of a [`PartialHexastore`]: only the kept orderings,
/// each as one flat two-level index owning its terminal lists.
///
/// Like [`FrozenHexastore`], this is read-only (`insert`/`remove` panic);
/// [`FrozenPartialHexastore::thaw`] recovers the updatable form. Every
/// pattern is still answered: shapes without a kept serving ordering fall
/// back to filtering a scan, exactly like the mutable partial store.
#[derive(Clone, Debug)]
pub struct FrozenPartialHexastore {
    keep: IndexSet,
    orderings: Vec<(IndexKind, FrozenIndex, FlatArena)>,
    len: usize,
}

impl PartialHexastore {
    /// Builds the read-only flat-slab representation (exact-sized, one
    /// walk per kept ordering; borrows `self`).
    pub fn freeze(&self) -> FrozenPartialHexastore {
        let len = self.len();
        let orderings = self
            .parts()
            .map(|(kind, map)| {
                let pairs: usize = map.values().map(VecMap::len).sum();
                let items: usize =
                    map.values().flat_map(|inner| inner.values().map(Vec::len)).sum();
                let mut ix = FrozenIndex::with_capacity(map.len(), pairs);
                let mut arena = FlatArena::with_capacity(pairs, items);
                for (k1, inner) in map.iter() {
                    let start = ix.begin_k1();
                    for (k2, list) in inner.iter() {
                        let flat = arena.push_list(list.iter().copied());
                        ix.push_leaf(k2, flat);
                    }
                    ix.end_k1(k1, start);
                }
                (kind, ix, arena)
            })
            .collect();
        FrozenPartialHexastore { keep: self.kept(), orderings, len }
    }
}

impl FrozenPartialHexastore {
    /// The orderings this store maintains.
    pub fn kept(&self) -> IndexSet {
        self.keep
    }

    /// Whether the shape is answered by a direct probe (vs a fallback
    /// scan-and-filter).
    pub fn serves_directly(&self, shape: Shape) -> bool {
        crate::advisor::serving_indices(shape).intersects(self.keep)
    }

    /// Converts back into a mutable [`PartialHexastore`] (loss-free).
    pub fn thaw(self) -> PartialHexastore {
        let indices = self
            .orderings
            .iter()
            .map(|(kind, ix, arena)| {
                let mut map: crate::partial::OrderingMap = VecMap::with_capacity(ix.header_count());
                for (k1, &span) in ix.k1.iter() {
                    let mut inner = VecMap::with_capacity(span.len());
                    for (k2, l) in ix.leaves(span) {
                        inner.push_sorted(k2, arena.get(l).to_vec());
                    }
                    map.push_sorted(k1, inner);
                }
                (*kind, map)
            })
            .collect();
        PartialHexastore::from_raw_parts(self.keep, indices, self.len)
    }

    /// The first kept ordering able to serve `shape` directly.
    fn server_for(&self, shape: Shape) -> Option<&(IndexKind, FrozenIndex, FlatArena)> {
        crate::advisor::serving_indices(shape)
            .iter()
            .find(|k| self.keep.contains(*k))
            .and_then(|k| self.orderings.iter().find(|(kind, _, _)| *kind == k))
    }
}

impl TripleStore for FrozenPartialHexastore {
    fn name(&self) -> &'static str {
        "FrozenPartialHexastore"
    }

    fn len(&self) -> usize {
        self.len
    }

    /// # Panics
    ///
    /// Always — frozen stores are read-only.
    /// [`FrozenPartialHexastore::thaw`] first.
    fn insert(&mut self, _: IdTriple) -> bool {
        panic!("FrozenPartialHexastore is read-only: thaw() first")
    }

    /// # Panics
    ///
    /// Always — frozen stores are read-only.
    /// [`FrozenPartialHexastore::thaw`] first.
    fn remove(&mut self, _: IdTriple) -> bool {
        panic!("FrozenPartialHexastore is read-only: thaw() first")
    }

    fn contains(&self, t: IdTriple) -> bool {
        let (kind, ix, arena) = &self.orderings[0];
        point(*kind, ix, arena, IdPattern::spo(t)).is_some_and(|l| !l.is_empty())
    }

    fn for_each_matching(&self, pat: IdPattern, f: &mut dyn FnMut(IdTriple)) {
        // The reduced-index store keeps the single cursor implementation;
        // its access paths are already indirect (ordering lookup +
        // project/unproject), so a dedicated visitor buys little here.
        for t in self.iter_matching(pat) {
            f(t);
        }
    }

    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        match self.server_for(pat.shape()) {
            Some((kind, ix, arena)) => triples(*kind, ix, arena, pat),
            None => {
                // Degraded path: lazily filter a full scan of any kept
                // ordering.
                let (kind, ix, arena) = &self.orderings[0];
                Box::new(triples(*kind, ix, arena, IdPattern::ALL).filter(move |&t| pat.matches(t)))
            }
        }
    }

    fn capabilities(&self) -> IndexSet {
        self.keep
    }

    fn heap_bytes(&self) -> usize {
        self.orderings.iter().map(|(_, ix, arena)| ix.heap_bytes() + arena.heap_bytes()).sum()
    }

    fn sorted_lists(&self) -> Option<&dyn SortedListAccess> {
        Some(self)
    }
}

impl SortedListAccess for FrozenPartialHexastore {
    fn sorted_list(&self, pat: IdPattern) -> Option<&[Id]> {
        if !two_bound(pat) {
            return None;
        }
        // Any kept serving ordering works: a two-bound probe's terminal
        // list holds the unbound position's values, sorted, whichever of
        // the shape's serving orderings materialized it.
        let (kind, ix, arena) = self.server_for(pat.shape())?;
        point(*kind, ix, arena, pat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    fn sample() -> Vec<IdTriple> {
        vec![t(1, 2, 3), t(1, 2, 4), t(1, 5, 3), t(2, 2, 3), t(2, 5, 9), t(9, 9, 9), t(3, 2, 1)]
    }

    fn all_patterns(triples: &[IdTriple]) -> Vec<IdPattern> {
        let mut pats = vec![IdPattern::ALL, IdPattern::spo(t(0, 0, 0))];
        for &tr in triples {
            pats.extend([
                IdPattern::spo(tr),
                IdPattern::sp(tr.s, tr.p),
                IdPattern::so(tr.s, tr.o),
                IdPattern::po(tr.p, tr.o),
                IdPattern::s(tr.s),
                IdPattern::p(tr.p),
                IdPattern::o(tr.o),
            ]);
        }
        pats
    }

    #[test]
    fn freeze_preserves_every_access_path() {
        let mutable = Hexastore::from_triples(sample());
        let frozen = mutable.freeze();
        assert_eq!(frozen.len(), mutable.len());
        assert_eq!(frozen.space_stats(), mutable.space_stats());
        for pat in all_patterns(&sample()) {
            assert_eq!(frozen.matching(pat), mutable.matching(pat), "{pat:?}");
            assert_eq!(
                frozen.iter_matching(pat).collect::<Vec<_>>(),
                mutable.matching(pat),
                "{pat:?}"
            );
            assert_eq!(frozen.count_matching(pat), mutable.count_matching(pat), "{pat:?}");
        }
    }

    #[test]
    fn thaw_roundtrip_is_lossless_and_updatable() {
        let mutable = Hexastore::from_triples(sample());
        let mut thawed = mutable.freeze().thaw();
        assert_eq!(thawed.len(), mutable.len());
        assert_eq!(thawed.space_stats(), mutable.space_stats());
        assert_eq!(thawed.matching(IdPattern::ALL), mutable.matching(IdPattern::ALL));
        // The thawed store is fully updatable again.
        assert!(thawed.insert(t(42, 42, 42)));
        assert!(thawed.remove(t(1, 2, 3)));
        assert_eq!(thawed.len(), mutable.len());
    }

    #[test]
    fn frozen_lists_are_shared_within_pairs() {
        // Freezing must keep the §4.1 single-copy property: the o-list of
        // (s=1, p=2) reachable via spo and pso is the same column window.
        let frozen = Hexastore::from_triples(sample()).freeze();
        let via_spo = frozen.objects_for(Id(1), Id(2));
        let inner = &*frozen.inner;
        let pat = IdPattern::sp(Id(1), Id(2));
        let via_pso = point(IndexKind::Pso, &inner.pso, &inner.o_lists, pat).unwrap();
        assert_eq!(via_spo, &[Id(3), Id(4)]);
        assert!(std::ptr::eq(via_spo, via_pso), "pair orderings must reference one list");
        // Total items per pair equals the triple count, not double.
        assert_eq!(frozen.inner.o_lists.total_items(), frozen.len());
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn frozen_insert_panics() {
        let mut frozen = Hexastore::from_triples(sample()).freeze();
        frozen.insert(t(0, 0, 0));
    }

    #[test]
    fn frozen_partial_matches_mutable_for_every_subset() {
        for bits in 1u8..64 {
            let mut keep = IndexSet::EMPTY;
            for (i, kind) in IndexKind::ALL.into_iter().enumerate() {
                if bits & (1 << i) != 0 {
                    keep = keep.with(kind);
                }
            }
            let mutable = PartialHexastore::from_triples(keep, sample());
            let frozen = mutable.freeze();
            assert_eq!(frozen.kept(), mutable.kept(), "{keep:?}");
            assert_eq!(frozen.capabilities(), mutable.capabilities(), "{keep:?}");
            assert_eq!(frozen.len(), mutable.len(), "{keep:?}");
            for pat in all_patterns(&sample()) {
                assert_eq!(frozen.matching(pat), mutable.matching(pat), "{keep:?} {pat:?}");
                assert_eq!(
                    frozen.count_matching(pat),
                    mutable.count_matching(pat),
                    "{keep:?} {pat:?}"
                );
            }
            // Thaw recovers an updatable store with identical answers.
            let mut thawed = frozen.thaw();
            assert_eq!(thawed.matching(IdPattern::ALL), mutable.matching(IdPattern::ALL));
            assert!(thawed.insert(t(77, 77, 77)));
        }
    }

    #[test]
    fn iter_matching_range_is_the_exact_subsequence() {
        let frozen = Hexastore::from_triples(sample()).freeze();
        for pat in all_patterns(&sample()) {
            let full: Vec<IdTriple> = frozen.iter_matching(pat).collect();
            let n = full.len();
            for start in 0..=n + 1 {
                for end in start..=n + 2 {
                    let got: Vec<IdTriple> = frozen.iter_matching_range(pat, start, end).collect();
                    let want: Vec<IdTriple> =
                        full.iter().copied().skip(start).take(end - start).collect();
                    assert_eq!(got, want, "{pat:?} [{start}, {end})");
                }
            }
            // Contiguous shards reassemble the full cursor byte-identically.
            let mid = n / 2;
            let mut shards: Vec<IdTriple> = frozen.iter_matching_range(pat, 0, mid).collect();
            shards.extend(frozen.iter_matching_range(pat, mid, n));
            assert_eq!(shards, full, "{pat:?} sharded");
        }
    }

    #[test]
    fn clone_shares_the_slabs() {
        let frozen = Hexastore::from_triples(sample()).freeze();
        let clone = frozen.clone();
        assert_eq!(clone, frozen);
        // Same allocation, not a copy: the terminal columns are at the
        // same address through both handles.
        assert!(std::ptr::eq(
            frozen.inner.o_lists.items_raw().as_ptr(),
            clone.inner.o_lists.items_raw().as_ptr()
        ));
    }

    /// The store's slab columns, copied into shared providers — the
    /// shape `hex-disk` hands over, minus the mapping.
    fn shared_columns(frozen: &FrozenHexastore) -> ([ArenaColumns; 3], [OrderingColumns; 6]) {
        fn share<T: Clone + Send + Sync + 'static>(col: &[T]) -> Column<T> {
            Column::Shared(Arc::new(col.to_vec()))
        }
        let arenas = frozen
            .arenas()
            .map(|a| ArenaColumns { spans: share(a.spans_raw()), items: share(a.items_raw()) });
        let orderings = frozen.orderings().map(|ix| OrderingColumns {
            keys: share(ix.k1.keys()),
            spans: share(ix.k1.values()),
            k2: share(&ix.k2),
            lists: share(&ix.lists),
        });
        (arenas, orderings)
    }

    #[test]
    fn shared_columns_serve_the_same_read_path() {
        let frozen = Hexastore::from_triples(sample()).freeze();
        let (arenas, orderings) = shared_columns(&frozen);
        let shared = FrozenHexastore::from_columns(frozen.len(), arenas, orderings).unwrap();
        assert_eq!(shared, frozen);
        assert_eq!(shared.heap_bytes(), 0, "shared columns are not this store's heap");
        for pat in all_patterns(&sample()) {
            assert_eq!(shared.matching(pat), frozen.matching(pat), "{pat:?}");
            assert_eq!(shared.count_matching(pat), frozen.count_matching(pat), "{pat:?}");
        }
        assert_eq!(shared.thaw().matching(IdPattern::ALL), frozen.matching(IdPattern::ALL));
        // Structural checks: the declared length must match every arena.
        let (arenas, orderings) = shared_columns(&frozen);
        assert!(FrozenHexastore::from_columns(frozen.len() + 1, arenas, orderings).is_err());
    }

    #[test]
    fn corrupt_columns_read_as_wrong_answers_never_panics() {
        // Every span, list index and key points somewhere hostile: past
        // the end of its column, at u32::MAX, or into the wrong group.
        let frozen = Hexastore::from_triples(sample()).freeze();
        let (mut arenas, mut orderings) = shared_columns(&frozen);
        let bad = Span { off: u32::MAX - 1, len: 7 };
        arenas[0].spans = Column::Owned(vec![bad, Span { off: 2, len: u32::MAX }]);
        orderings[0].spans = Column::Owned(vec![bad; orderings[0].keys.len()]);
        orderings[2].lists = Column::Owned(vec![u32::MAX; orderings[2].k2.len()]);
        orderings[4].keys = Column::Owned(vec![Id(u32::MAX); orderings[4].keys.len()]);
        let corrupt = FrozenHexastore::from_columns(frozen.len(), arenas, orderings).unwrap();
        for pat in all_patterns(&sample()) {
            let n = corrupt.iter_matching(pat).count();
            corrupt.for_each_matching(pat, &mut |_| {});
            let _ = corrupt.iter_matching_range(pat, n / 2, n).count();
            let _ = corrupt.count_matching(pat);
            let _ = corrupt.sorted_list(pat);
        }
        let _ = corrupt.space_stats();
    }

    #[test]
    fn frozen_heap_bytes_do_not_exceed_mutable() {
        // Flat slabs drop the per-list allocation overhead; on any
        // non-trivial store the frozen footprint is at most the mutable
        // one (equal only in degenerate layouts).
        let triples: Vec<IdTriple> = (0..2000u32).map(|i| t(i % 97, i % 13, i)).collect();
        let mutable = Hexastore::from_triples(triples);
        let frozen_bytes = mutable.freeze().heap_bytes();
        assert!(
            frozen_bytes <= mutable.heap_bytes(),
            "frozen {} > mutable {}",
            frozen_bytes,
            mutable.heap_bytes()
        );
    }
}
