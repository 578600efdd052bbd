//! The mmap-backed frozen store: a [`FrozenHexastore`] whose slab
//! columns are typed windows of the mapped `FROZ` section.

use crate::mmap::Mmap;
use hex_dict::{Id, IdTriple};
use hexastore::pattern::IdPattern;
use hexastore::traits::{SortedListAccess, TripleIter, TripleStore};
use hexastore::{
    ArenaColumns, Column, FrozenHexastore, IndexSet, OrderingColumns, SharedColumn, Span,
    StatsSource,
};
use std::sync::Arc;

/// A [`FrozenHexastore`] over a mapped `hexsnap` file: the slab columns
/// are *reinterpreted in place*, so opening touches only the section
/// headers and cold-query I/O is driven by page faults on exactly the
/// columns a query walks.
///
/// Obtain one with [`crate::open`] or [`crate::open_dataset`]. The
/// query path is the in-memory frozen store's own — this type only
/// forwards to it, and dereferences to it for
/// [`FrozenHexastore::objects_for`] and the other accessors. Like that
/// store it is read-only (`insert`/`remove` panic) and [`Clone`] is a
/// reference-count bump on the shared mapping.
///
/// Open-time validation is structural and O(sections); see the trust
/// model in [`hexastore::slab`] for what a corrupt file can and cannot
/// do. Files from untrusted writers should be opened through
/// [`hexastore::hexsnap::load_frozen`] instead, which validates fully.
#[derive(Clone)]
pub struct MmapFrozenHexastore {
    store: FrozenHexastore,
    map: Arc<Mmap>,
}

impl MmapFrozenHexastore {
    /// Bytes of file backing this store — the mapped region. The
    /// complement of [`TripleStore::heap_bytes`], which is near zero
    /// here: the columns live in the page cache, not on the heap.
    pub fn mapped_bytes(&self) -> usize {
        self.map.len()
    }
}

impl std::ops::Deref for MmapFrozenHexastore {
    type Target = FrozenHexastore;

    fn deref(&self) -> &FrozenHexastore {
        &self.store
    }
}

impl std::fmt::Debug for MmapFrozenHexastore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapFrozenHexastore")
            .field("triples", &self.store.len())
            .field("mapped_bytes", &self.mapped_bytes())
            .finish()
    }
}

impl TripleStore for MmapFrozenHexastore {
    fn name(&self) -> &'static str {
        "MmapFrozenHexastore"
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        self.store.insert(t)
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        self.store.remove(t)
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.store.contains(t)
    }

    fn for_each_matching(&self, pat: IdPattern, f: &mut dyn FnMut(IdTriple)) {
        self.store.for_each_matching(pat, f)
    }

    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        self.store.iter_matching(pat)
    }

    fn iter_matching_range(&self, pat: IdPattern, start: usize, end: usize) -> TripleIter<'_> {
        self.store.iter_matching_range(pat, start, end)
    }

    fn capabilities(&self) -> IndexSet {
        self.store.capabilities()
    }

    fn count_matching(&self, pat: IdPattern) -> usize {
        self.store.count_matching(pat)
    }

    /// Zero for the columns: they are mapped, not heap. See
    /// [`MmapFrozenHexastore::mapped_bytes`] for the file-backed size.
    fn heap_bytes(&self) -> usize {
        self.store.heap_bytes()
    }

    fn sorted_lists(&self) -> Option<&dyn SortedListAccess> {
        self.store.sorted_lists()
    }
}

impl StatsSource for MmapFrozenHexastore {}

/// Element types a mapped column may be reinterpreted as: 4-byte
/// aligned plain data for which every bit pattern is a valid value.
///
/// # Safety
///
/// Implementors must have alignment at most 4 and no invalid bit
/// patterns.
unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: `Id` is `repr(transparent)` over `u32`; `Span` is `repr(C)`
// `{ off: u32, len: u32 }` — exactly the byte pairs the writer emits.
unsafe impl Pod for Id {}
unsafe impl Pod for u32 {}
unsafe impl Pod for Span {}

/// `n` elements of `T` starting at `ptr`, inside the mapping `_map`
/// keeps alive. The pointer is resolved once, at open, so lending the
/// slice is a pointer-and-length copy — it happens on every probe.
struct MappedColumn<T> {
    _map: Arc<Mmap>,
    ptr: *const T,
    n: usize,
}

// SAFETY: the column only ever reads the immutable mapping it keeps
// alive, which is itself `Send + Sync`; `T: Pod` is plain data.
unsafe impl<T: Pod> Send for MappedColumn<T> {}
unsafe impl<T: Pod> Sync for MappedColumn<T> {}

impl<T: Pod> MappedColumn<T> {
    /// The `n` elements at byte offset `off` of `map`, or `None` when
    /// they run past the mapping or are not aligned for `T`.
    fn new(map: &Arc<Mmap>, off: usize, n: usize) -> Option<Self> {
        let end = n.checked_mul(std::mem::size_of::<T>())?.checked_add(off)?;
        let ptr = map.get(off..end)?.as_ptr().cast::<T>();
        ptr.is_aligned().then(|| MappedColumn { _map: Arc::clone(map), ptr, n })
    }
}

impl<T: Pod> AsRef<[T]> for MappedColumn<T> {
    fn as_ref(&self) -> &[T] {
        // SAFETY: `new` took `ptr` from an in-bounds byte range of the
        // mapping holding `n` elements and checked it is aligned for `T`;
        // the mapping stays mapped and unmodified while `_map` lives. Any
        // bit pattern is a valid `T` (`Pod`), and the crate compiles only
        // on little-endian targets, so file order is host order.
        unsafe { std::slice::from_raw_parts(self.ptr, self.n) }
    }
}

/// Parses the `FROZ` section at `sec_off..sec_off + sec_len` of the
/// mapping into a store over mapped columns. Errors are wrapped into
/// [`crate::Error::Corrupt`] by [`crate::open`].
pub(crate) fn parse_frozen_section(
    map: &Arc<Mmap>,
    sec_off: usize,
    sec_len: usize,
) -> Result<MmapFrozenHexastore, String> {
    let end = sec_off
        .checked_add(sec_len)
        .filter(|&e| e <= map.len())
        .ok_or_else(|| "FROZ section extends past the file".to_string())?;
    let mut cur = Cursor { map, pos: sec_off, end };
    let len = usize::try_from(cur.u64("triple count")?)
        .map_err(|_| "triple count overflows usize".to_string())?;
    let arenas = [cur.arena()?, cur.arena()?, cur.arena()?];
    let orderings = [
        cur.ordering()?,
        cur.ordering()?,
        cur.ordering()?,
        cur.ordering()?,
        cur.ordering()?,
        cur.ordering()?,
    ];
    let store = FrozenHexastore::from_columns(len, arenas, orderings)?;
    Ok(MmapFrozenHexastore { store, map: Arc::clone(map) })
}

/// A bounds-checked walk over the mapped section bytes.
struct Cursor<'a> {
    map: &'a Arc<Mmap>,
    pos: usize,
    end: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize, what: &str) -> Result<usize, String> {
        let start = self.pos;
        let next = start
            .checked_add(n)
            .filter(|&e| e <= self.end)
            .ok_or_else(|| format!("{what} exceeds the FROZ section"))?;
        self.pos = next;
        Ok(start)
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let at = self.take(4, what)?;
        Ok(u32::from_le_bytes(self.map[at..at + 4].try_into().expect("4 bytes taken")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let at = self.take(8, what)?;
        Ok(u64::from_le_bytes(self.map[at..at + 8].try_into().expect("8 bytes taken")))
    }

    /// One arena's header and columns.
    fn arena(&mut self) -> Result<ArenaColumns, String> {
        let n_lists = self.u32("arena list count")? as usize;
        let n_items = usize::try_from(self.u64("arena item count")?)
            .map_err(|_| "arena item count overflows usize".to_string())?;
        let spans = self.col(n_lists, "arena span table")?;
        let items = self.col(n_items, "arena item column")?;
        Ok(ArenaColumns { spans, items })
    }

    /// One ordering's header and columns.
    fn ordering(&mut self) -> Result<OrderingColumns, String> {
        let h = self.u32("ordering header count")? as usize;
        let keys = self.col(h, "ordering key column")?;
        let spans = self.col(h, "ordering span table")?;
        let m = self.u32("ordering vector count")? as usize;
        let k2 = self.col(m, "ordering vector column")?;
        let lists = self.col(m, "ordering list column")?;
        Ok(OrderingColumns { keys, spans, k2, lists })
    }

    /// Takes a column of `n` elements of `T` and wraps it as a shared
    /// slab column over the mapping.
    fn col<T: Pod>(&mut self, n: usize, what: &str) -> Result<Column<T>, String> {
        let bytes = n
            .checked_mul(std::mem::size_of::<T>())
            .ok_or_else(|| format!("{what} count overflows"))?;
        let off = self.take(bytes, what)?;
        // The section start is 4-aligned (checked by the opener) and
        // every preceding field is a 4-byte multiple, so v2 writer output
        // always aligns; a hand-built file may not.
        let column = MappedColumn::<T>::new(self.map, off, n)
            .ok_or_else(|| format!("{what} is not 4-byte aligned"))?;
        Ok(Column::Shared(Arc::new(column) as SharedColumn<T>))
    }
}
