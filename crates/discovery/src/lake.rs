//! The [`DataLake`]: table storage plus the inverted value index.
//!
//! The index maps every distinct non-null cell value to the posting list of
//! `(table, column)` pairs containing it — the data structure behind exact
//! set-containment search (the role JOSIE plays in the paper). Posting
//! lists are deduplicated per (table, column): multiplicity within a column
//! does not matter for set overlap.
//!
//! Tables are held as [`TableSlot`]s: in-memory lakes wrap eager slots,
//! while a lake opened from a snapshot holds *lazy* slots that decode
//! their cell payloads from the shared snapshot buffer on first touch.
//! Names, schemas and row counts are always available without a decode, so
//! name lookups, statistics and posting-list retrieval never materialize a
//! table the pipeline does not read.

use crate::frozen::FrozenIndex;
use gent_table::binary::TableSlot;
use gent_table::{FxHashMap, FxHashSet, Table, TableError, Value};

/// A posting: which table and which column a value occurs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    /// Index into the lake's table list.
    pub table: u32,
    /// Column index within that table.
    pub column: u16,
}

/// The inverted index's two backings: a mutable hash map while a lake is
/// being built, or a [`SnapshotIndex`] when reopened from a snapshot (flat
/// [`FrozenIndex`] arrays — zero-copy views into the snapshot buffer —
/// under the pre-merged postings of any delta frames). Lookups behave
/// identically across both.
// One per lake and never moved in bulk, so the variants' size gap costs
// nothing; boxing the snapshot form would put a pointer chase on every
// posting lookup instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum LakeIndex {
    Map(FxHashMap<Value, Vec<Posting>>),
    Snapshot(SnapshotIndex),
}

/// The thunk a snapshot-backed index runs on first touch: verify the index
/// section's bytes and materialize the [`FrozenIndex`]. Supplied by the
/// snapshot opener, which owns the buffer, the section range, and the
/// stored checksum — the lake stays format-agnostic.
pub type IndexThaw = std::sync::Arc<dyn Fn() -> Result<FrozenIndex, String> + Send + Sync>;

/// An index served from a snapshot. Its frozen base is decoded (and
/// integrity-checked) only when a lookup first needs it, so `open` does
/// not pay the O(section) verification + materialization pass; the first
/// posting lookup (or an explicit [`DataLake::ensure_index`], which is how
/// a degraded open hands the index over already thawed) pays it once, and
/// the result — success or the structured failure — is memoized.
#[derive(Clone)]
struct SnapshotIndex {
    thaw: IndexThaw,
    /// Per-value *new* postings from delta frames (tables the frozen base
    /// predates), merged behind the base when the thaw runs.
    delta: FxHashMap<Value, Vec<Posting>>,
    /// Distinct-value count promised by the snapshot header — exact for a
    /// frameless lake, a floor once frames add novel values (exact again
    /// after the thaw).
    len_hint: usize,
    cell: std::sync::OnceLock<Result<ThawedIndex, String>>,
}

/// What a thawed [`SnapshotIndex`] resolves to: the frozen base plus the
/// overlay (empty when the snapshot carried no frames). Overlay lists hold
/// the *merged* postings (base first, then deltas) for every key any frame
/// touched, so lookups stay a single probe returning one slice.
#[derive(Debug, Clone)]
struct ThawedIndex {
    base: FrozenIndex,
    overlay: FxHashMap<Value, Vec<Posting>>,
    /// Overlay keys the base does not hold.
    novel: usize,
}

impl ThawedIndex {
    /// Merge the frame `delta` behind `base` — the one place an overlay is
    /// built.
    fn merge(base: FrozenIndex, delta: &FxHashMap<Value, Vec<Posting>>) -> Self {
        let mut novel = 0usize;
        let overlay = delta
            .iter()
            .map(|(v, fresh)| {
                let before = base.get(v);
                if before.is_empty() {
                    novel += 1;
                }
                let mut merged = Vec::with_capacity(before.len() + fresh.len());
                merged.extend_from_slice(before);
                merged.extend_from_slice(fresh);
                (v.clone(), merged)
            })
            .collect();
        ThawedIndex { base, overlay, novel }
    }

    fn get(&self, v: &Value) -> &[Posting] {
        match self.overlay.get(v) {
            Some(p) => p.as_slice(),
            None => self.base.get(v),
        }
    }

    /// Every key exactly once: base entries no frame touched, then the
    /// overlay's merged lists.
    fn entries(&self) -> impl Iterator<Item = (Value, &[Posting])> + '_ {
        self.base
            .entries()
            .filter(|(v, _)| !self.overlay.contains_key(v))
            .chain(self.overlay.iter().map(|(v, p)| (v.clone(), p.as_slice())))
    }
}

impl SnapshotIndex {
    /// Materialize (once): run the thaw, then merge the frame delta behind
    /// the base. A failed thaw is memoized too — retrying cannot un-corrupt
    /// the section, and lookups after a failure must stay cheap.
    fn force(&self) -> Result<&ThawedIndex, &String> {
        self.cell.get_or_init(|| Ok(ThawedIndex::merge((self.thaw)()?, &self.delta))).as_ref()
    }

    /// [`SnapshotIndex::force`] for the infallible accessors.
    ///
    /// Panics when the section fails verification — call
    /// [`DataLake::ensure_index`] first on any path that can see hostile
    /// bytes (the store's save/compact and the pipeline entry both do).
    fn thawed(&self) -> &ThawedIndex {
        self.force().unwrap_or_else(|e| {
            panic!("snapshot index failed verification (ensure_index first): {e}")
        })
    }
}

impl std::fmt::Debug for SnapshotIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotIndex")
            .field("len_hint", &self.len_hint)
            .field("delta_values", &self.delta.len())
            .field("thawed", &self.cell.get().is_some())
            .finish()
    }
}

/// A repository of tables with an inverted value index.
#[derive(Debug, Clone)]
pub struct DataLake {
    slots: Vec<TableSlot>,
    by_name: FxHashMap<String, usize>,
    index: LakeIndex,
}

impl DataLake {
    /// Build a lake (and its index) from tables. Duplicate table names get
    /// a numeric suffix so lookups stay unambiguous.
    pub fn from_tables(tables: Vec<Table>) -> Self {
        let mut lake = DataLake {
            slots: Vec::with_capacity(tables.len()),
            by_name: FxHashMap::default(),
            index: LakeIndex::Map(FxHashMap::default()),
        };
        for t in tables {
            lake.push_table(t);
        }
        lake
    }

    /// Add one table, indexing its values. Returns the table's index; if the
    /// name was taken, the table is renamed with a `#k` suffix and registered
    /// in `by_name` under that new name (its original name keeps resolving to
    /// the first table that claimed it).
    pub fn push_table(&mut self, mut t: Table) -> usize {
        if let Some(new_name) = self.renamed_for_collision(t.name()) {
            t.set_name(&new_name);
        }
        let name = t.name().to_string();
        let ti = self.slots.len();
        let index = self.index_map_mut();
        for (ci, _) in t.schema().columns().enumerate() {
            let mut seen: FxHashSet<&Value> = FxHashSet::default();
            for v in t.column(ci) {
                if !v.is_null_like() && seen.insert(v) {
                    index
                        .entry(v.clone())
                        .or_default()
                        .push(Posting { table: ti as u32, column: ci as u16 });
                }
            }
        }
        self.by_name.insert(name, ti);
        self.slots.push(TableSlot::eager(t));
        ti
    }

    /// Mutable access to the map backing, converting a snapshot index first
    /// (documented cost: pushing into a snapshot-loaded lake re-expands the
    /// frozen arrays into a hash map once).
    fn index_map_mut(&mut self) -> &mut FxHashMap<Value, Vec<Posting>> {
        if !matches!(self.index, LakeIndex::Map(_)) {
            self.index = LakeIndex::Map(self.index_to_map());
        }
        match &mut self.index {
            LakeIndex::Map(m) => m,
            LakeIndex::Snapshot(_) => unreachable!("converted above"),
        }
    }

    /// The full index as an owned map, merging any overlay (panics like
    /// [`SnapshotIndex::thawed`]).
    fn index_to_map(&self) -> FxHashMap<Value, Vec<Posting>> {
        match &self.index {
            LakeIndex::Map(m) => m.clone(),
            LakeIndex::Snapshot(s) => {
                let t = s.thawed();
                let mut m = t.base.to_map();
                for (v, p) in &t.overlay {
                    m.insert(v.clone(), p.clone()); // overlay lists are pre-merged
                }
                m
            }
        }
    }

    /// Resolve a name collision against `by_name`: `Some(new_name)` with the
    /// first free `#k` suffix when `name` is taken, `None` when it is free.
    fn renamed_for_collision(&self, name: &str) -> Option<String> {
        if !self.by_name.contains_key(name) {
            return None;
        }
        let mut k = 2;
        loop {
            let candidate = format!("{name}#{k}");
            if !self.by_name.contains_key(&candidate) {
                return Some(candidate);
            }
            k += 1;
        }
    }

    /// Reassemble a lake from already-built parts — tables plus their
    /// inverted index — without re-scanning any cell. This is the warm-start
    /// hook parallel ingest builds through; `postings` must index into
    /// `tables` exactly as [`DataLake::push_table`] would have built them.
    /// Table names are re-uniquified defensively (a no-op for snapshot data,
    /// whose names were uniquified at ingest).
    pub fn from_parts(tables: Vec<Table>, index: FxHashMap<Value, Vec<Posting>>) -> Self {
        Self::assemble(tables.into_iter().map(TableSlot::eager).collect(), LakeIndex::Map(index))
    }

    /// Reassemble a lake from pre-built table slots (lazy or eager) around
    /// the index section of the snapshot they came from — the snapshot load
    /// path. Nothing of the index is decoded here: `thaw` verifies and
    /// materializes the frozen base on the first lookup, and its postings
    /// must index into `slots` (slot schemas are available without decode,
    /// so the thaw validates posting bounds cheaply). `len_hint` is the
    /// snapshot header's distinct-value count (served by
    /// [`DataLake::index_len`] until the thaw makes it exact); `delta` maps
    /// each value a delta frame indexed to its *new* postings, merged
    /// behind the base postings when the thaw runs so
    /// [`DataLake::postings`] stays one probe, one slice.
    pub fn from_slots_deferred(
        slots: Vec<TableSlot>,
        thaw: IndexThaw,
        len_hint: usize,
        delta: FxHashMap<Value, Vec<Posting>>,
    ) -> Self {
        Self::assemble(
            slots,
            LakeIndex::Snapshot(SnapshotIndex {
                thaw,
                delta,
                len_hint,
                cell: std::sync::OnceLock::new(),
            }),
        )
    }

    /// Thaw a snapshot index now, surfacing its verification failure as a
    /// structured error instead of empty lookups. A no-op (always `Ok`) on
    /// a map-backed lake. The pipeline calls this once at reclaim entry;
    /// the store calls it before re-freezing a lake into a snapshot.
    pub fn ensure_index(&self) -> Result<(), String> {
        match &self.index {
            LakeIndex::Map(_) => Ok(()),
            LakeIndex::Snapshot(s) => s.force().map(|_| ()).map_err(|e| e.clone()),
        }
    }

    /// True when posting lookups can proceed without materializing
    /// anything: always, except for a snapshot index that has not been
    /// thawed yet (the observable behind the lazy-open tests).
    pub fn index_ready(&self) -> bool {
        match &self.index {
            LakeIndex::Map(_) => true,
            LakeIndex::Snapshot(s) => matches!(s.cell.get(), Some(Ok(_))),
        }
    }

    fn assemble(slots: Vec<TableSlot>, index: LakeIndex) -> Self {
        let mut lake = DataLake {
            slots: Vec::with_capacity(slots.len()),
            by_name: FxHashMap::default(),
            index,
        };
        for mut s in slots {
            if let Some(new_name) = lake.renamed_for_collision(s.name()) {
                s.set_name(&new_name);
            }
            lake.by_name.insert(s.name().to_string(), lake.slots.len());
            lake.slots.push(s);
        }
        lake
    }

    /// The frozen backing, when this lake was loaded from a snapshot *and*
    /// carries no delta overlay (an overlaid index must be re-frozen to be
    /// serialised — that re-freeze is exactly what compaction pays for).
    pub fn frozen_index(&self) -> Option<&FrozenIndex> {
        match &self.index {
            LakeIndex::Map(_) => None,
            // A frameless snapshot index re-freezes to its own base; the
            // thaw this costs is exactly the decode a save would pay
            // anyway. Verification failure is `None` — the fallible saver
            // has already called `ensure_index`.
            LakeIndex::Snapshot(s) if s.delta.is_empty() => s.force().ok().map(|t| &t.base),
            LakeIndex::Snapshot(_) => None,
        }
    }

    /// A frozen view of the index, cloning only when already frozen —
    /// what snapshot saving serialises. For an overlaid index this merges
    /// the delta back into one flat frozen structure (compaction).
    ///
    /// Panics on a snapshot index whose section fails verification — call
    /// [`DataLake::ensure_index`] first on any path that can see hostile
    /// bytes (the store's save/compact does).
    pub fn freeze_index(&self) -> FrozenIndex {
        match &self.index {
            LakeIndex::Map(m) => FrozenIndex::from_map(m),
            LakeIndex::Snapshot(s) if s.delta.is_empty() => s.thawed().base.clone(),
            LakeIndex::Snapshot(_) => FrozenIndex::from_map(&self.index_to_map()),
        }
    }

    /// The table slots, including undecoded ones — metadata (name, schema,
    /// row count) is available on every slot without forcing a decode.
    pub fn slots(&self) -> &[TableSlot] {
        &self.slots
    }

    /// Iterate all tables, decoding lazy slots as the iterator advances.
    /// The eager counterpart of [`DataLake::slots`]; callers that only need
    /// metadata should iterate slots instead.
    pub fn tables_iter(&self) -> impl Iterator<Item = &Table> + '_ {
        self.slots.iter().map(|s| s.table())
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the lake holds no tables.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Table by index, decoding it on first touch.
    pub fn get(&self, i: usize) -> Option<&Table> {
        self.slots.get(i).map(|s| s.table())
    }

    /// Table by index, panicking out of bounds (the hot-path counterpart of
    /// the old `&lake.tables()[i]`).
    pub fn table(&self, i: usize) -> &Table {
        self.slots[i].table()
    }

    /// Table name by index (no decode).
    pub fn name_of(&self, i: usize) -> Option<&str> {
        self.slots.get(i).map(|s| s.name())
    }

    /// Table by name, decoding it on first touch. The name lookup itself
    /// never decodes anything — only the named table is materialized.
    pub fn get_by_name(&self, name: &str) -> Option<&Table> {
        self.by_name.get(name).map(|&i| self.slots[i].table())
    }

    /// How many slots have decoded their cell payloads — the observable
    /// behind lazy-open tests and the serve daemon's decode gauge.
    pub fn tables_decoded(&self) -> usize {
        self.slots.iter().filter(|s| s.is_decoded()).count()
    }

    /// Decode every remaining lazy slot, restoring the old eager-open
    /// behavior (CLI paths that will touch every table anyway, benchmarks,
    /// pre-warming a daemon). With `threads > 1` the per-table decodes fan
    /// out over vendored-crossbeam scoped workers — the format delimits
    /// every table section, so the work is embarrassingly parallel and the
    /// result is identical regardless of thread count.
    pub fn decode_all(&self, threads: usize) -> Result<(), TableError> {
        let threads = threads.max(1).min(self.slots.len().max(1));
        if threads <= 1 {
            return self.slots.iter().try_for_each(|s| s.force().map(|_| ()));
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        crossbeam::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|_| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        match self.slots.get(i) {
                            Some(s) => s.force()?,
                            None => return Ok(()),
                        };
                    })
                })
                .collect();
            workers.into_iter().try_for_each(|w| w.join().expect("decode worker panicked"))
        })
        .expect("decode scope")
    }

    /// Posting list for a value (empty slice when unseen). The first probe
    /// of a snapshot index thaws it; a section that fails verification
    /// then yields empty postings — callers that must distinguish "unseen"
    /// from "corrupt" gate on [`DataLake::ensure_index`] first (the
    /// pipeline entry does).
    pub fn postings(&self, v: &Value) -> &[Posting] {
        match &self.index {
            LakeIndex::Map(m) => m.get(v).map(|p| p.as_slice()).unwrap_or(&[]),
            LakeIndex::Snapshot(s) => match s.force() {
                Ok(t) => t.get(v),
                Err(_) => &[],
            },
        }
    }

    /// Number of distinct values in the inverted index. For a snapshot
    /// index this never thaws: before the thaw it reports the snapshot
    /// header's count (exact unless delta frames added novel values);
    /// after it, the exact merged count.
    pub fn index_len(&self) -> usize {
        match &self.index {
            LakeIndex::Map(m) => m.len(),
            LakeIndex::Snapshot(s) => match s.cell.get() {
                Some(Ok(t)) => t.base.len() + t.novel,
                _ => s.len_hint,
            },
        }
    }

    /// Iterate over the inverted index: every distinct value with its
    /// posting list. Iteration order is unspecified (hash order for
    /// map-backed lakes, canonical-byte order for frozen ones); consumers
    /// that need determinism must sort.
    pub fn index_entries(&self) -> Box<dyn Iterator<Item = (Value, &[Posting])> + '_> {
        match &self.index {
            LakeIndex::Map(m) => Box::new(m.iter().map(|(v, p)| (v.clone(), p.as_slice()))),
            // Thaws; a failed verification iterates as empty (the same
            // "gate on `ensure_index` to distinguish" contract as
            // `postings`).
            LakeIndex::Snapshot(s) => match s.force() {
                Ok(t) => Box::new(t.entries()),
                Err(_) => Box::new(std::iter::empty()),
            },
        }
    }

    /// For a set of probe values, count per `(table, column)` how many of
    /// them occur there — the core of set-containment scoring. Returns a map
    /// from posting to hit count. Touches only the index, never a table.
    pub fn containment_counts<'a, I>(&self, probes: I) -> FxHashMap<Posting, u32>
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let mut counts: FxHashMap<Posting, u32> = FxHashMap::default();
        for v in probes {
            for p in self.postings(v) {
                *counts.entry(*p).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Distinct non-null values of one lake column (recomputed; candidates
    /// cache these during Set Similarity). Forces that table's decode.
    pub fn column_values(&self, p: Posting) -> FxHashSet<Value> {
        self.slots[p.table as usize].table().distinct_values(p.column as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    fn lake() -> DataLake {
        let a = Table::build(
            "a",
            &["x", "y"],
            &[],
            vec![
                vec![V::Int(1), V::str("u")],
                vec![V::Int(2), V::str("v")],
                vec![V::Int(1), V::Null],
            ],
        )
        .unwrap();
        let b = Table::build("b", &["z"], &[], vec![vec![V::Int(1)], vec![V::Int(3)]]).unwrap();
        DataLake::from_tables(vec![a, b])
    }

    #[test]
    fn postings_dedup_within_column() {
        let l = lake();
        let p = l.postings(&V::Int(1));
        // value 1 occurs twice in a.x but posts once; also in b.z.
        assert_eq!(p.len(), 2);
        assert!(p.contains(&Posting { table: 0, column: 0 }));
        assert!(p.contains(&Posting { table: 1, column: 0 }));
    }

    #[test]
    fn nulls_not_indexed() {
        let l = lake();
        assert!(l.postings(&V::Null).is_empty());
    }

    #[test]
    fn containment_counts_accumulate() {
        let l = lake();
        let probes = [V::Int(1), V::Int(2), V::Int(3)];
        let counts = l.containment_counts(probes.iter());
        assert_eq!(counts[&Posting { table: 0, column: 0 }], 2); // 1 and 2
        assert_eq!(counts[&Posting { table: 1, column: 0 }], 2); // 1 and 3
    }

    #[test]
    fn duplicate_names_get_suffixed() {
        let t1 = Table::build("t", &["x"], &[], vec![vec![V::Int(1)]]).unwrap();
        let t2 = Table::build("t", &["x"], &[], vec![vec![V::Int(2)]]).unwrap();
        let l = DataLake::from_tables(vec![t1, t2]);
        assert!(l.get_by_name("t").is_some());
        assert!(l.get_by_name("t#2").is_some());
    }

    /// Regression: every renamed duplicate must be registered in `by_name`
    /// under its new name — three same-named tables stay individually
    /// addressable and keep their own rows.
    #[test]
    fn three_same_named_tables_all_registered() {
        let mk = |i: i64| Table::build("t", &["x"], &[], vec![vec![V::Int(i)]]).unwrap();
        let mut l = DataLake::from_tables(vec![mk(1), mk(2)]);
        let idx = l.push_table(mk(3));
        assert_eq!(idx, 2);
        assert_eq!(l.len(), 3);
        for (name, val, at) in [("t", 1, 0usize), ("t#2", 2, 1), ("t#3", 3, 2)] {
            let t = l.get_by_name(name).unwrap_or_else(|| panic!("`{name}` not in by_name"));
            assert_eq!(t.cell(0, 0), Some(&V::Int(val)), "`{name}` resolves to wrong table");
            assert_eq!(t.name(), name, "table was renamed but not updated");
            assert_eq!(l.get(at).unwrap().name(), name);
            assert_eq!(l.name_of(at), Some(name), "slot metadata name diverges");
        }
        // The index points each value at the right physical table.
        assert_eq!(l.postings(&V::Int(3)), &[Posting { table: 2, column: 0 }]);
    }

    /// A pre-existing table already holding the `#k` name forces the next
    /// collision to skip to the following suffix.
    #[test]
    fn suffix_collision_skips_taken_names() {
        let named = |n: &str, i: i64| Table::build(n, &["x"], &[], vec![vec![V::Int(i)]]).unwrap();
        let l = DataLake::from_tables(vec![named("t", 1), named("t#2", 2), named("t", 3)]);
        assert_eq!(l.get_by_name("t").unwrap().cell(0, 0), Some(&V::Int(1)));
        assert_eq!(l.get_by_name("t#2").unwrap().cell(0, 0), Some(&V::Int(2)));
        assert_eq!(l.get_by_name("t#3").unwrap().cell(0, 0), Some(&V::Int(3)));
    }

    #[test]
    fn from_parts_rebuilds_identical_lookups() {
        let l = lake();
        let tables: Vec<Table> = l.tables_iter().cloned().collect();
        let index: FxHashMap<Value, Vec<Posting>> =
            l.index_entries().map(|(v, p)| (v, p.to_vec())).collect();
        let rebuilt = DataLake::from_parts(tables, index);
        assert_eq!(rebuilt.len(), l.len());
        assert_eq!(rebuilt.index_len(), l.index_len());
        for probe in [V::Int(1), V::Int(2), V::Int(3), V::str("u")] {
            assert_eq!(rebuilt.postings(&probe), l.postings(&probe), "postings for {probe}");
        }
        assert_eq!(rebuilt.get_by_name("a").unwrap().rows(), l.get_by_name("a").unwrap().rows());
    }

    /// A snapshot-backed lake over `tables`, built the way the store's open
    /// builds one: the frozen `base` behind a thaw closure, frame postings
    /// in `delta`.
    fn snapshot_backed(
        tables: Vec<Table>,
        base: FrozenIndex,
        delta: FxHashMap<Value, Vec<Posting>>,
    ) -> DataLake {
        let len_hint = base.len();
        DataLake::from_slots_deferred(
            tables.into_iter().map(TableSlot::eager).collect(),
            std::sync::Arc::new(move || Ok(base.clone())),
            len_hint,
            delta,
        )
    }

    #[test]
    fn frozen_lake_serves_identical_lookups() {
        let l = lake();
        let frozen = snapshot_backed(
            l.tables_iter().cloned().collect(),
            l.freeze_index(),
            FxHashMap::default(),
        );
        assert!(frozen.frozen_index().is_some());
        assert_eq!(frozen.index_len(), l.index_len());
        for probe in [V::Int(1), V::Int(2), V::Int(3), V::str("u"), V::str("zz")] {
            assert_eq!(frozen.postings(&probe), l.postings(&probe), "postings for {probe}");
        }
        let counts = frozen.containment_counts([V::Int(1), V::Int(3)].iter());
        assert_eq!(counts, l.containment_counts([V::Int(1), V::Int(3)].iter()));
    }

    /// A snapshot index with a delta overlay (appended frames) must answer
    /// exactly like a flat index built over the same tables.
    #[test]
    fn overlaid_lake_matches_flat_rebuild() {
        let l = lake();
        let delta_table = Table::build(
            "d",
            &["x"],
            &[],
            vec![vec![V::Int(1)], vec![V::Int(42)]], // 1 overlaps `a`/`b`, 42 is novel
        )
        .unwrap();
        let mut delta: FxHashMap<Value, Vec<Posting>> = FxHashMap::default();
        delta.insert(V::Int(1), vec![Posting { table: 2, column: 0 }]);
        delta.insert(V::Int(42), vec![Posting { table: 2, column: 0 }]);
        let mut flat_tables: Vec<Table> = l.tables_iter().cloned().collect();
        flat_tables.push(delta_table);
        let overlaid = snapshot_backed(flat_tables.clone(), l.freeze_index(), delta);
        let flat = DataLake::from_tables(flat_tables);

        // Before the thaw the header's count is a floor (42 is novel).
        assert!(!overlaid.index_ready());
        assert_eq!(overlaid.index_len(), l.index_len());
        overlaid.ensure_index().unwrap();
        assert!(overlaid.index_ready());
        assert_eq!(overlaid.index_len(), flat.index_len());
        assert!(overlaid.frozen_index().is_none(), "overlaid index is not flat-frozen");
        for probe in [V::Int(1), V::Int(2), V::Int(3), V::Int(42), V::str("u"), V::str("zz")] {
            let mut a = overlaid.postings(&probe).to_vec();
            let mut b = flat.postings(&probe).to_vec();
            a.sort_by_key(|p| (p.table, p.column));
            b.sort_by_key(|p| (p.table, p.column));
            assert_eq!(a, b, "postings for {probe}");
        }
        // index_entries covers every key exactly once; freeze folds the
        // overlay back into a flat index that still answers identically.
        let entries: Vec<Value> = overlaid.index_entries().map(|(v, _)| v).collect();
        let distinct: FxHashSet<&Value> = entries.iter().collect();
        assert_eq!(distinct.len(), entries.len(), "a key appeared twice");
        assert_eq!(entries.len(), flat.index_len());
        let refrozen = overlaid.freeze_index();
        assert_eq!(refrozen.len(), flat.index_len());
        let mut rp = refrozen.get(&V::Int(1)).to_vec();
        rp.sort_by_key(|p| (p.table, p.column));
        assert_eq!(rp.len(), 3);
    }

    #[test]
    fn pushing_into_frozen_lake_thaws_it() {
        let l = lake();
        let mut frozen = snapshot_backed(
            l.tables_iter().cloned().collect(),
            l.freeze_index(),
            FxHashMap::default(),
        );
        let t = Table::build("c", &["w"], &[], vec![vec![V::Int(99)]]).unwrap();
        let idx = frozen.push_table(t);
        assert!(frozen.frozen_index().is_none(), "thawed back to a map");
        assert_eq!(frozen.postings(&V::Int(99)), &[Posting { table: idx as u32, column: 0 }]);
        // Old entries survive the thaw.
        assert_eq!(frozen.postings(&V::Int(1)), l.postings(&V::Int(1)));
    }

    #[test]
    fn lookup_by_name_and_index() {
        let l = lake();
        assert_eq!(l.get_by_name("b").unwrap().n_rows(), 2);
        assert_eq!(l.get(0).unwrap().name(), "a");
        assert!(l.get(9).is_none());
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn eager_lakes_report_fully_decoded() {
        let l = lake();
        assert_eq!(l.tables_decoded(), l.len());
        l.decode_all(4).unwrap();
        assert_eq!(l.tables_decoded(), l.len());
    }
}
