//! The [`Table`] type: a named, row-major relation.
//!
//! Tables are the unit of everything in Gen-T: the Source Table, the data
//! lake entries, the candidate/originating sets, and the reclaimed output.
//! The representation is deliberately simple — `Vec<Vec<Value>>` guarded by
//! arity checks — because the operator algebra (`gent-ops`) rewrites tables
//! wholesale and the hot paths (discovery, matrix traversal) work over
//! derived indexes, not this storage.
//!
//! Row storage is held behind an [`Arc`] with copy-on-write semantics:
//! cloning a `Table` (or renaming its columns, setting a key, truncating
//! its name — any schema-only change) shares the row buffer, and the rows
//! are deep-copied only at the first mutation of a *shared* table. Set
//! Similarity clones every accepted candidate just to rename columns, and
//! multi-lake reclamation re-embeds whole lakes — with shared storage both
//! are O(schema), not O(rows).
//!
//! # Column facts
//!
//! The shared storage also carries lazily computed, column-major *facts*
//! about its rows: [`Table::column_hashes`] (one [`cell_hash`] per cell)
//! and [`Table::column_distinct_hashes`] (the column's distinct
//! non-null-like cell hashes, sorted). They live inside the `Arc` the rows
//! live in, one `OnceLock` per column, so every clone, rename and key
//! override of a lake table reads the same slices, and they are freed with
//! the rows — a lake table is hashed once per generation, whichever
//! requests ask. Every row mutation goes through `Table::rows_mut`, which
//! drops them; nothing else can make them stale.

use crate::error::TableError;
use crate::fxhash::{FxHashMap, FxHashSet, FxHasher, SEED};
use crate::schema::Schema;
use crate::value::Value;
use std::cell::Cell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A key tuple: the values of a row's key attributes, in key order.
///
/// Tuple alignment between a reclaimed table and the Source Table is done by
/// equality on these (§IV-A: "aligned tuples iff they share the same values
/// on key attributes").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyValue(pub Vec<Value>);

impl KeyValue {
    /// True when any component is a (plain) null — such rows can never align.
    pub fn has_null(&self) -> bool {
        self.0.iter().any(Value::is_null)
    }
}

impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|v| v.to_string()).collect();
        write!(f, "({})", parts.join(", "))
    }
}

/// The hash of a plain null cell in [`Table::column_hashes`].
pub const NULL_CELL_HASH: u64 = 0;

/// Set in the [`cell_hash`] of every value that is not null-like.
const VALUE_TAG: u64 = 1 << 63;
/// Set (with [`VALUE_TAG`] clear) in the [`cell_hash`] of a labeled null.
const LABELED_TAG: u64 = 1 << 62;

/// The hash of one cell as [`Table::column_hashes`] holds it: the value's
/// FxHash with its top bits saying what kind of cell it was, so a consumer
/// applies the null rules from the hash alone — [`NULL_CELL_HASH`] for a
/// plain null (which never joins), the top bit clear for anything
/// null-like (which never aligns; see [`cell_hash_is_null_like`]), the top
/// bit set for a value. `Value`'s `Hash` agrees with its cross-type `==`
/// (`Int(1)` / `Float(1.0)`), so equal cells hash equal; the tag sits in
/// the high bits because Fx-keyed maps take their bucket from the low ones.
#[inline]
pub fn cell_hash(v: &Value) -> u64 {
    if v.is_null() {
        return NULL_CELL_HASH;
    }
    let mut h = FxHasher::default();
    v.hash(&mut h);
    if v.is_null_like() {
        (h.finish() >> 2) | LABELED_TAG
    } else {
        h.finish() | VALUE_TAG
    }
}

/// Was the cell behind this [`cell_hash`] a plain or labeled null?
#[inline]
pub fn cell_hash_is_null_like(h: u64) -> bool {
    h & VALUE_TAG == 0
}

/// Fold one more [`cell_hash`] into a running multi-column key hash (start
/// from 0) — an Fx step. The one definition behind every join-key and
/// source-key hash, so a build side and a probe side cannot disagree.
#[inline]
pub fn fold_cell_hash(acc: u64, cell: u64) -> u64 {
    (acc.rotate_left(5) ^ cell).wrapping_mul(SEED)
}

/// How many column facts ([`Table::column_hashes`],
/// [`Table::column_distinct_hashes`]) the calling thread has asked for so
/// far, split by whether the call had to compute them. A request runs on
/// one thread, so the difference across it is that request's share —
/// Expand reports it as `gent_expand_columns_{hashed,reused}_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnFactsTally {
    /// Calls that computed the column's facts.
    pub computed: u64,
    /// Calls that found them on the row storage.
    pub found: u64,
}

thread_local! {
    static TALLY: Cell<ColumnFactsTally> = const { Cell::new(ColumnFactsTally { computed: 0, found: 0 }) };
}

/// This thread's running [`ColumnFactsTally`].
pub fn column_facts_tally() -> ColumnFactsTally {
    TALLY.with(Cell::get)
}

/// One column's lazily computed facts.
#[derive(Default)]
struct ColumnFacts {
    hashes: OnceLock<Box<[u64]>>,
    distinct: OnceLock<Box<[u64]>>,
}

/// `slot`'s value, computed by `compute` if this is the first call, and
/// tallied either way.
fn fact(slot: &OnceLock<Box<[u64]>>, compute: impl FnOnce() -> Box<[u64]>) -> &[u64] {
    let mut computed = false;
    let value = slot.get_or_init(|| {
        computed = true;
        compute()
    });
    TALLY.with(|t| {
        let mut tally = t.get();
        if computed {
            tally.computed += 1;
        } else {
            tally.found += 1;
        }
        t.set(tally);
    });
    value
}

/// What a [`Table`]'s handles share: the rows, and the column facts
/// derived from them. Equality, `Debug` and `Clone` see the rows only — a
/// copy starts with no facts.
struct RowStore {
    rows: Vec<Vec<Value>>,
    /// One slot per column, allocated when the first fact is asked for.
    facts: OnceLock<Box<[ColumnFacts]>>,
}

impl RowStore {
    fn new(rows: Vec<Vec<Value>>) -> Arc<RowStore> {
        Arc::new(RowStore { rows, facts: OnceLock::new() })
    }
}

impl Clone for RowStore {
    fn clone(&self) -> RowStore {
        RowStore { rows: self.rows.clone(), facts: OnceLock::new() }
    }
}

impl PartialEq for RowStore {
    fn eq(&self, other: &RowStore) -> bool {
        self.rows == other.rows
    }
}

impl fmt::Debug for RowStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.rows.fmt(f)
    }
}

/// A named, row-major relation. Row storage is `Arc`-shared with
/// copy-on-write: clones and schema-only edits (renames, key changes) share
/// the buffer — and the column facts computed over it; row mutations copy
/// it first if it is shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: Arc<str>,
    schema: Schema,
    rows: Arc<RowStore>,
}

impl Table {
    /// An empty table over `schema`.
    pub fn new(name: impl AsRef<str>, schema: Schema) -> Self {
        Table { name: Arc::from(name.as_ref()), schema, rows: RowStore::new(Vec::new()) }
    }

    /// Build from rows, checking arity.
    pub fn from_rows(
        name: impl AsRef<str>,
        schema: Schema,
        rows: Vec<Vec<Value>>,
    ) -> Result<Self, TableError> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != schema.len() {
                return Err(TableError::ArityMismatch {
                    expected: schema.len(),
                    got: r.len(),
                    row: Some(i),
                });
            }
        }
        Ok(Table { name: Arc::from(name.as_ref()), schema, rows: RowStore::new(rows) })
    }

    /// Convenience constructor used heavily in tests and examples: columns,
    /// key names (may be empty) and rows of `Value`-convertible cells.
    pub fn build<S: AsRef<str>>(
        name: &str,
        columns: &[S],
        key: &[&str],
        rows: Vec<Vec<Value>>,
    ) -> Result<Self, TableError> {
        let schema = if key.is_empty() {
            Schema::new(columns.iter().map(|c| c.as_ref()))?
        } else {
            Schema::with_key(columns.iter().map(|c| c.as_ref()), key.iter().copied())?
        };
        Self::from_rows(name, schema, rows)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table.
    pub fn set_name(&mut self, name: impl AsRef<str>) {
        self.name = Arc::from(name.as_ref());
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable schema access (rename columns, set keys).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows.rows.len()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.schema.len()
    }

    /// Total number of cells (`rows × cols`) — the paper's "output size".
    pub fn n_cells(&self) -> usize {
        self.n_rows() * self.n_cols()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows.rows
    }

    /// The rows, for mutation: copies the storage first when it is shared
    /// with another table (copy-on-write) and drops the column facts, which
    /// describe the rows as they were. The one place rows change.
    fn rows_mut(&mut self) -> &mut Vec<Vec<Value>> {
        let store = Arc::make_mut(&mut self.rows);
        store.facts.take();
        &mut store.rows
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> Option<&[Value]> {
        self.rows().get(i).map(|r| r.as_slice())
    }

    /// Cell at row `i`, column `j`.
    pub fn cell(&self, i: usize, j: usize) -> Option<&Value> {
        self.rows().get(i).and_then(|r| r.get(j))
    }

    /// Cell at row `i` in the column named `col`.
    pub fn cell_by_name(&self, i: usize, col: &str) -> Option<&Value> {
        let j = self.schema.column_index(col)?;
        self.cell(i, j)
    }

    /// Append a row, checking arity. Copies the row buffer first when it is
    /// shared with another table (copy-on-write).
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        if row.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
                row: Some(self.n_rows()),
            });
        }
        self.rows_mut().push(row);
        Ok(())
    }

    /// Do `self` and `other` share the same row storage (no copy between
    /// them)? Schema-only edits — Set Similarity's column renaming, key
    /// overrides — must keep this true for their input.
    pub fn shares_rows_with(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows)
    }

    /// Iterate over the values of column `j`.
    pub fn column(&self, j: usize) -> impl Iterator<Item = &Value> {
        self.rows().iter().map(move |r| &r[j])
    }

    /// Column `j`'s fact slots on the shared storage.
    fn column_facts(&self, j: usize) -> &ColumnFacts {
        let n_cols = self.n_cols();
        &self.rows.facts.get_or_init(|| (0..n_cols).map(|_| ColumnFacts::default()).collect())[j]
    }

    /// The [`cell_hash`] of every cell of column `j`, in row order —
    /// computed on first use and then shared by every table over the same
    /// row storage until a row changes.
    pub fn column_hashes(&self, j: usize) -> &[u64] {
        fact(&self.column_facts(j).hashes, || self.column(j).map(cell_hash).collect())
    }

    /// The distinct [`cell_hash`]es of column `j`'s non-null-like cells,
    /// ascending — shared like [`Table::column_hashes`], which it is
    /// derived from. Two columns' value overlap is a merge of two of these.
    pub fn column_distinct_hashes(&self, j: usize) -> &[u64] {
        fact(&self.column_facts(j).distinct, || {
            let mut hs: Vec<u64> = self
                .column_hashes(j)
                .iter()
                .copied()
                .filter(|&h| !cell_hash_is_null_like(h))
                .collect();
            hs.sort_unstable();
            hs.dedup();
            hs.into()
        })
    }

    /// Per row, the [`fold_cell_hash`] of its `cols` cells in that order;
    /// `None` where one of them is a plain null, or — with
    /// `skip_null_like` — any null-like cell. Joins use the first rule
    /// (labeled nulls join their equals), tuple alignment the second.
    pub fn key_hashes(&self, cols: &[usize], skip_null_like: bool) -> Vec<Option<u64>> {
        // A null-like cell's hash has the value tag clear; a plain null's
        // has every bit clear.
        let must_be_set = if skip_null_like { VALUE_TAG } else { u64::MAX };
        let mut out = vec![Some(0u64); self.n_rows()];
        for &c in cols {
            for (acc, &h) in out.iter_mut().zip(self.column_hashes(c)) {
                *acc = match *acc {
                    Some(a) if h & must_be_set != 0 => Some(fold_cell_hash(a, h)),
                    _ => None,
                };
            }
        }
        out
    }

    /// Distinct non-null values of column `j`.
    pub fn distinct_values(&self, j: usize) -> FxHashSet<Value> {
        let mut set = FxHashSet::default();
        for v in self.column(j) {
            if !v.is_null_like() {
                set.insert(v.clone());
            }
        }
        set
    }

    /// Distinct non-null values over the whole table.
    pub fn all_values(&self) -> FxHashSet<Value> {
        let mut set = FxHashSet::default();
        for r in self.rows() {
            for v in r {
                if !v.is_null_like() {
                    set.insert(v.clone());
                }
            }
        }
        set
    }

    /// Extract the key tuple of row `i` using this table's own key columns.
    /// Returns `None` when the table has no key or any key cell is null.
    pub fn key_of_row(&self, i: usize) -> Option<KeyValue> {
        if !self.schema.has_key() {
            return None;
        }
        let row = self.rows().get(i)?;
        let kv: Vec<Value> = self.schema.key().iter().map(|&k| row[k].clone()).collect();
        let kv = KeyValue(kv);
        if kv.has_null() {
            None
        } else {
            Some(kv)
        }
    }

    /// Extract a key tuple from `row` using explicit column indices; `None`
    /// if any cell is null-like (nulls never align tuples).
    pub fn key_from_row(row: &[Value], key_cols: &[usize]) -> Option<KeyValue> {
        let mut kv = Vec::with_capacity(key_cols.len());
        for &k in key_cols {
            let v = row.get(k)?;
            if v.is_null_like() {
                return None;
            }
            kv.push(v.clone());
        }
        Some(KeyValue(kv))
    }

    /// Map from key tuple → row indices. Multiple rows may share a key in
    /// lake tables (only the Source Table is required to satisfy its key).
    pub fn key_index(&self) -> FxHashMap<KeyValue, Vec<usize>> {
        let mut idx: FxHashMap<KeyValue, Vec<usize>> = FxHashMap::default();
        for i in 0..self.n_rows() {
            if let Some(kv) = self.key_of_row(i) {
                idx.entry(kv).or_default().push(i);
            }
        }
        idx
    }

    /// True if the declared key is actually unique over the rows.
    pub fn key_is_valid(&self) -> bool {
        if !self.schema.has_key() {
            return false;
        }
        let mut seen = FxHashSet::default();
        for i in 0..self.n_rows() {
            match self.key_of_row(i) {
                Some(kv) => {
                    if !seen.insert(kv) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }

    /// Remove exact duplicate rows, preserving first occurrences.
    pub fn dedup_rows(&mut self) {
        let mut seen: FxHashSet<Vec<Value>> = FxHashSet::default();
        self.rows_mut().retain(|r| seen.insert(r.clone()));
    }

    /// Keep only rows satisfying `pred` (row-slice predicate).
    pub fn retain_rows<F: FnMut(&[Value]) -> bool>(&mut self, mut pred: F) {
        self.rows_mut().retain(|r| pred(r));
    }

    /// Low-level column projection by index, preserving this table's key
    /// designation where the key columns survive. Higher-level `project`
    /// (by name) lives in `gent-ops`.
    pub fn take_columns(&self, indices: &[usize], new_name: &str) -> Result<Table, TableError> {
        for &i in indices {
            if i >= self.n_cols() {
                return Err(TableError::ColumnIndexOutOfBounds { index: i, ncols: self.n_cols() });
            }
        }
        let names: Vec<&str> =
            indices.iter().map(|&i| self.schema.column_name(i).expect("checked above")).collect();
        let surviving_key: Vec<&str> = self
            .schema
            .key()
            .iter()
            .filter(|k| indices.contains(k))
            .map(|&k| self.schema.column_name(k).expect("key in schema"))
            .collect();
        // Only keep the key if *all* key columns survive — a partial key is
        // not a key.
        let keep_key = self.schema.has_key() && surviving_key.len() == self.schema.key().len();
        let schema = if keep_key {
            Schema::with_key(names.iter().copied(), surviving_key.iter().copied())?
        } else {
            Schema::new(names.iter().copied())?
        };
        let rows: Vec<Vec<Value>> =
            self.rows().iter().map(|r| indices.iter().map(|&i| r[i].clone()).collect()).collect();
        Table::from_rows(new_name, schema, rows)
    }

    /// True when every row of `self` appears in `other` *and* every column
    /// name of `self` appears in `other` — the "candidate table subsumed by
    /// another candidate" test of Set Similarity (Algorithm 3, line 15).
    ///
    /// `other`'s rows (projected onto `self`'s columns) are chained by row
    /// hash rather than collected into a set of row vectors: no allocation
    /// per row, and the scan stops at the first row of `self` that is
    /// missing. Equal rows hash equally because [`Value`]'s `Hash` agrees
    /// with its `==`.
    pub fn subsumed_by(&self, other: &Table) -> bool {
        if !self.schema.columns().all(|c| other.schema.contains(c)) {
            return false;
        }
        let mapping: Vec<usize> = self
            .schema
            .columns()
            .map(|c| other.schema.column_index(c).expect("checked contains"))
            .collect();
        fn row_hash<'v>(cells: impl Iterator<Item = &'v Value>) -> u64 {
            let mut h = FxHasher::default();
            cells.for_each(|v| v.hash(&mut h));
            h.finish()
        }
        let same_row = |r: &[Value], o: &[Value]| mapping.iter().zip(r).all(|(&j, v)| o[j] == *v);
        // One missing row settles it, and between near-duplicate tables the
        // first rows usually do: look for a few by plain scan before paying
        // for the index.
        const SCOUT_ROWS: usize = 4;
        if !self.rows().iter().take(SCOUT_ROWS).all(|r| other.rows().iter().any(|o| same_row(r, o)))
        {
            return false;
        }
        // hash → the last row of `other` with it; `prev[i]` → the one before.
        let mut last: FxHashMap<u64, usize> = FxHashMap::default();
        let mut prev: Vec<Option<usize>> = vec![None; other.n_rows()];
        for (i, r) in other.rows().iter().enumerate() {
            prev[i] = last.insert(row_hash(mapping.iter().map(|&j| &r[j])), i);
        }
        self.rows().iter().all(|r| {
            let mut at = last.get(&row_hash(r.iter())).copied();
            while let Some(i) = at {
                if same_row(r, &other.rows()[i]) {
                    return true;
                }
                at = prev[i];
            }
            false
        })
    }

    /// Distinct row multiset view used by tuple-level precision/recall.
    pub fn row_set(&self) -> FxHashSet<&[Value]> {
        self.rows().iter().map(|r| r.as_slice()).collect()
    }
}

impl fmt::Display for Table {
    /// Pretty-print up to 20 rows — debugging/examples aid.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} rows)", self.name, self.n_rows())?;
        let cols: Vec<&str> = self.schema.columns().collect();
        writeln!(f, "| {} |", cols.join(" | "))?;
        for r in self.rows().iter().take(20) {
            let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        if self.n_rows() > 20 {
            writeln!(f, "… {} more rows", self.n_rows() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value as V;

    fn sample() -> Table {
        Table::build(
            "people",
            &["id", "name", "age"],
            &["id"],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27)],
                vec![V::Int(1), V::str("Brown"), V::Int(24)],
                vec![V::Int(2), V::str("Wang"), V::Int(32)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_arity() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let err = Table::from_rows("t", schema, vec![vec![V::Int(1)]]);
        assert!(matches!(err, Err(TableError::ArityMismatch { .. })));
    }

    #[test]
    fn key_extraction_and_index() {
        let t = sample();
        assert_eq!(t.key_of_row(0), Some(KeyValue(vec![V::Int(0)])));
        let idx = t.key_index();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx[&KeyValue(vec![V::Int(1)])], vec![1]);
        assert!(t.key_is_valid());
    }

    #[test]
    fn null_keys_do_not_align() {
        let mut t = sample();
        t.push_row(vec![V::Null, V::str("Ghost"), V::Null]).unwrap();
        assert_eq!(t.key_of_row(3), None);
        assert!(!t.key_is_valid());
    }

    #[test]
    fn duplicate_keys_invalidate() {
        let mut t = sample();
        t.push_row(vec![V::Int(0), V::str("Smith2"), V::Int(99)]).unwrap();
        assert!(!t.key_is_valid());
        assert_eq!(t.key_index()[&KeyValue(vec![V::Int(0)])].len(), 2);
    }

    #[test]
    fn dedup_preserves_first() {
        let mut t = sample();
        t.push_row(vec![V::Int(0), V::str("Smith"), V::Int(27)]).unwrap();
        assert_eq!(t.n_rows(), 4);
        t.dedup_rows();
        assert_eq!(t.n_rows(), 3);
    }

    #[test]
    fn take_columns_keeps_full_keys_only() {
        let t = sample();
        let p = t.take_columns(&[0, 1], "p").unwrap();
        assert_eq!(p.schema().key(), &[0]); // id survives → key kept
        let q = t.take_columns(&[1, 2], "q").unwrap();
        assert!(!q.schema().has_key()); // id dropped → no key
    }

    #[test]
    fn take_columns_reorders() {
        let t = sample();
        let p = t.take_columns(&[2, 0], "p").unwrap();
        assert_eq!(p.schema().columns().collect::<Vec<_>>(), vec!["age", "id"]);
        assert_eq!(p.cell(0, 0), Some(&V::Int(27)));
        assert_eq!(p.cell(0, 1), Some(&V::Int(0)));
    }

    #[test]
    fn subsumption_between_tables() {
        let t = sample();
        let small = t.take_columns(&[0, 1], "small").unwrap();
        assert!(small.subsumed_by(&t));
        assert!(!t.subsumed_by(&small)); // t has extra column
        let mut other = small.clone();
        other.push_row(vec![V::Int(9), V::str("New")]).unwrap();
        assert!(!other.subsumed_by(&t)); // extra row not in t
    }

    #[test]
    fn subsumption_is_by_row_equality_not_by_hash() {
        // Equal cells of different types (3 vs 3.0) and nulls match;
        // duplicate rows on either side change nothing; a row that only
        // shares its first cells with a row of `other` does not.
        let hi = Table::build(
            "hi",
            &["extra", "b", "a"],
            &[],
            vec![
                vec![V::Int(0), V::str("x"), V::Float(3.0)],
                vec![V::Int(1), V::Null, V::Int(4)],
                vec![V::Int(2), V::Null, V::Int(4)],
            ],
        )
        .unwrap();
        let lo = |rows| Table::build("lo", &["a", "b"], &[], rows).unwrap();
        assert!(lo(vec![]).subsumed_by(&hi));
        assert!(
            lo(vec![vec![V::Int(3), V::str("x")], vec![V::Int(3), V::str("x")]]).subsumed_by(&hi)
        );
        assert!(lo(vec![vec![V::Float(4.0), V::Null]]).subsumed_by(&hi));
        assert!(!lo(vec![vec![V::Int(3), V::Null]]).subsumed_by(&hi));
        assert!(!lo(vec![vec![V::Int(4), V::Null], vec![V::Int(4), V::str("x")]]).subsumed_by(&hi));
        // Past the rows the plain scan looks for, the index decides.
        let mut rows = vec![vec![V::Int(3), V::str("x")]; 5];
        assert!(lo(rows.clone()).subsumed_by(&hi));
        rows.push(vec![V::Int(4), V::str("x")]);
        assert!(!lo(rows).subsumed_by(&hi));
    }

    #[test]
    fn distinct_values_skip_nulls() {
        let mut t = sample();
        t.push_row(vec![V::Int(3), V::Null, V::Null]).unwrap();
        t.push_row(vec![V::Int(4), V::LabeledNull(1), V::Int(27)]).unwrap();
        let names = t.distinct_values(1);
        assert_eq!(names.len(), 3); // Smith, Brown, Wang — no nulls/labels
        let ages = t.distinct_values(2);
        assert_eq!(ages.len(), 3); // 27, 24, 32 (27 dup collapses)
    }

    #[test]
    fn clones_share_rows_until_mutated() {
        let t = sample();
        let mut renamed = t.clone();
        assert!(renamed.shares_rows_with(&t), "a fresh clone shares row storage");
        // Schema-only edits keep sharing: rename a column, change the key.
        renamed.schema_mut().rename(1, "full_name").unwrap();
        renamed.set_name("renamed");
        assert!(renamed.shares_rows_with(&t), "schema edits must not copy rows");
        assert_eq!(renamed.cell(0, 1), t.cell(0, 1));
        // First row mutation copies — and only the mutated table changes.
        renamed.push_row(vec![V::Int(3), V::str("New"), V::Int(40)]).unwrap();
        assert!(!renamed.shares_rows_with(&t));
        assert_eq!(t.n_rows(), 3);
        assert_eq!(renamed.n_rows(), 4);
    }

    #[test]
    fn unshared_mutation_does_not_copy() {
        // A unique handle mutates in place; equality stays deep regardless
        // of sharing.
        let a = sample();
        let mut b = a.clone();
        b.retain_rows(|r| r[0] != V::Int(0));
        assert_eq!(b.n_rows(), 2);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn cell_by_name() {
        let t = sample();
        assert_eq!(t.cell_by_name(2, "name"), Some(&V::str("Wang")));
        assert_eq!(t.cell_by_name(2, "zzz"), None);
    }
}
