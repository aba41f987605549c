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
//! are deep-copied only at the first mutation of a *shared* table
//! ([`Arc::make_mut`]). Set Similarity clones every accepted candidate just
//! to rename columns, and multi-lake reclamation re-embeds whole lakes —
//! with shared storage both are O(schema), not O(rows).

use crate::error::TableError;
use crate::fxhash::{FxHashMap, FxHashSet, FxHasher};
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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

/// A named, row-major relation. Row storage is `Arc`-shared with
/// copy-on-write: clones and schema-only edits (renames, key changes) share
/// the buffer; row mutations copy it first if it is shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: Arc<str>,
    schema: Schema,
    rows: Arc<Vec<Vec<Value>>>,
}

impl Table {
    /// An empty table over `schema`.
    pub fn new(name: impl AsRef<str>, schema: Schema) -> Self {
        Table { name: Arc::from(name.as_ref()), schema, rows: Arc::new(Vec::new()) }
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
        Ok(Table { name: Arc::from(name.as_ref()), schema, rows: Arc::new(rows) })
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
        self.rows.len()
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
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> Option<&[Value]> {
        self.rows.get(i).map(|r| r.as_slice())
    }

    /// Cell at row `i`, column `j`.
    pub fn cell(&self, i: usize, j: usize) -> Option<&Value> {
        self.rows.get(i).and_then(|r| r.get(j))
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
                row: Some(self.rows.len()),
            });
        }
        Arc::make_mut(&mut self.rows).push(row);
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
        self.rows.iter().map(move |r| &r[j])
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
        for r in self.rows.iter() {
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
        let row = self.rows.get(i)?;
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
        Arc::make_mut(&mut self.rows).retain(|r| seen.insert(r.clone()));
    }

    /// Keep only rows satisfying `pred` (row-slice predicate).
    pub fn retain_rows<F: FnMut(&[Value]) -> bool>(&mut self, mut pred: F) {
        Arc::make_mut(&mut self.rows).retain(|r| pred(r));
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
            self.rows.iter().map(|r| indices.iter().map(|&i| r[i].clone()).collect()).collect();
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
        if !self.rows.iter().take(SCOUT_ROWS).all(|r| other.rows.iter().any(|o| same_row(r, o))) {
            return false;
        }
        // hash → the last row of `other` with it; `prev[i]` → the one before.
        let mut last: FxHashMap<u64, usize> = FxHashMap::default();
        let mut prev: Vec<Option<usize>> = vec![None; other.rows.len()];
        for (i, r) in other.rows.iter().enumerate() {
            prev[i] = last.insert(row_hash(mapping.iter().map(|&j| &r[j])), i);
        }
        self.rows.iter().all(|r| {
            let mut at = last.get(&row_hash(r.iter())).copied();
            while let Some(i) = at {
                if same_row(r, &other.rows[i]) {
                    return true;
                }
                at = prev[i];
            }
            false
        })
    }

    /// Distinct row multiset view used by tuple-level precision/recall.
    pub fn row_set(&self) -> FxHashSet<&[Value]> {
        self.rows.iter().map(|r| r.as_slice()).collect()
    }
}

impl fmt::Display for Table {
    /// Pretty-print up to 20 rows — debugging/examples aid.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} rows)", self.name, self.n_rows())?;
        let cols: Vec<&str> = self.schema.columns().collect();
        writeln!(f, "| {} |", cols.join(" | "))?;
        for r in self.rows.iter().take(20) {
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
        // `Arc::make_mut` on a unique handle mutates in place; equality
        // stays deep regardless of sharing.
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
