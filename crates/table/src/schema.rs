//! Schemas: ordered, named columns plus a possibly-composite key.
//!
//! Gen-T does not assume data-lake tables have keys or reliable metadata;
//! only the *Source Table* must have a (possibly multi-attribute) key so
//! tuple alignment is cheap (§II of the paper). A [`Schema`] therefore
//! carries an optional set of key column indices, empty for lake tables.

use crate::error::TableError;
use crate::fxhash::FxHashMap;
use std::sync::Arc;

/// Ordered column names and key designation for a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Arc<str>>,
    /// Indices (into `columns`) of the key attributes; empty = no key known.
    key: Vec<usize>,
    /// Name → index lookup.
    index: FxHashMap<Arc<str>, usize>,
}

impl Schema {
    /// Build a schema with no key from column names. Duplicate names are
    /// rejected — downstream alignment is name-based.
    pub fn new<I, S>(columns: I) -> Result<Self, TableError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let columns: Vec<Arc<str>> = columns.into_iter().map(|c| Arc::from(c.as_ref())).collect();
        let mut index = FxHashMap::default();
        for (i, c) in columns.iter().enumerate() {
            if index.insert(c.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn(c.to_string()));
            }
        }
        Ok(Schema { columns, key: Vec::new(), index })
    }

    /// Build a schema with named key columns.
    pub fn with_key<I, S, J, T>(columns: I, key: J) -> Result<Self, TableError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
        J: IntoIterator<Item = T>,
        T: AsRef<str>,
    {
        let mut schema = Self::new(columns)?;
        let mut key_idx = Vec::new();
        for k in key {
            let k = k.as_ref();
            let idx = schema
                .column_index(k)
                .ok_or_else(|| TableError::InvalidKey(format!("key column `{k}` not in schema")))?;
            if key_idx.contains(&idx) {
                return Err(TableError::InvalidKey(format!("key column `{k}` listed twice")));
            }
            key_idx.push(idx);
        }
        schema.key = key_idx;
        Ok(schema)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column names in order.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.as_ref())
    }

    /// Column name at `i`.
    pub fn column_name(&self, i: usize) -> Option<&str> {
        self.columns.get(i).map(|c| c.as_ref())
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// True if the schema contains `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Indices of the key columns (empty when no key is known).
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// Names of the key columns.
    pub fn key_names(&self) -> Vec<&str> {
        self.key.iter().map(|&i| self.columns[i].as_ref()).collect()
    }

    /// True if the schema declares a key.
    pub fn has_key(&self) -> bool {
        !self.key.is_empty()
    }

    /// Indices of non-key columns, in schema order.
    pub fn non_key_indices(&self) -> Vec<usize> {
        (0..self.columns.len()).filter(|i| !self.key.contains(i)).collect()
    }

    /// Replace the key designation (by name). Used when a key is discovered
    /// after construction.
    pub fn set_key<J, T>(&mut self, key: J) -> Result<(), TableError>
    where
        J: IntoIterator<Item = T>,
        T: AsRef<str>,
    {
        let mut key_idx = Vec::new();
        for k in key {
            let k = k.as_ref();
            let idx = self
                .column_index(k)
                .ok_or_else(|| TableError::InvalidKey(format!("key column `{k}` not in schema")))?;
            if key_idx.contains(&idx) {
                return Err(TableError::InvalidKey(format!("key column `{k}` listed twice")));
            }
            key_idx.push(idx);
        }
        self.key = key_idx;
        Ok(())
    }

    /// Rename column `i`. Fails if the new name collides with another column.
    pub fn rename(&mut self, i: usize, new_name: &str) -> Result<(), TableError> {
        if i >= self.columns.len() {
            return Err(TableError::ColumnIndexOutOfBounds { index: i, ncols: self.columns.len() });
        }
        if let Some(&j) = self.index.get(new_name) {
            if j != i {
                return Err(TableError::DuplicateColumn(new_name.to_string()));
            }
            return Ok(());
        }
        let old = self.columns[i].clone();
        self.index.remove(&old);
        let new: Arc<str> = Arc::from(new_name);
        self.columns[i] = new.clone();
        self.index.insert(new, i);
        Ok(())
    }

    /// Schema equality on names only (ignoring key designation); the
    /// operator algebra aligns tables by column name, so this is the notion
    /// of "same schema" used by inner union.
    pub fn same_columns(&self, other: &Schema) -> bool {
        self.columns == other.columns
    }

    /// Set of column names shared with `other` (in `self` order).
    pub fn common_columns(&self, other: &Schema) -> Vec<Arc<str>> {
        self.columns.iter().filter(|c| other.contains(c)).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_looks_up() {
        let s = Schema::with_key(["id", "name", "age"], ["id"]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.column_index("name"), Some(1));
        assert_eq!(s.key(), &[0]);
        assert_eq!(s.key_names(), vec!["id"]);
        assert_eq!(s.non_key_indices(), vec![1, 2]);
    }

    #[test]
    fn composite_key() {
        let s = Schema::with_key(["a", "b", "c"], ["a", "c"]).unwrap();
        assert_eq!(s.key(), &[0, 2]);
        assert_eq!(s.non_key_indices(), vec![1]);
    }

    #[test]
    fn rejects_duplicates_and_bad_keys() {
        assert!(matches!(Schema::new(["x", "x"]), Err(TableError::DuplicateColumn(_))));
        assert!(matches!(Schema::with_key(["a"], ["zz"]), Err(TableError::InvalidKey(_))));
        assert!(matches!(Schema::with_key(["a", "b"], ["a", "a"]), Err(TableError::InvalidKey(_))));
    }

    #[test]
    fn rename_updates_lookup() {
        let mut s = Schema::new(["c0", "c1"]).unwrap();
        s.rename(1, "city").unwrap();
        assert_eq!(s.column_index("city"), Some(1));
        assert_eq!(s.column_index("c1"), None);
        assert!(matches!(s.rename(0, "city"), Err(TableError::DuplicateColumn(_))));
        // renaming to itself is a no-op
        s.rename(1, "city").unwrap();
    }

    #[test]
    fn common_columns_ordered_by_self() {
        let a = Schema::new(["x", "y", "z"]).unwrap();
        let b = Schema::new(["z", "x"]).unwrap();
        let common: Vec<_> = a.common_columns(&b).iter().map(|c| c.to_string()).collect();
        assert_eq!(common, vec!["x", "z"]);
    }
}
