//! Parallel lake ingestion.
//!
//! `DataLake::from_tables` scans every cell of every table on one thread.
//! For a one-off in-memory lake that is fine; for `lake build` — which
//! ingests thousands of CSV tables and then snapshots them — this module
//! fans the per-table scans out over scoped worker threads and merges the
//! results into exactly the structures `push_table` would have built:
//! posting lists are ordered by `(table, column)` just as sequential
//! insertion orders them, so a parallel-ingested lake is indistinguishable
//! from (and snapshots byte-identically to) a sequentially built one.

use gent_discovery::lake::Posting;
use gent_discovery::DataLake;
use gent_table::{FxHashMap, FxHashSet, Table, Value};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Build a [`DataLake`] from `tables`, parallelising the per-table value
/// scans across `threads` scoped threads (0 → all available cores).
///
/// # Examples
///
/// ```
/// use gent_store::ingest_tables;
/// use gent_table::{Table, Value};
///
/// let tables = vec![
///     Table::build("t", &["x"], &[], vec![vec![Value::Int(1)]]).unwrap(),
/// ];
/// let lake = ingest_tables(tables, 2);
/// assert_eq!(lake.len(), 1);
/// assert_eq!(lake.postings(&Value::Int(1)).len(), 1);
/// ```
pub fn ingest_tables(mut tables: Vec<Table>, threads: usize) -> DataLake {
    // Uniquify names up front, exactly as sequential `push_table` would:
    // first claimant keeps the name, later ones get the first free `#k`.
    let mut taken: FxHashSet<String> = FxHashSet::default();
    for t in &mut tables {
        let mut name = t.name().to_string();
        if !taken.insert(name.clone()) {
            let mut k = 2;
            loop {
                let candidate = format!("{name}#{k}");
                if taken.insert(candidate.clone()) {
                    name = candidate;
                    break;
                }
                k += 1;
            }
            t.set_name(&name);
        }
    }

    let threads = match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        t => t,
    }
    .clamp(1, tables.len().max(1));

    // Per-table scans: distinct (value, column) pairs in first-occurrence
    // order, the same order `push_table` appends postings in.
    let scan = |t: &Table| -> Vec<(Value, u16)> {
        let mut out = Vec::new();
        for ci in 0..t.n_cols() {
            let mut seen: FxHashSet<&Value> = FxHashSet::default();
            for v in t.column(ci) {
                if !v.is_null_like() && seen.insert(v) {
                    out.push((v.clone(), ci as u16));
                }
            }
        }
        out
    };

    let scans: Vec<(usize, Vec<(Value, u16)>)> = if threads <= 1 {
        tables.iter().enumerate().map(|(ti, t)| (ti, scan(t))).collect()
    } else {
        let next = AtomicUsize::new(0);
        let tables_ref = &tables;
        let mut scans: Vec<(usize, Vec<(Value, u16)>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let ti = next.fetch_add(1, Ordering::Relaxed);
                            if ti >= tables_ref.len() {
                                return local;
                            }
                            local.push((ti, scan(&tables_ref[ti])));
                        }
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("ingest worker panicked")).collect()
        });
        scans.sort_by_key(|(ti, _)| *ti);
        scans
    };

    // Sequential merge in table order preserves push_table's posting order.
    let mut index: FxHashMap<Value, Vec<Posting>> = FxHashMap::default();
    for (ti, pairs) in scans {
        for (v, column) in pairs {
            index.entry(v).or_default().push(Posting { table: ti as u32, column });
        }
    }

    DataLake::from_parts(tables, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    fn tables() -> Vec<Table> {
        (0..6)
            .map(|t| {
                // Two duplicate names exercise renaming.
                let name = if t % 3 == 0 { "dup".to_string() } else { format!("t{t}") };
                Table::build(
                    &name,
                    &["a", "b"],
                    &[],
                    (0..30).map(|i| vec![V::Int(i + t), V::str(format!("s{}", i % 9))]).collect(),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn parallel_ingest_matches_sequential_lake() {
        let sequential = DataLake::from_tables(tables());
        let parallel = ingest_tables(tables(), 4);
        assert_eq!(parallel.len(), sequential.len());
        assert_eq!(parallel.index_len(), sequential.index_len());
        for (v, postings) in sequential.index_entries() {
            assert_eq!(parallel.postings(&v), postings, "postings({v}) diverge");
        }
        for t in sequential.tables_iter() {
            assert_eq!(
                parallel.get_by_name(t.name()).map(|p| p.rows()),
                Some(t.rows()),
                "table `{}` diverges",
                t.name()
            );
        }
    }

    #[test]
    fn single_thread_path_matches_too() {
        let sequential = DataLake::from_tables(tables());
        let one = ingest_tables(tables(), 1);
        assert_eq!(one.index_len(), sequential.index_len());
    }
}
