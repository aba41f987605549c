//! The whole-table κ and β scans `gent-ops` ran before it partitioned rows
//! into blocks, kept verbatim as the oracle for the blocked operators, and
//! the tables the two are compared on.
//!
//! Shared by `tests/kappa_beta_oracle.rs`, which checks the public
//! operators, and by `src/unary.rs`'s unit tests, which check the same
//! operators with their block hashes squeezed to three values through the
//! private `*_by` seam — so a collision merges blocks on every case.

use gent_table::{Table, Value};
use proptest::prelude::*;

fn subsumes(t1: &[Value], t2: &[Value]) -> bool {
    let mut strict = false;
    for (a, b) in t1.iter().zip(t2.iter()) {
        if b.is_null() {
            if !a.is_null() {
                strict = true;
            }
        } else if a != b {
            return false; // t2 non-null where t1 disagrees (or is null)
        }
    }
    strict
}

pub fn subsumption(t: &Table) -> Table {
    let mut out = t.clone();
    out.dedup_rows();
    // Sort candidate order by descending non-null count: a tuple can only be
    // subsumed by one with strictly more non-nulls, so we only compare
    // against rows with larger counts.
    let mut order: Vec<usize> = (0..out.n_rows()).collect();
    let counts: Vec<usize> =
        out.rows().iter().map(|r| r.iter().filter(|v| !v.is_null()).count()).collect();
    order.sort_by(|&a, &b| counts[b].cmp(&counts[a]));
    let rows = out.rows();
    let mut keep = vec![true; rows.len()];
    for (pos, &i) in order.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        for &j in &order[..pos] {
            if keep[j] && counts[j] > counts[i] && subsumes(&rows[j], &rows[i]) {
                keep[i] = false;
                break;
            }
        }
    }
    let kept: Vec<Vec<Value>> =
        rows.iter().enumerate().filter(|(i, _)| keep[*i]).map(|(_, r)| r.clone()).collect();
    Table::from_rows(t.name(), t.schema().clone(), kept).expect("schema unchanged")
}

fn complements(t1: &[Value], t2: &[Value]) -> bool {
    let mut shared = false;
    let mut t1_fills = false;
    let mut t2_fills = false;
    for (a, b) in t1.iter().zip(t2.iter()) {
        match (a.is_null(), b.is_null()) {
            (false, false) => {
                if a != b {
                    return false;
                }
                shared = true;
            }
            (false, true) => t1_fills = true,
            (true, false) => t2_fills = true,
            (true, true) => {}
        }
    }
    shared && t1_fills && t2_fills
}

fn merge_tuples(t1: &[Value], t2: &[Value]) -> Vec<Value> {
    t1.iter().zip(t2.iter()).map(|(a, b)| if a.is_null() { b.clone() } else { a.clone() }).collect()
}

pub fn complementation(t: &Table) -> Table {
    let mut result: Vec<Vec<Value>> = Vec::with_capacity(t.n_rows());
    for row in t.rows() {
        let mut cur = row.clone();
        while let Some(k) = result.iter().position(|r| complements(r, &cur)) {
            let partner = result.swap_remove(k);
            cur = merge_tuples(&partner, &cur);
        }
        if !result.contains(&cur) {
            result.push(cur);
        }
    }
    Table::from_rows(t.name(), t.schema().clone(), result).expect("schema unchanged")
}

pub fn minimal_form(t: &Table) -> Table {
    let mut cur = t.clone();
    cur.dedup_rows();
    loop {
        let after = subsumption(&complementation(&cur));
        if after.rows() == cur.rows() {
            return after;
        }
        cur = after;
    }
}

/// What a generated column holds.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Never a plain null, few distinct values (labeled nulls among them):
    /// a block column, with many rows per block.
    Block,
    /// Anything, plain nulls often.
    Nullable,
    /// Plain nulls only.
    AllNull,
}

/// A `kind` cell from one random draw `r`.
fn cell(kind: Kind, r: u64) -> Value {
    let (pick, v) = (r % 16, r >> 32);
    match kind {
        Kind::Block => match pick {
            0..=9 => Value::Int((v % 2) as i64),
            10..=13 => Value::Float(1.0),
            _ => Value::LabeledNull(v % 2),
        },
        Kind::Nullable => match pick {
            0..=5 => Value::Null,
            6 => Value::LabeledNull(v % 2),
            7..=10 => Value::Int((v % 3) as i64),
            11..=12 => Value::Float(1.0),
            _ => Value::str(if v % 2 == 0 { "a" } else { "b" }),
        },
        Kind::AllNull => Value::Null,
    }
}

/// A table `T(c0, …)` of 0–3 block columns, 1–3 nullable ones and at most
/// one all-null one, in a shuffled order; 0–12 rows plus exact duplicates
/// of up to three of them, inserted at random positions.
pub fn table() -> impl Strategy<Value = Table> {
    (0usize..=3, 1usize..=3, 0usize..=1, any::<u64>()).prop_flat_map(
        |(blocks, nullable, all_null, seed)| {
            let mut kinds: Vec<Kind> = [
                vec![Kind::Block; blocks],
                vec![Kind::Nullable; nullable],
                vec![Kind::AllNull; all_null],
            ]
            .concat();
            let mut s = seed;
            for i in (1..kinds.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                kinds.swap(i, (s >> 33) as usize % (i + 1));
            }
            let draws = proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), kinds.len()),
                0..=12,
            );
            let dups = proptest::collection::vec((any::<usize>(), any::<usize>()), 0..=3);
            (draws, dups).prop_map(move |(draws, dups)| {
                let mut rows: Vec<Vec<Value>> = draws
                    .iter()
                    .map(|row| kinds.iter().zip(row).map(|(&k, &r)| cell(k, r)).collect())
                    .collect();
                for (from, to) in dups {
                    if !rows.is_empty() {
                        let copy = rows[from % rows.len()].clone();
                        rows.insert(to % (rows.len() + 1), copy);
                    }
                }
                let cols: Vec<String> = (0..kinds.len()).map(|i| format!("c{i}")).collect();
                Table::build("T", &cols, &[], rows).unwrap()
            })
        },
    )
}

/// One implementation of κ, β and the minimal form.
pub struct Ops {
    pub kappa: fn(&Table) -> Table,
    pub beta: fn(&Table) -> Table,
    pub minimal: fn(&Table) -> Table,
}

/// `(name, columns, key, rows)`, rows in order.
fn exact(t: &Table) -> (String, Vec<String>, Vec<usize>, Vec<Vec<Value>>) {
    let columns = t.schema().columns().map(str::to_string).collect();
    (t.name().to_string(), columns, t.schema().key().to_vec(), t.rows().to_vec())
}

/// `ops` return the oracle's tables on `t`, row order included.
pub fn check(t: &Table, ops: &Ops) -> Result<(), TestCaseError> {
    prop_assert_eq!(exact(&(ops.kappa)(t)), exact(&complementation(t)), "κ on {:?}", t.rows());
    prop_assert_eq!(exact(&(ops.beta)(t)), exact(&subsumption(t)), "β on {:?}", t.rows());
    prop_assert_eq!(
        exact(&(ops.minimal)(t)),
        exact(&minimal_form(t)),
        "minimal form on {:?}",
        t.rows()
    );
    Ok(())
}
