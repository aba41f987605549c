//! Property tests pinning the join-pair expansions to tables with rows:
//! over generated join chains, a matrix built off an expansion's index
//! pairs (`AlignmentMatrix::build_from`) equals the matrix built from its
//! rows — and the nested `matrix::reference` — cell for cell, and the
//! tables `expand_with_stats` collects equal `expand::reference`'s.
//!
//! A child of `expand` because the views are private to it. The generator
//! is a byte stream: one scenario is a source plus a candidate pool, with
//! composite source keys (some starts carry *part* of the key, so no key
//! hash is handed over), null and duplicate join keys, value ranges shifted
//! apart (empty joins), duplicated source keys (source rows sharing a key
//! hash), more than 32 source columns (multi-word tuples) and candidates
//! repeated under another name (equal fingerprints, so the exact
//! `same_relation` comparison runs).

use super::{expand_views, expand_with_stats, reference, Expansion};
use crate::matrix::reference::NestedMatrix;
use crate::matrix::{AlignmentMatrix, Rows};
use gent_table::{Table, Value};
use proptest::prelude::*;
use std::collections::HashSet;

/// The generator's byte stream, wrapping around.
struct Stream<'a>(&'a [u8], usize);

impl Stream<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.1 += 1;
        self.0[self.1 % self.0.len()] as usize % n
    }

    /// A small-domain cell: mostly `shift..shift + 3`, one in eight null.
    fn cell(&mut self, shift: i64) -> Value {
        match self.below(8) {
            0 => Value::Null,
            v => Value::Int(shift + (v % 3) as i64),
        }
    }
}

/// One scenario: `(source, its key names, candidate pool)`.
fn scenario(bytes: &[u8], wide: bool) -> (Table, Vec<&'static str>, Vec<Table>) {
    let mut s = Stream(bytes, 0);
    let key: Vec<&'static str> = if s.below(2) == 0 { vec!["k"] } else { vec!["k", "x"] };
    let mut columns: Vec<String> = ["k", "x", "a", "b"].map(String::from).to_vec();
    if wide {
        columns.extend((0..34).map(|j| format!("w{j}")));
    }
    // Keys from 0..3 over 4–7 rows: some source rows share a key.
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for _ in 0..4 + s.below(4) {
        let cell = |j| Value::Int(s.below(if j < 2 { 3 } else { 2 }) as i64);
        rows.push((0..columns.len()).map(cell).collect());
    }
    let source = Table::build("S", &columns, &key, rows).unwrap();

    // Join edges come from the shared names, `y`/`z` exist only to chain
    // keyless tables together, and `w3`/`w33` sit in different words of a
    // wide source's tuples.
    let alphabet = ["k", "x", "y", "z", "a", "b", "w3", "w33"];
    let mut pool: Vec<Table> = Vec::new();
    for i in 0..3 + s.below(4) {
        if i > 0 && s.below(5) == 0 {
            let mut twin = pool[s.below(i)].clone();
            twin.set_name(format!("T{i}"));
            pool.push(twin);
            continue;
        }
        let mut cols: Vec<&str> = Vec::new();
        while cols.len() < 2 {
            cols = alphabet.iter().copied().filter(|_| s.below(3) == 0).collect();
        }
        let shift = if s.below(6) == 0 { 10 } else { 0 };
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for _ in 0..1 + s.below(8) {
            rows.push(cols.iter().map(|_| s.cell(shift)).collect());
        }
        pool.push(Table::build(&format!("T{i}"), &cols, &[], rows).unwrap());
    }
    (source, key, pool)
}

/// `(name, columns, rows)` of a table, in order.
fn exact(t: &Table) -> (String, Vec<String>, Vec<Vec<Value>>) {
    (t.name().to_string(), t.schema().columns().map(str::to_string).collect(), t.rows().to_vec())
}

/// The reference's output as the engine must return it: expansions equal
/// as relations (columns sorted, rows sorted) to an earlier expansion are
/// dropped, first occurrence kept; pass-throughs never are.
fn deduplicated(tables: Vec<Table>) -> (Vec<Table>, u64) {
    let mut seen = HashSet::new();
    let mut dropped = 0;
    let kept = tables.into_iter().filter(|t| {
        let (_, mut columns, _) = exact(t);
        let mut order: Vec<usize> = (0..columns.len()).collect();
        order.sort_by(|&a, &b| columns[a].cmp(&columns[b]));
        columns.sort();
        let mut rows: Vec<Vec<Value>> =
            t.rows().iter().map(|r| order.iter().map(|&j| r[j].clone()).collect()).collect();
        rows.sort();
        let fresh = !t.name().contains("+expanded") || seen.insert((columns, rows));
        dropped += u64::from(!fresh);
        fresh
    });
    (kept.collect(), dropped)
}

fn check(bytes: &[u8], wide: bool, depth: usize) -> Result<(), TestCaseError> {
    let (source, key, pool) = scenario(bytes, wide);

    let (collected, stats) = expand_with_stats(&pool, &key, depth);
    let (expected, dropped) = deduplicated(reference::expand(&pool, &key, depth));
    prop_assert_eq!(stats.dedup_dropped, dropped, "dedup counter diverges");
    prop_assert_eq!(
        collected.iter().map(exact).collect::<Vec<_>>(),
        expected.iter().map(exact).collect::<Vec<_>>()
    );

    let (expansions, _) = expand_views(&pool, &key, depth);
    prop_assert_eq!(expansions.len(), collected.len());
    for (e, table) in expansions.iter().zip(&collected) {
        for (three_valued, cap) in [(true, 1), (true, 2), (false, 8)] {
            let off_pairs = AlignmentMatrix::build_from(&source, e, three_valued, cap);
            let off_rows = AlignmentMatrix::build(&source, table, three_valued, cap);
            prop_assert_eq!(&off_pairs, &off_rows, "{} at cap {}", table.name(), cap);
            let nested = NestedMatrix::build(&source, table, three_valued, cap);
            prop_assert_eq!(off_pairs.is_some(), nested.is_some());
            if let (Some(packed), Some(nested)) = (off_pairs, nested) {
                for i in 0..source.n_rows() {
                    prop_assert_eq!(packed.aligned(i).collect::<Vec<_>>(), nested.aligned(i));
                }
            }
        }
        // What the matrix never reads must hold too: every cell.
        prop_assert_eq!(e.schema(), table.schema());
        for (i, row) in table.rows().iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                prop_assert_eq!(e.cell(i, j), v, "{} cell ({}, {})", table.name(), i, j);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn pairs_align_like_rows(
        bytes in proptest::collection::vec(any::<u8>(), 96),
        depth in 1usize..=3,
    ) {
        check(&bytes, false, depth)?;
    }

    #[test]
    fn pairs_align_like_rows_past_one_word(
        bytes in proptest::collection::vec(any::<u8>(), 96),
        depth in 1usize..=3,
    ) {
        check(&bytes, true, depth)?;
    }
}

/// The generator reaches what the properties are there for: final joins
/// held as pairs, key hashes handed over and not, empty joins, the exact
/// duplicate comparison, aligned tuples to prune.
#[test]
fn generator_reaches_the_interesting_paths() {
    let mut rng = proptest::test_runner::TestRng::deterministic("pair_view_coverage");
    let (mut views, mut own_hashes, mut dedups, mut dropped, mut multi) = (0, 0, 0, 0, 0);
    for _ in 0..300 {
        let bytes: Vec<u8> = (0..96).map(|_| rng.next_u64() as u8).collect();
        let (source, key, pool) = scenario(&bytes, false);
        let (expansions, stats) = expand_views(&pool, &key, 3);
        dedups += stats.dedup_dropped;
        dropped += stats.candidates_dropped;
        for e in &expansions {
            if let Expansion::View(v) = e {
                views += 1;
                own_hashes += usize::from(v.right_key_hashes.is_none());
                let m = AlignmentMatrix::build_from(&source, e, true, 8).expect("carries the key");
                multi += (0..source.n_rows()).filter(|&i| m.aligned(i).len() > 1).count();
            }
        }
    }
    assert!(views > 100 && own_hashes > 10 && own_hashes < views, "{views} / {own_hashes}");
    assert!(dedups > 5 && dropped > 20 && multi > 20, "{dedups} / {dropped} / {multi}");
}
