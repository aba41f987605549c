//! Table Integration (Algorithm 2): integrate the originating tables into
//! the reclaimed Source Table with `{⊎, σ, π, κ, β}`.
//!
//! Preprocessing: select the rows whose key the source has, then project
//! only those down to the source's columns ([`project_select`]: an
//! originating table may hold hundreds of thousands of rows and keep a few
//! thousand), inner-union same-schema tables, *label* nulls shared with
//! the source (so κ/β cannot over-combine a correct null away — the device
//! Example 10 and Figure 5's footnotes describe), and take each table's
//! minimal form. From here on every row carries a non-null source key, so
//! `gent-ops`' κ and β compare rows only within a key group (their
//! "blocks").
//!
//! Integration: fold the tables with outer union; after each step apply
//! complementation and subsumption **only if** they do not decrease the
//! similarity to the source (lines 10–13) — this is what keeps an erroneous
//! value from filling a null (the `0 ∨ ¬1 = 0` behaviour the matrices
//! simulate). Finally remove the null labels and pad any missing source
//! columns with nulls.

use crate::config::GenTConfig;
use gent_metrics::eis;
use gent_ops::{complementation, minimal_form, outer_union, subsumption};
use gent_table::{FxHashMap, KeyValue, Schema, Table, Value};

/// ProjectSelect (line 3): keep only columns named in the source (the key
/// columns are always among them post-Expand) and rows whose key value
/// appears in the source; `None` when no column or no row is left.
///
/// Selects first: a row survives when its source-key cells are all
/// non-null-like and equal some source row's key (one without a plain
/// null), found through [`Table::key_hashes`] on both sides and verified
/// cell by cell — and only the survivors are projected. An originating
/// table can hold hundreds of thousands of rows of which a few thousand
/// share a key with the source.
///
/// Public because the ALITE-PS baseline performs exactly this step before
/// its full disjunction.
pub fn project_select(t: &Table, source: &Table) -> Option<Table> {
    let keep: Vec<usize> = (0..t.n_cols())
        .filter(|&c| source.schema().contains(t.schema().column_name(c).expect("in range")))
        .collect();
    if keep.is_empty() {
        return None;
    }
    // Key columns of the source, positioned in `t`. A keyless source has
    // no key for a row to share.
    let skey = source.schema().key();
    if skey.is_empty() {
        return None;
    }
    let key_cols: Vec<usize> = source
        .schema()
        .key_names()
        .iter()
        .map(|k| t.schema().column_index(k))
        .collect::<Option<_>>()?;
    // A source key with a labeled null matches no row of `t`, whose key
    // cells must not be null-like either: skip those as well.
    let mut source_rows: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (i, h) in source.key_hashes(skey, true).into_iter().enumerate() {
        if let Some(h) = h {
            source_rows.entry(h).or_default().push(i);
        }
    }
    let same_key = |row: &[Value], s: usize| {
        key_cols.iter().zip(skey).all(|(&c, &k)| row[c] == source.rows()[s][k])
    };
    let rows: Vec<&Vec<Value>> = t
        .key_hashes(&key_cols, true)
        .into_iter()
        .zip(t.rows())
        .filter(|(h, row)| {
            h.and_then(|h| source_rows.get(&h)).is_some_and(|s| s.iter().any(|&s| same_key(row, s)))
        })
        .map(|(_, row)| row)
        .collect();
    if rows.is_empty() {
        return None;
    }
    // `take_columns` over no rows says what the projection's schema is —
    // and whether `t`'s key survives it.
    let empty = Table::new(t.name(), t.schema().clone()).take_columns(&keep, t.name()).ok()?;
    let rows = rows.iter().map(|row| keep.iter().map(|&c| row[c].clone()).collect()).collect();
    Some(Table::from_rows(t.name(), empty.schema().clone(), rows).expect("projected arity"))
}

/// InnerUnion (line 4): union tables sharing the same column set.
fn inner_union_groups(tables: Vec<Table>) -> Vec<Table> {
    let mut groups: FxHashMap<Vec<String>, Table> = FxHashMap::default();
    let mut order: Vec<Vec<String>> = Vec::new();
    for t in tables {
        let mut cols: Vec<String> = t.schema().columns().map(str::to_string).collect();
        cols.sort();
        match groups.get_mut(&cols) {
            Some(acc) => {
                *acc = gent_ops::inner_union(acc, &t).expect("same column sets");
            }
            None => {
                order.push(cols.clone());
                groups.insert(cols, t);
            }
        }
    }
    order.into_iter().map(|k| groups.remove(&k).expect("inserted")).collect()
}

/// LabelSourceNulls (line 5): where the source has a null and an aligned
/// table tuple also has a null in the same column, replace the table's null
/// with a labeled null unique to the *(source row, column)* position — the
/// same label across tables, so that agreeing "correct nulls" still unify
/// under κ/β while never being overwritten by a real value.
fn label_source_nulls(tables: &mut [Table], source: &Table) {
    let skey = source.schema().key();
    // Label ids: position-determined (source row index, source column).
    let label_of = |si: usize, sc: usize| -> u64 { (si as u64) << 16 | sc as u64 };
    // Source rows by key.
    let mut by_key: FxHashMap<KeyValue, usize> = FxHashMap::default();
    for i in 0..source.n_rows() {
        if let Some(kv) = source.key_of_row(i) {
            by_key.insert(kv, i);
        }
    }
    for t in tables.iter_mut() {
        let key_cols: Option<Vec<usize>> =
            source.schema().key_names().iter().map(|k| t.schema().column_index(k)).collect();
        let Some(key_cols) = key_cols else { continue };
        // Map of table columns → source column index.
        let col_to_source: Vec<Option<usize>> = (0..t.n_cols())
            .map(|c| source.schema().column_index(t.schema().column_name(c).expect("in range")))
            .collect();
        let n_cols = t.n_cols();
        let schema = t.schema().clone();
        let rows: Vec<Vec<Value>> = t
            .rows()
            .iter()
            .map(|row| {
                let Some(kv) = Table::key_from_row(row, &key_cols) else {
                    return row.clone();
                };
                let Some(&si) = by_key.get(&kv) else {
                    return row.clone();
                };
                let mut out = row.clone();
                for c in 0..n_cols {
                    if let Some(sc) = col_to_source[c] {
                        if !skey.contains(&sc)
                            && source.rows()[si][sc].is_null()
                            && out[c].is_null()
                        {
                            out[c] = Value::LabeledNull(label_of(si, sc));
                        }
                    }
                }
                out
            })
            .collect();
        *t = Table::from_rows(t.name(), schema, rows).expect("schema unchanged");
    }
}

/// RemoveLabeledNulls (line 14).
fn remove_labeled_nulls(t: &Table) -> Table {
    let rows: Vec<Vec<Value>> = t
        .rows()
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::LabeledNull(_) => Value::Null,
                    other => other.clone(),
                })
                .collect()
        })
        .collect();
    Table::from_rows(t.name(), t.schema().clone(), rows).expect("schema unchanged")
}

/// Pad the reclaimed table with all-null columns for source columns it
/// lacks and order columns exactly as the source (lines 15–16).
///
/// Public so baseline outputs can be conformed for apples-to-apples
/// evaluation.
pub fn conform_schema(t: &Table, source: &Table) -> Table {
    let names: Vec<&str> = source.schema().columns().collect();
    let schema =
        Schema::with_key(names.iter().copied(), source.schema().key_names().iter().copied())
            .expect("source schema is valid");
    let map: Vec<Option<usize>> = names.iter().map(|n| t.schema().column_index(n)).collect();
    let rows: Vec<Vec<Value>> = t
        .rows()
        .iter()
        .map(|r| map.iter().map(|m| m.map(|j| r[j].clone()).unwrap_or(Value::Null)).collect())
        .collect();
    Table::from_rows("reclaimed", schema, rows).expect("layout fixed")
}

/// Algorithm 2 — integrate `originating` tables to reclaim `source`.
///
/// Returns a table with exactly the source's schema (named `reclaimed`).
/// With no usable originating tables the result is empty with the source's
/// schema — "nothing in the lake reclaims this source".
pub fn integrate(originating: &[Table], source: &Table, cfg: &GenTConfig) -> Table {
    // --- preprocessing (lines 3–6) --------------------------------------
    let projected: Vec<Table> =
        originating.iter().filter_map(|t| project_select(t, source)).collect();
    let ins = crate::telemetry::instruments();
    ins.integration_rows_offered.add(originating.iter().map(|t| t.n_rows() as u64).sum());
    ins.integration_rows_selected.add(projected.iter().map(|t| t.n_rows() as u64).sum());
    if projected.is_empty() {
        return conform_schema(&Table::new("reclaimed", source.schema().clone()), source);
    }
    let mut unioned = inner_union_groups(projected);
    label_source_nulls(&mut unioned, source);
    let minimal: Vec<Table> = unioned.iter().map(minimal_form).collect();

    // --- integration (lines 7–13) ---------------------------------------
    let mut acc: Option<Table> = None;
    for t in &minimal {
        let unioned = match &acc {
            None => t.clone(),
            Some(a) => outer_union(a, t).expect("outer union total"),
        };
        let mut cur = unioned;
        // Gated complementation.
        let kappa = complementation(&cur);
        if !cfg.gate_kappa_beta || eis(source, &kappa) >= eis(source, &cur) {
            cur = kappa;
        }
        // Gated subsumption.
        let beta = subsumption(&cur);
        if !cfg.gate_kappa_beta || eis(source, &beta) >= eis(source, &cur) {
            cur = beta;
        }
        acc = Some(cur);
    }
    let result = acc.expect("at least one table");

    // --- postprocessing (lines 14–16) ------------------------------------
    let unlabeled = remove_labeled_nulls(&result);
    let mut conformed = conform_schema(&unlabeled, source);
    conformed.dedup_rows();
    conformed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_metrics::{perfectly_reclaimed, recall};
    use gent_table::Value as V;

    fn source() -> Table {
        Table::build(
            "S",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &["ID"],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null, V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                vec![
                    V::Int(2),
                    V::str("Wang"),
                    V::Int(32),
                    V::str("Female"),
                    V::str("High School"),
                ],
            ],
        )
        .unwrap()
    }

    /// Expanded Figure 3 tables A, B, D (B carries the key via Expand).
    fn originating() -> Vec<Table> {
        vec![
            Table::build(
                "A",
                &["ID", "Name", "Education Level"],
                &[],
                vec![
                    vec![V::Int(0), V::str("Smith"), V::str("Bachelors")],
                    vec![V::Int(1), V::str("Brown"), V::Null],
                    vec![V::Int(2), V::str("Wang"), V::str("High School")],
                ],
            )
            .unwrap(),
            Table::build(
                "B+expanded",
                &["ID", "Name", "Age"],
                &[],
                vec![
                    vec![V::Int(0), V::str("Smith"), V::Int(27)],
                    vec![V::Int(1), V::str("Brown"), V::Int(24)],
                    vec![V::Int(2), V::str("Wang"), V::Int(32)],
                ],
            )
            .unwrap(),
            Table::build(
                "D",
                &["ID", "Name", "Age", "Gender", "Education Level"],
                &[],
                vec![
                    vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null, V::str("Bachelors")],
                    vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                    vec![V::Int(2), V::str("Wang"), V::Int(32), V::str("Female"), V::Null],
                ],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn figure3_integration_reclaims_source() {
        // A ∪ B ∪ D contain every source value (A has Wang's education, D
        // the rest) — integration must perfectly reclaim S.
        let out = integrate(&originating(), &source(), &GenTConfig::default());
        assert!(perfectly_reclaimed(&source(), &out), "output:\n{out}");
        assert_eq!(recall(&source(), &out), 1.0);
    }

    #[test]
    fn source_nulls_are_protected() {
        // Smith's Gender is null in the source. Candidate E claims "Male".
        // The gated integration must not fill the null: the best aligned
        // tuple keeps gender null.
        let mut tables = originating();
        tables.push(
            Table::build(
                "E",
                &["ID", "Name", "Gender"],
                &[],
                vec![vec![V::Int(0), V::str("Smith"), V::str("Male")]],
            )
            .unwrap(),
        );
        let s = source();
        let out = integrate(&tables, &s, &GenTConfig::default());
        // There must still exist an aligned tuple for Smith with null
        // gender and all other values correct.
        assert!(perfectly_reclaimed(&s, &out), "output:\n{out}");
    }

    #[test]
    fn schema_always_conforms_to_source() {
        let s = source();
        let only_partial =
            vec![Table::build("P", &["ID", "Name"], &[], vec![vec![V::Int(0), V::str("Smith")]])
                .unwrap()];
        let out = integrate(&only_partial, &s, &GenTConfig::default());
        assert_eq!(
            out.schema().columns().collect::<Vec<_>>(),
            s.schema().columns().collect::<Vec<_>>()
        );
        assert_eq!(out.n_rows(), 1);
        let age = out.schema().column_index("Age").unwrap();
        assert!(out.rows()[0][age].is_null());
    }

    #[test]
    fn rows_outside_source_keys_are_dropped() {
        let s = source();
        let with_extra = vec![Table::build(
            "X",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null, V::str("Bachelors")],
                vec![V::Int(99), V::str("Ghost"), V::Int(1), V::Null, V::Null],
            ],
        )
        .unwrap()];
        let out = integrate(&with_extra, &s, &GenTConfig::default());
        let id = out.schema().column_index("ID").unwrap();
        assert!(out.rows().iter().all(|r| r[id] != V::Int(99)));
    }

    #[test]
    fn empty_originating_set_gives_empty_conformed_table() {
        let s = source();
        let out = integrate(&[], &s, &GenTConfig::default());
        assert!(out.is_empty());
        assert_eq!(out.n_cols(), s.n_cols());
    }

    #[test]
    fn no_labeled_nulls_leak() {
        let out = integrate(&originating(), &source(), &GenTConfig::default());
        for row in out.rows() {
            for v in row {
                assert!(!matches!(v, V::LabeledNull(_)));
            }
        }
    }

    #[test]
    fn ungated_integration_can_fill_source_nulls_wrongly() {
        // Ablation: with the κ/β gate off, E's erroneous "Male" can merge
        // into Smith's tuple — demonstrating why the gate exists. The
        // labeled null protects positions where *some* originating table
        // kept the null aligned with the source, so drop D (whose Smith
        // tuple carries the labeled null) to expose the effect.
        let tables = vec![
            Table::build(
                "B+expanded",
                &["ID", "Name", "Age"],
                &[],
                vec![vec![V::Int(0), V::str("Smith"), V::Int(27)]],
            )
            .unwrap(),
            Table::build(
                "E",
                &["ID", "Name", "Gender"],
                &[],
                vec![vec![V::Int(0), V::str("Smith"), V::str("Male")]],
            )
            .unwrap(),
        ];
        let s = source();
        let gated = integrate(&tables, &s, &GenTConfig::default());
        let ungated =
            integrate(&tables, &s, &GenTConfig { gate_kappa_beta: false, ..Default::default() });
        let gender = s.schema().column_index("Gender").unwrap();
        // Ungated: κ merges the two tuples → Male fills the source null.
        assert!(ungated
            .rows()
            .iter()
            .any(|r| r[gender] == V::str("Male") && r[1] == V::str("Smith")));
        // Gated: the merge is rejected; a tuple with null gender remains.
        assert!(gated.rows().iter().any(|r| r[1] == V::str("Smith") && r[gender].is_null()));
    }

    mod project_select_prop {
        //! Select-first [`project_select`] ≡ the project-then-filter it
        //! replaced — rows, order, schema, key designation, name and `None`
        //! — over composite and missing source keys, plain and labeled
        //! nulls in key cells on either side, `Int(1)` / `Float(1.0)` keys,
        //! duplicate keys in the table and tables with keys of their own.

        use super::super::*;
        use gent_table::FxHashSet;
        use proptest::prelude::*;

        /// The ProjectSelect `integrate` ran until select-first.
        fn project_then_filter(t: &Table, source: &Table) -> Option<Table> {
            let keep: Vec<usize> = (0..t.n_cols())
                .filter(|&c| source.schema().contains(t.schema().column_name(c).expect("in range")))
                .collect();
            if keep.is_empty() {
                return None;
            }
            let mut projected = t.take_columns(&keep, t.name()).ok()?;
            let key_cols: Option<Vec<usize>> = source
                .schema()
                .key_names()
                .iter()
                .map(|k| projected.schema().column_index(k))
                .collect();
            let key_cols = key_cols?;
            let source_keys: FxHashSet<KeyValue> =
                (0..source.n_rows()).filter_map(|i| source.key_of_row(i)).collect();
            projected.retain_rows(|row| {
                Table::key_from_row(row, &key_cols)
                    .map(|kv| source_keys.contains(&kv))
                    .unwrap_or(false)
            });
            (!projected.is_empty()).then_some(projected)
        }

        /// A cell from a small domain, so keys repeat and meet.
        fn cell(r: u64) -> Value {
            let v = (r >> 32) % 3;
            match r % 10 {
                0 => Value::Null,
                1 => Value::LabeledNull(v % 2),
                2..=5 => Value::Int(v as i64),
                6..=7 => Value::Float(v as f64),
                8 => Value::Float(0.5),
                _ => Value::str(["a", "b", "c"][v as usize]),
            }
        }

        /// `name` over a shuffled subset of `pool` (at least `min` columns),
        /// keyed on its first 0–2 columns, with 0–`max_rows` rows.
        fn table(
            name: &'static str,
            pool: &'static [&'static str],
            min: usize,
            max_rows: usize,
        ) -> impl Strategy<Value = Table> {
            (
                proptest::sample::subsequence(pool.to_vec(), min..=pool.len()),
                any::<u64>(),
                0usize..3,
            )
                .prop_flat_map(move |(mut cols, seed, n_key)| {
                    let mut s = seed;
                    for i in (1..cols.len()).rev() {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        cols.swap(i, (s >> 33) as usize % (i + 1));
                    }
                    let draws = proptest::collection::vec(
                        proptest::collection::vec(any::<u64>(), cols.len()),
                        0..=max_rows,
                    );
                    draws.prop_map(move |draws| {
                        let rows = draws.iter().map(|r| r.iter().map(|&r| cell(r)).collect());
                        let key = &cols[..n_key.min(cols.len())];
                        Table::build(name, &cols, key, rows.collect()).unwrap()
                    })
                })
        }

        type Exact = (String, Vec<String>, Vec<usize>, Vec<Vec<Value>>);

        fn exact(t: Option<Table>) -> Option<Exact> {
            t.map(|t| {
                let columns = t.schema().columns().map(str::to_string).collect();
                (t.name().to_string(), columns, t.schema().key().to_vec(), t.rows().to_vec())
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn select_first_matches_project_then_filter(
                // The source keys on its first 0–2 columns, whichever the
                // shuffle put there; `T` may lack them, or share no column.
                source in table("S", &["k1", "k2", "a"], 1, 6),
                t in table("T", &["k1", "k2", "a", "x", "y"], 0, 9),
            ) {
                let oracle = exact(project_then_filter(&t, &source));
                prop_assert_eq!(exact(project_select(&t, &source)), oracle);
            }
        }

        /// The generators are not vacuous: many cases keep some rows and
        /// drop others, some over a composite key.
        #[test]
        fn cases_select_and_drop_rows() {
            let mut rng = proptest::test_runner::TestRng::deterministic("select");
            let (sources, tables) = (
                table("S", &["k1", "k2", "a"], 1, 6),
                table("T", &["k1", "k2", "a", "x", "y"], 0, 9),
            );
            let (mut mixed, mut composite) = (0, 0);
            for _ in 0..1024 {
                let (s, t) = (sources.generate(&mut rng), tables.generate(&mut rng));
                if let Some(kept) = project_then_filter(&t, &s) {
                    if kept.n_rows() < t.n_rows() {
                        mixed += 1;
                        composite += usize::from(s.schema().key().len() == 2);
                    }
                }
            }
            assert!(mixed >= 64 && composite >= 16, "{mixed} mixed cases, {composite} composite");
        }
    }
}
