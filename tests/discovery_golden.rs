//! Discovery golden: Set Similarity's candidate lists over the TP-TR datagen
//! suite, pinned bit for bit against `tests/golden/discovery_tptr.txt`.
//!
//! `tests/traversal_regression.rs` holds the *reclaimed* bytes; a candidate
//! list can change (a different rename, a reordered pair of near-ties)
//! without moving them on these lakes. This file pins what discovery itself
//! hands to traversal — per candidate its lake table, the bits of its
//! ranking score, the source columns it matched and its renamed schema — so
//! a rewrite of row-level verification or of the subsumption sweep that is
//! not bit-identical fails here first. The golden file holds one digest per
//! source (a mismatch prints the candidate lines behind it) and was written
//! by the cell-by-cell verification that the proptest oracle in
//! `crates/discovery/tests/verify_prop.rs` preserves.

use gen_t::datagen::suite::{build, BenchmarkId, SuiteConfig};
use gen_t::discovery::{set_similarity, DataLake, SetSimilarityConfig};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/discovery_tptr.txt");

/// FNV-1a over a case's candidate lines: the golden file stays one line per
/// case, and a mismatch prints the lines behind the digest.
fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One `(golden line, candidate lines)` pair per keyed source of the suites
/// below.
fn candidate_dump() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let suites = [
        ("tp-tr-small/seed7", BenchmarkId::TpTrSmall, 7),
        ("tp-tr-med/seed7", BenchmarkId::TpTrMed, 7),
        ("santos+tp-tr-med/seed7", BenchmarkId::SantosLargeTpTrMed, 7),
        ("tp-tr-small/seed11", BenchmarkId::TpTrSmall, 11),
    ];
    for (label, id, seed) in suites {
        let suite = SuiteConfig {
            seed,
            units: (20, 40, 60),
            santos_noise_tables: 60,
            ..Default::default()
        };
        let bench = build(id, &suite);
        let lake = DataLake::from_tables(bench.lake_tables.clone());
        for case in bench.cases.iter().filter(|c| c.source.schema().has_key()) {
            let cands = set_similarity(&lake, &case.source, None, &SetSimilarityConfig::default());
            let mut lines = String::new();
            for c in &cands {
                let schema: Vec<&str> = c.table.schema().columns().collect();
                writeln!(
                    lines,
                    "  lake {} score {:016x} matched {:?} schema {}",
                    c.lake_index,
                    c.score.to_bits(),
                    c.matched_source_cols,
                    schema.join("|"),
                )
                .unwrap();
            }
            let head = format!(
                "{label} case {} candidates {} digest {:016x}",
                case.id,
                cands.len(),
                digest(&lines)
            );
            out.push((head, lines));
        }
    }
    out
}

#[test]
fn candidate_lists_match_the_golden_file_bit_for_bit() {
    let dump = candidate_dump();
    let candidates: usize = dump.iter().map(|(_, lines)| lines.lines().count()).sum();
    assert!(candidates > 2000, "suite too small: {candidates} candidates");
    assert_eq!(dump.len(), GOLDEN.lines().count(), "number of cases");
    for ((got, lines), want) in dump.iter().zip(GOLDEN.lines()) {
        assert_eq!(got, want, "candidate list diverges from the golden file; got\n{lines}");
    }
}
