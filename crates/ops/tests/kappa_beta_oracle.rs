//! κ, β and the minimal form partition rows into blocks (`src/unary.rs`,
//! "Blocks") and must return exactly what the whole-table scans return —
//! rows and their order — on tables with many rows per block, plain and
//! labeled nulls, `Int(1)` / `Float(1.0)`, exact duplicates, all-null
//! columns, no block column at all, and 0 or 1 rows. The same check with
//! colliding block hashes runs in `unary.rs`'s unit tests.

mod scan_oracle;

use gent_ops::{complementation, minimal_form, subsumption};
use proptest::prelude::*;
use scan_oracle::{check, table, Ops};

const PUBLIC: Ops = Ops { kappa: complementation, beta: subsumption, minimal: minimal_form };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn blocked_operators_match_the_scans(t in table()) {
        check(&t, &PUBLIC)?;
    }
}
