//! Per-cell classification of a reclaimed table against its source.
//!
//! Statuses follow the vocabulary of §VI-A2: within the best-aligned tuple
//! per source key, a reclaimed cell is *erroneous* when it holds a non-null
//! value different from the source's, *nullified* when it is null where the
//! source is not, and reclaimed when it matches. Two more statuses cover
//! the remaining geometry: the whole tuple can be *missing* (no aligned
//! key), and the reclamation can be *spurious* — a non-null value where the
//! source has a (correct) null, exactly the case the EIS score's error term
//! penalises (Definition 4).

use gent_metrics::{align_by_key, best_aligned_rows};
use gent_table::Table;

/// The status of one source cell under a reclamation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellStatus {
    /// Key cell of an aligned tuple (matches by construction).
    Key,
    /// The reclaimed value equals the source value (including the case
    /// where both are null — a correctly-preserved unknown).
    Reclaimed,
    /// Source has a value; the reclamation has a null. The lake did not
    /// contain this value (incompleteness).
    Nullified,
    /// Source has a value; the reclamation has a *different* non-null
    /// value. The lake contradicts the source here.
    Erroneous,
    /// Source has a null; the reclamation has a non-null value — it
    /// "reclaimed a possibly erroneous value for a source null" (Example 6).
    Spurious,
    /// The source tuple's key was not found in the reclamation at all.
    Missing,
}

impl CellStatus {
    /// Does this cell count as correctly reclaimed?
    pub fn is_good(self) -> bool {
        matches!(self, CellStatus::Key | CellStatus::Reclaimed)
    }
}

/// A source-shaped grid of cell statuses.
#[derive(Debug, Clone)]
pub struct CellGrid {
    /// `statuses[i][j]` = status of source cell (row `i`, column `j`).
    pub statuses: Vec<Vec<CellStatus>>,
    /// For each source row: the reclaimed row it was judged against (the
    /// best-aligned row), or `None` when missing.
    pub best_rows: Vec<Option<usize>>,
}

impl CellGrid {
    /// Count cells with the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.statuses.iter().flat_map(|r| r.iter()).filter(|&&s| s == status).count()
    }

    /// Total number of cells (rows × columns of the source).
    pub fn n_cells(&self) -> usize {
        self.statuses.iter().map(|r| r.len()).sum()
    }

    /// Fraction of cells that are correctly reclaimed.
    pub fn fraction_good(&self) -> f64 {
        let n = self.n_cells();
        if n == 0 {
            return 0.0;
        }
        let good = self.statuses.iter().flat_map(|r| r.iter()).filter(|s| s.is_good()).count();
        good as f64 / n as f64
    }
}

/// Classify every source cell against `reclaimed`.
///
/// The source must declare a key (the problem statement's precondition);
/// alignment and best-row selection follow §IV-A / §VI-A2.
pub fn classify_cells(source: &Table, reclaimed: &Table) -> CellGrid {
    let alignment = align_by_key(source, reclaimed);
    let best = best_aligned_rows(source, reclaimed, &alignment);
    let key_cols = source.schema().key().to_vec();
    let mut statuses = Vec::with_capacity(source.n_rows());
    for (si, srow) in source.rows().iter().enumerate() {
        let mut row_status = Vec::with_capacity(source.n_cols());
        match best[si] {
            None => {
                row_status.resize(source.n_cols(), CellStatus::Missing);
            }
            Some(ti) => {
                for (j, sv) in srow.iter().enumerate() {
                    if key_cols.contains(&j) {
                        row_status.push(CellStatus::Key);
                        continue;
                    }
                    let tv = alignment.reclaimed_cell(reclaimed, ti, j);
                    let status = match (sv.is_null_like(), tv.is_null_like()) {
                        (false, false) if sv == tv => CellStatus::Reclaimed,
                        (false, false) => CellStatus::Erroneous,
                        (false, true) => CellStatus::Nullified,
                        (true, false) => CellStatus::Spurious,
                        (true, true) => CellStatus::Reclaimed,
                    };
                    row_status.push(status);
                }
            }
        }
        statuses.push(row_status);
    }
    CellGrid { statuses, best_rows: best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    fn source() -> Table {
        Table::build(
            "S",
            &["ID", "Name", "Age", "Gender"],
            &["ID"],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male")],
                vec![V::Int(2), V::str("Wang"), V::Int(32), V::str("Female")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn perfect_reclamation_is_all_good() {
        let s = source();
        let grid = classify_cells(&s, &s.clone());
        assert_eq!(grid.count(CellStatus::Erroneous), 0);
        assert_eq!(grid.count(CellStatus::Nullified), 0);
        assert_eq!(grid.count(CellStatus::Missing), 0);
        assert_eq!(grid.count(CellStatus::Spurious), 0);
        assert!((grid.fraction_good() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn statuses_cover_all_cases() {
        let s = source();
        let reclaimed = Table::build(
            "R",
            &["ID", "Name", "Age", "Gender"],
            &[],
            vec![
                // Smith: age nullified, gender spurious.
                vec![V::Int(0), V::str("Smith"), V::Null, V::str("Male")],
                // Brown: age erroneous.
                vec![V::Int(1), V::str("Brown"), V::Int(99), V::str("Male")],
                // Wang: missing entirely.
            ],
        )
        .unwrap();
        let grid = classify_cells(&s, &reclaimed);
        assert_eq!(grid.statuses[0][0], CellStatus::Key);
        assert_eq!(grid.statuses[0][1], CellStatus::Reclaimed);
        assert_eq!(grid.statuses[0][2], CellStatus::Nullified);
        assert_eq!(grid.statuses[0][3], CellStatus::Spurious);
        assert_eq!(grid.statuses[1][2], CellStatus::Erroneous);
        assert!(grid.statuses[2].iter().all(|&s| s == CellStatus::Missing));
        assert_eq!(grid.best_rows, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn best_aligned_row_is_used_not_worst() {
        let s = source();
        let reclaimed = Table::build(
            "R",
            &["ID", "Name", "Age", "Gender"],
            &[],
            vec![
                vec![V::Int(1), V::Null, V::Null, V::Null],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male")],
            ],
        )
        .unwrap();
        let grid = classify_cells(&s, &reclaimed);
        // Row for Brown judged against the fully-correct duplicate.
        assert!(grid.statuses[1].iter().all(|s| s.is_good()));
        assert_eq!(grid.best_rows[1], Some(1));
    }

    #[test]
    fn correct_null_counts_as_reclaimed() {
        let s = source();
        let mut r = s.clone();
        r.set_name("R");
        let grid = classify_cells(&s, &r);
        // Smith's Gender is null in both → Reclaimed, not Spurious.
        assert_eq!(grid.statuses[0][3], CellStatus::Reclaimed);
    }

    #[test]
    fn counts_and_totals() {
        let s = source();
        let empty = Table::build("R", &["ID", "Name", "Age", "Gender"], &[], vec![]).unwrap();
        let grid = classify_cells(&s, &empty);
        assert_eq!(grid.n_cells(), 12);
        assert_eq!(grid.count(CellStatus::Missing), 12);
        assert_eq!(grid.fraction_good(), 0.0);
    }
}
