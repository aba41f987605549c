//! Seeded random SPJU query generation.
//!
//! The paper builds its TP-TR benchmarks by running 26 randomly generated
//! queries over the 8 base TPC-H tables, "each having a subset of operators
//! {π, σ, ⋈, ⟕, ⟗, ∪, ⊎}", with 2–9 operations, at most 4 unioned tables
//! and at most 3 joined tables (§VI-A). [`RandomQueryGen`] reproduces that
//! construction over any [`Catalog`]: it generates queries in the three
//! Figure 6 complexity classes, drawing selection constants from the actual
//! data so selections are non-trivially selective, and validates each
//! generated plan against the catalog (regenerating on schema clashes).

use gent_table::{Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::ast::{JoinKind, Query, QueryClass};
use crate::catalog::Catalog;
use crate::predicate::{CmpOp, Predicate};

/// Knobs for [`RandomQueryGen`], defaulting to the paper's limits.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Maximum number of tables combined by unions (paper: 4).
    pub max_union_tables: usize,
    /// Maximum number of tables combined by joins (paper: 3).
    pub max_join_tables: usize,
    /// Probability that a generated query carries a selection.
    pub select_probability: f64,
    /// Probability that a generated query carries a projection.
    pub project_probability: f64,
    /// How many times to retry a draw that fails schema validation.
    pub max_retries: usize,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        Self {
            max_union_tables: 4,
            max_join_tables: 3,
            select_probability: 0.6,
            project_probability: 0.7,
            max_retries: 16,
        }
    }
}

/// A seeded generator of SPJU queries over a catalog.
pub struct RandomQueryGen<'a> {
    catalog: &'a Catalog,
    cfg: QueryGenConfig,
    rng: StdRng,
}

impl<'a> RandomQueryGen<'a> {
    /// A generator over `catalog` with the given config and seed.
    pub fn new(catalog: &'a Catalog, cfg: QueryGenConfig, seed: u64) -> Self {
        Self { catalog, cfg, rng: StdRng::seed_from_u64(seed) }
    }

    /// Generate one query of the given class. Returns `None` when the
    /// catalog cannot support the class (e.g. no joinable table pair) or
    /// every retry failed validation.
    pub fn generate(&mut self, class: QueryClass) -> Option<Query> {
        for _ in 0..self.cfg.max_retries.max(1) {
            let q = match class {
                QueryClass::ProjectSelectUnion => self.gen_psu(),
                QueryClass::OneJoin => self.gen_joins(1),
                QueryClass::MultiJoin => {
                    let extra = self.cfg.max_join_tables.saturating_sub(1).max(2);
                    let n = self.rng.gen_range(2..=extra);
                    self.gen_joins(n)
                }
            };
            if let Some(q) = q {
                if q.output_columns(self.catalog).is_ok() && q.complexity_class() == class {
                    return Some(q);
                }
            }
        }
        None
    }

    /// Class A: π/σ over one table, unioned with up to `max_union_tables-1`
    /// same-schema tables.
    fn gen_psu(&mut self) -> Option<Query> {
        let base = self.pick_table()?;
        let mut q = Query::scan(base.name());
        // Union with same-column-set tables first so ∪ stays well-typed.
        let compatible: Vec<&Table> = self
            .catalog
            .tables()
            .filter(|t| t.name() != base.name() && t.schema().same_columns(base.schema()))
            .collect();
        if !compatible.is_empty() && self.cfg.max_union_tables > 1 {
            let n = self.rng.gen_range(0..self.cfg.max_union_tables.min(compatible.len() + 1));
            let mut picks = compatible;
            picks.shuffle(&mut self.rng);
            for t in picks.into_iter().take(n) {
                q = q.union(Query::scan(t.name()));
            }
        }
        q = self.maybe_select(q, base);
        q = self.maybe_project(q, base);
        // Guarantee ≥1 op so the query is never a bare scan.
        if q.n_ops() == 0 {
            q = q.project(&base.schema().columns().collect::<Vec<_>>());
        }
        Some(q)
    }

    /// A query joining `n_joins + 1` tables along shared columns, then
    /// optionally selected/projected and unioned with itself-shaped noise.
    fn gen_joins(&mut self, n_joins: usize) -> Option<Query> {
        let tables: Vec<&Table> = self.catalog.tables().collect();
        if tables.len() < 2 {
            return None;
        }
        // Start from a random table and greedily extend with joinable ones.
        let mut order: Vec<&Table> = tables.clone();
        order.shuffle(&mut self.rng);
        let mut chain: Vec<&Table> = vec![order[0]];
        let mut joined_cols: Vec<String> =
            order[0].schema().columns().map(str::to_string).collect();
        for t in order.iter().skip(1) {
            if chain.len() > n_joins {
                break;
            }
            let shares = t.schema().columns().any(|c| joined_cols.iter().any(|jc| jc == c));
            let adds = t.schema().columns().any(|c| !joined_cols.iter().any(|jc| jc == c));
            if shares && adds {
                chain.push(t);
                for c in t.schema().columns() {
                    if !joined_cols.iter().any(|jc| jc == c) {
                        joined_cols.push(c.to_string());
                    }
                }
            }
        }
        if chain.len() < n_joins + 1 {
            return None; // catalog has no long-enough join path from here
        }
        let mut q = Query::scan(chain[0].name());
        for t in &chain[1..=n_joins] {
            let kind = match self.rng.gen_range(0..3) {
                0 => JoinKind::Inner,
                1 => JoinKind::Left,
                _ => JoinKind::Full,
            };
            q = q.join(kind, Query::scan(t.name()));
        }
        q = self.maybe_select(q, chain[0]);
        Some(q)
    }

    fn pick_table(&mut self) -> Option<&'a Table> {
        let n = self.catalog.len();
        if n == 0 {
            return None;
        }
        let i = self.rng.gen_range(0..n);
        self.catalog.tables().nth(i)
    }

    /// With probability `select_probability`, add a σ comparing a column of
    /// `base` against a value drawn from `base`'s data.
    fn maybe_select(&mut self, q: Query, base: &Table) -> Query {
        if base.is_empty() || !self.rng.gen_bool(self.cfg.select_probability) {
            return q;
        }
        let j = self.rng.gen_range(0..base.n_cols());
        let i = self.rng.gen_range(0..base.n_rows());
        let v = base.cell(i, j).expect("in range").clone();
        if v.is_null_like() {
            return q;
        }
        let col = base.schema().column_name(j).expect("in range").to_string();
        let op = match (&v, self.rng.gen_range(0..3)) {
            (Value::Int(_) | Value::Float(_), 0) => CmpOp::Ge,
            (Value::Int(_) | Value::Float(_), 1) => CmpOp::Le,
            _ => CmpOp::Eq,
        };
        q.select(Predicate::cmp(col, op, v))
    }

    /// With probability `project_probability`, project onto a random subset
    /// (at least one column) of `base`'s columns.
    fn maybe_project(&mut self, q: Query, base: &Table) -> Query {
        if !self.rng.gen_bool(self.cfg.project_probability) {
            return q;
        }
        let mut cols: Vec<&str> = base.schema().columns().collect();
        cols.shuffle(&mut self.rng);
        let keep = self.rng.gen_range(1..=cols.len());
        cols.truncate(keep);
        q.project(&cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let nation = Table::build(
            "nation",
            &["n_key", "n_name", "r_key"],
            &[],
            (0..6)
                .map(|i| vec![Value::Int(i), Value::str(format!("nation{i}")), Value::Int(i % 2)])
                .collect(),
        )
        .unwrap();
        let region = Table::build(
            "region",
            &["r_key", "r_name"],
            &[],
            vec![vec![Value::Int(0), Value::str("east")], vec![Value::Int(1), Value::str("west")]],
        )
        .unwrap();
        let customer = Table::build(
            "customer",
            &["c_key", "n_key", "c_name"],
            &[],
            (0..8)
                .map(|i| vec![Value::Int(i), Value::Int(i % 6), Value::str(format!("cust{i}"))])
                .collect(),
        )
        .unwrap();
        let nation_b = Table::build(
            "nation_b",
            &["n_key", "n_name", "r_key"],
            &[],
            vec![vec![Value::Int(9), Value::str("atlantis"), Value::Int(0)]],
        )
        .unwrap();
        Catalog::from_tables(vec![nation, region, customer, nation_b])
    }

    #[test]
    fn generated_queries_match_their_class_and_evaluate() {
        let cat = catalog();
        let mut g = RandomQueryGen::new(&cat, QueryGenConfig::default(), 7);
        for class in [QueryClass::ProjectSelectUnion, QueryClass::OneJoin, QueryClass::MultiJoin] {
            for _ in 0..5 {
                let q = g.generate(class).expect("catalog supports all classes");
                assert_eq!(q.complexity_class(), class, "query {q}");
                q.eval(&cat).unwrap_or_else(|e| panic!("query {q} failed: {e}"));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cat = catalog();
        let q1 = RandomQueryGen::new(&cat, QueryGenConfig::default(), 42)
            .generate(QueryClass::OneJoin)
            .unwrap();
        let q2 = RandomQueryGen::new(&cat, QueryGenConfig::default(), 42)
            .generate(QueryClass::OneJoin)
            .unwrap();
        assert_eq!(q1, q2);
        let q3 = RandomQueryGen::new(&cat, QueryGenConfig::default(), 43)
            .generate(QueryClass::OneJoin)
            .unwrap();
        // Different seeds *almost certainly* differ; tolerate equality only
        // by checking several draws.
        let mut any_diff = q1 != q3;
        let mut g42 = RandomQueryGen::new(&cat, QueryGenConfig::default(), 42);
        let mut g43 = RandomQueryGen::new(&cat, QueryGenConfig::default(), 43);
        for _ in 0..5 {
            if g42.generate(QueryClass::ProjectSelectUnion)
                != g43.generate(QueryClass::ProjectSelectUnion)
            {
                any_diff = true;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn suite_cycles_classes_and_respects_limits() {
        let cat = catalog();
        let mut g = RandomQueryGen::new(&cat, QueryGenConfig::default(), 1);
        let classes = [QueryClass::ProjectSelectUnion, QueryClass::OneJoin, QueryClass::MultiJoin];
        let mut generated = 0;
        for class in classes.into_iter().cycle().take(9) {
            let Some(q) = g.generate(class) else { continue };
            generated += 1;
            assert_eq!(q.complexity_class(), class);
            assert!(q.n_ops() >= 1, "query {q} has no operators");
            assert!(q.n_joins() <= 2);
            assert!(q.base_tables().len() <= 4 + 2);
        }
        assert!(generated > 0);
    }

    #[test]
    fn empty_catalog_generates_nothing() {
        let cat = Catalog::new();
        let mut g = RandomQueryGen::new(&cat, QueryGenConfig::default(), 1);
        assert!(g.generate(QueryClass::ProjectSelectUnion).is_none());
        assert!(g.generate(QueryClass::OneJoin).is_none());
    }
}
