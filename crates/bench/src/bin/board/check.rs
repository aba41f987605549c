//! The correctness gate: what a response must say, and whether it does.
//!
//! The oracle for a source is the in-process `GenT::default().reclaim`
//! against the same lake. A served answer is correct when its reclaimed
//! table and its EIS are **byte-identical** to the oracle's, compared on
//! the wire rendering (`table_to_json(..).render()`), which is a pure
//! function of the table.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gent_core::GenT;
use gent_discovery::DataLake;
use gent_serve::{table_to_json, Json};
use gent_table::Table;

use crate::client::object_member;
use crate::workload::Item;

/// What a correct `/reclaim` response carries for one source.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// FNV-1a of the rendered `reclaimed` member.
    reclaimed_hash: u64,
    /// Its length — a second, independent witness.
    reclaimed_len: usize,
    /// `metrics.eis` as rendered on the wire.
    eis_text: String,
    /// The EIS itself, for `mean_eis`.
    pub eis: f64,
}

impl Expected {
    /// The expectation a reclaimed table and its EIS give rise to.
    pub fn of(reclaimed: &Table, eis: f64) -> Expected {
        let rendered = table_to_json(reclaimed).render();
        Expected {
            reclaimed_hash: fnv1a(rendered.as_bytes()),
            reclaimed_len: rendered.len(),
            eis_text: Json::Float(eis).render(),
            eis,
        }
    }

    /// Check a 200 response body against this expectation.
    pub fn verify(&self, body: &[u8]) -> Result<(), String> {
        let reclaimed =
            object_member(body, "reclaimed").ok_or("response has no `reclaimed` member")?;
        let eis = object_member(body, "metrics")
            .and_then(|m| object_member(m, "eis"))
            .ok_or("response has no `metrics.eis`")?;
        if eis != self.eis_text.as_bytes() {
            return Err(format!(
                "EIS {} differs from the oracle's {}",
                String::from_utf8_lossy(eis),
                self.eis_text
            ));
        }
        if reclaimed.len() != self.reclaimed_len || fnv1a(reclaimed) != self.reclaimed_hash {
            return Err(format!(
                "reclaimed table differs from the oracle's ({} bytes served, {} expected)",
                reclaimed.len(),
                self.reclaimed_len
            ));
        }
        Ok(())
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Reclaim every source in-process on `threads` threads. Returns each
/// source's expectation and how long its reclaim took (the runner orders
/// requests longest-first from these). Run on the lake the daemon is about
/// to serve, this is also its warm-up: the index is thawed and exactly the
/// tables these sources touch are decoded.
pub fn oracle(
    lake: &DataLake,
    sources: &[Item],
    threads: usize,
) -> Result<Vec<(Expected, Duration)>, String> {
    let gen_t = GenT::default();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(Expected, Duration)>> = vec![None; sources.len()];
    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| -> Result<Vec<_>, String> {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = sources.get(i) else { return Ok(done) };
                        let t0 = Instant::now();
                        let result = gen_t
                            .reclaim(&item.table, lake)
                            .map_err(|e| format!("oracle reclaim of source {i}: {e}"))?;
                        let elapsed = t0.elapsed();
                        done.push((i, Expected::of(&result.reclaimed, result.eis), elapsed));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle thread"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    for (i, expected, elapsed) in results.into_iter().flatten() {
        slots[i] = Some((expected, elapsed));
    }
    slots.into_iter().map(|s| s.ok_or_else(|| "oracle skipped a source".to_string())).collect()
}

/// After ingests were acknowledged: re-open the snapshot from disk and
/// require every acknowledged table to be present with equal content.
pub fn verify_durable(path: &std::path::Path, acknowledged: &[&Table]) -> Result<(), String> {
    let reopened =
        gent_store::snapshot::load(path).map_err(|e| format!("re-open after ingest: {e}"))?;
    for table in acknowledged {
        let stored = reopened.lake.get_by_name(table.name()).ok_or_else(|| {
            format!("acknowledged table `{}` is not in the snapshot", table.name())
        })?;
        let same_columns = stored.schema().columns().eq(table.schema().columns());
        if !same_columns || stored.rows() != table.rows() {
            return Err(format!("acknowledged table `{}` differs after re-open", table.name()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    #[test]
    fn verify_accepts_the_oracle_and_rejects_anything_else() {
        let table = Table::build(
            "reclaimed",
            &["id", "v"],
            &["id"],
            vec![vec![V::Int(1), V::str("a")], vec![V::Int(2), V::Null]],
        )
        .unwrap();
        let expected = Expected::of(&table, 0.75);
        let response = |t: &Table, eis: f64| {
            Json::Object(vec![
                ("source".into(), Json::str("S")),
                ("metrics".into(), Json::Object(vec![("eis".into(), Json::Float(eis))])),
                ("reclaimed".into(), table_to_json(t)),
            ])
            .render()
            .into_bytes()
        };
        assert_eq!(expected.verify(&response(&table, 0.75)), Ok(()));
        assert!(expected.verify(&response(&table, 0.5)).unwrap_err().contains("EIS"));
        let mut other = table.clone();
        other.push_row(vec![V::Int(3), V::str("c")]).unwrap();
        assert!(expected.verify(&response(&other, 0.75)).unwrap_err().contains("reclaimed"));
        assert!(expected.verify(b"{\"error\":{}}").is_err());
    }
}
