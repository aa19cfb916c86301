//! Correctness oracles. Each returns `Err(message)` on a violation; a run
//! with any violation reports `"correct": false` and exits non-zero.
//!
//! [`self_test`] plants one fault per oracle family — an off-by-one
//! expected edge count, a PageRank result with the wrong mass, and an
//! acknowledged write that the log drops — and demands that each is caught,
//! so an oracle that silently passes everything fails the run instead.

use std::path::Path;

use livegraph_analytics::{pagerank, LiveSnapshot, PageRankOptions};
use livegraph_core::{LiveGraph, LiveGraphOptions, ReadTxn, SyncMode, DEFAULT_LABEL};

/// The edge count the acknowledged writes imply.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeLedger {
    /// Distinct edges after the base load.
    pub base: u64,
    /// `put_edge` calls that reported a new edge and were acknowledged.
    pub inserted: u64,
    /// `delete_edge` calls that reported an existing edge and were acknowledged.
    pub deleted: u64,
    /// Edge writes whose outcome is unknown; each widens the tolerance by one.
    pub unknown: u64,
}

impl EdgeLedger {
    pub fn expected(&self) -> i128 {
        self.base as i128 + self.inserted as i128 - self.deleted as i128
    }
}

/// Σ degree over every vertex id of the snapshot.
pub fn sum_degrees(txn: &ReadTxn<'_>) -> u64 {
    (0..txn.vertex_count())
        .map(|v| txn.degree(v, DEFAULT_LABEL) as u64)
        .sum()
}

/// Edge-count conservation: Σ degree = base + inserted − deleted, within the
/// unknown-outcome tolerance.
pub fn check_edge_count(observed: u64, ledger: &EdgeLedger) -> Result<(), String> {
    let diff = (observed as i128 - ledger.expected()).unsigned_abs();
    if diff <= ledger.unknown as u128 {
        Ok(())
    } else {
        Err(format!(
            "edge-count conservation: observed {observed} edges, expected {} \
             (base {} + inserted {} - deleted {}, tolerance {})",
            ledger.expected(),
            ledger.base,
            ledger.inserted,
            ledger.deleted,
            ledger.unknown
        ))
    }
}

/// The sealed scan (`for_each_neighbor`), the checked iterator (`edges`)
/// and `degree()` agree on every sampled vertex.
pub fn check_scans(txn: &ReadTxn<'_>, sample: impl IntoIterator<Item = u64>) -> Result<(), String> {
    let (mut fast, mut checked) = (Vec::new(), Vec::new());
    for v in sample {
        fast.clear();
        checked.clear();
        txn.for_each_neighbor(v, DEFAULT_LABEL, |d| fast.push(d));
        checked.extend(txn.edges(v, DEFAULT_LABEL).map(|e| e.dst));
        let degree = txn.degree(v, DEFAULT_LABEL);
        fast.sort_unstable();
        checked.sort_unstable();
        if fast != checked || fast.len() != degree {
            return Err(format!(
                "scan equivalence on vertex {v}: fast scan {} edges, checked iterator {}, degree {degree}",
                fast.len(),
                checked.len()
            ));
        }
    }
    Ok(())
}

/// Every vertex known to exist (the base ids and every acknowledged
/// `add_node`) is readable.
pub fn check_known_vertices(txn: &ReadTxn<'_>, base: u64, created: &[u64]) -> Result<(), String> {
    let missing = (0..base)
        .chain(created.iter().copied())
        .filter(|&v| txn.get_vertex(v).is_none())
        .count();
    if missing == 0 {
        Ok(())
    } else {
        Err(format!(
            "{missing} vertices known to exist are not readable"
        ))
    }
}

/// PageRank mass is 1 ± 1e-6.
pub fn check_mass(ranks: &[f64]) -> Result<(), String> {
    let mass: f64 = ranks.iter().sum();
    if (mass - 1.0).abs() <= 1e-6 {
        Ok(())
    } else {
        Err(format!("PageRank mass {mass:.9} is not 1 ± 1e-6"))
    }
}

/// Runs a PageRank pass on `txn`'s snapshot.
pub fn pagerank_pass(txn: &ReadTxn<'_>, iterations: usize) -> Vec<f64> {
    pagerank(
        &LiveSnapshot::new(txn, DEFAULT_LABEL),
        PageRankOptions {
            iterations,
            damping: 0.85,
            threads: 1,
        },
    )
}

/// Every whole-graph oracle on one snapshot.
pub fn check_graph(
    graph: &LiveGraph,
    ledger: &EdgeLedger,
    base_vertices: u64,
    created: &[u64],
    scan_sample: &[u64],
) -> Result<u64, String> {
    let txn = graph.begin_read().map_err(|e| format!("begin_read: {e}"))?;
    let edges = sum_degrees(&txn);
    check_edge_count(edges, ledger)?;
    check_known_vertices(&txn, base_vertices, created)?;
    check_scans(&txn, scan_sample.iter().copied())?;
    Ok(edges)
}

/// Plants one fault per oracle family in a small graph under `dir` and
/// returns an error naming any fault that was not caught (or any clean
/// control that was wrongly flagged).
pub fn self_test(dir: &Path) -> Result<(), String> {
    let e = |x: livegraph_core::Error| x.to_string();
    // Clean control: a small graph whose oracles must pass.
    let graph = LiveGraph::open(
        LiveGraphOptions::in_memory()
            .with_capacity(1 << 22)
            .with_max_vertices(1 << 10),
    )
    .map_err(e)?;
    let mut ledger = EdgeLedger::default();
    let mut txn = graph.begin_write().map_err(e)?;
    for _ in 0..16 {
        txn.create_vertex(b"v").map_err(e)?;
    }
    for i in 0..48u64 {
        if txn
            .put_edge(i % 16, DEFAULT_LABEL, (i * 7) % 16, b"e")
            .map_err(e)?
        {
            ledger.base += 1;
        }
    }
    txn.commit().map_err(e)?;
    check_graph(&graph, &ledger, 16, &[], &[0, 1, 5, 15])?;
    let read = graph.begin_read().map_err(e)?;
    let ranks = pagerank_pass(&read, 5);
    check_mass(&ranks)?;

    // Fault 1: an off-by-one expected edge count.
    let off_by_one = EdgeLedger {
        inserted: ledger.inserted + 1,
        ..ledger
    };
    if check_edge_count(sum_degrees(&read), &off_by_one).is_ok() {
        return Err("self-test: an off-by-one expected edge count was not caught".into());
    }
    // Fault 2: a PageRank result with the wrong mass.
    let mut wrong = ranks.clone();
    wrong[0] += 1e-4;
    if check_mass(&wrong).is_ok() {
        return Err("self-test: a wrong PageRank mass was not caught".into());
    }
    drop(read);

    // Fault 3: acknowledged writes that never reach the log device. The
    // fault-injection sync mode tears the WAL after a few KiB while every
    // commit still reports success; after reopening, the acknowledged
    // inserts must not add up.
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|x| x.to_string())?;
    let durable = |mode| {
        LiveGraphOptions::durable(dir)
            .with_capacity(1 << 22)
            .with_max_vertices(1 << 10)
            .with_sync_mode(mode)
    };
    let mut ledger = EdgeLedger::default();
    {
        let graph = LiveGraph::open(durable(SyncMode::CrashAt(2048))).map_err(e)?;
        let mut txn = graph.begin_write().map_err(e)?;
        for _ in 0..16 {
            txn.create_vertex(b"v").map_err(e)?;
        }
        txn.commit().map_err(e)?;
        for i in 0..128u64 {
            let mut txn = graph.begin_write().map_err(e)?;
            let new = txn
                .put_edge(i % 16, DEFAULT_LABEL, i / 16, b"acked")
                .map_err(e)?;
            txn.commit().map_err(e)?;
            ledger.inserted += u64::from(new);
        }
        if !graph.stats().wal_torn {
            return Err("self-test: the fault-injected WAL did not tear".into());
        }
    }
    let reopened = LiveGraph::open(durable(SyncMode::Fsync)).map_err(e)?;
    let caught = check_graph(&reopened, &ledger, 16, &[], &[0, 1]).is_err();
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
    if !caught {
        return Err("self-test: dropped acknowledged writes were not caught".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_faults_are_caught() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("selftest-{}", std::process::id()));
        self_test(&dir).unwrap();
    }

    #[test]
    fn tolerance_covers_unknown_outcomes_only() {
        let ledger = EdgeLedger {
            base: 10,
            inserted: 5,
            deleted: 2,
            unknown: 1,
        };
        assert!(check_edge_count(13, &ledger).is_ok());
        assert!(check_edge_count(14, &ledger).is_ok());
        assert!(check_edge_count(12, &ledger).is_ok());
        assert!(check_edge_count(15, &ledger).is_err());
    }

    #[test]
    fn mass_bounds() {
        assert!(check_mass(&[0.5, 0.5]).is_ok());
        assert!(check_mass(&[0.5, 0.5 + 2e-6]).is_err());
    }
}
