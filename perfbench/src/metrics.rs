//! Reading the program's own counters: `GraphStats` and the telemetry
//! registry in-process, or the server's registry (Prometheus text from
//! `--metrics-listen`) and `Stats` reply over the wire. Both land in one
//! flat name → value map so per-layer numbers are before/after deltas of
//! the same keys whichever side hosts the engine.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use livegraph_core::{GraphStats, LiveGraph, MetricsSnapshot};
use livegraph_server::StatsReply;

/// Flat sample: registry series under their registry names (histograms as
/// `<name>_count`, `<name>_sum` in seconds or units, and
/// `<name>{quantile="q"}`), engine statistics under `stats.*`.
#[derive(Debug, Clone, Default)]
pub struct Sample(pub BTreeMap<String, f64>);

impl Sample {
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `later - self` for `key`.
    pub fn delta(&self, later: &Sample, key: &str) -> f64 {
        later.get(key) - self.get(key)
    }

    /// Mean of a histogram over the interval, in the histogram's unit
    /// (seconds for `_seconds` series), with its sample count.
    pub fn hist_mean(&self, later: &Sample, name: &str) -> (f64, f64) {
        let n = self.delta(later, &format!("{name}_count"));
        let sum = self.delta(later, &format!("{name}_sum"));
        (if n > 0.0 { sum / n } else { 0.0 }, n)
    }

    fn put(&mut self, key: impl Into<String>, v: f64) {
        self.0.insert(key.into(), v);
    }
}

/// In-process sample of the registry plus engine statistics.
pub fn local(graph: &LiveGraph) -> Sample {
    let mut s = Sample::default();
    add_snapshot(&mut s, &graph.metrics());
    add_stats(&mut s, &graph.stats());
    s
}

fn add_snapshot(s: &mut Sample, snap: &MetricsSnapshot) {
    for (name, v) in &snap.counters {
        s.put(name.clone(), *v as f64);
    }
    for (name, v) in &snap.gauges {
        s.put(name.clone(), *v as f64);
    }
    for h in &snap.histograms {
        let scale = if h.name.ends_with("_seconds") {
            1e-9
        } else {
            1.0
        };
        s.put(format!("{}_count", h.name), h.count as f64);
        s.put(format!("{}_sum", h.name), h.sum as f64 * scale);
        for q in ["0.5", "0.99"] {
            let v = h.percentile(q.parse().expect("literal quantile")) as f64 * scale;
            s.put(format!("{}{{quantile=\"{q}\"}}", h.name), v);
        }
    }
}

fn add_stats(s: &mut Sample, st: &GraphStats) {
    s.put("stats.sealed_scans", st.scans.sealed_scans as f64);
    s.put("stats.checked_scans", st.scans.checked_scans as f64);
    s.put("stats.edge_lookups", st.scans.edge_lookups as f64);
    s.put(
        "stats.lookup_entries",
        st.scans.edge_lookup_entries_scanned as f64,
    );
    s.put(
        "stats.bloom_negatives",
        st.scans.edge_lookup_bloom_negatives as f64,
    );
    s.put("stats.wal_bytes", st.wal_bytes as f64);
    s.put("stats.wal_fsyncs", st.wal_fsyncs as f64);
    s.put("stats.wal_groups", st.wal_groups as f64);
    s.put("stats.wal_group_records", st.wal_group_records as f64);
    s.put("stats.compaction_passes", st.compaction.passes as f64);
    s.put(
        "stats.compaction_entries_dropped",
        st.compaction.entries_dropped as f64,
    );
    s.put("stats.live_bytes", st.blocks.live_bytes() as f64);
    s.put("stats.bump_bytes", st.blocks.bump_bytes as f64);
    s.put("stats.epoch_lag", (st.write_epoch - st.read_epoch) as f64);
}

/// Remote sample: the server's Prometheus exposition plus its `Stats` reply.
pub fn remote(metrics_addr: SocketAddr, stats: &StatsReply) -> Result<Sample, String> {
    let mut s = scrape(metrics_addr)?;
    s.put("stats.sealed_scans", stats.sealed_scans as f64);
    s.put("stats.checked_scans", stats.checked_scans as f64);
    s.put("stats.edge_lookups", stats.edge_lookups as f64);
    s.put(
        "stats.lookup_entries",
        stats.edge_lookup_entries_scanned as f64,
    );
    s.put(
        "stats.bloom_negatives",
        stats.edge_lookup_bloom_negatives as f64,
    );
    s.put("stats.wal_bytes", stats.wal_bytes as f64);
    s.put("stats.wal_fsyncs", stats.wal_fsyncs as f64);
    s.put("stats.wal_groups", stats.wal_groups as f64);
    s.put("stats.wal_group_records", stats.wal_group_records as f64);
    s.put(
        "stats.compaction_passes",
        s.get("livegraph_compaction_passes_total"),
    );
    s.put(
        "stats.epoch_lag",
        (stats.write_epoch - stats.read_epoch) as f64,
    );
    Ok(s)
}

/// One HTTP scrape of a `--metrics-listen` endpoint, parsed.
pub fn scrape(addr: SocketAddr) -> Result<Sample, String> {
    let err = |e: std::io::Error| format!("metrics scrape of {addr}: {e}");
    let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(err)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(err)?;
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(err)?;
    let mut text = String::new();
    conn.read_to_string(&mut text).map_err(err)?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or(text.as_str(), |(_, b)| b);
    Ok(parse_exposition(body))
}

/// Parses `name value` sample lines; `#` comments are skipped.
fn parse_exposition(body: &str) -> Sample {
    let mut s = Sample::default();
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.trim().parse::<f64>() {
                s.put(key.trim(), v);
            }
        }
    }
    s
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_and_summaries() {
        let s = parse_exposition(
            "# TYPE livegraph_commits_total counter\nlivegraph_commits_total 42\n\
             livegraph_commit_seconds{quantile=\"0.5\"} 0.000012000\n\
             livegraph_commit_seconds_sum 0.5\nlivegraph_commit_seconds_count 10\n",
        );
        assert_eq!(s.get("livegraph_commits_total"), 42.0);
        assert_eq!(
            s.get("livegraph_commit_seconds{quantile=\"0.5\"}"),
            0.000012
        );
        let (mean, n) = Sample::default().hist_mean(&s, "livegraph_commit_seconds");
        assert_eq!((mean, n), (0.05, 10.0));
    }
}
