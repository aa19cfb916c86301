//! One benchmark run: the oracle self-test, repeated set-up, the timed
//! window, the end-of-run oracles (after a reopen for the durable hosts)
//! and the metrics and report built from all of it.

use std::path::Path;
use std::time::Instant;

use livegraph_core::LiveGraph;

use crate::gen::{Op, Rng, Zipf};
use crate::hist::Hist;
use crate::metrics::{self, Sample};
use crate::ops::{total_counts, Slice, Worker};
use crate::oracle::{self, EdgeLedger};
use crate::setup::{
    self, durable_options, first_read_local, io, Engine, Host, Prepared, Spec, CLIENTS,
    ZIPF_EXPONENT,
};
use crate::trace::{merge_aggs, Agg, Kind, Tracer, KINDS, SPAN_CSV_HEADER};
use crate::window::{self, analytics_pass, SLICE};
use crate::{m, quote, Args, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Quiescent analytics passes before the window, on workloads without
/// concurrent analytics.
const QUIESCENT_PASSES: usize = 7;
/// End-to-end window numbers come from the least-disturbed quarter of the
/// slices (and of the analytics passes): the 75th percentile of per-slice
/// throughput, the 25th percentile of per-slice latency quantiles. On a
/// shared host, interference from other tenants only ever slows a slice
/// down and comes in bursts of seconds, so this tracks the program while a
/// median would track the neighbours. Medians are in the report line too.
const QUIET: f64 = 0.25;
/// Vertices checked by the scan-equivalence oracle: the hottest ranks plus
/// a uniform sample.
const SCAN_SAMPLE_HOT: u64 = 500;
const SCAN_SAMPLE_UNIFORM: usize = 500;

/// The `p`-quantile of `v` with linear interpolation (0 when empty).
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = setup::spec(&args.workload)?;
    let root = args.work_dir.join(format!(
        "{}-seed{}-trace{}-pid{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&root).map_err(io)?;
    let result = run_in(args, &spec, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(args: &Args, spec: &Spec, root: &Path) -> Result<Outcome, String> {
    let mut errors = Vec::new();
    if let Err(e) = oracle::self_test(&root.join("selftest")) {
        errors.push(e);
    }

    // Set-up, several times; the last one serves the run.
    let mut setup_times = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for rep in 0..SETUP_REPS {
        if let Some(p) = prepared.take() {
            p.discard();
        }
        let t0 = Instant::now();
        let p = setup::setup(spec, args, &root.join(format!("rep{rep}")))?;
        setup_times.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up ran");
    let setup_s = median(&setup_times);
    let load_rate = prepared.load.edges_per_s;
    let load_commit_p50 = prepared.load.commit.quantile(0.5) / 1e3;
    let n = spec.vertices;
    let keys = Zipf::new(n, ZIPF_EXPONENT);
    let mut scan_sample: Vec<u64> = (1..=SCAN_SAMPLE_HOT.min(n))
        .map(|r| keys.id_of_rank(r))
        .collect();
    let mut rng = Rng::new(args.seed, u64::MAX - 1);
    scan_sample.extend((0..SCAN_SAMPLE_UNIFORM).map(|_| rng.next_u64() % n));
    let mut ledger = EdgeLedger {
        base: prepared.load.base_edges,
        ..EdgeLedger::default()
    };
    if let Err(e) = oracle::check_graph(&prepared.graph, &ledger, n, &[], &scan_sample) {
        errors.push(format!("after load: {e}"));
    }
    // Without concurrent analytics, the analytics numbers come from
    // quiescent passes over the freshly loaded graph, which the seed alone
    // determines (the graph after the window grows with the throughput).
    let mut quiescent_passes = Vec::new();
    if !spec.htap {
        let mut untraced = Tracer::new(Instant::now(), u32::MAX);
        for _ in 0..QUIESCENT_PASSES {
            quiescent_passes.push(analytics_pass(&prepared.graph, &mut untraced)?);
        }
    }

    let epoch = Instant::now();
    let measured = window::measure(
        args,
        spec,
        &Engine::Local(&prepared.graph),
        &keys,
        epoch,
        args.seconds,
    )?;
    let window::Measured {
        workers,
        passes,
        analytics_agg,
        before,
        after,
        slice_secs,
        lags,
        steal_share,
        slice_steal,
        errors: window_errors,
    } = measured;
    errors.extend(window_errors);
    let slices_n = slice_secs.len();

    // Accounting.
    let mut slices = vec![Slice::default(); slices_n];
    let mut created = Vec::new();
    let mut aggs: Vec<Agg> = vec![Agg::default(); KINDS.len()];
    let mut scanned = 0u64;
    for w in &workers {
        for (total, s) in slices.iter_mut().zip(&w.slices) {
            total.read.merge(&s.read);
            total.write.merge(&s.write);
        }
        ledger.inserted += w.inserted;
        ledger.deleted += w.deleted;
        ledger.unknown += w.unknown_edge_writes;
        created.extend_from_slice(&w.created);
        merge_aggs(&mut aggs, &w.tracer.agg);
        scanned += w.scanned_edges;
    }
    merge_aggs(&mut aggs, &analytics_agg);
    // Per-slice values, over the untraced slices only (all of them without
    // tracing) or the traced ones.
    let over_slices = |traced: bool, p: f64, f: &dyn Fn(&Slice, f64) -> Option<f64>| {
        let v: Vec<f64> = slices
            .iter()
            .zip(&slice_secs)
            .enumerate()
            .filter(|(ix, _)| !args.trace || (ix % 2 == 1) == traced)
            .filter_map(|(_, (s, &secs))| f(s, secs))
            .collect();
        percentile(&v, p)
    };
    let rate = |s: &Slice, secs: f64| Some((s.read.count() + s.write.count()) as f64 / secs);
    let latency = |read: bool, q: f64, p: f64| {
        over_slices(false, p, &|s: &Slice, _| {
            let h = if read { &s.read } else { &s.write };
            (h.count() > 0).then(|| h.quantile(q) / 1e3)
        })
    };
    let throughput = over_slices(false, 1.0 - QUIET, &rate);
    let per_slice = |f: &dyn Fn(&Slice, f64) -> f64| -> Vec<f64> {
        slices
            .iter()
            .zip(&slice_secs)
            .map(|(s, &secs)| f(s, secs))
            .collect()
    };
    let mut all = Slice::default();
    for s in &slices {
        all.read.merge(&s.read);
        all.write.merge(&s.write);
    }

    // End-of-run state, oracles, recovery.
    let checks = Checks {
        ledger: &ledger,
        vertices: n,
        created: &created,
        scan_sample: &scan_sample,
        epoch,
    };
    let Prepared { graph, dir, .. } = prepared;
    let space = checks.run(&graph, true, &mut errors, "end of run");
    let peak_rss = metrics::peak_rss_mb().unwrap_or(0.0);
    drop(graph);
    // Reopen the data directory: every acknowledged write must be there.
    let mut recovery_s = 0.0;
    let mut wire = None;
    if let Some(dir) = &dir {
        let t0 = Instant::now();
        let g = LiveGraph::open(durable_options(&dir.join("data"))).map_err(io)?;
        first_read_local(&g)?;
        recovery_s = t0.elapsed().as_secs_f64();
        checks.run(&g, false, &mut errors, "after reopen");
        drop(g);
        if args.trace {
            wire = Some(wire_phase(args, spec, &keys, dir, &checks, &mut errors)?);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    let space = space.unwrap_or_default();
    let wire_workers = wire.as_ref().map_or(&[][..], |w| &w.measured.workers[..]);
    let counts = total_counts(workers.iter().chain(wire_workers));
    let attempted: u64 = counts.iter().map(|c| c.attempted).sum();
    let failed: u64 = counts.iter().map(|c| c.failed).sum();
    let (mut client_read, mut client_write) = (Hist::default(), Hist::default());
    for w in wire_workers {
        client_read.merge(&w.client_read);
        client_write.merge(&w.client_write);
    }

    // Analytics numbers: concurrent passes for htap, quiescent ones otherwise.
    let passes = if spec.htap { passes } else { quiescent_passes };
    let pass_rates: Vec<f64> = passes.iter().map(|p| p.edges / p.pass_s).collect();
    let pass_secs: Vec<f64> = passes.iter().map(|p| p.pass_s).collect();
    let open_us: Vec<f64> = passes.iter().map(|p| p.open_us).collect();
    let pass_sealed: f64 = passes.iter().map(|p| p.sealed).sum();
    let pass_checked: f64 = passes.iter().map(|p| p.checked).sum();
    if passes.is_empty() {
        errors.push("no analytics pass completed".into());
    }
    if !spec.htap {
        // (The HTAP thread reported its mass failures with the window.)
        errors.extend(passes.iter().filter_map(|p| p.mass_error.clone()));
    }

    let (b, a) = (&before, &after);
    let d = |k: &str| b.delta(a, k);
    let us = |x: f64| x * 1e6;
    let write_ops = all.write.count() as f64;
    let commits = d("livegraph_commits_total");
    let agg = |k: Kind| &aggs[k as usize];
    let mean_ns = |k: Kind| ratio(agg(k).total_ns as f64, agg(k).count as f64);
    // Wire-layer numbers come from the wire phase (durable traced runs).
    let wire_sample = wire.as_ref().map(|w| &w.server);
    let sq = |k: &str| wire_sample.map_or(0.0, |s| s.get(k));
    let wd = |k: &str| {
        wire.as_ref()
            .map_or(0.0, |w| w.measured.before.delta(&w.measured.after, k))
    };
    let client_all = {
        let mut h = client_read.clone();
        h.merge(&client_write);
        h
    };
    let client_p50 = client_all.quantile(0.5) / 1e3;
    let server_req_p50 = us(sq("livegraph_request_seconds{quantile=\"0.5\"}"));
    let commit_p50 = agg(Kind::Commit).hist.quantile(0.5) / 1e3;
    let commit_p99 = agg(Kind::Commit).hist.quantile(0.99) / 1e3;
    let stage = |name: &str| us(b.hist_mean(a, name).0);
    let retries: u64 = counts.iter().map(|c| c.conflict_retries).sum();
    let write_attempts: u64 = counts
        .iter()
        .zip(Op::ALL)
        .filter(|(_, op)| !op.is_read())
        .map(|(c, _)| c.attempted + c.conflict_retries)
        .sum();
    let traced_rate = if args.trace {
        over_slices(true, 1.0 - QUIET, &rate)
    } else {
        0.0
    };
    let gre_lag = ratio(lags.iter().sum(), lags.len() as f64);

    let end_to_end = vec![
        m("setup_s", setup_s, "s"),
        m("throughput_ops_s", throughput, "1/s"),
        m("read_p50_us", latency(true, 0.5, QUIET), "us"),
        m("read_p99_us", latency(true, 0.99, QUIET), "us"),
        m("write_p50_us", latency(false, 0.5, QUIET), "us"),
        m("write_p99_us", latency(false, 0.99, QUIET), "us"),
        m(
            "analytics_edges_per_s",
            percentile(&pass_rates, 1.0 - QUIET),
            "1/s",
        ),
        m("space_bytes_per_edge", space.per_edge, "B"),
        m("peak_rss_mb", peak_rss, "MiB"),
    ];
    let per_layer = vec![
        m("txn.begin_read_ns", mean_ns(Kind::BeginRead), "ns"),
        m("txn.begin_write_ns", mean_ns(Kind::BeginWrite), "ns"),
        m("txn.get_vertex_ns", mean_ns(Kind::GetVertex), "ns"),
        m("txn.get_edge_ns", mean_ns(Kind::GetEdge), "ns"),
        m("txn.degree_ns", mean_ns(Kind::Degree), "ns"),
        m(
            "txn.scan_ns_per_edge",
            ratio(agg(Kind::Scan).total_ns as f64, scanned as f64),
            "ns",
        ),
        m("txn.write_ops_ns", mean_ns(Kind::WriteOps), "ns"),
        m(
            "txn.op_self_ns",
            ratio(agg(Kind::Op).self_ns as f64, agg(Kind::Op).count as f64),
            "ns",
        ),
        m(
            "txn.conflict_retry_ratio",
            ratio(retries as f64, write_attempts as f64),
            "ratio",
        ),
        m(
            "ops.lock_timeouts",
            counts.iter().map(|c| c.lock_timeouts).sum::<u64>() as f64,
            "count",
        ),
        m(
            "ops.read_misses",
            counts.iter().map(|c| c.read_misses).sum::<u64>() as f64,
            "count",
        ),
        m(
            "ops.unknown_outcomes",
            counts.iter().map(|c| c.unknown_outcomes).sum::<u64>() as f64,
            "count",
        ),
        m(
            "failed_op_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        m(
            "tel.sealed_scan_ratio",
            ratio(
                d("stats.sealed_scans"),
                d("stats.sealed_scans") + d("stats.checked_scans"),
            ),
            "ratio",
        ),
        m(
            "tel.entries_per_get_edge",
            ratio(d("stats.lookup_entries"), d("stats.edge_lookups")),
            "count",
        ),
        m(
            "bloom.negative_ratio",
            ratio(d("stats.bloom_negatives"), d("stats.edge_lookups")),
            "ratio",
        ),
        m("commit.us_p50", commit_p50, "us"),
        m("commit.us_p99", commit_p99, "us"),
        m(
            "commit.lock_us",
            stage("livegraph_commit_lock_seconds"),
            "us",
        ),
        m(
            "commit.wal_enqueue_us",
            stage("livegraph_commit_wal_enqueue_seconds"),
            "us",
        ),
        m(
            "commit.fsync_wait_us",
            stage("livegraph_commit_fsync_wait_seconds"),
            "us",
        ),
        m(
            "commit.apply_us",
            stage("livegraph_commit_apply_seconds"),
            "us",
        ),
        m(
            "commit.gre_wait_us",
            stage("livegraph_commit_gre_wait_seconds"),
            "us",
        ),
        m(
            "commit.span_samples",
            b.hist_mean(a, "livegraph_commit_seconds").1,
            "count",
        ),
        m(
            "wal.fsyncs_per_commit",
            ratio(d("stats.wal_fsyncs"), commits),
            "ratio",
        ),
        m(
            "wal.records_per_group",
            ratio(d("stats.wal_group_records"), d("stats.wal_groups")),
            "ratio",
        ),
        m(
            "wal.bytes_per_write_op",
            ratio(d("stats.wal_bytes"), write_ops),
            "B",
        ),
        m("compaction.passes", d("stats.compaction_passes"), "count"),
        m(
            "compaction.entries_dropped",
            d("stats.compaction_entries_dropped"),
            "count",
        ),
        m(
            "compaction.pass_ms",
            b.hist_mean(a, "livegraph_compaction_pass_seconds").0 * 1e3,
            "ms",
        ),
        m("epoch.gre_lag", gre_lag, "epochs"),
        m("store.live_bytes", space.live_bytes, "B"),
        m("store.bump_bytes", space.bump_bytes, "B"),
        m("client.request_us_p50", client_p50, "us"),
        m("client.read_us_p50", client_read.quantile(0.5) / 1e3, "us"),
        m(
            "client.write_us_p50",
            client_write.quantile(0.5) / 1e3,
            "us",
        ),
        m(
            "client.transport_errors",
            counts.iter().map(|c| c.transport_errors).sum::<u64>() as f64,
            "count",
        ),
        m("server.request_us_p50", server_req_p50, "us"),
        m(
            "server.request_samples",
            wd("livegraph_request_seconds_count"),
            "count",
        ),
        m(
            "server.commit_us_p50",
            us(sq("livegraph_commit_seconds{quantile=\"0.5\"}")),
            "us",
        ),
        m(
            "server.fsync_wait_us",
            us(wire.as_ref().map_or(0.0, |w| {
                w.measured
                    .before
                    .hist_mean(&w.measured.after, "livegraph_commit_fsync_wait_seconds")
                    .0
            })),
            "us",
        ),
        m(
            "wire.overhead_us",
            if wire.is_some() {
                client_p50 - server_req_p50
            } else {
                0.0
            },
            "us",
        ),
        m(
            "server.reactor_turn_us_p50",
            us(sq("livegraph_reactor_turn_seconds{quantile=\"0.5\"}")),
            "us",
        ),
        m(
            "server.backpressure_stalls",
            wd("livegraph_reactor_backpressure_stalls_total"),
            "count",
        ),
        m("analytics.snapshot_open_us", median(&open_us), "us"),
        m("analytics.pass_s", median(&pass_secs), "s"),
        m(
            "analytics.sealed_scan_ratio",
            ratio(pass_sealed, pass_sealed + pass_checked),
            "ratio",
        ),
        m("analytics.passes", passes.len() as f64, "count"),
        m("load.edges_per_s", load_rate, "1/s"),
        m("load.commit_us_p50", load_commit_p50, "us"),
        m("recovery_s", recovery_s, "s"),
        m(
            "tracing.overhead_ratio",
            if args.trace {
                ratio(throughput, traced_rate) - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "tracing.spans",
            aggs.iter().map(|a| a.count).sum::<u64>() as f64,
            "count",
        ),
    ];

    if args.trace {
        write_spans(args, &workers, wire_workers)?;
    }
    let sync_mode = match spec.host {
        Host::Memory => "none: in-memory engine, no WAL",
        Host::Durable => {
            "WAL without fsync (SyncMode::NoSync); the traced run's wire phase uses \
             livegraph-serve's default, one fsync per commit group"
        }
    };
    let provenance = format!(
        "{{\"rev\": {}, \"nproc\": {}, \"l3_bytes\": {}, \"sync_mode\": {}, \"vertices\": {n}, \
         \"avg_degree\": {}, \"base_edges\": {}, \"zipf_exponent\": {ZIPF_EXPONENT}, \"seed\": {}, \
         \"closed_loop_clients\": {}, \"analytics_threads\": {}, \"connections\": {}, \"setup_s_each\": {:?}, \
         \"host_cpu_steal_share\": {steal_share:?}}}",
        quote(&args.rev),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        args.l3_bytes,
        quote(sync_mode),
        spec.degree,
        ledger.base,
        args.seed,
        if spec.htap { 1 } else { CLIENTS },
        usize::from(spec.htap),
        if wire.is_some() { CLIENTS } else { 0 },
        setup_times,
    );
    let ops = Op::ALL
        .iter()
        .zip(&counts)
        .map(|(op, c)| {
            format!(
                "{}: {{\"attempted\": {}, \"failed\": {}, \"conflict_retries\": {}, \"lock_timeouts\": {}, \
                 \"read_misses\": {}, \"transport_errors\": {}, \"unknown_outcomes\": {}, \"other_errors\": {}}}",
                quote(op.name()),
                c.attempted,
                c.failed,
                c.conflict_retries,
                c.lock_timeouts,
                c.read_misses,
                c.transport_errors,
                c.unknown_outcomes,
                c.other_errors
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let spans = KINDS
        .iter()
        .zip(&aggs)
        .filter(|(_, a)| a.count > 0)
        .map(|(k, a)| {
            format!(
                "{}: {{\"count\": {}, \"mean_ns\": {:?}, \"self_mean_ns\": {:?}, \"p50_ns\": {:?}}}",
                quote(k.name()),
                a.count,
                ratio(a.total_ns as f64, a.count as f64),
                ratio(a.self_ns as f64, a.count as f64),
                a.hist.quantile(0.5)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let report = vec![
        ("provenance".to_string(), provenance),
        (
            "window".to_string(),
            format!(
                "{{\"slice_s\": {:?}, \"read_samples\": {}, \"write_samples\": {}, \"read_p50_us\": {:?}, \
                 \"read_p99_us\": {:?}, \"write_p50_us\": {:?}, \"write_p99_us\": {:?}, \"slices\": {{\"secs\": {:?}, \
                 \"ops_s\": {:?}, \"read_p50_us\": {:?}, \"read_p99_us\": {:?}, \"write_p50_us\": {:?}, \
                 \"write_p99_us\": {:?}, \"read_p90_us\": {:?}, \"write_p90_us\": {:?}, \"steal_share\": {:?}}}, \
                 \"analytics_pass_edges_per_s\": {:?}}}",
                SLICE.as_secs_f64(),
                all.read.count(),
                all.write.count(),
                all.read.quantile(0.5) / 1e3,
                all.read.quantile(0.99) / 1e3,
                all.write.quantile(0.5) / 1e3,
                all.write.quantile(0.99) / 1e3,
                slice_secs,
                per_slice(&|s, secs| (s.read.count() + s.write.count()) as f64 / secs),
                per_slice(&|s, _| s.read.quantile(0.5) / 1e3),
                per_slice(&|s, _| s.read.quantile(0.99) / 1e3),
                per_slice(&|s, _| s.write.quantile(0.5) / 1e3),
                per_slice(&|s, _| s.write.quantile(0.99) / 1e3),
                per_slice(&|s, _| s.read.quantile(0.9) / 1e3),
                per_slice(&|s, _| s.write.quantile(0.9) / 1e3),
                slice_steal,
                pass_rates,
            ),
        ),
        ("ops".to_string(), format!("{{{ops}}}")),
        ("wire".to_string(), wire.as_ref().map_or("null".to_string(), wire_report)),
        (
            "edge_ledger".to_string(),
            format!(
                "{{\"base\": {}, \"inserted\": {}, \"deleted\": {}, \"unknown\": {}, \"created_vertices\": {}}}",
                ledger.base,
                ledger.inserted,
                ledger.deleted,
                ledger.unknown,
                created.len()
            ),
        ),
        ("spans".to_string(), format!("{{{spans}}}")),
        (
            "tracing".to_string(),
            format!("{{\"traced_ops_s\": {traced_rate:?}, \"untraced_ops_s\": {throughput:?}}}"),
        ),
    ];
    Ok(Outcome {
        errors,
        attempted,
        failed,
        end_to_end,
        per_layer,
        report,
    })
}

/// What the wire phase measured.
struct Wire {
    measured: window::Measured,
    /// The server's registry just before it was killed.
    server: Sample,
}

/// Length of the wire phase, as a share of the window.
const WIRE_SHARE: f64 = 0.25;

/// The wire phase of a durable traced run: the same DFLT traffic, sent over
/// loopback by the closed-loop clients to a default-configuration
/// `livegraph-serve` child that recovers the data directory the in-process
/// run left. It gives the client, wire and server layer numbers. The server
/// is then killed (SIGKILL) and the directory reopened: every write it
/// acknowledged must be there.
fn wire_phase(
    args: &Args,
    spec: &Spec,
    keys: &Zipf,
    dir: &Path,
    checks: &Checks<'_>,
    errors: &mut Vec<String>,
) -> Result<Wire, String> {
    let data = dir.join("data");
    let engine = setup::start_remote(args, &data, dir)?;
    let measured = window::measure(
        args,
        spec,
        &engine,
        keys,
        checks.epoch,
        args.seconds * WIRE_SHARE,
    )?;
    let Engine::Remote { server, .. } = &engine else {
        unreachable!("start_remote starts a server")
    };
    let server = metrics::scrape(server.metrics)?;
    drop(engine);
    errors.extend(measured.errors.iter().cloned());
    let mut ledger = *checks.ledger;
    let mut created = checks.created.to_vec();
    for w in &measured.workers {
        ledger.inserted += w.inserted;
        ledger.deleted += w.deleted;
        ledger.unknown += w.unknown_edge_writes;
        created.extend_from_slice(&w.created);
    }
    let g = LiveGraph::open(durable_options(&data)).map_err(io)?;
    let checks = Checks {
        ledger: &ledger,
        created: &created,
        ..*checks
    };
    checks.run(&g, false, errors, "after server kill and reopen");
    Ok(Wire { measured, server })
}

/// The wire phase's own end-to-end numbers (reported, not gated).
fn wire_report(wire: &Wire) -> String {
    let m = &wire.measured;
    let mut all = Slice::default();
    for w in &m.workers {
        for s in &w.slices {
            all.read.merge(&s.read);
            all.write.merge(&s.write);
        }
    }
    let secs: f64 = m.slice_secs.iter().sum();
    format!(
        "{{\"seconds\": {secs:?}, \"ops_s\": {:?}, \"read_p50_us\": {:?}, \"read_p99_us\": {:?}, \
         \"write_p50_us\": {:?}, \"write_p99_us\": {:?}, \"host_cpu_steal_share\": {:?}}}",
        ratio((all.read.count() + all.write.count()) as f64, secs),
        all.read.quantile(0.5) / 1e3,
        all.read.quantile(0.99) / 1e3,
        all.write.quantile(0.5) / 1e3,
        all.write.quantile(0.99) / 1e3,
        m.steal_share,
    )
}

/// Writes the retained spans of every client thread as CSV; `parent_index`
/// counts rows of the same phase and thread.
fn write_spans(args: &Args, workers: &[Worker], wire: &[Worker]) -> Result<(), String> {
    use std::io::Write;
    let dir = args.work_dir.join("traces");
    std::fs::create_dir_all(&dir).map_err(io)?;
    let path = dir.join(format!("{}-seed{}.csv", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    writeln!(out, "{SPAN_CSV_HEADER}").map_err(io)?;
    for w in workers {
        w.tracer.write_spans("window", &mut out).map_err(io)?;
    }
    for w in wire {
        w.tracer.write_spans("wire", &mut out).map_err(io)?;
    }
    out.flush().map_err(io)?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// Block-store space at the end of a run, after a full compaction.
#[derive(Default)]
struct Space {
    per_edge: f64,
    live_bytes: f64,
    bump_bytes: f64,
}

/// Everything the end-of-run oracles compare the graph against.
#[derive(Clone, Copy)]
struct Checks<'a> {
    ledger: &'a EdgeLedger,
    vertices: u64,
    created: &'a [u64],
    scan_sample: &'a [u64],
    epoch: Instant,
}

impl Checks<'_> {
    /// Runs every graph oracle on `g` (failures go to `errors`, prefixed
    /// with `when`) and, if `measure_space`, compacts and measures space.
    fn run(
        &self,
        g: &LiveGraph,
        measure_space: bool,
        errors: &mut Vec<String>,
        when: &str,
    ) -> Option<Space> {
        let edges = match oracle::check_graph(
            g,
            self.ledger,
            self.vertices,
            self.created,
            self.scan_sample,
        ) {
            Ok(edges) => edges,
            Err(e) => {
                errors.push(format!("{when}: {e}"));
                return None;
            }
        };
        if !measure_space {
            return None;
        }
        // Space is measured after a full compaction pass, so it does not
        // depend on whether the last automatic pass happened to run.
        g.compact();
        let st = g.stats();
        let live_bytes = st.blocks.live_bytes() as f64;
        Some(Space {
            per_edge: ratio(live_bytes, edges as f64),
            live_bytes,
            bump_bytes: st.blocks.bump_bytes as f64,
        })
    }
}
