//! The timed window: closed-loop clients (and, for HTAP, an analytics
//! thread) run the workload while the main thread cuts the window into
//! slices and samples the program's counters before and after.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use livegraph_core::{LiveGraph, LiveGraphOptions};
use livegraph_server::PipelinedClient;

use crate::gen::{Generator, Zipf};
use crate::metrics::{self, Sample};
use crate::ops::{Target, Worker};
use crate::oracle;
use crate::setup::{io, Engine, Spec, CLIENTS};
use crate::trace::{Agg, Kind, Tracer};
use crate::Args;

/// Untimed traffic before the window opens.
const WARMUP: Duration = Duration::from_millis(500);
/// The window is cut into slices of this length. The traced run traces
/// every odd slice and leaves the even ones untraced, which gives the
/// tracing overhead.
pub const SLICE: Duration = Duration::from_secs(1);
/// PageRank iterations per analytics pass.
const PR_ITERATIONS: usize = 5;

/// Phase of the run, shared with the client threads.
const WARMING: u8 = 0;
const MEASURING: u8 = 1;
const DONE: u8 = 2;

/// One analytics pass's measurements.
#[derive(Clone)]
pub struct Pass {
    pub open_us: f64,
    pub pass_s: f64,
    pub edges: f64,
    pub sealed: f64,
    pub checked: f64,
    /// `write epoch - read epoch` when the snapshot was opened.
    pub epoch_lag: f64,
    /// Set when the PageRank mass oracle failed on this pass.
    pub mass_error: Option<String>,
}

/// Opens a snapshot, runs PageRank on it and checks its mass.
pub fn analytics_pass(graph: &LiveGraph, tracer: &mut Tracer) -> Result<Pass, String> {
    let before = graph.stats().scans;
    let t0 = Instant::now();
    let s = tracer.begin(Kind::SnapshotOpen);
    let txn = graph.begin_read().map_err(io)?;
    tracer.end(s);
    let open_us = t0.elapsed().as_secs_f64() * 1e6;
    let st = graph.stats();
    let epoch_lag = (st.write_epoch - st.read_epoch) as f64;
    let t1 = Instant::now();
    let s = tracer.begin(Kind::PageRankPass);
    let ranks = oracle::pagerank_pass(&txn, PR_ITERATIONS);
    tracer.end(s);
    let pass_s = t1.elapsed().as_secs_f64();
    let after = graph.stats().scans;
    Ok(Pass {
        open_us,
        pass_s,
        edges: oracle::sum_degrees(&txn) as f64 * PR_ITERATIONS as f64,
        sealed: (after.sealed_scans - before.sealed_scans) as f64,
        checked: (after.checked_scans - before.checked_scans) as f64,
        epoch_lag,
        mass_error: oracle::check_mass(&ranks).err(),
    })
}

/// What the HTAP analytics thread produced.
#[derive(Default)]
struct Analytics {
    /// Passes that started inside the window.
    passes: Vec<Pass>,
    agg: Vec<Agg>,
    /// Epoch lag sampled at each snapshot open inside the window.
    lags: Vec<f64>,
    /// PageRank mass failures of any pass, timed or not.
    errors: Vec<String>,
}

/// What the main thread measured around the window.
struct Clock {
    before: Sample,
    bounds: Vec<Instant>,
    lags: Vec<f64>,
    steal_share: f64,
    slice_steal: Vec<f64>,
}

/// What the timed window produced.
pub struct Measured {
    pub workers: Vec<Worker>,
    /// Analytics passes that started inside the window (HTAP only).
    pub passes: Vec<Pass>,
    pub analytics_agg: Vec<Agg>,
    /// Oracle failures seen during the window.
    pub errors: Vec<String>,
    /// Counters just before the window opened and after it closed.
    pub before: Sample,
    pub after: Sample,
    /// Measured length of each slice.
    pub slice_secs: Vec<f64>,
    /// `write epoch - read epoch` samples.
    pub lags: Vec<f64>,
    /// Share of the host's CPU time the hypervisor stole during the window
    /// (`steal` in `/proc/stat`): how disturbed this run was.
    pub steal_share: f64,
    /// The same per slice.
    pub slice_steal: Vec<f64>,
}

/// Runs the warm-up and a timed window of `seconds` against `engine`.
pub fn measure(
    args: &Args,
    spec: &Spec,
    engine: &Engine<'_>,
    keys: &Zipf,
    epoch: Instant,
    seconds: f64,
) -> Result<Measured, String> {
    let phase = AtomicU8::new(WARMING);
    let slice_ix = AtomicUsize::new(0);
    let slices_n = ((seconds / SLICE.as_secs_f64()).round() as usize).max(1);
    let lock_timeout = LiveGraphOptions::default().lock_timeout;
    let clients_n = if spec.htap { 1 } else { CLIENTS };
    let sample = |engine: &Engine<'_>| -> Result<Sample, String> {
        match engine {
            Engine::Local(g) => Ok(metrics::local(g)),
            Engine::Remote { server, clients } => {
                let stats = clients[0].stats().map_err(io)?;
                metrics::remote(server.metrics, &stats)
            }
        }
    };
    // The slice a request starting now belongs to, if it is timed.
    let current_slice = |phase: &AtomicU8, slice_ix: &AtomicUsize| {
        let ix = slice_ix.load(Ordering::Relaxed);
        (phase.load(Ordering::Relaxed) == MEASURING && ix < slices_n).then_some(ix)
    };
    std::thread::scope(|s| {
        let (phase, slice_ix) = (&phase, &slice_ix);
        let handles: Vec<_> = (0..clients_n)
            .map(|t| {
                let keys = keys.clone();
                s.spawn(move || {
                    let mut gen = Generator::new((spec.mix)(), keys, args.seed, t as u64 + 1);
                    let mut w = Worker::new(Tracer::new(epoch, t as u32), lock_timeout);
                    let mut client = match engine {
                        Engine::Remote { clients, .. } => Some(clients[t].clone()),
                        Engine::Local(_) => None,
                    };
                    let mut reconnects = 0u64;
                    while phase.load(Ordering::Relaxed) != DONE {
                        w.slice = current_slice(phase, slice_ix);
                        let traced = args.trace && w.slice.is_some_and(|ix| ix % 2 == 1);
                        let req = gen.next();
                        match (engine, &client) {
                            (Engine::Local(g), _) => w.run(&Target::Local(g), req, traced),
                            (Engine::Remote { server, .. }, Some(c)) => {
                                w.run(&Target::Remote(c), req, traced);
                                if c.is_poisoned() && reconnects < 16 {
                                    reconnects += 1;
                                    if let Ok(fresh) = PipelinedClient::connect(server.addr, 4) {
                                        client = Some(Arc::new(fresh));
                                    }
                                }
                            }
                            (Engine::Remote { .. }, None) => {
                                unreachable!("remote workers own a client")
                            }
                        }
                    }
                    w
                })
            })
            .collect();
        let analytics = spec.htap.then(|| {
            let Engine::Local(g) = engine else {
                unreachable!("htap runs in-process")
            };
            s.spawn(move || -> Result<Analytics, String> {
                let mut tracer = Tracer::new(epoch, clients_n as u32);
                let mut out = Analytics::default();
                while phase.load(Ordering::Relaxed) != DONE {
                    let timed = current_slice(phase, slice_ix).is_some();
                    tracer.request(args.trace && timed);
                    let pass = analytics_pass(g, &mut tracer)?;
                    out.errors.extend(pass.mass_error.clone());
                    if timed {
                        out.lags.push(pass.epoch_lag);
                        out.passes.push(pass);
                    }
                }
                out.agg = tracer.agg;
                Ok(out)
            })
        });

        // Whatever happens on the main thread, the clients must be told to
        // stop, or the scope would wait for them forever.
        let clock = (|| -> Result<Clock, String> {
            std::thread::sleep(WARMUP);
            let before = sample(engine)?;
            let cpu_before = cpu_times();
            let mut cpu_slice = cpu_before.clone();
            let mut slice_steal = Vec::with_capacity(slices_n);
            let started = Instant::now();
            phase.store(MEASURING, Ordering::Relaxed);
            let mut bounds = vec![started];
            let mut lags = Vec::new();
            let mut next_lag = started;
            for ix in 0..slices_n {
                let end = started + SLICE * (ix as u32 + 1);
                loop {
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    if !spec.htap && now >= next_lag {
                        lags.push(sample_lag(engine)?);
                        next_lag = now + Duration::from_millis(100);
                    }
                    std::thread::sleep(Duration::from_millis(5).min(end - now));
                }
                bounds.push(Instant::now());
                slice_ix.store(ix + 1, Ordering::Relaxed);
                let cpu = cpu_times();
                slice_steal.push(steal_share(&cpu_slice, &cpu));
                cpu_slice = cpu;
            }
            let steal_share = steal_share(&cpu_before, &cpu_slice);
            Ok(Clock {
                before,
                bounds,
                lags,
                steal_share,
                slice_steal,
            })
        })();
        phase.store(DONE, Ordering::Relaxed);
        let workers: Vec<Worker> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let analytics = analytics.map(|h| h.join().expect("analytics thread panicked"));
        let Clock {
            before,
            bounds,
            mut lags,
            steal_share,
            slice_steal,
        } = clock?;
        let after = sample(engine)?;
        let analytics = match analytics {
            Some(result) => result?,
            None => Analytics::default(),
        };
        if spec.htap {
            // HTAP samples the lag at each snapshot open instead.
            lags = analytics.lags;
        }
        let slice_secs = bounds
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        Ok(Measured {
            workers,
            passes: analytics.passes,
            analytics_agg: analytics.agg,
            errors: analytics.errors,
            before,
            after,
            slice_secs,
            lags,
            steal_share,
            slice_steal,
        })
    })
}

/// The host-wide CPU time counters (`cpu` line of `/proc/stat`).
fn cpu_times() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Stolen share of the CPU time between two [`cpu_times`] samples (field 8
/// is `steal`); 0 when unavailable.
fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let d: Vec<u64> = before
        .iter()
        .zip(after)
        .map(|(a, b)| b.saturating_sub(*a))
        .collect();
    let total: u64 = d.iter().take(8).sum();
    match d.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

fn sample_lag(engine: &Engine<'_>) -> Result<f64, String> {
    Ok(match engine {
        Engine::Local(g) => {
            let st = g.stats();
            (st.write_epoch - st.read_epoch) as f64
        }
        Engine::Remote { clients, .. } => {
            let st = clients[0].stats().map_err(io)?;
            (st.write_epoch - st.read_epoch) as f64
        }
    })
}
