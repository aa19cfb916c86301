//! Workload definitions and set-up: the base load through batched write
//! transactions, and for the durable workload a checkpoint the engine then
//! recovers.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use livegraph_core::{LiveGraph, LiveGraphOptions, SyncMode, DEFAULT_LABEL};
use livegraph_server::PipelinedClient;

use crate::gen::{Mix, Rng, Zipf};
use crate::hist::Hist;
use crate::server::ServerProc;
use crate::Args;

/// Key skew of every request stream and of the base graph's edges.
pub const ZIPF_EXPONENT: f64 = 0.8;
/// Closed-loop clients (threads, and connections in the wire phase).
pub const CLIENTS: usize = 2;
/// Flush policy of the timed WAL traffic: every commit is written to the
/// log, none is fsynced. With `SyncMode::Fsync` the write tail on a 2-vCPU
/// virtual machine tracked the hypervisor's CPU steal (write p99 moved
/// between 0.4 and 3 ms from run to run), too unsteady for any bound; real
/// fsync runs in the wire phase, whose server keeps its default (one fsync
/// per commit group).
const WAL_SYNC: SyncMode = SyncMode::NoSync;
/// Edges per load transaction.
const LOAD_BATCH: usize = 1024;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Host {
    /// In-process, no WAL.
    Memory,
    /// In-process with a WAL in a data directory ([`WAL_SYNC`]); the traced
    /// run adds the wire phase.
    Durable,
}

pub struct Spec {
    pub vertices: u64,
    pub degree: u64,
    pub mix: fn() -> Mix,
    pub host: Host,
    /// One DFLT writer plus one PageRank thread instead of two clients.
    pub htap: bool,
}

/// The workloads by name; `BENCHMARK.json` records why each was chosen.
/// The TAO graph (about 128 MB of blocks) is larger than a 105 MiB L3, the
/// DFLT graphs (about 43 MB) fit in it.
pub fn spec(name: &str) -> Result<Spec, String> {
    let s = |vertices, mix, host, htap| Spec {
        vertices,
        degree: 8,
        mix,
        host,
        htap,
    };
    Ok(match name {
        "tao_inproc" => s(150_000, Mix::tao as fn() -> Mix, Host::Memory, false),
        "dflt_wal" => s(50_000, Mix::dflt, Host::Durable, false),
        "htap_pagerank" => s(50_000, Mix::dflt, Host::Memory, true),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// What the base load produced.
#[derive(Default)]
pub struct Load {
    pub base_edges: u64,
    pub edges_per_s: f64,
    pub commit: Hist,
}

/// Where the timed traffic goes.
pub enum Engine<'g> {
    Local(&'g LiveGraph),
    /// A `livegraph-serve` child and one connection per client.
    Remote {
        server: ServerProc,
        clients: Vec<Arc<PipelinedClient>>,
    },
}

/// A loaded engine, ready for traffic.
pub struct Prepared {
    pub graph: LiveGraph,
    /// Holds the data directory of the durable workload.
    pub dir: Option<PathBuf>,
    pub load: Load,
}

impl Prepared {
    /// Stops the engine (killing a server) and removes its files.
    pub fn discard(self) {
        let Prepared { graph, dir, .. } = self;
        drop(graph);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

pub fn io(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Loads the base graph through batched write transactions: vertices
/// `0..n`, then `n * degree` Zipf-skewed edges grouped by source and split
/// between two loader threads by source range.
fn load(graph: &LiveGraph, spec: &Spec, seed: u64) -> Result<Load, String> {
    let n = spec.vertices;
    let mut next = 0u64;
    while next < n {
        let mut txn = graph.begin_write().map_err(io)?;
        for _ in 0..(LOAD_BATCH as u64).min(n - next) {
            let id = txn.create_vertex(&next.to_le_bytes()).map_err(io)?;
            if id != next {
                return Err(format!("base vertex {next} was created as {id}"));
            }
            next += 1;
        }
        txn.commit().map_err(io)?;
    }
    let keys = Zipf::new(n, ZIPF_EXPONENT);
    let mut rng = Rng::new(seed, u64::MAX);
    let mut edges: Vec<(u64, u64)> = (0..n * spec.degree)
        .map(|_| (keys.id(&mut rng), keys.id(&mut rng)))
        .collect();
    edges.sort_unstable();
    let mut cut = edges.len() / 2;
    while cut < edges.len() && cut > 0 && edges[cut].0 == edges[cut - 1].0 {
        cut += 1;
    }
    let started = Instant::now();
    let parts: Vec<Result<(u64, Hist), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = [&edges[..cut], &edges[cut..]]
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    let mut inserted = 0;
                    let mut commit = Hist::default();
                    for batch in part.chunks(LOAD_BATCH) {
                        let mut txn = graph.begin_write().map_err(io)?;
                        for &(src, dst) in batch {
                            inserted += u64::from(
                                txn.put_edge(src, DEFAULT_LABEL, dst, &dst.to_le_bytes())
                                    .map_err(io)?,
                            );
                        }
                        let t0 = Instant::now();
                        txn.commit().map_err(io)?;
                        commit.record(t0.elapsed().as_nanos() as u64);
                    }
                    Ok((inserted, commit))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loader thread panicked"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let mut out = Load {
        edges_per_s: edges.len() as f64 / secs,
        ..Load::default()
    };
    for p in parts {
        let (inserted, commit) = p?;
        out.base_edges += inserted;
        out.commit.merge(&commit);
    }
    Ok(out)
}

/// Options of the durable workload's engine, during load, window and reopen.
pub fn durable_options(dir: &Path) -> LiveGraphOptions {
    LiveGraphOptions::durable(dir).with_sync_mode(WAL_SYNC)
}

/// One full set-up, timed by the caller: load, and for the durable
/// workload a checkpoint that the engine then recovers, up to the first
/// served read.
pub fn setup(spec: &Spec, args: &Args, dir: &Path) -> Result<Prepared, String> {
    if spec.host == Host::Memory {
        let graph = LiveGraph::open(LiveGraphOptions::in_memory()).map_err(io)?;
        let load = load(&graph, spec, args.seed)?;
        first_read_local(&graph)?;
        return Ok(Prepared {
            graph,
            dir: None,
            load,
        });
    }
    std::fs::create_dir_all(dir).map_err(io)?;
    let data = dir.join("data");
    let load = {
        // The base load is made durable by one checkpoint.
        let graph = LiveGraph::open(durable_options(&data)).map_err(io)?;
        let load = load(&graph, spec, args.seed)?;
        graph.checkpoint().map_err(io)?;
        drop(graph);
        // Flush the checkpoint now: left dirty, its write-back would land
        // inside the timed window.
        sync_tree(&data).map_err(io)?;
        load
    };
    let graph = LiveGraph::open(durable_options(&data)).map_err(io)?;
    first_read_local(&graph)?;
    Ok(Prepared {
        graph,
        dir: Some(dir.to_path_buf()),
        load,
    })
}

/// `fsync`s every file under `dir`, then the directories themselves.
fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}

/// Starts a default-configuration `livegraph-serve` child on `data` and
/// connects the closed-loop clients, up to the first served read.
pub fn start_remote(args: &Args, data: &Path, log_dir: &Path) -> Result<Engine<'static>, String> {
    let bin = args
        .server_bin
        .as_deref()
        .ok_or("the wire phase needs --server-bin")?;
    let server = ServerProc::start(bin, data, log_dir)?;
    let clients = (0..CLIENTS)
        .map(|_| {
            PipelinedClient::connect(server.addr, 4)
                .map(Arc::new)
                .map_err(io)
        })
        .collect::<Result<Vec<_>, _>>()?;
    match clients[0].get_vertex(0) {
        Ok(Some(_)) => Ok(Engine::Remote { server, clients }),
        other => Err(format!("first remote read of vertex 0 returned {other:?}")),
    }
}

pub fn first_read_local(graph: &LiveGraph) -> Result<(), String> {
    match graph.begin_read().map_err(io)?.get_vertex(0) {
        Some(_) => Ok(()),
        None => Err("first read of vertex 0 missed".into()),
    }
}
