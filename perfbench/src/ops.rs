//! Closed-loop execution of LinkBench requests against the public APIs:
//! `LiveGraph` read/write transactions in-process, or `PipelinedClient`
//! auto-commit calls over loopback. Every attempt, retry and failure is
//! counted per operation class.

use std::time::{Duration, Instant};

use livegraph_core::{Error, LiveGraph, DEFAULT_LABEL};
use livegraph_server::{ClientError, PipelinedClient};

use crate::gen::{Op, Request};
use crate::hist::Hist;
use crate::trace::{Kind, Tracer};

/// Conflict retries allowed per write before it counts as failed.
const RETRY_BUDGET: u32 = 32;

/// Per-operation-class accounting.
#[derive(Clone, Copy, Default)]
pub struct OpCounts {
    pub attempted: u64,
    pub failed: u64,
    /// Write attempts that hit a write-write conflict and were retried.
    pub conflict_retries: u64,
    /// Of those, the ones that waited out the vertex-lock timeout.
    pub lock_timeouts: u64,
    /// `get_node` on an id known to exist that returned nothing.
    pub read_misses: u64,
    pub transport_errors: u64,
    /// Writes whose outcome is unknown (the reply was lost).
    pub unknown_outcomes: u64,
    /// Failures for any other reason (errors after the retry budget, …).
    pub other_errors: u64,
}

/// Read and write latencies of the requests started in one slice of the
/// timed window.
#[derive(Clone, Default)]
pub struct Slice {
    pub read: Hist,
    pub write: Hist,
}

/// One closed-loop client's results.
pub struct Worker {
    pub counts: [OpCounts; 9],
    /// Latencies per slice of the timed window.
    pub slices: Vec<Slice>,
    /// The slice requests are being recorded into; `None` outside the
    /// timed window (failure accounting still runs there).
    pub slice: Option<usize>,
    /// Request latency of traced remote requests, per class.
    pub client_read: Hist,
    pub client_write: Hist,
    /// Edges inserted / deleted by acknowledged writes (the flags the API
    /// returned), for the edge-count conservation oracle.
    pub inserted: u64,
    pub deleted: u64,
    /// Edge writes with an unknown outcome: each widens the conservation
    /// tolerance by one.
    pub unknown_edge_writes: u64,
    /// Vertices created by acknowledged `add_node`s.
    pub created: Vec<u64>,
    /// Edges returned by traced `get_link_list` scans.
    pub scanned_edges: u64,
    pub tracer: Tracer,
    lock_timeout: Duration,
}

impl Worker {
    pub fn new(tracer: Tracer, lock_timeout: Duration) -> Self {
        Worker {
            counts: [OpCounts::default(); 9],
            slices: Vec::new(),
            slice: None,
            client_read: Hist::default(),
            client_write: Hist::default(),
            inserted: 0,
            deleted: 0,
            unknown_edge_writes: 0,
            created: Vec::new(),
            scanned_edges: 0,
            tracer,
            lock_timeout,
        }
    }

    /// The 16-byte property payload a write carries.
    fn payload(req: &Request) -> [u8; 16] {
        let mut props = [0u8; 16];
        props[..8].copy_from_slice(&req.src.to_le_bytes());
        props[8..].copy_from_slice(&req.dst.to_le_bytes());
        props
    }

    /// Runs one request to completion and records its latency.
    pub fn run(&mut self, target: &Target<'_>, req: Request, traced: bool) {
        self.tracer.request(traced);
        let c = &mut self.counts[req.op.index()];
        c.attempted += 1;
        let t0 = Instant::now();
        let root = self.tracer.begin(Kind::Op);
        let ok = match target {
            Target::Local(g) => self.local(g, req),
            Target::Remote(c) => self.remote(c, req),
        };
        self.tracer.end(root);
        let ns = t0.elapsed().as_nanos() as u64;
        if !ok {
            self.counts[req.op.index()].failed += 1;
        }
        let Some(ix) = self.slice else {
            return;
        };
        if self.slices.len() <= ix {
            self.slices.resize(ix + 1, Slice::default());
        }
        let slice = &mut self.slices[ix];
        if req.op.is_read() {
            slice.read.record(ns);
        } else {
            slice.write.record(ns);
        }
    }

    fn local(&mut self, g: &LiveGraph, req: Request) -> bool {
        if req.op.is_read() {
            return self.local_read(g, req);
        }
        let op = req.op;
        for attempt in 0..=RETRY_BUDGET {
            let started = Instant::now();
            let s = self.tracer.begin(Kind::BeginWrite);
            let txn = g.begin_write();
            self.tracer.end(s);
            let mut txn = match txn {
                Ok(t) => t,
                Err(_) => break,
            };
            let s = self.tracer.begin(Kind::WriteOps);
            let props = Self::payload(&req);
            let res = match op {
                Op::UpdateNode => txn.put_vertex(req.src, &props).map(|()| Effect::None),
                Op::AddNode => txn.create_vertex(&props).map(Effect::Created),
                Op::AddLink | Op::UpdateLink => txn
                    .put_edge(req.src, DEFAULT_LABEL, req.dst, &props)
                    .map(Effect::Inserted),
                Op::DeleteLink => txn
                    .delete_edge(req.src, DEFAULT_LABEL, req.dst)
                    .map(Effect::Deleted),
                _ => unreachable!("reads are handled above"),
            };
            self.tracer.end(s);
            let res = res.and_then(|effect| {
                let s = self.tracer.begin(Kind::Commit);
                let r = txn.commit();
                self.tracer.end(s);
                r.map(|_| effect)
            });
            match res {
                Ok(effect) => {
                    self.apply(effect);
                    return true;
                }
                Err(Error::WriteConflict { .. }) if attempt < RETRY_BUDGET => {
                    let c = &mut self.counts[op.index()];
                    c.conflict_retries += 1;
                    if started.elapsed() >= self.lock_timeout {
                        c.lock_timeouts += 1;
                    }
                }
                Err(_) => break,
            }
        }
        self.counts[op.index()].other_errors += 1;
        false
    }

    fn local_read(&mut self, g: &LiveGraph, req: Request) -> bool {
        let s = self.tracer.begin(Kind::BeginRead);
        let txn = g.begin_read();
        self.tracer.end(s);
        let Ok(txn) = txn else {
            self.counts[req.op.index()].other_errors += 1;
            return false;
        };
        match req.op {
            Op::GetNode => {
                let s = self.tracer.begin(Kind::GetVertex);
                let found = txn.get_vertex(req.src).is_some();
                self.tracer.end(s);
                if !found {
                    self.counts[req.op.index()].read_misses += 1;
                }
                found
            }
            Op::GetLink => {
                let s = self.tracer.begin(Kind::GetEdge);
                std::hint::black_box(txn.get_edge(req.src, DEFAULT_LABEL, req.dst));
                self.tracer.end(s);
                true
            }
            Op::GetLinkList => {
                let s = self.tracer.begin(Kind::Scan);
                let mut n = 0u64;
                txn.for_each_neighbor(req.src, DEFAULT_LABEL, |d| {
                    std::hint::black_box(d);
                    n += 1;
                });
                self.tracer.end(s);
                if self.tracer.traced() {
                    self.scanned_edges += n;
                }
                true
            }
            Op::CountLinks => {
                let s = self.tracer.begin(Kind::Degree);
                std::hint::black_box(txn.degree(req.src, DEFAULT_LABEL));
                self.tracer.end(s);
                true
            }
            _ => unreachable!("writes are handled by the caller"),
        }
    }

    fn remote(&mut self, c: &PipelinedClient, req: Request) -> bool {
        let op = req.op;
        let props = Self::payload(&req);
        for attempt in 0..=RETRY_BUDGET {
            let started = Instant::now();
            let s = self.tracer.begin(Kind::ClientRequest);
            let res = match op {
                Op::GetNode => c.get_vertex(req.src).map(|v| Effect::Found(v.is_some())),
                Op::GetLink => c
                    .get_edge(req.src, DEFAULT_LABEL, req.dst)
                    .map(|_| Effect::None),
                Op::GetLinkList => c
                    .neighbors(req.src, DEFAULT_LABEL, 0)
                    .map(|d| Effect::Scanned(d.len() as u64)),
                Op::CountLinks => c.degree(req.src, DEFAULT_LABEL).map(|_| Effect::None),
                Op::UpdateNode => c.put_vertex(req.src, &props).map(|()| Effect::None),
                Op::AddNode => c.create_vertex_auto(&props).map(Effect::Created),
                Op::AddLink | Op::UpdateLink => c
                    .put_edge(req.src, DEFAULT_LABEL, req.dst, &props)
                    .map(Effect::Inserted),
                Op::DeleteLink => c
                    .delete_edge(req.src, DEFAULT_LABEL, req.dst)
                    .map(Effect::Deleted),
            };
            self.tracer.end(s);
            if self.tracer.traced() {
                let ns = started.elapsed().as_nanos() as u64;
                if op.is_read() {
                    self.client_read.record(ns);
                } else {
                    self.client_write.record(ns);
                }
            }
            let counts = &mut self.counts[op.index()];
            match res {
                Ok(Effect::Found(false)) => {
                    counts.read_misses += 1;
                    return false;
                }
                Ok(Effect::Scanned(n)) => {
                    if self.tracer.traced() {
                        self.scanned_edges += n;
                    }
                    return true;
                }
                Ok(effect) => {
                    self.apply(effect);
                    return true;
                }
                Err(e) if e.is_write_conflict() && attempt < RETRY_BUDGET => {
                    counts.conflict_retries += 1;
                    if started.elapsed() >= self.lock_timeout {
                        counts.lock_timeouts += 1;
                    }
                }
                Err(ClientError::Server { .. }) => {
                    counts.other_errors += 1;
                    return false;
                }
                Err(_) => {
                    counts.transport_errors += 1;
                    if !op.is_read() {
                        counts.unknown_outcomes += 1;
                        if matches!(op, Op::AddLink | Op::UpdateLink | Op::DeleteLink) {
                            self.unknown_edge_writes += 1;
                        }
                    }
                    return false;
                }
            }
        }
        self.counts[op.index()].other_errors += 1;
        false
    }

    fn apply(&mut self, effect: Effect) {
        match effect {
            Effect::Inserted(true) => self.inserted += 1,
            Effect::Deleted(true) => self.deleted += 1,
            Effect::Created(id) => self.created.push(id),
            _ => {}
        }
    }
}

/// What an acknowledged operation did, as the API reported it.
enum Effect {
    None,
    Found(bool),
    Scanned(u64),
    Created(u64),
    Inserted(bool),
    Deleted(bool),
}

/// Where requests go.
pub enum Target<'a> {
    Local(&'a LiveGraph),
    Remote(&'a PipelinedClient),
}

/// Sums per-class counts across workers.
pub fn total_counts<'w>(workers: impl Iterator<Item = &'w Worker>) -> [OpCounts; 9] {
    let mut t = [OpCounts::default(); 9];
    for w in workers {
        for (a, b) in t.iter_mut().zip(&w.counts) {
            a.attempted += b.attempted;
            a.failed += b.failed;
            a.conflict_retries += b.conflict_retries;
            a.lock_timeouts += b.lock_timeouts;
            a.read_misses += b.read_misses;
            a.transport_errors += b.transport_errors;
            a.unknown_outcomes += b.unknown_outcomes;
            a.other_errors += b.other_errors;
        }
    }
    t
}
