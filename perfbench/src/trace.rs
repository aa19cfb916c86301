//! Benchmark-side tracing: spans recorded around each call the benchmark
//! makes into a layer of the program (op root → `begin_*` → txn ops →
//! `commit`; client request; snapshot open → PageRank pass).
//!
//! Every traced span feeds per-kind aggregates (count, total and self time,
//! a duration histogram). A sample of whole requests is also kept verbatim
//! in memory — name, start, end, parent, request id — and written out when
//! the run ends. Self time is a span's duration minus the time its child
//! spans cover; children of one span never overlap, so that is a sum.

use std::io::Write;
use std::time::Instant;

use crate::hist::Hist;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Op,
    BeginRead,
    BeginWrite,
    GetVertex,
    GetEdge,
    Scan,
    Degree,
    WriteOps,
    Commit,
    ClientRequest,
    SnapshotOpen,
    PageRankPass,
}

pub const KINDS: [Kind; 12] = [
    Kind::Op,
    Kind::BeginRead,
    Kind::BeginWrite,
    Kind::GetVertex,
    Kind::GetEdge,
    Kind::Scan,
    Kind::Degree,
    Kind::WriteOps,
    Kind::Commit,
    Kind::ClientRequest,
    Kind::SnapshotOpen,
    Kind::PageRankPass,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::BeginRead => "begin_read",
            Kind::BeginWrite => "begin_write",
            Kind::GetVertex => "get_vertex",
            Kind::GetEdge => "get_edge",
            Kind::Scan => "scan",
            Kind::Degree => "degree",
            Kind::WriteOps => "write_ops",
            Kind::Commit => "commit",
            Kind::ClientRequest => "client_request",
            Kind::SnapshotOpen => "snapshot_open",
            Kind::PageRankPass => "pagerank_pass",
        }
    }

    fn ix(self) -> usize {
        self as usize
    }
}

/// Totals for one span kind.
#[derive(Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub hist: Hist,
}

impl Agg {
    pub fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.hist.merge(&other.hist);
    }
}

/// Adds per-kind totals `from` into `into`.
pub fn merge_aggs(into: &mut [Agg], from: &[Agg]) {
    for (t, a) in into.iter_mut().zip(from) {
        t.merge(a);
    }
}

/// One retained span. `parent` indexes the same thread's span list.
struct Span {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    req: u64,
}

struct Open {
    kind: Kind,
    start: Instant,
    child_ns: u64,
    retained: Option<u32>,
}

/// One thread's recorder. When a request is not traced every call is a
/// no-op that reads no clock.
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    on: bool,
    keep: bool,
    req: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    pub agg: Vec<Agg>,
}

/// Keep every `KEEP_EVERY`-th traced request verbatim, up to `KEEP_CAP`
/// spans per thread.
const KEEP_EVERY: u64 = 32;
const KEEP_CAP: usize = 100_000;

/// Token returned by [`Tracer::begin`].
#[must_use]
pub struct SpanToken(bool);

impl Tracer {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Tracer {
            epoch,
            thread,
            on: false,
            keep: false,
            req: 0,
            stack: Vec::with_capacity(8),
            spans: Vec::new(),
            agg: vec![Agg::default(); KINDS.len()],
        }
    }

    /// Starts a request; its spans are recorded only if `traced`.
    pub fn request(&mut self, traced: bool) {
        self.req += 1;
        self.on = traced;
        self.keep = traced && self.req.is_multiple_of(KEEP_EVERY) && self.spans.len() < KEEP_CAP;
    }

    pub fn traced(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, kind: Kind) -> SpanToken {
        if !self.on {
            return SpanToken(false);
        }
        let start = Instant::now();
        let retained = if self.keep {
            let parent = self.stack.last().and_then(|o| o.retained);
            self.spans.push(Span {
                kind,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
                req: self.req,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            None
        };
        self.stack.push(Open {
            kind,
            start,
            child_ns: 0,
            retained,
        });
        SpanToken(true)
    }

    pub fn end(&mut self, token: SpanToken) {
        if !token.0 {
            return;
        }
        let now = Instant::now();
        let open = self
            .stack
            .pop()
            .expect("span ends were balanced with begins");
        let dur = (now - open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = &mut self.agg[open.kind.ix()];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.hist.record(dur);
        if let Some(ix) = open.retained {
            self.spans[ix as usize].end_ns = (now - self.epoch).as_nanos() as u64;
        }
    }

    /// Appends the retained spans as CSV rows tagged with `phase`.
    pub fn write_spans(&self, phase: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{phase},{},{},{},{},{},{}",
                self.thread,
                s.req,
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                parent
            )?;
        }
        Ok(())
    }
}

/// Header of the span file written by [`Tracer::write_spans`].
pub const SPAN_CSV_HEADER: &str = "phase,thread,request,name,start_ns,end_ns,parent_index";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.request(true);
        let root = t.begin(Kind::Op);
        let child = t.begin(Kind::Commit);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let op = &t.agg[Kind::Op.ix()];
        let commit = &t.agg[Kind::Commit.ix()];
        assert_eq!((op.count, commit.count), (1, 1));
        assert_eq!(op.self_ns, op.total_ns - commit.total_ns);
        assert!(commit.total_ns >= 2_000_000);
    }

    #[test]
    fn untraced_requests_record_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.request(false);
        let s = t.begin(Kind::Op);
        t.end(s);
        assert!(t.agg.iter().all(|a| a.count == 0));
    }
}
