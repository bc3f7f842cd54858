//! In-memory spans around the benchmark's calls into the program.
//!
//! A span records its name, start, end, parent and operation id. Spans are
//! kept per thread while the run is going and merged when it ends, so
//! recording takes no lock. With tracing off, [`span`] returns an inert
//! guard and nothing is recorded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded span. `parent` indexes the span vector it was taken with.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the operation id stamped on this thread's next spans.
pub fn set_op(op: u64) {
    LOCAL.with(|l| l.borrow_mut().op = op);
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let start_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = l.spans.len();
        let parent = l.open.last().copied();
        let op = l.op;
        l.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        l.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end_ns = now_ns();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.spans[idx].end_ns = end_ns;
                if l.open.last() == Some(&idx) {
                    l.open.pop();
                }
            });
        }
    }
}

/// Takes every closed span this thread recorded so far.
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        debug_assert!(l.open.is_empty(), "take() with open spans");
        std::mem::take(&mut l.spans)
    })
}

/// Appends `more` (taken on another thread) to `into`, re-basing parents.
pub fn merge(into: &mut Vec<Span>, more: Vec<Span>) {
    let base = into.len();
    into.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Per-name totals: call count, total and self time, self-time samples.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_samples: Vec<u64>,
}

/// A layer's self time is its span's duration minus the part its child
/// spans cover (children run nested on the same thread, so never overlap).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let own = s.dur_ns().saturating_sub(child);
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
        e.self_samples.push(own);
    }
    out
}

/// Writes spans as tab-separated lines: name, op, start, end, parent.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\top\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.op, s.start_ns, s.end_ns, parent
        )?;
    }
    w.flush()
}
