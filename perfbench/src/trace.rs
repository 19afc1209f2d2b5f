//! In-memory span recording for the traced run.
//!
//! A span covers one call from the benchmark into a layer's public API:
//! its layer, the transaction it belongs to, its start and end (ns since
//! the process epoch) and the span that was open when it started (its
//! parent). Spans go to a per-thread buffer, so recording takes no lock;
//! [`flush_thread`] hands a thread's buffer to the process-wide
//! collection, and [`take_all`] drains that collection once the trial is
//! over. Nothing is recorded unless [`enable`] was called, so the
//! untraced run pays one relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers the benchmark times, one per public entry point it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One logical transaction, retries included (the root span).
    Txn,
    /// `TxnManager::begin` / `begin_read_only`.
    Begin,
    /// `AtomicObject::invoke` (admission, waiting and the engine).
    Invoke,
    /// `Admission::read_at` (hybrid read-only path).
    ReadAt,
    /// The client's spin-hold before commit.
    Hold,
    /// `TxnManager::commit`.
    Commit,
    /// `TxnManager::abort` after a refused attempt.
    Abort,
    /// `DurableLog::append` on the write-ahead log.
    WalAppend,
    /// `DurableLog::sync` on the write-ahead log.
    WalSync,
    /// `IntentionsStore::prepare`.
    StorePrepare,
    /// `IntentionsStore::commit`.
    StoreCommit,
    /// `IntentionsStore::abort`.
    StoreAbort,
    /// `DistService::step_event`.
    DistStep,
}

impl Layer {
    /// Stable name used in span files and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Txn => "txn",
            Layer::Begin => "manager.begin",
            Layer::Invoke => "engine.invoke",
            Layer::ReadAt => "engine.read_at",
            Layer::Hold => "client.hold",
            Layer::Commit => "manager.commit",
            Layer::Abort => "manager.abort",
            Layer::WalAppend => "wal.append",
            Layer::WalSync => "wal.sync",
            Layer::StorePrepare => "store.prepare",
            Layer::StoreCommit => "store.commit",
            Layer::StoreAbort => "store.abort",
            Layer::DistStep => "dist.step_event",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Process-unique span id.
    pub id: u64,
    /// The transaction the call served (0 when none, e.g. a dist event).
    pub txn: u64,
    /// The layer called.
    pub layer: Layer,
    /// Start, ns since the process epoch.
    pub start: u64,
    /// End, ns since the process epoch.
    pub end: u64,
    /// The span open on this thread when this one started.
    pub parent: Option<u64>,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

#[derive(Default)]
struct ThreadSpans {
    spans: Vec<Span>,
    /// Open spans: (id, txn).
    stack: Vec<(u64, u64)>,
    next: u64,
}

thread_local! {
    static LOCAL: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// An open span; it closes when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard {
    open: Option<(u64, u64, Layer, u64, Option<u64>)>,
}

/// Opens a span for `layer` on behalf of `txn`; `txn == 0` inherits the
/// enclosing span's transaction.
pub fn span(layer: Layer, txn: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (parent, txn) = match l.stack.last() {
            Some(&(p, t)) => (Some(p), if txn == 0 { t } else { txn }),
            None => (None, txn),
        };
        // Thread-unique ids: thread index in the high bits.
        if l.next == 0 {
            l.next = thread_base();
        }
        let id = l.next;
        l.next += 1;
        l.stack.push((id, txn));
        Guard {
            open: Some((id, txn, layer, now_ns(), parent)),
        }
    })
}

fn thread_base() -> u64 {
    static NEXT_THREAD: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT_THREAD.fetch_add(1, Ordering::Relaxed) << 40
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, txn, layer, start, parent)) = self.open.take() {
            let end = now_ns();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.stack.pop();
                l.spans.push(Span {
                    id,
                    txn,
                    layer,
                    start,
                    end,
                    parent,
                });
            });
        }
    }
}

/// Moves this thread's recorded spans into the process-wide collection.
/// Every thread that records spans calls it before it ends.
pub fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        COLLECTED
            .lock()
            .expect("span collection poisoned by a panicking thread")
            .extend(spans);
    }
}

/// Drains every flushed span (the calling thread's included).
pub fn take_all() -> Vec<Span> {
    flush_thread();
    std::mem::take(
        &mut *COLLECTED
            .lock()
            .expect("span collection poisoned by a panicking thread"),
    )
}

/// Self time of every span: its duration minus the part of it its
/// children cover. Children run on the parent's thread and nest inside
/// it, so the covered part is the sum of the children's durations,
/// clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<(Layer, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.layer, s.txn, s.dur().saturating_sub(covered))
        })
        .collect()
}

/// Writes spans as tab-separated `id txn layer start_ns end_ns parent`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\ttxn\tlayer\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.txn,
            s.layer.name(),
            s.start,
            s.end,
            parent
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, layer: Layer, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            txn: 7,
            layer,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            mk(1, Layer::Txn, 0, 100, None),
            mk(2, Layer::Begin, 0, 10, Some(1)),
            mk(3, Layer::Invoke, 10, 60, Some(1)),
            mk(4, Layer::Commit, 60, 90, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], (Layer::Txn, 7, 10));
        assert_eq!(st[2], (Layer::Invoke, 7, 50));
    }

    #[test]
    fn nested_guards_link_parents_and_inherit_txn() {
        // The only test that turns recording on; the others work on
        // hand-built spans.
        enable();
        {
            let _root = span(Layer::Txn, 42);
            let _child = span(Layer::Begin, 0);
        }
        let spans = take_all();
        let mine = |layer| {
            spans
                .iter()
                .find(|s| s.txn == 42 && s.layer == layer)
                .unwrap()
        };
        let (root, child) = (mine(Layer::Txn), mine(Layer::Begin));
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.txn, 42);
        assert!(root.start <= child.start && child.end <= root.end);
    }
}
