//! The durable-restart workload: an intentions-list store over the
//! on-disk write-ahead log, two writers, then a crash and a timed
//! recovery.
//!
//! It bypasses the engines and the certifier: WAL append and fsync and
//! the store's commit path set the latency, replay sets the recovery
//! time. The flush policy is `WalOptions::default()` (group commit, 200
//! µs window) in both the untraced and the traced run.

use crate::trace::{self, Layer};
use crate::trial::{rss_bytes, Trial};
use crate::workload::{self, Fate, Recovered, Transfer};
use atomicity_core::recovery::{DurableLog, IntentionsStore, LogRecord};
use atomicity_core::MetricsRegistry;
use atomicity_durable::{Wal, WalOptions};
use atomicity_spec::specs::KvMapSpec;
use atomicity_spec::{op, ActivityId, ObjectId, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Writer threads.
const WRITERS: usize = 2;
/// Keys in the store.
const KEYS: i64 = 1_000;
/// Transfers per writer left prepared at the crash.
pub const IN_DOUBT_PER_WRITER: usize = 2;
const OBJECT: u32 = 1;

/// A `DurableLog` that times every call into the WAL. It forwards every
/// trait method, `records_from` and `len` included: the trait's default
/// `records_from` clones the whole log, which would turn each commit into
/// a full-log copy and measure a different program.
#[derive(Debug)]
struct TimedLog(Wal);

impl DurableLog for TimedLog {
    fn append(&self, record: LogRecord) -> u64 {
        let _s = trace::span(Layer::WalAppend, 0);
        self.0.append(record)
    }

    fn sync(&self) {
        let _s = trace::span(Layer::WalSync, 0);
        self.0.sync();
    }

    fn records(&self) -> Vec<LogRecord> {
        self.0.records()
    }

    fn records_from(&self, from: usize) -> Vec<LogRecord> {
        self.0.records_from(from)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn store(wal: &Wal, initial: &[(i64, i64)], traced: bool) -> IntentionsStore<KvMapSpec> {
    let spec = KvMapSpec::with_initial(initial.iter().copied());
    let log: Arc<dyn DurableLog> = if traced {
        Arc::new(TimedLog(wal.clone()))
    } else {
        Arc::new(wal.clone())
    };
    IntentionsStore::shared(spec, ObjectId::new(OBJECT), log)
}

fn frontier(store: &IntentionsStore<KvMapSpec>) -> Result<BTreeMap<i64, i64>, String> {
    let mut states = store.committed_frontier();
    match states.len() {
        1 => Ok(states.pop().expect("one state")),
        n => Err(format!("committed frontier holds {n} states, expected 1")),
    }
}

/// Runs one trial: `per_writer` transfers per writer in `dir` (created
/// fresh, removed afterwards).
pub fn run(seed: u64, per_writer: usize, dir: &Path, traced: bool) -> Trial {
    let scripts = workload::durable_inputs(seed, WRITERS, per_writer, KEYS, IN_DOUBT_PER_WRITER);
    let initial = workload::wide_map_initial(seed, KEYS);
    let _ = std::fs::remove_dir_all(dir);
    let metrics = if traced {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };
    let opts = WalOptions {
        metrics: metrics.clone(),
        ..WalOptions::default()
    };

    let cell = Instant::now();
    std::fs::create_dir_all(dir).expect("create the WAL directory");
    let (wal, _) = Wal::open(dir, opts.clone()).expect("open a fresh WAL");
    let st = store(&wal, &initial, traced);
    let setup_s = cell.elapsed().as_secs_f64();

    let rss0 = rss_bytes();
    let heap0 = crate::heap::live_bytes();
    let start = Instant::now();
    let lats: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let st = &st;
                s.spawn(move || {
                    let lat = writer(st, script);
                    trace::flush_thread();
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let rss1 = rss_bytes();
    let heap1 = crate::heap::live_bytes();

    let all: Vec<&Transfer> = scripts.iter().flatten().collect();
    let committed = all.iter().filter(|t| t.fate == Fate::Commit).count() as u64;
    let mut t = Trial {
        setup_s,
        wall_s,
        attempted: all.len() as u64,
        committed,
        mem_bytes_per_txn: crate::trial::heap_per_txn(heap0, heap1, committed),
        lat_ns: lats.concat(),
        ..Trial::default()
    };
    let pre_crash = frontier(&st);
    let syncs = metrics.snapshot().wal_batch.count;
    let disk = dir_bytes(dir);

    // Crash: drop every handle on the store and the log, then time the
    // restart from the directory alone.
    drop(st);
    drop(wal);
    let rec = Instant::now();
    let (wal, _) = Wal::open(dir, opts).expect("reopen the WAL");
    let open_s = rec.elapsed().as_secs_f64();
    let st = store(&wal, &initial, false);
    let replay = Instant::now();
    let outcome = st.recover();
    let recover_s = replay.elapsed().as_secs_f64();
    let recovery_s = rec.elapsed().as_secs_f64();

    let ids = |v: &[ActivityId]| v.iter().map(|a| a.raw()).collect();
    let check = pre_crash.and_then(|pre| {
        let got = Recovered {
            state: frontier(&st)?,
            redone: ids(&outcome.redone),
            in_doubt: ids(&outcome.in_doubt),
            discarded: ids(&outcome.discarded),
        };
        workload::check_recovery(all.iter().copied(), &initial, &pre, &got)
    });
    if let Err(e) = check {
        t.errors.push(e);
    }
    drop(st);
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);

    t.set("recovery_s", recovery_s);
    t.set("wal.open_ms", open_s * 1e3);
    t.set("store.recover_ms", recover_s * 1e3);
    t.set("store.redone", outcome.redone.len() as f64);
    t.set("store.in_doubt", outcome.in_doubt.len() as f64);
    t.set("wal.bytes_per_txn", disk as f64 / committed.max(1) as f64);
    t.set(
        "mem.rss_bytes_per_txn",
        rss1.saturating_sub(rss0) as f64 / committed.max(1) as f64,
    );
    if traced {
        t.set("wal.syncs_per_txn", syncs as f64 / committed.max(1) as f64);
    }
    t
}

/// One writer: prepare each transfer, then commit, abort or leave it
/// prepared as scripted. Returns the prepare+commit latency of every
/// committed transfer.
fn writer(st: &IntentionsStore<KvMapSpec>, script: &[Transfer]) -> Vec<u64> {
    let mut lat = Vec::with_capacity(script.len());
    for t in script {
        let _root = trace::span(Layer::Txn, u64::from(t.id));
        let start = Instant::now();
        let id = ActivityId::new(t.id);
        {
            let _s = trace::span(Layer::StorePrepare, 0);
            st.prepare(
                id,
                vec![
                    (op("adjust", [t.from, -t.amount]), Value::ok()),
                    (op("adjust", [t.to, t.amount]), Value::ok()),
                ],
            );
        }
        match t.fate {
            Fate::Commit => {
                {
                    let _s = trace::span(Layer::StoreCommit, 0);
                    st.commit(id);
                }
                lat.push(start.elapsed().as_nanos() as u64);
            }
            Fate::Abort => {
                let _s = trace::span(Layer::StoreAbort, 0);
                st.abort(id);
            }
            Fate::LeavePrepared => {}
        }
    }
    lat
}
