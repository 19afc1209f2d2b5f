//! The sharded-2pc workload: the deterministic partitioned service with
//! four shards, the bank mix with a 20% hot set over a reliable network,
//! and one planned shard crash.
//!
//! The service is single-threaded and simulated; the benchmark drives its
//! event loop itself and times it on the wall clock. A trial is a fixed
//! number of client ticks, never a fixed duration: the service's wall
//! cost per transaction grows with run length, so equal durations would
//! not be equal work.
//!
//! The crash lands after the clients' last submission has reached every
//! shard but before the last decisions have, so the crashed shard
//! recovers with transactions in doubt and resolves them against the
//! coordinator, and no transaction is lost to a prepare sent to a dead
//! shard (which could only abort).

use crate::trace::{self, Layer};
use crate::trial::{rss_bytes, Trial};
use atomicity_dist::{CrashPlan, DistConfig, DistService, WorkloadKind};
use atomicity_spec::ActivityId;
use std::time::Instant;

/// Shards in the service.
const SHARDS: u32 = 4;
const CLIENTS: usize = 16;
const REQUESTS_PER_TICK: u32 = 4;
/// Simulated µs between a client's ticks (the service default).
const TICK_INTERVAL: u64 = 1_000;
/// Upper bound of the reliable network's latency (the service default).
const MAX_LATENCY: u64 = 500;
/// The coordinator's batching window (the service default).
const BATCH_WINDOW: u64 = 200;

/// The service configuration of one trial.
fn config(seed: u64, ticks: u64) -> DistConfig {
    // Every client's last tick is at or before `ticks * TICK_INTERVAL`;
    // its prepares are flushed within the batching window and delivered
    // within the network's latency bound.
    let last_prepare = ticks * TICK_INTERVAL + BATCH_WINDOW + MAX_LATENCY;
    DistConfig {
        seed,
        shards: SHARDS,
        clients: CLIENTS,
        requests_per_tick: REQUESTS_PER_TICK,
        tick_interval: TICK_INTERVAL,
        ticks,
        batch_window: BATCH_WINDOW,
        workload: WorkloadKind::Bank,
        hot_fraction: 0.2,
        crashes: vec![CrashPlan {
            at: last_prepare + 1,
            shard: (seed % u64::from(SHARDS)) as u32,
            downtime: 2 * TICK_INTERVAL,
        }],
        ..DistConfig::default()
    }
}

/// Runs one trial of `ticks` client ticks.
pub fn run(seed: u64, ticks: u64) -> Trial {
    let cell = Instant::now();
    let mut svc = DistService::new(config(seed, ticks));
    let setup_s = cell.elapsed().as_secs_f64();

    let rss0 = rss_bytes();
    let heap0 = crate::heap::live_bytes();
    let start = Instant::now();
    // Submission wall time per transaction id (ids are issued 1, 2, ...
    // in submission order) and the ids not yet decided.
    let mut submitted_at: Vec<u64> = Vec::new();
    let mut pending: Vec<u32> = Vec::new();
    let mut decided_seen = 0;
    let mut lat_ns: Vec<u64> = Vec::new();
    loop {
        let more = {
            let _s = trace::span(Layer::DistStep, 0);
            svc.step_event()
        };
        let now = start.elapsed().as_nanos() as u64;
        let stats = svc.stats();
        while (submitted_at.len() as u64) < stats.submitted {
            submitted_at.push(now);
            pending.push(submitted_at.len() as u32);
        }
        if stats.committed + stats.aborted > decided_seen {
            decided_seen = stats.committed + stats.aborted;
            pending.retain(|&id| match svc.decision(ActivityId::new(id)) {
                Some(true) => {
                    lat_ns.push(now - submitted_at[id as usize - 1]);
                    false
                }
                Some(false) => false,
                None => true,
            });
        }
        if !more {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss1 = rss_bytes();
    let heap1 = crate::heap::live_bytes();

    let stats = svc.stats();
    let mut t = Trial {
        setup_s,
        wall_s,
        attempted: stats.submitted,
        committed: stats.committed,
        failed: stats.aborted,
        mem_bytes_per_txn: crate::trial::heap_per_txn(heap0, heap1, stats.committed),
        lat_ns,
        ..Trial::default()
    };
    if let Err(e) = svc.verify() {
        t.errors.push(format!("verify: {e}"));
    }
    if stats.committed + stats.aborted != stats.submitted {
        t.errors.push(format!(
            "{} submitted but {} decided",
            stats.submitted,
            stats.committed + stats.aborted
        ));
    }
    if stats.recoveries != 1 {
        t.errors
            .push(format!("{} shard recoveries, planned 1", stats.recoveries));
    }
    // The replay fingerprint: the run compares trials of equal seed.
    t.set("dist.trace_hash", (svc.trace_hash() >> 12) as f64);
    t.set("dist.state_digest", (svc.state_digest() >> 12) as f64);
    let per_txn = |n: u64| n as f64 / stats.submitted.max(1) as f64;
    t.set("dist.events_per_txn", per_txn(stats.events));
    t.set("dist.deliveries_per_txn", per_txn(stats.deliveries));
    t.set("dist.timeout_aborts", stats.timeout_aborts as f64);
    t.set("dist.in_doubt", stats.in_doubt as f64);
    t.set("dist.recoveries", stats.recoveries as f64);
    t.set(
        "dist.modeled_txn_per_sim_s",
        stats.committed as f64 / (stats.last_decision_at.max(1) as f64 / 1e6),
    );
    t.set(
        "mem.rss_bytes_per_txn",
        rss1.saturating_sub(rss0) as f64 / stats.committed.max(1) as f64,
    );
    t
}
