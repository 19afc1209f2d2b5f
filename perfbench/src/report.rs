//! The metric catalogue and the aggregation of a run's trials into it.

use crate::stats;
use crate::trace::{self, Layer, Span};
use crate::trial::Trial;
use std::collections::BTreeMap;

/// Layers whose calls get latency quantiles, with their metric prefix.
const TIMED_LAYERS: [(Layer, &str); 9] = [
    (Layer::Begin, "manager.begin_us"),
    (Layer::Commit, "manager.commit_us"),
    (Layer::Invoke, "engine.invoke_us"),
    (Layer::ReadAt, "engine.read_at_us"),
    (Layer::WalAppend, "wal.append_us"),
    (Layer::WalSync, "wal.sync_us"),
    (Layer::StorePrepare, "store.prepare_us"),
    (Layer::StoreCommit, "store.commit_us"),
    (Layer::DistStep, "dist.step_event_us"),
];

/// Layers whose self time per committed transaction is reported.
const SELF_TIME_LAYERS: [Layer; 12] = [
    Layer::Begin,
    Layer::Invoke,
    Layer::ReadAt,
    Layer::Hold,
    Layer::Commit,
    Layer::Abort,
    Layer::WalAppend,
    Layer::WalSync,
    Layer::StorePrepare,
    Layer::StoreCommit,
    Layer::StoreAbort,
    Layer::DistStep,
];

/// Per-layer metrics of the traced run: (name, unit). A layer a workload
/// does not call reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    for (_, prefix) in TIMED_LAYERS {
        add(&format!("{prefix}.p50"), "us");
        add(&format!("{prefix}.p99"), "us");
    }
    for name in [
        "engine.deadlock_kills",
        "engine.timestamp_conflicts",
        "certify.peak_retained",
        "certify.unknown",
        "store.redone",
        "store.in_doubt",
        "dist.timeout_aborts",
        "dist.in_doubt",
        "dist.recoveries",
    ] {
        add(name, "count");
    }
    for reason in atomicity_core::AbortReason::ALL {
        add(&format!("abort.{}", reason.label()), "count");
    }
    add("engine.fast_ratio", "ratio");
    add("engine.block_ratio", "ratio");
    add("log.events_per_txn", "events/txn");
    add("certify.observe_ns.p50", "ns");
    add("certify.observe_ns.p99", "ns");
    add("certify.drain_ms", "ms");
    add("certify.drain_ms.long", "ms");
    add("mem.rss_bytes_per_txn", "B/txn");
    add("wal.syncs_per_txn", "fsync/txn");
    add("wal.bytes_per_txn", "B/txn");
    add("wal.open_ms", "ms");
    add("store.recover_ms", "ms");
    add("recovery_s", "s");
    add("dist.step_event_us.p50.first_quarter", "us");
    add("dist.step_event_us.p50.last_quarter", "us");
    add("dist.events_per_txn", "events/txn");
    add("dist.deliveries_per_txn", "msgs/txn");
    add("dist.modeled_txn_per_sim_s", "txn/sim_s");
    add("txn.unattributed_us.p50", "us");
    add("txn.p99_us", "us");
    for layer in SELF_TIME_LAYERS {
        add(&format!("self_us_per_txn.{}", layer.name()), "us/txn");
    }
    add("self_us_per_txn.certify.observe", "us/txn");
    add("trace.txn_per_s", "txn/s");
    add("trace.untraced_txn_per_s", "txn/s");
    add("trace.overhead_pct", "%");
    m
}

/// Derives a traced trial's per-layer values from its spans: call-latency
/// quantiles per timed layer, self time per committed transaction per
/// layer, and the unattributed remainder of each transaction's latency.
pub fn span_values(t: &mut Trial, spans: &[Span]) {
    let mut durs: BTreeMap<Layer, Vec<f64>> = BTreeMap::new();
    for s in spans {
        durs.entry(s.layer).or_default().push(s.dur() as f64);
    }
    // The event loop's step cost early and late in the run (one thread
    // records its spans in order).
    if let Some(steps) = durs.get(&Layer::DistStep) {
        let q = steps.len() / 4;
        for (part, slice) in [("first", &steps[..q]), ("last", &steps[steps.len() - q..])] {
            let p50 = stats::quantile(&mut slice.to_vec(), 0.5).unwrap_or(0.0);
            t.set(&format!("dist.step_event_us.p50.{part}_quarter"), p50 / 1e3);
        }
    }
    for (layer, prefix) in TIMED_LAYERS {
        if let Some(v) = durs.get_mut(&layer) {
            t.set_quantiles(prefix, v, 1e3);
        }
    }
    let committed = t.committed.max(1) as f64;
    let mut self_ns: BTreeMap<Layer, f64> = BTreeMap::new();
    let mut unattributed: Vec<f64> = Vec::new();
    for (layer, _, ns) in trace::self_times(spans) {
        *self_ns.entry(layer).or_default() += ns as f64;
        if layer == Layer::Txn {
            unattributed.push(ns as f64);
        }
    }
    for layer in SELF_TIME_LAYERS {
        let total = self_ns.get(&layer).copied().unwrap_or(0.0);
        t.set(
            &format!("self_us_per_txn.{}", layer.name()),
            total / 1e3 / committed,
        );
    }
    if !unattributed.is_empty() {
        t.set_quantiles("txn.unattributed_us", &mut unattributed, 1e3);
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

fn metric(name: &str, unit: &str, value: Option<f64>, n: usize) -> Metric {
    let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        n,
    }
}

/// The end-to-end metrics of an untraced run. `setup` holds every set-up
/// sample taken (trials and set-up probes).
pub fn end_to_end(trials: &[Trial], setup: &[f64]) -> Vec<Metric> {
    let mut lat: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.lat_ns.iter().map(|&n| n as f64 / 1e3))
        .collect();
    let per_trial = |f: fn(&Trial) -> f64| stats::median(&trials.iter().map(f).collect::<Vec<_>>());
    let n = lat.len();
    vec![
        metric("setup_s", "s", stats::median(setup), setup.len()),
        metric(
            "txn_per_s",
            "txn/s",
            per_trial(Trial::txn_per_s),
            trials.len(),
        ),
        metric("txn_p50_us", "us", stats::quantile(&mut lat, 0.5), n),
        metric(
            "mem_bytes_per_txn",
            "B/txn",
            per_trial(|t| t.mem_bytes_per_txn),
            trials.len(),
        ),
    ]
}

/// The per-layer metrics of a traced run: the median over its traced
/// trials, except the certificate count (summed over every trial), the
/// tracing overhead (traced against untraced throughput) and the long
/// trial's certifier drain.
pub fn layers(traced: &[Trial], untraced: &[Trial], long: Option<&Trial>) -> Vec<Metric> {
    let median_tps =
        |ts: &[Trial]| stats::median(&ts.iter().map(Trial::txn_per_s).collect::<Vec<_>>());
    let (tps, base) = (median_tps(traced), median_tps(untraced));
    per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let (value, n) = match name.as_str() {
                "trace.txn_per_s" => (tps, traced.len()),
                "trace.untraced_txn_per_s" => (base, untraced.len()),
                "certify.drain_ms.long" => (
                    long.and_then(|t| t.values.get("certify.drain_ms").copied()),
                    usize::from(long.is_some()),
                ),
                // The tail, from the untraced trials: no end-to-end tail
                // percentile repeats within a bound on every workload.
                "txn.p99_us" => {
                    let mut lat: Vec<f64> = untraced
                        .iter()
                        .flat_map(|t| t.lat_ns.iter().map(|&n| n as f64 / 1e3))
                        .collect();
                    (stats::quantile(&mut lat, 0.99), lat.len())
                }
                "trace.overhead_pct" => (
                    tps.zip(base).map(|(t, b)| 100.0 * (1.0 - t / b)),
                    traced.len() + untraced.len(),
                ),
                "certify.unknown" => {
                    let all = traced.iter().chain(untraced);
                    let v = all
                        .clone()
                        .filter_map(|t| t.values.get(&name))
                        .fold(0.0, |a, b| a + b);
                    (Some(v), all.count())
                }
                _ => {
                    let v: Vec<f64> = traced
                        .iter()
                        .map(|t| t.values.get(&name).copied().unwrap_or(0.0))
                        .collect();
                    // A quantile's sample count is the calls it covers;
                    // any other value's is the trials it is the median of.
                    let calls = name
                        .rsplit_once('.')
                        .map(|(prefix, _)| format!("{prefix}.n"))
                        .and_then(|key| {
                            traced
                                .iter()
                                .map(|t| t.values.get(&key).copied())
                                .sum::<Option<f64>>()
                        });
                    (stats::median(&v), calls.map_or(v.len(), |c| c as usize))
                }
            };
            metric(&name, unit, value, n)
        })
        .collect()
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names = per_layer();
        let set: std::collections::BTreeSet<_> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(set.len(), names.len());
        assert!(names.len() <= 128);
        for (n, u) in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let m = [metric("txn_per_s", "txn/s", Some(12.5), 3)];
        assert_eq!(
            json_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"txn_per_s\": {\"value\": 12.5, \"unit\": \"txn/s\"}}}"
        );
    }

    #[test]
    fn end_to_end_pools_latencies_and_takes_trial_medians() {
        let trial = |committed, wall_s, lat: Vec<u64>| Trial {
            committed,
            wall_s,
            lat_ns: lat,
            ..Trial::default()
        };
        let ts = [
            trial(100, 1.0, (1..=500).map(|i| i * 1000).collect()),
            trial(300, 1.0, (501..=1000).map(|i| i * 1000).collect()),
            trial(200, 1.0, vec![]),
        ];
        let m = end_to_end(&ts, &[0.3, 0.1, 0.2]);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("txn_per_s"), 200.0);
        assert_eq!(get("txn_p50_us"), 500.0);
    }
}
