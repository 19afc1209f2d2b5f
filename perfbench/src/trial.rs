//! One trial's results and the line protocol a trial process uses to hand
//! them to the run that spawned it.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one trial measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trial {
    /// Time from the start of the cell to its first transaction.
    pub setup_s: f64,
    /// The measured window: first `begin` until the run's result is in.
    pub wall_s: f64,
    /// Logical transactions attempted.
    pub attempted: u64,
    /// Logical transactions committed (decided, on sharded-2pc).
    pub committed: u64,
    /// Logical transactions that could not commit.
    pub failed: u64,
    /// Live-heap growth over the window per committed transaction.
    pub mem_bytes_per_txn: f64,
    /// Latency of every committed logical transaction, ns.
    pub lat_ns: Vec<u64>,
    /// Named per-layer and diagnostic values.
    pub values: BTreeMap<String, f64>,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

impl Trial {
    /// Records a named value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records `<prefix>.p50` and `<prefix>.p99` of `samples`, each
    /// divided by `scale`, plus the sample count as `<prefix>.n`.
    pub fn set_quantiles(&mut self, prefix: &str, samples: &mut [f64], scale: f64) {
        for (suffix, p) in [("p50", 0.5), ("p99", 0.99)] {
            let q = stats::quantile(samples, p).unwrap_or(0.0);
            self.set(&format!("{prefix}.{suffix}"), q / scale);
        }
        self.set(&format!("{prefix}.n"), samples.len() as f64);
    }

    /// Committed transactions per second of the measured window.
    pub fn txn_per_s(&self) -> f64 {
        self.committed as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    /// Serializes the trial as `key value` lines.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "setup_s {:e}", self.setup_s);
        let _ = writeln!(s, "wall_s {:e}", self.wall_s);
        let _ = writeln!(s, "attempted {}", self.attempted);
        let _ = writeln!(s, "committed {}", self.committed);
        let _ = writeln!(s, "failed {}", self.failed);
        let _ = writeln!(s, "mem_bytes_per_txn {:e}", self.mem_bytes_per_txn);
        for (k, v) in &self.values {
            let _ = writeln!(s, "value {k} {v:e}");
        }
        for e in &self.errors {
            let _ = writeln!(s, "error {}", e.replace('\n', " "));
        }
        s.push_str("lat");
        for l in &self.lat_ns {
            let _ = write!(s, " {l}");
        }
        s.push('\n');
        s
    }

    /// Parses [`Trial::encode`]'s output.
    pub fn decode(text: &str) -> Result<Trial, String> {
        let mut t = Trial::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |s: &str| {
                s.parse::<f64>()
                    .map_err(|e| format!("bad number in `{line}`: {e}"))
            };
            let int = |s: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("bad count in `{line}`: {e}"))
            };
            match key {
                "setup_s" => t.setup_s = num(rest)?,
                "wall_s" => t.wall_s = num(rest)?,
                "attempted" => t.attempted = int(rest)?,
                "committed" => t.committed = int(rest)?,
                "failed" => t.failed = int(rest)?,
                "mem_bytes_per_txn" => t.mem_bytes_per_txn = num(rest)?,
                "value" => {
                    let (k, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad value line `{line}`"))?;
                    t.values.insert(k.to_string(), num(v)?);
                }
                "error" => t.errors.push(rest.to_string()),
                "lat" => {
                    t.lat_ns = rest.split_whitespace().map(int).collect::<Result<_, _>>()?;
                }
                _ => {}
            }
        }
        if t.wall_s <= 0.0 {
            return Err("trial reported no measured window".into());
        }
        Ok(t)
    }
}

/// Live heap bytes retained per committed transaction between two
/// [`crate::heap::live_bytes`] readings.
pub fn heap_per_txn(before: i64, after: i64, committed: u64) -> f64 {
    (after - before) as f64 / committed.max(1) as f64
}

/// This process's resident set size in bytes (0 where `/proc` is absent).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// The whole machine's CPU time so far as (stolen, total) ticks, from the
/// `cpu` line of `/proc/stat`; (0, 0) where it is absent. Stolen time is
/// time the hypervisor ran something else while a virtual CPU wanted to
/// run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    match fields.get(..8) {
        Some(f) => (f[7], f.iter().sum()),
        None => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let mut t = Trial {
            setup_s: 0.0125,
            wall_s: 1.5,
            attempted: 10,
            committed: 9,
            failed: 1,
            mem_bytes_per_txn: 12.5,
            lat_ns: vec![5, 7, 11],
            ..Trial::default()
        };
        t.set("abort.deadlock", 3.0);
        t.errors.push("final sum 1 != 2".into());
        assert_eq!(Trial::decode(&t.encode()), Ok(t));
    }

    #[test]
    fn decode_rejects_a_missing_window() {
        assert!(Trial::decode("setup_s 1\n").is_err());
    }
}
