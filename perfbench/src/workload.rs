//! Seeded input generation and the correctness oracles.
//!
//! Every input a trial feeds the system is generated here from the trial
//! seed before the trial's clock starts, so the same seed gives the same
//! inputs and the system under test receives only the generated scripts.
//! The oracles recompute each workload's expected final state from the
//! scripts and the outcomes the clients saw, independently of the code
//! under test.

use std::collections::{BTreeMap, BTreeSet};

/// SplitMix64: a small, well-mixed, seedable generator. The benchmark's
/// inputs must not depend on any library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `pct`/100.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// A trial's seed, derived from the run seed and the trial index.
pub fn trial_seed(run_seed: u64, trial: u64) -> u64 {
    Rng::new(run_seed, trial.wrapping_add(1)).next_u64()
}

/// One bank-account operation of the hot-account workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankOp {
    /// `deposit(n)`.
    Deposit(i64),
    /// `withdraw(n)`.
    Withdraw(i64),
}

/// One hot-account transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotTxn {
    /// Two updates, then the spin-hold, then commit.
    Update([BankOp; 2]),
    /// A read-only `balance` audit.
    Audit,
}

/// Per-client scripts for hot-account: 80% updates, 20% audits.
pub fn hot_account_inputs(seed: u64, clients: usize, per_client: usize) -> Vec<Vec<HotTxn>> {
    (0..clients)
        .map(|c| {
            let mut rng = Rng::new(seed, c as u64);
            (0..per_client)
                .map(|_| {
                    if rng.percent(20) {
                        HotTxn::Audit
                    } else {
                        HotTxn::Update([bank_op(&mut rng), bank_op(&mut rng)])
                    }
                })
                .collect()
        })
        .collect()
}

fn bank_op(rng: &mut Rng) -> BankOp {
    let amount = 1 + rng.below(100) as i64;
    if rng.percent(50) {
        BankOp::Deposit(amount)
    } else {
        BankOp::Withdraw(amount)
    }
}

/// One wide-map operation: `get(k)` or `adjust(k, d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// `get(k)`.
    Get(i64),
    /// `adjust(k, d)`.
    Adjust(i64, i64),
}

/// The wide map's initial entries: keys `0..keys`, seeded values.
pub fn wide_map_initial(seed: u64, keys: i64) -> Vec<(i64, i64)> {
    let mut rng = Rng::new(seed, u64::MAX);
    (0..keys).map(|k| (k, rng.below(1_000) as i64)).collect()
}

/// Per-client scripts for wide-map: four uniformly keyed ops each, half
/// `get`, half `adjust`.
pub fn wide_map_inputs(
    seed: u64,
    clients: usize,
    per_client: usize,
    keys: i64,
) -> Vec<Vec<[MapOp; 4]>> {
    (0..clients)
        .map(|c| {
            let mut rng = Rng::new(seed, c as u64);
            (0..per_client)
                .map(|_| {
                    std::array::from_fn(|_| {
                        let k = rng.below(keys as u64) as i64;
                        if rng.percent(50) {
                            MapOp::Get(k)
                        } else {
                            MapOp::Adjust(k, rng.below(101) as i64 - 50)
                        }
                    })
                })
                .collect()
        })
        .collect()
}

/// What the client does with a durable transfer after `prepare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// `commit`.
    Commit,
    /// `abort`, at the client's request.
    Abort,
    /// Nothing: the transfer is still prepared at the crash (in doubt).
    LeavePrepared,
}

/// One durable-restart transfer: `adjust(from, -amount)`,
/// `adjust(to, +amount)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Transaction id (unique across writers).
    pub id: u32,
    /// Debited key.
    pub from: i64,
    /// Credited key.
    pub to: i64,
    /// Amount moved.
    pub amount: i64,
    /// The client's decision.
    pub fate: Fate,
}

/// Per-writer transfer scripts: about 5% client aborts, and the last
/// `in_doubt` transfers of each writer left prepared.
pub fn durable_inputs(
    seed: u64,
    writers: usize,
    per_writer: usize,
    keys: i64,
    in_doubt: usize,
) -> Vec<Vec<Transfer>> {
    (0..writers)
        .map(|w| {
            let mut rng = Rng::new(seed, w as u64);
            (0..per_writer)
                .map(|i| {
                    let from = rng.below(keys as u64) as i64;
                    let to = (from + 1 + rng.below(keys as u64 - 1) as i64) % keys;
                    let fate = if i + in_doubt >= per_writer {
                        Fate::LeavePrepared
                    } else if rng.percent(5) {
                        Fate::Abort
                    } else {
                        Fate::Commit
                    };
                    Transfer {
                        id: u32::try_from(1 + i * writers + w).expect("transfer ids fit in u32"),
                        from,
                        to,
                        amount: 1 + rng.below(100) as i64,
                        fate,
                    }
                })
                .collect()
        })
        .collect()
}

/// Hot-account oracle: the final balance is the initial balance plus the
/// committed deposits minus the committed (successful) withdrawals.
pub fn check_balance(
    initial: i64,
    deposits: i64,
    withdrawals: i64,
    observed: i64,
) -> Result<(), String> {
    let expected = initial + deposits - withdrawals;
    if observed == expected {
        Ok(())
    } else {
        Err(format!(
            "final balance {observed} != initial {initial} + deposits {deposits} - withdrawals {withdrawals} = {expected}"
        ))
    }
}

/// Wide-map oracle: the final `sum` is the initial sum plus the committed
/// `adjust` deltas.
pub fn check_sum(initial_sum: i64, committed_delta: i64, observed: i64) -> Result<(), String> {
    let expected = initial_sum + committed_delta;
    if observed == expected {
        Ok(())
    } else {
        Err(format!(
            "final sum {observed} != initial {initial_sum} + committed deltas {committed_delta} = {expected}"
        ))
    }
}

/// The map a durable run must recover to: the initial entries with every
/// committed transfer applied.
pub fn expected_durable_map<'a>(
    initial: &[(i64, i64)],
    transfers: impl IntoIterator<Item = &'a Transfer>,
) -> BTreeMap<i64, i64> {
    let mut map: BTreeMap<i64, i64> = initial.iter().copied().collect();
    for t in transfers {
        if t.fate == Fate::Commit {
            *map.entry(t.from).or_default() -= t.amount;
            *map.entry(t.to).or_default() += t.amount;
        }
    }
    map
}

/// What recovery reported, as sets of transaction ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovered {
    /// The recovered committed state.
    pub state: BTreeMap<i64, i64>,
    /// Redone (committed) transactions.
    pub redone: BTreeSet<u32>,
    /// In-doubt (prepared, undecided) transactions.
    pub in_doubt: BTreeSet<u32>,
    /// Discarded (aborted) transactions.
    pub discarded: BTreeSet<u32>,
}

/// Durable-restart oracle: the recovered state equals both the state the
/// store held before the crash and the independently computed expected
/// map, and every transaction is classified by the fate its client chose.
pub fn check_recovery<'a>(
    transfers: impl IntoIterator<Item = &'a Transfer> + Clone,
    initial: &[(i64, i64)],
    pre_crash: &BTreeMap<i64, i64>,
    got: &Recovered,
) -> Result<(), String> {
    let expected = expected_durable_map(initial, transfers.clone());
    if got.state != expected {
        return Err("recovered state differs from the committed transfers".into());
    }
    if got.state != *pre_crash {
        return Err("recovered state differs from the pre-crash committed frontier".into());
    }
    let ids = |fate: Fate| -> BTreeSet<u32> {
        transfers
            .clone()
            .into_iter()
            .filter(|t| t.fate == fate)
            .map(|t| t.id)
            .collect()
    };
    for (what, want, have) in [
        ("redone", ids(Fate::Commit), &got.redone),
        ("in_doubt", ids(Fate::LeavePrepared), &got.in_doubt),
        ("discarded", ids(Fate::Abort), &got.discarded),
    ] {
        if want != *have {
            return Err(format!(
                "{what}: recovery reported {} transactions, the clients left {}",
                have.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(hot_account_inputs(7, 2, 500), hot_account_inputs(7, 2, 500));
        assert_ne!(hot_account_inputs(7, 2, 500), hot_account_inputs(8, 2, 500));
        assert_eq!(
            wide_map_inputs(7, 2, 200, 1000),
            wide_map_inputs(7, 2, 200, 1000)
        );
        assert_ne!(
            wide_map_inputs(7, 2, 200, 1000),
            wide_map_inputs(8, 2, 200, 1000)
        );
        assert_eq!(wide_map_initial(3, 1000), wide_map_initial(3, 1000));
        assert_eq!(
            durable_inputs(7, 2, 300, 1000, 2),
            durable_inputs(7, 2, 300, 1000, 2)
        );
        assert_ne!(
            durable_inputs(7, 2, 300, 1000, 2),
            durable_inputs(8, 2, 300, 1000, 2)
        );
        assert_eq!(trial_seed(5, 0), trial_seed(5, 0));
        assert_ne!(trial_seed(5, 0), trial_seed(5, 1));
    }

    #[test]
    fn generated_mixes_have_the_documented_shape() {
        let hot: Vec<HotTxn> = hot_account_inputs(1, 2, 5000).concat();
        let audits = hot.iter().filter(|t| **t == HotTxn::Audit).count();
        assert!(
            (1800..2200).contains(&audits),
            "~20% of 10,000 are audits, got {audits}"
        );
        let durable = durable_inputs(1, 2, 2000, 1000, 3);
        for script in &durable {
            assert!(script
                .iter()
                .rev()
                .take(3)
                .all(|t| t.fate == Fate::LeavePrepared));
            assert!(script
                .iter()
                .all(|t| t.from != t.to && (0..1000).contains(&t.to)));
        }
        let ids: BTreeSet<u32> = durable.iter().flatten().map(|t| t.id).collect();
        assert_eq!(ids.len(), 4000, "transfer ids are unique");
    }

    #[test]
    fn balance_and_sum_oracles_reject_corrupted_states() {
        assert!(check_balance(1_000, 50, 20, 1_030).is_ok());
        assert!(check_balance(1_000, 50, 20, 1_031).is_err());
        assert!(
            check_balance(1_000, 50, 20, 1_070).is_err(),
            "a lost withdrawal"
        );
        assert!(check_sum(500, -7, 493).is_ok());
        assert!(check_sum(500, -7, 500).is_err(), "a lost adjust");
    }

    #[test]
    fn recovery_oracle_rejects_corrupted_recoveries() {
        let initial = wide_map_initial(9, 10);
        let scripts = durable_inputs(9, 2, 40, 10, 2);
        let all: Vec<Transfer> = scripts.concat();
        let state = expected_durable_map(&initial, &all);
        let ids = |fate| {
            all.iter()
                .filter(|t| t.fate == fate)
                .map(|t| t.id)
                .collect()
        };
        let good = Recovered {
            state: state.clone(),
            redone: ids(Fate::Commit),
            in_doubt: ids(Fate::LeavePrepared),
            discarded: ids(Fate::Abort),
        };
        assert!(check_recovery(&all, &initial, &state, &good).is_ok());

        let mut lost_update = good.clone();
        *lost_update.state.get_mut(&0).unwrap() += 1;
        assert!(check_recovery(&all, &initial, &state, &lost_update).is_err());
        assert!(check_recovery(&all, &initial, &lost_update.state, &good).is_err());

        let mut resurrected = good.clone();
        let loser = *good.in_doubt.iter().next().unwrap();
        resurrected.in_doubt.remove(&loser);
        resurrected.redone.insert(loser);
        assert!(check_recovery(&all, &initial, &state, &resurrected).is_err());
    }
}
