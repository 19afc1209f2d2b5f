//! The engine workloads: hot-account and wide-map on one paper engine.
//!
//! Production configuration: `fast_path(true)` and online certification
//! over a retiring tap, started before the first transaction. The
//! measured window runs from the first `begin` until the certificate is
//! in, so a certifier that falls behind costs throughput. Two closed-loop
//! clients; a refused attempt is aborted and retried as a fresh
//! transaction, and a logical transaction fails only if it cannot commit.

use crate::trace::{self, Layer};
use crate::trial::{rss_bytes, Trial};
use crate::workload::{self, BankOp, HotTxn, MapOp};
use atomicity_bench::{synthesized_suite, CertifyMode, Engine};
use atomicity_certify::{OnlineCertifier, Verdict};
use atomicity_core::{AbortReason, Admission, CommutesRel, TxnError, TxnManager};
use atomicity_spec::specs::{BankAccountSpec, KvMapSpec};
use atomicity_spec::{op, ObjectId, Operation, SystemSpec, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// The hot account's opening balance: large enough that no withdrawal
/// in a trial is refused.
const INITIAL_BALANCE: i64 = 1_000_000_000_000;
/// Keys in the wide map.
const MAP_KEYS: i64 = 1_000;
/// The spin-hold of a hot-account update before commit.
const HOLD: Duration = Duration::from_micros(20);
/// Attempts before a logical transaction counts as failed.
const MAX_ATTEMPTS: u32 = 1_000;
const OBJECT: u32 = 1;

/// Which engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One bank account, contended.
    HotAccount,
    /// One 1,000-key map, uniform keys.
    WideMap,
}

enum Script {
    Hot(Vec<Vec<HotTxn>>),
    Wide(Vec<(i64, i64)>, Vec<Vec<[MapOp; 4]>>),
}

/// What one client saw.
#[derive(Default)]
struct ClientOut {
    attempted: u64,
    committed: u64,
    failed: u64,
    lat_ns: Vec<u64>,
    /// Committed deposits (hot-account) or `adjust` deltas (wide-map).
    credited: i64,
    /// Committed successful withdrawals (hot-account).
    debited: i64,
    aborts: [u64; AbortReason::ALL.len()],
}

struct Ctx<'a> {
    mgr: &'a TxnManager,
    obj: &'a dyn Admission,
    hybrid: bool,
}

/// Runs one trial of `shape` on `engine` with `per_client` logical
/// transactions per client.
pub fn run(shape: Shape, engine: Engine, seed: u64, per_client: usize, traced: bool) -> Trial {
    let script = match shape {
        Shape::HotAccount => Script::Hot(workload::hot_account_inputs(seed, CLIENTS, per_client)),
        Shape::WideMap => Script::Wide(
            workload::wide_map_initial(seed, MAP_KEYS),
            workload::wide_map_inputs(seed, CLIENTS, per_client, MAP_KEYS),
        ),
    };

    // Set-up: synthesized tables, engine, object state, certifier.
    let cell = Instant::now();
    let mut builder = engine
        .builder()
        .fast_path(true)
        .certify(CertifyMode::Online);
    if traced {
        builder = builder.collect_metrics();
    }
    let handle = builder.build();
    let id = ObjectId::new(OBJECT);
    let (obj, spec, table) = match &script {
        Script::Hot(_) => (
            handle.account(id, INITIAL_BALANCE),
            SystemSpec::new().with_object(id, BankAccountSpec::with_initial(INITIAL_BALANCE)),
            "bank",
        ),
        Script::Wide(initial, _) => (
            handle.map(id, initial.iter().copied()),
            SystemSpec::new().with_object(id, KvMapSpec::with_initial(initial.iter().copied())),
            "map",
        ),
    };
    let rel: Arc<dyn CommutesRel> = Arc::new(
        synthesized_suite()
            .table(table)
            .expect("table synthesized")
            .clone(),
    );
    let property = handle.property();
    // Untraced: the library's own certifier thread. Traced: the same
    // loop, run here so each `observe` call can be timed.
    let online = if traced {
        None
    } else {
        Some(
            handle
                .start_online(spec.clone(), Some(Arc::clone(&rel)))
                .expect("certify mode is on"),
        )
    };
    let tap = traced.then(|| handle.manager().log().tap_retiring());
    let setup_s = cell.elapsed().as_secs_f64();

    let ctx = Ctx {
        mgr: handle.manager(),
        obj: obj.as_ref(),
        hybrid: engine == Engine::Hybrid,
    };
    let rss0 = rss_bytes();
    let heap0 = crate::heap::live_bytes();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (outs, cert, drain_s, observe_ns) = std::thread::scope(|s| {
        let pump = tap.map(|mut tap| {
            let stop = &stop;
            let (spec, rel) = (spec.clone(), Arc::clone(&rel));
            s.spawn(move || {
                let mut cert = OnlineCertifier::new(property, spec, Some(rel));
                let mut observe_ns: Vec<u32> = Vec::new();
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    let n = tap.poll(|stamp, event| {
                        let t = Instant::now();
                        cert.observe(stamp, &event);
                        observe_ns.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
                    });
                    if n > 0 {
                        continue;
                    }
                    if stopping && tap.pending_len() == 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                let (observed, peak) = (cert.observed(), cert.peak_retained());
                (cert.finish().0, observed, peak, observe_ns)
            })
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let ctx = &ctx;
                let script = &script;
                s.spawn(move || {
                    let out = match script {
                        Script::Hot(scripts) => hot_client(ctx, c, &scripts[c]),
                        Script::Wide(_, scripts) => wide_client(ctx, c, &scripts[c]),
                    };
                    trace::flush_thread();
                    out
                })
            })
            .collect();
        let outs: Vec<ClientOut> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let drained = Instant::now();
        let (cert, observe_ns) = match (online, pump) {
            (Some(online), _) => {
                let o = online.finish();
                ((o.certificate, o.observed, o.peak_retained), Vec::new())
            }
            (None, Some(pump)) => {
                stop.store(true, Ordering::Release);
                let (c, observed, peak, ns) = pump.join().expect("certifier pump panicked");
                ((c, observed, peak), ns)
            }
            (None, None) => unreachable!("one certifier path is always set up"),
        };
        (outs, cert, drained.elapsed().as_secs_f64(), observe_ns)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let rss1 = rss_bytes();
    let heap1 = crate::heap::live_bytes();

    let mut t = Trial {
        setup_s,
        wall_s,
        ..Trial::default()
    };
    let mut aborts = [0u64; AbortReason::ALL.len()];
    let (mut credited, mut debited) = (0i64, 0i64);
    for o in outs {
        t.attempted += o.attempted;
        t.committed += o.committed;
        t.failed += o.failed;
        t.lat_ns.extend(o.lat_ns);
        credited += o.credited;
        debited += o.debited;
        for (a, b) in aborts.iter_mut().zip(o.aborts) {
            *a += b;
        }
    }
    t.mem_bytes_per_txn = crate::trial::heap_per_txn(heap0, heap1, t.committed);

    // Correctness: the certificate, then the final state against the
    // oracle.
    let (certificate, observed, peak) = cert;
    match &certificate.verdict {
        Verdict::Refuted(w) => t
            .errors
            .push(format!("{property:?} certificate refuted: {w}")),
        Verdict::Unknown(_) => t.set("certify.unknown", 1.0),
        Verdict::Certified => t.set("certify.unknown", 0.0),
    }
    let check = match &script {
        Script::Hot(_) => final_int(&ctx, op("balance", [] as [i64; 0]))
            .and_then(|b| workload::check_balance(INITIAL_BALANCE, credited, debited, b)),
        Script::Wide(initial, _) => final_int(&ctx, op("sum", [] as [i64; 0]))
            .and_then(|s| workload::check_sum(initial.iter().map(|e| e.1).sum(), credited, s)),
    };
    if let Err(e) = check {
        t.errors.push(e);
    }

    for (reason, n) in AbortReason::ALL.iter().zip(aborts) {
        t.set(&format!("abort.{}", reason.label()), n as f64);
    }
    t.set(
        "log.events_per_txn",
        observed as f64 / t.committed.max(1) as f64,
    );
    t.set("certify.drain_ms", drain_s * 1e3);
    t.set("certify.peak_retained", peak as f64);
    t.set(
        "mem.rss_bytes_per_txn",
        rss1.saturating_sub(rss0) as f64 / t.committed.max(1) as f64,
    );
    if traced {
        let stats = handle.metrics().aggregate_stats();
        let admissions = stats.admissions.max(1) as f64;
        t.set(
            "engine.fast_ratio",
            stats.fast_admissions as f64 / admissions,
        );
        t.set("engine.block_ratio", stats.blocks as f64 / admissions);
        t.set("engine.deadlock_kills", stats.deadlock_kills as f64);
        t.set(
            "engine.timestamp_conflicts",
            stats.timestamp_conflicts as f64,
        );
        let mut ns: Vec<f64> = observe_ns.into_iter().map(f64::from).collect();
        t.set_quantiles("certify.observe_ns", &mut ns, 1.0);
        t.set(
            "self_us_per_txn.certify.observe",
            ns.iter().sum::<f64>() / 1e3 / t.committed.max(1) as f64,
        );
    }
    t
}

/// Reads one integer from the object in a fresh transaction, after the
/// run (retrying a refused attempt like the clients do).
fn final_int(ctx: &Ctx<'_>, operation: Operation) -> Result<i64, String> {
    let mut last = String::new();
    for _ in 0..MAX_ATTEMPTS {
        match attempt(ctx, std::slice::from_ref(&operation), ctx.hybrid, false) {
            Ok(values) => {
                return values[0]
                    .as_int()
                    .ok_or_else(|| format!("final read returned {}", values[0]))
            }
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("final read never committed: {last}"))
}

/// One attempt: begin, the operations, the optional hold, commit.
/// Refused attempts are aborted here.
fn attempt(
    ctx: &Ctx<'_>,
    ops: &[Operation],
    read_only: bool,
    hold: bool,
) -> Result<Vec<Value>, TxnError> {
    let txn = {
        let _s = trace::span(Layer::Begin, 0);
        if read_only {
            ctx.mgr.begin_read_only()
        } else {
            ctx.mgr.begin()
        }
    };
    let mut values = Vec::with_capacity(ops.len());
    for o in ops {
        let r = if read_only {
            let _s = trace::span(Layer::ReadAt, 0);
            ctx.obj.read_at(&txn, o.clone())
        } else {
            let _s = trace::span(Layer::Invoke, 0);
            ctx.obj.invoke(&txn, o.clone())
        };
        match r {
            Ok(v) => values.push(v),
            Err(e) => {
                let _s = trace::span(Layer::Abort, 0);
                ctx.mgr.abort(txn);
                return Err(e);
            }
        }
    }
    if hold {
        let _s = trace::span(Layer::Hold, 0);
        let until = Instant::now() + HOLD;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }
    let _s = trace::span(Layer::Commit, 0);
    ctx.mgr.commit(txn).map(|_| values)
}

/// Runs one logical transaction to commit, retrying refused attempts.
/// Returns the committed attempt's results, or `None` if it failed.
fn logical(
    ctx: &Ctx<'_>,
    out: &mut ClientOut,
    tag: u64,
    ops: &[Operation],
    read_only: bool,
    hold: bool,
) -> Option<Vec<Value>> {
    let _root = trace::span(Layer::Txn, tag);
    out.attempted += 1;
    let start = Instant::now();
    for _ in 0..MAX_ATTEMPTS {
        match attempt(ctx, ops, read_only, hold) {
            Ok(values) => {
                out.lat_ns.push(start.elapsed().as_nanos() as u64);
                out.committed += 1;
                return Some(values);
            }
            Err(e) => {
                out.aborts[e.reason().index()] += 1;
                if !e.must_abort() {
                    break;
                }
            }
        }
    }
    out.failed += 1;
    None
}

fn tag(client: usize, i: usize) -> u64 {
    ((client as u64) << 32) | (i as u64 + 1)
}

fn hot_client(ctx: &Ctx<'_>, client: usize, script: &[HotTxn]) -> ClientOut {
    let mut out = ClientOut {
        lat_ns: Vec::with_capacity(script.len()),
        ..ClientOut::default()
    };
    for (i, txn) in script.iter().enumerate() {
        match txn {
            HotTxn::Audit => {
                let ops = [op("balance", [] as [i64; 0])];
                logical(ctx, &mut out, tag(client, i), &ops, ctx.hybrid, false);
            }
            HotTxn::Update(bank_ops) => {
                let ops = bank_ops.map(|b| match b {
                    BankOp::Deposit(n) => op("deposit", [n]),
                    BankOp::Withdraw(n) => op("withdraw", [n]),
                });
                if let Some(values) = logical(ctx, &mut out, tag(client, i), &ops, false, true) {
                    for (b, v) in bank_ops.iter().zip(&values) {
                        match b {
                            BankOp::Deposit(n) => out.credited += n,
                            BankOp::Withdraw(n) if *v == Value::ok() => out.debited += n,
                            BankOp::Withdraw(_) => {}
                        }
                    }
                }
            }
        }
    }
    out
}

fn wide_client(ctx: &Ctx<'_>, client: usize, script: &[[MapOp; 4]]) -> ClientOut {
    let mut out = ClientOut {
        lat_ns: Vec::with_capacity(script.len()),
        ..ClientOut::default()
    };
    for (i, txn) in script.iter().enumerate() {
        let ops = txn.map(|m| match m {
            MapOp::Get(k) => op("get", [k]),
            MapOp::Adjust(k, d) => op("adjust", [k, d]),
        });
        if logical(ctx, &mut out, tag(client, i), &ops, false, false).is_some() {
            for m in txn {
                if let MapOp::Adjust(_, d) = m {
                    out.credited += d;
                }
            }
        }
    }
    out
}
