//! Drives attack sessions step by step, with spans around the engine's
//! public calls and a metering oracle around the program's oracle.

use std::collections::BTreeMap;
use std::time::Instant;

use attacks::engine::{self, AttackCtl, StepStatus};
use attacks::{AttackOutcome, Oracle};
use locking::LockedCircuit;

use crate::report::{median, Report};
use crate::trace::{self, Layer};
use crate::Args;

/// Counts and times every query on its way to the wrapped oracle.
pub struct MeteredOracle<'a> {
    inner: &'a mut dyn Oracle,
    pub queries: usize,
}

impl Oracle for MeteredOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&mut self, input: &[bool]) -> Option<Vec<bool>> {
        let _g = trace::span("attacks.oracle_query");
        self.queries += 1;
        self.inner.query(input)
    }

    fn queries_attempted(&self) -> usize {
        self.queries
    }
}

/// One finished attack.
pub struct AttackRun {
    pub outcome: AttackOutcome,
    /// Engine start to final outcome (the recovered key, when there is one).
    pub elapsed_s: f64,
}

/// Runs engine `name` on `locked` through `oracle` and checks the query
/// ledger: the engine's count, the metering wrapper's count and the
/// oracle's own count must agree.
pub fn attack(
    name: &str,
    locked: &LockedCircuit,
    oracle: &mut dyn Oracle,
) -> Result<AttackRun, String> {
    let eng = engine::by_name(name).ok_or_else(|| format!("unknown engine {name}"))?;
    let before = oracle.queries_attempted();
    let mut metered = MeteredOracle {
        inner: oracle,
        queries: 0,
    };
    let mut ctl = AttackCtl::new();
    let t = Instant::now();
    let outcome = {
        let mut session = {
            let _g = trace::span("attacks.start");
            eng.start(locked, &mut metered)
        };
        loop {
            let status = {
                let _g = trace::span("attacks.step");
                session.step(&mut ctl)
            };
            match status {
                StepStatus::Running => {}
                StepStatus::Done => {
                    break session
                        .outcome()
                        .cloned()
                        .ok_or("Done without an outcome")?
                }
                StepStatus::Interrupted(why) => break session.interrupted_outcome(why),
            }
        }
    };
    let elapsed_s = t.elapsed().as_secs_f64();
    let own = metered.queries;
    let inner = metered.inner.queries_attempted() - before;
    if outcome.oracle_queries != own || own != inner || ctl.queries() as usize != own {
        return Err(format!(
            "{name}: query ledger {} (ctl {}) but the oracle saw {own} (own count {inner})",
            outcome.oracle_queries,
            ctl.queries()
        ));
    }
    Ok(AttackRun { outcome, elapsed_s })
}

/// Work summed over a round's attacks.
#[derive(Debug, Default, Clone, Copy)]
pub struct AttackTotals {
    pub dips: u64,
    pub queries: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub decisions: u64,
    pub inprocessings: u64,
    pub restarts: u64,
    pub learned_clauses: u64,
    pub learned_lits: u64,
}

impl AttackTotals {
    pub fn add(&mut self, o: &AttackOutcome) {
        let s = &o.telemetry.solver;
        self.dips += o.iterations as u64;
        self.queries += o.oracle_queries as u64;
        self.conflicts += s.conflicts;
        self.propagations += s.propagations;
        self.decisions += s.decisions;
        self.inprocessings += s.inprocessings;
        self.restarts += s.restarts;
        self.learned_clauses += s.learned_clauses;
        self.learned_lits += s.learned_literals_post;
    }

    /// The deterministic counts of one attack, for the work-count ledger.
    pub fn of(o: &AttackOutcome) -> Vec<u64> {
        let s = &o.telemetry.solver;
        vec![
            o.iterations as u64,
            o.oracle_queries as u64,
            s.conflicts,
            s.propagations,
            s.decisions,
        ]
    }
}

/// Sets the attack and SAT per-layer metrics from one round's totals and
/// the traced rounds' spans.
pub fn set_attack_layers(
    rep: &mut Report,
    totals: &AttackTotals,
    layers: &BTreeMap<&'static str, Layer>,
    traced_rounds: usize,
) {
    let per = traced_rounds.max(1) as f64;
    let ms = |span: &str| {
        layers
            .get(span)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / per)
    };
    rep.set("attacks.start_ms", ms("attacks.start"));
    rep.set("attacks.verify_ms", ms("attacks.verify"));
    let steps: Vec<f64> = layers
        .get("attacks.step")
        .map(|l| l.self_samples.iter().map(|&n| n as f64 / 1e6).collect())
        .unwrap_or_default();
    rep.set("attacks.step_p50_ms", median(&steps));
    rep.set(
        "attacks.step_max_ms",
        steps.iter().copied().fold(0.0, f64::max),
    );
    let q = layers.get("attacks.oracle_query");
    rep.set(
        "attacks.oracle_query_us",
        q.map_or(0.0, |l| l.total_ns as f64 / 1e3 / l.calls.max(1) as f64),
    );
    rep.set("attacks.dips", totals.dips as f64);
    rep.set("attacks.oracle_queries", totals.queries as f64);
    rep.set("sat.conflicts", totals.conflicts as f64);
    rep.set("sat.propagations", totals.propagations as f64);
    rep.set("sat.decisions", totals.decisions as f64);
    rep.set("sat.inprocessings", totals.inprocessings as f64);
    rep.set("sat.restarts", totals.restarts as f64);
    let step_s = layers
        .get("attacks.step")
        .map_or(0.0, |l| l.self_ns as f64 / 1e9 / per);
    rep.set(
        "sat.props_per_s",
        if step_s > 0.0 {
            totals.propagations as f64 / step_s
        } else {
            0.0
        },
    );
    rep.set(
        "sat.learnt_lits_per_clause",
        if totals.learned_clauses > 0 {
            totals.learned_lits as f64 / totals.learned_clauses as f64
        } else {
            0.0
        },
    );
}

/// Round times, split by whether the round was traced.
#[derive(Debug, Default)]
pub struct Rounds {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
}

impl Rounds {
    pub fn total(&self) -> usize {
        self.untraced_s.len() + self.traced_s.len()
    }
}

/// Runs whole rounds until `--seconds` have passed (at least one round).
/// A traced run alternates untraced and traced rounds, so the difference
/// of their medians is the tracing overhead; it runs at least two.
pub fn rounds(args: &Args, mut round: impl FnMut(usize)) -> Rounds {
    exec::global().reset_stats();
    let start = Instant::now();
    let mut out = Rounds::default();
    let min_rounds = if args.trace { 2 } else { 1 };
    for r in 0.. {
        let traced = args.trace && r % 2 == 1;
        trace::set_enabled(traced);
        let t = Instant::now();
        round(r);
        let secs = t.elapsed().as_secs_f64();
        eprintln!("perfbench: round {r} took {secs:.3} s");
        if traced {
            out.traced_s.push(secs);
        } else {
            out.untraced_s.push(secs);
        }
        if out.total() >= min_rounds && start.elapsed() >= args.run_for() {
            break;
        }
    }
    trace::set_enabled(false);
    out
}
