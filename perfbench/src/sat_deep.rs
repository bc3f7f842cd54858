//! `sat_deep`: the SAT engine against hard WLL-locked b19-profile
//! instances, each recovered key proved by the exact miter.
//!
//! Each instance has few DIPs and tens of thousands of conflicts, so CDCL
//! search is nearly all the time. Instance hardness swings by orders of
//! magnitude with the lock seed, so the instances are fixed (picked by
//! their conflict counts, see the README); the workload seed orders them
//! and draws the random patterns of the reference-interpreter check.

use attacks::CombOracle;
use locking::weighted::WllConfig;
use locking::LockedCircuit;
use netlist::generate::{self, BenchmarkId};
use netlist::rng::SplitMix64;
use netlist::Circuit;

use crate::checks::{key_matches, Golden};
use crate::drive::{self, AttackTotals};
use crate::report::{self, median, Report};
use crate::trace;
use crate::Args;

/// (profile scale, WLL lock seed) of each instance.
const INSTANCES: [(f64, u64); 2] = [(0.0035, 3), (0.0035, 27)];
const SMOKE_INSTANCES: [(f64, u64); 1] = [(0.001, 1)];

/// Key width at a scale, as the Table-2 harness sizes it for b19.
fn key_bits(scale: f64) -> usize {
    ((208.0 * scale.max(0.05)) as usize).clamp(12, 208)
}

struct Instance {
    name: String,
    design: Circuit,
    locked: LockedCircuit,
    oracle: CombOracle,
}

fn build(specs: &[(f64, u64)]) -> Result<Vec<Instance>, String> {
    specs
        .iter()
        .map(|&(scale, lock_seed)| {
            let design = {
                let _g = trace::span("netlist.synthesize");
                generate::synthesize(&generate::profile(BenchmarkId::B19).scaled(scale))
                    .map_err(|e| e.to_string())?
            };
            let locked = {
                let _g = trace::span("locking.lock");
                let cfg = WllConfig {
                    key_bits: key_bits(scale),
                    control_width: 5,
                    seed: lock_seed,
                };
                locking::weighted::lock(&design, &cfg).map_err(|e| e.to_string())?
            };
            let oracle = {
                let _g = trace::span("netlist.compile");
                CombOracle::from_locked(&locked).map_err(|e| e.to_string())?
            };
            Ok(Instance {
                name: format!("b19@{scale}/wll-seed{lock_seed}"),
                design,
                locked,
                oracle,
            })
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let specs: &[(f64, u64)] = if args.smoke {
        &SMOKE_INSTANCES
    } else {
        &INSTANCES
    };
    let (built, setup_s, setups) = report::timed_setup(5, 0.5, || build(specs));
    let mut spans = trace::take();
    let setup_layers = trace::summarize(&spans);
    let mut instances = match built {
        Ok(v) => v,
        Err(e) => {
            rep.attempted = 1;
            rep.fail(format!("set-up: {e}"));
            return rep;
        }
    };
    rep.set("setup_s", setup_s);
    rep.set_layer_ms(
        &setup_layers,
        &[
            ("netlist.synthesize_ms", "netlist.synthesize"),
            ("locking.lock_ms", "locking.lock"),
            ("netlist.compile_ms", "netlist.compile"),
        ],
        setups,
    );
    for inst in &instances {
        rep.input(
            &inst.name,
            format!(
                "{} gates, {} key bits, {} data inputs",
                inst.locked.circuit.num_gates(),
                inst.locked.key_bits(),
                inst.locked.circuit.comb_inputs().len() - inst.locked.key_bits()
            ),
        );
    }
    let mut order: Vec<usize> = (0..instances.len()).collect();
    let mut rng = SplitMix64::new(args.seed);
    rng.shuffle(&mut order);

    let mut op_s = vec![Vec::new(); instances.len()];
    let mut key_s_rounds = Vec::new();
    let mut verify_s_rounds = Vec::new();
    let mut totals = AttackTotals::default();
    let rounds = drive::rounds(args, |r| {
        let (mut key_s, mut verify_s) = (0.0, 0.0);
        totals = AttackTotals::default();
        for &i in &order {
            let inst = &mut instances[i];
            rep.attempted += 1;
            trace::set_op(rep.attempted);
            let run = match drive::attack("sat", &inst.locked, &mut inst.oracle) {
                Ok(run) => run,
                Err(e) => {
                    rep.fail(format!("{}: {e}", inst.name));
                    continue;
                }
            };
            let Some(key) = run.outcome.key.clone() else {
                rep.fail(format!("{}: no key ({:?})", inst.name, run.outcome.failure));
                continue;
            };
            let t = std::time::Instant::now();
            let exact = {
                let _g = trace::span("attacks.verify");
                attacks::verify::key_is_exactly_correct(&inst.locked, &key)
            };
            let v = t.elapsed().as_secs_f64();
            key_s += run.elapsed_s;
            verify_s += v;
            op_s[i].push(run.elapsed_s + v);
            totals.add(&run.outcome);
            rep.count(inst.name.clone(), AttackTotals::of(&run.outcome));
            if !exact {
                rep.fail(format!(
                    "{}: the exact miter rejects the recovered key",
                    inst.name
                ));
            }
            // Beside the program's miter: 4096 random patterns on the
            // reference interpreter against the unlocked design.
            let seed = args.seed ^ (r as u64) << 32 ^ i as u64;
            match key_matches(Golden::Original(&inst.design), &inst.locked, &key, 64, seed) {
                Ok(true) => {}
                Ok(false) => rep.fail(format!(
                    "{}: the reference interpreter rejects the key",
                    inst.name
                )),
                Err(e) => rep.fail(format!("{}: reference check: {e}", inst.name)),
            }
        }
        key_s_rounds.push(key_s);
        verify_s_rounds.push(verify_s);
    });
    let round_spans = trace::take();
    let layers = trace::summarize(&round_spans);
    rep.set("ops_per_s", report::ops_per_s(&op_s));
    rep.set("peak_rss_mb", report::peak_rss_mb(None).unwrap_or(0.0));
    rep.set("attacks.time_to_key_s", median(&key_s_rounds));
    rep.set("attacks.verify_s", median(&verify_s_rounds));
    drive::set_attack_layers(&mut rep, &totals, &layers, rounds.traced_s.len());
    rep.set_exec(rounds.total());
    trace::merge(&mut spans, round_spans);
    rep.spans = spans;
    rep.set_trace(&rounds.untraced_s, &rounds.traced_s);
    rep
}
