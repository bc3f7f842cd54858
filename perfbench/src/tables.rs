//! `orap_tables`: the design-side path, with no attack. For each profile
//! circuit: OraP `protect`, the Table I corruption (HD) measurement and
//! resynthesis area, and Table II ATPG on the original and the protected
//! netlist. PODEM aborts dominate. The locks, HD keys and ATPG patterns
//! use the Table I/II seeds: ATPG time on the protected netlist moved
//! 1.6x between seed-drawn locks. The seed orders the circuits and draws
//! the detections that fault injection reproduces.

use std::time::Instant;

use atpg::{AtpgConfig, AtpgReport, Fault, FaultSim};
use locking::weighted::WllConfig;
use netlist::generate::{self, BenchmarkId};
use netlist::rng::SplitMix64;
use netlist::Circuit;
use orap::chip::ProtectedChip;
use orap::{protect, OrapConfig};

use crate::checks::{chip_unlock_and_clear, fault_detected};
use crate::drive;
use crate::report::{self, Report};
use crate::trace;
use crate::Args;

const CIRCUITS: [BenchmarkId; 2] = [BenchmarkId::S38417, BenchmarkId::S38584];
const SCALE: f64 = 0.02;
const SMOKE_SCALE: f64 = 0.004;
/// HD measurement size: random wrong keys × patterns per key.
const HD_KEYS: usize = 5;
const HD_PATTERNS: usize = 4096;
/// Claimed detections per netlist reproduced by serial fault injection.
const FAULT_SAMPLE: usize = 8;

/// Key width per benchmark from Table I, scaled with the circuit.
fn key_bits(id: BenchmarkId, scale: f64) -> usize {
    use BenchmarkId::*;
    let full: usize = match id {
        S38417 | B17 => 256,
        S38584 => 186,
        B18 => 97,
        B19 => 208,
        B20 => 236,
        B21 => 229,
        B22 => 243,
    };
    ((full as f64 * scale.max(0.05)) as usize).clamp(12, full)
}

fn control_width(id: BenchmarkId) -> usize {
    if matches!(id, BenchmarkId::B18 | BenchmarkId::B19) {
        5
    } else {
        3
    }
}

/// The test set ATPG applied: its random-phase words, regenerated from
/// the configured seed as the flow draws them, then each PODEM test.
fn applied_tests(c: &Circuit, cfg: &AtpgConfig, report: &AtpgReport) -> Vec<Vec<u64>> {
    let n = c.comb_inputs().len();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut tests: Vec<Vec<u64>> = (0..cfg.random_patterns.div_ceil(64))
        .map(|_| (0..n).map(|_| rng.next_u64()).collect())
        .collect();
    tests.extend(
        report
            .tests
            .iter()
            .map(|t| t.iter().map(|&b| if b { !0 } else { 0 }).collect()),
    );
    tests
}

/// ATPG checks: the outcome classes partition the collapsed fault list;
/// the faults the applied tests detect lie between `detected` and
/// `detected + aborted` (redundant faults have no test); and a sample of
/// those detections is reproduced by serial fault injection on the
/// reference interpreter.
fn check_atpg(c: &Circuit, cfg: &AtpgConfig, r: &AtpgReport, seed: u64) -> Result<(), String> {
    let faults = atpg::collapse(c, atpg::enumerate_faults(c));
    if r.detected + r.redundant + r.aborted != faults.len() {
        return Err(format!(
            "{} detected + {} redundant + {} aborted != {} collapsed faults",
            r.detected,
            r.redundant,
            r.aborted,
            faults.len()
        ));
    }
    let tests = applied_tests(c, cfg, r);
    let sim = FaultSim::new(c).map_err(|e| e.to_string())?;
    let mut alive: Vec<Fault> = faults;
    let mut hit: Vec<Fault> = Vec::new();
    for words in &tests {
        let det: std::collections::HashSet<usize> = sim
            .detect_batch_par(exec::global(), words, &alive)
            .into_iter()
            .collect();
        let mut keep = Vec::with_capacity(alive.len());
        for (i, f) in alive.into_iter().enumerate() {
            if det.contains(&i) {
                hit.push(f);
            } else {
                keep.push(f);
            }
        }
        alive = keep;
    }
    if hit.len() < r.detected || hit.len() > r.detected + r.aborted {
        return Err(format!(
            "the applied tests detect {} faults; ATPG claimed {} detected, {} aborted",
            hit.len(),
            r.detected,
            r.aborted
        ));
    }
    let mut rng = SplitMix64::new(seed);
    for idx in rng.sample_indices(hit.len(), FAULT_SAMPLE.min(hit.len())) {
        if !fault_detected(c, &hit[idx], &tests)? {
            return Err(format!(
                "claimed detection of {} not reproduced by fault injection",
                hit[idx]
            ));
        }
    }
    Ok(())
}

/// A profile circuit and its resynthesized area, the Table I baseline
/// every protected variant is compared with.
struct Design {
    id: BenchmarkId,
    circuit: Circuit,
    base: aigsynth::OptReport,
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (ids, scale): (&[BenchmarkId], f64) = if args.smoke {
        (&CIRCUITS[..1], SMOKE_SCALE)
    } else {
        (&CIRCUITS, SCALE)
    };
    let build = || -> Result<Vec<Design>, String> {
        ids.iter()
            .map(|&id| {
                let circuit = {
                    let _g = trace::span("netlist.synthesize");
                    generate::synthesize(&generate::profile(id).scaled(scale))
                        .map_err(|e| e.to_string())?
                };
                let base = {
                    let _g = trace::span("synth.optimize");
                    aigsynth::optimize(&circuit).map_err(|e| e.to_string())?
                };
                Ok(Design { id, circuit, base })
            })
            .collect()
    };
    let (built, setup_s, setups) = report::timed_setup(5, 0.5, build);
    let mut spans = trace::take();
    let setup_layers = trace::summarize(&spans);
    let designs = match built {
        Ok(d) => d,
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
            ("synth.optimize_ms", "synth.optimize"),
        ],
        setups,
    );
    for d in &designs {
        rep.input(
            d.id.as_str(),
            format!(
                "scale {scale}, {} gates, {} key bits",
                d.circuit.num_gates(),
                key_bits(d.id, scale)
            ),
        );
    }
    let atpg_cfg = AtpgConfig::default();
    let mut order: Vec<usize> = (0..designs.len()).collect();
    SplitMix64::new(args.seed).shuffle(&mut order);

    let mut op_s = vec![Vec::new(); designs.len()];
    let mut atpg_counts = [0u64; 3];
    let rounds = drive::rounds(args, |_| {
        atpg_counts = [0; 3];
        for &i in &order {
            let d = &designs[i];
            rep.attempted += 1;
            trace::set_op(rep.attempted);
            let name = d.id.as_str();
            match evaluate(d, scale, &atpg_cfg) {
                Ok(ev) => {
                    op_s[i].push(ev.elapsed_s);
                    for (i, r) in [&ev.original, &ev.protected].iter().enumerate() {
                        atpg_counts[0] += r.detected as u64;
                        atpg_counts[1] += r.redundant as u64;
                        atpg_counts[2] += r.aborted as u64;
                        let net = if i == 0 {
                            &d.circuit
                        } else {
                            &ev.protected_circuit
                        };
                        if let Err(e) = check_atpg(net, &atpg_cfg, r, args.seed ^ i as u64) {
                            rep.fail(format!("{name}: ATPG: {e}"));
                        }
                    }
                    if let Err(e) = ev.chip_check {
                        rep.fail(format!("{name}: OraP chip: {e}"));
                    }
                    rep.count(name.to_string(), ev.counts);
                }
                Err(e) => rep.fail(format!("{name}: {e}")),
            }
        }
    });
    let round_spans = trace::take();
    let layers = trace::summarize(&round_spans);
    rep.set("ops_per_s", report::ops_per_s(&op_s));
    rep.set("peak_rss_mb", report::peak_rss_mb(None).unwrap_or(0.0));
    let traced = rounds.traced_s.len();
    rep.set_layer_ms(
        &layers,
        &[
            ("core.protect_ms", "core.protect"),
            ("sim.hd_ms", "sim.hd"),
            ("synth.optimize_ms", "synth.optimize"),
            ("atpg.run_ms", "atpg.run"),
        ],
        traced,
    );
    rep.set("atpg.detected", atpg_counts[0] as f64);
    rep.set("atpg.redundant", atpg_counts[1] as f64);
    rep.set("atpg.aborted", atpg_counts[2] as f64);
    rep.set_exec(rounds.total());
    trace::merge(&mut spans, round_spans);
    rep.spans = spans;
    rep.set_trace(&rounds.untraced_s, &rounds.traced_s);
    rep
}

struct Evaluation {
    elapsed_s: f64,
    original: AtpgReport,
    protected: AtpgReport,
    protected_circuit: Circuit,
    chip_check: Result<(), String>,
    counts: Vec<u64>,
}

/// Both tables for one circuit. Only the program's calls are timed.
fn evaluate(d: &Design, scale: f64, atpg_cfg: &AtpgConfig) -> Result<Evaluation, String> {
    let err = |e: netlist::Error| e.to_string();
    let started = Instant::now();
    let protected = {
        let _g = trace::span("core.protect");
        let wll = WllConfig {
            key_bits: key_bits(d.id, scale),
            control_width: control_width(d.id),
            seed: 0x7AB1E ^ d.id as u64,
        };
        protect(&d.circuit, &wll, &OrapConfig::default()).map_err(|e| e.to_string())?
    };
    let locked = &protected.locked;
    let hd = {
        let _g = trace::span("sim.hd");
        gatesim::hd::average_hd_random_keys(
            &locked.circuit,
            &locked.key_inputs,
            &locked.correct_key,
            HD_KEYS,
            HD_PATTERNS,
            0x4D ^ d.id as u64,
        )
        .map_err(err)?
    };
    let prot = {
        let _g = trace::span("synth.optimize");
        aigsynth::optimize(&locked.circuit).map_err(err)?
    };
    let (original, prot_atpg) = {
        let _g = trace::span("atpg.run");
        (
            atpg::run_atpg(&d.circuit, atpg_cfg).map_err(err)?,
            atpg::run_atpg(&locked.circuit, atpg_cfg).map_err(err)?,
        )
    };
    let elapsed_s = started.elapsed().as_secs_f64();
    let chip_check = ProtectedChip::new(&protected)
        .map_err(err)
        .and_then(|mut chip| chip_unlock_and_clear(&mut chip));
    let counts = vec![
        hd.to_bits(),
        d.base.area as u64,
        prot.area as u64,
        prot.depth as u64,
        original.detected as u64,
        original.redundant as u64,
        original.aborted as u64,
        prot_atpg.detected as u64,
        prot_atpg.redundant as u64,
        prot_atpg.aborted as u64,
    ];
    Ok(Evaluation {
        elapsed_s,
        original,
        protected: prot_atpg,
        protected_circuit: locked.circuit.clone(),
        chip_check,
        counts,
    })
}
