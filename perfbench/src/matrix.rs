//! `attack_matrix`: every engine against every scheme it applies to, each
//! through an open oracle, plus every engine against the OraP chip in
//! strict and naive oracle modes.
//!
//! Thousands of DIPs with millisecond solves: fixed per-DIP cost (I/O
//! constraint encoding, oracle simulation, incremental solving, engine
//! stepping) dominates. The targets are fixed (the circuit and lock seeds
//! of the E3 experiment): an attack's cost swings several-fold with the
//! circuit and lock seed, so seed-drawn targets would not repeat. The
//! seed orders the cells.

use attacks::dyn_unlock::ScanSessionOracle;
use attacks::{CombOracle, FailureReason, Oracle};
use locking::scan_obfuscation::{
    self, ScanObfConfig, ScanObfLocked, UnrollOptions, UnrolledSession,
};
use locking::LockedCircuit;
use netlist::rng::SplitMix64;
use netlist::Circuit;
use orap::chip::{OracleMode, ProtectedChip, ProtectedChipOracle};
use orap::{protect, OrapConfig, OrapProtected};

use crate::checks::{
    chip_unlock_and_clear, key_matches, recovered_matches, Golden, EXHAUSTIVE_INPUTS,
};
use crate::drive::{self, AttackTotals};
use crate::report::{self, median, Report};
use crate::trace;
use crate::Args;

/// The oracle-guided engines that run on combinational targets.
const COMB_ENGINES: [&str; 5] = [
    "sat",
    "appsat",
    "double_dip",
    "hill_climbing",
    "sensitization",
];
/// The lock seed of every target (as in the E3 experiment).
const LOCK_SEED: u64 = 1;
/// Engines whose success is exact: a key they return must be correct.
const EXACT_ENGINES: [&str; 3] = ["sat", "double_dip", "dyn_unlock"];

/// Target sizes: the combinational circuit, its key width, and the width
/// of the counter behind the scan-obfuscation and OraP targets.
struct Sizes {
    inputs: usize,
    outputs: usize,
    gates: usize,
    key_bits: usize,
    seq_bits: usize,
}

const FULL: Sizes = Sizes {
    inputs: 12,
    outputs: 8,
    gates: 350,
    key_bits: 12,
    seq_bits: 12,
};
const SMOKE: Sizes = Sizes {
    inputs: 8,
    outputs: 4,
    gates: 80,
    key_bits: 8,
    seq_bits: 6,
};

struct Targets {
    comb: Circuit,
    locks: Vec<(String, LockedCircuit)>,
    seq: Circuit,
    scanobf: ScanObfLocked,
    unrolled: UnrolledSession,
    protected: OrapProtected,
    chip: ProtectedChip,
}

fn build(sz: &Sizes) -> Result<Targets, String> {
    let err = |e: netlist::Error| e.to_string();
    let comb = {
        let _g = trace::span("netlist.synthesize");
        netlist::generate::random_comb(99, sz.inputs, sz.outputs, sz.gates).map_err(err)?
    };
    let k = sz.key_bits;
    let mut locks = Vec::new();
    {
        let _g = trace::span("locking.lock");
        use locking::{kgate, point_function as pf, random, sfll, weighted};
        locks.push((
            format!("rll-{k}"),
            random::lock(
                &comb,
                &random::RllConfig {
                    key_bits: k,
                    seed: LOCK_SEED,
                },
            )
            .map_err(err)?,
        ));
        locks.push((
            format!("wll-{k}"),
            weighted::lock(
                &comb,
                &weighted::WllConfig {
                    key_bits: k,
                    control_width: 3,
                    seed: LOCK_SEED,
                },
            )
            .map_err(err)?,
        ));
        locks.push((
            format!("sarlock-{}", k - 4),
            pf::sarlock(
                &comb,
                &pf::SarLockConfig {
                    key_bits: k - 4,
                    seed: LOCK_SEED,
                },
            )
            .map_err(err)?,
        ));
        locks.push((
            format!("antisat-{k}"),
            pf::anti_sat(
                &comb,
                &pf::AntiSatConfig {
                    block_width: k / 2,
                    seed: LOCK_SEED,
                },
            )
            .map_err(err)?,
        ));
        locks.push((
            format!("sfll-{}-h1", k - 4),
            sfll::sfll_hd(
                &comb,
                &sfll::SfllConfig {
                    key_bits: k - 4,
                    hamming_distance: 1,
                    seed: LOCK_SEED,
                },
            )
            .map_err(err)?,
        ));
        locks.push((
            format!("kgate-{k}"),
            kgate::lock(
                &comb,
                &kgate::KGateConfig {
                    classes: 4,
                    word_bits: k / 4,
                    seed: LOCK_SEED,
                },
            )
            .map_err(err)?,
        ));
    }
    let seq = netlist::samples::counter(sz.seq_bits);
    let (scanobf, unrolled) = {
        let _g = trace::span("locking.lock");
        let s = scan_obfuscation::lock(&seq, &ScanObfConfig::balanced(sz.seq_bits, LOCK_SEED))
            .map_err(err)?;
        let u = s.unroll(&UnrollOptions::default()).map_err(err)?;
        (s, u)
    };
    let protected = {
        let _g = trace::span("core.protect");
        let wll = locking::weighted::WllConfig {
            key_bits: k,
            control_width: 3,
            seed: LOCK_SEED,
        };
        protect(&seq, &wll, &OrapConfig::default()).map_err(|e| e.to_string())?
    };
    let chip = ProtectedChip::new(&protected).map_err(err)?;
    Ok(Targets {
        comb,
        locks,
        seq,
        scanobf,
        unrolled,
        protected,
        chip,
    })
}

/// One matrix cell's target and oracle.
enum Cell<'a> {
    Open(&'a LockedCircuit),
    Sps {
        name: &'a str,
        locked: &'a LockedCircuit,
    },
    Scan,
    Orap(OracleMode),
}

struct CellResult {
    elapsed_s: f64,
    counts: Vec<u64>,
}

fn run_cell(
    t: &Targets,
    cell: &Cell<'_>,
    engine: &str,
    seed: u64,
    totals: &mut AttackTotals,
) -> Result<CellResult, String> {
    // An attack's time runs from building its oracle to its outcome.
    let started = std::time::Instant::now();
    let (locked, golden, mut oracle): (&LockedCircuit, Golden<'_>, Box<dyn Oracle>) = match cell {
        Cell::Sps { name, locked } => {
            let out = attacks::sps::attack(locked, &attacks::sps::SpsConfig::default())
                .map_err(|e| e.to_string())?;
            let elapsed_s = started.elapsed().as_secs_f64();
            let (claimed, exact) = match &out.recovered {
                Some(rec) => {
                    let claimed = attacks::sps::recovery_is_correct(locked, rec, 4096)
                        .map_err(|e| e.to_string())?;
                    (claimed, recovered_matches(&t.comb, rec, 64, seed)?)
                }
                None => (false, false),
            };
            if claimed && !exact {
                return Err(format!(
                    "sps on {name}: claimed removal fails the reference check"
                ));
            }
            return Ok(CellResult {
                elapsed_s,
                counts: vec![
                    u64::from(out.recovered.is_some()),
                    u64::from(claimed),
                    u64::from(exact),
                ],
            });
        }
        Cell::Open(locked) => {
            let oracle = {
                let _g = trace::span("netlist.compile");
                CombOracle::from_locked(locked).map_err(|e| e.to_string())?
            };
            (*locked, Golden::Original(&t.comb), Box::new(oracle))
        }
        Cell::Scan => {
            let oracle = {
                let _g = trace::span("netlist.compile");
                ScanSessionOracle::new(&t.scanobf, &t.unrolled).map_err(|e| e.to_string())?
            };
            (&t.unrolled.locked, Golden::CorrectKey, Box::new(oracle))
        }
        Cell::Orap(mode) => (
            &t.protected.locked,
            Golden::Original(&t.seq),
            Box::new(ProtectedChipOracle::new(t.chip.clone(), *mode)),
        ),
    };
    let run = drive::attack(engine, locked, oracle.as_mut())?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let o = &run.outcome;
    totals.add(o);
    // Reference patterns are exhaustive up to EXHAUSTIVE_INPUTS data
    // inputs; beyond that the program's exact miter runs beside them.
    let exact = match &o.key {
        Some(key) => {
            key_matches(golden, locked, key, 64, seed).map_err(|e| format!("{engine}: {e}"))?
                && (locked.circuit.comb_inputs().len() - locked.key_bits() <= EXHAUSTIVE_INPUTS
                    || {
                        let _g = trace::span("attacks.verify");
                        attacks::verify::key_is_exactly_correct(locked, key)
                    })
        }
        None => false,
    };
    let strict = matches!(cell, Cell::Orap(OracleMode::Strict));
    if strict && (o.key.is_some() || o.failure != Some(FailureReason::OracleUnavailable)) {
        return Err(format!(
            "{engine} vs OraP-strict ended {:?} with key {}",
            o.failure,
            o.key.is_some()
        ));
    }
    let open = matches!(cell, Cell::Open(_) | Cell::Scan);
    if open && EXACT_ENGINES.contains(&engine) && !exact {
        return Err(format!(
            "{engine} returned no exactly correct key ({:?})",
            o.failure
        ));
    }
    let mut counts = AttackTotals::of(o);
    counts.push(u64::from(o.key.is_some()));
    counts.push(u64::from(exact));
    Ok(CellResult { elapsed_s, counts })
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let sz = if args.smoke { &SMOKE } else { &FULL };
    let (built, setup_s, setups) = report::timed_setup(5, 0.5, || build(sz));
    let mut spans = trace::take();
    let setup_layers = trace::summarize(&spans);
    let t = match built {
        Ok(t) => t,
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
            ("core.protect_ms", "core.protect"),
        ],
        setups,
    );
    if let Err(e) = chip_unlock_and_clear(&mut t.chip.clone()) {
        rep.fail(format!("OraP chip: {e}"));
    }
    rep.input(
        "circuit",
        format!(
            "random_comb {}x{} {} gates",
            sz.inputs, sz.outputs, sz.gates
        ),
    );
    let mut cells: Vec<(String, Cell<'_>, &str)> = Vec::new();
    for (name, locked) in &t.locks {
        rep.input(name, format!("{} key bits", locked.key_bits()));
        for e in COMB_ENGINES {
            cells.push((format!("{e}/{name}"), Cell::Open(locked), e));
        }
        cells.push((format!("sps/{name}"), Cell::Sps { name, locked }, "sps"));
    }
    for e in ["dyn_unlock", "sat"] {
        cells.push((format!("{e}/scanobf-{}", sz.seq_bits), Cell::Scan, e));
    }
    for (mode, tag) in [(OracleMode::Strict, "strict"), (OracleMode::Naive, "naive")] {
        for e in COMB_ENGINES {
            cells.push((format!("{e}/orap-{tag}"), Cell::Orap(mode), e));
        }
    }
    rep.input("cells", cells.len());
    let mut order: Vec<usize> = (0..cells.len()).collect();
    SplitMix64::new(args.seed).shuffle(&mut order);

    let mut cell_s = vec![Vec::new(); cells.len()];
    let mut totals = AttackTotals::default();
    let rounds = drive::rounds(args, |_| {
        totals = AttackTotals::default();
        for &i in &order {
            let (name, cell, engine) = &cells[i];
            rep.attempted += 1;
            trace::set_op(rep.attempted);
            match run_cell(&t, cell, engine, args.seed ^ i as u64, &mut totals) {
                Ok(res) => {
                    cell_s[i].push(res.elapsed_s);
                    rep.count(name.replace('/', ":"), res.counts);
                }
                Err(e) => rep.fail(format!("{name}: {e}")),
            }
        }
    });
    let round_spans = trace::take();
    let layers = trace::summarize(&round_spans);
    for (i, (name, _, _)) in cells.iter().enumerate() {
        eprintln!("perfbench: {name:<28} {:>9.3} ms", median(&cell_s[i]) * 1e3);
    }
    rep.set("ops_per_s", report::ops_per_s(&cell_s));
    rep.set("peak_rss_mb", report::peak_rss_mb(None).unwrap_or(0.0));
    let traced = rounds.traced_s.len().max(1);
    rep.set(
        "attacks.time_to_key_s",
        cell_s.iter().map(|t| median(t)).sum(),
    );
    rep.set_layer_ms(
        &layers,
        &[("netlist.compile_ms", "netlist.compile")],
        traced,
    );
    drive::set_attack_layers(&mut rep, &totals, &layers, rounds.traced_s.len());
    rep.set_exec(rounds.total());
    trace::merge(&mut spans, round_spans);
    rep.spans = spans;
    rep.set_trace(&rounds.untraced_s, &rounds.traced_s);
    rep
}
