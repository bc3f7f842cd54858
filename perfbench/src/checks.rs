//! Correctness checks made apart from the program under test.
//!
//! Keys are checked on `conformance::reference`, the memoized-DFS
//! interpreter written from the circuit IR alone: exhaustively when the
//! data inputs are few, on random patterns otherwise. ATPG detections are
//! reproduced by serial fault injection on the same interpreter. Checks
//! that only the program could answer (exact miters) are marked where used.

use conformance::reference;
use locking::LockedCircuit;
use netlist::rng::SplitMix64;
use netlist::{Circuit, Gate, GateKind, NetId};

/// Data inputs up to which key checks enumerate every input pattern.
pub const EXHAUSTIVE_INPUTS: usize = 16;

/// What a candidate key is compared with.
#[derive(Clone, Copy)]
pub enum Golden<'a> {
    /// The circuit before locking (inputs matched by name).
    Original(&'a Circuit),
    /// The locked circuit under its correct key.
    CorrectKey,
}

/// Input patterns, 64 per word: all `2^n` assignments when `n` is at most
/// [`EXHAUSTIVE_INPUTS`], else `random_words` pseudorandom words. Each
/// entry is (one word per input, mask of valid lanes).
pub fn patterns(n: usize, random_words: usize, seed: u64) -> Vec<(Vec<u64>, u64)> {
    if n <= EXHAUSTIVE_INPUTS {
        let total: u64 = 1 << n;
        (0..total.div_ceil(64))
            .map(|w| {
                let lanes = (total - w * 64).min(64);
                let mask = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
                let words = (0..n)
                    .map(|i| (0..lanes).fold(0u64, |acc, b| acc | ((((w * 64 + b) >> i) & 1) << b)))
                    .collect();
                (words, mask)
            })
            .collect()
    } else {
        let mut rng = SplitMix64::new(seed);
        (0..random_words)
            .map(|_| ((0..n).map(|_| rng.next_u64()).collect(), !0))
            .collect()
    }
}

/// Whether `locked` under `key` computes the golden function on every
/// pattern of [`patterns`].
///
/// # Errors
///
/// Describes an interface mismatch.
pub fn key_matches(
    golden: Golden<'_>,
    locked: &LockedCircuit,
    key: &[bool],
    random_words: usize,
    seed: u64,
) -> Result<bool, String> {
    if key.len() != locked.key_inputs.len() {
        return Err(format!(
            "key has {} bits, lock has {}",
            key.len(),
            locked.key_inputs.len()
        ));
    }
    let lk = &locked.circuit;
    let lk_inputs = lk.comb_inputs();
    let key_of = |net: NetId, k: &[bool]| {
        locked
            .key_inputs
            .iter()
            .position(|&n| n == net)
            .map(|i| k[i])
    };
    let data: Vec<NetId> = lk_inputs
        .iter()
        .copied()
        .filter(|&n| key_of(n, key).is_none())
        .collect();
    // For an original circuit, each of its inputs is found among the
    // locked circuit's data inputs by name.
    let orig_map: Option<Vec<usize>> = match golden {
        Golden::Original(c) => {
            let ins = c.comb_inputs();
            if ins.len() != data.len() {
                return Err(format!(
                    "original has {} inputs, lock has {} data inputs",
                    ins.len(),
                    data.len()
                ));
            }
            let mut map = Vec::with_capacity(ins.len());
            for n in ins {
                let name = c.net(n).name();
                let pos = data
                    .iter()
                    .position(|&d| lk.net(d).name() == name)
                    .ok_or_else(|| format!("input {name} missing from the locked circuit"))?;
                map.push(pos);
            }
            Some(map)
        }
        Golden::CorrectKey => None,
    };
    let lock_words = |data_words: &[u64], k: &[bool]| -> Vec<u64> {
        let mut d = data_words.iter();
        lk_inputs
            .iter()
            .map(|&n| match key_of(n, k) {
                Some(b) => {
                    if b {
                        !0
                    } else {
                        0
                    }
                }
                None => *d.next().expect("one word per data input"),
            })
            .collect()
    };
    for (words, mask) in &patterns(data.len(), random_words, seed) {
        let got = reference::eval_outputs(lk, &lock_words(words, key));
        let want = match (golden, &orig_map) {
            (Golden::Original(c), Some(map)) => {
                let ow: Vec<u64> = map.iter().map(|&p| words[p]).collect();
                reference::eval_outputs(c, &ow)
            }
            _ => reference::eval_outputs(lk, &lock_words(words, &locked.correct_key)),
        };
        if got.len() != want.len() {
            return Err(format!(
                "{} outputs against {} golden outputs",
                got.len(),
                want.len()
            ));
        }
        if got.iter().zip(&want).any(|(g, w)| (g ^ w) & mask != 0) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The circuit with `fault` injected as a constant, plus the position of
/// a faulty combinational input (whose word must be forced instead).
fn inject(c: &Circuit, fault: &atpg::Fault) -> Result<(Circuit, Option<usize>), String> {
    let kind = if fault.stuck_at {
        GateKind::Const1
    } else {
        GateKind::Const0
    };
    let konst = Gate::new(kind, vec![]).map_err(|e| e.to_string())?;
    let mut f = c.clone();
    match fault.site {
        atpg::FaultSite::Stem(net) => {
            if let Some(pos) = c.comb_inputs().iter().position(|&n| n == net) {
                return Ok((f, Some(pos)));
            }
            f.set_driver(net, konst).map_err(|e| e.to_string())?;
        }
        atpg::FaultSite::Pin { gate_out, pin } => {
            let g = c
                .gate(gate_out)
                .ok_or("pin fault on an undriven net")?
                .clone();
            let k = f
                .add_gate(kind, vec![], "__perfbench_fault")
                .map_err(|e| e.to_string())?;
            let mut fanin = g.fanin.clone();
            fanin[pin] = k;
            let gate = Gate::new(g.kind, fanin).map_err(|e| e.to_string())?;
            f.set_driver(gate_out, gate).map_err(|e| e.to_string())?;
        }
    }
    Ok((f, None))
}

/// Serial fault injection on the reference interpreter: does any of the
/// test words (one word per combinational input) expose `fault` at an
/// output?
pub fn fault_detected(
    c: &Circuit,
    fault: &atpg::Fault,
    tests: &[Vec<u64>],
) -> Result<bool, String> {
    let (faulty, forced) = inject(c, fault)?;
    for words in tests {
        let good = reference::eval_outputs(c, words);
        let mut fw = words.clone();
        if let Some(pos) = forced {
            fw[pos] = if fault.stuck_at { !0 } else { 0 };
        }
        let bad = reference::eval_outputs(&faulty, &fw);
        if good.iter().zip(&bad).any(|(g, b)| g != b) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Whether a netlist recovered by removal computes the original function,
/// with its leftover key inputs held at 0 (a correct removal makes them
/// don't-cares). Inputs are matched by name; outputs by position.
///
/// # Errors
///
/// Describes an interface mismatch.
pub fn recovered_matches(
    original: &Circuit,
    recovered: &Circuit,
    random_words: usize,
    seed: u64,
) -> Result<bool, String> {
    let ins = original.comb_inputs();
    let map: Vec<Option<usize>> = recovered
        .comb_inputs()
        .iter()
        .map(|&n| {
            ins.iter()
                .position(|&o| original.net(o).name() == recovered.net(n).name())
        })
        .collect();
    for (words, mask) in patterns(ins.len(), random_words, seed) {
        let rw: Vec<u64> = map.iter().map(|p| p.map_or(0, |p| words[p])).collect();
        let got = reference::eval_outputs(recovered, &rw);
        let want = reference::eval_outputs(original, &words);
        if got.len() != want.len() {
            return Err(format!(
                "{} outputs against {} original outputs",
                got.len(),
                want.len()
            ));
        }
        if got.iter().zip(&want).any(|(g, w)| (g ^ w) & mask != 0) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The OraP unlock protocol on the chip model: power-on must load the
/// correct key, and the first clock after a 0→1 `scan_enable` edge must
/// clear every key-register bit.
///
/// # Errors
///
/// Names the step that broke.
pub fn chip_unlock_and_clear(chip: &mut orap::chip::ProtectedChip) -> Result<(), String> {
    chip.power_on_and_unlock();
    if chip.key_register_state() != chip.design().locked.correct_key {
        return Err("power-on unlock did not load the correct key".into());
    }
    let pis = vec![false; chip.num_primary_inputs()];
    let scan_in = vec![false; chip.num_scan_chains()];
    chip.set_scan_enable(false);
    chip.clock(&pis, &scan_in);
    if chip.key_register_state() != chip.design().locked.correct_key {
        return Err("a functional clock changed the unlocked key".into());
    }
    // Zero the state flip-flops so the shift that follows the clear cannot
    // carry state bits into the key cells: a set bit afterwards must be a
    // key bit that escaped the clear.
    chip.set_state_ffs(&vec![false; chip.num_state_ffs()]);
    chip.set_scan_enable(true);
    chip.clock(&pis, &scan_in);
    chip.set_scan_enable(false);
    if chip.key_register_state().iter().any(|&b| b) {
        return Err("a 0->1 scan_enable edge left key bits set".into());
    }
    Ok(())
}
