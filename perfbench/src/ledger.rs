//! Deterministic work counts kept across runs.
//!
//! Every operation records counts that depend only on the code and the
//! inputs (DIPs, oracle queries, SAT conflicts and propagations, cache
//! builds, ATPG classes). The first run of a (workload, seed, source)
//! triple writes them down; each later run compares the operations both
//! runs did. A differing count means the program's behaviour changed, not
//! the host's speed, and is reported as a failed operation.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::report::{out_dir, source_id};
use crate::Args;

fn path(args: &Args) -> PathBuf {
    out_dir().join(format!(
        "counts-{}-seed{}{}-{}.txt",
        args.workload,
        args.seed,
        if args.smoke { "-smoke" } else { "" },
        source_id()
    ))
}

fn load(path: &std::path::Path) -> BTreeMap<String, Vec<u64>> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeMap::new();
    };
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let key = parts.next()?.to_string();
            let vals: Option<Vec<u64>> = parts.map(|p| p.parse().ok()).collect();
            Some((key, vals?))
        })
        .collect()
}

/// Compares this run's counts with the recorded ones and records the
/// union. Returns the keys whose counts differ.
pub fn reconcile(args: &Args, counts: &BTreeMap<String, Vec<u64>>) -> std::io::Result<Vec<String>> {
    let path = path(args);
    let mut known = load(&path);
    let mut mismatched = Vec::new();
    for (key, vals) in counts {
        match known.get(key) {
            Some(prev) if prev != vals => mismatched.push(key.clone()),
            Some(_) => {}
            None => {
                known.insert(key.clone(), vals.clone());
            }
        }
    }
    std::fs::create_dir_all(out_dir())?;
    let mut text = String::new();
    for (key, vals) in &known {
        text.push_str(key);
        for v in vals {
            text.push(' ');
            text.push_str(&v.to_string());
        }
        text.push('\n');
    }
    std::fs::write(&path, text)?;
    Ok(mismatched)
}
