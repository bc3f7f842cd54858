//! The run report: metrics, operation counts, provenance and artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::trace::{self, Layer, Span};
use crate::Args;

/// End-to-end metrics, in `BENCHMARK.json` order: (name, unit).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: (name, unit). A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("netlist.synthesize_ms", "ms"),
    ("locking.lock_ms", "ms"),
    ("netlist.compile_ms", "ms"),
    ("core.protect_ms", "ms"),
    ("attacks.start_ms", "ms"),
    ("attacks.step_p50_ms", "ms"),
    ("attacks.step_max_ms", "ms"),
    ("attacks.oracle_query_us", "us"),
    ("attacks.dips", "count"),
    ("attacks.oracle_queries", "count"),
    ("attacks.verify_ms", "ms"),
    ("attacks.time_to_key_s", "s"),
    ("attacks.verify_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.learnt_lits_per_clause", "lits/clause"),
    ("sat.inprocessings", "count"),
    ("sat.restarts", "count"),
    ("sim.hd_ms", "ms"),
    ("synth.optimize_ms", "ms"),
    ("atpg.run_ms", "ms"),
    ("atpg.detected", "count"),
    ("atpg.redundant", "count"),
    ("atpg.aborted", "count"),
    ("exec.busy_frac", "frac"),
    ("exec.stolen", "count"),
    ("serve.lock_ms", "ms"),
    ("serve.attack_ms", "ms"),
    ("serve.verify_ms", "ms"),
    ("serve.session_p50_ms", "ms"),
    ("serve.session_p99_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.busy_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_builds", "count"),
    ("serve.cache_build_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Everything one run found out.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic work counts per operation key (`ledger.rs`).
    pub counts: BTreeMap<String, Vec<u64>>,
    pub spans: Vec<Span>,
    /// Free-form facts about the inputs, recorded in the artifact.
    pub inputs: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: FAILED {why}");
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records one operation's work counts; a differing repeat of the same
    /// operation within the run is a failure.
    pub fn count(&mut self, key: String, counts: Vec<u64>) {
        if let Some(prev) = self.counts.get(&key) {
            if *prev != counts {
                let msg = format!(
                    "work counts of {key} changed within the run: {prev:?} then {counts:?}"
                );
                self.fail(msg);
            }
            return;
        }
        self.counts.insert(key, counts);
    }

    pub fn input(&mut self, key: &str, value: impl std::fmt::Display) {
        self.inputs.push((key.to_string(), value.to_string()));
    }

    /// Sets the per-layer metrics that are self time per unit of a span
    /// name, e.g. per round or per set-up.
    pub fn set_layer_ms(
        &mut self,
        layers: &BTreeMap<&'static str, Layer>,
        pairs: &[(&'static str, &'static str)],
        units: usize,
    ) {
        for &(metric, span) in pairs {
            let ns = layers.get(span).map_or(0, |l| l.self_ns);
            *self.metrics.entry(metric).or_insert(0.0) += ns as f64 / 1e6 / units.max(1) as f64;
        }
    }

    /// Sets the exec pool metrics from the global pool's counters.
    pub fn set_exec(&mut self, rounds: usize) {
        let stats = exec::global().stats();
        let wall: u64 = stats.stages.iter().map(|s| s.wall_ns).sum();
        let busy: u64 = stats.stages.iter().map(|s| s.busy_ns).sum();
        let stolen: u64 = stats.stages.iter().map(|s| s.stolen).sum();
        let frac = if wall == 0 {
            0.0
        } else {
            busy as f64 / (wall as f64 * stats.threads as f64)
        };
        self.set("exec.busy_frac", frac);
        self.set("exec.stolen", stolen as f64 / rounds.max(1) as f64);
    }

    /// Sets the tracing metrics: span count and the recorder's cost.
    pub fn set_trace(&mut self, untraced_s: &[f64], traced_s: &[f64]) {
        let (u, t) = (median(untraced_s), median(traced_s));
        self.set(
            "trace.overhead_pct",
            if u > 0.0 { 100.0 * (t - u) / u } else { 0.0 },
        );
        self.set("trace.spans", self.spans.len() as f64);
    }
}

/// Operations per second of a round built from each operation's median
/// time over the rounds: a burst of host load that slows one operation in
/// one round does not move the figure. `per_op[i]` holds operation `i`'s
/// time in each measured round.
pub fn ops_per_s(per_op: &[Vec<f64>]) -> f64 {
    let round_s: f64 = per_op.iter().map(|t| median(t)).sum();
    if round_s > 0.0 {
        per_op.len() as f64 / round_s
    } else {
        0.0
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Runs `f` repeatedly — at least `min_reps` times and for at least
/// `min_secs` — and returns its last result with the median duration.
/// Spans recorded during the repeats stay in the calling thread.
pub fn timed_setup<T>(min_reps: usize, min_secs: f64, mut f: impl FnMut() -> T) -> (T, f64, usize) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = f();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= min_reps && started.elapsed().as_secs_f64() >= min_secs {
            return (out, median(&times), times.len());
        }
        drop(out);
    }
}

/// Peak resident set (VmHWM) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where artifacts go: `PERFBENCH_OUT`, else `perfbench/out`.
pub fn out_dir() -> PathBuf {
    std::env::var_os("PERFBENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/out"))
}

/// Source fingerprint of the code under test (set by `run.py`).
pub fn source_id() -> String {
    std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".to_string())
}

fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("smoke", args.smoke.to_string()),
        ("commit", env("PERFBENCH_COMMIT")),
        ("source", source_id()),
        ("rustc", env("PERFBENCH_RUSTC")),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("exec_threads", exec::global().threads().to_string()),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(rep: &Report, list: &[(&str, &str)]) -> String {
    let body: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = rep.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes the run artifact (provenance, both metric sets, counts, inputs,
/// failures) and, for a traced run, its spans.
pub fn write_artifacts(args: &Args, rep: &Report) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.smoke { "-smoke" } else { "" }
    );
    let prov: Vec<String> = provenance(args)
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let inputs: Vec<String> = rep
        .inputs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let counts: Vec<String> = rep
        .counts
        .iter()
        .map(|(k, v)| {
            let nums: Vec<String> = v.iter().map(|n| n.to_string()).collect();
            format!("{}: [{}]", json_str(k), nums.join(", "))
        })
        .collect();
    let failures: Vec<String> = rep.failures.iter().map(|f| json_str(f)).collect();
    let doc = format!(
        "{{\"provenance\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \
         \"per_layer\": {}, \"inputs\": {{{}}}, \"work_counts\": {{{}}}, \"failures\": [{}]}}\n",
        prov.join(", "),
        rep.attempted,
        rep.failed,
        metrics_json(rep, &END_TO_END),
        metrics_json(rep, &PER_LAYER),
        inputs.join(", "),
        counts.join(", "),
        failures.join(", "),
    );
    std::fs::write(dir.join(format!("{stem}.json")), doc)?;
    if args.trace {
        trace::write(&dir.join(format!("{stem}.spans.tsv")), &rep.spans)?;
    }
    Ok(())
}

/// Prints the provenance line, then the result as the last line of stdout.
pub fn print(args: &Args, rep: &Report) {
    let prov: Vec<String> = provenance(args)
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", prov.join(", "));
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = rep.failures.is_empty()
        && rep.attempted > 0
        && list
            .iter()
            .all(|(n, _)| rep.metrics.get(n).is_none_or(|v| v.is_finite()));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        rep.attempted.max(1),
        rep.failed,
        metrics_json(rep, list)
    );
}
