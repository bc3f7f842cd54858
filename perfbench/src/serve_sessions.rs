//! `serve_sessions`: a closed loop of lock → attack → verify sessions over
//! two ORP1 connections to a `serve_daemon` child process with two
//! workers.
//!
//! Seven sessions in eight lock one of four reused circuits, so the
//! daemon's artifact caches hit; every eighth session locks a circuit the
//! daemon has not seen, so compile and locked-artifact builds run beside
//! the hits. Every eighth session (a different residue) attacks with
//! double-DIP instead of SAT. The reused circuits are fixed (those of the
//! `serve_load` harness): which circuits a session reuses sets most of its
//! cost, and seed-drawn ones moved throughput 2.8x between seeds. The seed
//! draws the fresh circuits, whose cost averages out over hundreds of
//! sessions a run.

use std::collections::hash_map::{Entry, HashMap};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use netlist::rng::SplitMix64;
use orap_bench::json::Json;
use serve::client::Client;
use serve::proto;

use crate::checks::{key_matches, Golden};
use crate::report::{self, median, quantile, Report};
use crate::trace;
use crate::Args;

const REUSED: usize = 4;
/// Connections, and the daemon's worker count.
const CLIENTS: usize = 2;
/// Entries per daemon artifact cache. Bounded so the daemon's memory
/// plateaus instead of growing with the sessions a run completes; the
/// reused circuits, touched every few sessions, are never the least
/// recently used.
const CACHE_ENTRIES: usize = 64;
/// Set-ups (each against a fresh daemon) whose median is `setup_s`.
const SETUPS: usize = 3;

/// A daemon child process; killed and reaped when dropped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts a daemon and waits for it to announce its port. Neither the
    /// spawn nor the wait is part of any timing.
    fn spawn(path: &std::path::Path, announce: &std::path::Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(announce);
        let child = Command::new(path)
            .args(["--port", "0", "--workers", &CLIENTS.to_string()])
            .args(["--circuit-cache", &CACHE_ENTRIES.to_string()])
            .args(["--locked-cache", &CACHE_ENTRIES.to_string(), "--announce"])
            .arg(announce)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", path.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(port) = std::fs::read_to_string(announce) {
                if let Ok(port) = port.trim().parse::<u16>() {
                    daemon.addr = format!("127.0.0.1:{port}");
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited at start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("daemon never announced its port".into())
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and exit, then reaps it.
    fn shutdown(mut self) -> Result<(), String> {
        let res = Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown(true))
            .map_err(|e| format!("shutdown: {e}"));
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return res;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What session `i` locks with RLL: (circuit index, key bits, lock seed).
/// Indices below `REUSED` are the reused circuits; the rest are fresh.
fn session_plan(i: usize) -> (usize, usize, u64) {
    if i % 8 == 5 {
        (REUSED + i / 8, 6, 11)
    } else {
        let v = i % 8 % REUSED;
        (v, 4 + v, 7)
    }
}

fn attack_of(i: usize) -> &'static str {
    if i % 8 == 3 {
        "double_dip"
    } else {
        "sat"
    }
}

/// The seed-drawn circuits as `.bench` text: the reused set, then `fresh`
/// circuits no session shares.
fn circuits(seed: u64, fresh: usize) -> Result<Vec<String>, String> {
    let _g = trace::span("netlist.synthesize");
    let err = |e: netlist::Error| e.to_string();
    let mut out = vec![
        netlist::bench::write(&netlist::samples::c17()),
        netlist::bench::write(&netlist::samples::ripple_adder(4)),
        netlist::bench::write(&netlist::generate::random_comb(11, 8, 4, 60).map_err(err)?),
        netlist::bench::write(&netlist::generate::random_comb(23, 10, 5, 90).map_err(err)?),
    ];
    let mut rng = SplitMix64::new(seed ^ 0x5345_5256);
    for _ in 0..fresh {
        let c = netlist::generate::random_comb(rng.next_u64() % 1_000_000_000, 8, 4, 60)
            .map_err(err)?;
        out.push(netlist::bench::write(&c));
    }
    Ok(out)
}

fn expect_done<'a>(resp: &'a Json, what: &str) -> Result<&'a Json, String> {
    let state = proto::get_str(resp, "state").unwrap_or("?");
    if state != "done" {
        return Err(format!("{what} ended {state}: {}", resp.compact()));
    }
    proto::get(resp, "result").ok_or_else(|| format!("{what} result missing"))
}

/// One session's outcome, checked after the load window.
struct Session {
    index: usize,
    key: String,
    iterations: u64,
    queries: u64,
    lock_ms: f64,
    attack_ms: f64,
    verify_ms: f64,
    session_ms: f64,
}

fn lock(client: &mut Client, bench: &str, key_bits: usize, seed: u64) -> Result<String, String> {
    let _g = trace::span("serve.lock");
    let job = client
        .submit_lock(bench, "rll", key_bits, seed)
        .map_err(|e| format!("submit lock: {e}"))?;
    let done = client.wait_result(job).map_err(|e| format!("lock: {e}"))?;
    let result = expect_done(&done, "lock")?;
    Ok(proto::get_str(result, "artifact")
        .ok_or("lock artifact missing")?
        .to_string())
}

fn session(client: &mut Client, benches: &[String], i: usize) -> Result<Session, String> {
    let (c, key_bits, lock_seed) = session_plan(i);
    let bench = benches.get(c).ok_or("fresh circuit pool exhausted")?;
    let t0 = Instant::now();
    let artifact = lock(client, bench, key_bits, lock_seed)?;
    let t1 = Instant::now();
    let attack = attack_of(i);
    let result = {
        let _g = trace::span("serve.attack");
        let job = client
            .submit_attack(&artifact, attack)
            .map_err(|e| format!("submit {attack}: {e}"))?;
        client
            .wait_result(job)
            .map_err(|e| format!("{attack}: {e}"))?
    };
    let result = expect_done(&result, attack)?;
    if proto::get(result, "succeeded").and_then(proto::as_bool) != Some(true) {
        return Err(format!("{attack} did not succeed: {}", result.compact()));
    }
    let key = proto::get_str(result, "key")
        .ok_or("attack key missing")?
        .to_string();
    let iterations = proto::get_u64(result, "iterations").ok_or("attack iterations missing")?;
    let queries =
        proto::get_u64(result, "oracle_queries").ok_or("attack oracle_queries missing")?;
    let t2 = Instant::now();
    let verdict = {
        let _g = trace::span("serve.verify");
        let job = client
            .submit_verify(&artifact, &key)
            .map_err(|e| format!("submit verify: {e}"))?;
        client
            .wait_result(job)
            .map_err(|e| format!("verify: {e}"))?
    };
    let verdict = expect_done(&verdict, "verify")?;
    if proto::get(verdict, "exact").and_then(proto::as_bool) != Some(true) {
        return Err(format!(
            "daemon verify rejects the key: {}",
            verdict.compact()
        ));
    }
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(Session {
        index: i,
        key,
        iterations,
        queries,
        lock_ms: ms(t0, t1),
        attack_ms: ms(t1, t2),
        verify_ms: ms(t2, t3),
        session_ms: ms(t0, t3),
    })
}

/// Server-side counters from the `stats` op.
#[derive(Debug, Default, Clone, Copy)]
struct ServerStats {
    completed: u64,
    busy_ns: u64,
    queue_wait_ns: u64,
    hits: u64,
    builds: u64,
    build_ns: u64,
    circuit_builds: u64,
    locked_builds: u64,
}

fn server_stats(addr: &str) -> Result<ServerStats, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let s = c.stats().map_err(|e| format!("stats: {e}"))?;
    let q = proto::get(&s, "queue").ok_or("stats without queue")?;
    let n = |o: &Json, k: &str| proto::get_u64(o, k).unwrap_or(0);
    let cc = proto::get(&s, "circuit_cache").ok_or("stats without circuit_cache")?;
    let lc = proto::get(&s, "locked_cache").ok_or("stats without locked_cache")?;
    Ok(ServerStats {
        completed: n(q, "completed"),
        busy_ns: n(q, "busy_ns"),
        queue_wait_ns: n(q, "queue_wait_ns"),
        hits: n(cc, "hits") + n(lc, "hits"),
        builds: n(cc, "builds") + n(lc, "builds"),
        build_ns: n(cc, "build_ns") + n(lc, "build_ns"),
        circuit_builds: n(cc, "builds"),
        locked_builds: n(lc, "builds"),
    })
}

/// `serve_daemon` is built next to this binary (see `run.py`).
fn daemon_path() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    Ok(exe.with_file_name("serve_daemon"))
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    match run_inner(args, &mut rep) {
        Ok(()) => {}
        Err(e) => {
            rep.attempted = rep.attempted.max(1);
            rep.fail(e);
        }
    }
    rep
}

fn run_inner(args: &Args, rep: &mut Report) -> Result<(), String> {
    let path = daemon_path()?;
    std::fs::create_dir_all(report::out_dir()).map_err(|e| format!("out dir: {e}"))?;
    let announce = report::out_dir().join(format!("daemon-port-{}", std::process::id()));
    // Room for 800 sessions a second before the fresh pool runs dry.
    let fresh = (args.seconds * 100.0).ceil() as usize + 8;
    // Set-up: generate the inputs and fill the daemon's caches with the
    // reused circuits. The spawn itself is not timed.
    let mut setup_times = Vec::new();
    let mut live = None;
    for rep_i in 0..SETUPS {
        let daemon = Daemon::spawn(&path, &announce)?;
        let t = Instant::now();
        let benches = circuits(args.seed, fresh)?;
        let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        for v in 0..REUSED {
            let (c, key_bits, seed) = session_plan(v);
            lock(&mut client, &benches[c], key_bits, seed)?;
        }
        setup_times.push(t.elapsed().as_secs_f64());
        if rep_i + 1 < SETUPS {
            drop(client);
            daemon.shutdown()?;
        } else {
            live = Some((daemon, benches));
        }
    }
    let (daemon, benches) = live.ok_or("no daemon")?;
    let mut spans = trace::take();
    let setup_layers = trace::summarize(&spans);
    rep.set("setup_s", median(&setup_times));
    rep.set_layer_ms(
        &setup_layers,
        &[("netlist.synthesize_ms", "netlist.synthesize")],
        SETUPS,
    );
    rep.input("reused_circuits", REUSED);
    rep.input("fresh_pool", fresh);
    rep.input("clients", CLIENTS);
    let before = server_stats(&daemon.addr)?;

    // Closed loop: each connection sends its next session once the last
    // one completes, until the window closes. A traced run records spans
    // in its second half only, so the halves' rates give the overhead.
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::<Session>::new());
    let errors = Mutex::new(Vec::<String>::new());
    let half_done = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let window = args.run_for();
    trace::set_enabled(false);
    let start = Instant::now();
    let mut thread_spans = Vec::new();
    std::thread::scope(|scope| {
        let worker = |lead: bool| {
            let mut client = match Client::connect(&daemon.addr) {
                Ok(c) => c,
                Err(e) => {
                    errors
                        .lock()
                        .expect("errors lock")
                        .push(format!("connect: {e}"));
                    return Vec::new();
                }
            };
            loop {
                let at = start.elapsed();
                if at >= window {
                    break;
                }
                if lead && args.trace && at >= window / 2 {
                    trace::set_enabled(true);
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                trace::set_op(i as u64);
                let half = usize::from(trace::enabled());
                match session(&mut client, &benches, i) {
                    Ok(s) => {
                        half_done[half].fetch_add(1, Ordering::Relaxed);
                        done.lock().expect("sessions lock").push(s);
                    }
                    Err(e) => errors
                        .lock()
                        .expect("errors lock")
                        .push(format!("session {i}: {e}")),
                }
            }
            trace::take()
        };
        let other = scope.spawn(move || worker(false));
        thread_spans.push(worker(true));
        thread_spans.push(other.join().expect("load thread"));
    });
    let elapsed = start.elapsed().as_secs_f64();
    trace::set_enabled(false);
    let after = server_stats(&daemon.addr)?;
    rep.set(
        "peak_rss_mb",
        report::peak_rss_mb(Some(daemon.pid())).unwrap_or(0.0),
    );
    daemon.shutdown()?;
    let _ = std::fs::remove_file(&announce);

    let mut sessions = done.into_inner().expect("sessions lock");
    let errors = errors.into_inner().expect("errors lock");
    sessions.sort_by_key(|s| s.index);
    rep.attempted = (sessions.len() + errors.len()) as u64;
    for e in errors {
        rep.fail(e);
    }
    check_sessions(args, rep, &benches, &sessions);

    // The daemon must have compiled each fresh circuit and built each
    // fresh locked artifact exactly once, and nothing else.
    let fresh_done = sessions
        .iter()
        .filter(|s| session_plan(s.index).0 >= REUSED)
        .count() as u64;
    let (cb, lb) = (
        after.circuit_builds - before.circuit_builds,
        after.locked_builds - before.locked_builds,
    );
    if cb != fresh_done || lb != fresh_done {
        rep.fail(format!(
            "{fresh_done} fresh sessions but {cb} compiles and {lb} lock builds"
        ));
    }
    rep.count(
        "cache_builds_per_fresh_session".into(),
        vec![u64::from(cb == fresh_done && lb == fresh_done)],
    );

    let col = |f: fn(&Session) -> f64| sessions.iter().map(f).collect::<Vec<f64>>();
    let session_ms = col(|s| s.session_ms);
    rep.set("ops_per_s", sessions.len() as f64 / elapsed);
    rep.set("serve.session_p50_ms", median(&session_ms));
    rep.set("serve.session_p99_ms", quantile(&session_ms, 0.99));
    rep.set("serve.lock_ms", median(&col(|s| s.lock_ms)));
    rep.set("serve.attack_ms", median(&col(|s| s.attack_ms)));
    rep.set("serve.verify_ms", median(&col(|s| s.verify_ms)));
    let jobs = (after.completed - before.completed).max(1) as f64;
    rep.set(
        "serve.queue_wait_ms",
        (after.queue_wait_ns - before.queue_wait_ns) as f64 / 1e6 / jobs,
    );
    rep.set(
        "serve.busy_ms",
        (after.busy_ns - before.busy_ns) as f64 / 1e6 / jobs,
    );
    // Counts are per session, so they do not move with throughput.
    let per_session = sessions.len().max(1) as f64;
    rep.set(
        "serve.cache_hits",
        (after.hits - before.hits) as f64 / per_session,
    );
    let builds = after.builds - before.builds;
    rep.set("serve.cache_builds", builds as f64 / per_session);
    rep.set(
        "serve.cache_build_ms",
        (after.build_ns - before.build_ns) as f64 / 1e6 / builds.max(1) as f64,
    );
    let dips: u64 = sessions.iter().map(|s| s.iterations).sum();
    let queries: u64 = sessions.iter().map(|s| s.queries).sum();
    rep.set("attacks.dips", dips as f64 / per_session);
    rep.set("attacks.oracle_queries", queries as f64 / per_session);
    if args.trace {
        let [untraced, traced] =
            [&half_done[0], &half_done[1]].map(|n| n.load(Ordering::Relaxed) as f64);
        // Both halves last half the window, so the ratio of their session
        // counts is the ratio of their rates.
        let pct = if traced > 0.0 {
            100.0 * (untraced / traced - 1.0)
        } else {
            0.0
        };
        rep.set("trace.overhead_pct", pct);
    }
    for s in thread_spans {
        trace::merge(&mut spans, s);
    }
    rep.set("trace.spans", spans.len() as f64);
    rep.spans = spans;
    Ok(())
}

/// Re-checks every recovered key against a lock this process reproduces
/// from the same (circuit, scheme, key bits, seed), exhaustively on the
/// reference interpreter against the unlocked circuit.
fn check_sessions(args: &Args, rep: &mut Report, benches: &[String], sessions: &[Session]) {
    let mut local: HashMap<(usize, usize, u64), (netlist::Circuit, locking::LockedCircuit)> =
        HashMap::new();
    for s in sessions {
        let plan = session_plan(s.index);
        let (c, key_bits, seed) = plan;
        let (circuit, locked) = match local.entry(plan) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let built = netlist::bench::parse(&benches[c])
                    .map_err(|e| e.to_string())
                    .and_then(|circuit| {
                        let cfg = locking::random::RllConfig { key_bits, seed };
                        let locked =
                            locking::random::lock(&circuit, &cfg).map_err(|e| e.to_string())?;
                        Ok((circuit, locked))
                    });
                match built {
                    Ok(b) => v.insert(b),
                    Err(e) => {
                        rep.fail(format!("session {}: local lock: {e}", s.index));
                        continue;
                    }
                }
            }
        };
        let key: Vec<bool> = s.key.chars().map(|ch| ch == '1').collect();
        match key_matches(Golden::Original(circuit), locked, &key, 16, args.seed) {
            Ok(true) => {}
            Ok(false) => rep.fail(format!(
                "session {}: key {} does not unlock",
                s.index, s.key
            )),
            Err(e) => rep.fail(format!("session {}: key {}: {e}", s.index, s.key)),
        }
        rep.count(format!("session{}", s.index), vec![s.iterations, s.queries]);
    }
}
