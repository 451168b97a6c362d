//! ckbench — the repository's one benchmark.
//!
//! `ckbench --workload <name> --seed <s> (--seconds <n> | --reps <n>) [--trace [0|1]]`
//! runs one workload in this process: an untimed warm-up rep, then timed
//! reps of fixed work, each ending in the workload's correctness check.
//! Untraced, it reports the end-to-end metrics as medians over the reps;
//! traced, it reports the per-layer metrics and writes the last rep's
//! spans to `benchmark/out/trace-<workload>.json`. The last line of
//! standard output is one JSON object; everything else goes to standard
//! error and `benchmark/out/`.
//!
//! `ckbench --all` runs every workload, timed then traced, each in a
//! fresh child process; `ckbench --selfcheck` runs two sets back to back
//! and fails if they disagree by more than the benchmark's own bounds.

mod layers;
mod stats;
mod trace;
mod workloads;

use layers::{END_TO_END, PER_LAYER};
use stats::{summarize, Summary};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{Rep, WORKLOADS};

const DEFAULT_SEED: u64 = 0xC4E5_1994;
/// Never used while the benchmark or a change under test is written.
const HELD_OUT_SEED: u64 = 0x51B_BA7C_0FEE;
const RUN_SECONDS: u32 = 12;
const DEFAULT_REPS: usize = 5;
/// `benchmark/out/`, wherever the process is started from.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// Spans written to a trace file; the per-layer numbers use all of them.
const TRACE_FILE_SPANS: usize = 50_000;

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Single,
    All,
    Selfcheck,
    Contract,
}

#[derive(Clone, Debug)]
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
}

const USAGE: &str =
    "usage: ckbench --workload <name> [--seed <s>] [--seconds <n> | --reps <n>] [--trace [0|1]]
       ckbench --all [--seed <s>] [--seconds <n> | --reps <n>]
       ckbench --selfcheck [--reps <n>]
       ckbench --contract";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.replace('_', "").parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Single,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        reps: None,
        trace: false,
    };
    let mut it = argv.iter().peekable();
    let mut modes = 0;
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.0 == name) {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        known.join(" ")
                    ));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = parse_u64(v).ok_or(format!("--seed {v}: not a number"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                args.seconds = Some(s);
            }
            "--reps" => {
                let v = value("a count")?;
                let n: usize = v.parse().map_err(|_| format!("--reps {v}: not a count"))?;
                if !(1..=1_000).contains(&n) {
                    return Err(format!("--reps {v}: out of range"));
                }
                args.reps = Some(n);
            }
            "--trace" => {
                // `--trace` alone, or `--trace 0|1` as the driver writes it.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--all" | "--selfcheck" | "--contract" => {
                modes += 1;
                args.mode = match flag.as_str() {
                    "--all" => Mode::All,
                    "--selfcheck" => Mode::Selfcheck,
                    _ => Mode::Contract,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if modes > 1 || (modes == 1 && args.workload.is_some()) {
        return Err("choose one of --workload, --all, --selfcheck, --contract".into());
    }
    if args.mode == Mode::Single && args.workload.is_none() {
        return Err("no workload named".into());
    }
    if args.seconds.is_some() && args.reps.is_some() {
        return Err("choose one of --seconds and --reps".into());
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a number was measured; printed with every output.
fn host_stamp(args: &Args) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        ),
        ("profile", "release".into()),
        ("seed", format!("{:#x}", args.seed)),
    ]
}

/// Refuse to measure a build that would quietly measure something else.
fn check_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built without --release: refusing to measure a debug build".into());
    }
    let probe = cache_kernel::Machine::sharded(cache_kernel::ShardConfig {
        shards: 1,
        threads: true,
        ..cache_kernel::ShardConfig::default()
    });
    if probe.run_mode() != cache_kernel::RunMode::Threaded {
        return Err(
            "built with the lockstep feature: mill_2t would silently run in lockstep".into(),
        );
    }
    Ok(())
}

/// Start a new high-water mark for this process's resident set, so each
/// rep reports its own peak. Where the kernel refuses, the mark simply
/// keeps growing and every rep reports the process's peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fingerprint of everything that must repeat exactly for one seed.
fn fingerprint(workload: &str, rep: &Rep) -> u64 {
    let mut text = String::new();
    for (name, value) in &rep.exact {
        let _ = write!(text, "{name}={value};");
    }
    let _ = write!(
        text,
        "attempted={};ok={};slo={};",
        rep.attempted, rep.ok, rep.within_slo
    );
    if workloads::sim_is_exact(workload) {
        let _ = write!(text, "cycles={};", rep.sim_cycles);
    }
    fnv1a(text.as_bytes()) & 0xffff_ffff_ffff
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    summary: Summary,
}

/// What one run leaves behind.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    fingerprint: u64,
    reps: usize,
}

/// Keep running reps until the budget is spent: a fixed count, or as
/// many as fit in `seconds` (never fewer than `at_least`).
struct Budget {
    start: Instant,
    lap: Instant,
    seconds: Option<f64>,
    reps: usize,
    at_least: usize,
    done: usize,
    longest: f64,
}

impl Budget {
    fn new(args: &Args, at_least: usize) -> Self {
        let now = Instant::now();
        Budget {
            start: now,
            lap: now,
            seconds: args.seconds,
            reps: args.reps.unwrap_or(DEFAULT_REPS),
            at_least,
            done: 0,
            longest: 0.0,
        }
    }

    /// Whether to run another rep; called once before each.
    fn more(&mut self) -> bool {
        let now = Instant::now();
        if self.done > 0 {
            self.longest = self.longest.max((now - self.lap).as_secs_f64());
        }
        self.lap = now;
        let go = match self.seconds {
            // Go on only while the longest rep so far would still end
            // inside the budget.
            Some(s) => {
                self.done < self.at_least || (now - self.start).as_secs_f64() + self.longest <= s
            }
            None => self.done < self.reps,
        };
        self.done += usize::from(go);
        go
    }
}

/// The timed run: end-to-end metrics, tracing off.
fn timed_run(args: &Args, workload: &str, rows: &mut String) -> Result<Outcome, String> {
    let witness = fingerprint(workload, &workloads::run(workload, args.seed, None)?);

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut attempted = 0;
    let mut budget = Budget::new(args, 3);
    while budget.more() {
        reset_peak_rss();
        let rep = workloads::run(workload, args.seed, None)?;
        if fingerprint(workload, &rep) != witness {
            return Err("exact counters differ between reps of one seed".into());
        }
        let wall_s = rep.wall_ns as f64 / 1e9;
        let (setup_s, rss_mib) = (rep.setup_ns as f64 / 1e9, peak_rss_mib());
        let by_name = |name: &str| match name {
            "host_ops_per_s" => rep.ok as f64 / wall_s,
            "sim_cycles_per_op" => rep.sim_cycles as f64 / rep.ok.max(1) as f64,
            "sim_slo_ok_ratio" => rep.within_slo as f64 / rep.attempted.max(1) as f64,
            "ok_ratio" => rep.ok as f64 / rep.attempted.max(1) as f64,
            "peak_rss_mib" => rss_mib,
            "setup_s" => setup_s,
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        for (s, m) in samples.iter_mut().zip(&END_TO_END) {
            s.push(by_name(m.name));
        }
        attempted += rep.attempted;
        let _ = writeln!(
            rows,
            "rep\t{}\t{setup_s}\t{wall_s}\t{}\t{}\t{}\t{}\t{rss_mib}",
            budget.done, rep.attempted, rep.ok, rep.within_slo, rep.sim_cycles
        );
    }
    let metrics = END_TO_END
        .iter()
        .zip(&samples)
        .map(|(m, s)| Metric {
            name: m.name,
            unit: m.unit,
            summary: summarize(s),
        })
        .collect();
    Ok(Outcome {
        metrics,
        attempted,
        fingerprint: witness,
        reps: budget.done,
    })
}

/// The traced run: per-layer metrics. One untraced rep of the same seed
/// is the reference the traced reps must reproduce counter for counter.
fn traced_run(
    args: &Args,
    workload: &str,
    rows: &mut String,
    stamp: &[(&str, String)],
) -> Result<Outcome, String> {
    workloads::run(workload, args.seed, None)?;
    let reference = workloads::run(workload, args.seed, None)?;
    let witness = fingerprint(workload, &reference);

    let mut tracer = Tracer::new();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); PER_LAYER.len()];
    let mut walls = Vec::new();
    let mut attempted = 0;
    let mut budget = Budget::new(args, 1);
    while budget.more() {
        tracer.reset();
        let rep = workloads::run(workload, args.seed, Some(&mut tracer))?;
        if fingerprint(workload, &rep) != witness {
            return Err("the traced rep's exact counters differ from the untraced rep's".into());
        }
        let tot = trace::totals(&tracer.spans);
        let layers_sum: u64 = tot.by_layer.iter().map(|(_, ns)| ns).sum();
        let gap = (layers_sum as f64 - tot.roots as f64).abs() / tot.roots.max(1) as f64;
        if gap > 0.02 {
            return Err(format!(
                "layer self times sum to {layers_sum} ns, traced wall is {} ns",
                tot.roots
            ));
        }
        let values = layers::of_traced_rep(&rep, &reference, &tracer.spans, &tot);
        for (i, m) in PER_LAYER.iter().enumerate() {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.0)
                .map_or(0.0, |(_, v)| *v);
            samples[i].push(v);
        }
        walls.push(rep.wall_ns as f64);
        attempted += rep.attempted;
    }
    let tot = trace::totals(&tracer.spans);
    eprintln!(
        "layer self time of the last traced rep (traced wall {:.4} s):",
        tot.roots as f64 / 1e9
    );
    for (layer, ns) in &tot.by_layer {
        let share = 100.0 * *ns as f64 / tot.roots.max(1) as f64;
        eprintln!("  {layer:<14}{:>10.4} s {share:>6.1} %", *ns as f64 / 1e9);
    }
    write_trace(workload, stamp, &tracer, &tot)?;

    // Measured once per run, not once per rep.
    let mut once = layers::hw_probes();
    once.push(("bench.rep_iqr_ratio", summarize(&walls).iqr_ratio()));
    once.push(("bench.sim_fingerprint", witness as f64));
    let metrics = PER_LAYER
        .iter()
        .zip(&samples)
        .map(|(m, s)| Metric {
            name: m.0,
            unit: m.1,
            summary: match once.iter().find(|(n, _)| *n == m.0) {
                Some((_, v)) => summarize(&[*v]),
                None => summarize(s),
            },
        })
        .collect();
    let _ = writeln!(rows, "reps\t{}", budget.done);
    Ok(Outcome {
        metrics,
        attempted,
        fingerprint: witness,
        reps: budget.done,
    })
}

fn json_string(s: &str) -> String {
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

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Write the last traced rep's spans and totals under `benchmark/out/`.
fn write_trace(
    workload: &str,
    stamp: &[(&str, String)],
    tracer: &Tracer,
    tot: &trace::Totals,
) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}.json"));
    let mut out = String::with_capacity(64 * tracer.spans.len().min(TRACE_FILE_SPANS) + 4096);
    out.push_str("{\n  \"workload\": ");
    out.push_str(&json_string(workload));
    out.push_str(",\n  \"stamp\": {");
    for (i, (k, v)) in stamp.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {}",
            if i == 0 { "" } else { ", " },
            json_string(k),
            json_string(v)
        );
    }
    out.push_str("},\n  \"names\": [");
    for n in 0..trace::NAME_COUNT {
        let _ = write!(
            out,
            "{}{{\"name\": {}, \"layer\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            if n == 0 { "" } else { ", " },
            json_string(&trace::label(n as u8)),
            json_string(trace::layer(n as u8)),
            tot.by_name[n].0,
            tot.by_name[n].1,
            tot.by_name[n].2
        );
    }
    out.push_str("],\n  \"layer_self_ns\": {");
    for (i, (layer, ns)) in tot.by_layer.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {ns}",
            if i == 0 { "" } else { ", " },
            json_string(layer)
        );
    }
    let _ = write!(
        out,
        "}},\n  \"traced_wall_ns\": {},\n  \"spans_total\": {},\n  \"span_fields\": [\"name\", \"lane\", \"parent\", \"id\", \"start_ns\", \"end_ns\"],\n  \"spans\": [\n",
        tot.roots,
        tracer.spans.len()
    );
    let shown = &tracer.spans[..tracer.spans.len().min(TRACE_FILE_SPANS)];
    for (i, s) in shown.iter().enumerate() {
        let parent = if s.parent == trace::NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "    [{}, {}, {parent}, {}, {}, {}]{}",
            s.name,
            s.lane,
            s.id,
            s.start,
            s.end,
            if i + 1 == shown.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    write_out(&path, &out)
}

fn write_out(path: &Path, text: &str) -> Result<(), String> {
    let dir = path.parent().expect("a file under the output directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn rows_path(workload: &str, traced: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "{workload}.{}.tsv",
        if traced { "layers" } else { "e2e" }
    ))
}

/// One workload in this process. Prints the result line; returns whether
/// the outputs were correct.
fn single(args: &Args) -> bool {
    let workload = args.workload.as_deref().expect("checked by parse_args");
    let stamp = host_stamp(args);
    let mut rows = String::new();
    for (k, v) in &stamp {
        let _ = writeln!(rows, "stamp\t{k}\t{v}");
    }
    eprintln!(
        "ckbench {workload} trace={} {}",
        u8::from(args.trace),
        stamp
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let outcome = check_build().and_then(|()| {
        if args.trace {
            traced_run(args, workload, &mut rows, &stamp)
        } else {
            timed_run(args, workload, &mut rows)
        }
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(why) => {
            eprintln!("ckbench {workload}: FAILED: {why}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return false;
        }
    };
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
        outcome.attempted.max(1)
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let s = m.summary;
        eprintln!(
            "{:<44}{:>20.6} {:<10} q1 {:.6} q3 {:.6} n {}",
            m.name, s.median, m.unit, s.q1, s.q3, s.n
        );
        let _ = writeln!(
            rows,
            "metric\t{}\t{}\t{}\t{}\t{}\t{}",
            m.name, m.unit, s.median, s.q1, s.q3, s.n
        );
        let _ = write!(
            json,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_string(m.name),
            json_number(s.median),
            json_string(m.unit)
        );
    }
    json.push_str("}}");
    let _ = writeln!(rows, "exact\tfingerprint\t{:012x}", outcome.fingerprint);
    eprintln!(
        "{:<44}{:>20} reps {}",
        "bench.sim_fingerprint",
        format!("{:012x}", outcome.fingerprint),
        outcome.reps
    );
    if let Err(why) = write_out(&rows_path(workload, args.trace), &rows) {
        eprintln!("ckbench {workload}: {why}");
    }
    println!("{json}");
    true
}

/// What a child run wrote: `(name, unit, median)` of every metric, and
/// the fingerprint of its exact counters.
struct Rows {
    metrics: Vec<(String, String, f64)>,
    fingerprint: String,
}

impl Rows {
    fn read(workload: &str, traced: bool) -> Result<Rows, String> {
        let path = rows_path(workload, traced);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut rows = Rows {
            metrics: Vec::new(),
            fingerprint: String::new(),
        };
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["metric", name, unit, median, ..] => {
                    let median = median
                        .parse()
                        .map_err(|_| format!("{}: bad row {line}", path.display()))?;
                    rows.metrics
                        .push((name.to_string(), unit.to_string(), median));
                }
                ["exact", "fingerprint", hex] => rows.fingerprint = hex.to_string(),
                _ => {}
            }
        }
        Ok(rows)
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, _, v)| *v)
    }
}

/// Run one workload in a fresh child process and read back what it wrote.
fn child(args: &Args, workload: &str, seed: u64, traced: bool) -> Result<Rows, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    // A set runs as the driver would run it unless told otherwise.
    match (args.seconds, args.reps) {
        (_, Some(n)) => cmd.args(["--reps", &n.to_string()]),
        (s, None) => cmd.args([
            "--seconds",
            &s.unwrap_or(f64::from(RUN_SECONDS)).to_string(),
        ]),
    };
    let out = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{workload} (seed {seed:#x}, trace {}) failed: {last}",
            u8::from(traced)
        ));
    }
    Rows::read(workload, traced)
}

/// Every workload, timed then traced, each in a fresh process.
fn all(args: &Args) -> Result<Vec<(&'static str, Rows, Rows)>, String> {
    let mut set = Vec::new();
    for (workload, _) in WORKLOADS {
        let e2e = child(args, workload, args.seed, false)?;
        let per_layer = child(args, workload, args.seed, true)?;
        set.push((workload, e2e, per_layer));
    }
    println!(
        "# every metric by name: median over reps (end to end, tracing off; per layer, traced run)"
    );
    for (workload, e2e, per_layer) in &set {
        for (rows, table) in [(e2e, "end_to_end"), (per_layer, "per_layer")] {
            for (name, unit, value) in &rows.metrics {
                println!("{workload}\t{table}\t{name}\t{value}\t{unit}");
            }
        }
        println!(
            "{workload}\texact\tbench.sim_fingerprint\t{}",
            e2e.fingerprint
        );
    }
    Ok(set)
}

/// Two sets back to back must agree within the benchmark's own bounds,
/// and the held-out seed must pass the same checks.
fn selfcheck(args: &Args) -> Result<(), String> {
    let first = all(args)?;
    let second = all(args)?;
    let mut problems = Vec::new();
    for ((workload, a, _), (_, b, _)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (a.get(m.name), b.get(m.name));
            // Host-clock metrics agree within their bound either way
            // round; sim-clock metrics are exact and must not move at all
            // (mill_2t's cycles depend on thread scheduling).
            let exact = m.name.starts_with("sim_") || m.name == "ok_ratio";
            let apart = (x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
            let bad = if exact && workloads::sim_is_exact(workload) {
                x != y
            } else {
                apart > m.bound
            };
            println!(
                "selfcheck\t{workload}\t{}\t{x}\t{y}\t{}",
                m.name,
                if bad { "DIFFERS" } else { "ok" }
            );
            if bad {
                problems.push(format!("{workload} {}: {x} then {y}", m.name));
            }
        }
        if a.fingerprint != b.fingerprint {
            problems.push(format!(
                "{workload} bench.sim_fingerprint: {} then {}",
                a.fingerprint, b.fingerprint
            ));
        }
    }
    for workload in ["ck_thrash", "serve_cuts"] {
        child(args, workload, HELD_OUT_SEED, false)?;
        println!("selfcheck\t{workload}\theld-out seed {HELD_OUT_SEED:#x}\tok");
    }
    if problems.is_empty() {
        println!("selfcheck: two sets agree within the bounds; sim-clock metrics and fingerprints identical");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", problems.join("\n  ")))
    }
}

/// `BENCHMARK.json`, generated from the tables in `layers` and `workloads`.
pub fn contract_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_string(name),
            json_string(why),
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better),
            m.bound,
            if i + 1 == END_TO_END.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_string(m.0),
            json_string(m.1),
            json_string(m.2),
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("ckbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.mode {
        Mode::Single => single(&args),
        Mode::Contract => {
            print!("{}", contract_json());
            true
        }
        Mode::All => all(&args)
            .map(|_| ())
            .map_err(|why| eprintln!("ckbench: {why}"))
            .is_ok(),
        Mode::Selfcheck => selfcheck(&args)
            .map_err(|why| eprintln!("ckbench: {why}"))
            .is_ok(),
    };
    let _ = std::io::stdout().flush();
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_hand_written_command_lines_parse() {
        let a = parse_args(&argv("--workload mill_1s --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("mill_1s"), 7, Some(10.0), false)
        );
        let a = parse_args(&argv(
            "--workload db_oltp --seed 0x51BBA7C0FEE --reps 9 --trace",
        ))
        .unwrap();
        assert_eq!((a.seed, a.reps, a.trace), (HELD_OUT_SEED, Some(9), true));
        let a = parse_args(&argv("--workload db_oltp --trace 1 --reps 2")).unwrap();
        assert!(a.trace && a.seed == DEFAULT_SEED);
        assert_eq!(
            parse_args(&argv("--selfcheck")).unwrap().mode,
            Mode::Selfcheck
        );
    }

    #[test]
    fn unknown_workloads_and_flags_are_errors() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload mill_1s --frobnicate",
            "--workload mill_1s --seconds 0",
            "--workload mill_1s --seconds 5 --reps 5",
            "--all --selfcheck",
            "--all --workload mill_1s",
            "--seed x --all",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn budget_counts_reps_or_seconds() {
        let args = parse_args(&argv("--workload mill_1s --reps 4")).unwrap();
        let mut b = Budget::new(&args, 3);
        let mut n = 0;
        while b.more() {
            n += 1;
        }
        assert_eq!((n, b.done), (4, 4));
        // A time budget too short for one rep still runs the minimum.
        let args = parse_args(&argv("--workload mill_1s --seconds 0.001")).unwrap();
        let mut b = Budget::new(&args, 3);
        let mut n = 0;
        while b.more() {
            std::thread::sleep(std::time::Duration::from_millis(2));
            n += 1;
        }
        assert_eq!(n, 3);
        // A budget with room runs past the minimum and stops inside it.
        let args = parse_args(&argv("--workload mill_1s --seconds 0.05")).unwrap();
        let mut b = Budget::new(&args, 1);
        let mut n = 0;
        while b.more() {
            std::thread::sleep(std::time::Duration::from_millis(5));
            n += 1;
        }
        assert!(n > 1 && b.start.elapsed().as_secs_f64() < 0.2, "{n} reps");
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1.5), "1.5");
    }
}
