//! perfbench — the end-to-end and per-layer benchmark of the three paths
//! users run through the Fleet simulator:
//!
//! * `system-apps`: `run_system` on the six paper apps (engine only);
//! * `serve-mixed`: `Host::serve_arrivals` on an open loop of
//!   deadline-bearing jobs and credit-backpressured sessions;
//! * `cluster-zones`: `Cluster::run` on the Model backend through a
//!   demand rush and two zone fault bursts (no engine).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload system-apps --seed 1 --seconds 30 --trace 0 [--out DIR]
//! ```
//!
//! `--trace 0` times the untraced user path and prints the end-to-end
//! metrics; `--trace 1` times calls into each layer from outside and
//! prints the per-layer metrics and the tracing overhead. Every run
//! checks outputs against the native golden models and refuses to
//! report (exit 1) when a check fails. The last stdout line is one JSON
//! object; the full result, stamped with the machine and build, goes to
//! `DIR/perfbench-<workload>[-trace].json` (default: current directory).

mod cluster_zones;
mod gen;
mod serve_mixed;
mod stats;
mod system_apps;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fleet_compiler::CompiledUnit;
use fleet_lang::UnitSpec;
use fleet_system::{max_units, Platform, SystemConfig};
use stats::Summary;

/// The end-to-end metrics every workload reports with `--trace 0`
/// (kept in step with `BENCHMARK.json`; a test checks).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("input_mb_per_s", "MB/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("modelled_gbps", "GB/s"),
    ("goodput_jobs_per_vs", "1/vs"),
];

/// Short app names used in per-app metric names, in Figure 7 order.
pub const APPS: [&str; 6] = ["json", "intcode", "tree", "smith", "regex", "bloom"];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("compiler.compile_ms".into(), "ms"),
        ("compiler.area_fit_ms".into(), "ms"),
    ];
    let per_app: [(&str, &'static str); 12] = [
        ("engine.build_ms", "ms"),
        ("engine.run_serial_s", "s"),
        ("engine.run_pooled_s", "s"),
        ("engine.pool_speedup", "ratio"),
        ("engine.sim_cycles", "count"),
        ("engine.cycles_skipped", "count"),
        ("engine.ns_per_pu_cycle", "ns"),
        ("engine.pu_busy_frac", "frac"),
        ("engine.pu_stall_in_frac", "frac"),
        ("engine.pu_stall_out_frac", "frac"),
        ("dram.row_hit_frac", "frac"),
        ("dram.bus_util", "frac"),
    ];
    for (m, unit) in per_app {
        for app in APPS {
            v.push((format!("{m}.{app}"), unit));
        }
    }
    let rest: [(&str, &'static str); 19] = [
        ("host.batches", "count"),
        ("host.slot_fill", "frac"),
        ("host.deferred", "count"),
        ("host.shed", "count"),
        ("host.batch_replay_ms_p50", "ms"),
        ("host.batch_replay_ms_p99", "ms"),
        ("host.engine_share", "frac"),
        ("host.predict_ns", "ns"),
        ("host.pack_us", "us"),
        ("session.advances", "count"),
        ("session.backpressure", "count"),
        ("session.evictions", "count"),
        ("session.advance_ms", "ms"),
        ("cluster.routed", "count"),
        ("cluster.reroutes", "count"),
        ("cluster.scale_ups", "count"),
        ("cluster.warm_hit_frac", "frac"),
        ("cluster.model_p99_us", "us"),
        ("trace.overhead_frac", "frac"),
    ];
    v.extend(rest.iter().map(|&(m, u)| (m.to_string(), u)));
    v
}

/// One reported number: a median over repeats, a rate over the whole
/// measuring window, or an exact value (simulated statistics,
/// deterministic counts). Timed metrics keep their per-repeat median
/// and quartiles for the result file.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            summary: None,
        }
    }

    pub fn sampled(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let s = Summary::of(samples);
        Metric {
            name: name.into(),
            unit,
            value: s.median,
            summary: Some(s),
        }
    }

    pub fn with_samples(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: &[f64],
    ) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            summary: Some(Summary::of(samples)),
        }
    }

    /// `work_per_pass` done in every pass, over the window's total wall
    /// time. The machine's speed here alternates between fast and slow
    /// phases lasting seconds; per-pass rates are then bimodal and their
    /// median jumps between the modes, while the window's rate moves
    /// only with the share of time spent in each, so it is the steadier
    /// figure.
    pub fn rate(
        name: impl Into<String>,
        unit: &'static str,
        work_per_pass: f64,
        walls: &[f64],
    ) -> Metric {
        let per_pass: Vec<f64> = walls.iter().map(|w| work_per_pass / w).collect();
        let total: f64 = walls.iter().sum();
        Metric::with_samples(
            name,
            unit,
            work_per_pass * walls.len() as f64 / total,
            &per_pass,
        )
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs, streams and sessions offered.
    pub attempted: u64,
    /// Of those: errored, refused, shed, or wrong output.
    pub failed: u64,
    /// Check failures; any entry makes the run refuse to report.
    pub problems: Vec<String>,
    /// The contract metrics for this mode (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics, reported alongside but not gated in
    /// `BENCHMARK.json`.
    pub extra: Vec<Metric>,
    /// Free-form facts for the result file (fingerprints, sizes).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records a check: `ok` or a problem described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems.push(what());
        }
    }
}

/// Program-side set-up times, one sample per set-up: compiling and
/// area-fitting every spec of the workload, then building its entry
/// object (`Host::new`, `Cluster::new`).
#[derive(Debug, Default)]
pub struct Setup {
    total_s: Vec<f64>,
    compile_ms: Vec<f64>,
    area_fit_ms: Vec<f64>,
}

impl Setup {
    pub fn time<T>(&mut self, specs: &[&Arc<UnitSpec>], build: impl FnOnce() -> T) -> T {
        let platform = Platform::f1();
        let memctl = SystemConfig::f1(0).memctl;
        let t = Instant::now();
        for &spec in specs {
            std::hint::black_box(CompiledUnit::from_arc(spec.clone()));
        }
        let compile = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for &spec in specs {
            std::hint::black_box(max_units(spec, &platform, &memctl));
        }
        let area = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let built = build();
        self.total_s
            .push(compile + area + t.elapsed().as_secs_f64());
        self.compile_ms.push(compile * 1e3);
        self.area_fit_ms.push(area * 1e3);
        built
    }

    /// `setup_s` untraced; the compiler's share of it traced.
    pub fn metrics(&self, trace: bool) -> Vec<Metric> {
        if trace {
            vec![
                Metric::sampled("compiler.compile_ms", "ms", &self.compile_ms),
                Metric::sampled("compiler.area_fit_ms", "ms", &self.area_fit_ms),
            ]
        } else {
            vec![Metric::sampled("setup_s", "s", &self.total_s)]
        }
    }
}

/// The measuring window of one run: repeat passes until `seconds` have
/// elapsed, and at least `min_passes` times.
pub struct Window {
    start: Instant,
    budget: Duration,
}

impl Window {
    pub fn new(seconds: u64) -> Window {
        Window {
            start: Instant::now(),
            budget: Duration::from_secs(seconds),
        }
    }

    pub fn more(&self, passes: usize, min_passes: usize) -> bool {
        passes < min_passes || self.start.elapsed() < self.budget
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Worker count the benchmark sizes its parallel parts by.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and build a result came from.
fn machine() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Only a checkout with its own .git names a commit; asking git from
    // anywhere else would report whatever repository encloses it.
    let head = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    vec![
        (
            "nproc",
            command_line("nproc", &[]).unwrap_or_else(|| "unknown".to_string()),
        ),
        ("available_parallelism", nproc().to_string()),
        ("cpu_model", cpu),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        (
            "build_profile",
            format!(
                "{} (opt-level {}, debug assertions {})",
                env!("PERFBENCH_PROFILE"),
                env!("PERFBENCH_OPT_LEVEL"),
                if cfg!(debug_assertions) { "on" } else { "off" }
            ),
        ),
        (
            "git_head",
            head.unwrap_or_else(|| "unavailable: not a git checkout".to_string()),
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_json(m: &Metric) -> String {
    let mut s = format!("{{\"value\": {}, \"unit\": {}", m.value, json_str(m.unit));
    if let Some(summary) = m.summary {
        s.push_str(&format!(", \"samples\": {}", summary.to_json()));
    }
    s.push('}');
    s
}

fn metrics_json(ms: &[Metric], with_samples: bool) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if with_samples {
                metric_json(m)
            } else {
                format!("{{\"value\": {}, \"unit\": {}}}", m.value, json_str(m.unit))
            };
            format!("{}: {v}", json_str(&m.name))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
        out: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| bad("whole seconds"))?;
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(&val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["system-apps", "serve-mixed", "cluster-zones"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be system-apps, serve-mixed or cluster-zones, got {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = machine();
    println!(
        "# perfbench {} seed {} for {} s, tracing {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" }
    );
    for (k, v) in &machine {
        println!("#   {k}: {v}");
    }

    let mut outcome = match args.workload.as_str() {
        "system-apps" => system_apps::run(args.seed, args.seconds, args.trace),
        "serve-mixed" => serve_mixed::run(args.seed, args.seconds, args.trace),
        _ => cluster_zones::run(args.seed, args.seconds, args.trace),
    };

    if !outcome.problems.is_empty() {
        return refuse(&outcome);
    }
    // Complete the contract set: every end-to-end metric must come from
    // the workload; a layer the workload does not exercise reads 0.
    let contract: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut by_name: BTreeMap<String, Metric> = outcome
        .metrics
        .drain(..)
        .map(|m| (m.name.clone(), m))
        .collect();
    let mut metrics = Vec::new();
    for (name, unit) in contract {
        let m = match by_name.remove(&name) {
            Some(m) => m,
            None if args.trace => Metric::exact(name.clone(), unit, 0.0),
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        assert_eq!(m.unit, unit, "{name} reported in the wrong unit");
        outcome.check(m.value.is_finite(), || {
            format!("{name} is not finite: {}", m.value)
        });
        metrics.push(m);
    }
    assert!(
        by_name.is_empty(),
        "metrics outside the contract: {:?}",
        by_name.keys()
    );
    if !outcome.problems.is_empty() {
        return refuse(&outcome);
    }

    for m in metrics.iter().chain(&outcome.extra) {
        let spread = m
            .summary
            .map(|s| {
                format!(
                    "  [{} repeats: median {:.6}, q1 {:.6}, q3 {:.6}]",
                    s.repeats, s.median, s.q1, s.q3
                )
            })
            .unwrap_or_default();
        println!("{:<34} {:>16.6} {}{spread}", m.name, m.value, m.unit);
    }
    for (k, v) in &outcome.notes {
        println!("# {k}: {v}");
    }

    let file = args.out.join(format!(
        "perfbench-{}{}.json",
        args.workload,
        if args.trace { "-trace" } else { "" }
    ));
    let machine_json: Vec<String> = machine
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let notes_json: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let result = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {{{}}}, \
         \"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"extra\": {}, \
         \"notes\": {{{}}}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        machine_json.join(", "),
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics, true),
        metrics_json(&outcome.extra, true),
        notes_json.join(", "),
    );
    if let Err(e) = std::fs::write(&file, result) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
        return ExitCode::from(1);
    }
    println!("# result written to {}", file.display());
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics, false)
    );
    ExitCode::SUCCESS
}

/// A failed check: say what failed, report no metrics, exit 1.
fn refuse(outcome: &Outcome) -> ExitCode {
    for p in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        outcome.attempted, outcome.failed
    );
    ExitCode::from(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units here must be exactly those declared in
    /// the repository's `BENCHMARK.json`.
    #[test]
    fn contract_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let compact: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in per_layer() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + per_layer().len(),
            "extra metrics declared"
        );
    }
}
