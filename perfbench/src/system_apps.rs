//! `system-apps`: `run_system` on all six paper apps at their Figure 7
//! PU counts, with the library default `SystemConfig::f1` (including
//! `SimThreads::Auto`, which is what users get). The engine does all
//! the work; host and cluster code none. Eval-path, pool and DRAM-model
//! changes show here.

use std::sync::Arc;
use std::time::Instant;

use fleet_apps::{App, AppKind};
use fleet_compiler::{CompiledUnit, PuExec};
use fleet_lang::UnitSpec;
use fleet_memctl::ChannelEngine;
use fleet_system::{
    build_system_engines, run_system, run_system_traced, RunReport, SimPool, SimThreads,
    SystemConfig,
};

use crate::gen::{mix, Fnv};
use crate::stats::geomean;
use crate::{nproc, peak_rss_mb, Metric, Outcome, Setup, Window, APPS};

/// Input bytes per PU stream. Decision Tree gets 8× (as in fig7), since
/// each of its streams opens with a whole tree ensemble.
const BYTES_PER_PU: usize = 1024;
const TREE_FACTOR: usize = 8;
/// Fewest passes (all six apps each) per run.
const MIN_PASSES: usize = 3;
/// Set-up repeats whose median is `setup_s`.
const SETUP_REPEATS: usize = 15;

struct AppInput {
    short: &'static str,
    app: App,
    spec: Arc<UnitSpec>,
    streams: Vec<Vec<u8>>,
    golden: Vec<Vec<u8>>,
    cfg: SystemConfig,
    input_bytes: u64,
}

fn inputs(seed: u64) -> Vec<AppInput> {
    AppKind::all()
        .iter()
        .zip(APPS)
        .enumerate()
        .map(|(a, (&kind, short))| {
            let app = App::new(kind);
            let per_pu = BYTES_PER_PU
                * if kind == AppKind::Tree {
                    TREE_FACTOR
                } else {
                    1
                };
            let streams: Vec<Vec<u8>> = (0..app.paper_pu_count())
                .map(|p| app.gen_stream(mix(seed ^ mix(((a as u64) << 32) | p as u64)), per_pu))
                .collect();
            let golden = streams.iter().map(|s| app.golden(s)).collect();
            let out_cap = app.out_capacity(streams.iter().map(|s| s.len()).max().unwrap_or(0));
            let input_bytes = streams.iter().map(|s| s.len() as u64).sum();
            AppInput {
                short,
                app,
                spec: Arc::new(app.spec()),
                streams,
                golden,
                cfg: SystemConfig::f1(out_cap),
                input_bytes,
            }
        })
        .collect()
}

/// Checks a run's outputs against the golden models and folds the
/// run's simulated results into a fingerprint. Returns the fingerprint
/// and the number of streams whose output is wrong.
fn check_report(out: &mut Outcome, input: &AppInput, report: &RunReport, what: &str) -> (u64, u64) {
    out.check(report.outputs.len() == input.golden.len(), || {
        format!(
            "{} {what}: {} outputs for {} streams",
            input.short,
            report.outputs.len(),
            input.golden.len()
        )
    });
    let mut fp = Fnv::new()
        .u64(report.cycles)
        .u64(report.input_bytes)
        .u64(report.output_bytes);
    let mut wrong = input.golden.len().saturating_sub(report.outputs.len()) as u64;
    for (i, (got, want)) in report.outputs.iter().zip(&input.golden).enumerate() {
        out.check(got == want, || {
            format!("{} {what}: stream {i} differs from golden", input.short)
        });
        wrong += u64::from(got != want);
        fp = fp.bytes(got);
    }
    (fp.finish(), wrong)
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let inputs = inputs(seed);
    let mut out = Outcome {
        attempted: inputs.iter().map(|i| i.streams.len() as u64).sum(),
        ..Outcome::default()
    };

    // `run_system` takes a spec and compiles it itself; the set-up a
    // user pays before it is compiling and area-fitting the six specs.
    let specs: Vec<&Arc<UnitSpec>> = inputs.iter().map(|i| &i.spec).collect();
    let mut setup = Setup::default();
    for _ in 0..SETUP_REPEATS {
        setup.time(&specs, || ());
    }
    out.metrics = setup.metrics(trace);
    if trace {
        traced(&inputs, seconds, &mut out);
        return out;
    }

    // Untraced user path: one pass runs all six apps back to back.
    let window = Window::new(seconds);
    let mut app_walls: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut pass_walls = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    let mut modelled: Vec<f64> = Vec::new();
    let mut virtual_s = 0.0;
    let mut passes = 0;
    while window.more(passes, MIN_PASSES) {
        let mut pass_wall = 0.0;
        let mut prints = Vec::new();
        let mut reports = Vec::new();
        for (a, input) in inputs.iter().enumerate() {
            let t = Instant::now();
            let report = run_system(&input.spec, &input.streams, &input.cfg);
            let wall = t.elapsed().as_secs_f64();
            pass_wall += wall;
            match report {
                Ok(r) => {
                    app_walls[a].push(wall);
                    reports.push(r);
                }
                Err(e) => {
                    out.check(false, || format!("{} run_system failed: {e}", input.short));
                    out.failed = out.attempted;
                    return out;
                }
            }
        }
        // Checks stay outside the timed region.
        for (input, r) in inputs.iter().zip(&reports) {
            let (fp, wrong) = check_report(&mut out, input, r, "run_system");
            prints.push(fp);
            if passes == 0 {
                out.failed += wrong;
            }
        }
        match &reference {
            None => {
                modelled = reports.iter().map(|r| r.input_gbps()).collect();
                virtual_s = reports.iter().map(|r| r.seconds).sum();
                reference = Some(prints);
            }
            Some(first) => out.check(*first == prints, || {
                format!("pass {passes}: simulated results differ from pass 0")
            }),
        }
        pass_walls.push(pass_wall);
        passes += 1;
    }

    // Each app's rate over the window, then the geometric mean over
    // apps, so Decision Tree does not drown out the other five.
    let app_rates: Vec<Metric> = inputs
        .iter()
        .zip(&app_walls)
        .map(|(i, w)| {
            Metric::rate(
                format!("input_mb_per_s.{}", i.short),
                "MB/s",
                i.input_bytes as f64 / 1e6,
                w,
            )
        })
        .collect();
    let per_pass: Vec<f64> = (0..passes)
        .map(|p| {
            let rates: Vec<f64> = inputs
                .iter()
                .zip(&app_walls)
                .map(|(i, w)| i.input_bytes as f64 / 1e6 / w[p])
                .collect();
            geomean(&rates)
        })
        .collect();
    let rates: Vec<f64> = app_rates.iter().map(|m| m.value).collect();
    out.metrics.extend([
        Metric::with_samples("input_mb_per_s", "MB/s", geomean(&rates), &per_pass),
        Metric::rate("jobs_per_s", "1/s", out.attempted as f64, &pass_walls),
        Metric::exact("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::exact("modelled_gbps", "GB/s", geomean(&modelled)),
        Metric::exact(
            "goodput_jobs_per_vs",
            "1/vs",
            out.attempted as f64 / virtual_s,
        ),
    ]);
    for ((input, rate), gbps) in inputs.iter().zip(app_rates).zip(&modelled) {
        out.extra.push(rate);
        out.extra.push(Metric::exact(
            format!("modelled_gbps.{}", input.short),
            "GB/s",
            *gbps,
        ));
    }
    out.extra.push(Metric::exact(
        "failed_frac",
        "frac",
        out.failed as f64 / out.attempted as f64,
    ));
    out.notes.push(("passes".into(), passes.to_string()));
    out.notes.push((
        "fingerprint".into(),
        format!(
            "{:016x}",
            reference
                .unwrap_or_default()
                .iter()
                .fold(Fnv::new(), |f, &p| f.u64(p))
                .finish()
        ),
    ));
    out.notes.push((
        "streams".into(),
        inputs
            .iter()
            .map(|i| {
                format!(
                    "{} {}x{}B",
                    i.app.name(),
                    i.streams.len(),
                    i.streams[0].len()
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out
}

/// Checks every stream output held by directly driven engines.
fn check_engines(
    out: &mut Outcome,
    input: &AppInput,
    engines: &[ChannelEngine<PuExec>],
    maps: &[Vec<usize>],
    what: &str,
) {
    for (eng, map) in engines.iter().zip(maps) {
        for (k, &s) in map.iter().enumerate() {
            out.check(eng.output_bytes(k) == input.golden[s], || {
                format!("{} {what}: stream {s} differs from golden", input.short)
            });
        }
    }
}

/// Per-layer timings from outside: engine build, serial and pooled
/// channel drives, and the untraced vs traced `run_system` pair that
/// gives the tracing overhead and the stall attribution.
fn traced(inputs: &[AppInput], seconds: u64, out: &mut Outcome) {
    let workers = nproc();
    let pool = SimPool::new(SimThreads::Fixed(workers));
    let n = inputs.len();
    let mut build_ms = vec![Vec::new(); n];
    let mut serial_s = vec![Vec::new(); n];
    let mut pooled_s = vec![Vec::new(); n];
    let mut counts = vec![(0u64, 0u64, 0u64); n];
    let mut overhead = Vec::new();
    let mut traced_stats: Vec<[f64; 5]> = vec![[0.0; 5]; n];

    let window = Window::new(seconds);
    let mut reps = 0;
    while window.more(reps, 1) {
        let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
        for (a, input) in inputs.iter().enumerate() {
            let unit = CompiledUnit::new(&input.spec);
            let refs: Vec<&[u8]> = input.streams.iter().map(|s| s.as_slice()).collect();

            let t = Instant::now();
            let (mut engines, maps) = build_system_engines(&unit, &refs, &input.cfg);
            build_ms[a].push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            for eng in engines.iter_mut() {
                if let Err(e) = eng.run_channel(input.cfg.max_cycles, None, 1) {
                    out.check(false, || {
                        format!("{} serial drive failed: {e:?}", input.short)
                    });
                    return;
                }
            }
            serial_s[a].push(t.elapsed().as_secs_f64());
            let cycles: u64 = engines.iter().map(|e| e.stats().cycles).sum();
            let skipped: u64 = engines.iter().map(|e| e.cycles_skipped()).sum();
            let pu_cycles: u64 = engines
                .iter()
                .map(|e| e.stats().cycles * e.len() as u64)
                .sum();
            check_engines(out, input, &engines, &maps, "serial drive");
            if reps == 0 {
                counts[a] = (cycles, skipped, pu_cycles);
            } else {
                out.check(counts[a] == (cycles, skipped, pu_cycles), || {
                    format!(
                        "{} serial drive: cycle counts changed between repeats",
                        input.short
                    )
                });
            }

            let (mut engines, maps) = build_system_engines(&unit, &refs, &input.cfg);
            let t = Instant::now();
            for eng in engines.iter_mut() {
                if let Err(e) = eng.run_channel(input.cfg.max_cycles, Some(&pool), workers) {
                    out.check(false, || {
                        format!("{} pooled drive failed: {e:?}", input.short)
                    });
                    return;
                }
            }
            pooled_s[a].push(t.elapsed().as_secs_f64());
            let pooled_cycles: u64 = engines.iter().map(|e| e.stats().cycles).sum();
            out.check(pooled_cycles == cycles, || {
                format!(
                    "{} pooled drive simulated {pooled_cycles} cycles, serial {cycles}",
                    input.short
                )
            });
            check_engines(out, input, &engines, &maps, "pooled drive");
            drop(engines);

            let t = Instant::now();
            let plain = run_system(&input.spec, &input.streams, &input.cfg);
            plain_wall += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let traced = run_system_traced(&input.spec, &input.streams, &input.cfg);
            traced_wall += t.elapsed().as_secs_f64();
            match (plain, traced) {
                (Ok(p), Ok(tr)) => {
                    let (fp, wrong) = check_report(out, input, &p, "run_system");
                    let (fp_traced, _) = check_report(out, input, &tr, "run_system_traced");
                    if reps == 0 {
                        out.failed += wrong;
                    }
                    out.check(fp == fp_traced, || {
                        format!("{}: tracing changed the simulated results", input.short)
                    });
                    let trace = tr.trace.as_ref().expect("traced run carries a trace");
                    let attr = trace.attribution();
                    let dram = trace.dram_totals();
                    let row_ops = (dram.row_hits + dram.row_misses).max(1);
                    traced_stats[a] = [
                        attr.busy,
                        attr.input_stalled,
                        attr.output_stalled,
                        dram.row_hits as f64 / row_ops as f64,
                        trace.bus_utilization(),
                    ];
                }
                (Err(e), _) | (_, Err(e)) => {
                    out.check(false, || format!("{} run_system failed: {e}", input.short));
                    out.failed = out.attempted;
                    return;
                }
            }
        }
        overhead.push(traced_wall / plain_wall - 1.0);
        reps += 1;
    }

    for (a, input) in inputs.iter().enumerate() {
        let s = input.short;
        let (cycles, skipped, pu_cycles) = counts[a];
        let speedups: Vec<f64> = serial_s[a]
            .iter()
            .zip(&pooled_s[a])
            .map(|(s, p)| s / p)
            .collect();
        let per_pu_cycle: Vec<f64> = serial_s[a]
            .iter()
            .map(|w| w * 1e9 / pu_cycles.max(1) as f64)
            .collect();
        let [busy, stall_in, stall_out, row_hit, bus] = traced_stats[a];
        out.metrics.extend([
            Metric::sampled(format!("engine.build_ms.{s}"), "ms", &build_ms[a]),
            Metric::sampled(format!("engine.run_serial_s.{s}"), "s", &serial_s[a]),
            Metric::sampled(format!("engine.run_pooled_s.{s}"), "s", &pooled_s[a]),
            Metric::sampled(format!("engine.pool_speedup.{s}"), "ratio", &speedups),
            Metric::exact(format!("engine.sim_cycles.{s}"), "count", cycles as f64),
            Metric::exact(
                format!("engine.cycles_skipped.{s}"),
                "count",
                skipped as f64,
            ),
            Metric::sampled(format!("engine.ns_per_pu_cycle.{s}"), "ns", &per_pu_cycle),
            Metric::exact(format!("engine.pu_busy_frac.{s}"), "frac", busy),
            Metric::exact(format!("engine.pu_stall_in_frac.{s}"), "frac", stall_in),
            Metric::exact(format!("engine.pu_stall_out_frac.{s}"), "frac", stall_out),
            Metric::exact(format!("dram.row_hit_frac.{s}"), "frac", row_hit),
            Metric::exact(format!("dram.bus_util.{s}"), "frac", bus),
        ]);
    }
    out.metrics
        .push(Metric::sampled("trace.overhead_frac", "frac", &overhead));
    out.notes.push(("repeats".into(), reps.to_string()));
    out.notes.push(("pool_workers".into(), workers.to_string()));
}
