//! `serve-mixed`: an open loop on the virtual clock through
//! `Host::serve_arrivals` on `nproc` instances under `edf`.
//! Heavy-tailed, deadline-bearing Bloom jobs arrive in flash crowds
//! next to long-lived, credit-backpressured Regex sessions, at a load
//! near saturation so scheduling quality shows in goodput and p99. The
//! engine runs as many small batches and resumable `OpenRun`s, so a
//! change that speeds up large runs but slows batch launch or session
//! resume shows here and not in `system-apps`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fleet_apps::{App, AppKind};
use fleet_compiler::CompiledUnit;
use fleet_host::arrival::SessionOpen;
use fleet_host::{Arrival, Host, HostConfig, Job, MixedArrivals, PolicyKind, ServiceReport};
use fleet_lang::UnitSpec;
use fleet_system::{Instance, OpenStatus, SimPool};

use crate::gen::{heavy_tailed, Fnv, Rng};
use crate::stats::percentile;
use crate::{nproc, peak_rss_mb, Metric, Outcome, Setup, Window};

/// One-shot jobs offered per serve: enough that the exact p99 has at
/// least ten samples above it.
const JOBS: usize = 1500;
/// Offered job rate per instance, in jobs per virtual second: about
/// 85% of the rate at which `edf` starts shedding on this mix.
const RATE_PER_INSTANCE: f64 = 60_000.0;
/// Every `BURST_EVERY`-th base arrival brings `BURST_SIZE` small jobs
/// at the same instant.
const BURST_EVERY: usize = 10;
const BURST_SIZE: usize = 8;
const MIN_JOB_BYTES: usize = 64;
const MAX_JOB_BYTES: usize = 8 * 1024;
/// Deadline = arrival + flat slack + per-byte slack.
const SLACK_US: u64 = 1000;
const SLACK_NS_PER_BYTE: u64 = 40;
const TENANTS: u32 = 8;
/// Long-lived sessions per serve, each appending `CHUNKS` chunks.
const SESSIONS: usize = 160;
const CHUNKS: usize = 6;
const MIN_CHUNK: usize = 16;
const MAX_CHUNK: usize = 2048;
/// Every `STARVE_EVERY`-th session gets a credit of one small chunk,
/// so its larger appends bounce with backpressure.
const STARVE_EVERY: usize = 4;
const STARVED_CREDIT: usize = 64;
const CREDIT: usize = 64 * 1024;
const EVICT_US: u64 = 500;
/// Fewest serves per run (each also gives one set-up sample).
const MIN_PASSES: usize = 3;

struct Workload {
    instances: usize,
    events: Vec<Arrival>,
    /// Per job id: its stream and golden output.
    jobs: Vec<(Vec<u8>, Vec<u8>)>,
    /// Per session id: its chunks in append order and the golden output
    /// of all of them.
    sessions: Vec<(Vec<Vec<u8>>, Vec<u8>)>,
    bloom: Arc<UnitSpec>,
    regex: Arc<UnitSpec>,
}

fn workload(seed: u64) -> Workload {
    let instances = nproc();
    let bloom_app = App::new(AppKind::Bloom);
    let regex_app = App::new(AppKind::Regex);
    let bloom = Arc::new(bloom_app.spec());
    let regex = Arc::new(regex_app.spec());
    let token = (bloom.input_token_bits as usize / 8).max(1);

    let mut rng = Rng::new(seed ^ 0x5e12_e0b5);
    let mut events = Vec::new();
    let mut jobs = Vec::with_capacity(JOBS);
    // Base arrivals over a fixed horizon; every BURST_EVERY-th brings a
    // flash crowd of BURST_SIZE small jobs at the same instant.
    let horizon_us = JOBS as f64 / (RATE_PER_INSTANCE * instances as f64) * 1e6;
    let bases = (JOBS * BURST_EVERY).div_ceil(BURST_EVERY + BURST_SIZE);
    let sizes = rng.strata(bases);
    for (b, at) in rng.arrivals(bases, horizon_us).into_iter().enumerate() {
        let members = if (b + 1) % BURST_EVERY == 0 {
            1 + BURST_SIZE
        } else {
            1
        };
        for m in 0..members.min(JOBS - jobs.len()) {
            let id = jobs.len() as u64;
            let len = if m == 0 {
                heavy_tailed(sizes[b], MIN_JOB_BYTES, MAX_JOB_BYTES, token)
            } else {
                heavy_tailed(rng.unit(), MIN_JOB_BYTES, MIN_JOB_BYTES * 4, token)
            };
            let stream = bloom_app.gen_stream(rng.next_u64(), len);
            let deadline = at + SLACK_US + stream.len() as u64 * SLACK_NS_PER_BYTE / 1000;
            let tenant = rng.below(u64::from(TENANTS)) as u32;
            jobs.push((stream.clone(), bloom_app.golden(&stream)));
            events.push(Arrival::Job(
                Job::new(id, tenant, bloom.clone(), vec![stream])
                    .with_arrival(at)
                    .with_deadline(deadline),
            ));
        }
    }

    // Sessions open in the first half of the horizon and append their
    // chunks across the rest of it.
    let horizon = horizon_us as u64;
    let chunk_sizes = rng.strata(SESSIONS * CHUNKS);
    let mut sessions = Vec::with_capacity(SESSIONS);
    for s in 0..SESSIONS {
        let opened = rng.below(horizon / 2 + 1);
        let gap = (horizon / 2 / CHUNKS as u64).max(1);
        let mut at = opened;
        let mut chunks = Vec::with_capacity(CHUNKS);
        for c in 0..CHUNKS {
            at += 1 + rng.below(gap);
            let len = heavy_tailed(chunk_sizes[s * CHUNKS + c], MIN_CHUNK, MAX_CHUNK, 1);
            let bytes = regex_app.gen_stream(rng.next_u64(), len);
            events.push(Arrival::Append {
                session: s as u64,
                stream: 0,
                bytes: bytes.clone(),
                at_us: at,
            });
            chunks.push(bytes);
        }
        let total: usize = chunks.iter().map(Vec::len).sum();
        let credit = if s % STARVE_EVERY == 0 {
            STARVED_CREDIT
        } else {
            CREDIT
        };
        events.push(Arrival::Open(SessionOpen {
            id: s as u64,
            tenant: s as u32 % TENANTS,
            spec: regex.clone(),
            cfg: fleet_host::SessionConfig {
                streams: 1,
                stream_capacity: total,
                credit_bytes: credit,
                out_capacity: 2 * total.max(512),
            },
            at_us: opened,
        }));
        events.push(Arrival::Close {
            session: s as u64,
            at_us: at + 1,
        });
        let golden = regex_app.golden(&chunks.concat());
        sessions.push((chunks, golden));
    }
    Workload {
        instances,
        events,
        jobs,
        sessions,
        bloom,
        regex,
    }
}

fn host_config(instances: usize) -> HostConfig {
    let mut cfg = HostConfig::new(instances);
    cfg.policy = PolicyKind::Edf;
    cfg.max_jobs_per_batch = 64;
    cfg.session_idle_evict_us = EVICT_US;
    for t in 0..TENANTS {
        cfg.weights.push((t, 1 + t % 3));
    }
    cfg
}

/// Checks one serve's outputs and accounting; returns the fingerprint
/// of everything it simulated and the number of failed operations
/// (jobs refused, shed or failed; sessions failed; wrong outputs).
fn check_serve(out: &mut Outcome, w: &Workload, report: &ServiceReport) -> (u64, u64) {
    let resolved = report.completed.len() + report.rejected.len() + report.failed.len();
    out.check(resolved == w.jobs.len(), || {
        format!("{resolved} jobs resolved of {} offered", w.jobs.len())
    });
    out.check(report.sessions.len() == w.sessions.len(), || {
        format!(
            "{} sessions reported of {}",
            report.sessions.len(),
            w.sessions.len()
        )
    });
    let mut failed = (report.rejected.len() + report.failed.len()) as u64;
    let mut fp = Fnv::new().bytes(report.to_json().as_bytes());
    for job in &report.completed {
        let right = job.outputs.len() == 1 && job.outputs[0] == w.jobs[job.id as usize].1;
        out.check(right, || {
            format!("job {} output differs from golden", job.id)
        });
        failed += u64::from(!right);
        fp = fp.u64(job.id).bytes(&job.outputs.concat());
    }
    for s in &report.sessions {
        let completed = s.outcome == "completed";
        out.check(!s.outcome.starts_with("force"), || {
            format!("session {} was force-closed", s.id)
        });
        // A refused append drops its chunk, so only sessions that kept
        // every chunk have a golden output to compare with.
        let right = !completed
            || s.backpressure > 0
            || (s.outputs.len() == 1 && s.outputs[0] == w.sessions[s.id as usize].1);
        out.check(right, || {
            format!("session {} output differs from golden", s.id)
        });
        failed += u64::from(!completed || !right);
        fp = fp.u64(s.id).bytes(&s.outputs.concat());
    }
    (fp.finish(), failed)
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let w = workload(seed);
    let mut out = Outcome {
        attempted: (w.jobs.len() + w.sessions.len()) as u64,
        ..Outcome::default()
    };
    let mut setup = Setup::default();
    let window = Window::new(seconds);
    let mut walls = Vec::new();
    let mut reference: Option<(u64, ServiceReport)> = None;
    let mut replay_ms: Vec<f64> = Vec::new();
    let mut engine_share = Vec::new();
    let mut session_ms = Vec::new();
    let mut overhead = Vec::new();
    let mut passes = 0;
    while window.more(passes, MIN_PASSES) {
        // A fresh host per serve: the predictor learns within a serve,
        // so only a fresh host repeats the same simulation.
        let mut host = setup.time(&[&w.bloom, &w.regex], || {
            Host::new(host_config(w.instances))
        });
        let events = w.events.clone();
        let t = Instant::now();
        let report = host.serve_arrivals(MixedArrivals::new(events));
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        let (fp, failed) = check_serve(&mut out, &w, &report);
        match &reference {
            None => {
                out.failed = failed;
                reference = Some((fp, report));
            }
            Some((first, _)) => out.check(*first == fp, || {
                format!("serve {passes}: simulated results differ from serve 0")
            }),
        }
        if trace {
            let (_, first) = reference.as_ref().expect("set by the first serve");
            let (batches, total) = replay_batches(&mut out, &w, first);
            replay_ms.extend(batches);
            engine_share.push(total / wall);
            session_ms.push(replay_sessions(&mut out, &w));
            // The serve carries no in-program tracing yet: its traced
            // twin is the same call inside this file's spans, so the
            // overhead should read as noise around zero.
            let mut host = Host::new(host_config(w.instances));
            let events = w.events.clone();
            let t = Instant::now();
            std::hint::black_box(host.serve_arrivals(MixedArrivals::new(events)));
            overhead.push(t.elapsed().as_secs_f64() / wall - 1.0);
        }
        passes += 1;
    }
    let (fp, report) = reference.expect("at least one serve");
    let c = &report.counters;
    out.metrics = setup.metrics(trace);

    if trace {
        out.metrics.extend([
            Metric::exact("host.batches", "count", c.batches_packed as f64),
            Metric::exact("host.slot_fill", "frac", c.slot_fill()),
            Metric::exact("host.deferred", "count", c.deferred as f64),
            Metric::exact("host.shed", "count", c.shed_predicted as f64),
            Metric::exact(
                "host.batch_replay_ms_p50",
                "ms",
                percentile(&replay_ms, 50.0).value,
            ),
            Metric::exact(
                "host.batch_replay_ms_p99",
                "ms",
                percentile(&replay_ms, 99.0).value,
            ),
            Metric::sampled("host.engine_share", "frac", &engine_share),
            Metric::exact("session.advances", "count", c.sessions.advances as f64),
            Metric::exact(
                "session.backpressure",
                "count",
                c.sessions.backpressure as f64,
            ),
            Metric::exact("session.evictions", "count", c.sessions.evictions as f64),
            Metric::sampled("session.advance_ms", "ms", &session_ms),
            Metric::sampled("trace.overhead_frac", "frac", &overhead),
        ]);
        out.notes
            .push(("replayed_batches".into(), replay_ms.len().to_string()));
        return out;
    }

    let job_bytes: u64 = report.completed.iter().map(|j| j.input_bytes).sum();
    let bytes = job_bytes + c.sessions.append_bytes;
    out.metrics.extend([
        Metric::rate("input_mb_per_s", "MB/s", bytes as f64 / 1e6, &walls),
        Metric::rate("jobs_per_s", "1/s", report.completed.len() as f64, &walls),
        Metric::exact("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::exact(
            "modelled_gbps",
            "GB/s",
            bytes as f64 / report.makespan_us as f64 / 1e3,
        ),
        Metric::exact("goodput_jobs_per_vs", "1/vs", report.goodput_jobs_per_sec()),
    ]);

    // Exact percentiles over every completed job's record, arrival to
    // completion on the virtual clock.
    let latencies: Vec<u64> = report
        .completed
        .iter()
        .map(|j| j.completed_us - j.arrival_us)
        .collect();
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    out.extra
        .push(Metric::exact("virtual_p50_us", "us", p50.value as f64));
    if p99.above >= 10 {
        out.extra
            .push(Metric::exact("virtual_p99_us", "us", p99.value as f64));
    }
    out.extra.push(Metric::exact(
        "failed_frac",
        "frac",
        out.failed as f64 / out.attempted as f64,
    ));
    out.notes.extend([
        (
            "latency_samples".into(),
            format!("{} ({} above p99)", p99.samples, p99.above),
        ),
        ("instances".into(), w.instances.to_string()),
        ("serves".into(), passes.to_string()),
        ("deadline_misses".into(), c.deadline_misses.to_string()),
        ("rejected".into(), report.rejected.len().to_string()),
        ("shed".into(), c.shed_predicted.to_string()),
        ("makespan_us".into(), report.makespan_us.to_string()),
        ("fingerprint".into(), format!("{fp:016x}")),
    ]);
    out
}

/// Rebuilds every batch from the report's per-job `(instance,
/// started_us)` records and replays it alone through
/// `Instance::run_compiled`, checking it reproduces the serve's outputs
/// and run time. Returns per-batch wall ms and their total in seconds.
fn replay_batches(out: &mut Outcome, w: &Workload, report: &ServiceReport) -> (Vec<f64>, f64) {
    let mut batches: BTreeMap<(usize, u64), Vec<&fleet_host::CompletedJob>> = BTreeMap::new();
    for job in &report.completed {
        batches
            .entry((job.instance, job.started_us))
            .or_default()
            .push(job);
    }
    let cfg = host_config(w.instances);
    let pool = Arc::new(SimPool::new(cfg.system.sim_threads));
    let mut inst = Instance::new(0, cfg.system).with_pool(pool);
    let unit = CompiledUnit::from_arc(w.bloom.clone());
    let mut ms = Vec::with_capacity(batches.len());
    let mut total = 0.0;
    for members in batches.values_mut() {
        members.sort_by_key(|j| (j.completed_us, j.id));
        let streams: Vec<&[u8]> = members
            .iter()
            .map(|j| w.jobs[j.id as usize].0.as_slice())
            .collect();
        let out_cap = streams
            .iter()
            .map(|s| s.len() * 2)
            .max()
            .unwrap_or(0)
            .max(1024);
        let t = Instant::now();
        let result = inst.run_compiled(&unit, &streams, out_cap);
        let wall = t.elapsed().as_secs_f64();
        total += wall;
        ms.push(wall * 1e3);
        match result {
            Ok(r) => {
                let run_us = (r.seconds * 1e6).ceil() as u64;
                for (job, got) in members.iter().zip(&r.outputs) {
                    out.check(
                        job.outputs[0] == *got && job.latency.run_us == run_us,
                        || format!("replayed batch of job {} differs from the serve", job.id),
                    );
                }
            }
            Err(e) => out.check(false, || format!("batch replay failed: {e}")),
        }
    }
    (ms, total)
}

/// Replays every session's chunks through `Instance::open_run`,
/// appending and advancing chunk by chunk with no credit limit, and
/// checks each against the golden output. Returns total wall ms.
fn replay_sessions(out: &mut Outcome, w: &Workload) -> f64 {
    let cfg = host_config(w.instances);
    let pool = Arc::new(SimPool::new(cfg.system.sim_threads));
    let inst = Instance::new(0, cfg.system).with_pool(pool);
    let unit = CompiledUnit::from_arc(w.regex.clone());
    let mut total = 0.0;
    for (s, (chunks, golden)) in w.sessions.iter().enumerate() {
        let bytes: usize = chunks.iter().map(Vec::len).sum();
        let t = Instant::now();
        let mut run = inst.open_run(&unit, &[bytes], 2 * bytes.max(512));
        let mut ok = true;
        for chunk in chunks {
            run.append(0, chunk);
            ok &= run.advance().is_ok();
        }
        // Once closed, the run must finish in one more quantum.
        ok &= run.close(0).is_ok() && run.advance().is_ok_and(|r| r.status == OpenStatus::Done);
        total += t.elapsed().as_secs_f64();
        out.check(ok && run.full_output(0) == *golden, || {
            format!("session {s} replay differs from golden")
        });
    }
    total * 1e3
}
