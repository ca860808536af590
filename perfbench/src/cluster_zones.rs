//! `cluster-zones`: `Cluster::run` on the Model backend, 8 hosts × 8
//! instances, fed by a lazy arrival source at about one million jobs
//! per virtual second that brings a demand rush and two zone wedge
//! bursts. The engine does nothing here: routing, autoscaling,
//! failover and the host queue/pack/predictor do everything, so an
//! engine-only change should leave every number here unchanged.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fleet_apps::{App, AppKind};
use fleet_cluster::{Backend, Cluster, ClusterConfig, ClusterReport, FaultBurst, JobSource};
use fleet_host::{pack_batch_policy, CostModel, Job, PolicyKind, Predictor, SubmitQueue};
use fleet_lang::UnitSpec;
use fleet_system::{max_units, FaultPlan};

use crate::gen::{mix, Fnv};
use crate::{peak_rss_mb, Metric, Outcome, Setup, Window};

/// Jobs offered per cluster run (one arrival per ~1 virtual µs).
const JOBS: u64 = 400_000;
const HOSTS: usize = 8;
const INSTANCES: usize = 8;
const MIN_BYTES: usize = 2048;
const MAX_BYTES: usize = 8192;
/// Jobs taken from the head of the source to time the predictor and
/// the packer in isolation.
const SAMPLE_JOBS: u64 = 4096;
const MIN_PASSES: usize = 3;

fn specs() -> Vec<(Arc<UnitSpec>, usize)> {
    [AppKind::Bloom, AppKind::Regex, AppKind::Json]
        .iter()
        .map(|&k| {
            let spec = Arc::new(App::new(k).spec());
            let tok = (spec.input_token_bits as usize).div_ceil(8);
            (spec, tok)
        })
        .collect()
}

/// The lazy open-loop source: arrivals 0–2 µs apart, three specs, 4×
/// larger jobs through the demand rush (40–55% of the run). Jobs carry
/// zeroed streams: the Model backend reads only their length.
struct Source {
    specs: Vec<(Arc<UnitSpec>, usize)>,
    seed: u64,
    jobs: u64,
    next: u64,
    t_us: u64,
    bytes: u64,
}

impl Source {
    fn new(seed: u64, jobs: u64) -> Source {
        Source {
            specs: specs(),
            seed,
            jobs,
            next: 0,
            t_us: 0,
            bytes: 0,
        }
    }
}

impl JobSource for Source {
    fn next_job(&mut self) -> Option<(u64, Job)> {
        if self.next == self.jobs {
            return None;
        }
        let id = self.next;
        self.next += 1;
        let h = mix(self.seed ^ mix(id));
        self.t_us += h % 3;
        let (spec, tok) = &self.specs[(mix(h ^ 0x5bec) % self.specs.len() as u64) as usize];
        let rush = id * 20 >= self.jobs * 8 && id * 20 < self.jobs * 11;
        let scale = if rush { 4 } else { 1 };
        let span = (MAX_BYTES - MIN_BYTES + 1) as u64;
        let raw = scale * (MIN_BYTES + (mix(h ^ 0x1e9) % span) as usize);
        let len = raw.div_ceil(*tok).max(1) * tok;
        self.bytes += len as u64;
        let tenant = (h >> 32) as u32 % 6;
        Some((
            self.t_us,
            Job::new(id, tenant, spec.clone(), vec![vec![0u8; len]]),
        ))
    }
}

fn config() -> ClusterConfig {
    // The horizon is about one virtual µs per job.
    let horizon_us = JOBS;
    let mut cfg = ClusterConfig::new(HOSTS, INSTANCES);
    // The Model backend's hidden per-spec slowdown and the zone fault
    // plan are fixed parts of the scenario; the benchmark seed drives
    // only the job stream. (Derived from the seed, they moved the
    // backlog, and with it peak RSS, by ±10% between seeds.)
    cfg.backend = Backend::Model { seed: 42 };
    cfg.max_jobs_per_batch = 4;
    cfg.max_instances_per_host = INSTANCES + 8;
    cfg.min_instances_per_host = INSTANCES / 2;
    cfg.queue_capacity = 2048;
    cfg.system.watchdog_cycles = 50_000;
    cfg.retry_limit = 4;
    cfg.retry_backoff_us = 100;
    cfg.quarantine_after = 2;
    cfg.replace_after_us = (horizon_us / 40).max(10_000);
    cfg.scale_eval_period_us = 250;
    cfg.scale_up_queue = 4;
    cfg.scale_up_streak = 2;
    cfg.scale_down_streak = 40;
    cfg.power_budget_mw = 2_000_000;
    let fault_seed = 7;
    let zone = |start_pct: u64, lo: usize, seed: u64| FaultBurst {
        start_us: horizon_us * start_pct / 100,
        end_us: horizon_us * (start_pct + 5) / 100,
        host_lo: lo,
        host_hi: lo + 1,
        plan: FaultPlan::with_seed(seed).wedges(1_000_000, 64),
    };
    cfg.bursts = vec![
        zone(20, 0, fault_seed),
        zone(60, 4, fault_seed.wrapping_add(1)),
    ];
    cfg
}

fn check_report(out: &mut Outcome, report: &ClusterReport, offered: u64) -> u64 {
    out.check(report.offered == offered, || {
        format!(
            "cluster saw {} jobs, source offered {offered}",
            report.offered
        )
    });
    let resolved = report.completed + report.failed + report.rejected;
    out.check(resolved == report.offered, || {
        format!(
            "jobs not conserved: {} completed + {} failed + {} rejected != {} offered",
            report.completed, report.failed, report.rejected, report.offered
        )
    });
    Fnv::new().bytes(report.to_json().as_bytes()).finish()
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome {
        attempted: JOBS,
        ..Outcome::default()
    };
    let specs = specs();
    let spec_refs: Vec<&Arc<UnitSpec>> = specs.iter().map(|(s, _)| s).collect();
    let mut setup = Setup::default();
    let window = Window::new(seconds);
    let mut walls = Vec::new();
    let mut reference: Option<(u64, ClusterReport, u64)> = None;
    let mut predict_ns = Vec::new();
    let mut pack_us = Vec::new();
    let mut overhead = Vec::new();
    let mut passes = 0;
    while window.more(passes, MIN_PASSES) {
        let cluster = setup.time(&spec_refs, || Cluster::new(config()));
        let mut source = Source::new(seed, JOBS);
        let t = Instant::now();
        let report = cluster.run(&mut source);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        let fp = check_report(&mut out, &report, source.next);
        match &reference {
            None => {
                out.failed = report.failed + report.rejected;
                reference = Some((fp, report, source.bytes));
            }
            Some((first, _, _)) => out.check(*first == fp, || {
                format!("run {passes}: cluster report differs from run 0")
            }),
        }
        if trace {
            let (p, k) = time_host_layers(&mut out, seed);
            predict_ns.push(p);
            pack_us.push(k);
            // The cluster carries no in-program tracing yet: its traced
            // twin is the same call inside this file's spans, so the
            // overhead should read as noise around zero.
            let cluster = Cluster::new(config());
            let mut source = Source::new(seed, JOBS);
            let t = Instant::now();
            std::hint::black_box(cluster.run(&mut source));
            overhead.push(t.elapsed().as_secs_f64() / wall - 1.0);
        }
        passes += 1;
    }
    let (fp, report, bytes) = reference.expect("at least one run");
    let virtual_s = report.virtual_us.max(1) as f64 / 1e6;
    out.metrics = setup.metrics(trace);

    if trace {
        let cc = &report.cluster;
        out.metrics.extend([
            Metric::sampled("host.predict_ns", "ns", &predict_ns),
            Metric::sampled("host.pack_us", "us", &pack_us),
            Metric::exact("cluster.routed", "count", cc.routed as f64),
            Metric::exact("cluster.reroutes", "count", cc.reroutes as f64),
            Metric::exact("cluster.scale_ups", "count", cc.scale_ups as f64),
            Metric::exact(
                "cluster.warm_hit_frac",
                "frac",
                cc.warm_hits as f64 / cc.routed.max(1) as f64,
            ),
            // From the unvalidated Model surrogate through the sampling
            // `LatencyStats` buffer: recorded, never gated.
            Metric::exact("cluster.model_p99_us", "us", report.latency.p99() as f64),
            Metric::sampled("trace.overhead_frac", "frac", &overhead),
        ]);
        return out;
    }

    // Completed bytes are exact when every offered job completed, which
    // a run without failures guarantees.
    let done_bytes = bytes as f64 * report.completed as f64 / report.offered.max(1) as f64;
    out.metrics.extend([
        Metric::rate("input_mb_per_s", "MB/s", done_bytes / 1e6, &walls),
        Metric::rate("jobs_per_s", "1/s", report.completed as f64, &walls),
        Metric::exact("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::exact("modelled_gbps", "GB/s", done_bytes / virtual_s / 1e9),
        Metric::exact(
            "goodput_jobs_per_vs",
            "1/vs",
            report.completed as f64 / virtual_s,
        ),
    ]);
    out.extra.push(Metric::exact(
        "failed_frac",
        "frac",
        out.failed as f64 / out.attempted as f64,
    ));
    out.notes.extend([
        ("runs".into(), passes.to_string()),
        ("virtual_us".into(), report.virtual_us.to_string()),
        ("completed".into(), report.completed.to_string()),
        ("failed".into(), report.failed.to_string()),
        ("rejected".into(), report.rejected.to_string()),
        ("fingerprint".into(), format!("{fp:016x}")),
    ]);
    out
}

/// Times the host-layer calls the cluster makes per job and per batch,
/// on the head of this workload's own job stream: the predictor's
/// run-time estimate (ns per call, on learned models) and the packer
/// (µs per packed batch, first-fit as the cluster packs).
fn time_host_layers(out: &mut Outcome, seed: u64) -> (f64, f64) {
    let cfg = config();
    let mut source = Source::new(seed, SAMPLE_JOBS);
    let mut jobs = Vec::new();
    while let Some((at, job)) = source.next_job() {
        jobs.push(job.with_arrival(at));
    }
    let mut pred = Predictor::new(cfg.system.platform.clock_hz as u64);
    let mut learned = BTreeMap::new();
    for job in &jobs {
        learned.entry(job.spec_key.clone()).or_insert_with(|| {
            let bytes = job.streams[0].len() as u64;
            pred.observe(
                0,
                0,
                &job.spec_key,
                &job.spec,
                bytes,
                bytes / 500 + 1,
                bytes,
                bytes,
            );
        });
    }
    pred.apply_due(0);

    let calls = 64;
    let t = Instant::now();
    let mut sum = 0u64;
    for _ in 0..calls {
        for job in &jobs {
            let max = job.streams[0].len() as u64;
            sum = sum.wrapping_add(pred.predict_run_us(&job.spec_key, &job.spec, max));
        }
    }
    std::hint::black_box(sum);
    let predict_ns = t.elapsed().as_secs_f64() * 1e9 / (calls * jobs.len()) as f64;

    let slots: BTreeMap<Arc<str>, usize> = jobs
        .iter()
        .map(|j| {
            let fit = max_units(&j.spec, &cfg.system.platform, &cfg.system.memctl) as usize;
            (j.spec_key.clone(), fit.clamp(1, cfg.pu_slot_cap.max(1)))
        })
        .collect();
    let policy = PolicyKind::FirstFit.build();
    let model = CostModel {
        pack_us_fixed: 5,
        pack_us_per_stream: 1,
        drain_us_per_kib: 1,
        defer_cap_us: 0,
    };
    let mut queue = SubmitQueue::new(jobs.len());
    for job in &jobs {
        out.check(queue.submit(job.clone(), job.arrival_us).is_ok(), || {
            format!("packer sample: job {} refused by the queue", job.id)
        });
    }
    let now = jobs.last().map_or(0, |j| j.arrival_us);
    let (mut counters, mut rejected, mut batches) = (Default::default(), Vec::new(), 0u64);
    let t = Instant::now();
    while let Some(batch) = pack_batch_policy(
        &mut queue,
        now,
        &mut |j: &Job| slots[&j.spec_key],
        cfg.max_jobs_per_batch,
        &*policy,
        &pred,
        &model,
        &mut counters,
        &mut rejected,
    ) {
        batches += 1;
        std::hint::black_box(batch);
    }
    let pack_us = t.elapsed().as_secs_f64() * 1e6 / batches.max(1) as f64;
    out.check(rejected.is_empty() && queue.is_empty(), || {
        format!(
            "packer sample: {} jobs rejected, {} left queued",
            rejected.len(),
            queue.len()
        )
    });
    (predict_ns, pack_us)
}
