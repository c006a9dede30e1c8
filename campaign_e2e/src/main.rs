//! `campaign_e2e`: whole-campaign benchmark of fuzzyflow over the paper
//! suite.
//!
//! ```text
//! campaign_e2e --workload <campaign_cold|campaign_warm|campaign_evolve>
//!              [--seed N] [--seconds S] [--trace 0|1]
//! campaign_e2e --write-key                # print a fresh answer key
//! ```
//!
//! Campaigns run through the public `Campaign`/`Session` API at the
//! program's defaults, single-threaded. The workload seed feeds
//! `VerifyConfig::with_seed` and `EvolveConfig::with_seed`; `--seconds`
//! fixes the number of timed passes (see `Workload::passes`), so two
//! builds of the program always run the same work in one process.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. It
//! verifies the campaign under `--seed` and `SEEDS_PER_RUN - 1` seeds
//! derived from it, one campaign per seed, and takes turns between them,
//! because which faults surface early depends on the seed. A traced run
//! (`--trace 1`) uses `--seed` alone and interleaves untraced session
//! passes with a staged, span-timed replay of the same instances to
//! report the per-layer metrics. Every pass checks each verdict against
//! the answer key and each report against the set-up pass's; the last
//! line of standard output is one JSON object with the result.
//!
//! Every end-to-end timing is reported at a nominal host speed: each
//! sample is scaled by the host-speed probe timed next to it (see
//! `probe`). The raw wall times are printed beside them.
//!
//! Verdict times are reported at the 75th and 90th percentiles. On the
//! warm and evolve workloads 44–52% of the instances finish within a few
//! trials and the rest run their whole budget, so the median instance
//! sits on the edge between the two groups and moves with the seed's
//! luck; the median is printed, not gated.

mod key;
mod probe;
mod replay;
mod stats;
mod suite;

use fuzzyflow::evo::rng_split;
use fuzzyflow::interp::{cache_capacity, shared::DEFAULT_CACHE_CAPACITY};
use fuzzyflow::session::{Event, EventSink, InstanceReport, NullSink, Session};
use fuzzyflow::CampaignReport;
use key::{instance_keys, AnswerKey, InstanceKey};
use replay::{CacheCounters, Outcome, PassTrace, Replay};
use stats::{median, metric, quantile, Metric};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;
use suite::{Program, Workload};

/// Set-up samples per untraced run: this process's set-up of its first
/// seed's campaign, plus `SETUP_SAMPLES - 1` child processes that each set
/// up one campaign, taking the run's seeds in turn. The children are
/// spread evenly between the timed passes, so that one slow spell of the
/// host does not fall on all of them.
const SETUP_SAMPLES: usize = 8;

/// Campaign seeds an untraced run pools (see the module docs).
const SEEDS_PER_RUN: usize = 4;

/// `seed` followed by `SEEDS_PER_RUN - 1` seeds derived from it.
fn run_seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS_PER_RUN as u64)
        .map(|k| if k == 0 { seed } else { rng_split(seed, k) })
        .collect()
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    write_key: bool,
    /// Answer key to check against instead of the shipped one.
    key: Option<PathBuf>,
    /// Verify only the first N instances of the work list.
    limit: Option<usize>,
    /// Traced runs: write every span to this file as JSON lines.
    spans: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => s.replace('_', "").parse(),
    };
    parsed.map_err(|_| format!("not an unsigned integer: {s}"))
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0x5EED_F00D,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        write_key: false,
        key: None,
        limit: None,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = parse_u64(&value()?)?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?
            }
            "--trace" => a.trace = parse_u64(&value()?)? != 0,
            "--setup-only" => a.setup_only = true,
            "--write-key" => a.write_key = true,
            "--key" => a.key = Some(PathBuf::from(value()?)),
            "--limit" => a.limit = Some(parse_u64(&value()?)? as usize),
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_none() && !a.write_key {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

/// Timestamps every instance from `InstanceStarted` to `InstanceFinished`.
#[derive(Default)]
struct VerdictClock {
    open: Mutex<HashMap<usize, Instant>>,
    ms: Mutex<Vec<f64>>,
}

impl EventSink for VerdictClock {
    fn on_event(&self, event: &Event) {
        match event {
            Event::InstanceStarted { index, .. } => {
                let mut open = self.open.lock().expect("clock poisoned");
                open.insert(*index, Instant::now());
            }
            Event::InstanceFinished { index, .. } => {
                let started = self.open.lock().expect("clock poisoned").remove(index);
                if let Some(t) = started {
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    self.ms.lock().expect("clock poisoned").push(ms);
                }
            }
            _ => {}
        }
    }
}

/// The untraced side: one session pass at a time, as a user runs them.
struct Bench<'a> {
    w: Workload,
    seeds: Vec<u64>,
    programs: &'a [Program],
    limit: Option<usize>,
    /// Warm and evolve workloads: per seed, the one session every pass
    /// under that seed re-runs.
    sessions: Vec<Option<Session>>,
}

impl<'a> Bench<'a> {
    fn new(w: Workload, seeds: Vec<u64>, programs: &'a [Program], limit: Option<usize>) -> Self {
        Bench {
            w,
            sessions: seeds.iter().map(|_| None).collect(),
            seeds,
            programs,
            limit,
        }
    }

    /// One pass under seed `k`; cold workloads build a fresh campaign and
    /// session, the others re-run the session built by the seed's first
    /// pass. A panic is returned as its message.
    fn pass(&mut self, k: usize, sink: &dyn EventSink) -> Result<CampaignReport, String> {
        catch_unwind(AssertUnwindSafe(|| {
            let (w, seed) = (self.w, self.seeds[k]);
            let fresh = || suite::campaign(w, self.programs, seed, self.limit).session();
            if w.is_cold() {
                return fresh().run(sink);
            }
            self.sessions[k].get_or_insert_with(fresh).run(sink)
        }))
        .map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string())
        })
    }
}

fn report_keys(report: &CampaignReport) -> Vec<InstanceKey> {
    instance_keys(report.instances.iter().map(|r| {
        (
            r.workload.as_str(),
            r.transformation.as_str(),
            r.match_description.as_str(),
        )
    }))
}

/// Counts attempted and failed instances over every pass of a run.
struct Checker<'a> {
    key: &'a AnswerKey,
    workload: &'static str,
    /// Instances a complete pass verifies.
    expected: usize,
    /// Per seed, the set-up pass's report, `caches` blanked, with its
    /// instances.
    references: Vec<Option<(String, Vec<InstanceReport>)>>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(key: &'a AnswerKey, w: Workload, seeds: usize, limit: Option<usize>) -> Self {
        let listed = key.len(w.name());
        Checker {
            key,
            workload: w.name(),
            expected: limit.map_or(listed, |n| n.min(listed)),
            references: vec![None; seeds],
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn problem(&mut self, msg: String) {
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    /// Checks one session pass under seed `k`: every label against the
    /// key, the whole report against the seed's set-up pass. The seed's
    /// first pass checked becomes its reference.
    fn session_pass(&mut self, k: usize, pass: &Result<CampaignReport, String>) {
        let report = match pass {
            Ok(r) => r,
            Err(msg) => {
                self.attempted += self.expected;
                self.failed += self.expected;
                self.problem(format!("pass panicked: {msg}"));
                return;
            }
        };
        let n = report.instances.len();
        self.attempted += n.max(self.expected);
        let mut bad = BTreeSet::new();
        // Instances the key lists but the pass never verified.
        for i in n..self.expected {
            bad.insert(i);
        }
        for (i, k) in report_keys(report).iter().enumerate() {
            let got = &report.instances[i].label;
            match self.key.expected(self.workload, k) {
                Some(want) if key::label_matches(want, got) => {}
                want => {
                    bad.insert(i);
                    self.problem(format!(
                        "{} / {} / {}: label {got:?}, key {want:?}",
                        k.program, k.transformation, k.matched
                    ));
                }
            }
        }
        let mut blanked = report.clone();
        blanked.caches = Default::default();
        let json = blanked.to_json();
        match &self.references[k] {
            None => self.references[k] = Some((json, report.instances.clone())),
            Some((ref_json, ref_instances)) if *ref_json != json => {
                let before = bad.len();
                for (i, r) in report.instances.iter().enumerate() {
                    if ref_instances.get(i) != Some(r) {
                        bad.insert(i);
                    }
                }
                if bad.len() == before && (n..self.expected).is_empty() {
                    // Drift outside the instance records still fails the pass.
                    bad.insert(usize::MAX);
                }
                self.problem("report drifted from the set-up pass".to_string());
            }
            Some(_) => {}
        }
        self.failed += bad.len();
    }

    /// Checks one replayed pass: every verdict against the session's under
    /// the first seed.
    fn replay_pass(&mut self, trace: &Result<PassTrace, String>) {
        let reference = self.references[0].as_ref().map_or(&[][..], |r| &r.1[..]);
        let outcomes = match trace {
            Ok(t) => &t.outcomes,
            Err(msg) => {
                self.attempted += self.expected;
                self.failed += self.expected;
                self.problem(format!("replay panicked: {msg}"));
                return;
            }
        };
        self.attempted += outcomes.len().max(reference.len());
        let mut disagree = Vec::new();
        for i in 0..outcomes.len().max(reference.len()) {
            let session = reference.get(i).map(|r| Outcome {
                label: r.label.clone(),
                trials_run: r.trials_run,
                trials_to_detection: r.trials_to_detection,
            });
            if session.as_ref() != outcomes.get(i) {
                disagree.push(format!(
                    "instance {i}: replay {:?}, session {session:?}",
                    outcomes.get(i)
                ));
            }
        }
        self.failed += disagree.len();
        disagree.into_iter().for_each(|m| self.problem(m));
    }

    fn correct(&self, other_problems: &[String]) -> bool {
        self.failed == 0 && self.expected > 0 && other_problems.is_empty()
    }
}

/// Sets up the campaign of `seed` in a child process and returns its raw
/// `setup_s` and the host-speed probe the child timed right after it.
fn setup_in_child(a: &Args, w: Workload, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--setup-only", "--workload", w.name(), "--seed"])
        .arg(seed.to_string());
    if let Some(n) = a.limit {
        cmd.args(["--limit", &n.to_string()]);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let parsed = last.strip_prefix("setup_s ").and_then(|v| {
        let (setup, probe) = v.split_once(" probe ")?;
        Some((setup.trim().parse().ok()?, probe.trim().parse().ok()?))
    });
    match (out.status.success(), parsed) {
        (true, Some(v)) => Ok(v),
        (true, None) => Err(format!("bad setup line {last}")),
        _ => Err(format!("set-up child failed: {}", out.status)),
    }
}

/// Prints a timing with its quartiles and sample count.
fn describe(name: &str, unit: &str, xs: &[f64]) {
    println!(
        "  {name:<16} median {:.4} {unit}  q1 {:.4}  q3 {:.4}  p90 {:.4}  n={}",
        median(xs),
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        quantile(xs, 0.9),
        xs.len()
    );
}

/// `correct`, `attempted`, `failed` and the metrics of one run.
type RunResult = (bool, usize, usize, Vec<Metric>);

/// One benchmark run; `None` for a set-up-only child, which prints its
/// raw `setup_s` and the probe timed after it instead.
fn run(a: &Args, t0: Instant) -> Result<Option<RunResult>, String> {
    let w = a.workload.expect("checked by parse_args");
    let key_text = match &a.key {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?,
        None => key::SHIPPED.to_string(),
    };
    let key = AnswerKey::parse(&key_text)?;
    let mut problems = key.paper_invariants();
    if cache_capacity() != DEFAULT_CACHE_CAPACITY {
        problems.push("program cache is not at its default capacity".to_string());
    }

    // Set-up: programs, campaigns, enumeration and each seed's untimed
    // first pass. `setup_s` times one campaign's set-up from process start:
    // the first seed's, whose first pass runs before the others'.
    let seeds = if a.trace || a.setup_only {
        vec![a.seed]
    } else {
        run_seeds(a.seed)
    };
    let programs = suite::programs(w);
    let mut bench = Bench::new(w, seeds.clone(), &programs, a.limit);
    let mut check = Checker::new(&key, w, seeds.len(), a.limit);
    let mut firsts = vec![bench.pass(0, &NullSink)];
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_probe = probe::seconds();
    if a.setup_only {
        println!("setup_s {setup_s} probe {setup_probe}");
        return Ok(None);
    }
    firsts.extend((1..seeds.len()).map(|k| bench.pass(k, &NullSink)));
    for (k, first) in firsts.iter().enumerate() {
        check.session_pass(k, first);
    }
    let instances = firsts[0].as_ref().map_or(0, |r| r.total_instances);
    let passes = w.passes(a.seconds).next_multiple_of(seeds.len());
    println!(
        "{}: {instances} instances, seeds {seeds:x?}, {passes} timed passes, program cache capacity {}",
        w.name(),
        cache_capacity()
    );

    let metrics = if a.trace {
        traced(a, w, &programs, &mut bench, &mut check, passes)?
    } else {
        // Raw and scaled samples. Each child set-up and each timed pass is
        // scaled by the mean of the probes timed just before and just after
        // it; the in-process set-up by the probe after it.
        let mut setups = vec![setup_s];
        let mut setups_scaled = vec![probe::scale(setup_s, setup_probe)];
        let mut pass_s = Vec::with_capacity(passes);
        let mut pass_scaled = Vec::with_capacity(passes);
        let mut probes = vec![probe::seconds()];
        let clock = VerdictClock::default();
        let mut child = 1;
        for p in 0..passes {
            while child < SETUP_SAMPLES && child * passes / SETUP_SAMPLES <= p {
                let (raw, after) = setup_in_child(a, w, seeds[child % seeds.len()])?;
                let before = probes[probes.len() - 1];
                setups.push(raw);
                setups_scaled.push(probe::scale(raw, (before + after) / 2.0));
                probes.push(probe::seconds());
                child += 1;
            }
            let k = p % seeds.len();
            let before = CacheCounters::now();
            let verdicts_before = clock.ms.lock().expect("clock poisoned").len();
            let started = Instant::now();
            let report = bench.pass(k, &clock);
            pass_s.push(started.elapsed().as_secs_f64());
            probes.push(probe::seconds());
            let speed = (probes[probes.len() - 2] + probes[probes.len() - 1]) / 2.0;
            pass_scaled.push(probe::scale(pass_s[p], speed));
            for ms in &mut clock.ms.lock().expect("clock poisoned")[verdicts_before..] {
                *ms = probe::scale(*ms, speed);
            }
            check.session_pass(k, &report);
            println!(
                "pass {p}: {:.4} s, {:.4} s scaled; rss {:.1} MB; {:?}",
                pass_s[p],
                pass_scaled[p],
                stats::rss_mb(),
                before.since()
            );
        }
        let verdict_ms = clock.ms.into_inner().expect("clock poisoned");
        describe(
            "probe_ms",
            "ms",
            &probes.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
        );
        describe("setup_s raw", "s", &setups);
        describe("setup_s", "s", &setups_scaled);
        describe("campaign_s raw", "s", &pass_s);
        describe("campaign_s", "s", &pass_scaled);
        describe("verdict_ms", "ms", &verdict_ms);
        vec![
            metric("setup_s", median(&setups_scaled), "s"),
            metric("campaign_s", median(&pass_scaled), "s"),
            metric("verdict_ms_p75", quantile(&verdict_ms, 0.75), "ms"),
            metric("verdict_ms_p90", quantile(&verdict_ms, 0.9), "ms"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ]
    };
    for p in check.problems.iter().chain(&problems) {
        println!("FAILED: {p}");
    }
    let correct = check.correct(&problems);
    Ok(Some((correct, check.attempted, check.failed, metrics)))
}

/// The traced run: set up the replay, then alternate one untraced session
/// pass with one replayed pass — half the timed passes each, so a traced
/// run does as much work as an untraced one — and report the per-layer
/// medians.
fn traced(
    a: &Args,
    w: Workload,
    programs: &[Program],
    bench: &mut Bench<'_>,
    check: &mut Checker<'_>,
    passes: usize,
) -> Result<Vec<Metric>, String> {
    let mut rp = Replay::new(w, a.seed, programs, a.limit);
    let setup = catch_unwind(AssertUnwindSafe(|| rp.setup())).map_err(|_| "panic".to_string());
    check.replay_pass(&setup);
    let mut session_s = Vec::new();
    let mut traces = Vec::new();
    for p in 0..passes.div_ceil(2) {
        let started = Instant::now();
        let report = bench.pass(0, &NullSink);
        session_s.push(started.elapsed().as_secs_f64());
        check.session_pass(0, &report);
        let trace = catch_unwind(AssertUnwindSafe(|| rp.pass())).map_err(|_| "panic".to_string());
        check.replay_pass(&trace);
        if let Ok(t) = trace {
            println!(
                "pass {p}: session {:.4} s, replay {:.4} s",
                session_s[p], t.wall_s
            );
            traces.push(t);
        }
    }
    if let Some(path) = &a.spans {
        rp.tracer
            .write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let med = |f: &dyn Fn(&PassTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let ms = |name: &'static str| med(&|t: &PassTrace| t.spans[name].1);
    let replay_s = med(&|t| t.wall_s);
    let trials_ms = ms("fuzz.trials");
    let trials_run = med(&|t| t.counts.trials_run);
    let mincut_runs = med(&|t| t.counts.mincut_runs);
    describe("session pass", "s", &session_s);
    describe(
        "replay pass",
        "s",
        &traces.iter().map(|t| t.wall_s).collect::<Vec<_>>(),
    );
    println!(
        "  distinct programs {} against a cache capacity of {DEFAULT_CACHE_CAPACITY}",
        rp.distinct_programs()
    );
    Ok(vec![
        metric(
            "transforms.find_matches_ms",
            ms("transforms.find_matches"),
            "ms",
        ),
        metric("transforms.apply_ms", ms("transforms.apply"), "ms"),
        metric(
            "transforms.apply_calls",
            med(&|t| t.spans["transforms.apply"].0 as f64),
            "count",
        ),
        metric("transforms.replay_ms", ms("transforms.replay"), "ms"),
        metric("cutout.extract_ms", ms("cutout.extract"), "ms"),
        metric(
            "cutout.cutout_nodes",
            med(&|t| t.counts.cutout_nodes),
            "count",
        ),
        metric(
            "cutout.program_nodes",
            med(&|t| t.counts.program_nodes),
            "count",
        ),
        metric("cutout.minimize_ms", ms("cutout.minimize"), "ms"),
        metric(
            "cutout.input_reduction_mean",
            med(&|t| t.counts.mincut_reduction_sum) / mincut_runs.max(1.0),
            "ratio",
        ),
        metric(
            "cutout.mincut_useful_ratio",
            med(&|t| t.counts.mincut_useful) / mincut_runs.max(1.0),
            "ratio",
        ),
        metric("fuzz.constraints_ms", ms("fuzz.constraints"), "ms"),
        metric("ir.validate_ms", ms("ir.validate"), "ms"),
        metric("interp.compile_ms", ms("interp.compile"), "ms"),
        metric(
            "interp.program_compiles",
            med(&|t| t.counts.caches.program_compiles as f64),
            "count",
        ),
        metric(
            "interp.program_cache_hits",
            med(&|t| t.counts.caches.program_cache_hits as f64),
            "count",
        ),
        metric(
            "interp.program_cache_evictions",
            med(&|t| t.counts.caches.program_cache_evictions as f64),
            "count",
        ),
        metric(
            "interp.distinct_programs",
            rp.distinct_programs() as f64,
            "count",
        ),
        metric(
            "interp.cache_capacity",
            DEFAULT_CACHE_CAPACITY as f64,
            "count",
        ),
        metric(
            "interp.code_compiles",
            med(&|t| t.counts.caches.code_compiles as f64),
            "count",
        ),
        metric(
            "interp.code_bytes",
            med(&|t| t.counts.caches.code_bytes as f64),
            "B",
        ),
        metric(
            "interp.jit_scalar_runs",
            med(&|t| t.counts.caches.jit_scalar_runs as f64),
            "count",
        ),
        metric(
            "interp.jit_packed_runs",
            med(&|t| t.counts.caches.jit_packed_runs as f64),
            "count",
        ),
        metric("fuzz.trials_ms", trials_ms, "ms"),
        metric("fuzz.trials_run", trials_run, "count"),
        metric("fuzz.resamples", med(&|t| t.counts.resamples), "count"),
        metric(
            "fuzz.us_per_trial",
            trials_ms * 1e3 / trials_run.max(1.0),
            "us",
        ),
        metric("evo.evolve_ms", ms("evo.evolve"), "ms"),
        metric("evo.trials_run", med(&|t| t.counts.evo_trials), "count"),
        metric("evo.corpus_size", med(&|t| t.counts.corpus_size), "count"),
        metric("evo.edges_seen", med(&|t| t.counts.edges_seen), "count"),
        metric("evo.faults_found", med(&|t| t.counts.faults_found), "count"),
        metric("evo.buckets", med(&|t| t.counts.buckets), "count"),
        metric(
            "trace.gap_pct",
            (replay_s / median(&session_s) - 1.0) * 100.0,
            "%",
        ),
    ])
}

/// Prints a fresh answer key: the labels every workload's set-up pass
/// produces under each of the key seeds.
fn write_key(a: &Args) -> Result<(), String> {
    let mut key = AnswerKey::default();
    for w in Workload::ALL {
        let programs = suite::programs(w);
        for seed in key::key_seeds() {
            let report = Bench::new(w, vec![seed], &programs, a.limit).pass(0, &NullSink)?;
            for (k, r) in report_keys(&report).into_iter().zip(&report.instances) {
                key.record(w.name(), k, &r.label);
            }
        }
    }
    print!("{}", key.render());
    Ok(())
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if a.write_key {
        return match write_key(&a) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("campaign_e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&a, t0) {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some((correct, attempted, failed, metrics))) => {
            println!(
                "{}",
                stats::result_line(correct, attempted.max(1), failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
