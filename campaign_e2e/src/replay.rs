//! The traced run: a stage-by-stage replay of a workload's instances
//! through the layers' public functions, timing each call as a span.
//!
//! The replay mirrors what a session does for one instance — the
//! prepare pipeline (apply, extract, minimize, replay on the cutout,
//! constraints, validate, compile), then either the one-shot trial batch
//! or the evolution loop seeded exactly as the session seeds it — so its
//! verdicts must equal the session's, and the sum of its spans accounts
//! for a pass.

use crate::suite::{self, Instance, Program, Workload};
use fuzzyflow::cutout::{
    extract_cutout, minimize_input_configuration, refind_match, Cutout, MinCutOutcome,
    SideEffectContext,
};
use fuzzyflow::evo::{rng_split, EvolutionFuzzer};
use fuzzyflow::fuzz::{derive_constraints, ArenaStash, Constraints, DiffTester, ValueProfile};
use fuzzyflow::interp::{
    code_cache_stats, compile_shared, jit_native_runs_split, shared_cache_stats, CodeCacheStats,
    Program as Code, SharedCacheStats,
};
use fuzzyflow::ir::{validate, Bindings, Sdfg};
use fuzzyflow::pool::WorkerPool;
use fuzzyflow::prelude::*;
use fuzzyflow::transforms::TransformationMatch;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One timed call: a layer boundary crossed by one instance.
pub struct Span {
    pub name: &'static str,
    /// Work-list index of the instance the call served, if any.
    pub instance: Option<usize>,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
}

/// In-memory span recorder with per-name running totals.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Per span name: (calls, milliseconds) since the last reset.
    totals: BTreeMap<&'static str, (usize, f64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn open(
        &mut self,
        name: &'static str,
        instance: Option<usize>,
        parent: Option<usize>,
    ) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            instance,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and adds it to its name's totals.
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        let total = self.totals.entry(span.name).or_default();
        total.0 += 1;
        total.1 += (span.end - span.start) * 1e3;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        instance: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(instance), Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Calls and total milliseconds of spans named `name` since the
    /// last [`Tracer::reset_totals`].
    pub fn total(&self, name: &str) -> (usize, f64) {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn reset_totals(&mut self) {
        self.totals.clear();
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |n| n.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"instance\": {}, \"parent\": {}, \"start_s\": {}, \"end_s\": {}}}",
                s.name,
                opt(s.instance),
                opt(s.parent),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// What a verdict is compared on: the same fields an instance report
/// records for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub label: String,
    pub trials_run: usize,
    pub trials_to_detection: Option<usize>,
}

/// The prepared artifacts of one instance (what a session caches).
struct Prepared {
    cutout: Cutout,
    constraints: Constraints,
    invalid: Option<Vec<String>>,
    programs: Option<(Arc<Code>, Arc<Code>)>,
    mincut: Option<MinCutOutcome>,
    program_nodes: usize,
    arenas: ArenaStash,
}

/// Work counts of one replayed pass, next to the span totals.
#[derive(Clone, Debug, Default)]
pub struct PassCounts {
    pub cutout_nodes: f64,
    pub program_nodes: f64,
    pub mincut_runs: f64,
    pub mincut_useful: f64,
    pub mincut_reduction_sum: f64,
    pub trials_run: f64,
    pub resamples: f64,
    pub evo_trials: f64,
    pub corpus_size: f64,
    pub edges_seen: f64,
    pub faults_found: f64,
    pub buckets: f64,
    pub caches: CacheDelta,
}

/// The process-wide program-cache, code-cache and JIT counters.
pub struct CacheCounters {
    prog: SharedCacheStats,
    code: CodeCacheStats,
    jit: (u64, u64),
}

/// Counter deltas over an interval. At one thread no other session
/// bleeds into them.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheDelta {
    pub program_compiles: u64,
    pub program_cache_hits: u64,
    pub program_cache_evictions: u64,
    pub code_compiles: u64,
    pub code_bytes: u64,
    pub jit_scalar_runs: u64,
    pub jit_packed_runs: u64,
}

impl CacheCounters {
    pub fn now() -> CacheCounters {
        CacheCounters {
            prog: shared_cache_stats(),
            code: code_cache_stats(),
            jit: jit_native_runs_split(),
        }
    }

    /// The deltas from `self` to now.
    pub fn since(&self) -> CacheDelta {
        let n = CacheCounters::now();
        CacheDelta {
            program_compiles: n.prog.compiles - self.prog.compiles,
            program_cache_hits: n.prog.hits - self.prog.hits,
            program_cache_evictions: n.prog.evictions - self.prog.evictions,
            code_compiles: n.code.compiles - self.code.compiles,
            code_bytes: n.code.bytes - self.code.bytes,
            jit_scalar_runs: n.jit.0 - self.jit.0,
            jit_packed_runs: n.jit.1 - self.jit.1,
        }
    }
}

/// One replayed pass: its wall time, verdicts and per-layer figures.
pub struct PassTrace {
    pub wall_s: f64,
    pub outcomes: Vec<Outcome>,
    /// Per span name: (calls, milliseconds).
    pub spans: BTreeMap<&'static str, (usize, f64)>,
    pub counts: PassCounts,
}

/// Span names, one per layer boundary the replay crosses.
pub const SPANS: [&str; 10] = [
    "transforms.find_matches",
    "transforms.apply",
    "transforms.replay",
    "cutout.extract",
    "cutout.minimize",
    "fuzz.constraints",
    "ir.validate",
    "interp.compile",
    "fuzz.trials",
    "evo.evolve",
];

/// The staged replay of one workload.
pub struct Replay<'a> {
    w: Workload,
    seed: u64,
    programs: &'a [Program],
    limit: Option<usize>,
    /// Warm and evolve workloads: the instances prepared during set-up,
    /// re-run by every pass.
    prepared: Vec<(Instance, Option<Prepared>)>,
    /// Distinct compiled programs of the work list.
    distinct: usize,
    pub tracer: Tracer,
}

impl<'a> Replay<'a> {
    pub fn new(w: Workload, seed: u64, programs: &'a [Program], limit: Option<usize>) -> Self {
        Replay {
            w,
            seed,
            programs,
            limit,
            prepared: Vec::new(),
            distinct: 0,
            tracer: Tracer::new(),
        }
    }

    /// The untimed first pass: fills the caches, prepares the instances
    /// every later warm or evolve pass re-runs, and counts the distinct
    /// programs they compile.
    pub fn setup(&mut self) -> PassTrace {
        let mut distinct = HashSet::new();
        let trace = self.pass_inner(true, Some(&mut distinct));
        self.distinct = distinct.len();
        trace
    }

    /// One timed pass: cold workloads prepare every instance afresh, warm
    /// and evolve workloads re-run the instances prepared in set-up.
    pub fn pass(&mut self) -> PassTrace {
        self.pass_inner(self.w.is_cold(), None)
    }

    /// Distinct compiled programs (original and transformed cutouts, by
    /// content) of the work list, as counted during set-up.
    pub fn distinct_programs(&self) -> usize {
        self.distinct
    }

    fn pass_inner(&mut self, prepare: bool, mut distinct: Option<&mut HashSet<u64>>) -> PassTrace {
        self.tracer.reset_totals();
        let before = CacheCounters::now();
        let started = Instant::now();
        let pass = self.tracer.open("pass", None, None);
        let mut counts = PassCounts::default();
        let mut outcomes = Vec::new();

        if prepare {
            let ts = suite::transformations();
            let tracer = &mut self.tracer;
            let instances = suite::enumerate(self.programs, &ts, self.limit, |t, sdfg| {
                let id = tracer.open("transforms.find_matches", None, Some(pass));
                let found = t.find_matches(sdfg);
                tracer.close(id);
                found
            });
            self.prepared.clear();
            for (i, inst) in instances.into_iter().enumerate() {
                let p = &self.programs[inst.program];
                let vcfg = self.vcfg(&p.bindings);
                let id = self.tracer.open("instance", Some(i), Some(pass));
                let prep = prepare_instance(
                    &mut self.tracer,
                    id,
                    i,
                    &p.sdfg,
                    ts[inst.transformation].as_ref(),
                    &inst.m,
                    &vcfg,
                    distinct.as_deref_mut(),
                );
                outcomes.push(self.run(id, i, prep.as_ref(), &vcfg, &mut counts));
                self.tracer.close(id);
                self.prepared.push((inst, prep));
            }
            if self.w.is_cold() {
                // A cold pass's session is dropped with its artifacts.
                self.prepared.clear();
            }
        } else {
            for i in 0..self.prepared.len() {
                let vcfg = self.vcfg(&self.programs[self.prepared[i].0.program].bindings);
                let id = self.tracer.open("instance", Some(i), Some(pass));
                let prep = self.prepared[i].1.take();
                outcomes.push(self.run(id, i, prep.as_ref(), &vcfg, &mut counts));
                self.prepared[i].1 = prep;
                self.tracer.close(id);
            }
        }
        self.tracer.close(pass);
        let wall_s = started.elapsed().as_secs_f64();
        counts.caches = before.since();

        PassTrace {
            wall_s,
            outcomes,
            spans: SPANS.iter().map(|&s| (s, self.tracer.total(s))).collect(),
            counts,
        }
    }

    /// Runs one instance's trials (or reports its pipeline error).
    fn run(
        &mut self,
        id: usize,
        i: usize,
        prep: Option<&Prepared>,
        vcfg: &VerifyConfig,
        counts: &mut PassCounts,
    ) -> Outcome {
        let Some(prep) = prep else {
            return Outcome {
                label: "pipeline error".to_string(),
                trials_run: 0,
                trials_to_detection: None,
            };
        };
        counts.cutout_nodes += prep.cutout.stats.nodes as f64;
        counts.program_nodes += prep.program_nodes as f64;
        if let Some(mc) = &prep.mincut {
            counts.mincut_runs += 1.0;
            counts.mincut_useful += f64::from(u8::from(!mc.added_nodes.is_empty()));
            counts.mincut_reduction_sum += mc.reduction();
        }
        match self.w.evolve_config(self.seed) {
            Some(ecfg) if prep.invalid.is_none() => {
                evolve(&mut self.tracer, id, i, prep, &ecfg, vcfg, counts)
            }
            _ => one_shot(&mut self.tracer, id, i, prep, vcfg, counts),
        }
    }

    /// The per-instance configuration a session derives: the campaign's
    /// configuration, concretized with the program's bindings.
    fn vcfg(&self, bindings: &Bindings) -> VerifyConfig {
        self.w
            .verify_config(self.seed)
            .with_concretization(bindings.clone())
    }
}

fn content_hash(sdfg: &Sdfg) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{sdfg:?}").hash(&mut h);
    h.finish()
}

/// Pipeline steps 1–4 plus compilation, one span per layer call. With
/// `distinct`, also collects the content hashes of the compiled programs
/// (outside every span).
#[allow(clippy::too_many_arguments)]
fn prepare_instance(
    tr: &mut Tracer,
    parent: usize,
    i: usize,
    program: &Sdfg,
    t: &dyn Transformation,
    m: &TransformationMatch,
    cfg: &VerifyConfig,
    distinct: Option<&mut HashSet<u64>>,
) -> Option<Prepared> {
    let (_, changes) = tr
        .time("transforms.apply", i, parent, || {
            apply_to_clone(program, t, m)
        })
        .ok()?;

    let size_syms: Vec<String> = program.free_symbols();
    let ctx = SideEffectContext::with_size_symbols(&size_syms, cfg.size_max.max(1));
    let mut cutout = tr
        .time("cutout.extract", i, parent, || {
            extract_cutout(program, &changes, &ctx)
        })
        .ok()?;

    let mut mincut = None;
    if cfg.minimize {
        let bindings = cfg.concretization.clone().unwrap_or_else(|| {
            Bindings::from_pairs(
                cutout
                    .input_symbols
                    .iter()
                    .map(|s| (s.clone(), cfg.size_max.max(1))),
            )
        });
        let (min_c, outcome) = tr.time("cutout.minimize", i, parent, || {
            minimize_input_configuration(program, cutout, &ctx, &bindings)
        });
        cutout = min_c;
        mincut = Some(outcome);
    }

    let transformed = tr
        .time("transforms.replay", i, parent, || {
            let translated = refind_match(&cutout, t, m)?;
            let mut transformed = cutout.sdfg.clone();
            t.apply(&mut transformed, &translated)?;
            Ok::<_, fuzzyflow::transforms::TransformError>(transformed)
        })
        .ok()?;

    let mut constraints = tr.time("fuzz.constraints", i, parent, || {
        derive_constraints(&cutout, program)
    });
    for (s, lo, hi) in &cfg.custom_constraints {
        constraints.constrain(s.clone(), *lo, *hi);
    }

    let invalid = tr.time("ir.validate", i, parent, || {
        validate(&transformed)
            .err()
            .map(|errors| errors.iter().map(|e| e.to_string()).collect::<Vec<_>>())
    });
    let programs = if invalid.is_none() {
        Some(tr.time("interp.compile", i, parent, || {
            (compile_shared(&cutout.sdfg), compile_shared(&transformed))
        }))
    } else {
        None
    };

    if let (Some(seen), true) = (distinct, programs.is_some()) {
        seen.insert(content_hash(&cutout.sdfg));
        seen.insert(content_hash(&transformed));
    }

    let program_nodes = program
        .states
        .node_ids()
        .map(|s| program.state(s).df.deep_node_count())
        .sum();

    Some(Prepared {
        cutout,
        constraints,
        invalid,
        programs,
        mincut,
        program_nodes,
        arenas: ArenaStash::new(),
    })
}

/// Pipeline step 5: the one-shot differential trial batch.
fn one_shot(
    tr: &mut Tracer,
    parent: usize,
    i: usize,
    prep: &Prepared,
    cfg: &VerifyConfig,
    counts: &mut PassCounts,
) -> Outcome {
    let tester = DiffTester {
        trials: cfg.trials,
        tolerance: cfg.tolerance,
        seed: cfg.seed,
        profile: ValueProfile {
            size_max: cfg.size_max,
            ..Default::default()
        },
        threads: cfg.trial_threads,
        ..Default::default()
    };
    let diff = match (&prep.invalid, &prep.programs) {
        (Some(errors), _) => DiffTester::invalid_code_report(errors.clone()),
        (None, Some((orig, trans))) => tr.time("fuzz.trials", i, parent, || {
            tester.test_compiled(
                WorkerPool::global(),
                &prep.cutout,
                orig,
                trans,
                &prep.constraints,
                Some(&prep.arenas),
                None,
            )
        }),
        (None, None) => unreachable!("valid instances always compile"),
    };
    counts.trials_run += diff.trials_run as f64;
    counts.resamples += diff.resamples as f64;
    Outcome {
        label: diff.verdict.label().to_string(),
        trials_run: diff.trials_run,
        trials_to_detection: diff.trials_to_detection,
    }
}

/// The evolution loop, seeded exactly as a session seeds instance `i`.
fn evolve(
    tr: &mut Tracer,
    parent: usize,
    i: usize,
    prep: &Prepared,
    ecfg: &EvolveConfig,
    vcfg: &VerifyConfig,
    counts: &mut PassCounts,
) -> Outcome {
    let (orig, trans) = prep
        .programs
        .as_ref()
        .expect("valid instances always compile");
    let fuzzer = EvolutionFuzzer {
        trials: ecfg.trials,
        max_faults: ecfg.max_faults,
        seed: rng_split(ecfg.seed ^ vcfg.seed, i as u64),
        tolerance: vcfg.tolerance,
        size_max: vcfg.size_max,
        ..EvolutionFuzzer::default()
    };
    let seed_bindings = vcfg.concretization.clone().unwrap_or_default();
    let out = tr.time("evo.evolve", i, parent, || {
        fuzzer.evolve(
            &prep.cutout,
            orig,
            trans,
            &prep.constraints,
            &seed_bindings,
            Some(&prep.arenas),
            &mut |_| {},
        )
    });
    counts.evo_trials += out.trials_run as f64;
    counts.corpus_size += out.corpus_size as f64;
    counts.edges_seen += out.edges_seen as f64;
    counts.faults_found += out.faults_found as f64;
    counts.buckets += out.buckets.len() as f64;
    let label = if out.seed_rejected {
        "inconclusive"
    } else if let Some(f) = &out.first_fault {
        f.outcome.label()
    } else {
        "ok"
    };
    Outcome {
        label: label.to_string(),
        trials_run: out.trials_run,
        trials_to_detection: out.first_fault.as_ref().map(|f| f.trial),
    }
}
