//! Gray-box differential testing (paper Sec. 5.1) and the differential
//! oracle every trial driver shares.
//!
//! The oracle runs the original cutout on an input
//! ([`DiffTester::run_original`]), then the transformed cutout on the
//! same input, and compares in a fixed order
//! ([`DiffTester::compare_transformed`]): a transformed-side hang, crash
//! or structural failure first, then the scalar symbol side effects
//! ([`Cutout::symbol_state`]), then the system state under the
//! tolerance `t_Δ`. [`CaseOutcome::verdict`] renders a fault the way
//! reports carry it. The gray-box trials, replay and triage probes, the
//! evolutionary loop and the coverage-guided baseline all go through
//! these, so a fault is classified and worded the same wherever it is
//! met.

use crate::constraints::Constraints;
use crate::rng::Xoshiro256;
use crate::sampler::{sample_state, ValueProfile};
use crate::testcase::TestCase;
use fuzzyflow_cutout::Cutout;
use fuzzyflow_interp::{
    CoverageMap, ExecError, ExecOptions, ExecState, Executor, ExecutorArena, Program, ResetPolicy,
};
use fuzzyflow_ir::{validate, Sdfg};
use fuzzyflow_pool::{resolve_threads, WorkerCache, WorkerPool};
use std::sync::Mutex;

/// Per-worker cache of executor-arena pairs, keyed by the compiled
/// `(original, transformed)` program identities. Drivers that compile
/// fresh programs per call (`DiffTester::test`, `CoverageFuzzer::run`)
/// land on the *recycled* path: a worker moving to the next instance (or
/// re-testing one) reuses the previous pair's allocations instead of
/// constructing executors from scratch. Exact-key hits serve callers
/// that hold a compiled [`Program`] across calls.
fn exec_arena_cache() -> &'static WorkerCache<(ExecutorArena, ExecutorArena)> {
    static CACHE: std::sync::OnceLock<WorkerCache<(ExecutorArena, ExecutorArena)>> =
        std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(|| WorkerCache::new(ARENA_CACHE_BASE));
    // Obey the same process-wide capacity knob as the program/code
    // caches (while never growing past the small per-worker base bound).
    cache.set_capacity(ARENA_CACHE_BASE.min(fuzzyflow_interp::cache_capacity()));
    cache
}

/// Per-worker arena pairs kept without an explicit capacity override.
const ARENA_CACHE_BASE: usize = 4;

/// Cache key of a compiled program pair.
fn pair_key(orig: &Program, trans: &Program) -> u64 {
    orig.id().rotate_left(32) ^ trans.id()
}

/// Checks an executor pair for a compiled cutout pair out of `stash`, or
/// out of the per-worker cache when there is no stash; a miss constructs
/// fresh arenas. Return the pair with [`park_executors`] and the same
/// `stash`, so the next checkout reuses its allocations.
pub fn checkout_executors<'p>(
    stash: Option<&ArenaStash>,
    orig_prog: &'p Program,
    trans_prog: &'p Program,
) -> (Executor<'p>, Executor<'p>) {
    let fresh = || (ExecutorArena::new(), ExecutorArena::new());
    let (oa, ta) = match stash {
        Some(stash) => stash.take().unwrap_or_else(fresh),
        None => exec_arena_cache().checkout_or(pair_key(orig_prog, trans_prog), fresh),
    };
    (orig_prog.executor_with(oa), trans_prog.executor_with(ta))
}

/// Parks the arenas of a pair that [`checkout_executors`] made for the
/// same programs back into `stash`, or into the per-worker cache when
/// there is no stash.
pub fn park_executors(
    stash: Option<&ArenaStash>,
    orig_prog: &Program,
    trans_prog: &Program,
    (orig_exec, trans_exec): (Executor<'_>, Executor<'_>),
) {
    let pair = (orig_exec.into_arena(), trans_exec.into_arena());
    match stash {
        Some(stash) => stash.put(pair),
        None => exec_arena_cache().store(pair_key(orig_prog, trans_prog), pair),
    }
}

/// A caller-owned pool of executor-arena pairs — the artifact-cache
/// counterpart of the per-worker [`WorkerCache`].
///
/// Where the worker cache keeps arenas in thread-local stashes (warm for
/// whichever instance that *worker* ran last), a stash travels with an
/// *instance*: a campaign session stores one stash per prepared
/// instance, so re-verifying the instance checks the very same arenas
/// back out regardless of which workers run the trials. When
/// [`DiffTester::test_compiled`] is given a non-empty stash it caps the
/// trial-batch width at the stash size, so a warm re-run constructs
/// **zero** fresh arenas — guaranteed, not just amortized. (Reports are
/// byte-identical for every width; see the pool determinism contract.)
#[derive(Debug, Default)]
pub struct ArenaStash {
    pairs: Mutex<Vec<(ExecutorArena, ExecutorArena)>>,
}

impl ArenaStash {
    /// An empty stash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of parked arena pairs.
    pub fn len(&self) -> usize {
        self.pairs.lock().expect("arena stash poisoned").len()
    }

    /// True when no pairs are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks a parked arena pair out of the stash, if any.
    pub fn take(&self) -> Option<(ExecutorArena, ExecutorArena)> {
        self.pairs.lock().expect("arena stash poisoned").pop()
    }

    /// Parks an arena pair back into the stash (bounded by the
    /// process-wide cache-capacity knob; surplus pairs are dropped).
    pub fn put(&self, pair: (ExecutorArena, ExecutorArena)) {
        let mut pairs = self.pairs.lock().expect("arena stash poisoned");
        // Bounded by the same process-wide capacity knob as the
        // program/code caches: a surplus pair (wide one-off batch,
        // lowered knob) is dropped rather than parked forever.
        if pairs.len() < fuzzyflow_interp::cache_capacity() {
            pairs.push(pair);
        }
    }
}

/// Outcome of differentially testing `c` against `T(c)`.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// No difference found over the trial budget: the transformation
    /// instance is accepted.
    Equivalent { trials: usize },
    /// The transformed cutout produced different system-state contents.
    SemanticChange {
        trial: usize,
        mismatch: String,
        case: TestCase,
    },
    /// The transformed cutout crashed (OOB, division by zero, …) while
    /// the original did not.
    Crash {
        trial: usize,
        error: String,
        case: TestCase,
    },
    /// The transformed cutout exceeded the step budget while the original
    /// did not. `error` carries the interpreter's structured hang message
    /// (step limit and budget), same shape as [`Verdict::Crash`], so
    /// hangs, crashes and guard-plane faults triage uniformly.
    Hang {
        trial: usize,
        error: String,
        case: TestCase,
    },
    /// The transformed cutout does not validate or fails structurally on
    /// every input — the "generates invalid code" class of Table 2.
    InvalidCode { errors: Vec<String> },
    /// The sampler could not produce inputs the *original* cutout accepts
    /// (pathological constraints); nothing can be concluded.
    Inconclusive { reason: String },
}

impl Verdict {
    /// True when the transformation instance was proven faulty.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            Verdict::SemanticChange { .. }
                | Verdict::Crash { .. }
                | Verdict::Hang { .. }
                | Verdict::InvalidCode { .. }
        )
    }

    /// Short label for tables (Table 2 style).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Equivalent { .. } => "ok",
            Verdict::SemanticChange { .. } => "semantic change",
            Verdict::Crash { .. } => "crash",
            Verdict::Hang { .. } => "hang",
            Verdict::InvalidCode { .. } => "invalid code",
            Verdict::Inconclusive { .. } => "inconclusive",
        }
    }
}

/// Outcome of the differential oracle on one concrete input (see the
/// module docs): what every trial driver records per run pair.
///
/// Unlike [`Verdict`], whose fault variants carry rendered strings for
/// reporting, these carry the *structured* [`ExecError`] /
/// [`StateMismatch`](fuzzyflow_interp::StateMismatch) so triage can
/// bucket faults by error class and faulting container without parsing
/// messages back apart. [`CaseOutcome::verdict`] does the rendering.
#[derive(Clone, Debug, PartialEq)]
pub enum CaseOutcome {
    /// Both sides ran and the compared state matched.
    Pass,
    /// The *original* cutout rejected the input — nothing can be
    /// concluded about the transformation from this case.
    OriginalFailed(ExecError),
    /// The transformed cutout exceeded the step budget.
    Hang(ExecError),
    /// The transformed cutout crashed (OOB, guard plane, division, …).
    Crash(ExecError),
    /// The transformed cutout failed structurally at runtime.
    Invalid(ExecError),
    /// A scalar side-effect symbol diverged between the two runs.
    SymbolChange {
        symbol: String,
        original: Option<i64>,
        transformed: Option<i64>,
    },
    /// System-state contents diverged between the two runs.
    SemanticChange(fuzzyflow_interp::StateMismatch),
}

impl CaseOutcome {
    /// True when the case demonstrates a transformation fault.
    pub fn is_fault(&self) -> bool {
        !matches!(self, CaseOutcome::Pass | CaseOutcome::OriginalFailed(_))
    }

    /// Short label matching [`Verdict::label`] for the same fault class.
    pub fn label(&self) -> &'static str {
        match self {
            CaseOutcome::Pass => "ok",
            CaseOutcome::OriginalFailed(_) => "original failed",
            CaseOutcome::Hang(_) => "hang",
            CaseOutcome::Crash(_) => "crash",
            CaseOutcome::Invalid(_) => "invalid code",
            CaseOutcome::SymbolChange { .. } | CaseOutcome::SemanticChange(_) => "semantic change",
        }
    }

    /// Stable error-class tag for triage bucketing (the
    /// [`ExecError::kind`](fuzzyflow_interp::ExecError::kind) of the
    /// carried error, or a class tag of its own for state divergences).
    pub fn kind(&self) -> &'static str {
        match self {
            CaseOutcome::Pass => "pass",
            CaseOutcome::OriginalFailed(e) => e.kind(),
            CaseOutcome::Hang(e) | CaseOutcome::Crash(e) | CaseOutcome::Invalid(e) => e.kind(),
            CaseOutcome::SymbolChange { .. } => "symbol-change",
            CaseOutcome::SemanticChange(_) => "semantic-change",
        }
    }

    /// The faulting container (or diverging symbol), when there is one.
    pub fn container(&self) -> Option<&str> {
        match self {
            CaseOutcome::Pass => None,
            CaseOutcome::OriginalFailed(e)
            | CaseOutcome::Hang(e)
            | CaseOutcome::Crash(e)
            | CaseOutcome::Invalid(e) => e.container(),
            CaseOutcome::SymbolChange { symbol, .. } => Some(symbol),
            CaseOutcome::SemanticChange(m) => Some(&m.data),
        }
    }

    /// The failure line of a [`TestCase`] captured for this outcome.
    pub fn failure_text(&self) -> String {
        match self {
            CaseOutcome::Hang(e)
            | CaseOutcome::Crash(e)
            | CaseOutcome::Invalid(e)
            | CaseOutcome::OriginalFailed(e) => e.to_string(),
            CaseOutcome::SymbolChange { symbol, .. } => format!("symbol state change: '{symbol}'"),
            CaseOutcome::SemanticChange(m) => format!("semantic change: {m}"),
            CaseOutcome::Pass => "pass".to_string(),
        }
    }

    /// The report verdict of a fault that surfaced on `trial` with
    /// `input` on the cutout named `cutout` (its test case captures that
    /// input under [`CaseOutcome::failure_text`]); `None` for outcomes
    /// that are not faults. Every driver renders its faults through
    /// this, so one fault reads the same in every report.
    pub fn verdict(&self, trial: usize, cutout: &str, input: &ExecState) -> Option<Verdict> {
        let case = || TestCase::capture(cutout, &self.failure_text(), input);
        Some(match self {
            CaseOutcome::Pass | CaseOutcome::OriginalFailed(_) => return None,
            CaseOutcome::Hang(e) => Verdict::Hang {
                trial,
                error: e.to_string(),
                case: case(),
            },
            CaseOutcome::Crash(e) => Verdict::Crash {
                trial,
                error: e.to_string(),
                case: case(),
            },
            CaseOutcome::Invalid(e) => Verdict::InvalidCode {
                errors: vec![e.to_string()],
            },
            CaseOutcome::SymbolChange {
                symbol,
                original,
                transformed,
            } => Verdict::SemanticChange {
                trial,
                mismatch: format!("symbol '{symbol}' differs: {original:?} vs {transformed:?}"),
                case: case(),
            },
            CaseOutcome::SemanticChange(m) => Verdict::SemanticChange {
                trial,
                mismatch: m.to_string(),
                case: case(),
            },
        })
    }
}

/// A full differential-testing report.
#[derive(Clone, Debug)]
pub struct DiffReport {
    pub verdict: Verdict,
    /// Trials executed (pairs of runs).
    pub trials_run: usize,
    /// Samples rejected because the original cutout failed on them.
    pub resamples: usize,
    /// 1-based trial index at which the fault surfaced.
    pub trials_to_detection: Option<usize>,
}

/// Differential tester configuration.
#[derive(Clone, Debug)]
pub struct DiffTester {
    /// Number of input configurations to try.
    pub trials: usize,
    /// Numerical comparison threshold `t_Δ`; `0.0` = bit-exact. The paper
    /// uses `1e-5` in its case studies.
    pub tolerance: f64,
    /// PRNG seed (reports replay exactly for a given seed). Each trial
    /// derives its own deterministic sub-seed from this, so trials are
    /// independent of execution order and can run in parallel.
    pub seed: u64,
    /// Interpreter step budget (hang oracle).
    pub max_steps: u64,
    /// Value/size distribution.
    pub profile: ValueProfile,
    /// Resampling budget per trial when the original cutout rejects an
    /// input (should stay near zero thanks to gray-box constraints).
    pub max_resamples: usize,
    /// Maximum concurrent participants for trial batches on the shared
    /// [`WorkerPool`]: `0` = one per available core, `1` = sequential on
    /// the calling thread. Reports are byte-identical for every setting —
    /// the verdict is always the lowest-numbered faulting trial.
    pub threads: usize,
    /// Inter-trial buffer reset policy. The default dirty-region reset is
    /// byte-identical to [`ResetPolicy::Full`] (enforced by the engine-
    /// equivalence suite) and much cheaper on large containers.
    pub reset: ResetPolicy,
    /// Out-of-bounds slop mode: single-element wild stores near a
    /// container land in its poisoned guard planes and surface as a
    /// guard-plane fault naming the offending element, instead of the
    /// plain out-of-bounds trap. Off by default (trap mode keeps the
    /// engines bit-identical to the tree-walk reference).
    pub oob_slop: bool,
}

impl Default for DiffTester {
    fn default() -> Self {
        DiffTester {
            trials: 100,
            tolerance: 1e-5,
            seed: 0xF077_5EED,
            max_steps: 20_000_000,
            profile: ValueProfile::default(),
            max_resamples: 200,
            threads: 0,
            reset: ResetPolicy::default(),
            oob_slop: false,
        }
    }
}

/// Deterministic per-trial PRNG seed (splitmix64 finalizer over the base
/// seed and trial index).
fn trial_seed(seed: u64, trial: u64) -> u64 {
    let mut x = seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Outcome of one independent trial, before order-dependent bookkeeping.
enum TrialOutcome {
    Passed {
        resamples: usize,
    },
    /// Sampling never produced an input the original cutout accepts.
    NoSample {
        resamples: usize,
    },
    /// The oracle found a fault on `sample`.
    Fault {
        outcome: CaseOutcome,
        sample: ExecState,
        resamples: usize,
    },
}

impl TrialOutcome {
    fn resamples(&self) -> usize {
        match self {
            TrialOutcome::Passed { resamples }
            | TrialOutcome::NoSample { resamples }
            | TrialOutcome::Fault { resamples, .. } => *resamples,
        }
    }

    fn is_terminal(&self) -> bool {
        !matches!(self, TrialOutcome::Passed { .. })
    }
}

impl DiffTester {
    /// Tester with a given trial budget and seed.
    pub fn new(trials: usize, seed: u64) -> Self {
        DiffTester {
            trials,
            seed,
            ..Default::default()
        }
    }

    /// Runs differential testing of the cutout against its transformed
    /// counterpart on the process-wide [`WorkerPool`].
    ///
    /// Both SDFGs are compiled exactly once; the N trials then run against
    /// the two compiled [`Program`]s with per-trial deterministic seeds,
    /// in parallel on the shared pool when [`DiffTester::threads`] allows.
    /// The report is the one a sequential scan of trials 1..=N would
    /// produce, byte for byte, regardless of thread count or schedule.
    pub fn test(
        &self,
        cutout: &Cutout,
        transformed: &Sdfg,
        constraints: &Constraints,
    ) -> DiffReport {
        self.test_on(WorkerPool::global(), cutout, transformed, constraints)
    }

    /// [`DiffTester::test`] against an explicit pool — used by benchmarks
    /// to compare the persistent pool against per-instance spawned ones.
    pub fn test_on(
        &self,
        pool: &WorkerPool,
        cutout: &Cutout,
        transformed: &Sdfg,
        constraints: &Constraints,
    ) -> DiffReport {
        // "Generates invalid code" is decided before any execution.
        if let Err(errors) = validate(transformed) {
            return Self::invalid_code_report(errors.iter().map(|e| e.to_string()).collect());
        }

        // Compile once per instance; trials only execute.
        let orig_prog = Program::compile(&cutout.sdfg);
        let trans_prog = Program::compile(transformed);
        self.test_compiled(
            pool,
            cutout,
            &orig_prog,
            &trans_prog,
            constraints,
            None,
            None,
        )
    }

    /// The [`DiffReport`] produced for a transformed SDFG that fails
    /// validation — exposed so callers that cache validation outcomes
    /// (campaign sessions) reproduce [`DiffTester::test`] byte for byte.
    pub fn invalid_code_report(errors: Vec<String>) -> DiffReport {
        DiffReport {
            verdict: Verdict::InvalidCode { errors },
            trials_run: 0,
            resamples: 0,
            trials_to_detection: Some(0),
        }
    }

    /// The trial loop of [`DiffTester::test`], over programs the caller
    /// compiled (and whose transformed SDFG already passed `validate` —
    /// use [`DiffTester::invalid_code_report`] otherwise). This is the
    /// single execution path under `verify_instance`, sweeps and
    /// campaign sessions; the report is byte-identical to
    /// [`DiffTester::test`] on the same cutout pair.
    ///
    /// Executor arenas come from `stash` when given (the session's
    /// per-instance artifact cache; a non-empty stash caps the batch
    /// width at the stash size so warm re-runs construct zero fresh
    /// arenas) and from the per-worker cache otherwise. `progress`, when
    /// given, is invoked after every completed trial with the number of
    /// trials finished so far. Calls arrive concurrently from worker
    /// threads: the counter itself is monotonic, but two threads may
    /// invoke the callback out of order (a sink can observe 6 before 5),
    /// and counts are *not* deterministic across runs — only the
    /// returned report is. Sinks tracking progress should fold with
    /// `max`.
    #[allow(clippy::too_many_arguments)]
    pub fn test_compiled(
        &self,
        pool: &WorkerPool,
        cutout: &Cutout,
        orig_prog: &Program,
        trans_prog: &Program,
        constraints: &Constraints,
        stash: Option<&ArenaStash>,
        progress: Option<&(dyn Fn(usize) + Sync)>,
    ) -> DiffReport {
        let mut width = resolve_threads(self.threads).min(self.trials.max(1));
        if let Some(stash) = stash {
            let parked = stash.len();
            if parked > 0 {
                // Warm instance: never outgrow the parked arenas — this
                // is what makes "0 fresh arenas on a warm re-run" a
                // guarantee instead of an expectation. Reports are
                // byte-identical for every width.
                width = width.min(parked);
            }
        }

        // All trials at or below the first terminal trial are guaranteed
        // to complete; `stop_at` only prunes work beyond a known terminal.
        let stop_at = std::sync::atomic::AtomicUsize::new(usize::MAX);
        let done = std::sync::atomic::AtomicUsize::new(0);
        let parts: Mutex<Vec<Vec<(usize, TrialOutcome)>>> = Mutex::new(Vec::new());
        pool.parallel_for(
            self.trials,
            width,
            // One reusable executor pair per pool participant, retained
            // across every trial that participant steals — and across
            // *calls*: the arenas come from (and return to) the instance
            // stash or the worker's cache, so repeat tests and sweep
            // successors reuse them.
            || {
                let (orig_exec, trans_exec) = checkout_executors(stash, orig_prog, trans_prog);
                (orig_exec, trans_exec, Vec::new())
            },
            |(orig_exec, trans_exec, local), idx| {
                let trial = idx + 1;
                if trial > stop_at.load(std::sync::atomic::Ordering::Relaxed) {
                    return;
                }
                let outcome = self.run_trial(cutout, constraints, trial, orig_exec, trans_exec);
                if outcome.is_terminal() {
                    stop_at.fetch_min(trial, std::sync::atomic::Ordering::Relaxed);
                }
                local.push((trial, outcome));
                if let Some(progress) = progress {
                    progress(done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1);
                }
            },
            |(orig_exec, trans_exec, local)| {
                park_executors(stash, orig_prog, trans_prog, (orig_exec, trans_exec));
                parts.lock().expect("trial buffers poisoned").push(local);
            },
        );

        let mut outcomes: Vec<Option<TrialOutcome>> = Vec::with_capacity(self.trials);
        outcomes.resize_with(self.trials, || None);
        for batch in parts.into_inner().expect("trial buffers poisoned") {
            for (trial, outcome) in batch {
                outcomes[trial - 1] = Some(outcome);
            }
        }
        self.finalize(&cutout.sdfg.name, outcomes)
    }

    /// One independent trial: sample until the original cutout accepts an
    /// input, then hand the pair to the oracle.
    fn run_trial(
        &self,
        cutout: &Cutout,
        constraints: &Constraints,
        trial: usize,
        orig_exec: &mut Executor<'_>,
        trans_exec: &mut Executor<'_>,
    ) -> TrialOutcome {
        let mut rng = Xoshiro256::seed_from(trial_seed(self.seed, trial as u64));
        let mut resamples = 0usize;
        for _ in 0..=self.max_resamples {
            let Some(sample) = sample_state(cutout, constraints, &self.profile, &mut rng) else {
                resamples += 1;
                continue;
            };
            if self.run_original(&sample, orig_exec, None).is_err() {
                // Uninteresting crash: both sides would fail.
                resamples += 1;
                continue;
            }
            let outcome = self.compare_transformed(cutout, &sample, orig_exec, trans_exec);
            return if outcome.is_fault() {
                TrialOutcome::Fault {
                    outcome,
                    sample,
                    resamples,
                }
            } else {
                TrialOutcome::Passed { resamples }
            };
        }
        TrialOutcome::NoSample { resamples }
    }

    /// Replays one concrete input through a compiled cutout pair and
    /// classifies it with the differential oracle (see the module docs)
    /// — the single-case entry behind test-case replay. Reuses the
    /// caller's compiled [`Program`]s and parks its executor arenas back
    /// into `stash` (or the per-worker cache), so repeated replays
    /// compile nothing and construct no fresh arenas after the first.
    pub fn replay_case(
        &self,
        cutout: &Cutout,
        orig_prog: &Program,
        trans_prog: &Program,
        state: &ExecState,
        stash: Option<&ArenaStash>,
    ) -> CaseOutcome {
        let (mut orig_exec, mut trans_exec) = checkout_executors(stash, orig_prog, trans_prog);
        let outcome = self.replay_on(cutout, state, &mut orig_exec, &mut trans_exec);
        park_executors(stash, orig_prog, trans_prog, (orig_exec, trans_exec));
        outcome
    }

    /// [`DiffTester::replay_case`] on executors the caller already holds
    /// (triage bisection probes): [`DiffTester::run_original`], then
    /// [`DiffTester::compare_transformed`].
    pub fn replay_on(
        &self,
        cutout: &Cutout,
        state: &ExecState,
        orig_exec: &mut Executor<'_>,
        trans_exec: &mut Executor<'_>,
    ) -> CaseOutcome {
        match self.run_original(state, orig_exec, None) {
            Ok(()) => self.compare_transformed(cutout, state, orig_exec, trans_exec),
            Err(e) => CaseOutcome::OriginalFailed(e),
        }
    }

    /// The oracle's first half: runs the original cutout on `state`,
    /// recording edge coverage into `cov` when given. An error means the
    /// input says nothing about the transformation.
    pub fn run_original(
        &self,
        state: &ExecState,
        orig_exec: &mut Executor<'_>,
        cov: Option<&mut CoverageMap>,
    ) -> Result<(), ExecError> {
        orig_exec.execute(state, &self.exec_options(), None, cov)
    }

    /// The oracle's second half, after [`DiffTester::run_original`]
    /// accepted `state`: runs the transformed cutout on the same input
    /// and compares — a hang, crash or structural failure of the
    /// transformed side first, then the symbols of
    /// [`Cutout::symbol_state`], then the system state under
    /// [`DiffTester::tolerance`]. Returns [`CaseOutcome::Pass`] or a
    /// fault.
    pub fn compare_transformed(
        &self,
        cutout: &Cutout,
        state: &ExecState,
        orig_exec: &Executor<'_>,
        trans_exec: &mut Executor<'_>,
    ) -> CaseOutcome {
        match trans_exec.execute(state, &self.exec_options(), None, None) {
            Err(e) if e.is_hang() => return CaseOutcome::Hang(e),
            Err(e) if e.is_crash() => return CaseOutcome::Crash(e),
            Err(e) => return CaseOutcome::Invalid(e),
            Ok(()) => {}
        }
        for s in &cutout.symbol_state {
            let (original, transformed) = (orig_exec.symbol(s), trans_exec.symbol(s));
            if original != transformed {
                return CaseOutcome::SymbolChange {
                    symbol: s.clone(),
                    original,
                    transformed,
                };
            }
        }
        match orig_exec.compare_on(trans_exec, &cutout.system_state, self.tolerance) {
            Some(mismatch) => CaseOutcome::SemanticChange(mismatch),
            None => CaseOutcome::Pass,
        }
    }

    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            max_steps: self.max_steps,
            reset: self.reset,
            oob_slop: self.oob_slop,
            ..ExecOptions::default()
        }
    }

    /// Scans trial outcomes in order and reproduces the sequential
    /// tester's report: the first terminal trial decides the verdict, and
    /// resample counts accumulate over all trials up to it. Only that
    /// trial's fault is rendered into a test case.
    fn finalize(&self, cutout: &str, mut outcomes: Vec<Option<TrialOutcome>>) -> DiffReport {
        let mut resamples = 0usize;
        for trial in 1..=self.trials {
            let outcome = outcomes[trial - 1]
                .take()
                .expect("all trials up to the first terminal one complete");
            resamples += outcome.resamples();
            match outcome {
                TrialOutcome::Passed { .. } => {}
                TrialOutcome::NoSample { .. } => {
                    return DiffReport {
                        verdict: Verdict::Inconclusive {
                            reason: format!(
                                "could not sample an accepted input after {} attempts",
                                self.max_resamples
                            ),
                        },
                        trials_run: trial - 1,
                        resamples,
                        trials_to_detection: None,
                    };
                }
                TrialOutcome::Fault {
                    outcome, sample, ..
                } => {
                    return DiffReport {
                        verdict: outcome
                            .verdict(trial, cutout, &sample)
                            .expect("trial faults render to verdicts"),
                        trials_run: trial,
                        resamples,
                        trials_to_detection: Some(trial),
                    };
                }
            }
        }
        DiffReport {
            verdict: Verdict::Equivalent {
                trials: self.trials,
            },
            trials_run: self.trials,
            resamples,
            trials_to_detection: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::derive_constraints;
    use fuzzyflow_cutout::{extract_cutout, SideEffectContext};
    use fuzzyflow_ir::{
        sym, DType, Memlet, ScalarExpr, Schedule, SdfgBuilder, Subset, SymRange, Tasklet,
    };
    use fuzzyflow_transforms::{
        apply_to_clone, MapTiling, MapTilingNoRemainder, MapTilingOffByOne, Transformation,
    };

    /// s[0] += A[i]: accumulation program where tiling bugs are visible.
    fn acc_program() -> (
        fuzzyflow_ir::Sdfg,
        fuzzyflow_ir::StateId,
        fuzzyflow_graph::NodeId,
    ) {
        let mut b = SdfgBuilder::new("acc");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("s", DType::F64, &["1"]);
        let st = b.start();
        let mut mid = None;
        b.in_state(st, |df| {
            let a = df.access("A");
            let s = df.access("s");
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("A");
                    let s = body.access("s");
                    let t = body.tasklet(Tasklet::simple("id", vec!["x"], "y", ScalarExpr::r("x")));
                    body.read(
                        a,
                        t,
                        Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                    );
                    body.write(
                        t,
                        s,
                        Memlet::new("s", Subset::at(vec![fuzzyflow_ir::SymExpr::Int(0)]))
                            .from_conn("y")
                            .with_wcr(fuzzyflow_ir::Wcr::Sum),
                    );
                },
            );
            df.auto_wire(m, &[a], &[s]);
            mid = Some(m);
        });
        let p = b.build();
        (p, st, mid.unwrap())
    }

    fn verify(t: &dyn Transformation, trials: usize) -> Verdict {
        let (p, _, _) = acc_program();
        let m = &t.find_matches(&p)[0];
        let (_, changes) = apply_to_clone(&p, t, m).unwrap();
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        let translated = fuzzyflow_cutout::translate_match(&c, m).unwrap();
        let mut transformed = c.sdfg.clone();
        t.apply(&mut transformed, &translated).unwrap();
        let cons = derive_constraints(&c, &p);
        let tester = DiffTester::new(trials, 12345);
        tester.test(&c, &transformed, &cons).verdict
    }

    #[test]
    fn correct_tiling_accepted() {
        let v = verify(&MapTiling::new(4), 30);
        assert!(matches!(v, Verdict::Equivalent { .. }), "{v:?}");
    }

    #[test]
    fn off_by_one_tiling_flagged_as_semantic_change() {
        let v = verify(&MapTilingOffByOne::new(4), 50);
        assert!(matches!(v, Verdict::SemanticChange { .. }), "{v:?}");
    }

    #[test]
    fn no_remainder_tiling_flagged_as_crash() {
        let v = verify(&MapTilingNoRemainder::new(4), 50);
        assert!(matches!(v, Verdict::Crash { .. }), "{v:?}");
    }

    #[test]
    fn failing_case_replays() {
        let (p, _, _) = acc_program();
        let t = MapTilingOffByOne::new(4);
        let m = &t.find_matches(&p)[0];
        let (_, changes) = apply_to_clone(&p, &t, m).unwrap();
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        let translated = fuzzyflow_cutout::translate_match(&c, m).unwrap();
        let mut transformed = c.sdfg.clone();
        t.apply(&mut transformed, &translated).unwrap();
        let cons = derive_constraints(&c, &p);
        let report = DiffTester::new(50, 777).test(&c, &transformed, &cons);
        let Verdict::SemanticChange { case, .. } = &report.verdict else {
            panic!("expected semantic change, got {:?}", report.verdict);
        };
        // Replaying the captured input must reproduce the divergence.
        let text = case.to_text();
        let replay = TestCase::from_text(&text).unwrap();
        let mut a = replay.state.clone();
        let mut b = replay.state.clone();
        fuzzyflow_interp::run(&c.sdfg, &mut a).unwrap();
        fuzzyflow_interp::run(&transformed, &mut b).unwrap();
        assert!(a.compare_on(&b, &c.system_state, 1e-5).is_some());
    }

    /// Acceptance criterion of the compile-once engine: parallel trial
    /// batches must produce verdicts byte-identical to sequential
    /// execution, for faulting and clean instances alike.
    #[test]
    fn parallel_batches_match_sequential() {
        let (p, _, _) = acc_program();
        for t in [
            Box::new(MapTiling::new(4)) as Box<dyn Transformation>,
            Box::new(MapTilingOffByOne::new(4)),
            Box::new(MapTilingNoRemainder::new(4)),
        ] {
            let m = &t.find_matches(&p)[0];
            let (_, changes) = apply_to_clone(&p, t.as_ref(), m).unwrap();
            let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
            let c = extract_cutout(&p, &changes, &ctx).unwrap();
            let translated = fuzzyflow_cutout::translate_match(&c, m).unwrap();
            let mut transformed = c.sdfg.clone();
            t.apply(&mut transformed, &translated).unwrap();
            let cons = derive_constraints(&c, &p);
            let sequential = DiffTester {
                threads: 1,
                ..DiffTester::new(40, 4242)
            }
            .test(&c, &transformed, &cons);
            let parallel = DiffTester {
                threads: 4,
                ..DiffTester::new(40, 4242)
            }
            .test(&c, &transformed, &cons);
            assert_eq!(
                format!("{sequential:?}"),
                format!("{parallel:?}"),
                "thread count changed the report for {}",
                t.name()
            );
        }
    }

    /// Regression for the per-worker executor-arena cache: repeated
    /// `test` calls (cache hits) and sequential/parallel widths must all
    /// produce byte-identical reports — recycled arenas may never leak
    /// state between campaigns.
    #[test]
    fn cached_arenas_do_not_change_reports() {
        let (p, _, _) = acc_program();
        let t = MapTilingOffByOne::new(4);
        let m = &t.find_matches(&p)[0];
        let (_, changes) = apply_to_clone(&p, &t, m).unwrap();
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        let translated = fuzzyflow_cutout::translate_match(&c, m).unwrap();
        let mut transformed = c.sdfg.clone();
        t.apply(&mut transformed, &translated).unwrap();
        let cons = derive_constraints(&c, &p);
        let tester = DiffTester {
            threads: 1,
            ..DiffTester::new(40, 999)
        };
        let first = format!("{:?}", tester.test(&c, &transformed, &cons));
        for _ in 0..3 {
            assert_eq!(first, format!("{:?}", tester.test(&c, &transformed, &cons)));
        }
    }

    /// The session artifact-cache path: trials over a caller-held stash
    /// must report byte-identically to `test`, a cold run must park its
    /// arena pairs in the stash, and a warm run must construct zero
    /// fresh arenas (width is capped at the stash size).
    #[test]
    fn stash_arenas_match_reports_and_construct_nothing_when_warm() {
        let (p, _, _) = acc_program();
        let t = MapTilingOffByOne::new(4);
        let m = &t.find_matches(&p)[0];
        let (_, changes) = apply_to_clone(&p, &t, m).unwrap();
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        let translated = fuzzyflow_cutout::translate_match(&c, m).unwrap();
        let mut transformed = c.sdfg.clone();
        t.apply(&mut transformed, &translated).unwrap();
        let cons = derive_constraints(&c, &p);
        let tester = DiffTester {
            threads: 4,
            ..DiffTester::new(40, 4242)
        };
        let reference = format!("{:?}", tester.test(&c, &transformed, &cons));

        let orig_prog = Program::compile(&c.sdfg);
        let trans_prog = Program::compile(&transformed);
        let stash = ArenaStash::new();
        let pool = WorkerPool::global();
        let cold =
            tester.test_compiled(pool, &c, &orig_prog, &trans_prog, &cons, Some(&stash), None);
        assert_eq!(format!("{cold:?}"), reference, "stash path diverged");
        let parked = stash.len();
        assert!(parked >= 1, "cold run parked its arenas");

        for _ in 0..3 {
            let warm =
                tester.test_compiled(pool, &c, &orig_prog, &trans_prog, &cons, Some(&stash), None);
            assert_eq!(format!("{warm:?}"), reference, "warm stash run diverged");
        }
        // Warm runs cap their width at the stash size and every finish
        // parks its pair back, so the stash can only grow if a fresh
        // arena pair was constructed — a constant size proves zero fresh
        // construction. (The `session_reuse` bench asserts the same via
        // `fresh_arena_count` in a controlled process.)
        assert_eq!(stash.len(), parked, "warm runs constructed fresh arenas");
    }

    /// An instance stash obeys the process-wide cache capacity knob:
    /// pairs parked past it are dropped, not retained forever.
    #[test]
    fn arena_stash_respects_the_cache_capacity_knob() {
        let stash = ArenaStash::new();
        let cap = fuzzyflow_interp::cache_capacity();
        for _ in 0..cap + 8 {
            stash.put((ExecutorArena::new(), ExecutorArena::new()));
        }
        assert_eq!(stash.len(), cap, "stash grew past the capacity knob");
    }

    #[test]
    fn progress_callback_counts_every_completed_trial() {
        let (p, _, _) = acc_program();
        let t = MapTiling::new(4);
        let m = &t.find_matches(&p)[0];
        let (_, changes) = apply_to_clone(&p, &t, m).unwrap();
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        let translated = fuzzyflow_cutout::translate_match(&c, m).unwrap();
        let mut transformed = c.sdfg.clone();
        t.apply(&mut transformed, &translated).unwrap();
        let cons = derive_constraints(&c, &p);
        let tester = DiffTester {
            threads: 2,
            ..DiffTester::new(20, 7)
        };
        let orig_prog = Program::compile(&c.sdfg);
        let trans_prog = Program::compile(&transformed);
        let seen = std::sync::atomic::AtomicUsize::new(0);
        let report = tester.test_compiled(
            pool_ref(),
            &c,
            &orig_prog,
            &trans_prog,
            &cons,
            None,
            Some(&|done| {
                seen.fetch_max(done, std::sync::atomic::Ordering::Relaxed);
            }),
        );
        assert_eq!(
            seen.load(std::sync::atomic::Ordering::Relaxed),
            report.trials_run,
            "progress must reach the number of executed trials"
        );
    }

    fn pool_ref() -> &'static WorkerPool {
        WorkerPool::global()
    }

    /// `B[i + off] = A[i]`: `off = 0` is the correct program, `off = 1`
    /// an off-by-one transformation whose last store lands one element
    /// past the end of `B` — inside the guard plane.
    fn copy_program(
        off: i64,
    ) -> (
        fuzzyflow_ir::Sdfg,
        fuzzyflow_ir::StateId,
        fuzzyflow_graph::NodeId,
    ) {
        let mut b = SdfgBuilder::new("copy");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        let st = b.start();
        let mut mid = None;
        b.in_state(st, |df| {
            let a = df.access("A");
            let o = df.access("B");
            let m = df.map(
                &["i"],
                vec![SymRange::full(sym("N"))],
                Schedule::Parallel,
                |body| {
                    let a = body.access("A");
                    let o = body.access("B");
                    let t = body.tasklet(Tasklet::simple("cp", vec!["x"], "y", ScalarExpr::r("x")));
                    body.read(
                        a,
                        t,
                        Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
                    );
                    body.write(
                        t,
                        o,
                        Memlet::new(
                            "B",
                            Subset::at(vec![sym("i") + fuzzyflow_ir::SymExpr::Int(off)]),
                        )
                        .from_conn("y"),
                    );
                },
            );
            df.auto_wire(m, &[a], &[o]);
            mid = Some(m);
        });
        let p = b.build();
        (p, st, mid.unwrap())
    }

    /// Acceptance criterion of the guard planes: a seeded out-of-bounds
    /// *write* transformation surfaces as a guard-plane fault naming the
    /// container and the faulting element — sharper triage than either
    /// the bare trap or a downstream value mismatch.
    #[test]
    fn seeded_oob_write_reported_as_guard_fault_at_element() {
        let (p, st, m) = copy_program(0);
        let changes = fuzzyflow_transforms::ChangeSet::nodes_in_state(st, [m]);
        let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
        let c = extract_cutout(&p, &changes, &ctx).unwrap();
        let (bad, _, _) = copy_program(1);
        let cons = derive_constraints(&c, &p);

        let slop = DiffTester {
            oob_slop: true,
            ..DiffTester::new(20, 31337)
        };
        let report = slop.test(&c, &bad, &cons);
        let Verdict::Crash { error, .. } = &report.verdict else {
            panic!("expected a crash verdict, got {:?}", report.verdict);
        };
        assert!(
            error.contains("guard-plane violation on 'B'"),
            "fault names the container: {error}"
        );
        assert!(
            error.contains("landed in the guard plane"),
            "fault names the wild store, not a value mismatch: {error}"
        );

        // Default trap mode flags the same instance as a plain OOB crash.
        let trap = DiffTester::new(20, 31337).test(&c, &bad, &cons);
        let Verdict::Crash { error, .. } = &trap.verdict else {
            panic!("expected a crash verdict, got {:?}", trap.verdict);
        };
        assert!(error.contains("out-of-bounds"), "{error}");
    }

    /// The dirty-region reset must never change a report: across thread
    /// counts 1, 2 and 8 and both reset policies, faulting and clean
    /// instances alike produce byte-identical reports.
    #[test]
    fn dirty_and_full_resets_report_identically_across_threads() {
        let (p, _, _) = acc_program();
        for t in [
            Box::new(MapTiling::new(4)) as Box<dyn Transformation>,
            Box::new(MapTilingOffByOne::new(4)),
            Box::new(MapTilingNoRemainder::new(4)),
        ] {
            let m = &t.find_matches(&p)[0];
            let (_, changes) = apply_to_clone(&p, t.as_ref(), m).unwrap();
            let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 64);
            let c = extract_cutout(&p, &changes, &ctx).unwrap();
            let translated = fuzzyflow_cutout::translate_match(&c, m).unwrap();
            let mut transformed = c.sdfg.clone();
            t.apply(&mut transformed, &translated).unwrap();
            let cons = derive_constraints(&c, &p);
            let mut reference = None;
            for threads in [1usize, 2, 8] {
                for reset in [ResetPolicy::Dirty, ResetPolicy::Full] {
                    let tester = DiffTester {
                        threads,
                        reset,
                        ..DiffTester::new(40, 2024)
                    };
                    let got = format!("{:?}", tester.test(&c, &transformed, &cons));
                    match &reference {
                        None => reference = Some(got),
                        Some(want) => assert_eq!(
                            want,
                            &got,
                            "report diverged for {} (threads={threads}, {reset:?})",
                            t.name()
                        ),
                    }
                }
            }
        }
    }

    /// The verdict and test-case message every driver renders a fault
    /// with, pinned per fault arm to the strings reports carry.
    fn projected(outcome: CaseOutcome) -> Verdict {
        let mut input = ExecState::new();
        input.bind("N", 5);
        let verdict = outcome.verdict(7, "prog_cutout", &input).expect("a fault");
        if let Verdict::Hang { case, .. }
        | Verdict::Crash { case, .. }
        | Verdict::SemanticChange { case, .. } = &verdict
        {
            assert_eq!(case.program, "prog_cutout");
            assert_eq!(case.state, input);
            assert_eq!(case.failure, outcome.failure_text());
        }
        verdict
    }

    #[test]
    fn projection_pins_hang_reports() {
        let e = ExecError::StepLimitExceeded { limit: 100 };
        let Verdict::Hang { trial, error, case } = projected(CaseOutcome::Hang(e)) else {
            panic!("expected a hang");
        };
        assert_eq!(trial, 7);
        assert_eq!(error, "step limit exceeded (100 steps) — treating as hang");
        assert_eq!(case.failure, error);
    }

    #[test]
    fn projection_pins_crash_reports() {
        let e = ExecError::OutOfBounds {
            data: "B".into(),
            point: vec![4],
            shape: vec![4],
        };
        let Verdict::Crash { trial, error, case } = projected(CaseOutcome::Crash(e)) else {
            panic!("expected a crash");
        };
        assert_eq!(trial, 7);
        assert_eq!(
            error,
            "out-of-bounds access on 'B': index [4] outside shape [4]"
        );
        assert_eq!(case.failure, error);
    }

    #[test]
    fn projection_pins_invalid_code_reports() {
        let e = ExecError::Malformed("dangling edge".into());
        let Verdict::InvalidCode { errors } = projected(CaseOutcome::Invalid(e)) else {
            panic!("expected invalid code");
        };
        assert_eq!(errors, vec!["malformed program: dangling edge".to_string()]);
    }

    #[test]
    fn projection_pins_symbol_change_reports() {
        let outcome = CaseOutcome::SymbolChange {
            symbol: "k".into(),
            original: Some(3),
            transformed: None,
        };
        let Verdict::SemanticChange {
            trial,
            mismatch,
            case,
        } = projected(outcome)
        else {
            panic!("expected a semantic change");
        };
        assert_eq!(trial, 7);
        assert_eq!(mismatch, "symbol 'k' differs: Some(3) vs None");
        assert_eq!(case.failure, "symbol state change: 'k'");
    }

    #[test]
    fn projection_pins_semantic_change_reports() {
        let m = fuzzyflow_interp::StateMismatch {
            data: "s".into(),
            index: 0,
            lhs: "1.5".into(),
            rhs: "2.5".into(),
        };
        let Verdict::SemanticChange {
            trial,
            mismatch,
            case,
        } = projected(CaseOutcome::SemanticChange(m))
        else {
            panic!("expected a semantic change");
        };
        assert_eq!(trial, 7);
        assert_eq!(mismatch, "'s' differs at element 0: 1.5 vs 2.5");
        assert_eq!(
            case.failure,
            "semantic change: 's' differs at element 0: 1.5 vs 2.5"
        );
    }

    #[test]
    fn projection_skips_non_faults() {
        let input = ExecState::new();
        assert!(CaseOutcome::Pass.verdict(1, "c", &input).is_none());
        let e = ExecError::IntegerDivisionByZero;
        assert!(CaseOutcome::OriginalFailed(e)
            .verdict(1, "c", &input)
            .is_none());
    }

    #[test]
    fn deterministic_reports_per_seed() {
        let v1 = verify(&MapTilingOffByOne::new(4), 50);
        let v2 = verify(&MapTilingOffByOne::new(4), 50);
        match (v1, v2) {
            (
                Verdict::SemanticChange { trial: t1, .. },
                Verdict::SemanticChange { trial: t2, .. },
            ) => assert_eq!(t1, t2),
            other => panic!("expected matching semantic changes, got {other:?}"),
        }
    }
}
