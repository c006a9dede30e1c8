//! The three benchmark workloads: which programs, which transformations,
//! and the configuration each campaign runs under.

use fuzzyflow::ir::{Bindings, Sdfg};
use fuzzyflow::prelude::*;
use fuzzyflow::session::InstanceMeta;
use fuzzyflow::transforms::TransformationMatch;
use fuzzyflow::workloads as wl;

/// Sampled-size ceiling of every workload.
pub const SIZE_MAX: i64 = 10;

/// Name under which the CLOUDSC program joins a campaign; only the
/// CLOUDSC transformations are tested on it, and only on it.
const CLOUDSC: &str = "cloudsc";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every paper program, verified from scratch on each pass.
    Cold,
    /// The same instances at 300 trials, re-run on one prepared session.
    Warm,
    /// The fig. 2/5/6 and CLOUDSC instances in evolution mode.
    Evolve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Cold, Workload::Warm, Workload::Evolve];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "campaign_cold",
            Workload::Warm => "campaign_warm",
            Workload::Evolve => "campaign_evolve",
        }
    }

    /// One-shot trials per instance (unused in evolution mode).
    fn trials(self) -> usize {
        match self {
            Workload::Cold => 100,
            Workload::Warm => 300,
            Workload::Evolve => VerifyConfig::default().trials,
        }
    }

    /// Run time budgeted per timed pass. It only turns `--seconds` into a
    /// pass count, so the number of passes a process runs depends on the
    /// command line alone and is the same for every build of the program
    /// measured. On a 2-core x86_64 VM a cold pass takes 0.6 to 0.8 s, a
    /// warm one 0.3 to 0.6 s and an evolve one 0.6 to 1.2 s. Evolve, the
    /// least steady, gets the most passes, and the whole benchmark's time
    /// limit bounds the sum. The cold budget of 1.6 s caps its passes,
    /// because each one leaves the process larger (superseded
    /// program-cache snapshots are never freed), and memory is shared
    /// with other tenants.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::Cold => 1.6,
            Workload::Warm => 1.2,
            Workload::Evolve => 0.9,
        }
    }

    /// Timed passes for a run of `seconds`.
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_s()).round() as usize).max(1)
    }

    /// Whether each timed pass builds a fresh campaign and session.
    pub fn is_cold(self) -> bool {
        self == Workload::Cold
    }

    pub fn verify_config(self, seed: u64) -> VerifyConfig {
        VerifyConfig::new()
            .with_trials(self.trials())
            .with_size_max(SIZE_MAX)
            .with_seed(seed)
            .with_trial_threads(1)
    }

    pub fn evolve_config(self, seed: u64) -> Option<EvolveConfig> {
        (self == Workload::Evolve).then(|| EvolveConfig::default().with_seed(seed))
    }
}

/// One program of the suite with its default bindings.
pub struct Program {
    pub name: String,
    pub sdfg: Sdfg,
    pub bindings: Bindings,
}

/// The programs a workload verifies, in campaign order.
pub fn programs(w: Workload) -> Vec<Program> {
    let p = |name: &str, sdfg, bindings| Program {
        name: name.to_string(),
        sdfg,
        bindings,
    };
    let mut v = vec![
        p(
            "matmul_chain",
            wl::matmul_chain(),
            wl::matmul_chain::default_bindings(),
        ),
        p(
            "vanilla_attention",
            wl::vanilla_attention(),
            wl::attention::default_bindings(),
        ),
        p(
            "mha_encoder",
            wl::mha_encoder(),
            wl::mha::default_bindings(),
        ),
    ];
    if w != Workload::Evolve {
        v.extend(
            wl::suite()
                .into_iter()
                .map(|k| p(k.name, k.sdfg, k.bindings)),
        );
    }
    v.push(p(
        CLOUDSC,
        wl::cloudsc_like(),
        wl::cloudsc::default_bindings(),
    ));
    v
}

/// `builtin_suite` followed by `cloudsc_suite`.
pub fn transformations() -> Vec<Box<dyn Transformation>> {
    let mut ts = builtin_suite();
    ts.extend(cloudsc_suite());
    ts
}

/// The campaign filter: CLOUDSC transformations on CLOUDSC, the built-in
/// suite on every other program.
pub fn keep(workload: &str, transformation: &str) -> bool {
    let cloudsc_pass = cloudsc_suite().iter().any(|t| t.name() == transformation);
    cloudsc_pass == (workload == CLOUDSC)
}

/// The campaign of one pass (or, for warm and evolve workloads, of the
/// one session every pass re-runs). Single-threaded, default caches.
pub fn campaign(w: Workload, programs: &[Program], seed: u64, limit: Option<usize>) -> Campaign {
    let mut c = Campaign::new(w.name())
        .with_transformations(transformations())
        .with_filter(|m: &InstanceMeta<'_>| keep(m.workload, m.transformation))
        .with_verify(w.verify_config(seed))
        .with_threads(1);
    for p in programs {
        c = c.with_workload(p.name.clone(), p.sdfg.clone(), p.bindings.clone());
    }
    if let Some(e) = w.evolve_config(seed) {
        c = c.with_evolve(e);
    }
    if let Some(n) = limit {
        c = c.with_max_instances(n);
    }
    c
}

/// One enumerated instance, by index into the programs and transformations.
pub struct Instance {
    pub program: usize,
    pub transformation: usize,
    pub m: TransformationMatch,
}

/// The campaign's work list in session order (program-major, then
/// transformation, then match), enumerated with `find` so the caller can
/// time each `find_matches` call.
pub fn enumerate(
    programs: &[Program],
    ts: &[Box<dyn Transformation>],
    limit: Option<usize>,
    mut find: impl FnMut(&dyn Transformation, &Sdfg) -> Vec<TransformationMatch>,
) -> Vec<Instance> {
    let mut out = Vec::new();
    for (pi, p) in programs.iter().enumerate() {
        for (ti, t) in ts.iter().enumerate() {
            for m in find(t.as_ref(), &p.sdfg) {
                if keep(&p.name, t.name()) {
                    out.push(Instance {
                        program: pi,
                        transformation: ti,
                        m,
                    });
                }
            }
        }
    }
    out.truncate(limit.unwrap_or(usize::MAX));
    out
}
