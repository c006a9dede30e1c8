//! One differential oracle behind every trial driver: a transformation
//! whose only effect is on scalar program state — an interstate
//! assignment the rest of the program reads — is the same semantic
//! change, worded the same, to the gray-box tester, the evolutionary
//! loop and the coverage-guided baseline.

use fuzzyflow::cutout::{extract_cutout, Cutout, SideEffectContext};
use fuzzyflow::evo::EvolutionFuzzer;
use fuzzyflow::fuzz::{derive_constraints, CoverageFuzzer, DiffTester, Verdict};
use fuzzyflow::interp::Program;
use fuzzyflow::ir::{
    sym, Bindings, DType, InterstateEdge, Memlet, ScalarExpr, Schedule, Sdfg, SdfgBuilder, StateId,
    Subset, SymExpr, SymRange, Tasklet,
};
use fuzzyflow::transforms::ChangeSet;

/// `start` copies `A` into `B`; the edge `start --[k = 0]--> use_k`
/// sets `k`, and `use_k` reads `A[k]`, so `k` is state the rest of the
/// program depends on.
fn program() -> (Sdfg, StateId) {
    let mut b = SdfgBuilder::new("symstate");
    b.symbol("N");
    b.array("A", DType::F64, &["N"]);
    b.array("B", DType::F64, &["N"]);
    let start = b.start();
    b.in_state(start, |df| {
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
                    Memlet::new("B", Subset::at(vec![sym("i")])).from_conn("y"),
                );
            },
        );
        df.auto_wire(m, &[a], &[o]);
    });
    let use_k = b.add_state("use_k");
    b.edge(
        start,
        use_k,
        InterstateEdge::always().assign("k", SymExpr::Int(0)),
    );
    b.in_state(use_k, |df| {
        let a = df.access("A");
        let o = df.access("B");
        let t = df.tasklet(Tasklet::simple("rd", vec!["x"], "y", ScalarExpr::r("x")));
        df.read(
            a,
            t,
            Memlet::new("A", Subset::at(vec![sym("k")])).to_conn("x"),
        );
        df.write(
            t,
            o,
            Memlet::new("B", Subset::at(vec![SymExpr::Int(0)])).from_conn("y"),
        );
    });
    (b.build(), start)
}

/// The cutout around `start` and a copy of it in which `k = 0` became
/// `k = 1` — nothing else changes.
fn cutout_pair() -> (Sdfg, Cutout, Sdfg) {
    let (p, start) = program();
    let ctx = SideEffectContext::with_size_symbols(&["N".to_string()], 16);
    let cutout = extract_cutout(&p, &ChangeSet::of_states(vec![start]), &ctx).unwrap();
    assert_eq!(cutout.symbol_state, vec!["k".to_string()]);
    let mut transformed = cutout.sdfg.clone();
    let edges: Vec<_> = transformed.states.edge_ids().collect();
    let mut rewritten = 0;
    for e in edges {
        for (s, value) in &mut transformed.states.edge_mut(e).assignments {
            if s == "k" {
                *value = SymExpr::Int(1);
                rewritten += 1;
            }
        }
    }
    assert_eq!(rewritten, 1, "the cutout keeps the one assignment to k");
    (p, cutout, transformed)
}

/// The three drivers' verdicts on `transformed`, labelled.
fn verdicts(p: &Sdfg, cutout: &Cutout, transformed: &Sdfg) -> Vec<(&'static str, Verdict)> {
    let constraints = derive_constraints(cutout, p);
    let seed = Bindings::from_pairs([("N", 4)]);

    let gray_box = DiffTester::new(20, 7).test(cutout, transformed, &constraints);

    let orig = Program::compile(&cutout.sdfg);
    let trans = Program::compile(transformed);
    let evolution = EvolutionFuzzer {
        trials: 20,
        max_faults: 2,
        seed: 7,
        ..Default::default()
    }
    .evolve(
        cutout,
        &orig,
        &trans,
        &constraints,
        &seed,
        None,
        &mut |_| {},
    );
    let evolved = match &evolution.first_fault {
        Some(f) => f
            .outcome
            .verdict(f.trial, &cutout.sdfg.name, &f.state)
            .expect("collected faults are faults"),
        None => Verdict::Equivalent {
            trials: evolution.trials_run,
        },
    };

    let coverage = CoverageFuzzer {
        max_trials: 20,
        seed: 7,
        ..Default::default()
    }
    .run(cutout, transformed, &seed);

    vec![
        ("DiffTester", gray_box.verdict),
        ("EvolutionFuzzer", evolved),
        ("CoverageFuzzer", coverage.verdict),
    ]
}

#[test]
fn every_driver_reports_a_symbol_side_effect_change_the_same_way() {
    let (p, cutout, transformed) = cutout_pair();
    for (driver, verdict) in verdicts(&p, &cutout, &transformed) {
        assert_eq!(verdict.label(), "semantic change", "{driver}: {verdict:?}");
        let Verdict::SemanticChange { mismatch, case, .. } = &verdict else {
            unreachable!()
        };
        assert_eq!(
            mismatch, "symbol 'k' differs: Some(0) vs Some(1)",
            "{driver}"
        );
        assert_eq!(case.failure, "symbol state change: 'k'", "{driver}");
        assert_eq!(case.program, cutout.sdfg.name, "{driver}");
    }
}

#[test]
fn every_driver_accepts_the_unchanged_cutout() {
    let (p, cutout, _) = cutout_pair();
    for (driver, verdict) in verdicts(&p, &cutout, &cutout.sdfg) {
        assert!(
            matches!(verdict, Verdict::Equivalent { .. }),
            "{driver}: {verdict:?}"
        );
    }
}
