//! The name-filtered access-set analysis that the side-effect scans use
//! (`node_access_sets_of` / `graph_access_sets_of`) equals the unfiltered
//! reference (`node_access_sets` / `graph_access_sets`) with the other
//! containers' accesses dropped, in the same order — over every state
//! and every top-level node of the paper's programs.

use fuzzyflow::ir::analysis::{
    graph_access_sets, graph_access_sets_of, node_access_sets, node_access_sets_of, AccessSets,
};
use fuzzyflow::ir::Sdfg;
use fuzzyflow::workloads as wl;

fn programs() -> Vec<(String, Sdfg)> {
    let mut v = vec![
        ("matmul_chain".to_string(), wl::matmul_chain()),
        ("vanilla_attention".to_string(), wl::vanilla_attention()),
        ("mha_encoder".to_string(), wl::mha_encoder()),
        ("cloudsc_like".to_string(), wl::cloudsc_like()),
    ];
    v.extend(
        wl::suite()
            .into_iter()
            .map(|k| (k.name.to_string(), k.sdfg)),
    );
    v
}

/// Every single container, plus a few pairs: neighbours in name order
/// and the first with the last.
fn keep_sets(sdfg: &Sdfg) -> Vec<Vec<String>> {
    let names: Vec<String> = sdfg.arrays.keys().cloned().collect();
    let mut sets: Vec<Vec<String>> = names.iter().map(|n| vec![n.clone()]).collect();
    sets.extend(names.windows(2).step_by(2).map(|w| w.to_vec()));
    if let [first, .., last] = names.as_slice() {
        sets.push(vec![first.clone(), last.clone()]);
    }
    sets
}

fn restrict(sets: &AccessSets, keep: &[String]) -> AccessSets {
    let kept = |a: &&fuzzyflow::ir::analysis::Access| keep.contains(&a.data);
    AccessSets {
        reads: sets.reads.iter().filter(kept).cloned().collect(),
        writes: sets.writes.iter().filter(kept).cloned().collect(),
    }
}

#[test]
fn filtered_access_sets_equal_restricted_reference() {
    let mut nonempty = 0usize;
    for (name, sdfg) in programs() {
        for state in sdfg.states.node_ids() {
            let df = &sdfg.state(state).df;
            let whole = graph_access_sets(df);
            let nodes: Vec<_> = df.graph.node_ids().collect();
            let per_node: Vec<_> = nodes.iter().map(|&n| node_access_sets(df, n)).collect();
            for keep in keep_sets(&sdfg) {
                let filter = |d: &str| keep.iter().any(|k| k == d);
                let got = graph_access_sets_of(df, &filter);
                assert_eq!(
                    got,
                    restrict(&whole, &keep),
                    "{name}: state {state:?}, keep {keep:?}"
                );
                nonempty += usize::from(!got.reads.is_empty() || !got.writes.is_empty());
                for (&n, reference) in nodes.iter().zip(&per_node) {
                    assert_eq!(
                        node_access_sets_of(df, n, &filter),
                        restrict(reference, &keep),
                        "{name}: state {state:?}, node {n:?}, keep {keep:?}"
                    );
                }
            }
        }
    }
    assert!(nonempty > 100, "too few non-trivial cases: {nonempty}");
}
