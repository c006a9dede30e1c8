//! Read/write set analysis over dataflow graphs.
//!
//! This module computes, for any node, *which containers it touches and at
//! which symbolic subsets* — the information the cutout extraction and the
//! two side-effect analyses of paper Sec. 3.1/3.2 are built on. For map
//! scopes, body accesses are widened over the iteration ranges, preserving
//! the parametric sub-region information (e.g. a body access `A[i, j]`
//! inside `i in [0,M), j in [0,N)` widens to `A[0:M, 0:N]`).

use crate::dataflow::Dataflow;
use crate::memlet::Wcr;
use crate::node::DfNode;
use fuzzyflow_graph::NodeId;
use fuzzyflow_sym::{Subset, SymExpr, SymRange};

/// One access: a container and the accessed symbolic subset.
#[derive(Clone, Debug, PartialEq)]
pub struct Access {
    pub data: String,
    pub subset: Subset,
    /// Write-conflict resolution if this is an accumulating write.
    pub wcr: Option<Wcr>,
}

/// The read and write sets of a node or graph region.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccessSets {
    pub reads: Vec<Access>,
    pub writes: Vec<Access>,
}

impl AccessSets {
    /// Merges another set into this one.
    pub fn merge(&mut self, other: AccessSets) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
    }

    /// All reads of a given container.
    pub fn reads_from<'a>(&'a self, data: &'a str) -> impl Iterator<Item = &'a Access> {
        self.reads.iter().filter(move |a| a.data == data)
    }

    /// All writes to a given container.
    pub fn writes_to<'a>(&'a self, data: &'a str) -> impl Iterator<Item = &'a Access> {
        self.writes.iter().filter(move |a| a.data == data)
    }

    /// Container names read (deduplicated).
    pub fn read_containers(&self) -> Vec<String> {
        dedup_names(self.reads.iter().map(|a| a.data.as_str()))
    }

    /// Container names written (deduplicated).
    pub fn written_containers(&self) -> Vec<String> {
        dedup_names(self.writes.iter().map(|a| a.data.as_str()))
    }

    /// Bounding-box union of all read subsets of `data`.
    pub fn union_read_subset(&self, data: &str) -> Option<Subset> {
        union_subsets(self.reads_from(data).map(|a| &a.subset))
    }

    /// Bounding-box union of all write subsets of `data`.
    pub fn union_write_subset(&self, data: &str) -> Option<Subset> {
        union_subsets(self.writes_to(data).map(|a| &a.subset))
    }
}

fn dedup_names<'a>(iter: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for n in iter {
        if !out.iter().any(|x| x == n) {
            out.push(n.to_string());
        }
    }
    out
}

fn union_subsets<'a>(mut iter: impl Iterator<Item = &'a Subset>) -> Option<Subset> {
    let first = iter.next()?.clone();
    Some(iter.fold(first, |acc, s| {
        if acc.rank() == s.rank() {
            acc.hull(s)
        } else {
            acc
        }
    }))
}

/// Widens a subset over one map parameter: substitutes the parameter with
/// both range extremes and takes the bounding hull. Sound for the affine
/// (monotone-in-parameter) index expressions this IR produces.
pub fn widen_over_param(subset: &Subset, param: &str, range: &SymRange) -> Subset {
    let last = (range.end.clone() - SymExpr::Int(1)).simplify();
    let lo = subset.substitute(param, &range.start);
    let hi = subset.substitute(param, &last);
    lo.hull(&hi)
}

/// Computes the read/write sets of a single node.
///
/// * Access nodes have empty sets (they are the *objects* of accesses).
/// * Tasklets and library nodes read via their incoming memlets and write
///   via their outgoing memlets.
/// * Map scopes recursively aggregate their body and widen every access
///   over the iteration parameters.
pub fn node_access_sets(df: &Dataflow, node: NodeId) -> AccessSets {
    node_access_sets_of(df, node, &|_| true)
}

/// Union of the access sets of every computation node in a graph
/// (recursing into nested maps via [`node_access_sets`]).
pub fn graph_access_sets(df: &Dataflow) -> AccessSets {
    graph_access_sets_of(df, &|_| true)
}

/// [`node_access_sets`] restricted to the containers `keep` accepts.
///
/// The filter runs before an access is cloned and widened over map
/// ranges. Widening is per access, so the result equals
/// [`node_access_sets`] with the other containers' accesses dropped, in
/// the same order — at the cost of the kept accesses only.
pub fn node_access_sets_of(df: &Dataflow, node: NodeId, keep: &dyn Fn(&str) -> bool) -> AccessSets {
    let mut sets = AccessSets::default();
    match df.graph.node(node) {
        DfNode::Access(_) => {}
        DfNode::Tasklet(_) | DfNode::Library(_) => {
            for (_, m) in df.in_memlets(node) {
                if keep(&m.data) {
                    sets.reads.push(Access {
                        data: m.data.clone(),
                        subset: m.subset.clone(),
                        wcr: None,
                    });
                }
            }
            for (_, m) in df.out_memlets(node) {
                if !keep(&m.data) {
                    continue;
                }
                sets.writes.push(Access {
                    data: m.data.clone(),
                    subset: m.subset.clone(),
                    wcr: m.wcr,
                });
                // Accumulating writes are read-modify-write: the prior
                // contents flow into the result, so WCR targets are part
                // of the read set too (and hence of input configurations).
                if m.wcr.is_some() {
                    sets.reads.push(Access {
                        data: m.data.clone(),
                        subset: m.subset.clone(),
                        wcr: m.wcr,
                    });
                }
            }
        }
        DfNode::Map(map) => {
            let mut body = graph_access_sets_of(&map.body, keep);
            // Widen innermost-first: later ranges may reference earlier
            // parameters (triangular spaces), so substituting an inner
            // parameter can re-introduce an outer one, which the outer
            // widening pass then resolves.
            for (param, range) in map.params.iter().zip(&map.ranges).rev() {
                for a in body.reads.iter_mut().chain(body.writes.iter_mut()) {
                    a.subset = widen_over_param(&a.subset, param, range);
                }
            }
            sets.merge(body);
        }
    }
    sets
}

/// [`graph_access_sets`] restricted to the containers `keep` accepts
/// (see [`node_access_sets_of`]).
pub fn graph_access_sets_of(df: &Dataflow, keep: &dyn Fn(&str) -> bool) -> AccessSets {
    let mut sets = AccessSets::default();
    for n in df.computation_nodes() {
        sets.merge(node_access_sets_of(df, n, keep));
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memlet::Memlet;
    use crate::node::{MapScope, Schedule};
    use crate::tasklet::{ScalarExpr, Tasklet};
    use fuzzyflow_sym::{sym, Bindings};

    /// Builds `map i in [0,N): out[i] = in[i] * 2`.
    fn scaled_map() -> Dataflow {
        let mut body = Dataflow::new();
        let a = body.add_access("A");
        let o = body.add_access("Out");
        let t = body.add_node(DfNode::Tasklet(Tasklet::simple(
            "scale",
            vec!["x"],
            "y",
            ScalarExpr::r("x").mul(ScalarExpr::f64(2.0)),
        )));
        body.connect(
            a,
            t,
            Memlet::new("A", Subset::at(vec![sym("i")])).to_conn("x"),
        );
        body.connect(
            t,
            o,
            Memlet::new("Out", Subset::at(vec![sym("i")])).from_conn("y"),
        );

        let mut outer = Dataflow::new();
        outer.add_node(DfNode::Map(MapScope {
            params: vec!["i".into()],
            ranges: vec![SymRange::full(sym("N"))],
            schedule: Schedule::Parallel,
            body,
        }));
        outer
    }

    #[test]
    fn tasklet_sets_from_memlets() {
        let mut df = Dataflow::new();
        let a = df.add_access("A");
        let b = df.add_access("B");
        let t = df.add_node(DfNode::Tasklet(Tasklet::simple(
            "t",
            vec!["x"],
            "y",
            ScalarExpr::r("x"),
        )));
        df.connect(
            a,
            t,
            Memlet::new("A", Subset::at(vec![sym("k")])).to_conn("x"),
        );
        df.connect(
            t,
            b,
            Memlet::new("B", Subset::at(vec![sym("k")])).from_conn("y"),
        );
        let sets = node_access_sets(&df, t);
        assert_eq!(sets.read_containers(), vec!["A".to_string()]);
        assert_eq!(sets.written_containers(), vec!["B".to_string()]);
    }

    #[test]
    fn map_widens_over_params() {
        let df = scaled_map();
        let m = df.computation_nodes()[0];
        let sets = node_access_sets(&df, m);
        let read = sets.union_read_subset("A").unwrap();
        let b = Bindings::from_pairs([("N", 10)]);
        let c = read.concrete(&b).unwrap();
        assert_eq!(c.dims[0].start, 0);
        assert_eq!(c.dims[0].end, 10);
        let write = sets.union_write_subset("Out").unwrap();
        assert_eq!(write.concrete(&b).unwrap().dims[0].end, 10);
    }

    #[test]
    fn widen_single_param_2d() {
        // A[i, 0:4] over i in [2, 8) -> A[2:8, 0:4]
        let s = Subset::new(vec![
            SymRange::index(sym("i")),
            SymRange::span(SymExpr::Int(0), SymExpr::Int(4)),
        ]);
        let w = widen_over_param(&s, "i", &SymRange::span(SymExpr::Int(2), SymExpr::Int(8)));
        let c = w.concrete(&Bindings::new()).unwrap();
        assert_eq!((c.dims[0].start, c.dims[0].end), (2, 8));
        assert_eq!((c.dims[1].start, c.dims[1].end), (0, 4));
    }

    #[test]
    fn access_nodes_have_empty_sets() {
        let mut df = Dataflow::new();
        let a = df.add_access("A");
        let sets = node_access_sets(&df, a);
        assert!(sets.reads.is_empty() && sets.writes.is_empty());
    }

    #[test]
    fn graph_sets_aggregate() {
        let df = scaled_map();
        let sets = graph_access_sets(&df);
        assert_eq!(sets.read_containers(), vec!["A".to_string()]);
        assert_eq!(sets.written_containers(), vec!["Out".to_string()]);
    }

    #[test]
    fn wcr_propagates_to_write_set() {
        let mut df = Dataflow::new();
        let a = df.add_access("A");
        let c = df.add_access("C");
        let t = df.add_node(DfNode::Tasklet(Tasklet::simple(
            "acc",
            vec!["x"],
            "y",
            ScalarExpr::r("x"),
        )));
        df.connect(
            a,
            t,
            Memlet::new("A", Subset::at(vec![sym("k")])).to_conn("x"),
        );
        df.connect(
            t,
            c,
            Memlet::new("C", Subset::at(vec![SymExpr::Int(0)]))
                .from_conn("y")
                .with_wcr(Wcr::Sum),
        );
        let sets = node_access_sets(&df, t);
        assert_eq!(sets.writes[0].wcr, Some(Wcr::Sum));
    }
}
