//! Quantifier-free queries over the reduced colored graph.
//!
//! Proposition 3.3 guarantees the reduced formula has the shape
//! `ψ = ψ₁ ∧ ψ₂` where `ψ₁` forbids `E`-edges between distinct answer
//! components and `ψ₂` is a positive boolean combination of unary atoms.
//! We keep `ψ₂` in the *mutually exclusive clause form* that Propositions
//! 3.6 and 3.9 normalize into: a disjunction of clauses, each fixing a
//! conjunction of required colors per position; distinct clauses have
//! disjoint answer sets because every vertex carries exactly one `C_ι` color
//! and exactly one type color.

use crate::enumerate::EdgeAdjacency;
use lowdeg_index::FxHashMap;
use lowdeg_storage::{Node, RelId, Structure};
use std::sync::{Arc, Mutex};

/// The reduced query `ψ` over the colored graph: `k` positions, an edge
/// relation whose absence is required pairwise (`ψ₁`), and exclusive color
/// clauses (`ψ₂`).
#[derive(Clone, Debug)]
pub struct GraphQuery {
    /// Arity.
    pub k: usize,
    /// The `E` relation of the colored graph.
    pub edge: RelId,
    /// Mutually exclusive clauses.
    pub clauses: Vec<GraphClause>,
}

/// One clause `θ_j`: per position, the conjunction of unary colors the
/// vertex must carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphClause {
    /// `colors[i]` = unary relations required at position `i`.
    pub colors: Vec<Vec<RelId>>,
}

impl GraphClause {
    /// Does `v` satisfy the color requirements of position `i`?
    pub fn position_accepts(&self, graph: &Structure, i: usize, v: Node) -> bool {
        self.colors[i].iter().all(|&c| graph.holds(c, &[v]))
    }

    /// Does the whole tuple satisfy this clause (colors only — `ψ₁` is
    /// checked separately)?
    pub fn accepts_colors(&self, graph: &Structure, tuple: &[Node]) -> bool {
        tuple
            .iter()
            .enumerate()
            .all(|(i, &v)| self.position_accepts(graph, i, v))
    }
}

impl GraphQuery {
    /// Symmetric adjacency in the `E` relation (`E'` of the paper). `E`
    /// lives only in the [`EdgeAdjacency`] CSR (the reduction never
    /// materializes it as a stored relation), so the probe goes through
    /// the CSR; both directions are checked, tolerating asymmetric
    /// hand-built inputs.
    pub fn adjacent(&self, adjacency: &EdgeAdjacency, u: Node, v: Node) -> bool {
        adjacency.adjacent(u, v) || adjacency.adjacent(v, u)
    }

    /// Full semantic check of `ψ` on a tuple of graph vertices.
    pub fn accepts(&self, graph: &Structure, adjacency: &EdgeAdjacency, tuple: &[Node]) -> bool {
        debug_assert_eq!(tuple.len(), self.k);
        for i in 0..tuple.len() {
            for j in (i + 1)..tuple.len() {
                if self.adjacent(adjacency, tuple[i], tuple[j]) {
                    return false;
                }
            }
        }
        self.clauses.iter().any(|c| c.accepts_colors(graph, tuple))
    }
}

/// Memoized [`position_list`]s of one reduced colored graph, keyed by the
/// exact color set.
///
/// A reduced query has one [`GraphClause`] per accepted Step 5
/// combination — easily tens of thousands — but its positions draw from
/// only a few hundred distinct `(C_ι, C_τ)` color pairs, so the naive
/// per-clause column intersection rescans the same relation columns
/// thousands of times. The memo collapses that to one scan per distinct
/// color set. It is keyed per reduction core (the lists are properties of
/// the reduced graph alone), lives in the
/// [`crate::ArtifactCache`] beside the core's counting memo so *every*
/// engine built against the core shares it, and the enumerator falls back
/// to a build-local memo when no cache is supplied — the lists are
/// identical either way.
#[derive(Debug, Default)]
pub struct PositionMemo {
    map: Mutex<FxHashMap<Vec<RelId>, Arc<[Node]>>>,
}

impl PositionMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized `P(G)` list for `colors`, built on first use. The
    /// scan runs outside the lock; a concurrent first probe keeps the
    /// earlier insertion (both scans produce the identical list).
    pub fn position_list(&self, graph: &Structure, colors: &[RelId]) -> Arc<[Node]> {
        if let Some(hit) = self.map.lock().expect("memo poisoned").get(colors) {
            return Arc::clone(hit);
        }
        let built: Arc<[Node]> = position_list(graph, colors).into();
        Arc::clone(
            self.map
                .lock()
                .expect("memo poisoned")
                .entry(colors.to_vec())
                .or_insert(built),
        )
    }
}

/// The sorted list of vertices carrying *all* of `colors` — the `P(G)` list
/// of Proposition 3.9. Intersection of sorted relation columns.
pub fn position_list(graph: &Structure, colors: &[RelId]) -> Vec<Node> {
    let Some((&first, rest)) = colors.split_first() else {
        // no color constraint: every vertex qualifies
        return graph.domain().collect();
    };
    let mut acc: Vec<Node> = graph.relation(first).iter().map(|t| t[0]).collect();
    for &c in rest {
        let other: Vec<Node> = graph.relation(c).iter().map(|t| t[0]).collect();
        acc = intersect_sorted(&acc, &other);
    }
    acc
}

fn intersect_sorted(a: &[Node], b: &[Node]) -> Vec<Node> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_storage::{node, Signature};
    use std::sync::Arc;

    fn graph() -> (Structure, RelId, RelId, RelId) {
        let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1)]));
        let e = sig.rel("E").unwrap();
        let b_ = sig.rel("B").unwrap();
        let r_ = sig.rel("R").unwrap();
        let mut b = Structure::builder(sig, 6);
        b.edge(e, node(0), node(3)).unwrap();
        for i in [0u32, 1] {
            b.fact(b_, &[node(i)]).unwrap();
        }
        for i in [3u32, 4] {
            b.fact(r_, &[node(i)]).unwrap();
        }
        b.fact(b_, &[node(4)]).unwrap(); // 4 is blue AND red
        let s = b.finish().unwrap();
        (s, e, b_, r_)
    }

    #[test]
    fn position_lists_intersect() {
        let (g, _, b_, r_) = graph();
        assert_eq!(position_list(&g, &[b_]), vec![node(0), node(1), node(4)]);
        assert_eq!(position_list(&g, &[b_, r_]), vec![node(4)]);
        assert_eq!(position_list(&g, &[]).len(), 6);
    }

    #[test]
    fn clause_acceptance() {
        let (g, e, b_, r_) = graph();
        let q = GraphQuery {
            k: 2,
            edge: e,
            clauses: vec![GraphClause {
                colors: vec![vec![b_], vec![r_]],
            }],
        };
        let adj = EdgeAdjacency::build(&g, e);
        assert!(q.accepts(&g, &adj, &[node(1), node(3)]));
        assert!(!q.accepts(&g, &adj, &[node(0), node(3)])); // edge violates ψ₁
        assert!(!q.accepts(&g, &adj, &[node(3), node(1)])); // wrong colors
        assert!(q.accepts(&g, &adj, &[node(4), node(4)])); // same node twice, no self edge
    }

    #[test]
    fn adjacency_is_symmetrized() {
        let (g, e, _, _) = graph();
        let q = GraphQuery {
            k: 2,
            edge: e,
            clauses: vec![],
        };
        let adj = EdgeAdjacency::build(&g, e);
        assert!(q.adjacent(&adj, node(0), node(3)));
        assert!(q.adjacent(&adj, node(3), node(0)));
        assert!(!q.adjacent(&adj, node(1), node(2)));
    }
}
