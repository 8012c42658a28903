//! Seeded inputs: colored graphs, a series of edited versions of one
//! graph, the query texts of each workload, and closed-form answer counts
//! computed straight from the edge list (the ground truth every engine
//! count is checked against).

use lowdeg_gen::{ColoredGraphSpec, DegreeClass, COLOR_NAMES};
use lowdeg_storage::{Node, Structure};
use std::collections::HashSet;

/// SplitMix64: a small seeded generator for the benchmark's own choices
/// (edits, probe tuples). The library never sees it, only its outputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream`, so independent choices made
    /// from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }
}

/// A balanced random colored graph over `{E, B, R, G}` with maximum
/// degree `degree`.
pub fn colored(n: usize, degree: usize, seed: u64) -> Structure {
    ColoredGraphSpec::balanced(n, DegreeClass::Bounded(degree)).generate(seed)
}

/// An undirected colored graph as plain data, so the benchmark can apply
/// edits and rebuild a [`Structure`] for each version.
#[derive(Clone)]
pub struct Graph {
    n: usize,
    max_degree: usize,
    /// Undirected edges `(u, v)` with `u < v`.
    edges: Vec<(u32, u32)>,
    /// Nodes carrying each color of [`COLOR_NAMES`].
    colors: [Vec<u32>; 3],
}

impl Graph {
    /// Read a colored graph back out of `s`.
    pub fn of(s: &Structure, max_degree: usize) -> Graph {
        let sig = s.signature();
        let e = sig.rel("E").expect("colored signature has E");
        let edges = s
            .relation(e)
            .iter()
            .filter(|t| t[0] < t[1])
            .map(|t| (t[0].0, t[1].0))
            .collect();
        let colors = COLOR_NAMES.map(|c| {
            let rel = sig.rel(c).expect("colored signature has every color");
            s.relation(rel).iter().map(|t| t[0].0).collect()
        });
        Graph {
            n: s.cardinality(),
            max_degree,
            edges,
            colors,
        }
    }

    /// Apply one write: delete `batch` random edges, then insert up to
    /// `batch` random new edges between nodes below the degree cap, so the
    /// graph stays in its degree class.
    pub fn edit(&mut self, rng: &mut Rng, batch: usize) {
        for _ in 0..batch.min(self.edges.len()) {
            let i = rng.below(self.edges.len());
            self.edges.swap_remove(i);
        }
        let mut degree = vec![0usize; self.n];
        let mut present: HashSet<(u32, u32)> = HashSet::with_capacity(self.edges.len());
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
            present.insert((u, v));
        }
        let mut added = 0;
        for _ in 0..batch * 64 {
            if added == batch {
                break;
            }
            let (a, b) = (rng.below(self.n) as u32, rng.below(self.n) as u32);
            let (u, v) = (a.min(b), a.max(b));
            if u == v
                || degree[u as usize] >= self.max_degree
                || degree[v as usize] >= self.max_degree
                || !present.insert((u, v))
            {
                continue;
            }
            degree[u as usize] += 1;
            degree[v as usize] += 1;
            self.edges.push((u, v));
            added += 1;
        }
    }

    /// Build the [`Structure`] of this version.
    pub fn structure(&self) -> Structure {
        let sig = lowdeg_gen::colored_graph_signature();
        let e = sig.rel("E").expect("colored signature has E");
        let mut b = Structure::builder(sig.clone(), self.n);
        for &(u, v) in &self.edges {
            b.undirected_edge(e, Node(u), Node(v)).expect("in range");
        }
        for (name, nodes) in COLOR_NAMES.iter().zip(&self.colors) {
            let rel = sig.rel(name).expect("colored signature has every color");
            for &v in nodes {
                b.fact(rel, &[Node(v)]).expect("in range");
            }
        }
        b.finish().expect("non-empty domain")
    }
}

/// One unary condition on a free variable `v`.
#[derive(Clone, Copy)]
pub enum Atom {
    /// `C(v)`.
    Color(&'static str),
    /// `exists z. E(v, z) & C(z)`.
    NeighborColored(&'static str),
}

/// A clause over free variables `x, y`: unary conditions on each side and
/// the polarity of `E(x, y)`.
#[derive(Clone, Copy)]
pub struct PairClause {
    /// Conditions on `x`.
    pub x: &'static [Atom],
    /// Conditions on `y`.
    pub y: &'static [Atom],
    /// `E(x, y)` when true, `!E(x, y)` when false.
    pub edge: bool,
}

impl PairClause {
    /// The clause in the query syntax: colors first, then the edge atom,
    /// then the quantified neighbor conditions.
    pub fn text(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut tails: Vec<String> = Vec::new();
        for (var, atoms) in [("x", self.x), ("y", self.y)] {
            for atom in atoms {
                match atom {
                    Atom::Color(c) => parts.push(format!("{c}({var})")),
                    Atom::NeighborColored(c) => {
                        tails.push(format!("(exists z. E({var}, z) & {c}(z))"))
                    }
                }
            }
        }
        parts.push(if self.edge { "E(x, y)" } else { "!E(x, y)" }.to_string());
        parts.extend(tails);
        parts.join(" & ")
    }
}

/// The disjunction of `clauses` in the query syntax.
pub fn disjunction(clauses: &[PairClause]) -> String {
    clauses
        .iter()
        .map(|c| format!("({})", c.text()))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Closed-form answer counts over one structure, computed from its edge
/// list without the engine.
pub struct Oracle {
    adj: Vec<Vec<u32>>,
    colors: [Vec<bool>; 3],
}

fn color_index(c: &str) -> usize {
    COLOR_NAMES
        .iter()
        .position(|&n| n == c)
        .expect("color of the colored signature")
}

impl Oracle {
    /// Index `s`'s edges and colors.
    pub fn new(s: &Structure) -> Oracle {
        let sig = s.signature();
        let n = s.cardinality();
        let e = sig.rel("E").expect("colored signature has E");
        let mut adj = vec![Vec::new(); n];
        for t in s.relation(e).iter() {
            adj[t[0].index()].push(t[1].0);
        }
        let colors = COLOR_NAMES.map(|c| {
            let mut set = vec![false; n];
            for t in s.relation(sig.rel(c).expect("color")).iter() {
                set[t[0].index()] = true;
            }
            set
        });
        Oracle { adj, colors }
    }

    fn atom_holds(&self, v: usize, atom: Atom) -> bool {
        match atom {
            Atom::Color(c) => self.colors[color_index(c)][v],
            Atom::NeighborColored(c) => {
                let set = &self.colors[color_index(c)];
                self.adj[v].iter().any(|&w| set[w as usize])
            }
        }
    }

    fn unary(&self, atoms: &[Atom]) -> Vec<bool> {
        (0..self.adj.len())
            .map(|v| atoms.iter().all(|&a| self.atom_holds(v, a)))
            .collect()
    }

    /// `|{(x, y) : p(x) ∧ q(y) ∧ (E(x, y) ⇔ edge)}|`.
    fn pair_count(&self, p: &[bool], q: &[bool], edge: bool) -> u64 {
        let adjacent: u64 = (0..self.adj.len())
            .filter(|&x| p[x])
            .map(|x| self.adj[x].iter().filter(|&&y| q[y as usize]).count() as u64)
            .sum();
        if edge {
            adjacent
        } else {
            let ps = p.iter().filter(|&&b| b).count() as u64;
            let qs = q.iter().filter(|&&b| b).count() as u64;
            ps * qs - adjacent
        }
    }

    /// Answers of the disjunction of `clauses`, by inclusion–exclusion
    /// over the clause subsets (a conjunction of clauses is again a
    /// clause, or empty when the edge polarities disagree).
    pub fn disjunction_count(&self, clauses: &[PairClause]) -> u64 {
        let mut total: i128 = 0;
        for mask in 1u32..(1 << clauses.len()) {
            let chosen: Vec<&PairClause> = clauses
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, c)| c)
                .collect();
            let edge = chosen[0].edge;
            if chosen.iter().any(|c| c.edge != edge) {
                continue;
            }
            let x: Vec<Atom> = chosen.iter().flat_map(|c| c.x.iter().copied()).collect();
            let y: Vec<Atom> = chosen.iter().flat_map(|c| c.y.iter().copied()).collect();
            let term = self.pair_count(&self.unary(&x), &self.unary(&y), edge) as i128;
            total += if chosen.len() % 2 == 1 { term } else { -term };
        }
        u64::try_from(total).expect("a count is non-negative")
    }

    /// Answers of `a(x) & b(y) & c(z) & !E(x, y) & !E(y, z) & !E(x, z)`,
    /// by inclusion–exclusion over which of the three pairs are edges.
    pub fn scatter3_count(&self, [a, b, c]: [&str; 3]) -> u64 {
        let (a, b, c) = (
            &self.colors[color_index(a)],
            &self.colors[color_index(b)],
            &self.colors[color_index(c)],
        );
        let size = |s: &[bool]| s.iter().filter(|&&v| v).count() as i128;
        let nbrs = |v: usize, s: &[bool]| self.adj[v].iter().filter(|&&w| s[w as usize]).count();
        let edges = |p: &[bool], q: &[bool]| -> i128 {
            (0..self.adj.len())
                .filter(|&v| p[v])
                .map(|v| nbrs(v, q) as i128)
                .sum()
        };
        // Two edge constraints sharing the variable whose color is `mid`.
        let paths = |mid: &[bool], p: &[bool], q: &[bool]| -> i128 {
            (0..self.adj.len())
                .filter(|&v| mid[v])
                .map(|v| (nbrs(v, p) * nbrs(v, q)) as i128)
                .sum()
        };
        let mut triangles: i128 = 0;
        for x in (0..self.adj.len()).filter(|&x| a[x]) {
            for &y in self.adj[x].iter().filter(|&&y| b[y as usize]) {
                for &z in &self.adj[x] {
                    if c[z as usize] && self.adj[y as usize].contains(&z) {
                        triangles += 1;
                    }
                }
            }
        }
        let total = size(a) * size(b) * size(c)
            - (edges(a, b) * size(c) + edges(b, c) * size(a) + edges(a, c) * size(b))
            + (paths(a, b, c) + paths(b, a, c) + paths(c, a, b))
            - triangles;
        u64::try_from(total).expect("a count is non-negative")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_logic::eval::answers_naive;
    use lowdeg_logic::parse_query;

    #[test]
    fn oracle_counts_match_the_naive_evaluator() {
        let s = colored(40, 3, 7);
        let oracle = Oracle::new(&s);
        const C0: PairClause = PairClause {
            x: &[Atom::Color("B")],
            y: &[Atom::Color("R")],
            edge: false,
        };
        const C1: PairClause = PairClause {
            x: &[Atom::Color("B"), Atom::NeighborColored("G")],
            y: &[Atom::Color("G")],
            edge: true,
        };
        const C2: PairClause = PairClause {
            x: &[Atom::Color("R")],
            y: &[Atom::Color("B"), Atom::NeighborColored("R")],
            edge: false,
        };
        for clauses in [&[C0][..], &[C1], &[C0, C2], &[C1, C2], &[C0, C1, C2]] {
            let q = parse_query(s.signature(), &disjunction(clauses)).unwrap();
            assert_eq!(
                oracle.disjunction_count(clauses),
                answers_naive(&s, &q).len() as u64
            );
        }
        for colors in [["B", "R", "G"], ["G", "G", "B"], ["R", "B", "R"]] {
            let [a, b, c] = colors;
            let text = format!("{a}(x) & {b}(y) & {c}(z) & !E(x, y) & !E(y, z) & !E(x, z)");
            let q = parse_query(s.signature(), &text).unwrap();
            assert_eq!(
                oracle.scatter3_count(colors),
                answers_naive(&s, &q).len() as u64
            );
        }
    }

    #[test]
    fn edits_keep_the_degree_class() {
        let s = colored(500, 2, 3);
        let mut g = Graph::of(&s, 2);
        let before = g.structure();
        assert_eq!(before.fingerprint(), s.fingerprint());
        let mut rng = Rng::new(3, 1);
        g.edit(&mut rng, 16);
        let after = g.structure();
        assert!(after.degree() <= 2);
        assert_ne!(after.fingerprint(), s.fingerprint());
    }
}
