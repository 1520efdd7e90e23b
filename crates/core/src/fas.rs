//! Greedy feedback-arc ordering: the vertex order behind the SCC-wave
//! scheduler's routine-level and node-level priorities.

/// The linear-time greedy feedback-arc ordering of Eades, Lin and Smyth
/// (IPL 1993) behind the scheduler's routine-level and node-level ranks.
/// One instance is reused for every digraph a schedule build orders, so
/// its buffers are allocated once per build rather than once per
/// component or routine.
///
/// [`GreedyFas::order`] returns a permutation of `0..n` with
/// (heuristically) few arcs pointing from a later position to an
/// earlier one. Arcs follow information flow, so "few backward arcs"
/// means "few values read before they have settled". Sinks peel off to
/// the back and sources to the front; when neither exists, the vertex
/// with the largest `outdeg − indeg` goes to the front next. Sinks and
/// sources wait on two stacks, every other vertex sits in an intrusive
/// doubly-linked bucket keyed by `outdeg − indeg`, and a removal updates
/// each neighbour in O(1), so one ordering costs O(n + m). The degree
/// differences of the remaining vertices sum to zero, so every max-δ
/// pick has `outdeg ≥ indeg`: at most half the arcs end up backward.
///
/// There is no refinement pass after the greedy order: sifting single
/// vertices to their best slot costs O(n²) per sweep and saves only
/// 3–10% of phase-1 visits on gcc, sqlservr and acad.
#[derive(Default)]
pub struct GreedyFas {
    /// CSR adjacency: `out_adj[out_start[v]..out_start[v + 1]]` are the
    /// heads of the arcs leaving `v`, `in_adj[in_start[v]..]` likewise
    /// the tails of the arcs entering it.
    out_start: Vec<u32>,
    out_adj: Vec<u32>,
    in_start: Vec<u32>,
    in_adj: Vec<u32>,
    /// Degrees among the vertices not yet placed.
    outdeg: Vec<u32>,
    indeg: Vec<u32>,
    /// Per vertex: its bucket, `outdeg − indeg + m` (repeated arcs can
    /// push a degree past `n`), or [`QUEUED`] / [`PLACED`].
    slot: Vec<u32>,
    /// Bucket lists: first vertex per bucket, then per-vertex links.
    head: Vec<u32>,
    prev: Vec<u32>,
    next: Vec<u32>,
    sinks: Vec<u32>,
    sources: Vec<u32>,
    /// The order under construction: `front` grows from the start,
    /// `back` from the end (reversed when the two are joined).
    front: Vec<u32>,
    back: Vec<u32>,
    /// See [`GreedyFas::work`].
    work: usize,
}

const NIL: u32 = u32::MAX;
/// [`GreedyFas::slot`] of a vertex waiting on the sink or source stack.
const QUEUED: u32 = u32::MAX - 1;
/// [`GreedyFas::slot`] of a vertex already in the order.
const PLACED: u32 = u32::MAX;

impl GreedyFas {
    /// Orders the digraph on `0..n` with the given arcs; self-loops and
    /// repeated arcs are allowed. Ties break by vertex number, so equal
    /// inputs always yield equal orders.
    ///
    /// # Panics
    ///
    /// Panics if an arc endpoint is not below `n`.
    pub fn order(&mut self, n: usize, arcs: &[(u32, u32)]) -> &[u32] {
        self.work = 0;
        self.front.clear();
        self.build_csr(n, arcs);
        self.slot.clear();
        self.slot.resize(n, QUEUED);
        let m = arcs.len() as u32;
        self.head.clear();
        self.head.resize(2 * m as usize, NIL);
        self.prev.resize(n, NIL);
        self.next.resize(n, NIL);
        self.sinks.clear();
        self.sources.clear();
        self.back.clear();
        // Filling in descending order leaves the lowest-numbered vertex
        // on top of every stack and at the head of every bucket.
        let mut top = 0;
        for v in (0..n).rev() {
            if self.outdeg[v] == 0 {
                self.sinks.push(v as u32);
            } else if self.indeg[v] == 0 {
                self.sources.push(v as u32);
            } else {
                let s = (self.outdeg[v] + m) - self.indeg[v];
                self.link(v, s);
                top = top.max(s as usize);
            }
        }
        for _ in 0..n {
            let v = if let Some(v) = self.sinks.pop() {
                self.back.push(v);
                v
            } else if let Some(v) = self.sources.pop() {
                self.front.push(v);
                v
            } else {
                // Some vertex is bucketed, and `top` bounds every
                // occupied bucket from above.
                while self.head[top] == NIL {
                    top -= 1;
                    self.work += 1;
                }
                let v = self.head[top];
                self.unlink(v as usize);
                self.front.push(v);
                v
            };
            self.place(v as usize, &mut top);
        }
        self.front.extend(self.back.iter().rev());
        &self.front
    }

    /// The adjacency entries and empty buckets the last
    /// [`GreedyFas::order`] scanned: `2m` entries, plus at most `m + 2Δ`
    /// buckets for the largest vertex degree `Δ`. It depends on the input
    /// alone, so tests can bound it where they cannot bound wall time.
    pub fn work(&self) -> usize {
        self.work
    }

    /// Fills the CSR adjacency and the degrees from `arcs`.
    fn build_csr(&mut self, n: usize, arcs: &[(u32, u32)]) {
        self.out_start.clear();
        self.out_start.resize(n + 1, 0);
        self.in_start.clear();
        self.in_start.resize(n + 1, 0);
        for &(a, b) in arcs {
            self.out_start[a as usize + 1] += 1;
            self.in_start[b as usize + 1] += 1;
        }
        for v in 0..n {
            self.out_start[v + 1] += self.out_start[v];
            self.in_start[v + 1] += self.in_start[v];
        }
        self.outdeg.clear();
        self.outdeg.resize(n, 0);
        self.indeg.clear();
        self.indeg.resize(n, 0);
        self.out_adj.resize(arcs.len(), 0);
        self.in_adj.resize(arcs.len(), 0);
        for &(a, b) in arcs {
            let (a, b) = (a as usize, b as usize);
            self.out_adj[(self.out_start[a] + self.outdeg[a]) as usize] = b as u32;
            self.outdeg[a] += 1;
            self.in_adj[(self.in_start[b] + self.indeg[b]) as usize] = a as u32;
            self.indeg[b] += 1;
        }
    }

    /// Takes `v` out of the remaining digraph: each bucketed neighbour
    /// moves one bucket (up for a head, down for a tail of `v`'s arcs)
    /// or, once it has become a source or sink, onto that stack.
    fn place(&mut self, v: usize, top: &mut usize) {
        self.slot[v] = PLACED;
        let (lo, hi) = (self.out_start[v] as usize, self.out_start[v + 1] as usize);
        self.work += hi - lo;
        for i in lo..hi {
            let y = self.out_adj[i] as usize;
            let s = self.slot[y];
            if s >= QUEUED {
                continue;
            }
            self.indeg[y] -= 1;
            self.unlink(y);
            if self.indeg[y] == 0 {
                self.slot[y] = QUEUED;
                self.sources.push(y as u32);
            } else {
                self.link(y, s + 1);
                *top = (*top).max(s as usize + 1);
            }
        }
        let (lo, hi) = (self.in_start[v] as usize, self.in_start[v + 1] as usize);
        self.work += hi - lo;
        for i in lo..hi {
            let z = self.in_adj[i] as usize;
            let s = self.slot[z];
            if s >= QUEUED {
                continue;
            }
            self.outdeg[z] -= 1;
            self.unlink(z);
            if self.outdeg[z] == 0 {
                self.slot[z] = QUEUED;
                self.sinks.push(z as u32);
            } else {
                self.link(z, s - 1);
            }
        }
    }

    fn link(&mut self, v: usize, s: u32) {
        let h = self.head[s as usize];
        self.slot[v] = s;
        self.prev[v] = NIL;
        self.next[v] = h;
        if h != NIL {
            self.prev[h as usize] = v as u32;
        }
        self.head[s as usize] = v as u32;
    }

    fn unlink(&mut self, v: usize) {
        let (p, nx) = (self.prev[v], self.next[v]);
        if p == NIL {
            self.head[self.slot[v] as usize] = nx;
        } else {
            self.next[p as usize] = nx;
        }
        if nx != NIL {
            self.prev[nx as usize] = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a tiny seeded generator for the random digraphs.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> u32 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as u32
        }
    }

    /// `m` random arcs on `0..n`, no self-loops; 2-cycles and repeated
    /// arcs may occur.
    fn random_arcs(n: usize, m: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = Rng(seed);
        let mut arcs = Vec::with_capacity(m);
        while arcs.len() < m {
            let (a, b) = (rng.below(n), rng.below(n));
            if a != b {
                arcs.push((a, b));
            }
        }
        arcs
    }

    /// A strongly connected digraph: the cycle `0→1→…→n−1→0` plus
    /// `degree · n` random arcs.
    fn random_scc(n: usize, degree: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut arcs: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        arcs.extend(random_arcs(n, degree * n, seed));
        arcs
    }

    fn greedy_fas(n: usize, arcs: &[(u32, u32)]) -> Vec<u32> {
        GreedyFas::default().order(n, arcs).to_vec()
    }

    fn assert_permutation(order: &[u32], n: usize) {
        let mut seen = vec![false; n];
        assert_eq!(order.len(), n);
        for &v in order {
            assert!(!seen[v as usize], "vertex {v} placed twice");
            seen[v as usize] = true;
        }
    }

    fn backward_arcs(order: &[u32], arcs: &[(u32, u32)]) -> usize {
        let mut pos = vec![0usize; order.len()];
        for (p, &v) in order.iter().enumerate() {
            pos[v as usize] = p;
        }
        arcs.iter().filter(|&&(a, b)| pos[a as usize] > pos[b as usize]).count()
    }

    #[test]
    fn greedy_fas_returns_a_permutation() {
        assert!(greedy_fas(0, &[]).is_empty());
        assert_eq!(greedy_fas(1, &[(0, 0)]), vec![0]);
        // Self-loops and repeated arcs are tolerated.
        let arcs = [(0, 0), (0, 1), (0, 1), (1, 0), (2, 2), (2, 1), (1, 2), (1, 2)];
        assert_permutation(&greedy_fas(3, &arcs), 3);
        for seed in 0..20 {
            let n = 1 + seed as usize * 7;
            let arcs = random_arcs(n.max(2), 3 * n, seed);
            assert_permutation(&greedy_fas(n.max(2), &arcs), n.max(2));
        }
    }

    #[test]
    fn greedy_fas_orders_a_dag_topologically() {
        for seed in 0..20 {
            let n = 50 + seed as usize * 13;
            // Arcs follow a shuffled topological order.
            let mut rng = Rng(seed ^ 0xda6);
            let mut topo: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                topo.swap(i, rng.below(i + 1) as usize);
            }
            let arcs: Vec<(u32, u32)> = random_arcs(n, 4 * n, seed)
                .into_iter()
                .map(|(a, b)| (topo[a.min(b) as usize], topo[a.max(b) as usize]))
                .collect();
            let order = greedy_fas(n, &arcs);
            assert_permutation(&order, n);
            assert_eq!(backward_arcs(&order, &arcs), 0, "seed {seed}");
        }
    }

    #[test]
    fn greedy_fas_leaves_at_most_half_the_arcs_backward() {
        for seed in 0..40 {
            let n = 10 + seed as usize * 11;
            let arcs = random_arcs(n, (2 + seed as usize % 6) * n, seed);
            let order = greedy_fas(n, &arcs);
            assert_permutation(&order, n);
            let back = backward_arcs(&order, &arcs);
            assert!(2 * back <= arcs.len(), "seed {seed}: {back} of {} backward", arcs.len());
        }
    }

    #[test]
    fn greedy_fas_is_deterministic_across_reuse() {
        let a = random_scc(300, 6, 1);
        let b = random_scc(700, 3, 2);
        let fresh = greedy_fas(300, &a);
        let mut fas = GreedyFas::default();
        assert_eq!(fas.order(300, &a), &fresh[..]);
        // A larger input in between must leave no state behind.
        fas.order(700, &b);
        assert_eq!(fas.order(300, &a), &fresh[..]);
        assert_eq!(greedy_fas(300, &a), fresh);
    }
}
