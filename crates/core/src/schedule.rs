//! The SCC-wave scheduled fixpoint engine: a two-level solver for the
//! dataflow phases of §3.2/§3.3.
//!
//! The flat FIFO solvers in [`crate::dataflow`] treat the whole PSG as
//! one chaotic worklist, so a caller's nodes can be re-evaluated many
//! times before its callees have converged. But interprocedural
//! propagation in the PSG is *structured*: every PSG edge is
//! intra-routine, and information crosses routine boundaries only
//! through two broadcasts — entry-node summaries onto the call-return
//! edges of callers (phase 1, strictly callee→caller) and return-node
//! liveness onto callee exits (phase 2, strictly caller→callee). The
//! call graph's SCC condensation therefore stratifies each phase
//! exactly:
//!
//! 1. **Waves.** Condense the call graph ([`Condensation`]) and solve
//!    phase 1 over the bottom-up waves (callees first), phase 2 over the
//!    top-down waves (callers first). When a component is scheduled,
//!    every component it reads across the boundary has *converged*: its
//!    values are final, so freezing them is not an approximation.
//! 2. **Routine-level priority worklists.** Within a component, the
//!    unit of scheduling is the *routine*, popped callees-first in
//!    phase 1 and callers-first in phase 2 from a [`PriorityWorklist`]. A
//!    popped routine *pulls* its interprocedural inputs (call-return
//!    labels from source entries; exit liveness from return nodes),
//!    solves its own handful of nodes to a local fixpoint, and only
//!    then compares its boundary values — entry summaries in phase 1,
//!    return liveness in phase 2 — against their values before the
//!    solve. Dependent routines are pushed only if the boundary moved.
//!    This *batches* the §3.2/§3.3 broadcasts: where the chaotic FIFO
//!    re-queues every caller each time a callee entry grows by a
//!    register, the scheduled engine lets the callee finish growing
//!    first and bills its callers once per settled change.
//! 3. **Node solves.** Inside one routine the nodes are popped
//!    sinks-first (descending creation order — the direction backward
//!    flow propagates). The first solve seeds every node; a *re*-solve
//!    seeds only the nodes whose pulled inputs actually changed, so a
//!    routine pushed spuriously costs zero evaluations.
//!
//! Cross-component inputs arrive through the same pull, reading values
//! frozen by earlier waves. Every write stays inside the owning
//! component, and the whole discipline is exact because the least
//! fixpoint of a monotone system is unique: any schedule that evaluates
//! until nothing changes produces the same solution the chaotic FIFO
//! reference does, down to the bit.
//!
//! Incremental runs compose naturally: the reset closures of
//! [`crate::incremental`] are caller-/callee-closed, hence saturated on
//! whole SCCs, so a seeded run simply schedules the components that
//! contain reset nodes and skips every other wave slot.

use spike_callgraph::{CallGraph, Condensation};
use spike_cfg::ProgramCfg;
use spike_isa::RegSet;
use spike_program::{Program, RoutineId};

use crate::dataflow::{phase1_init_value, phase2_init_value};
use crate::fas::GreedyFas;
use crate::psg::{Edge, EdgeId, EdgeKind, NodeId, NodeKind, Psg, RoutineNodes};
use crate::worklist::PriorityWorklist;

/// The precomputed schedule for one PSG: the call-graph condensation,
/// the node and routine partitions, per-phase priority ranks, and the
/// edge/exit directories the per-routine pulls need.
///
/// The schedule borrows nothing and stores nothing on the [`Psg`]; it is
/// built per analysis run and dropped afterwards, so `memory_bytes`
/// accounting is identical under both schedulers.
#[derive(Clone)]
pub(crate) struct SccSchedule {
    cond: Condensation,
    /// Per component: the PSG nodes its routines own, ascending.
    comp_nodes: Vec<Vec<NodeId>>,
    /// Per node: the owning component.
    comp_of: Vec<u32>,
    /// Per routine: the owning component.
    comp_of_routine: Vec<u32>,
    /// Per routine: every PSG node it owns, ascending.
    routine_nodes: Vec<Vec<NodeId>>,
    /// Per routine: the known-target call-return edges it owns (the
    /// edges whose labels its phase-1 pull recomputes).
    routine_cr_edges: Vec<Vec<EdgeId>>,
    /// Per routine: phase-1 priority — its position in the bottom-up
    /// SCC order, so callees pop before their callers.
    rrank1: Vec<u32>,
    /// Per routine: phase-2 priority — the reverse, callers first.
    rrank2: Vec<u32>,
    /// Per node: intra-routine priority — descending creation order, so
    /// sinks pop first and every sweep follows the backward flow.
    node_rank: Vec<u32>,
    /// Per node: one forward flow-summary out-edge (its target ranks
    /// below the node), or `u32::MAX`. Phase 1 seeds the node's values
    /// along this edge before solving: a single tree path's `MAY` union
    /// under-approximates the all-paths union and its `MUST` chain
    /// over-approximates the all-paths intersection, so the seed is a
    /// safe starting point on both lattices — and it hands loop
    /// back-edge readers a near-final value up front instead of the
    /// neutral `(∅, ALL)` that forces a second visit of every cycle.
    tree_edge: Vec<u32>,
    /// Per node: the return nodes broadcasting phase-2 liveness into it
    /// (inverse of `return_exit_targets`; non-empty only for exits of
    /// called routines).
    exit_sources: Vec<Vec<NodeId>>,
}

impl SccSchedule {
    /// Builds the schedule for `psg` from the program's call graph.
    pub(crate) fn build(program: &Program, cfg: &ProgramCfg, psg: &Psg) -> SccSchedule {
        let graph = CallGraph::build(program, cfg);
        let sccs = graph.sccs();
        let cond = sccs.condense(&graph);
        let (comp_nodes, comp_of) = psg.partition_by_component(cond.sccs());
        let n = psg.nodes().len();
        let n_routines = program.routines().len();

        let mut routine_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); n_routines];
        for (i, kind) in psg.nodes().iter().enumerate() {
            routine_nodes[kind.routine().index()].push(NodeId::from_index(i));
        }

        let mut routine_cr_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); n_routines];
        for (ei, edge) in psg.edges().iter().enumerate() {
            if !psg.cr_sources[ei].is_empty() {
                let owner = psg.nodes()[edge.from().index()].routine().index();
                routine_cr_edges[owner].push(EdgeId::from_index(ei));
            }
        }

        let mut exit_sources: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, targets) in psg.return_exit_targets.iter().enumerate() {
            for &t in targets {
                exit_sources[t.index()].push(NodeId::from_index(i));
            }
        }

        let comp_of_routine: Vec<u32> =
            (0..n_routines).map(|r| sccs.component_of(RoutineId::from_index(r)) as u32).collect();
        // Callee-first rank: components in bottom-up order; *within* a
        // recursive component, a greedy feedback-arc ordering
        // (Eades–Lin–Smyth) of the callee→caller digraph. The fewer the
        // arcs where a caller ranks below one of its callees, the more
        // routines first-solve with complete inputs and the smaller the
        // deltas the settled-boundary rounds must chase. (A plain DFS
        // postorder leaves nearly half the arcs of a dense recursive
        // component pointing backwards.)
        let mut fas = GreedyFas::default();
        let mut arcs: Vec<(u32, u32)> = Vec::new();
        // Routine → position in the component being ordered. Each
        // component resets the entries it wrote, so the map is filled
        // once per build, not once per component.
        let mut local = vec![u32::MAX; n_routines];
        let mut rrank1 = vec![0u32; n_routines];
        let mut next = 0u32;
        for component in sccs.bottom_up() {
            for (i, r) in component.iter().enumerate() {
                local[r.index()] = i as u32;
            }
            // Arc callee→caller: the direction phase-1 information flows.
            arcs.clear();
            for (i, r) in component.iter().enumerate() {
                for &w in graph.callees(*r) {
                    let lw = local[w.index()];
                    if lw != u32::MAX && lw as usize != i {
                        arcs.push((lw, i as u32));
                    }
                }
            }
            for &x in fas.order(component.len(), &arcs) {
                rrank1[component[x as usize].index()] = next;
                next += 1;
            }
            for r in component {
                local[r.index()] = u32::MAX;
            }
        }
        // Phase 2 reverses the priority. An arc is schedule-friendly in
        // both phases at once: phase 1 wants the callee popped first,
        // phase 2 the caller, and reversing the order swaps exactly
        // that — so one feedback-arc ordering serves both.
        let rrank2: Vec<u32> = rrank1.iter().map(|&r| next - 1 - r).collect();

        // Intra-routine node order: a feedback-arc ordering of each
        // routine's value-dependency digraph (arc target→reader, the
        // direction backward dataflow propagates). Out-edge targets
        // then rank below their readers everywhere except on the few
        // unavoidable loop back edges, so a worklist sweep walks the
        // routine in backward-flow order and loop-carried deltas wrap
        // as rarely as the CFG structure allows. Ranks are comparable
        // within one routine only — the node worklist never holds nodes
        // of two routines at once.
        let mut node_rank = vec![0u32; n];
        let mut local = Vec::new();
        for nodes in &routine_nodes {
            if nodes.is_empty() {
                continue;
            }
            let base = nodes[0].index();
            let span = nodes[nodes.len() - 1].index() - base + 1;
            local.clear();
            local.resize(span, u32::MAX);
            for (i, x) in nodes.iter().enumerate() {
                local[x.index() - base] = i as u32;
            }
            arcs.clear();
            for (i, x) in nodes.iter().enumerate() {
                for &e in &psg.out_edges[x.index()] {
                    let y = psg.edges()[e.index()].to().index();
                    debug_assert!(y >= base && y - base < span, "PSG edges are intra-routine");
                    let ly = local[y - base];
                    if ly as usize != i {
                        // Reader `x` depends on target `y`: arc y→x.
                        arcs.push((ly, i as u32));
                    }
                }
            }
            for (rank, &x) in fas.order(nodes.len(), &arcs).iter().enumerate() {
                node_rank[nodes[x as usize].index()] = rank as u32;
            }
        }
        // The warm-seed pass walks each routine's nodes targets-first.
        for nodes in &mut routine_nodes {
            nodes.sort_unstable_by_key(|x| node_rank[x.index()]);
        }
        let mut tree_edge = vec![u32::MAX; n];
        for x in 0..n {
            if psg.pinned[x] {
                continue;
            }
            for &e in &psg.out_edges[x] {
                let edge = &psg.edges()[e.index()];
                // Only flow-summary edges: their labels are static, while
                // a call-return label may still sit below its final value
                // when the seed pass reads it.
                if edge.kind() == EdgeKind::FlowSummary
                    && node_rank[edge.to().index()] < node_rank[x]
                {
                    tree_edge[x] = e.index() as u32;
                    break;
                }
            }
        }

        SccSchedule {
            cond,
            comp_nodes,
            comp_of,
            comp_of_routine,
            routine_nodes,
            routine_cr_edges,
            rrank1,
            rrank2,
            node_rank,
            tree_edge,
            exit_sources,
        }
    }

    /// Number of condensation waves (the schedule's sequential depth).
    pub(crate) fn waves(&self) -> usize {
        self.cond.waves()
    }

    /// Which components a run must solve: all of them from scratch, or
    /// exactly the components containing reset nodes for a seeded run.
    /// The incremental reset closures are caller-/callee-closed and thus
    /// saturated on whole SCCs (debug-asserted here), which is what
    /// makes "schedule only the reset components" exact.
    fn active_components(&self, reset: Option<&[bool]>) -> Vec<bool> {
        let Some(mask) = reset else {
            return vec![true; self.comp_nodes.len()];
        };
        let mut active = vec![false; self.comp_nodes.len()];
        for (i, &r) in mask.iter().enumerate() {
            if r {
                active[self.comp_of[i] as usize] = true;
            }
        }
        #[cfg(debug_assertions)]
        for (c, nodes) in self.comp_nodes.iter().enumerate() {
            if active[c] {
                for &x in nodes {
                    debug_assert!(
                        mask[x.index()],
                        "reset masks must cover whole call-graph components"
                    );
                }
            }
        }
        active
    }

    /// The call-graph condensation the schedule was built over. The
    /// demand-driven engine ([`crate::query`]) walks it to collect the
    /// caller/callee cones of a query target.
    pub(crate) fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// The condensation component owning `routine`.
    pub(crate) fn component_of_routine(&self, routine: RoutineId) -> usize {
        self.comp_of_routine[routine.index()] as usize
    }

    /// The number of condensation components.
    pub(crate) fn components(&self) -> usize {
        self.comp_nodes.len()
    }
}

/// Reusable scratch for the component solvers: the
/// routine-level and node-level worklists plus the per-routine
/// "already seeded in this stratum" flags (a re-solved routine seeds
/// only the nodes its pull actually changed).
pub(crate) struct CompSolver {
    routine_wl: PriorityWorklist,
    node_wl: PriorityWorklist,
    seeded: Vec<bool>,
    /// Back-edge pushes (a boundary change flowing to a routine ranked
    /// at or below the one being solved) park here until the current
    /// round drains, so one round's worth of changes is absorbed by a
    /// single re-solve instead of being chased a register at a time.
    deferred: Vec<bool>,
    deferred_list: Vec<u32>,
    /// The node-level twin of `deferred`: loop-carried pushes inside one
    /// routine solve park until the current sweep drains, batching each
    /// loop's wrap-around into one extra pass.
    node_deferred: Vec<bool>,
    node_deferred_list: Vec<u32>,
}

impl CompSolver {
    pub(crate) fn new(n_routines: usize, n_nodes: usize) -> CompSolver {
        CompSolver {
            routine_wl: PriorityWorklist::new(n_routines),
            node_wl: PriorityWorklist::new(n_nodes),
            seeded: vec![false; n_routines],
            deferred: vec![false; n_routines],
            deferred_list: Vec::new(),
            node_deferred: vec![false; n_nodes],
            node_deferred_list: Vec::new(),
        }
    }

    /// Queues the boundary-change push `target` (rank `rank`), deferring
    /// it to the next round when it does not run strictly after the
    /// routine currently being solved (rank `current`).
    fn push_routine(&mut self, target: usize, rank: u32, current: u32) {
        if self.deferred[target] {
            return;
        }
        if rank > current {
            self.routine_wl.push(target, rank);
        } else {
            self.deferred[target] = true;
            self.deferred_list.push(target as u32);
        }
    }

    /// Queues node `target` during a routine solve, deferring loop
    /// back-edge pushes (rank at or below the node being evaluated) to
    /// the sweep boundary.
    fn push_node(&mut self, target: usize, rank: u32, current: u32) {
        if self.node_deferred[target] {
            return;
        }
        if rank > current {
            self.node_wl.push(target, rank);
        } else {
            self.node_deferred[target] = true;
            self.node_deferred_list.push(target as u32);
        }
    }

    /// Drains the parked loop-carried node pushes back into the node
    /// worklist; returns `false` when there were none (sweep converged).
    fn flush_deferred_nodes(&mut self, node_rank: &[u32]) -> bool {
        if self.node_deferred_list.is_empty() {
            return false;
        }
        let mut list = std::mem::take(&mut self.node_deferred_list);
        for &x in &list {
            self.node_deferred[x as usize] = false;
            self.node_wl.push(x as usize, node_rank[x as usize]);
        }
        list.clear();
        self.node_deferred_list = list;
        true
    }
}

/// Split borrows of the PSG for the phase-1 component solvers: the
/// immutable topology, plus the value arrays and edge labels they write.
struct Phase1Views<'a> {
    nodes: &'a [NodeKind],
    out_edges: &'a [Vec<EdgeId>],
    in_edges: &'a [Vec<EdgeId>],
    routines: &'a [RoutineNodes],
    cr_sources: &'a [Vec<NodeId>],
    entry_cr_edges: &'a [Vec<EdgeId>],
    pinned: &'a [bool],
    edges: &'a mut [Edge],
    may_use: &'a mut [RegSet],
    may_def: &'a mut [RegSet],
    must_def: &'a mut [RegSet],
}

/// Split borrows of the PSG for the phase-2 component solvers. Edge
/// labels are frozen in phase 2; only the liveness array is written.
struct Phase2Views<'a> {
    nodes: &'a [NodeKind],
    out_edges: &'a [Vec<EdgeId>],
    in_edges: &'a [Vec<EdgeId>],
    routines: &'a [RoutineNodes],
    return_exit_targets: &'a [Vec<NodeId>],
    pinned: &'a [bool],
    edges: &'a [Edge],
    live: &'a mut [RegSet],
}

/// Scheduled phase 1 (§3.2): bottom-up waves over the condensation,
/// each component solved to its local fixpoint by a priority worklist.
/// Semantically identical to [`crate::dataflow::run_phase1_seeded`] —
/// same least fixpoint, bit for bit — with the same `reset` contract.
/// Returns the number of node evaluations.
pub(crate) fn run_phase1_scheduled(
    psg: &mut Psg,
    schedule: &SccSchedule,
    reset: Option<&[bool]>,
) -> usize {
    let n = psg.nodes().len();
    debug_assert!(reset.is_none_or(|m| m.len() == n), "reset mask must cover every node");
    init_phase1_values(psg, schedule, reset);
    // No call-return edge re-initialization (unlike the seeded FIFO
    // path): each scheduled component refreshes its own known-target
    // labels from source values before any read, which supersedes
    // whatever the labels held.
    let active = schedule.active_components(reset);

    let Psg {
        ref nodes,
        ref mut edges,
        ref out_edges,
        ref in_edges,
        ref routines,
        ref cr_sources,
        ref entry_cr_edges,
        ref pinned,
        ref mut may_use,
        ref mut may_def,
        ref mut must_def,
        ..
    } = *psg;
    let mut views = Phase1Views {
        nodes,
        out_edges,
        in_edges,
        routines,
        cr_sources,
        entry_cr_edges,
        pinned,
        edges,
        may_use,
        may_def,
        must_def,
    };
    run_waves(schedule.cond.waves_bottom_up(), &active, schedule, n, |cs, c| {
        solve_comp_phase1(&mut views, schedule, c, cs)
    })
}

/// The phase-1 prologue shared by [`run_phase1_scheduled`] and the
/// demand-driven engine ([`crate::query`]): initialize every (reset)
/// node's phase-1 values, then warm-seed along the spanning tree,
/// targets before readers (the routine node lists are sorted by rank).
/// Each seed is one term of the node's transfer function, so it bounds
/// the final value from the safe side on every lattice; see
/// [`SccSchedule::tree_edge`]. The pass is purely intra-routine and
/// reads only static flow-summary labels, so the demand engine can run
/// it once up front regardless of which components later solve.
pub(crate) fn init_phase1_values(psg: &mut Psg, schedule: &SccSchedule, reset: Option<&[bool]>) {
    let n = psg.nodes().len();
    for i in 0..n {
        if reset.is_none_or(|m| m[i]) {
            let (may_use, may_def, must_def) = phase1_init_value(psg.nodes[i], psg.uj_live[i]);
            psg.may_use[i] = may_use;
            psg.may_def[i] = may_def;
            psg.must_def[i] = must_def;
        }
    }
    for nodes in &schedule.routine_nodes {
        for &x in nodes {
            let xi = x.index();
            if reset.is_some_and(|m| !m[xi]) {
                continue;
            }
            let te = schedule.tree_edge[xi];
            if te == u32::MAX {
                continue;
            }
            let edge = &psg.edges[te as usize];
            let yi = edge.to().index();
            psg.may_def[xi] = edge.may_def() | psg.may_def[yi];
            psg.must_def[xi] = edge.must_def() | psg.must_def[yi];
            psg.may_use[xi] = edge.may_use() | (psg.may_use[yi] - edge.must_def());
        }
    }
}

/// Solves the listed components' phase-1 systems serially, in list
/// order. The demand-driven entry point: the caller must order `comps`
/// bottom-up (every callee component of a listed component either
/// precedes it in the list or has already converged) — ascending
/// component index is exactly that order, since the condensation
/// numbers callees before callers. Returns node evaluations.
pub(crate) fn solve_phase1_components(
    psg: &mut Psg,
    schedule: &SccSchedule,
    comps: &[usize],
    cs: &mut CompSolver,
) -> usize {
    debug_assert!(comps.windows(2).all(|w| w[0] < w[1]), "phase-1 cone solves bottom-up");
    let Psg {
        ref nodes,
        ref mut edges,
        ref out_edges,
        ref in_edges,
        ref routines,
        ref cr_sources,
        ref entry_cr_edges,
        ref pinned,
        ref mut may_use,
        ref mut may_def,
        ref mut must_def,
        ..
    } = *psg;
    let mut views = Phase1Views {
        nodes,
        out_edges,
        in_edges,
        routines,
        cr_sources,
        entry_cr_edges,
        pinned,
        edges,
        may_use,
        may_def,
        must_def,
    };
    let mut visits = 0usize;
    for &c in comps {
        visits += solve_comp_phase1(&mut views, schedule, c, cs);
    }
    visits
}

/// Initializes phase-2 liveness for the nodes of component `c` — the
/// warm `MAY-USE` start of [`run_phase2_scheduled`] restricted to one
/// component — and applies the exit seeds landing in it. The demand
/// engine calls this exactly once per component, after the component's
/// phase-1 values converged (the warm start reads final `MAY-USE`) and
/// before its phase-2 solve.
pub(crate) fn init_phase2_component(
    psg: &mut Psg,
    schedule: &SccSchedule,
    c: usize,
    exit_seeds: &[(NodeId, RegSet)],
) {
    for &x in &schedule.comp_nodes[c] {
        let i = x.index();
        psg.live[i] = phase2_init_value(psg.nodes[i], psg.uj_live[i]) | psg.may_use[i];
    }
    for &(node, set) in exit_seeds {
        if schedule.comp_of[node.index()] as usize == c {
            psg.live[node.index()] |= set;
        }
    }
}

/// Solves the listed components' phase-2 systems serially, in list
/// order. The caller must order `comps` top-down (every caller
/// component of a listed component either precedes it in the list or
/// has already converged) — descending component index — and must have
/// initialized each listed component via [`init_phase2_component`].
/// Returns node evaluations.
pub(crate) fn solve_phase2_components(
    psg: &mut Psg,
    schedule: &SccSchedule,
    comps: &[usize],
    cs: &mut CompSolver,
) -> usize {
    debug_assert!(comps.windows(2).all(|w| w[0] > w[1]), "phase-2 cone solves top-down");
    let Psg {
        ref nodes,
        ref edges,
        ref out_edges,
        ref in_edges,
        ref routines,
        ref return_exit_targets,
        ref pinned,
        ref mut live,
        ..
    } = *psg;
    let mut views = Phase2Views {
        nodes,
        out_edges,
        in_edges,
        routines,
        return_exit_targets,
        pinned,
        edges,
        live,
    };
    let mut visits = 0usize;
    for &c in comps {
        visits += solve_comp_phase2(&mut views, schedule, c, cs);
    }
    visits
}

/// Scheduled phase 2 (§3.3): top-down waves, priority worklists.
/// Semantically identical to [`crate::dataflow::run_phase2_seeded`].
/// Returns the number of node evaluations.
pub(crate) fn run_phase2_scheduled(
    psg: &mut Psg,
    schedule: &SccSchedule,
    exit_seeds: &[(NodeId, RegSet)],
    reset: Option<&[bool]>,
) -> usize {
    let n = psg.nodes().len();
    debug_assert!(reset.is_none_or(|m| m.len() == n), "reset mask must cover every node");
    for i in 0..n {
        if reset.is_none_or(|m| m[i]) {
            // Warm start at the phase-1 `MAY-USE` fixpoint: liveness is
            // the same equation system plus exit seeds, so `MAY-USE` is
            // an exact under-approximation that is already quiescent
            // everywhere except downstream of the exits. The solver then
            // only propagates exit-liveness increments, and the unique
            // least fixpoint above any under-approximation is the same
            // solution the cold-started FIFO reference reaches.
            psg.live[i] = phase2_init_value(psg.nodes[i], psg.uj_live[i]) | psg.may_use[i];
        }
    }
    // Seeds on clean exits are no-ops: their converged liveness already
    // contains the seed.
    for &(node, set) in exit_seeds {
        psg.live[node.index()] |= set;
    }
    // No broadcast replay (unlike the seeded FIFO path): each scheduled
    // component pulls the liveness its exits receive — including from
    // clean callers' converged return nodes — when its wave starts.
    let active = schedule.active_components(reset);

    let Psg {
        ref nodes,
        ref edges,
        ref out_edges,
        ref in_edges,
        ref routines,
        ref return_exit_targets,
        ref pinned,
        ref mut live,
        ..
    } = *psg;
    let mut views = Phase2Views {
        nodes,
        out_edges,
        in_edges,
        routines,
        return_exit_targets,
        pinned,
        edges,
        live,
    };
    run_waves(schedule.cond.waves_top_down(), &active, schedule, n, |cs, c| {
        solve_comp_phase2(&mut views, schedule, c, cs)
    })
}

/// Drives `solve` over the scheduled waves in order, skipping inactive
/// components. One [`CompSolver`] serves the whole phase: its worklist
/// heaps, dedup buffers and deferral scratch are allocated once and
/// reused by every component (a solver drains itself back to empty
/// after each component, so reuse cannot leak state between solves).
/// Returns total evaluations.
fn run_waves(
    waves: &[Vec<usize>],
    active: &[bool],
    schedule: &SccSchedule,
    n_nodes: usize,
    mut solve: impl FnMut(&mut CompSolver, usize) -> usize,
) -> usize {
    let mut cs = CompSolver::new(schedule.routine_nodes.len(), n_nodes);
    waves.iter().flatten().filter(|&&c| active[c]).map(|&c| solve(&mut cs, c)).sum()
}

/// Solves phase 1 for component `c` to its local fixpoint: stratum A
/// (`MAY-DEF`/`MUST-DEF`) over a routine-level worklist, then stratum B
/// (`MAY-USE` against the frozen kill sets) the same way — valid per
/// component because every cross-component input of both strata
/// converged in an earlier wave.
fn solve_comp_phase1(
    v: &mut Phase1Views<'_>,
    s: &SccSchedule,
    c: usize,
    cs: &mut CompSolver,
) -> usize {
    let routines = &s.cond.sccs().components()[c];
    let mut visits = 0usize;
    for stratum in [Stratum::Defs, Stratum::Uses] {
        for &r in routines.iter() {
            cs.seeded[r.index()] = false;
            cs.routine_wl.push(r.index(), s.rrank1[r.index()]);
        }
        loop {
            while let Some(ri) = cs.routine_wl.pop() {
                visits += solve_routine_phase1(v, s, c, ri, stratum, cs);
            }
            if cs.deferred_list.is_empty() {
                break;
            }
            let mut list = std::mem::take(&mut cs.deferred_list);
            for &r in &list {
                cs.deferred[r as usize] = false;
                cs.routine_wl.push(r as usize, s.rrank1[r as usize]);
            }
            list.clear();
            cs.deferred_list = list;
        }
    }
    visits
}

/// The two sub-problems of phase 1, solved strictly in order: `MAY-USE`
/// reads the `MUST-DEF` kill sets, so they must be final first.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stratum {
    Defs,
    Uses,
}

/// Solves one routine of component `c` to its local phase-1 fixpoint:
/// pull the routine's known-target call-return labels from current
/// source values, iterate its own nodes, then push the co-resident
/// caller routines whose inputs the solve actually moved (comparing
/// the routine's entry values against their pre-solve snapshot — the
/// batched §3.2 broadcast).
///
/// The first solve seeds every node; a re-solve seeds only the call
/// nodes whose pulled labels changed, so convergence is detected
/// without evaluating anything.
fn solve_routine_phase1(
    v: &mut Phase1Views<'_>,
    s: &SccSchedule,
    c: usize,
    r: usize,
    stratum: Stratum,
    cs: &mut CompSolver,
) -> usize {
    let first = !cs.seeded[r];
    for &e in &s.routine_cr_edges[r] {
        // A re-solve seeds the owning call node only when the label
        // delta can move its value: monotone evaluation makes a grown
        // bit the owner already carries (or a lost `MUST-DEF` bit it
        // already lacks) a provable no-op.
        match stratum {
            Stratum::Defs => {
                let (grown, lost) = recompute_cr_defs_view(v, e);
                if !first {
                    let owner = v.edges[e.index()].from().index();
                    if !grown.is_subset(v.may_def[owner]) || !(lost & v.must_def[owner]).is_empty()
                    {
                        cs.node_wl.push(owner, s.node_rank[owner]);
                    }
                }
            }
            Stratum::Uses => {
                let grown = recompute_cr_uses_view(v, e);
                if !first {
                    let owner = v.edges[e.index()].from().index();
                    if !grown.is_subset(v.may_use[owner]) {
                        cs.node_wl.push(owner, s.node_rank[owner]);
                    }
                }
            }
        }
    }
    if first {
        cs.seeded[r] = true;
        for &x in &s.routine_nodes[r] {
            cs.node_wl.push(x.index(), s.node_rank[x.index()]);
        }
    }
    if cs.node_wl.is_empty() {
        return 0;
    }

    let rn = &v.routines[r];
    let snapshot: Vec<(RegSet, RegSet)> = rn
        .entries()
        .iter()
        .map(|&x| match stratum {
            Stratum::Defs => (v.may_def[x.index()], v.must_def[x.index()]),
            Stratum::Uses => (v.may_use[x.index()], RegSet::EMPTY),
        })
        .collect();

    let mut visits = 0usize;
    'sweep: loop {
        while let Some(xi) = cs.node_wl.pop() {
            if v.pinned[xi] || v.out_edges[xi].is_empty() {
                continue;
            }
            visits += 1;

            // The per-stratum evaluation; `grown`/`lost` is the value delta,
            // used below to skip readers the change provably cannot move.
            let (grown, lost) = match stratum {
                Stratum::Defs => {
                    let mut may_def = RegSet::EMPTY;
                    let mut must_def = RegSet::EMPTY;
                    let mut first_edge = true;
                    for &e in &v.out_edges[xi] {
                        let edge = &v.edges[e.index()];
                        let yi = edge.to().index();
                        may_def |= edge.may_def() | v.may_def[yi];
                        let md = edge.must_def() | v.must_def[yi];
                        if first_edge {
                            must_def = md;
                            first_edge = false;
                        } else {
                            must_def &= md;
                        }
                    }
                    debug_assert!(
                        v.may_def[xi].is_subset(may_def) && must_def.is_subset(v.must_def[xi]),
                        "stratum A: MAY-DEF grows, MUST-DEF shrinks"
                    );
                    let delta = (may_def - v.may_def[xi], v.must_def[xi] - must_def);
                    v.may_def[xi] = may_def;
                    v.must_def[xi] = must_def;
                    delta
                }
                Stratum::Uses => {
                    let mut may_use = RegSet::EMPTY;
                    for &e in &v.out_edges[xi] {
                        let edge = &v.edges[e.index()];
                        may_use |=
                            edge.may_use() | (v.may_use[edge.to().index()] - edge.must_def());
                    }
                    debug_assert!(
                        v.may_use[xi].is_subset(may_use),
                        "stratum B values must grow monotonically"
                    );
                    let delta = (may_use - v.may_use[xi], RegSet::EMPTY);
                    v.may_use[xi] = may_use;
                    delta
                }
            };
            if grown.is_empty() && lost.is_empty() {
                continue;
            }

            for &e in &v.in_edges[xi] {
                let edge = &v.edges[e.index()];
                let f = edge.from().index();
                // Through edge `e` the reader sees `label | value` (defs) or
                // `label | (value - kill)` (uses): mask the delta down to
                // what survives the label, and skip the reader if its own
                // value already absorbs it.
                let moved = match stratum {
                    Stratum::Defs => {
                        !(grown - edge.may_def()).is_subset(v.may_def[f])
                            || !((lost - edge.must_def()) & v.must_def[f]).is_empty()
                    }
                    Stratum::Uses => {
                        !((grown - edge.must_def()) - edge.may_use()).is_subset(v.may_use[f])
                    }
                };
                if moved {
                    cs.push_node(f, s.node_rank[f], s.node_rank[xi]);
                }
            }
            // Eager broadcast only into this routine itself (direct
            // recursion); every other call site is billed once, after the
            // routine settles.
            if matches!(v.nodes[xi], NodeKind::Entry { .. }) {
                for &e in &v.entry_cr_edges[xi] {
                    let owner = v.edges[e.index()].from().index();
                    if v.nodes[owner].routine().index() != r {
                        continue;
                    }
                    match stratum {
                        Stratum::Defs => {
                            let (g, l) = recompute_cr_defs_view(v, e);
                            if !g.is_subset(v.may_def[owner]) || !(l & v.must_def[owner]).is_empty()
                            {
                                cs.push_node(owner, s.node_rank[owner], s.node_rank[xi]);
                            }
                        }
                        Stratum::Uses => {
                            let g = recompute_cr_uses_view(v, e);
                            if !g.is_subset(v.may_use[owner]) {
                                cs.push_node(owner, s.node_rank[owner], s.node_rank[xi]);
                            }
                        }
                    }
                }
            }
        }
        if !cs.flush_deferred_nodes(&s.node_rank) {
            break 'sweep;
        }
    }

    // Batched broadcast: bill each co-resident caller once per settled
    // entry change. Cross-component callers pull the converged values
    // when their own wave runs.
    for (k, &x) in rn.entries().iter().enumerate() {
        let xi = x.index();
        let now = match stratum {
            Stratum::Defs => (v.may_def[xi], v.must_def[xi]),
            Stratum::Uses => (v.may_use[xi], RegSet::EMPTY),
        };
        if now == snapshot[k] {
            continue;
        }
        for &e in &v.entry_cr_edges[xi] {
            let owner = v.edges[e.index()].from().index();
            let or = v.nodes[owner].routine().index();
            if or != r && s.comp_of_routine[or] as usize == c {
                cs.push_routine(or, s.rrank1[or], s.rrank1[r]);
            }
        }
    }
    visits
}

/// Solves phase 2 for component `c` to its local fixpoint over a
/// routine-level worklist, callers first.
fn solve_comp_phase2(
    v: &mut Phase2Views<'_>,
    s: &SccSchedule,
    c: usize,
    cs: &mut CompSolver,
) -> usize {
    let routines = &s.cond.sccs().components()[c];
    for &r in routines.iter() {
        cs.seeded[r.index()] = false;
        cs.routine_wl.push(r.index(), s.rrank2[r.index()]);
    }
    let mut visits = 0usize;
    loop {
        while let Some(ri) = cs.routine_wl.pop() {
            visits += solve_routine_phase2(v, s, c, ri, cs);
        }
        if cs.deferred_list.is_empty() {
            break;
        }
        let mut list = std::mem::take(&mut cs.deferred_list);
        for &r in &list {
            cs.deferred[r as usize] = false;
            cs.routine_wl.push(r as usize, s.rrank2[r as usize]);
        }
        list.clear();
        cs.deferred_list = list;
    }
    visits
}

/// Solves one routine of component `c` to its local phase-2 fixpoint:
/// pull the liveness its exits receive from return nodes anywhere —
/// converged earlier waves, co-resident callers, itself — iterate its
/// own nodes, then push the co-resident callee routines whose exits the
/// solve's settled return-liveness changes feed (the batched §3.3
/// broadcast). Seeding follows the phase-1 discipline: everything on
/// the first solve, only changed exits' readers on a re-solve.
fn solve_routine_phase2(
    v: &mut Phase2Views<'_>,
    s: &SccSchedule,
    c: usize,
    r: usize,
    cs: &mut CompSolver,
) -> usize {
    let first = !cs.seeded[r];
    cs.seeded[r] = true;
    let rn = &v.routines[r];
    for &x in rn.exits() {
        let xi = x.index();
        let mut grown = RegSet::EMPTY;
        if !s.exit_sources[xi].is_empty() {
            let mut merged = v.live[xi];
            for &ret in &s.exit_sources[xi] {
                merged |= v.live[ret.index()];
            }
            grown = merged - v.live[xi];
            if !grown.is_empty() {
                v.live[xi] = merged;
            }
        }
        // Under the warm (`MAY-USE` fixpoint) start everything but the
        // exits is already quiescent, so the first solve seeds only the
        // readers of whatever its exits hold — seeds plus pull — and a
        // re-solve only the readers of the pull's growth.
        let delta = if first { v.live[xi] } else { grown };
        if delta.is_empty() {
            continue;
        }
        for &e in &v.in_edges[xi] {
            let edge = &v.edges[e.index()];
            let f = edge.from().index();
            if !((delta - edge.must_def()) - edge.may_use()).is_subset(v.live[f]) {
                cs.node_wl.push(f, s.node_rank[f]);
            }
        }
    }
    if cs.node_wl.is_empty() {
        return 0;
    }

    let snapshot: Vec<RegSet> = rn.calls().iter().map(|&(_, _, ret)| v.live[ret.index()]).collect();

    let mut visits = 0usize;
    'sweep: loop {
        while let Some(xi) = cs.node_wl.pop() {
            if v.pinned[xi] || v.out_edges[xi].is_empty() {
                // Sinks (exits, halts, unknown jumps) are updated only by
                // seeds, pulls and broadcasts; nothing to evaluate.
                continue;
            }
            visits += 1;

            let mut live = v.live[xi];
            for &e in &v.out_edges[xi] {
                let edge = &v.edges[e.index()];
                live |= edge.may_use() | (v.live[edge.to().index()] - edge.must_def());
            }
            let grown = live - v.live[xi];
            if grown.is_empty() {
                continue;
            }
            v.live[xi] = live;

            for &e in &v.in_edges[xi] {
                let edge = &v.edges[e.index()];
                let f = edge.from().index();
                // Skip readers whose liveness already absorbs what survives
                // the edge label.
                if !((grown - edge.must_def()) - edge.may_use()).is_subset(v.live[f]) {
                    cs.push_node(f, s.node_rank[f], s.node_rank[xi]);
                }
            }
            // Eager broadcast only into this routine's own exits (direct
            // recursion); other callees are billed once, after the routine
            // settles.
            for &t in &v.return_exit_targets[xi] {
                let ti = t.index();
                if v.nodes[ti].routine().index() != r {
                    continue;
                }
                let egrown = grown - v.live[ti];
                if !egrown.is_empty() {
                    v.live[ti] |= grown;
                    for &e in &v.in_edges[ti] {
                        let edge = &v.edges[e.index()];
                        let f = edge.from().index();
                        if !((egrown - edge.must_def()) - edge.may_use()).is_subset(v.live[f]) {
                            cs.push_node(f, s.node_rank[f], s.node_rank[xi]);
                        }
                    }
                }
            }
        }
        if !cs.flush_deferred_nodes(&s.node_rank) {
            break 'sweep;
        }
    }

    // Batched broadcast: bill each co-resident callee once per settled
    // return-liveness change. Cross-component callees pull when their
    // own wave runs.
    for (k, &(_, _, ret)) in rn.calls().iter().enumerate() {
        if v.live[ret.index()] == snapshot[k] {
            continue;
        }
        for &t in &v.return_exit_targets[ret.index()] {
            let tr = v.nodes[t.index()].routine().index();
            if tr != r && s.comp_of_routine[tr] as usize == c {
                cs.push_routine(tr, s.rrank2[tr], s.rrank2[r]);
            }
        }
    }
    visits
}

/// Recomputes a call-return edge's `MAY-DEF`/`MUST-DEF` from its source
/// entries; the shared-view twin of `dataflow::recompute_cr_defs`.
/// Returns the delta: the `MAY-DEF` bits the label gained and the
/// `MUST-DEF` bits it lost (both empty iff the label is unchanged).
fn recompute_cr_defs_view(v: &mut Phase1Views<'_>, e: EdgeId) -> (RegSet, RegSet) {
    let sources = &v.cr_sources[e.index()];
    debug_assert!(!sources.is_empty(), "only known-target edges are recomputed");
    let mut may_def = RegSet::EMPTY;
    let mut must_def = RegSet::EMPTY;
    let mut first = true;
    for &s in sources {
        let si = s.index();
        let csr = v.routines[v.nodes[si].routine().index()].saved_restored;
        may_def |= v.may_def[si] - csr;
        let md = v.must_def[si] - csr;
        if first {
            must_def = md;
            first = false;
        } else {
            must_def &= md;
        }
    }
    let edge = &mut v.edges[e.index()];
    debug_assert_eq!(edge.kind(), EdgeKind::CallReturn);
    let delta = (may_def - edge.may_def, edge.must_def - must_def);
    edge.may_def = may_def;
    edge.must_def = must_def;
    delta
}

/// Recomputes a call-return edge's `MAY-USE` from its source entries;
/// the shared-view twin of `dataflow::recompute_cr_uses`. Returns the
/// bits the label gained (empty iff unchanged).
fn recompute_cr_uses_view(v: &mut Phase1Views<'_>, e: EdgeId) -> RegSet {
    let sources = &v.cr_sources[e.index()];
    debug_assert!(!sources.is_empty(), "only known-target edges are recomputed");
    let mut may_use = RegSet::EMPTY;
    for &s in sources {
        let si = s.index();
        let csr = v.routines[v.nodes[si].routine().index()].saved_restored;
        may_use |= v.may_use[si] - csr;
    }
    let edge = &mut v.edges[e.index()];
    debug_assert_eq!(edge.kind(), EdgeKind::CallReturn);
    let grown = may_use - edge.may_use;
    edge.may_use = may_use;
    grown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisOptions;
    use crate::build::build_psg;
    use spike_cfg::RoutineCfg;
    use spike_program::ProgramBuilder;

    /// Many small recursive components at high routine indices: each
    /// pair still orders callee-first against everything it calls
    /// outside itself, and the two phase ranks stay exact reverses.
    #[test]
    fn many_recursive_pairs_rank_callee_first() {
        const PAIRS: usize = 1500;
        let mut b = ProgramBuilder::new();
        b.routine("main").call(&format!("p{}", PAIRS - 1)).ret();
        for i in 0..PAIRS {
            let p = b.routine(&format!("p{i}"));
            p.call(&format!("q{i}"));
            if i > 0 {
                p.call(&format!("p{}", i - 1));
            }
            p.ret();
            b.routine(&format!("q{i}")).call(&format!("p{i}")).ret();
        }
        b.set_entry("main");
        let program = b.build().unwrap();
        let n_routines = program.routines().len();
        let mut cfgs: Vec<RoutineCfg> = (0..n_routines)
            .map(|i| RoutineCfg::build_structure(&program, RoutineId::from_index(i)))
            .collect();
        for c in &mut cfgs {
            c.init_def_ubd(&program);
        }
        let cfg = ProgramCfg::from_cfgs(cfgs);
        let psg = build_psg(&program, &cfg, &AnalysisOptions::default(), 1);
        let schedule = SccSchedule::build(&program, &cfg, &psg);

        assert_eq!(schedule.components(), PAIRS + 1);
        let mut ranks = schedule.rrank1.clone();
        ranks.sort_unstable();
        assert!(ranks.iter().enumerate().all(|(i, &r)| r as usize == i), "ranks permute");
        let graph = CallGraph::build(&program, &cfg);
        for r in 0..n_routines {
            let rid = RoutineId::from_index(r);
            assert_eq!(schedule.rrank2[r] as usize, n_routines - 1 - schedule.rrank1[r] as usize);
            for &w in graph.callees(rid) {
                if schedule.component_of_routine(w) != schedule.component_of_routine(rid) {
                    assert!(
                        schedule.rrank1[w.index()] < schedule.rrank1[r],
                        "callee {w:?} ranks after its caller {rid:?}"
                    );
                }
            }
        }
    }
}
