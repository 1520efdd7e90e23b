//! # spike-callgraph
//!
//! The whole-program call graph: which routines may call which, including
//! recovered indirect targets. Spike-style interprocedural dataflow
//! converges fastest when callees are solved before callers, so the crate
//! provides Tarjan strongly-connected components and a bottom-up
//! (callees-first) component order; it also feeds the evaluation report's
//! program-structure statistics.
//!
//! # Example
//!
//! ```
//! use spike_cfg::ProgramCfg;
//! use spike_callgraph::CallGraph;
//! use spike_isa::Reg;
//! use spike_program::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main").call("a").halt();
//! b.routine("a").call("b").ret();
//! b.routine("b").ret();
//! let program = b.build()?;
//!
//! let cg = CallGraph::build(&program, &ProgramCfg::build(&program));
//! let main = program.routine_by_name("main").unwrap();
//! let a = program.routine_by_name("a").unwrap();
//! assert_eq!(cg.callees(main), &[a]);
//!
//! // Bottom-up: b before a before main.
//! let order = cg.sccs().bottom_up().concat();
//! assert_eq!(order.len(), 3);
//! assert_eq!(program.routine(order[0]).name(), "b");
//! assert_eq!(program.routine(order[2]).name(), "main");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use spike_cfg::{CallTarget, ProgramCfg, TermKind};
use spike_isa::HeapSize;
use spike_program::{Program, RoutineId};

/// The may-call relation over a program's routines.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CallGraph {
    callees: Vec<Vec<RoutineId>>,
    callers: Vec<Vec<RoutineId>>,
    /// Routines containing at least one unknown-target indirect call.
    calls_unknown: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph from a program's CFGs. Edges are deduplicated;
    /// indirect calls with recovered target lists contribute one edge per
    /// target.
    pub fn build(program: &Program, cfg: &ProgramCfg) -> CallGraph {
        let n = program.routines().len();
        let mut callees = vec![Vec::new(); n];
        let mut callers = vec![Vec::new(); n];
        let mut calls_unknown = vec![false; n];

        for (ri, rcfg) in cfg.cfgs().iter().enumerate() {
            for block in rcfg.blocks() {
                let TermKind::Call { target, .. } = block.term() else {
                    continue;
                };
                let mut note = |callee: RoutineId| {
                    if !callees[ri].contains(&callee) {
                        callees[ri].push(callee);
                        callers[callee.index()].push(RoutineId::from_index(ri));
                    }
                };
                match target {
                    CallTarget::Direct(rid, _) => note(*rid),
                    CallTarget::IndirectKnown(list) => {
                        for (rid, _) in list {
                            note(*rid);
                        }
                    }
                    CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => {
                        calls_unknown[ri] = true;
                    }
                }
            }
        }
        CallGraph { callees, callers, calls_unknown }
    }

    /// Number of routines.
    pub fn len(&self) -> usize {
        self.callees.len()
    }

    /// Whether the program has no routines (never true for validated
    /// programs).
    pub fn is_empty(&self) -> bool {
        self.callees.is_empty()
    }

    /// The routines `id` may call (deduplicated, in first-seen order).
    pub fn callees(&self, id: RoutineId) -> &[RoutineId] {
        &self.callees[id.index()]
    }

    /// The routines that may call `id`.
    pub fn callers(&self, id: RoutineId) -> &[RoutineId] {
        &self.callers[id.index()]
    }

    /// Whether `id` makes at least one unknown-target indirect call.
    pub fn calls_unknown(&self, id: RoutineId) -> bool {
        self.calls_unknown[id.index()]
    }

    /// Whether `id` can (transitively) call itself.
    pub fn is_recursive(&self, id: RoutineId) -> bool {
        let sccs = self.sccs();
        let c = sccs.component_of(id);
        sccs.components()[c].len() > 1 || self.callees(id).contains(&id)
    }

    /// Tarjan strongly-connected components.
    pub fn sccs(&self) -> Sccs {
        let n = self.len();
        let mut state = TarjanState {
            graph: self,
            index: vec![usize::MAX; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            comp_of: vec![usize::MAX; n],
            comps: Vec::new(),
        };
        for v in 0..n {
            if state.index[v] == usize::MAX {
                state.visit(v);
            }
        }
        // Tarjan emits components in reverse topological order of the
        // condensation (callees before callers) — exactly bottom-up.
        Sccs { comp_of: state.comp_of, comps: state.comps }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CallGraphStats {
        let sccs = self.sccs();
        let edges: usize = self.callees.iter().map(Vec::len).sum();
        let recursive_routines = (0..self.len())
            .filter(|&i| {
                let id = RoutineId::from_index(i);
                let c = sccs.component_of(id);
                sccs.components()[c].len() > 1 || self.callees(id).contains(&id)
            })
            .count();
        CallGraphStats {
            routines: self.len(),
            edges,
            max_fanout: self.callees.iter().map(Vec::len).max().unwrap_or(0),
            recursive_routines,
            components: sccs.components().len(),
            largest_component: sccs.components().iter().map(Vec::len).max().unwrap_or(0),
            unknown_call_routines: self.calls_unknown.iter().filter(|&&b| b).count(),
        }
    }
}

impl HeapSize for CallGraph {
    fn heap_bytes(&self) -> usize {
        self.callees.heap_bytes() + self.callers.heap_bytes() + self.calls_unknown.heap_bytes()
    }
}

/// Aggregate call-graph statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CallGraphStats {
    /// Routine count.
    pub routines: usize,
    /// Deduplicated call edges.
    pub edges: usize,
    /// Largest callee fan-out of any routine.
    pub max_fanout: usize,
    /// Routines that can transitively call themselves.
    pub recursive_routines: usize,
    /// Strongly-connected components.
    pub components: usize,
    /// Size of the largest component (mutual-recursion cluster).
    pub largest_component: usize,
    /// Routines making unknown-target indirect calls.
    pub unknown_call_routines: usize,
}

impl fmt::Display for CallGraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} routines, {} call edges (max fanout {}), {} recursive, \
             {} SCCs (largest {}), {} with unknown calls",
            self.routines,
            self.edges,
            self.max_fanout,
            self.recursive_routines,
            self.components,
            self.largest_component,
            self.unknown_call_routines,
        )
    }
}

/// Strongly-connected components in bottom-up order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sccs {
    comp_of: Vec<usize>,
    comps: Vec<Vec<RoutineId>>,
}

impl Sccs {
    /// The components, callees-first (reverse topological order of the
    /// condensation).
    pub fn components(&self) -> &[Vec<RoutineId>] {
        &self.comps
    }

    /// The component index of `id`.
    pub fn component_of(&self, id: RoutineId) -> usize {
        self.comp_of[id.index()]
    }

    /// Components in callees-before-callers order (an alias for
    /// [`Sccs::components`], named for intent).
    pub fn bottom_up(&self) -> &[Vec<RoutineId>] {
        &self.comps
    }

    /// Condenses the call graph into its SCC DAG and computes wave
    /// levels for scheduled fixpoint evaluation.
    pub fn condense(&self, graph: &CallGraph) -> Condensation {
        Condensation::build(graph, self)
    }
}

/// The call graph's condensation: one vertex per strongly-connected
/// component, plus the *wave levels* a scheduled fixpoint engine solves
/// the components in.
///
/// A component's **bottom-up level** is the length of the longest callee
/// chain below it (0 for leaves); its **top-down level** is the longest
/// caller chain above it (0 for roots). Components that share a level
/// have no call edges between them — an edge always separates levels —
/// so every level is a *wave* of mutually independent components:
/// phase 1 solves the bottom-up waves in order, phase 2 the top-down
/// waves, and the components inside one wave can be solved in parallel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Condensation {
    sccs: Sccs,
    /// Per component: the components it calls into (deduplicated,
    /// ascending, self-edges dropped).
    callee_comps: Vec<Vec<usize>>,
    /// Per component: the components that call it.
    caller_comps: Vec<Vec<usize>>,
    /// Per component: its bottom-up wave level.
    level_bottom_up: Vec<usize>,
    /// Per component: its top-down wave level.
    level_top_down: Vec<usize>,
    /// Component indices grouped by bottom-up level (ascending inside a
    /// wave).
    waves_bottom_up: Vec<Vec<usize>>,
    /// Component indices grouped by top-down level.
    waves_top_down: Vec<Vec<usize>>,
}

impl Condensation {
    fn build(graph: &CallGraph, sccs: &Sccs) -> Condensation {
        let nc = sccs.components().len();
        let mut callee_comps: Vec<Vec<usize>> = vec![Vec::new(); nc];
        let mut caller_comps: Vec<Vec<usize>> = vec![Vec::new(); nc];
        for (c, comp) in sccs.components().iter().enumerate() {
            let mut callees: Vec<usize> = comp
                .iter()
                .flat_map(|&r| graph.callees(r))
                .map(|&callee| sccs.component_of(callee))
                .filter(|&d| d != c)
                .collect();
            callees.sort_unstable();
            callees.dedup();
            for &d in &callees {
                caller_comps[d].push(c);
            }
            callee_comps[c] = callees;
        }
        for callers in &mut caller_comps {
            callers.sort_unstable();
        }

        // Tarjan emits components callees-first, so both level relaxations
        // are single passes: a component's callees have smaller indices
        // and its callers larger ones.
        let mut level_bottom_up = vec![0usize; nc];
        for c in 0..nc {
            for &d in &callee_comps[c] {
                debug_assert!(d < c, "callee components precede their callers");
                level_bottom_up[c] = level_bottom_up[c].max(level_bottom_up[d] + 1);
            }
        }
        let mut level_top_down = vec![0usize; nc];
        for c in (0..nc).rev() {
            for &d in &caller_comps[c] {
                debug_assert!(d > c, "caller components follow their callees");
                level_top_down[c] = level_top_down[c].max(level_top_down[d] + 1);
            }
        }

        let group = |levels: &[usize]| {
            let waves = levels.iter().max().map_or(0, |&m| m + 1);
            let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); waves];
            for (c, &l) in levels.iter().enumerate() {
                grouped[l].push(c);
            }
            grouped
        };
        let waves_bottom_up = group(&level_bottom_up);
        let waves_top_down = group(&level_top_down);
        Condensation {
            sccs: sccs.clone(),
            callee_comps,
            caller_comps,
            level_bottom_up,
            level_top_down,
            waves_bottom_up,
            waves_top_down,
        }
    }

    /// The underlying components.
    pub fn sccs(&self) -> &Sccs {
        &self.sccs
    }

    /// The components component `c` calls into (no self-edges).
    pub fn callee_components(&self, c: usize) -> &[usize] {
        &self.callee_comps[c]
    }

    /// The components that call into component `c`.
    pub fn caller_components(&self, c: usize) -> &[usize] {
        &self.caller_comps[c]
    }

    /// Component `c`'s bottom-up wave level.
    pub fn level_bottom_up(&self, c: usize) -> usize {
        self.level_bottom_up[c]
    }

    /// Component `c`'s top-down wave level.
    pub fn level_top_down(&self, c: usize) -> usize {
        self.level_top_down[c]
    }

    /// Number of waves (identical for both directions: each equals one
    /// plus the longest path in the condensation DAG).
    pub fn waves(&self) -> usize {
        self.waves_bottom_up.len()
    }

    /// Waves in callees-before-callers order: solving them in sequence
    /// guarantees every callee component converges before any caller
    /// component starts (phase 1).
    pub fn waves_bottom_up(&self) -> &[Vec<usize>] {
        &self.waves_bottom_up
    }

    /// Waves in callers-before-callees order (phase 2).
    pub fn waves_top_down(&self) -> &[Vec<usize>] {
        &self.waves_top_down
    }
}

struct TarjanState<'a> {
    graph: &'a CallGraph,
    index: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next_index: usize,
    comp_of: Vec<usize>,
    comps: Vec<Vec<RoutineId>>,
}

impl TarjanState<'_> {
    /// Iterative Tarjan (explicit stack: recursion would overflow on
    /// million-routine call chains).
    fn visit(&mut self, root: usize) {
        let mut call_stack: Vec<(usize, usize)> = vec![(root, 0)];
        self.open(root);
        while let Some(&mut (v, ref mut next)) = call_stack.last_mut() {
            let callees = &self.graph.callees[v];
            if *next < callees.len() {
                let w = callees[*next].index();
                *next += 1;
                if self.index[w] == usize::MAX {
                    self.open(w);
                    call_stack.push((w, 0));
                } else if self.on_stack[w] {
                    self.lowlink[v] = self.lowlink[v].min(self.index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    self.lowlink[parent] = self.lowlink[parent].min(self.lowlink[v]);
                }
                if self.lowlink[v] == self.index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = self.stack.pop().expect("component member on stack");
                        self.on_stack[w] = false;
                        self.comp_of[w] = self.comps.len();
                        comp.push(RoutineId::from_index(w));
                        if w == v {
                            break;
                        }
                    }
                    self.comps.push(comp);
                }
            }
        }
    }

    fn open(&mut self, v: usize) {
        self.index[v] = self.next_index;
        self.lowlink[v] = self.next_index;
        self.next_index += 1;
        self.stack.push(v);
        self.on_stack[v] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    fn graph_of(b: &ProgramBuilder) -> (Program, CallGraph) {
        let p = b.build().unwrap();
        let cfg = ProgramCfg::build(&p);
        let cg = CallGraph::build(&p, &cfg);
        (p, cg)
    }

    fn id(p: &Program, name: &str) -> RoutineId {
        p.routine_by_name(name).unwrap()
    }

    #[test]
    fn edges_and_dedup() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("a").call("a").call("b").halt();
        b.routine("a").ret();
        b.routine("b").ret();
        let (p, cg) = graph_of(&b);
        assert_eq!(cg.callees(id(&p, "main")), &[id(&p, "a"), id(&p, "b")]);
        assert_eq!(cg.callers(id(&p, "a")), &[id(&p, "main")]);
        assert_eq!(cg.stats().edges, 2);
        assert!(!cg.is_empty());
    }

    #[test]
    fn indirect_known_targets_are_edges() {
        let mut b = ProgramBuilder::new();
        b.routine("main").jsr_known(Reg::PV, &["a", "b"]).halt();
        b.routine("a").ret();
        b.routine("b").ret();
        let (p, cg) = graph_of(&b);
        assert_eq!(cg.callees(id(&p, "main")).len(), 2);
        assert!(!cg.calls_unknown(id(&p, "main")));
    }

    #[test]
    fn unknown_calls_are_flagged_not_edges() {
        let mut b = ProgramBuilder::new();
        b.routine("main").jsr_unknown(Reg::PV).halt();
        let (p, cg) = graph_of(&b);
        assert!(cg.callees(id(&p, "main")).is_empty());
        assert!(cg.calls_unknown(id(&p, "main")));
        assert_eq!(cg.stats().unknown_call_routines, 1);
    }

    #[test]
    fn bottom_up_order_solves_callees_first() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("mid").halt();
        b.routine("mid").call("leaf").ret();
        b.routine("leaf").ret();
        let (p, cg) = graph_of(&b);
        let order: Vec<RoutineId> = cg.sccs().bottom_up().concat();
        let pos = |n: &str| order.iter().position(|&r| r == id(&p, n)).unwrap();
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("main"));
    }

    #[test]
    fn mutual_recursion_is_one_component() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("even").halt();
        b.routine("even").call("odd").ret();
        b.routine("odd").call("even").ret();
        let (p, cg) = graph_of(&b);
        let sccs = cg.sccs();
        assert_eq!(sccs.component_of(id(&p, "even")), sccs.component_of(id(&p, "odd")));
        assert_ne!(sccs.component_of(id(&p, "main")), sccs.component_of(id(&p, "even")));
        assert!(cg.is_recursive(id(&p, "even")));
        assert!(!cg.is_recursive(id(&p, "main")));
        let stats = cg.stats();
        assert_eq!(stats.largest_component, 2);
        assert_eq!(stats.recursive_routines, 2);
    }

    #[test]
    fn self_recursion_is_recursive_but_singleton() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("rec").halt();
        b.routine("rec").call("rec").ret();
        let (p, cg) = graph_of(&b);
        assert!(cg.is_recursive(id(&p, "rec")));
        assert_eq!(cg.sccs().components().iter().filter(|c| c.len() > 1).count(), 0);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 20k-deep call chain: would blow the stack with recursive Tarjan.
        let n = 20_000;
        let mut b = ProgramBuilder::new();
        for i in 0..n {
            let r = b.routine(&format!("r{i}"));
            if i + 1 < n {
                r.call(&format!("r{}", i + 1));
            }
            if i == 0 {
                r.halt();
            } else {
                r.ret();
            }
        }
        let (p, cg) = graph_of(&b);
        let sccs = cg.sccs();
        assert_eq!(sccs.components().len(), n);
        // Bottom-up: the leaf (r{n-1}) first, the entry last.
        assert_eq!(sccs.bottom_up()[0][0], id(&p, &format!("r{}", n - 1)));
        assert_eq!(sccs.bottom_up()[n - 1][0], id(&p, "r0"));
    }

    #[test]
    fn condensation_levels_separate_call_edges() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("even").call("lib").halt();
        b.routine("even").call("odd").call("lib").ret();
        b.routine("odd").call("even").ret();
        b.routine("lib").ret();
        b.routine("island").ret();
        let (p, cg) = graph_of(&b);
        let sccs = cg.sccs();
        let cond = sccs.condense(&cg);

        let comp = |n: &str| sccs.component_of(id(&p, n));
        // even/odd form one component; lib and island are leaves.
        assert_eq!(comp("even"), comp("odd"));
        assert_eq!(cond.level_bottom_up(comp("lib")), 0);
        assert_eq!(cond.level_bottom_up(comp("island")), 0);
        assert_eq!(cond.level_bottom_up(comp("even")), 1);
        assert_eq!(cond.level_bottom_up(comp("main")), 2);
        assert_eq!(cond.level_top_down(comp("main")), 0);
        assert_eq!(cond.level_top_down(comp("island")), 0);
        assert_eq!(cond.level_top_down(comp("even")), 1);
        assert_eq!(cond.level_top_down(comp("lib")), 2);
        assert_eq!(cond.waves(), 3);
        assert_eq!(cond.waves_bottom_up().iter().map(Vec::len).max(), Some(2));

        // Every call edge separates wave levels in both directions.
        for c in 0..sccs.components().len() {
            for &d in cond.callee_components(c) {
                assert!(cond.level_bottom_up(c) > cond.level_bottom_up(d));
                assert!(cond.level_top_down(c) < cond.level_top_down(d));
                assert!(cond.caller_components(d).contains(&c));
            }
        }
        // Waves partition the components.
        let total: usize = cond.waves_bottom_up().iter().map(Vec::len).sum();
        assert_eq!(total, sccs.components().len());
        let total: usize = cond.waves_top_down().iter().map(Vec::len).sum();
        assert_eq!(total, sccs.components().len());
    }

    #[test]
    fn condensation_drops_self_edges_and_dedups() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("rec").call("rec").halt();
        b.routine("rec").call("rec").ret();
        let (p, cg) = graph_of(&b);
        let sccs = cg.sccs();
        let cond = sccs.condense(&cg);
        let rec = sccs.component_of(id(&p, "rec"));
        let main = sccs.component_of(id(&p, "main"));
        assert!(cond.callee_components(rec).is_empty());
        assert_eq!(cond.callee_components(main), &[rec]);
        assert_eq!(cond.caller_components(rec), &[main]);
        assert_eq!(cond.waves(), 2);
    }

    #[test]
    fn deep_chain_condensation_has_one_scc_per_wave() {
        let n = 2_000;
        let mut b = ProgramBuilder::new();
        for i in 0..n {
            let r = b.routine(&format!("r{i}"));
            if i + 1 < n {
                r.call(&format!("r{}", i + 1));
            }
            if i == 0 {
                r.halt();
            } else {
                r.ret();
            }
        }
        let (_, cg) = graph_of(&b);
        let cond = cg.sccs().condense(&cg);
        assert_eq!(cond.waves(), n);
        assert!(cond.waves_bottom_up().iter().all(|w| w.len() == 1));
    }

    #[test]
    fn stats_display_is_informative() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("a").halt();
        b.routine("a").ret();
        let (_, cg) = graph_of(&b);
        let s = cg.stats().to_string();
        assert!(s.contains("2 routines"));
        assert!(s.contains("1 call edges"));
    }
}
