//! Equivalence and effort properties of the SCC-wave scheduled fixpoint
//! engine ([`spike::core::Scheduler::SccWave`]) against the chaotic FIFO
//! reference it replaces as the default.
//!
//! The scheduler is pure strategy: the least fixpoint of the monotone
//! phase-1/phase-2 systems is unique, so every observable — summaries,
//! the PSG values and labels, the deterministic `memory_bytes` — must be
//! bit-identical whichever engine ran and however many front-end
//! workers built the PSG. What the scheduler *is* allowed to change is
//! effort, and only downward: these properties also pin the visit
//! counts as never exceeding the FIFO engine's.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spike::baseline::analyze_baseline;
use spike::core::{analyze_with, AnalysisCache, AnalysisOptions, GreedyFas, Scheduler};
use spike::program::{Program, Rewriter};

fn arb_program() -> impl Strategy<Value = Program> {
    (
        any::<u64>(),
        prop_oneof![
            Just("compress"),
            Just("li"),
            Just("perl"),
            Just("vortex"),
            Just("sqlservr"),
            Just("gcc")
        ],
        1usize..=60,
    )
        .prop_map(|(seed, name, routines)| {
            let p = spike::synth::profile(name).expect("known benchmark");
            spike::synth::generate(&p, routines as f64 / p.routines as f64, seed)
        })
}

fn with(scheduler: Scheduler, threads: usize) -> AnalysisOptions {
    AnalysisOptions { scheduler, threads, ..AnalysisOptions::default() }
}

/// Asserts every observable output of two analyses is bit-identical:
/// per-routine summaries, the full PSG (values and labels), and the
/// deterministic `memory_bytes`.
fn assert_identical(program: &Program, a: &spike::core::Analysis, b: &spike::core::Analysis) {
    for (rid, r) in program.iter() {
        assert_eq!(
            a.summary.routine(rid),
            b.summary.routine(rid),
            "summary mismatch for {}",
            r.name()
        );
    }
    assert_eq!(&a.psg, &b.psg);
    assert_eq!(a.stats.memory_bytes, b.stats.memory_bytes);
}

/// The two oracles pin the production engine on every one of the
/// paper's 16 benchmark profiles, seeds 1–3: the SCC-wave engine, with
/// one front-end worker and with eight, reaches exactly the FIFO
/// engine's fixpoint and the full-CFG baseline's summaries, with the
/// same effort at both worker counts.
#[test]
fn scheduled_matches_fifo_on_all_profiles() {
    for p in spike::synth::profiles() {
        for seed in 1..=3 {
            let program = spike::synth::generate(&p, 30.0 / p.routines as f64, seed);
            let fifo = analyze_with(&program, &with(Scheduler::Fifo, 1));
            let baseline = analyze_baseline(&program);
            let mut visits = Vec::new();
            for threads in [1, 8] {
                let sched = analyze_with(&program, &with(Scheduler::SccWave, threads));
                assert_identical(&program, &fifo, &sched);
                for (rid, r) in program.iter() {
                    assert_eq!(
                        sched.summary.routine(rid),
                        &baseline.summaries[rid.index()],
                        "{} seed {seed}: baseline mismatch for {}",
                        p.name,
                        r.name()
                    );
                }
                visits.push((sched.stats.phase1_visits, sched.stats.phase2_visits));
            }
            assert_eq!(visits[0], visits[1], "{} seed {seed}: effort varies with threads", p.name);
        }
    }
}

/// The feedback-arc ordering behind the scheduler's ranks does linear
/// work. Its work count is deterministic, so bounding it on seeded dense
/// SCCs (a Hamiltonian cycle plus 16 random arcs per vertex) guards
/// against a quadratic pick or refinement pass without timing anything:
/// work stays within `4(n + m)`, and doubling the SCC at most
/// 2.3-folds it.
#[test]
fn feedback_arc_order_work_is_linear() {
    let work = |n: u32| {
        let mut rng = StdRng::seed_from_u64(u64::from(n));
        let mut arcs: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        while arcs.len() < 17 * n as usize {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                arcs.push((a, b));
            }
        }
        let mut fas = GreedyFas::default();
        let mut placed = fas.order(n as usize, &arcs).to_vec();
        placed.sort_unstable();
        assert!(placed.iter().copied().eq(0..n), "the order permutes the vertices");
        let bound = 4 * (n as usize + arcs.len());
        assert!(fas.work() <= bound, "n = {n}: work {} > 4(n + m) = {bound}", fas.work());
        fas.work()
    };
    let (w4k, w8k) = (work(4096), work(8192));
    let ratio = w8k as f64 / w4k as f64;
    assert!(ratio <= 2.3, "work grew {ratio:.2}x from 4k to 8k vertices ({w4k} -> {w8k})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Both engines, and the scheduled engine at every worker count,
    /// agree on every observable output — and the scheduled engine's
    /// effort is identical at every worker count, since threads size
    /// only the front end.
    #[test]
    fn scheduled_matches_fifo_bit_for_bit(program in arb_program()) {
        let fifo = analyze_with(&program, &with(Scheduler::Fifo, 1));
        let serial = analyze_with(&program, &with(Scheduler::SccWave, 1));
        let wide = analyze_with(&program, &with(Scheduler::SccWave, 8));

        for (rid, r) in program.iter() {
            prop_assert_eq!(
                fifo.summary.routine(rid),
                serial.summary.routine(rid),
                "summary mismatch for {}",
                r.name()
            );
        }
        prop_assert_eq!(&fifo.psg, &serial.psg);
        prop_assert_eq!(&fifo.psg, &wide.psg);
        prop_assert_eq!(fifo.stats.memory_bytes, serial.stats.memory_bytes);
        prop_assert_eq!(fifo.stats.memory_bytes, wide.stats.memory_bytes);

        prop_assert_eq!(serial.stats.phase1_visits, wide.stats.phase1_visits);
        prop_assert_eq!(serial.stats.phase2_visits, wide.stats.phase2_visits);
        prop_assert_eq!(serial.stats.waves, wide.stats.waves);
    }

    /// The scheduled engine never evaluates more nodes than the FIFO
    /// reference: waves stop converged components from being revisited,
    /// priority order and warm seeding keep most values settled on first
    /// touch, and the absorption filters drop every push that provably
    /// cannot move a value.
    #[test]
    fn scheduled_never_visits_more(program in arb_program()) {
        let fifo = analyze_with(&program, &with(Scheduler::Fifo, 1));
        let sched = analyze_with(&program, &with(Scheduler::SccWave, 1));
        prop_assert!(
            sched.stats.phase1_visits + sched.stats.phase2_visits
                <= fifo.stats.phase1_visits + fifo.stats.phase2_visits,
            "scheduled {} + {} vs fifo {} + {}",
            sched.stats.phase1_visits,
            sched.stats.phase2_visits,
            fifo.stats.phase1_visits,
            fifo.stats.phase2_visits
        );
    }

    /// The scheduled engine composes with the incremental reset masks:
    /// a cached re-analysis under the default scheduler reaches exactly
    /// the solution a from-scratch FIFO analysis of the edited program
    /// computes. (The reset closures are SCC-saturated, so the seeded
    /// run solves exactly the components containing reset nodes.)
    #[test]
    fn incremental_scheduled_matches_scratch_fifo(seed in any::<u64>()) {
        let program = spike::synth::generate_executable(seed, 6);
        let mut cache = AnalysisCache::new(with(Scheduler::SccWave, 2));
        cache.analyze(&program);

        let victim = program
            .iter()
            .flat_map(|(_, r)| {
                (0..r.len() as u32).map(move |i| (r.addr() + i, &r.insns()[i as usize]))
            })
            .filter(|(addr, insn)| {
                !insn.is_terminator() && !program.relocations().contains_key(addr)
            })
            .last()
            .map(|(addr, _)| addr);
        prop_assert!(victim.is_some(), "generated executables have deletable instructions");
        let (edited, changed) = Rewriter::new(&program)
            .delete(victim.unwrap())
            .finish()
            .expect("delete relinks");

        let incremental = cache.reanalyze(&edited, &changed);
        let scratch = analyze_with(&edited, &with(Scheduler::Fifo, 1));
        for (rid, r) in edited.iter() {
            prop_assert_eq!(
                incremental.summary.routine(rid),
                scratch.summary.routine(rid),
                "summary mismatch for {}",
                r.name()
            );
        }
        prop_assert_eq!(&incremental.psg, &scratch.psg);
        prop_assert_eq!(incremental.stats.memory_bytes, scratch.stats.memory_bytes);
    }
}
