//! `spec-optimize`: the eight SPECint95 profiles at scale 1, each op
//! `Program::from_image` → `optimize_with(&OptOptions::default())` →
//! `to_image` — the optimizer path of the paper's Figure 1.

use std::time::Instant;

use spike_core::{analyze_stack, AnalysisCache, AnalysisOptions};
use spike_isa::{CloneExact, Instruction};
use spike_opt::{optimize_with, OptOptions};
use spike_program::{IndirectTargets, Program, Routine};
use spike_sim::{Machine, Outcome};

use crate::calib::{Meter, Segments};
use crate::edit::{edit, Rng};
use crate::layers::{decode, front_end, passes, traced_analyze, traced_passes};
use crate::metrics::{print_layer_table, reduce, write_ledger};
use crate::stats::median;
use crate::trace::Ledger;
use crate::{image_metrics, peak_rss_mb, repeated_setup, reset_peak_rss, Args, OpTimes, Report};

/// Set-up repetitions; `setup_s` is their median. One set-up takes about
/// 0.35 s.
const SETUP_REPS: usize = 7;

const IMAGES: [&str; 8] = ["compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"];

/// Simulator budget for the behaviour check and the dynamic-instruction
/// count, identical for the original and the optimized image.
const FUEL: u64 = 1_000_000;

/// How a simulated run ended.
#[derive(Clone, PartialEq, Eq, Debug)]
enum End {
    Halted,
    OutOfFuel,
    /// The fault's kind; addresses differ after relinking.
    Fault(String),
}

/// What a program emits under [`FUEL`] and how the run ended.
struct SimTrace {
    output: Vec<i64>,
    end: End,
}

fn end_of(outcome: Outcome) -> End {
    match outcome {
        Outcome::Halted { .. } => End::Halted,
        Outcome::OutOfFuel { .. } => End::OutOfFuel,
        // The fault's variant name, without its operands.
        other => {
            End::Fault(format!("{other:?}").split(['(', ' ', '{']).nth(1).unwrap_or("").to_string())
        }
    }
}

fn simulate(program: &Program) -> SimTrace {
    let mut m = Machine::new(program);
    let end = end_of(m.run(program, FUEL));
    SimTrace { output: m.output().to_vec(), end }
}

/// The original image's behaviour under [`FUEL`], as far as the image
/// defines it. The profiles' `switch`es and `jsr`s transfer control to
/// whatever value their base register holds, not to an entry of their
/// jump table or call-target list, and where such a value lands depends
/// on the code layout, which the optimizer changes by design. So the
/// reference ends where the original first takes an indirect jump or call
/// to an undeclared target: `output` is what it emitted before, and `end`
/// is `None`. A run that never does so is defined to its end.
struct Reference {
    output: Vec<i64>,
    end: Option<End>,
}

/// Whether the indirect transfer `insn` at `pc` may go to `target`: a
/// `jmp` to an entry of its jump table (any routine entrance if it has
/// none), a `jsr` to one of its known targets (any routine entrance if
/// they are unknown).
fn declared(program: &Program, pc: u32, insn: &Instruction, target: u32) -> bool {
    let entrance = program.entry_at(target).is_some();
    match insn {
        Instruction::Jmp { .. } => program.jump_table(pc).map_or(entrance, |t| t.contains(&target)),
        Instruction::Jsr { .. } => match program.indirect_call_targets(pc) {
            IndirectTargets::Known(list) => list.contains(&target),
            _ => entrance,
        },
        _ => true,
    }
}

fn reference(program: &Program) -> Result<Reference, String> {
    // A copy with `halt` in place of every `jmp` and `jsr` runs at full
    // speed to the next indirect transfer, where the original's target is
    // checked and the transfer itself taken on the original.
    let routines = program
        .routines()
        .iter()
        .map(|r| {
            let insns = r
                .insns()
                .iter()
                .map(|&i| match i {
                    Instruction::Jmp { .. } | Instruction::Jsr { .. } => Instruction::Halt,
                    other => other,
                })
                .collect();
            Routine::new(r.name(), r.addr(), insns, r.entry_offsets().to_vec(), r.exported())
        })
        .collect();
    let trapped = Program::new(
        routines,
        Default::default(),
        Default::default(),
        Default::default(),
        Default::default(),
        program.entry(),
    )
    .map_err(|e| e.to_string())?;
    let mut m = Machine::new(program);
    // Each trap counts one step the original does not take.
    let mut traps = 0;
    loop {
        let outcome = m.run(&trapped, FUEL - (m.steps() - traps));
        let pc = m.pc();
        let transfer = match (&outcome, program.insn_at(pc)) {
            (
                Outcome::Halted { .. },
                Some(&i @ (Instruction::Jmp { base } | Instruction::Jsr { base })),
            ) => Some((i, base)),
            _ => None,
        };
        let Some((insn, base)) = transfer else {
            return Ok(Reference { output: m.output().to_vec(), end: Some(end_of(outcome)) });
        };
        traps += 1;
        if !declared(program, pc, &insn, m.reg(base) as u32) {
            return Ok(Reference { output: m.output().to_vec(), end: None });
        }
        match m.run(program, 1) {
            Outcome::OutOfFuel { .. } => {}
            other => {
                return Ok(Reference { output: m.output().to_vec(), end: Some(end_of(other)) })
            }
        }
    }
}

/// Instructions `program` executes until it has emitted `k` values
/// (`k` must not exceed what it emits under [`FUEL`]). Runs in chunks and
/// replays the chunk that crosses `k` one instruction at a time.
fn steps_to_output(program: &Program, k: usize) -> u64 {
    const CHUNK: u64 = 4096;
    let mut m = Machine::new(program);
    while k > 0 && m.steps() < FUEL {
        let saved = m.clone();
        let outcome = m.run(program, CHUNK);
        if m.output().len() >= k {
            m = saved;
            while m.output().len() < k {
                m.run(program, 1);
            }
            break;
        }
        if !matches!(outcome, Outcome::OutOfFuel { .. }) {
            break;
        }
    }
    m.steps()
}

struct Input {
    name: &'static str,
    bytes: Vec<u8>,
    insns: usize,
    reference: Reference,
}

fn setup(seed: u64, segments: &mut Segments) -> Result<Vec<Input>, String> {
    IMAGES
        .iter()
        .map(|&name| {
            let profile = spike_synth::profile(name).ok_or(format!("no profile {name}"))?;
            let program = spike_synth::generate(&profile, 1.0, seed);
            let reference = reference(&program)?;
            let input = Input {
                name,
                bytes: program.to_image(),
                insns: program.total_instructions(),
                reference,
            };
            segments.split();
            Ok(input)
        })
        .collect()
}

/// One op: decode, optimize with the shipped defaults, encode. Returns
/// the optimized image and the seconds spent decoding and encoding (the
/// op's read side).
fn op(bytes: &[u8]) -> Result<(Vec<u8>, f64), String> {
    let t = Instant::now();
    let program = Program::from_image(bytes).map_err(|e| e.to_string())?;
    let decoded = t.elapsed();
    let (optimized, _) =
        optimize_with(&program, &OptOptions::default()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let image = optimized.to_image();
    Ok((image, (decoded + t.elapsed()).as_secs_f64()))
}

/// The same op with a span around each layer call, plus direct calls
/// into the layers `optimize_with` runs internally.
fn traced_op(ledger: &mut Ledger, input: &Input, seed: u64) -> Result<(), String> {
    let root = ledger.begin_op("op");
    let program = decode(ledger, &input.bytes)?;
    front_end(ledger, &program);

    let options = AnalysisOptions::default();
    let analysis = traced_analyze(ledger, &program, &options);
    ledger.span("stack.analyze", || analyze_stack(&program, &analysis.cfg));

    // Incremental re-analysis after a seeded one-routine edit.
    let mut rng = Rng::derive(seed, input.name);
    let e = edit(&program, 1, &mut rng)?;
    let mut cache = AnalysisCache::from_analysis(options.clone(), analysis.clone_exact());
    let edited = Program::from_image(&e.bytes).map_err(|e| e.to_string())?;
    let re = ledger.span("core.reanalyze", || cache.reanalyze(&edited, &e.dirty).stats);
    ledger.count("reanalyze.reused", re.routines_reused as f64);
    ledger.count("reanalyze.rebuilt", re.routines_reanalyzed as f64);
    drop(cache);

    let only = |f: fn(&mut OptOptions)| {
        let mut o = OptOptions {
            dead_code: false,
            spills: false,
            realloc: false,
            stack: false,
            licm: false,
            ..OptOptions::default()
        };
        f(&mut o);
        o
    };
    let one_pass: [(&'static str, OptOptions); 5] = [
        ("opt.licm", only(|o| o.licm = true)),
        ("opt.spills", only(|o| o.spills = true)),
        ("opt.realloc", only(|o| o.realloc = true)),
        ("opt.stack_dse", only(|o| o.stack = true)),
        ("opt.dead", only(|o| o.dead_code = true)),
    ];
    for (name, opts) in &one_pass {
        ledger.span(name, || optimize_with(&program, opts)).map_err(|e| e.to_string())?;
    }
    let (optimized, report) = ledger
        .span("opt.optimize", || optimize_with(&program, &OptOptions::default()))
        .map_err(|e| e.to_string())?;
    ledger.count("opt.insns_removed", report.removed() as f64);
    let _image = ledger.span("program.encode", || optimized.to_image());
    ledger.close(root);
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (inputs, setup_s) = repeated_setup(SETUP_REPS, |segments| setup(args.seed, segments))?;
    reset_peak_rss();

    // Untraced passes: every op timed; outputs of the first pass kept,
    // later passes must reproduce them byte for byte.
    let mut outputs: Vec<Option<Vec<u8>>> = Vec::new();
    let mut op_ms = vec![OpTimes::default(); inputs.len()];
    let mut meter = Meter::new();
    let walls = passes(args.seconds, || {
        for (i, input) in inputs.iter().enumerate() {
            let (result, t) = meter.time(|| op(&input.bytes));
            let (result, read_s) = match result {
                Ok((image, read_s)) => (Ok(image), read_s),
                Err(e) => (Err(e), 0.0),
            };
            op_ms[i].push(t, read_s);
            report.check(result.is_ok(), || format!("{}: {:?}", input.name, result.as_ref().err()));
            match (result.ok(), outputs.get(i)) {
                (out, None) => outputs.push(out),
                (again, Some(first)) => {
                    let same = again.is_some() && again == *first;
                    report.check(same, || format!("{}: output differs between passes", input.name));
                }
            }
        }
        Ok(())
    })?;
    let peak = peak_rss_mb();

    println!(
        "{:<9} {:>8} {:>8} {:>9} {:>10} {:>12} {:>12} {:>6}",
        "image", "insns", "out", "op ms", "sim end", "dyn orig", "dyn opt", "check"
    );
    let (mut insns_in, mut insns_out, mut dyn_orig, mut dyn_opt) = (0usize, 0usize, 0u64, 0u64);
    for (i, input) in inputs.iter().enumerate() {
        let Some(bytes) = &outputs[i] else { continue };
        let optimized = match Program::from_image(bytes) {
            Ok(p) => p,
            Err(e) => {
                report.check(false, || {
                    format!("{}: optimized image does not decode: {e}", input.name)
                });
                continue;
            }
        };
        let got = simulate(&optimized);
        let want = &input.reference;
        let k = got.output.len().min(want.output.len());
        let prefix = got.output[..k] == want.output[..k];
        let complete = got.output.len() >= want.output.len();
        let same_end = match (&want.end, &got.end) {
            // The optimized run must get as far as the original's defined
            // behaviour; what it does after that is unspecified.
            (None, _) => complete,
            (Some(End::OutOfFuel), _) | (_, End::OutOfFuel) => {
                // Only a run that stopped for lack of fuel may have
                // emitted less; otherwise the outputs must be equal.
                want.end.as_ref() == Some(&got.end) || complete
            }
            (Some(a), b) => a == b && got.output.len() == want.output.len(),
        };
        let ok = prefix && same_end;
        report.check(ok, || {
            format!(
                "{}: optimized run {:?} after {} values vs original {:?} after {}",
                input.name,
                got.end,
                got.output.len(),
                want.end,
                want.output.len()
            )
        });
        let (mut d_orig, mut d_opt) = (0, 0);
        if k > 0 {
            let original = Program::from_image(&input.bytes).expect("generated images decode");
            d_orig = steps_to_output(&original, k);
            d_opt = steps_to_output(&optimized, k);
            dyn_orig += d_orig;
            dyn_opt += d_opt;
        }
        insns_in += input.insns;
        insns_out += optimized.total_instructions();
        let end = match &want.end {
            None => "undeclared".to_string(),
            Some(End::Fault(kind)) => format!("fault:{kind}"),
            Some(e) => format!("{e:?}").to_lowercase(),
        };
        println!(
            "{:<9} {:>8} {:>8} {:>9.1} {:>10} {:>12} {:>12} {:>6}",
            input.name,
            input.insns,
            optimized.total_instructions(),
            median(&op_ms[i].norm),
            end,
            d_orig,
            d_opt,
            if ok { "ok" } else { "FAIL" }
        );
    }
    report.metric("setup_s", setup_s, "s");
    let (wall, raw_wall) = image_metrics(&mut report, &op_ms);
    println!(
        "total     {insns_in:>8} {insns_out:>8} {:>9.1} ({} pass(es))",
        wall * 1e3,
        walls.len()
    );
    report.metric("peak_rss_mb", peak, "MB");
    report.metric("code_size_ratio", insns_out as f64 / insns_in.max(1) as f64, "ratio");
    report.metric("dyn_insn_ratio", dyn_opt as f64 / dyn_orig.max(1) as f64, "ratio");

    if args.trace {
        let mut ledger = Ledger::new();
        traced_passes(args.seconds, &mut ledger, |ledger| {
            inputs.iter().try_for_each(|input| traced_op(ledger, input, args.seed))
        })?;
        let reused = ledger.counter(0, "reanalyze.reused").unwrap_or(0.0);
        let rebuilt = ledger.counter(0, "reanalyze.rebuilt").unwrap_or(0.0);
        report.layer.insert("core.reuse_ratio", reused / (reused + rebuilt).max(1.0));
        reduce(&ledger, &mut report, raw_wall, median(&ledger.total_by_name("op")));
        print_layer_table(&ledger);
        write_ledger(args, &ledger)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    /// `main` emits 1, takes a declared `switch` and a declared `jsr`,
    /// emits 2, then jumps through a value its jump table does not list.
    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::V0, Reg::ZERO, 1)
            .put_int()
            .lda_label(Reg::T0, "a")
            .switch(Reg::T0, &["a"])
            .label("a")
            .lda_routine(Reg::PV, "f")
            .jsr_known(Reg::PV, &["f"])
            .lda(Reg::V0, Reg::ZERO, 2)
            .put_int()
            .lda(Reg::T0, Reg::ZERO, 3)
            .switch(Reg::T0, &["b"])
            .label("b")
            .put_int()
            .halt();
        b.routine("f").ret();
        b.set_entry("main");
        b.build().unwrap()
    }

    #[test]
    fn reference_ends_at_the_first_undeclared_transfer() {
        let r = reference(&program()).unwrap();
        assert_eq!(r.output, vec![1, 2]);
        assert_eq!(r.end, None);
    }

    #[test]
    fn reference_of_a_declared_run_is_the_whole_run() {
        let p = spike_synth::generate(&spike_synth::profile("li").unwrap(), 0.05, 3);
        let whole = simulate(&p);
        let r = reference(&p).unwrap();
        assert!(whole.output.starts_with(&r.output));
        if let Some(end) = r.end {
            assert_eq!((end, r.output), (whole.end, whole.output));
        }
    }
}
