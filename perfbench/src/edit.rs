//! Seeded program edits: delete one instruction in each of `k` routines.
//!
//! Routines and offsets are drawn uniformly from everything the
//! `Rewriter` can delete (terminators and relocated address constants
//! anchor control flow and cannot be deleted). No draw is rejected for
//! its effect: frame-setup deletions, which send the stack layer into
//! its slow case, stay in.

use spike_isa::{Instruction, Reg};
use spike_program::{Program, Rewriter, RoutineId};

/// SplitMix64: a small, fully specified generator, so one seed gives the
/// same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for a named sub-stream of `seed`.
    pub fn derive(seed: u64, stream: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// One edited variant of a base program, as image bytes.
pub struct Edit {
    pub bytes: Vec<u8>,
    /// Names of the edited routines, in draw order.
    pub routines: Vec<String>,
    /// Routines whose instruction words changed, as the `Rewriter`
    /// reports them (the edited ones plus any relinked caller).
    pub dirty: Vec<RoutineId>,
    /// How many of the deletions removed a frame-setup `lda sp,-n(sp)`.
    pub frame_setup: usize,
}

fn deletable(program: &Program, addr: u32) -> bool {
    program.insn_at(addr).is_some_and(|i| !i.is_terminator())
        && !program.relocations().contains_key(&addr)
}

fn is_frame_setup(insn: &Instruction) -> bool {
    matches!(*insn, Instruction::Lda { rd: Reg::SP, base: Reg::SP, disp } if disp < 0)
}

/// Deletes one uniformly drawn instruction in each of `k` distinct,
/// uniformly drawn routines of `base`.
pub fn edit(base: &Program, k: usize, rng: &mut Rng) -> Result<Edit, String> {
    let sites: Vec<Vec<u32>> = base
        .routines()
        .iter()
        .map(|r| (r.addr()..r.end_addr()).filter(|&a| deletable(base, a)).collect())
        .collect();
    let mut candidates: Vec<usize> = (0..sites.len()).filter(|&i| !sites[i].is_empty()).collect();
    if candidates.len() < k {
        return Err(format!("only {} routines have a deletable instruction", candidates.len()));
    }
    let mut rw = Rewriter::new(base);
    let mut routines = Vec::with_capacity(k);
    let mut frame_setup = 0;
    for i in 0..k {
        let j = i + rng.below(candidates.len() - i);
        candidates.swap(i, j);
        let r = candidates[i];
        let addr = sites[r][rng.below(sites[r].len())];
        if base.insn_at(addr).is_some_and(is_frame_setup) {
            frame_setup += 1;
        }
        rw.delete(addr);
        routines.push(base.routines()[r].name().to_string());
    }
    let (program, dirty) = rw.finish().map_err(|e| format!("edit failed: {e}"))?;
    Ok(Edit { bytes: program.to_image(), routines, dirty, frame_setup })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_are_seeded_and_delete_one_insn_per_routine() {
        let base = spike_synth::generate(&spike_synth::profile("li").unwrap(), 0.2, 3);
        let a = edit(&base, 4, &mut Rng::derive(7, "test")).unwrap();
        let b = edit(&base, 4, &mut Rng::derive(7, "test")).unwrap();
        assert_eq!(a.bytes, b.bytes);
        let edited = Program::from_image(&a.bytes).unwrap();
        assert_eq!(edited.total_instructions(), base.total_instructions() - 4);
        let mut names = a.routines.clone();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn below_is_in_range() {
        let mut r = Rng::derive(1, "test");
        assert!((0..1000).all(|_| r.below(3) < 3));
    }
}
