//! Instruction-site sets as flat bitsets.
//!
//! [`SiteSet`] holds one bit per instruction of a module, indexed by
//! the instruction's position across all functions. It is what
//! [`crate::Vm::run_recording`] fills with every site a run fetched:
//! the race verifier keeps one per breakpoint-free run to tell whether
//! a later report's racing sites could ever have been reached.

use owl_ir::{InstRef, Module};
use std::sync::Arc;

/// A set of instruction sites of one module. The default value is
/// the empty set over a module with no instructions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteSet {
    /// Bit index of each function's first instruction, plus the total
    /// instruction count as the last entry (empty for the default
    /// value, which then contains nothing).
    offsets: Arc<[u32]>,
    words: Vec<u64>,
}

impl SiteSet {
    /// An empty set sized for `module`.
    pub(crate) fn new(module: &Module) -> Self {
        let mut offsets = Vec::with_capacity(module.funcs.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for f in &module.funcs {
            total += f.insts.len() as u32;
            offsets.push(total);
        }
        SiteSet {
            offsets: offsets.into(),
            words: vec![0; (total as usize).div_ceil(64)],
        }
    }

    /// The bit index of `site`, or `None` if the module has no such
    /// instruction.
    fn index(&self, site: InstRef) -> Option<usize> {
        let f = site.func.index();
        let start = *self.offsets.get(f)?;
        let end = *self.offsets.get(f + 1)?;
        let i = start.checked_add(u32::try_from(site.inst.index()).ok()?)?;
        (i < end).then_some(i as usize)
    }

    /// Adds `site`; a site outside the module is ignored.
    pub(crate) fn insert(&mut self, site: InstRef) {
        if let Some(i) = self.index(site) {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Whether `site` is in the set.
    pub fn contains(&self, site: InstRef) -> bool {
        self.index(site)
            .is_some_and(|i| self.words[i / 64] & (1 << (i % 64)) != 0)
    }

    /// Empties the set and lays it out for `module`, keeping the
    /// allocation when the layout already fits.
    pub(crate) fn reset(&mut self, module: &Module) {
        let fits = self.offsets.len() == module.funcs.len() + 1
            && module
                .funcs
                .iter()
                .zip(self.offsets.windows(2))
                .all(|(f, w)| (w[1] - w[0]) as usize == f.insts.len());
        if fits {
            self.words.fill(0);
        } else {
            *self = SiteSet::new(module);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{FuncId, InstId, ModuleBuilder};

    #[test]
    fn sites_are_indexed_across_functions() {
        let mut mb = ModuleBuilder::new("s");
        let a = mb.declare_func("a", 0);
        let b = mb.declare_func("b", 0);
        for f in [a, b] {
            let mut fb = mb.build_func(f);
            fb.input(0);
            fb.ret(None);
        }
        let m = mb.finish();
        let mut s = SiteSet::new(&m);
        s.insert(InstRef::new(b, InstId(1)));
        assert!(s.contains(InstRef::new(b, InstId(1))));
        assert!(!s.contains(InstRef::new(a, InstId(1))));
        assert!(!s.contains(InstRef::new(b, InstId(0))));
        // Out-of-module sites are never members, and inserting one is a
        // no-op rather than a write into a neighbour's bits.
        s.insert(InstRef::new(a, InstId(9)));
        s.insert(InstRef::new(FuncId(7), InstId(0)));
        assert!(!s.contains(InstRef::new(a, InstId(9))));
        assert!(!s.contains(InstRef::new(FuncId(7), InstId(0))));
        assert_eq!(s.words.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        s.reset(&m);
        assert_eq!(s, SiteSet::new(&m));
        let mut d = SiteSet::default();
        assert!(!d.contains(InstRef::new(a, InstId(0))));
        d.reset(&m);
        assert_eq!(d, SiteSet::new(&m));
    }
}
