//! # owl-corpus
//!
//! IR models of the concurrency attacks studied in *"Understanding and
//! Detecting Concurrency Attacks"* (DSN 2018), embedded in realistic
//! benign-race noise, with workloads, exploit inputs, and ground-truth
//! attack oracles.
//!
//! The paper evaluated OWL on six programs (Apache, Chrome, Libsafe,
//! Linux, MySQL, SSDB) plus a memcached noise baseline. Each module
//! here reproduces the program's attack logic line-for-line from the
//! paper's figures — the Libsafe `dying` flag (Fig. 1), the
//! uselib/msync `f_op` race (Fig. 2), the SSDB binlog shutdown UAF
//! (Fig. 6), the Apache log-buffer overflow (Fig. 7) and busy-counter
//! underflow (Fig. 8), and the MySQL FLUSH PRIVILEGES / SET PASSWORD
//! races — surrounded by the kinds of benign traffic that made the
//! real detectors flood (racy statistics counters, input-gated racy
//! paths, adhoc busy-wait synchronization).
//!
//! ## Example
//!
//! ```
//! use owl_corpus::{all_programs, lookup, program};
//!
//! let libsafe = program("libsafe").expect("corpus program");
//! assert_eq!(libsafe.attacks.len(), 1);
//! assert_eq!(lookup("heap-relay").map(|e| e.name), Some("HeapRelay"));
//! assert_eq!(all_programs().len(), 7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod apache;
mod chrome;
pub mod extensions;
mod libsafe;
mod linux;
mod memcached;
mod mysql;
pub mod noise;
mod spec;
mod ssdb;

pub use spec::{AttackOracle, AttackSpec, CorpusProgram};

/// One program a name resolves to.
#[derive(Debug)]
pub struct ProgramEntry {
    /// Display name: the model's [`CorpusProgram::name`], which results
    /// and result-store fingerprints carry.
    pub name: &'static str,
    /// Spellings accepted besides the name; matching ignores ASCII case.
    aliases: &'static [&'static str],
    /// `None` for the paper's programs; an extension's `list` line.
    pub extension: Option<&'static str>,
    build: fn() -> CorpusProgram,
}

impl ProgramEntry {
    /// Builds this program's model.
    pub fn build(&self) -> CorpusProgram {
        (self.build)()
    }
}

/// Every named program in `owl-cli list` order: the six studied
/// programs and the memcached noise baseline of Table 3, then the
/// extensions. [`extensions::kernel_double_fetch`] stays unnamed.
#[rustfmt::skip]
pub static PROGRAMS: [ProgramEntry; 10] = [
    ProgramEntry { name: "Apache", aliases: &[], extension: None, build: apache::build },
    ProgramEntry { name: "Chrome", aliases: &[], extension: None, build: chrome::build },
    ProgramEntry { name: "Libsafe", aliases: &[], extension: None, build: libsafe::build },
    ProgramEntry { name: "Linux", aliases: &[], extension: None, build: linux::build },
    ProgramEntry { name: "Memcached", aliases: &[], extension: None, build: memcached::build },
    ProgramEntry { name: "MySQL", aliases: &[], extension: None, build: mysql::build },
    ProgramEntry { name: "SSDB", aliases: &[], extension: None, build: ssdb::build },
    ProgramEntry { name: "Bank", aliases: &[], build: extensions::bank_atomicity,
        extension: Some("atomicity-violation demo") },
    ProgramEntry { name: "HeapRelay", aliases: &["heap-relay"], build: extensions::heap_relay,
        extension: Some("corruption relayed through a heap buffer") },
    ProgramEntry { name: "CacheRelay", aliases: &["cache-relay"], build: extensions::cache_relay,
        extension: Some("corrupted pointer through a global cache") },
];

/// The entry a name or alias (any ASCII case) resolves to; builds nothing.
pub fn lookup(name: &str) -> Option<&'static ProgramEntry> {
    let accepts = |n: &&str| n.eq_ignore_ascii_case(name);
    PROGRAMS
        .iter()
        .find(|e| accepts(&e.name) || e.aliases.iter().any(accepts))
}

/// Builds the program a name resolves to ([`lookup`]).
pub fn program(name: &str) -> Option<CorpusProgram> {
    lookup(name).map(ProgramEntry::build)
}

/// Builds the paper's programs, in [`PROGRAMS`] order.
pub fn all_programs() -> Vec<CorpusProgram> {
    let paper = PROGRAMS.iter().filter(|e| e.extension.is_none());
    paper.map(ProgramEntry::build).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::verify_module;

    #[test]
    fn all_programs_verify() {
        for p in all_programs() {
            verify_module(&p.module)
                .unwrap_or_else(|e| panic!("{} failed verification: {e:?}", p.name));
            assert!(!p.workloads.is_empty(), "{} needs a workload", p.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(program("Libsafe").is_some());
        assert_eq!(program("ssdb").map(|p| p.name), Some("SSDB"));
        assert_eq!(program("BANK").map(|p| p.name), Some("Bank"));
        assert_eq!(program("Cache-Relay").map(|p| p.name), Some("CacheRelay"));
        assert!(program("nope").is_none());
        assert!(program("DoubleFetch").is_none());
    }

    #[test]
    fn every_entry_builds_its_own_name() {
        for e in &PROGRAMS {
            assert_eq!(e.build().name, e.name);
            assert!(
                std::ptr::eq(lookup(e.name).unwrap(), e),
                "{} is shadowed",
                e.name
            );
            for alias in e.aliases {
                assert!(
                    std::ptr::eq(lookup(alias).unwrap(), e),
                    "{alias} is shadowed"
                );
            }
        }
        let names: Vec<_> = all_programs().iter().map(|p| p.name).collect();
        let paper = [
            "Apache",
            "Chrome",
            "Libsafe",
            "Linux",
            "Memcached",
            "MySQL",
            "SSDB",
        ];
        assert_eq!(names, paper, "all_programs() keeps its names and order");
    }

    #[test]
    fn ten_attacks_total() {
        let n: usize = all_programs().iter().map(|p| p.attacks.len()).sum();
        assert_eq!(n, 10, "the evaluation reproduces 10 attacks (Table 2)");
    }

    #[test]
    fn corpus_round_trips_through_text() {
        // Every corpus program survives print → parse → print (covering
        // essentially the whole instruction set), and the parsed module
        // behaves identically in the VM.
        use owl_ir::{module_to_string, parse_module};
        use owl_vm::{ProgramInput, RoundRobin, Vm};
        for p in all_programs()
            .into_iter()
            .chain([extensions::bank_atomicity()])
        {
            let printed = module_to_string(&p.module);
            let parsed = parse_module(&printed)
                .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", p.name));
            verify_module(&parsed).unwrap_or_else(|e| panic!("{}: {e:?}", p.name));
            // Parsing renumbers instructions densely in textual order,
            // so the fixed point is reached after one normalization.
            let normalized = module_to_string(&parsed);
            let reparsed = parse_module(&normalized)
                .unwrap_or_else(|e| panic!("{}: re-reparse failed: {e}", p.name));
            assert_eq!(
                module_to_string(&reparsed),
                normalized,
                "{}: printing must be a fixed point after normalization",
                p.name
            );
            // Behavioural equivalence under a deterministic schedule.
            let entry = parsed.func_by_name("main").expect("main exists");
            let input = p
                .workloads
                .first()
                .cloned()
                .unwrap_or_else(ProgramInput::empty);
            let mut s1 = RoundRobin::new(3);
            let o1 = Vm::run_quiet(&p.module, p.entry, input.clone(), &mut s1);
            let mut s2 = RoundRobin::new(3);
            let o2 = Vm::run_quiet(&parsed, entry, input, &mut s2);
            assert_eq!(o1.outputs, o2.outputs, "{}", p.name);
            assert_eq!(o1.steps, o2.steps, "{}", p.name);
        }
    }
}
