//! Corpus extensions beyond the paper's evaluated programs.
//!
//! The paper's §8.3 notes that "there are other types of concurrency
//! bugs that can also lead to concurrency attacks, including atomicity
//! violations... By integrating these detectors (future work), OWL's
//! analysis and verifier components can detect more concurrency
//! attacks." These programs exercise that integration; they are *not*
//! part of [`crate::all_programs`] so the paper-table reproductions
//! stay faithful.

use crate::noise::{attach_noise, NoiseSpec};
use crate::spec::{AttackSpec, CorpusProgram};
use owl_ir::{assert_verified, ModuleBuilder, Operand, Pred, Type, VulnClass};
use owl_vm::{ExecOutcome, ProgramInput, SecurityEvent};

/// File descriptor of the cash dispenser.
pub const VAULT_FD: i64 = 9;
/// Initial account balance.
pub const INITIAL_BALANCE: i64 = 100;

fn overdraft_oracle(o: &ExecOutcome) -> bool {
    // More cash dispensed than the account ever held.
    let dispensed: i64 = o
        .security
        .iter()
        .filter_map(|s| match s.event {
            SecurityEvent::FileWrite { fd, data } if fd == VAULT_FD => Some(data),
            _ => None,
        })
        .sum();
    dispensed > INITIAL_BALANCE
}

/// A bank whose withdraw path locks each *individual* balance access
/// but not the check-then-act sequence: no data race exists, yet two
/// concurrent withdrawals can overdraw the account — an atomicity
/// violation turned into an attack (the attacker gets more cash than
/// the balance).
///
/// Input words:
/// * `0` — first withdrawal amount
/// * `1` — second withdrawal amount
/// * `2`/`3` — delays between check and act for the two sessions
/// * `15` — noise gate
pub fn bank_atomicity() -> CorpusProgram {
    let mut mb = ModuleBuilder::new("bank");
    let balance = mb.global_init("balance", 1, vec![INITIAL_BALANCE], Type::I64);
    let lock = mb.global("account_lock", 1, Type::I64);

    let noise = attach_noise(
        &mut mb,
        "bank/noise.c",
        &NoiseSpec {
            always_counters: 1,
            gated_counters: 2,
            adhoc_syncs: 0,
            locked_counters: 1,
            gate_input: 15,
        },
    );

    let withdraw_a = mb.declare_func("withdraw_session_a", 1);
    let withdraw_b = mb.declare_func("withdraw_session_b", 1);
    let main = mb.declare_func("main", 0);

    for (f, amt_idx, delay_idx, line) in [(withdraw_a, 0i64, 2i64, 100u32), (withdraw_b, 1, 3, 200)]
    {
        let mut b = mb.build_func(f);
        b.loc("bank/teller.c", line);
        let amt = b.input(amt_idx);
        let la = b.global_addr(lock);
        let ba = b.global_addr(balance);
        // Locked check...
        b.lock(la);
        b.line(line + 4);
        let v = b.load(ba, Type::I64);
        b.unlock(la);
        let ok = b.cmp(Pred::Ge, v, amt);
        let go = b.block();
        let out = b.block();
        b.br(ok, go, out);
        b.switch_to(go);
        // ...window between check and act...
        let d = b.input(delay_idx);
        b.io_delay(d);
        // ...locked act.
        b.lock(la);
        b.line(line + 11);
        let v2 = b.load(ba, Type::I64);
        let v3 = b.sub(v2, amt);
        b.store(ba, v3);
        b.unlock(la);
        b.line(line + 14);
        b.file_access(VAULT_FD, amt); // dispense the cash
        b.jmp(out);
        b.switch_to(out);
        b.ret(None);
    }
    {
        let mut b = mb.build_func(main);
        b.loc("bank/main.c", 1);
        let mut tids = Vec::new();
        for &nf in &noise.threads {
            tids.push(b.thread_create(nf, 0));
        }
        tids.push(b.thread_create(withdraw_a, 0));
        tids.push(b.thread_create(withdraw_b, 0));
        for t in tids {
            b.thread_join(t);
        }
        let ba = b.global_addr(balance);
        let v = b.load(ba, Type::I64);
        b.output(80, v); // final balance (negative after the attack)
        b.ret(None);
    }

    let module = mb.finish();
    assert_verified(&module);

    CorpusProgram {
        name: "Bank",
        module,
        entry: main,
        workloads: vec![
            // Tellers do IO between check and act even in normal
            // traffic; the window exists, the amounts just don't
            // overdraw dramatically without pairing.
            ProgramInput::new(vec![80, 80, 30, 30]).with_label("teller traffic"),
        ],
        exploit_inputs: vec![
            ProgramInput::new(vec![80, 80, 150, 150]).with_label("paired withdrawals")
        ],
        attacks: vec![AttackSpec {
            id: "bank-overdraft",
            version: "bank-model",
            vuln_type: "Overdraft (atomicity violation)",
            subtle_inputs: "Paired withdrawals",
            advisory: None,
            known: true,
            race_global: "balance",
            expected_class: VulnClass::FileOp,
            expected_dep: Some("CTRL_DEP"),
            oracle: overdraft_oracle,
        }],
    }
}

/// Marker for the kernel double-fetch payload.
pub const DF_PAYLOAD: i64 = 4242;

fn double_fetch_oracle(o: &ExecOutcome) -> bool {
    o.any_violation(|v| {
        matches!(
            v,
            owl_vm::Violation::BufferOverflow { .. } | owl_vm::Violation::CorruptFuncPtr { .. }
        )
    })
}

/// A kernel-style **double fetch** (the Bochspwn bug class): a syscall
/// handler validates a user-controlled length, then *re-reads* it from
/// user memory before using it — and user space can flip the value
/// between the two fetches. Strictly speaking this is a data race
/// between kernel and user threads, but the interesting propagation is
/// the time-of-check-to-time-of-use gap between the two loads of the
/// same address, which Algorithm 1 reaches through the second fetch.
///
/// Input words:
/// * `0` — initial (validated) length
/// * `1` — flipped length
/// * `2` — flip delay
/// * `3` — handler IO delay between the fetches
/// * `15` — noise gate
pub fn kernel_double_fetch() -> CorpusProgram {
    let mut mb = ModuleBuilder::new("double-fetch");
    // User-controlled request page, then the kernel buffer and an
    // adjacent function pointer the overflow clobbers.
    let user_len = mb.global("user_len", 1, Type::I64);
    let kbuf = mb.global("kbuf", 4, Type::I64);
    let kfunc = mb.global("kfunc", 1, Type::FuncPtr);
    let user_data = mb.global_init("user_data", 8, vec![DF_PAYLOAD; 8], Type::I64);

    let noise = attach_noise(
        &mut mb,
        "kernel/df_noise.c",
        &NoiseSpec {
            always_counters: 1,
            gated_counters: 2,
            adhoc_syncs: 0,
            locked_counters: 1,
            gate_input: 15,
        },
    );

    let kfunc_impl = mb.declare_func("kfunc_impl", 1);
    let handler = mb.declare_func("sys_ioctl_handler", 1);
    let flipper = mb.declare_func("user_flipper", 1);
    let main = mb.declare_func("main", 0);

    {
        let mut b = mb.build_func(kfunc_impl);
        b.output(90, 1);
        b.ret(None);
    }
    {
        // if (fetch1 <= 4) { ...IO... copy(kbuf, user, fetch2) }
        let mut b = mb.build_func(handler);
        b.loc("kernel/ioctl.c", 50);
        let ua = b.global_addr(user_len);
        let len1 = b.load(ua, Type::I64); // fetch 1: the check
        let ok = b.cmp(Pred::Le, len1, 4);
        let go = b.block();
        let out = b.block();
        b.br(ok, go, out);
        b.switch_to(go);
        let d = b.input(3);
        b.io_delay(d);
        b.line(57);
        let len2 = b.load(ua, Type::I64); // fetch 2: the use
        let ka = b.global_addr(kbuf);
        let uda = b.global_addr(user_data);
        b.line(58);
        b.memcopy(ka, uda, len2); // overflow when len2 > 4
                                  // Kernel then calls through the adjacent pointer.
        let kfa = b.global_addr(kfunc);
        let f = b.load(kfa, Type::FuncPtr);
        b.call_indirect(f, vec![owl_ir::Operand::Const(0)]);
        b.jmp(out);
        b.switch_to(out);
        b.ret(None);
    }
    {
        let mut b = mb.build_func(flipper);
        b.loc("user/flipper.c", 10);
        let d = b.input(2);
        b.io_delay(d);
        let flipped = b.input(1);
        let ua = b.global_addr(user_len);
        b.line(13);
        b.store(ua, flipped);
        b.ret(None);
    }
    {
        let mut b = mb.build_func(main);
        let f = b.func_addr(kfunc_impl);
        let kfa = b.global_addr(kfunc);
        b.store(kfa, f);
        let init = b.input(0);
        let ua = b.global_addr(user_len);
        b.store(ua, init);
        let mut tids = Vec::new();
        for &nf in &noise.threads {
            tids.push(b.thread_create(nf, 0));
        }
        tids.push(b.thread_create(handler, 0));
        tids.push(b.thread_create(flipper, 0));
        for t in tids {
            b.thread_join(t);
        }
        b.ret(None);
    }

    let module = mb.finish();
    assert_verified(&module);

    CorpusProgram {
        name: "DoubleFetch",
        module,
        entry: main,
        workloads: vec![ProgramInput::new(vec![2, 2, 10, 10]).with_label("ioctl traffic")],
        exploit_inputs: vec![
            ProgramInput::new(vec![2, 8, 60, 120]).with_label("flipped length between fetches")
        ],
        attacks: vec![AttackSpec {
            id: "kernel-double-fetch",
            version: "double-fetch model",
            vuln_type: "Buffer Overflow (double fetch)",
            subtle_inputs: "Flipped length between fetches",
            advisory: None,
            known: true,
            race_global: "user_len",
            expected_class: VulnClass::MemoryOp,
            expected_dep: Some("DATA_DEP"),
            oracle: double_fetch_oracle,
        }],
    }
}

/// Marker for the heap-relay request payload.
pub const HR_PAYLOAD: i64 = 7117;

fn heap_relay_oracle(o: &ExecOutcome) -> bool {
    o.any_violation(|v| matches!(v, owl_vm::Violation::BufferOverflow { .. }))
}

/// Corruption **relayed through a heap buffer**: a request handler
/// reads a racy length field and *stages* it into a heap-allocated
/// request object; a separate processing routine later re-reads the
/// staged length from the heap and drives a `memcopy` with it. The
/// corruption crosses two function boundaries **through memory**, not
/// through SSA registers or arguments — the paper's register-only
/// Algorithm 1 loses it at the store, while the points-to extension
/// taints the heap cell and picks the corruption back up at the relay
/// load (ablation A7's headline case).
///
/// Input words:
/// * `0` — initial request length
/// * `1` — flipped (attack) length
/// * `2` — flipper delay
/// * `3` — handler delay before reading the length
/// * `15` — noise gate
pub fn heap_relay() -> CorpusProgram {
    let mut mb = ModuleBuilder::new("heap-relay");
    let attack_len = mb.global("attack_len", 1, Type::I64);
    let req_ptr = mb.global("req_ptr", 1, Type::Ptr);
    let kbuf = mb.global("hr_kbuf", 4, Type::I64);
    let user_data = mb.global_init("hr_user_data", 8, vec![HR_PAYLOAD; 8], Type::I64);

    let noise = attach_noise(
        &mut mb,
        "server/hr_noise.c",
        &NoiseSpec {
            always_counters: 1,
            gated_counters: 2,
            adhoc_syncs: 0,
            locked_counters: 1,
            gate_input: 15,
        },
    );

    let stage = mb.declare_func("stage_request", 1);
    let process = mb.declare_func("process_request", 0);
    let handler = mb.declare_func("request_handler", 1);
    let flipper = mb.declare_func("len_flipper", 1);
    let main = mb.declare_func("main", 0);

    {
        // Stash the (racy) length into the heap request object.
        let mut b = mb.build_func(stage);
        b.loc("server/stage.c", 20);
        let rpa = b.global_addr(req_ptr);
        let req = b.load(rpa, Type::Ptr);
        b.line(23);
        b.store(req, Operand::Param(0));
        b.ret(None);
    }
    {
        // Re-read the staged length from the heap and copy with it.
        let mut b = mb.build_func(process);
        b.loc("server/process.c", 40);
        let rpa = b.global_addr(req_ptr);
        let req = b.load(rpa, Type::Ptr);
        let len = b.load(req, Type::I64); // the relay load
        let ka = b.global_addr(kbuf);
        let uda = b.global_addr(user_data);
        b.line(45);
        b.memcopy(ka, uda, len); // overflow when len > 4
        b.ret(None);
    }
    {
        let mut b = mb.build_func(handler);
        b.loc("server/handler.c", 60);
        let d = b.input(3);
        b.io_delay(d);
        let la = b.global_addr(attack_len);
        b.line(63);
        let len = b.load(la, Type::I64); // the racy load
        b.call(stage, vec![Operand::Value(len)]);
        b.call(process, vec![]);
        b.ret(None);
    }
    {
        let mut b = mb.build_func(flipper);
        b.loc("attacker/flipper.c", 10);
        let d = b.input(2);
        b.io_delay(d);
        let flipped = b.input(1);
        let la = b.global_addr(attack_len);
        b.line(13);
        b.store(la, flipped);
        b.ret(None);
    }
    {
        let mut b = mb.build_func(main);
        let req = b.malloc(1);
        let rpa = b.global_addr(req_ptr);
        b.store(rpa, req);
        let init = b.input(0);
        let la = b.global_addr(attack_len);
        b.store(la, init);
        let mut tids = Vec::new();
        for &nf in &noise.threads {
            tids.push(b.thread_create(nf, 0));
        }
        tids.push(b.thread_create(handler, 0));
        tids.push(b.thread_create(flipper, 0));
        for t in tids {
            b.thread_join(t);
        }
        b.ret(None);
    }

    let module = mb.finish();
    assert_verified(&module);

    CorpusProgram {
        name: "HeapRelay",
        module,
        entry: main,
        workloads: vec![ProgramInput::new(vec![2, 2, 10, 10]).with_label("request traffic")],
        exploit_inputs: vec![
            ProgramInput::new(vec![2, 8, 30, 90]).with_label("length flipped before staging")
        ],
        attacks: vec![AttackSpec {
            id: "heap-relay-overflow",
            version: "heap-relay model",
            vuln_type: "Buffer Overflow (heap relay)",
            subtle_inputs: "Length flipped before staging",
            advisory: None,
            known: true,
            race_global: "attack_len",
            expected_class: VulnClass::MemoryOp,
            expected_dep: Some("DATA_DEP"),
            oracle: heap_relay_oracle,
        }],
    }
}

fn cache_relay_oracle(o: &ExecOutcome) -> bool {
    o.any_violation(|v| {
        matches!(
            v,
            owl_vm::Violation::NullFuncPtr | owl_vm::Violation::CorruptFuncPtr { .. }
        )
    })
}

/// A MySQL-style **corrupted pointer through a cache**: an invalidator
/// thread briefly nulls a shared function-pointer cache while a refresh
/// thread copies the cache into a lock-protected stash; a dispatcher
/// later fetches the stashed pointer through `fetch_cached()` and calls
/// through it. Reaching the indirect call needs *both* extensions: the
/// points-to taint survives the store/load round trip through `stash`,
/// and — because the relay load corrupts `fetch_cached`'s **return
/// value** with no dynamic stack to follow — the summary-mode caller
/// walk must ascend into the dispatcher (ablation A8's headline case).
/// Only the `cache` accesses race; the stash is properly locked.
///
/// Input words:
/// * `0` — invalidation delay
/// * `1` — invalidation window (delay before the refill)
/// * `2` — refresh delay
/// * `3` — dispatch delay
/// * `15` — noise gate
pub fn cache_relay() -> CorpusProgram {
    let mut mb = ModuleBuilder::new("cache-relay");
    let cache = mb.global("cache", 1, Type::FuncPtr);
    let stash = mb.global("stash", 1, Type::FuncPtr);
    let stash_lock = mb.global("stash_lock", 1, Type::I64);

    let noise = attach_noise(
        &mut mb,
        "server/cr_noise.c",
        &NoiseSpec {
            always_counters: 1,
            gated_counters: 2,
            adhoc_syncs: 0,
            locked_counters: 1,
            gate_input: 15,
        },
    );

    let benign = mb.declare_func("benign_handler", 1);
    let fetch_cached = mb.declare_func("fetch_cached", 0);
    let refresh = mb.declare_func("cache_refresh", 1);
    let dispatch = mb.declare_func("dispatcher", 1);
    let invalidator = mb.declare_func("cache_invalidator", 1);
    let main = mb.declare_func("main", 0);

    {
        let mut b = mb.build_func(benign);
        b.output(91, 1);
        b.ret(None);
    }
    {
        // Locked read of the stash, returned to the caller.
        let mut b = mb.build_func(fetch_cached);
        b.loc("server/fetch.c", 30);
        let la = b.global_addr(stash_lock);
        b.lock(la);
        let sa = b.global_addr(stash);
        b.line(33);
        let v = b.load(sa, Type::FuncPtr); // the relay load
        b.unlock(la);
        b.ret(Some(Operand::Value(v)));
    }
    {
        // Racy read of the cache, staged into the locked stash.
        let mut b = mb.build_func(refresh);
        b.loc("server/refresh.c", 50);
        let d = b.input(2);
        b.io_delay(d);
        let ca = b.global_addr(cache);
        b.line(53);
        let v = b.load(ca, Type::FuncPtr); // the racy load
        let la = b.global_addr(stash_lock);
        b.lock(la);
        let sa = b.global_addr(stash);
        b.line(57);
        b.store(sa, v);
        b.unlock(la);
        b.ret(None);
    }
    {
        let mut b = mb.build_func(dispatch);
        b.loc("server/dispatch.c", 70);
        let d = b.input(3);
        b.io_delay(d);
        let p = b.call(fetch_cached, vec![]);
        b.line(73);
        b.call_indirect(p, vec![Operand::Const(0)]);
        b.ret(None);
    }
    {
        // Null the cache, then refill after a window.
        let mut b = mb.build_func(invalidator);
        b.loc("server/invalidate.c", 90);
        let d = b.input(0);
        b.io_delay(d);
        let ca = b.global_addr(cache);
        b.line(93);
        b.store(ca, 0);
        let w = b.input(1);
        b.io_delay(w);
        let f = b.func_addr(benign);
        b.line(97);
        b.store(ca, f);
        b.ret(None);
    }
    {
        let mut b = mb.build_func(main);
        let f = b.func_addr(benign);
        let ca = b.global_addr(cache);
        b.store(ca, f);
        let sa = b.global_addr(stash);
        b.store(sa, f);
        let mut tids = Vec::new();
        for &nf in &noise.threads {
            tids.push(b.thread_create(nf, 0));
        }
        tids.push(b.thread_create(refresh, 0));
        tids.push(b.thread_create(dispatch, 0));
        tids.push(b.thread_create(invalidator, 0));
        for t in tids {
            b.thread_join(t);
        }
        b.ret(None);
    }

    let module = mb.finish();
    assert_verified(&module);

    CorpusProgram {
        name: "CacheRelay",
        module,
        entry: main,
        workloads: vec![
            // Invalidation happens well after the refresh has copied a
            // valid pointer: benign traffic never dispatches NULL.
            ProgramInput::new(vec![120, 1, 10, 40]).with_label("dispatch traffic"),
        ],
        exploit_inputs: vec![ProgramInput::new(vec![20, 150, 40, 110])
            .with_label("refresh inside the invalidation window")],
        attacks: vec![AttackSpec {
            id: "cache-relay-nullcall",
            version: "cache-relay model",
            vuln_type: "NULL function-pointer call (cache relay)",
            subtle_inputs: "Refresh inside the invalidation window",
            advisory: None,
            known: true,
            race_global: "cache",
            expected_class: VulnClass::NullDeref,
            expected_dep: Some("DATA_DEP"),
            oracle: cache_relay_oracle,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_race::executions_until;
    use owl_vm::{RandomScheduler, RunConfig, Vm};

    #[test]
    fn overdraft_triggers_with_exploit_timing() {
        let p = bank_atomicity();
        let tries = executions_until(
            &p.module,
            p.entry,
            &p.exploit_inputs[0],
            &RunConfig::default(),
            1,
            20,
            overdraft_oracle,
        );
        assert!(tries.is_some());
    }

    #[test]
    fn sequentialized_withdrawals_cannot_overdraw() {
        // One big quantum and no teller IO: each withdrawal completes
        // before the other starts.
        let p = bank_atomicity();
        let mut sched = owl_vm::RoundRobin::new(100_000);
        let input = ProgramInput::new(vec![80, 80, 0, 0]);
        let o = Vm::run_quiet(&p.module, p.entry, input, &mut sched);
        assert!(!overdraft_oracle(&o));
        // Final balance stays non-negative.
        let final_balance = o.outputs.iter().find(|(c, _)| *c == 80).unwrap().1;
        assert!(final_balance >= 0);
    }

    #[test]
    fn double_fetch_triggers_with_flip_timing() {
        let p = kernel_double_fetch();
        let tries = executions_until(
            &p.module,
            p.entry,
            &p.exploit_inputs[0],
            &RunConfig::default(),
            1,
            20,
            double_fetch_oracle,
        );
        assert!(tries.is_some(), "the flipped fetch should overflow kbuf");
    }

    #[test]
    fn double_fetch_benign_traffic_is_safe() {
        let p = kernel_double_fetch();
        for seed in 0..10 {
            let mut sched = RandomScheduler::new(seed);
            let o = Vm::run_quiet(&p.module, p.entry, p.primary_workload().clone(), &mut sched);
            assert!(
                !double_fetch_oracle(&o),
                "benign length (2 -> 2) cannot overflow: seed {seed}"
            );
        }
    }

    #[test]
    fn double_fetch_hint_reaches_the_copy() {
        // Algorithm 1 from the second fetch must reach the memcopy.
        use owl_static::{VulnAnalyzer, VulnConfig};
        let p = kernel_double_fetch();
        let r = owl_race::explore(
            &p.module,
            p.entry,
            &p.workloads,
            &owl_race::ExplorerConfig {
                runs_per_input: 20,
                ..Default::default()
            },
        );
        let report = r
            .reports_on("user_len")
            .next()
            .unwrap_or_else(|| panic!("user_len race: {:?}", r.reports));
        let read = report.read_access().unwrap();
        let mut an = VulnAnalyzer::new(&p.module, VulnConfig::default());
        let (vulns, _) = an.analyze(read.site, &read.stack);
        assert!(
            vulns.iter().any(|v| v.class == VulnClass::MemoryOp),
            "{vulns:?}"
        );
    }

    /// Verified race report on `global`, analyzed by Algorithm 1 under
    /// `cfg`. Returns the vulnerability hints.
    fn hints_for(
        p: &CorpusProgram,
        global: &str,
        cfg: owl_static::VulnConfig,
    ) -> Vec<owl_static::VulnReport> {
        let r = owl_race::explore(
            &p.module,
            p.entry,
            &p.workloads,
            &owl_race::ExplorerConfig {
                runs_per_input: 20,
                ..Default::default()
            },
        );
        let report = r
            .reports_on(global)
            .next()
            .unwrap_or_else(|| panic!("{global} race: {:?}", r.reports));
        let read = report.read_access().unwrap();
        let mut an = owl_static::VulnAnalyzer::new(&p.module, cfg);
        an.analyze(read.site, &read.stack).0
    }

    #[test]
    fn heap_relay_triggers_with_flip_timing() {
        let p = heap_relay();
        let tries = executions_until(
            &p.module,
            p.entry,
            &p.exploit_inputs[0],
            &RunConfig::default(),
            1,
            20,
            heap_relay_oracle,
        );
        assert!(tries.is_some(), "the staged length should overflow kbuf");
    }

    #[test]
    fn heap_relay_benign_traffic_is_safe() {
        let p = heap_relay();
        for seed in 0..10 {
            let mut sched = RandomScheduler::new(seed);
            let o = Vm::run_quiet(&p.module, p.entry, p.primary_workload().clone(), &mut sched);
            assert!(
                !heap_relay_oracle(&o),
                "benign length (2 -> 2) cannot overflow: seed {seed}"
            );
        }
    }

    #[test]
    fn heap_relay_needs_points_to() {
        // The acceptance case for memory-aware propagation, asserted in
        // both directions: with points-to the corruption survives the
        // store/load round trip through the heap request object and the
        // memcopy is hinted; without it (the paper's register-only
        // regime) the hint is lost at the store.
        use owl_static::{DepKind, VulnConfig};
        let p = heap_relay();
        let with = hints_for(&p, "attack_len", VulnConfig::default());
        let hit = with
            .iter()
            .find(|v| v.class == VulnClass::MemoryOp)
            .unwrap_or_else(|| panic!("points-to should hint the memcopy: {with:?}"));
        assert_eq!(hit.dep, DepKind::DataDep);
        let without = hints_for(
            &p,
            "attack_len",
            VulnConfig {
                points_to: false,
                ..VulnConfig::default()
            },
        );
        assert!(
            without.iter().all(|v| v.class != VulnClass::MemoryOp),
            "register-only analysis must lose the relay: {without:?}"
        );
    }

    #[test]
    fn cache_relay_triggers_inside_invalidation_window() {
        let p = cache_relay();
        let tries = executions_until(
            &p.module,
            p.entry,
            &p.exploit_inputs[0],
            &RunConfig::default(),
            1,
            20,
            cache_relay_oracle,
        );
        assert!(tries.is_some(), "dispatch should call the stashed NULL");
    }

    #[test]
    fn cache_relay_benign_traffic_is_safe() {
        let p = cache_relay();
        for seed in 0..10 {
            let mut sched = RandomScheduler::new(seed);
            let o = Vm::run_quiet(&p.module, p.entry, p.primary_workload().clone(), &mut sched);
            assert!(
                !cache_relay_oracle(&o),
                "late invalidation cannot reach the dispatcher: seed {seed}"
            );
        }
    }

    #[test]
    fn cache_relay_needs_points_to_and_summaries() {
        // Both extensions at once: the taint must survive the stash
        // round trip (points-to) AND the relay load corrupts a return
        // value with no dynamic stack, so only the summary-mode caller
        // walk reaches the dispatcher's indirect call.
        use owl_static::{DepKind, VulnConfig};
        let p = cache_relay();
        let with = hints_for(&p, "cache", VulnConfig::default());
        let hit = with
            .iter()
            .find(|v| v.class == VulnClass::NullDeref)
            .unwrap_or_else(|| panic!("indirect call should be hinted: {with:?}"));
        assert_eq!(hit.dep, DepKind::DataDep);
        for (knob, cfg) in [
            (
                "points_to",
                VulnConfig {
                    points_to: false,
                    ..VulnConfig::default()
                },
            ),
            (
                "summaries",
                VulnConfig {
                    summaries: false,
                    ..VulnConfig::default()
                },
            ),
        ] {
            let without = hints_for(&p, "cache", cfg);
            assert!(
                without.iter().all(|v| v.class != VulnClass::NullDeref),
                "disabling {knob} must lose the dispatcher hint: {without:?}"
            );
        }
    }

    #[test]
    fn expected_deps_are_well_formed() {
        let mut programs = crate::all_programs();
        programs.extend([
            bank_atomicity(),
            kernel_double_fetch(),
            heap_relay(),
            cache_relay(),
        ]);
        for p in &programs {
            for a in &p.attacks {
                let dep = a.expected_dep.expect("every corpus attack pins a dep kind");
                assert!(
                    dep == "DATA_DEP" || dep == "CTRL_DEP",
                    "{}: bad expected_dep {dep:?}",
                    a.id
                );
            }
        }
    }

    #[test]
    fn overdraft_leaves_negative_balance() {
        let p = bank_atomicity();
        for seed in 0..20 {
            let mut sched = RandomScheduler::new(seed);
            let o = Vm::run_quiet(&p.module, p.entry, p.exploit_inputs[0].clone(), &mut sched);
            if overdraft_oracle(&o) {
                let final_balance = o.outputs.iter().find(|(c, _)| *c == 80).unwrap().1;
                assert!(final_balance < 0, "overdraft implies negative balance");
                return;
            }
        }
        panic!("overdraft never triggered in 20 seeds");
    }
}
