#include "poc.hh"

#include "kernel/process.hh"
#include "sim/covert.hh"

namespace perspective::attacks
{

using kernel::KernelImage;
using kernel::Sys;
using kernel::SyscallInvocation;
using sim::Addr;
using sim::FlushReload;
using sim::FuncId;
using workloads::Experiment;

namespace
{

constexpr unsigned kVictimSecret = 0x5e; ///< written by Experiment
constexpr unsigned kOwnSecret = 0x6b;    ///< victim's own data (passive)

/**
 * Active Spectre-v1 attack through a reachable kernel gadget: the
 * attacker's own kernel thread speculatively indexes past a bounds
 * check into the *victim tenant's* memory.
 */
PocResult
activeV1(Experiment &e, Sys entry_sys, FuncId gadget)
{
    (void)gadget;
    KernelImage &img = e.image();
    auto &ks = e.kernelState();
    auto &cpu = e.pipeline();

    Addr attacker_ctx = ks.task(e.mainPid()).ctxVa;
    Addr victim_secret_va = ks.task(e.victimPid()).ctxVa +
                            KernelImage::kSecretCtxOff;

    // Out-of-bounds index: &victim_secret - &attacker_table, scaled.
    std::uint64_t oob =
        (victim_secret_va -
         (attacker_ctx + KernelImage::kGadgetTableOff)) /
        8;

    SyscallInvocation inv{entry_sys, 3, 4, 2};

    // (1) Mistrain the bounds check with in-bounds indices.
    for (int i = 0; i < 24; ++i)
        e.runSyscall(e.mainPid(), inv, 0);

    PocResult res;
    res.expected = kVictimSecret;
    for (int attempt = 0; attempt < 3 && !res.leaked; ++attempt) {
        // (2) The victim recently touched its secret (warm line);
        // the bound global is evicted to widen the window.
        cpu.caches().accessData(victim_secret_va);
        cpu.caches().flush(img.pocBoundGlobalVa());
        FlushReload fr(cpu.caches(), kernel::kSharedProbeBase);
        fr.prime();

        // (3) Out-of-bounds invocation; (4) reload.
        e.runSyscall(e.mainPid(), inv, 0, oob);
        res.recovered = fr.recover();
        res.leaked = res.recovered && *res.recovered == res.expected;
    }
    return res;
}

/**
 * Passive Spectre-v2 attack: the attacker poisons the BTB entry of
 * the victim's vfs read dispatch so the victim's kernel thread
 * transiently executes a cold driver gadget that leaks the victim's
 * *own* secret. No DSV is violated.
 */
PocResult
passiveV2(Experiment &e)
{
    KernelImage &img = e.image();
    auto &ks = e.kernelState();
    auto &cpu = e.pipeline();

    // The victim's own secret (the main process IS the victim here).
    Addr own_secret_va =
        ks.task(e.mainPid()).ctxVa + KernelImage::kSecretCtxOff;
    e.memory().write(own_secret_va, kOwnSecret);

    SyscallInvocation inv{Sys::Read, 0, 8, 0};

    // Warm run (trains the dispatch BTB entry to the benign target).
    e.runSyscall(e.mainPid(), inv, 0);

    auto [disp_func, icall_idx] = img.vfsReadDispatch();
    Addr icall_pc = img.program().func(disp_func).instAddr(icall_idx);

    // Real transient attacks rarely win the race on the first try:
    // the first attempt warms the gadget's instruction lines.
    PocResult res;
    res.expected = kOwnSecret;
    for (int attempt = 0; attempt < 3 && !res.leaked; ++attempt) {
        // (1) Attacker injects the gadget as the predicted target of
        // the victim's indirect call (aliased mistraining).
        cpu.btb().update(icall_pc, img.pocHijackGadget());

        // (2) Victim's secret is warm; the fops slot is evicted so
        // the indirect call resolves late (wide transient window).
        cpu.caches().accessData(own_secret_va);
        cpu.caches().flush(kernel::fopsSlotVa(0, 0));
        FlushReload fr(cpu.caches(), kernel::kSharedProbeBase);
        fr.prime();

        // (3) The victim innocently issues read().
        e.runSyscall(e.mainPid(), inv, 0);

        res.recovered = fr.recover();
        res.leaked = res.recovered && *res.recovered == res.expected;
    }
    return res;
}

/**
 * Passive Retbleed attack: a deep path walk (20 levels) underflows
 * the 16-entry RSB; the underflowing returns fall back to the BTB,
 * which the attacker poisoned with a gadget target.
 */
PocResult
passiveRetbleed(Experiment &e)
{
    KernelImage &img = e.image();
    auto &ks = e.kernelState();
    auto &cpu = e.pipeline();

    Addr own_secret_va =
        ks.task(e.mainPid()).ctxVa + KernelImage::kSecretCtxOff;
    e.memory().write(own_secret_va, kOwnSecret);

    // (1) Poison the BTB entry consulted by the path walker's return
    // on RSB underflow. Retpoline does not cover returns.
    FuncId walker = img.pathWalkRecursive();
    const auto &body = img.program().func(walker).body;
    Addr ret_pc = img.program().func(walker).instAddr(
        static_cast<std::uint32_t>(body.size() - 1));
    cpu.btb().update(ret_pc, img.pocHijackGadget());

    PocResult res;
    res.expected = kOwnSecret;
    for (int attempt = 0; attempt < 3 && !res.leaked; ++attempt) {
        // (2) Warm the secret; evict the deep return-address slots
        // so the poisoned returns resolve late (cross-core eviction).
        cpu.caches().accessData(own_secret_va);
        Addr stack_top = ks.task(e.mainPid()).stackTopVa;
        for (unsigned d = 0; d < 40; ++d)
            cpu.caches().flush(stack_top - 8 * d);
        FlushReload fr(cpu.caches(), kernel::kSharedProbeBase);
        fr.prime();

        // (3) The victim opens a deeply nested path: 20 recursion
        // levels push 20 return addresses through the 16-entry RSB.
        SyscallInvocation inv{Sys::Open, 0, 0, 20};
        e.runSyscall(e.mainPid(), inv, 0);
        // Balance the open with a close.
        e.runSyscall(e.mainPid(), SyscallInvocation{Sys::Close, 0, 0, 0},
                     0);

        res.recovered = fr.recover();
        res.leaked = res.recovered && *res.recovered == res.expected;
    }
    return res;
}

} // namespace

PocResult
runPoc(PocKind kind, Experiment &e)
{
    switch (kind) {
      case PocKind::ActiveV1Ioctl:
        return activeV1(e, Sys::Ioctl, e.image().pocDriverGadget());
      case PocKind::ActiveV1Ptrace:
        return activeV1(e, Sys::Ptrace, e.image().pocPtraceGadget());
      case PocKind::ActiveV1Bpf:
        return activeV1(e, Sys::Bpf, e.image().pocBpfGadget());
      case PocKind::PassiveV2:
        return passiveV2(e);
      case PocKind::PassiveRetbleed:
        return passiveRetbleed(e);
    }
    return {};
}

std::vector<PocKind>
allPocs()
{
    return {PocKind::ActiveV1Ioctl, PocKind::ActiveV1Ptrace,
            PocKind::ActiveV1Bpf, PocKind::PassiveV2,
            PocKind::PassiveRetbleed};
}

workloads::WorkloadProfile
pocProfile()
{
    workloads::WorkloadProfile w;
    w.name = "poc-workload";
    w.request = {
        {Sys::Ioctl, 1, 0, 0},  {Sys::Ptrace, 1, 0, 0},
        {Sys::Bpf, 1, 0, 0},    {Sys::Read, 0, 8, 0},
        {Sys::Open, 0, 0, 3},   {Sys::Close, 0, 0, 0},
    };
    w.userPadIters = 2;
    return w;
}

} // namespace perspective::attacks
