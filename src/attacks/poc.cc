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

/** The victim's benign read(), dispatched through the vfs. */
const SyscallInvocation kVictimRead{Sys::Read, 0, 8, 0};

/** The gadget-path invocation (index argument 2: in bounds). */
SyscallInvocation
v1Invocation(Sys via)
{
    return {via, 3, 4, 2};
}

/** VA of process @p pid's secret within its context block. */
Addr
secretVa(Experiment &e, kernel::Pid pid)
{
    return e.kernelState().task(pid).ctxVa + KernelImage::kSecretCtxOff;
}

/**
 * Active Spectre-v1 attack through a reachable kernel gadget: the
 * attacker's own kernel thread speculatively indexes past a bounds
 * check into the *victim tenant's* memory.
 */
PocResult
activeV1(Experiment &e, Sys via)
{
    mistrainV1(e, via);
    return probeV1(e, via, secretVa(e, e.victimPid()), kVictimSecret,
                   3);
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
    // The victim's own secret (the main process IS the victim here).
    e.memory().write(secretVa(e, e.mainPid()), kOwnSecret);

    // Warm run (trains the dispatch BTB entry to the benign target).
    e.runSyscall(e.mainPid(), kVictimRead, 0);

    // Real transient attacks rarely win the race on the first try:
    // the first attempt warms the gadget's instruction lines.
    return probeV2(e, 3);
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

    Addr own_secret_va = secretVa(e, e.mainPid());
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

void
mistrainV1(Experiment &e, Sys via)
{
    for (int i = 0; i < 24; ++i)
        e.runSyscall(e.mainPid(), v1Invocation(via), 0);
}

PocResult
probeV1(Experiment &e, Sys via, Addr target_va, unsigned expected,
        unsigned attempts)
{
    auto &cpu = e.pipeline();

    // Out-of-bounds index: &target - &attacker_table, scaled.
    Addr attacker_ctx = e.kernelState().task(e.mainPid()).ctxVa;
    std::uint64_t oob =
        (target_va - (attacker_ctx + KernelImage::kGadgetTableOff)) /
        8;

    PocResult res;
    res.expected = expected;
    for (unsigned attempt = 0; attempt < attempts && !res.leaked;
         ++attempt) {
        // (2) The target's owner recently touched it (warm line); the
        // bound global is evicted to widen the window.
        cpu.caches().accessData(target_va);
        cpu.caches().flush(e.image().pocBoundGlobalVa());
        FlushReload fr(cpu.caches(), kernel::kSharedProbeBase);
        fr.prime();

        // (3) Out-of-bounds invocation; (4) reload.
        e.runSyscall(e.mainPid(), v1Invocation(via), 0, oob);
        res.recovered = fr.recover();
        res.leaked = res.recovered && *res.recovered == expected;
    }
    return res;
}

PocResult
probeV2(Experiment &e, unsigned attempts)
{
    KernelImage &img = e.image();
    auto &cpu = e.pipeline();
    Addr own_secret_va = secretVa(e, e.mainPid());
    auto [disp_func, icall_idx] = img.vfsReadDispatch();
    Addr icall_pc = img.program().func(disp_func).instAddr(icall_idx);

    PocResult res;
    res.expected = kOwnSecret;
    for (unsigned attempt = 0; attempt < attempts && !res.leaked;
         ++attempt) {
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
        e.runSyscall(e.mainPid(), kVictimRead, 0);

        res.recovered = fr.recover();
        res.leaked = res.recovered && *res.recovered == res.expected;
    }
    return res;
}

PocResult
runPoc(PocKind kind, Experiment &e)
{
    switch (kind) {
      case PocKind::ActiveV1Ioctl:
        return activeV1(e, Sys::Ioctl);
      case PocKind::ActiveV1Ptrace:
        return activeV1(e, Sys::Ptrace);
      case PocKind::ActiveV1Bpf:
        return activeV1(e, Sys::Bpf);
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
