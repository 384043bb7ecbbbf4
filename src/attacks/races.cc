#include "races.hh"

#include <stdexcept>

#include "core/isv_builders.hh"
#include "kernel/fleet.hh"
#include "kernel/modules.hh"
#include "kernel/process.hh"
#include "sim/covert.hh"

namespace perspective::attacks
{

using kernel::DomainId;
using kernel::KernelImage;
using kernel::Sys;
using kernel::SyscallInvocation;
using sim::Addr;
using sim::FlushReload;
using sim::FuncId;
using workloads::Experiment;

namespace
{

constexpr unsigned kHandoffSecret = 0x77; ///< written post-handoff
constexpr unsigned kGlobalSecret = 0x4d;  ///< unknown-provenance data
constexpr unsigned kOwnSecret = 0x6b;     ///< victim's own data

/** Mistrain the ioctl-path bounds check with in-bounds indices. */
void
mistrainIoctl(Experiment &e)
{
    SyscallInvocation inv{Sys::Ioctl, 3, 4, 2};
    for (int i = 0; i < 24; ++i)
        e.runSyscall(e.mainPid(), inv, 0);
}

/**
 * Active Spectre-v1 leak attempt against an arbitrary direct-map
 * @p target_va through the ioctl-path gadget (the activeV1 PoC with
 * a caller-chosen target). Assumes the bounds check is mistrained.
 */
bool
tryLeakVa(Experiment &e, Addr target_va, unsigned expected,
          int attempts)
{
    KernelImage &img = e.image();
    auto &ks = e.kernelState();
    auto &cpu = e.pipeline();

    Addr attacker_ctx = ks.task(e.mainPid()).ctxVa;
    std::uint64_t oob =
        (target_va - (attacker_ctx + KernelImage::kGadgetTableOff)) /
        8;

    SyscallInvocation inv{Sys::Ioctl, 3, 4, 2};
    for (int attempt = 0; attempt < attempts; ++attempt) {
        cpu.caches().accessData(target_va);
        cpu.caches().flush(img.pocBoundGlobalVa());
        FlushReload fr(cpu.caches(), kernel::kSharedProbeBase);
        fr.prime();

        e.runSyscall(e.mainPid(), inv, 0, oob);
        auto rec = fr.recover();
        if (rec && *rec == expected)
            return true;
    }
    return false;
}

/**
 * Passive Spectre-v2 leak attempt (the passiveV2 PoC): poison the
 * vfs read dispatch's BTB entry with the hijack gadget and let the
 * victim's own read() transiently leak its own secret.
 */
bool
tryHijack(Experiment &e, int attempts)
{
    KernelImage &img = e.image();
    auto &cpu = e.pipeline();
    Addr own_secret_va = e.kernelState().task(e.mainPid()).ctxVa +
                         KernelImage::kSecretCtxOff;

    SyscallInvocation inv{Sys::Read, 0, 8, 0};
    auto [disp_func, icall_idx] = img.vfsReadDispatch();
    Addr icall_pc =
        img.program().func(disp_func).instAddr(icall_idx);

    for (int attempt = 0; attempt < attempts; ++attempt) {
        cpu.btb().update(icall_pc, img.pocHijackGadget());
        cpu.caches().accessData(own_secret_va);
        cpu.caches().flush(kernel::fopsSlotVa(0, 0));
        FlushReload fr(cpu.caches(), kernel::kSharedProbeBase);
        fr.prime();

        e.runSyscall(e.mainPid(), inv, 0);
        auto rec = fr.recover();
        if (rec && *rec == kOwnSecret)
            return true;
    }
    return false;
}

/**
 * RAII: run a scenario under a private policy, then hand the
 * pipeline back to the experiment's own scheme. A race runs on the
 * caller's Experiment, whose policy has the config the caller chose,
 * so it leases one with the config the race needs. raceRevocation
 * could not take its config through the Experiment constructor in any
 * case: its frame must be owned before the policy mirrors ownership,
 * and a policy built with the Experiment would see that grant
 * deferred and sample one more "transient_gap_cycles", moving the
 * pliability cells.
 */
struct PolicyLease
{
    Experiment &e;
    explicit PolicyLease(Experiment &ex) : e(ex) {}
    ~PolicyLease() { e.pipeline().setPolicy(e.policy()); }
};

} // namespace

RaceResult
raceRevocation(Experiment &e)
{
    return raceRevocation(e, 50'000'000);
}

RaceResult
raceRevocation(Experiment &e, sim::Cycle revocationBudget)
{
    auto &ks = e.kernelState();
    RaceResult r;

    // A frame the attacker's domain owns up front, so the policy built
    // below mirrors it as Allow from the start. (Allocating after
    // construction would defer the alloc's own assign and the mirror
    // would never hold the entry the handoff is meant to leave stale.)
    DomainId attacker_dom = ks.task(e.mainPid()).domain;
    DomainId victim_dom = ks.task(e.victimPid()).domain;
    auto pfn = ks.buddy().allocPages(0, attacker_dom);
    if (!pfn)
        throw std::runtime_error("raceRevocation: out of memory");
    Addr va = kernel::directMapVa(*pfn);

    // Private policy with a deferred shootdown. The caller's budget
    // decides how long the window stays open: 0 means synchronous
    // (no window), the 50M default outlives whole attack runs.
    core::PerspectiveConfig cfg;
    cfg.revocationLatency = revocationBudget;
    core::PerspectivePolicy pol(ks.ownership(), cfg,
                                "race-revocation");
    pol.setClock(e.pipeline().cyclePtr());
    for (kernel::Pid p : {e.mainPid(), e.victimPid()}) {
        const auto &t = ks.task(p);
        pol.registerContext(t.asid, t.domain, e.isvView());
    }
    PolicyLease lease(e);
    e.pipeline().setPolicy(&pol);

    mistrainIoctl(e);

    // Handoff: the frame is reallocated to the victim, which
    // immediately stores a secret into it. The shootdown is pending —
    // the window is open.
    ks.ownership().assign(*pfn, victim_dom);
    e.memory().write(va, kHandoffSecret);
    r.updateLatency = cfg.revocationLatency;
    pol.noteUpdateLatency(cfg.revocationLatency);

    r.leakedInWindow = tryLeakVa(e, va, kHandoffSecret, 3);
    r.staleAllows = e.pipeline().stats().get(
        "perspective.revocation.stale_allows");

    // The shootdown lands; the stale verdicts die with it.
    pol.flushPendingRevocations();
    r.leakedAfterUpdate = tryLeakVa(e, va, kHandoffSecret, 3);

    ks.buddy().freePages(*pfn, 0);
    return r;
}

RaceResult
raceModuleLoad(Experiment &e)
{
    core::PerspectivePolicy *pol = e.perspectivePolicy();
    core::IsvView *view = e.isvView();
    if (!pol || !view) {
        throw std::runtime_error(
            "raceModuleLoad needs a Perspective experiment with an "
            "ISV");
    }
    RaceResult r;

    e.memory().write(e.kernelState().task(e.mainPid()).ctxVa +
                         KernelImage::kSecretCtxOff,
                     kOwnSecret);

    // Baseline: the hijack gadget lives in an unloaded module, far
    // outside the workload's ISV — the hijack is fenced.
    r.leakedBeforeUpdate = tryHijack(e, 2);

    // insmod: module 0 (led by the hijack gadget) becomes reachable
    // through an ops slot. The ISV update has NOT landed yet.
    kernel::ModuleRegistry mods(e.image(), e.memory());
    FuncId entry = mods.load(0, /*fs_type=*/0, /*op_slot=*/5);

    // Inside the window the gap is on the safe side: the slot points
    // at module code but the ISV still excludes it.
    r.leakedInWindow = tryHijack(e, 2);

    // The OS completes the update: incremental recomputation from the
    // module entry. Blocked loads re-gate through the epoch wake;
    // running contexts resync at their next gate check.
    core::StaticIsvBuilder builder(e.image());
    auto st = builder.extendView(*view, {entry});
    r.updateLatency = core::isvUpdateLatency(st);
    pol->noteUpdateLatency(r.updateLatency);

    // Plain extension: the gadget is now inside the view — the attack
    // surface genuinely grew with the module.
    r.leakedAfterUpdate = tryHijack(e, 4);

    // ISV++: the load-time audit re-excludes the flagged gadget.
    core::applyAudit(*view, {e.image().pocHijackGadget()});
    r.leakedAfterAudit = tryHijack(e, 3);
    return r;
}

RaceResult
raceFleetFlip(Experiment &e)
{
    auto &ks = e.kernelState();
    RaceResult r;

    // Lax per-tenant setting: unknown-provenance memory is
    // speculatively readable (blockUnknown off).
    core::PerspectiveConfig cfg;
    cfg.blockUnknown = false;
    core::PerspectivePolicy pol(ks.ownership(), cfg, "race-fleet");
    pol.setClock(e.pipeline().cyclePtr());
    for (kernel::Pid p : {e.mainPid(), e.victimPid()}) {
        const auto &t = ks.task(p);
        pol.registerContext(t.asid, t.domain, e.isvView());
    }
    PolicyLease lease(e);
    e.pipeline().setPolicy(&pol);

    // The secret sits in an unknown-provenance global.
    Addr gva = ks.globalVa(7);
    e.memory().write(gva, kGlobalSecret);

    mistrainIoctl(e);
    r.leakedBeforeUpdate = tryLeakVa(e, gva, kGlobalSecret, 3);

    // Admin flip: both halves of the DEXCR-style value — the kernel's
    // global floor (inherited by fork/exec) and the policy's runtime
    // enforcement.
    ks.fleet().enforce(kernel::kFleetBlockUnknown);
    r.updateLatency = pol.fleetTighten(ks.fleet().globalBits());

    // One probe inside the propagation window (may or may not win the
    // race — recorded, not asserted).
    r.leakedInWindow = tryLeakVa(e, gva, kGlobalSecret, 1);

    // Barrier: a benign run drives the clock past the visibility
    // point and every context's next gate check synchronizes.
    e.runSyscall(e.mainPid(), SyscallInvocation{Sys::Ioctl, 3, 4, 2},
                 0);

    r.leakedAfterUpdate = tryLeakVa(e, gva, kGlobalSecret, 3);
    return r;
}

} // namespace perspective::attacks
