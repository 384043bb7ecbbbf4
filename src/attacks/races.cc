#include "races.hh"

#include <stdexcept>

#include "core/isv_builders.hh"
#include "kernel/fleet.hh"
#include "kernel/modules.hh"
#include "kernel/process.hh"
#include "poc.hh"

namespace perspective::attacks
{

using kernel::DomainId;
using kernel::KernelImage;
using kernel::Sys;
using kernel::SyscallInvocation;
using sim::Addr;
using sim::FuncId;
using workloads::Experiment;

namespace
{

constexpr unsigned kHandoffSecret = 0x77; ///< written post-handoff
constexpr unsigned kGlobalSecret = 0x4d;  ///< unknown-provenance data

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
struct LeasedPolicy
{
    Experiment &e;
    core::PerspectivePolicy policy;

    LeasedPolicy(Experiment &ex, const core::PerspectiveConfig &cfg,
                 const char *name)
        : e(ex), policy(ex.kernelState().ownership(), cfg, name)
    {
        policy.setClock(e.pipeline().cyclePtr());
        for (kernel::Pid p : {e.mainPid(), e.victimPid()}) {
            const auto &t = e.kernelState().task(p);
            policy.registerContext(t.asid, t.domain, e.isvView());
        }
        e.pipeline().setPolicy(&policy);
    }
    ~LeasedPolicy() { e.pipeline().setPolicy(e.policy()); }
    LeasedPolicy(const LeasedPolicy &) = delete;
    LeasedPolicy &operator=(const LeasedPolicy &) = delete;
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
    LeasedPolicy lease(e, cfg, "race-revocation");

    mistrainV1(e, Sys::Ioctl);

    // Handoff: the frame is reallocated to the victim, which
    // immediately stores a secret into it. The shootdown is pending —
    // the window is open.
    ks.ownership().assign(*pfn, victim_dom);
    e.memory().write(va, kHandoffSecret);
    r.updateLatency = cfg.revocationLatency;
    lease.policy.noteUpdateLatency(cfg.revocationLatency);

    r.leakedInWindow =
        probeV1(e, Sys::Ioctl, va, kHandoffSecret, 3).leaked;
    r.staleAllows = e.pipeline().stats().get(
        "perspective.revocation.stale_allows");

    // The shootdown lands; the stale verdicts die with it.
    lease.policy.flushPendingRevocations();
    r.leakedAfterUpdate =
        probeV1(e, Sys::Ioctl, va, kHandoffSecret, 3).leaked;

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
    r.leakedBeforeUpdate = probeV2(e, 2).leaked;

    // insmod: module 0 (led by the hijack gadget) becomes reachable
    // through an ops slot. The ISV update has NOT landed yet.
    kernel::ModuleRegistry mods(e.image(), e.memory());
    FuncId entry = mods.load(0, /*fs_type=*/0, /*op_slot=*/5);

    // Inside the window the gap is on the safe side: the slot points
    // at module code but the ISV still excludes it.
    r.leakedInWindow = probeV2(e, 2).leaked;

    // The OS completes the update: incremental recomputation from the
    // module entry. Blocked loads re-gate through the epoch wake;
    // running contexts resync at their next gate check.
    core::StaticIsvBuilder builder(e.image());
    auto st = builder.extendView(*view, {entry});
    r.updateLatency = core::isvUpdateLatency(st);
    pol->noteUpdateLatency(r.updateLatency);

    // Plain extension: the gadget is now inside the view — the attack
    // surface genuinely grew with the module.
    r.leakedAfterUpdate = probeV2(e, 4).leaked;

    // ISV++: the load-time audit re-excludes the flagged gadget.
    core::applyAudit(*view, {e.image().pocHijackGadget()});
    r.leakedAfterAudit = probeV2(e, 3).leaked;
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
    LeasedPolicy lease(e, cfg, "race-fleet");

    // The secret sits in an unknown-provenance global.
    Addr gva = ks.globalVa(7);
    e.memory().write(gva, kGlobalSecret);

    mistrainV1(e, Sys::Ioctl);
    r.leakedBeforeUpdate =
        probeV1(e, Sys::Ioctl, gva, kGlobalSecret, 3).leaked;

    // Admin flip: both halves of the DEXCR-style value — the kernel's
    // global floor (inherited by fork/exec) and the policy's runtime
    // enforcement.
    ks.fleet().enforce(kernel::kFleetBlockUnknown);
    r.updateLatency =
        lease.policy.fleetTighten(ks.fleet().globalBits());

    // One probe inside the propagation window (may or may not win the
    // race — recorded, not asserted).
    r.leakedInWindow =
        probeV1(e, Sys::Ioctl, gva, kGlobalSecret, 1).leaked;

    // Barrier: a benign run drives the clock past the visibility
    // point and every context's next gate check synchronizes.
    e.runSyscall(e.mainPid(), SyscallInvocation{Sys::Ioctl, 3, 4, 2},
                 0);

    r.leakedAfterUpdate =
        probeV1(e, Sys::Ioctl, gva, kGlobalSecret, 3).leaked;
    return r;
}

} // namespace perspective::attacks
