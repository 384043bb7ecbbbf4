/**
 * @file
 * Runtime-pliability unit tests: the dynamic-update subsystem piece
 * by piece. Incremental ISV recomputation (delta BFS vs a full
 * rebuild), the audit-resurrection caveat, the modeled update
 * latency, module carving/loading, and the DEXCR-style fleet
 * enforcement value through fork/exec and the policy-side flip.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/isv_builders.hh"
#include "core/perspective.hh"
#include "kernel/fleet.hh"
#include "kernel/kstate.hh"
#include "kernel/modules.hh"
#include "sim/memory.hh"

using namespace perspective;
using namespace perspective::core;
using namespace perspective::kernel;
using perspective::sim::Addr;
using perspective::sim::FuncId;

namespace
{

/** One shared, laid-out kernel image for the view-update tests. */
struct Stack
{
    sim::Memory mem;
    KernelImage img{mem, 42};
    Stack() { img.program().layout(); }
};

Stack &
stack()
{
    static Stack s;
    return s;
}

} // namespace

TEST(Pliability, ExtendViewMatchesFullRebuild)
{
    // The delta BFS must land on exactly the closure of
    // old-roots ∪ new-roots: incremental and from-scratch views are
    // indistinguishable (for a closure-built view — no audit yet).
    auto &s = stack();
    StaticIsvBuilder b(s.img);
    std::set<Sys> syscalls = {Sys::Read, Sys::Getpid};

    IsvView incremental = b.build(syscalls);
    ModuleRegistry mods(s.img, s.mem);
    ASSERT_GE(mods.numModules(), 2u);
    FuncId extra = mods.entry(1);
    ASSERT_FALSE(incremental.containsFunction(extra));
    auto st = b.extendView(incremental, {extra});
    EXPECT_GT(st.added, 0u);
    EXPECT_GE(st.visited, st.added);

    std::vector<FuncId> all_roots = {
        s.img.entryOf(Sys::Read), s.img.entryOf(Sys::Getpid), extra};
    auto order = b.closure(all_roots);
    std::set<FuncId> full(order.begin(), order.end());
    for (FuncId f = 0; f < s.img.numKernelFunctions(); ++f) {
        ASSERT_EQ(incremental.containsFunction(f),
                  full.count(f) != 0)
            << "func " << f;
    }
}

TEST(Pliability, ExtendViewIsDeltaBounded)
{
    // A second update from the same root is a no-op: the frontier
    // stops at already-included functions, so cost tracks the *new*
    // subgraph, not the whole closure.
    auto &s = stack();
    StaticIsvBuilder b(s.img);
    IsvView v = b.build({Sys::Read});
    ModuleRegistry mods(s.img, s.mem);
    FuncId extra = mods.entry(1);

    auto first = b.extendView(v, {extra});
    EXPECT_GT(first.added, 0u);
    std::size_t size_after = v.numFunctions();

    auto again = b.extendView(v, {extra});
    EXPECT_EQ(again.added, 0u);
    EXPECT_EQ(v.numFunctions(), size_after);

    // Extending with an already-included syscall entry: same.
    auto noop = b.extendView(v, {s.img.entryOf(Sys::Read)});
    EXPECT_EQ(noop.added, 0u);
}

TEST(Pliability, ExtendViewResurrectsAuditedFunction)
{
    // The documented ISV++ caveat: the traversal re-includes
    // functions an audit previously excluded when they are reachable
    // from the new roots, so callers must re-run applyAudit — the
    // load-time scan — after every extension.
    auto &s = stack();
    StaticIsvBuilder b(s.img);
    IsvView v = b.build({Sys::Read});
    FuncId gadget = s.img.pocHijackGadget();
    ModuleRegistry mods(s.img, s.mem);
    ASSERT_EQ(mods.entry(0), gadget); // module 0 enters via the gadget

    b.extendView(v, {gadget});
    ASSERT_TRUE(v.containsFunction(gadget));
    applyAudit(v, {gadget});
    ASSERT_FALSE(v.containsFunction(gadget));

    // The module is re-extended (say a second load event): the
    // audited exclusion silently comes back...
    b.extendView(v, {gadget});
    EXPECT_TRUE(v.containsFunction(gadget));
    // ...until the load-time audit runs again.
    applyAudit(v, {gadget});
    EXPECT_FALSE(v.containsFunction(gadget));
}

TEST(Pliability, IsvUpdateLatencyModel)
{
    StaticIsvBuilder::ExtendStats st;
    st.added = 2;
    st.visited = 5;
    EXPECT_EQ(isvUpdateLatency(st), kIsvUpdateBase +
                                        2 * kIsvUpdatePerFunc +
                                        5 * kIsvUpdatePerEdge);
    st = {};
    EXPECT_EQ(isvUpdateLatency(st), kIsvUpdateBase);
}

TEST(Pliability, ModuleRegistryCarvesColdBulk)
{
    sim::Memory mem;
    KernelImage img{mem, 42};
    img.program().layout();

    ModuleRegistry mods(img, mem, /*module_size=*/12);
    ASSERT_GT(mods.numModules(), 0u);
    EXPECT_EQ(mods.entry(0), img.pocHijackGadget());

    // The carve is a disjoint cover of the image's cold bulk.
    std::size_t total = 0, cold = 0;
    std::set<FuncId> seen;
    for (unsigned m = 0; m < mods.numModules(); ++m) {
        EXPECT_FALSE(mods.loaded(m));
        EXPECT_EQ(mods.entry(m), mods.functions(m).front());
        for (FuncId f : mods.functions(m)) {
            EXPECT_EQ(img.classOf(f), KernelImage::FuncClass::Cold);
            EXPECT_TRUE(seen.insert(f).second) << "func " << f;
            ++total;
        }
    }
    for (FuncId f = 0; f < img.numKernelFunctions(); ++f)
        cold += img.classOf(f) == KernelImage::FuncClass::Cold;
    EXPECT_EQ(total, cold);

    // insmod binds the entry into the ops slot of this experiment's
    // memory and reports the root to extend the view from.
    FuncId entry = mods.load(0, /*fs_type=*/0, /*op_slot=*/5);
    EXPECT_EQ(entry, img.pocHijackGadget());
    EXPECT_TRUE(mods.loaded(0));
    EXPECT_EQ(mem.read(fopsSlotVa(0, 5)), entry);

    EXPECT_THROW(ModuleRegistry(img, mem, 0), std::invalid_argument);
}

TEST(Pliability, FleetControlOnlyTightens)
{
    FleetControl fc;
    EXPECT_EQ(fc.globalBits(), 0u);
    EXPECT_EQ(fc.effective(0), 0u);

    std::uint64_t g0 = fc.gen();
    fc.enforce(kFleetBlockUnknown);
    EXPECT_EQ(fc.globalBits(), kFleetBlockUnknown);
    EXPECT_GT(fc.gen(), g0);

    // There is no clear: later writes can only add aspects.
    fc.enforce(kFleetRestrictIsv);
    EXPECT_EQ(fc.globalBits(),
              kFleetBlockUnknown | kFleetRestrictIsv);
    fc.enforce(0);
    EXPECT_EQ(fc.globalBits(),
              kFleetBlockUnknown | kFleetRestrictIsv);

    // A task tightens itself further but never escapes the floor.
    EXPECT_EQ(fc.effective(kFleetFlushOnSwitch),
              kFleetBlockUnknown | kFleetRestrictIsv |
                  kFleetFlushOnSwitch);
}

TEST(Pliability, ForkInheritsAndExecResyncsFleetBits)
{
    sim::Memory mem;
    KernelState ks{mem};
    CgroupId cg = ks.createCgroup("tenant");
    Pid parent = ks.createProcess(cg);

    ks.task(parent).fleetBits = kFleetFlushOnSwitch;
    Pid child = ks.forkProcess(parent);
    EXPECT_EQ(ks.task(child).fleetBits, kFleetFlushOnSwitch);
    EXPECT_EQ(ks.task(child).cgroup, ks.task(parent).cgroup);

    // Sudo-downgrade: the child clears its own value, then the admin
    // enforces fleet-wide, then the child execs a privileged binary.
    // The fresh image still runs under the admin floor.
    ks.task(child).fleetBits = 0;
    ks.fleet().enforce(kFleetBlockUnknown);
    EXPECT_EQ(ks.effectiveFleetBits(child), kFleetBlockUnknown);
    ks.execProcess(child);
    EXPECT_EQ(ks.task(child).fleetBits, kFleetBlockUnknown);

    // And the grandchild inherits the enforced value directly.
    Pid grandchild = ks.forkProcess(child);
    EXPECT_EQ(ks.task(grandchild).fleetBits, kFleetBlockUnknown);
}

TEST(Pliability, FleetTightenPropagatesAfterVisibilityLatency)
{
    // Policy half of the flip: running contexts keep their lax
    // cached verdicts until the flip's visibility point, then their
    // next gate check resynchronizes and drops every cached verdict.
    sim::Program prog;
    FuncId kf = prog.addFunction("kfunc", true);
    prog.func(kf).body = {sim::load(1, 10, 0), sim::ret()};
    prog.layout();
    OwnershipMap own{1024};

    PerspectiveConfig cfg;
    cfg.blockUnknown = false; // the lax per-tenant setting
    PerspectivePolicy pol(own, cfg);
    sim::Cycle clock = 0;
    pol.setClock(&clock);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    pol.registerContext(2, 4, &view);

    Addr pc = prog.func(kf).instAddr(0);
    Addr unknown_va = directMapVa(7); // no owner: unknown provenance
    auto gateAt = [&](sim::Cycle now) {
        sim::SpecContext c;
        c.pc = pc;
        c.dataVa = unknown_va;
        c.speculative = true;
        c.kernelMode = true;
        c.asid = 1;
        c.now = now;
        return pol.gateLoad(c).gate;
    };

    // Warm the caches to a steady lax Allow.
    sim::Gate g = sim::Gate::Block;
    for (sim::Cycle t = 1000; t <= 5000; t += 1000)
        g = gateAt(t);
    ASSERT_EQ(g, sim::Gate::Allow);

    clock = 10000;
    sim::Cycle lat = pol.fleetTighten(kFleetBlockUnknown);
    EXPECT_EQ(lat, kFleetFlipBase + 2 * kFleetFlipPerContext);
    EXPECT_EQ(pol.fleetBits() & kFleetBlockUnknown,
              kFleetBlockUnknown);

    // Inside the propagation window the stale Allow still stands.
    EXPECT_EQ(gateAt(10000 + lat - 1), sim::Gate::Allow);

    // First check past the visibility point: the context syncs, the
    // caches drop, and the tightened fill verdict blocks for good.
    for (sim::Cycle t = 10000 + lat; t <= 15000 + lat; t += 1000)
        g = gateAt(t);
    EXPECT_EQ(g, sim::Gate::Block);
}
