#include "image.hh"

#include <cassert>

#include "process.hh"

namespace perspective::kernel
{

using namespace sim;

namespace
{

/** Total kernel functions to synthesize (cold bulk pads to it). */
constexpr unsigned kTargetFunctions = 28000;
/** Kasper's gadget census. */
constexpr unsigned kMdsGadgets = 805;
constexpr unsigned kPortGadgets = 509;
constexpr unsigned kCacheGadgets = 219;
/** Probability that a generated load targets an unknown-domain
 * global / per-cpu variable (drives the DSV fence rate). */
constexpr double kGlobalLoadProb = 0.05;
constexpr double kPerCpuLoadProb = 0.03;

} // namespace

/** Recipe for one generated function body. */
struct KernelImage::BodyCfg
{
    unsigned aluOps = 2;
    unsigned ctxLoads = 2;
    unsigned stores = 1;
    bool setRet = false;
    std::optional<GadgetKind> gadget;
    std::vector<FuncId> hotCalls;     ///< executed on benign runs
    std::vector<FuncId> variantCalls; ///< behind the r15 knob
    std::vector<FuncId> errorCalls;   ///< behind the r14 knob
};

KernelImage::KernelImage(sim::Memory &mem, std::uint64_t seed)
    : mem_(mem), rngState_(seed * 0x9e3779b97f4a7c15ull + 1)
{
    // The cold bulk stops within one module tree (at most 40
    // functions) of the target, and the hijack gadget follows it;
    // workload drivers add one user function per syscall.
    std::size_t kernel_cap = kTargetFunctions + 64;
    prog_.reserve(kernel_cap + kNumSyscalls);
    info_.reserve(kernel_cap);
    class_.reserve(kernel_cap);

    coreAnchors_.resize(16);
    coreFuncs_.resize(16);

    // Initialize global variables with small deterministic values so
    // generated loads observe real data. Global 0 is the shared
    // bounds value used by every planted gadget's guard.
    pocBoundVa_ = bootGlobalVa(0);
    mem_.write(pocBoundVa_, 16);
    for (unsigned i = 1; i < 1024; ++i)
        mem_.write(bootGlobalVa(i), i % 7 + 1);

    buildPools();
    buildCores();
    buildWorkers();
    buildIndirectImpls();
    buildEntryExit();
    buildSyscallTrees();
    buildColdBulk();
    plantGadgets();
    writeRodataTables();

    for (std::size_t f = 0; f < info_.size(); ++f) {
        if (!info_[f].gadgets.empty())
            gadgetFuncs_.push_back(static_cast<FuncId>(f));
    }
}

std::uint64_t
KernelImage::rnd(std::uint64_t bound)
{
    rngState_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = rngState_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return bound ? z % bound : z;
}

double
KernelImage::rndReal()
{
    return static_cast<double>(rnd(1u << 30)) /
           static_cast<double>(1u << 30);
}

FuncId
KernelImage::newFunc(std::string name, Subsystem ss, FuncClass cls)
{
    FuncId id = prog_.addFunction(std::move(name), true);
    assert(id == info_.size());
    KFuncInfo fi;
    fi.subsys = ss;
    info_.push_back(std::move(fi));
    class_.push_back(cls);
    switch (cls) {
      case FuncClass::Hot: hotTreeFuncs_.push_back(id); break;
      case FuncClass::Warm: warmTreeFuncs_.push_back(id); break;
      case FuncClass::Cold: coldFuncs_.push_back(id); break;
    }
    return id;
}

void
KernelImage::emitGadgetIr(Assembler &a, GadgetKind)
{
    // Classic Spectre v1 shape: a bounds check guarding an attacker-
    // indexed access whose result feeds a transmitting access. The
    // guard lives in an unknown-provenance global; the indexed table
    // is in the current task's context block.
    a.emit(loadAbs(24, pocBoundVa_));
    unsigned skip = a.emit(branch(Cond::Ge, reg::kArg0, 24, 0));
    a.emit(shlImm(25, reg::kArg0, 3));
    a.emit(add(26, 25, reg::kCtx));
    a.emit(load(27, 26, kGadgetTableOff)); // access
    a.emit(shlImm(28, 27, 12));
    a.emit(addImm(29, 28,
                  static_cast<std::int64_t>(kSharedProbeBase)));
    a.emit(load(30, 29, 0)); // transmit
    a.patch(skip, a.here());
}

void
KernelImage::setBody(FuncId f, const std::vector<MicroOp> &ops)
{
    // Exact-size copy; the direct call edges are read off the body
    // now, exactly as a disassembler would, while it is in cache.
    prog_.func(f).body.assign(ops.begin(), ops.end());
    auto &callees = info_[f].callees;
    callees.clear();
    for (const MicroOp &op : ops) {
        if (op.op == Op::Call)
            callees.push_back(op.callee);
    }
}

void
KernelImage::genBody(FuncId f, const BodyCfg &cfg)
{
    Assembler &a = asm_.begin();

    for (unsigned i = 0; i < cfg.aluOps; ++i) {
        a.emit(addImm(static_cast<RegId>(20 + rnd(4)), reg::kCtx,
                      static_cast<std::int64_t>(rnd(4096))));
    }

    for (unsigned i = 0; i < cfg.ctxLoads; ++i) {
        RegId dst = static_cast<RegId>(24 + i % 4);
        double p = rndReal();
        if (p < kGlobalLoadProb) {
            // Global (unknown-provenance) state is typically checked
            // right away: the dependent, always-taken branch keeps
            // younger work control-dependent on this load, so
            // defenses that delay it pay real latency.
            a.emit(loadAbs(dst, bootGlobalVa(
                               static_cast<unsigned>(rnd(1024)))));
            unsigned chk = a.emit(branchImm(Cond::Ge, dst, 1, 0));
            a.emit(nop());
            a.patch(chk, a.here());
        } else if (p < kGlobalLoadProb +
                           kPerCpuLoadProb) {
            a.emit(load(dst, reg::kPerCpu,
                        static_cast<std::int64_t>(rnd(1024) * 8)));
        } else if (p < kGlobalLoadProb +
                           kPerCpuLoadProb + 0.22) {
            // Pointer chase through the per-task pointer table
            // (kernel lists/ops structures): the second load's
            // address depends on speculatively-loaded data.
            a.emit(load(dst, reg::kCtx,
                        0x2800 +
                            static_cast<std::int64_t>(rnd(255) * 8)));
            a.emit(load(static_cast<RegId>(20 + rnd(4)), dst, 0));
        } else {
            // Low 2 KB data region of the context block; the fd
            // table (0x800+) and guard flags (0x3000+) stay clean.
            a.emit(load(dst, reg::kCtx,
                        static_cast<std::int64_t>(rnd(255) * 8)));
        }
    }

    if (cfg.gadget)
        emitGadgetIr(a, *cfg.gadget);

    // The quintessential kernel shape: load a status/flag word and
    // branch on it. The dependent branch keeps younger instructions
    // speculative until the load returns — this chain is what makes
    // blanket load-fencing expensive. The error path fires when the
    // fault-injection knob (r14) matches this function's fault id,
    // giving fuzzers targeted, per-site fault injection (benign runs
    // carry r14 == 0, which matches no id).
    unsigned b_err = ~0u;
    if (!cfg.errorCalls.empty()) {
        std::int64_t fault_id = 1 + static_cast<std::int64_t>(
                                        rnd(2048));
        a.emit(load(29, reg::kCtx,
                    0x3000 +
                        static_cast<std::int64_t>(rnd(511) * 8)));
        a.emit(add(29, 29, reg::kFault));
        b_err = a.emit(branchImm(Cond::Eq, 29, fault_id, 0));
    }

    for (FuncId c : cfg.hotCalls) {
        a.emit(call(c));
        if (rnd(2))
            a.emit(add(28, 24, 25));
    }

    unsigned b_var = ~0u;
    if (!cfg.variantCalls.empty())
        b_var = a.emit(branchImm(Cond::Ne, reg::kVariant, 0, 0));

    std::uint32_t tail = a.here();
    for (unsigned i = 0; i < cfg.stores; ++i) {
        a.emit(store(reg::kCtx,
                     static_cast<std::int64_t>(rnd(255) * 8),
                     static_cast<RegId>(24 + rnd(4))));
    }
    if (cfg.setRet)
        a.emit(movImm(reg::kRet, 0));
    a.emit(ret());

    if (b_var != ~0u) {
        a.patch(b_var, a.here());
        for (FuncId c : cfg.variantCalls)
            a.emit(call(c));
        a.emit(jump(tail));
    }
    if (b_err != ~0u) {
        a.patch(b_err, a.here());
        for (FuncId c : cfg.errorCalls)
            a.emit(call(c));
        a.emit(movImm(reg::kRet,
                      static_cast<std::int64_t>(-22))); // -EINVAL
        a.emit(jump(tail));
    }
    setBody(f, a.ops);
}

FuncId
KernelImage::genTree(const std::string &prefix, Subsystem ss,
                     unsigned depth, unsigned fanout,
                     double hot_fraction, FuncClass cls)
{
    FuncId root = newFunc(prefix, ss, cls);
    BodyCfg cfg;
    cfg.aluOps = 1 + static_cast<unsigned>(rnd(3));
    cfg.ctxLoads = 1 + static_cast<unsigned>(rnd(3));
    cfg.stores = static_cast<unsigned>(rnd(2));
    if (cls == FuncClass::Warm) {
        // Cold/error-path kernel functions (drivers, recovery code)
        // are substantially larger than hot fast paths; they never
        // execute on benign runs, but auditing them is what makes
        // unbounded gadget scanning slow.
        cfg.aluOps = cfg.aluOps * 2 + 4;
        cfg.ctxLoads = cfg.ctxLoads * 2 + 3;
        cfg.stores += 2;
    }

    if (depth > 0) {
        unsigned kids = 1 + static_cast<unsigned>(rnd(fanout));
        for (unsigned k = 0; k < kids; ++k) {
            bool hot_edge =
                cls == FuncClass::Hot && rndReal() < hot_fraction;
            FuncClass child_cls =
                cls == FuncClass::Cold
                    ? FuncClass::Cold
                    : (hot_edge ? FuncClass::Hot : FuncClass::Warm);
            FuncId child =
                genTree(prefix + "." + std::to_string(k), ss,
                        depth - 1, fanout, hot_fraction, child_cls);
            if (cls == FuncClass::Cold || hot_edge) {
                // Cold trees keep plain direct edges; hot edges are
                // executed.
                cfg.hotCalls.push_back(child);
            } else if (rnd(2)) {
                cfg.variantCalls.push_back(child);
            } else {
                cfg.errorCalls.push_back(child);
            }
        }
    }

    // Shared-infrastructure sprinkles.
    if (!libPool_.empty() && rndReal() < 0.45) {
        cfg.hotCalls.push_back(libPool_[rnd(libPool_.size())]);
    }
    if (!errorPool_.empty() && rndReal() < 0.35) {
        cfg.errorCalls.push_back(errorPool_[rnd(errorPool_.size())]);
    }

    genBody(root, cfg);
    return root;
}

void
KernelImage::buildPools()
{
    // Shared leaf helpers (locks, lists, string ops, rcu, ...).
    for (unsigned i = 0; i < 150; ++i) {
        FuncId f = newFunc("lib_" + std::to_string(i), Subsystem::Lib,
                           i < 50 ? FuncClass::Hot : FuncClass::Warm);
        BodyCfg cfg;
        cfg.aluOps = 1 + static_cast<unsigned>(rnd(2));
        cfg.ctxLoads = static_cast<unsigned>(rnd(3));
        cfg.stores = static_cast<unsigned>(rnd(2));
        genBody(f, cfg);
        libPool_.push_back(f);
    }

    // Error/cleanup handlers (called only from r14-gated paths).
    for (unsigned i = 0; i < 40; ++i) {
        FuncId f = newFunc("err_" + std::to_string(i),
                           Subsystem::Core, FuncClass::Warm);
        BodyCfg cfg;
        cfg.aluOps = 1;
        cfg.ctxLoads = 1;
        if (rnd(2))
            cfg.hotCalls.push_back(libPool_[rnd(libPool_.size())]);
        genBody(f, cfg);
        errorPool_.push_back(f);
    }
}

void
KernelImage::buildCore(Subsystem ss, unsigned size)
{
    auto ss_name = [](Subsystem s) -> std::string {
        switch (s) {
          case Subsystem::Security: return "sec";
          case Subsystem::Sched: return "sched";
          case Subsystem::Mm: return "mm";
          case Subsystem::Fs: return "fs";
          case Subsystem::Net: return "net";
          case Subsystem::Time: return "time";
          case Subsystem::Ipc: return "ipc";
          default: return "core";
        }
    };
    std::string base = ss_name(ss);

    std::size_t before = info_.size();
    unsigned n_anchors = std::max(2u, size / 30);
    std::vector<FuncId> anchors;
    std::vector<BodyCfg> acfg(n_anchors);
    for (unsigned i = 0; i < n_anchors; ++i) {
        anchors.push_back(newFunc(base + "_anchor_" +
                                      std::to_string(i),
                                  ss, FuncClass::Hot));
    }

    // Every anchor gets hot subtrees that actually execute.
    for (unsigned i = 0; i < n_anchors; ++i) {
        unsigned kids = 2 + static_cast<unsigned>(rnd(2));
        for (unsigned k = 0; k < kids; ++k) {
            FuncId r = genTree(base + "_a" + std::to_string(i) + "t" +
                                   std::to_string(k),
                               ss, 2, 2, 0.85, FuncClass::Hot);
            acfg[i].hotCalls.push_back(r);
        }
    }

    // Filler trees: statically reachable via variant edges only.
    unsigned guard = 0;
    while (info_.size() - before < size && guard++ < 10000) {
        FuncId r = genTree(base + "_f" + std::to_string(guard), ss,
                           1 + static_cast<unsigned>(rnd(2)), 2, 0.5,
                           FuncClass::Warm);
        acfg[rnd(n_anchors)].variantCalls.push_back(r);
    }

    // Cross-links between anchors keep the core connected in the
    // static call graph without executing. Links only point forward
    // so the call graph stays acyclic (fuzzers traverse variant
    // paths exhaustively).
    for (unsigned i = 0; i < n_anchors; ++i) {
        if (i + 1 < n_anchors) {
            acfg[i].variantCalls.push_back(
                anchors[i + 1 + rnd(n_anchors - i - 1)]);
        }
        acfg[i].errorCalls.push_back(
            errorPool_[rnd(errorPool_.size())]);
        genBody(anchors[i], acfg[i]);
    }

    unsigned idx = static_cast<unsigned>(ss);
    coreAnchors_[idx] = anchors;
    for (std::size_t f = before; f < info_.size(); ++f)
        coreFuncs_[idx].push_back(static_cast<FuncId>(f));
}

void
KernelImage::buildCores()
{
    buildCore(Subsystem::Security, 90);
    buildCore(Subsystem::Sched, 150);
    buildCore(Subsystem::Mm, 220);
    buildCore(Subsystem::Fs, 280);
    buildCore(Subsystem::Net, 300);
    buildCore(Subsystem::Time, 60);
    buildCore(Subsystem::Ipc, 60);
}

std::vector<FuncId>
KernelImage::pickAnchors(Subsystem ss, unsigned n)
{
    const auto &pool = coreAnchors_[static_cast<unsigned>(ss)];
    std::vector<FuncId> out;
    for (unsigned i = 0; i < n && i < pool.size(); ++i)
        out.push_back(pool[rnd(pool.size())]);
    return out;
}

void
KernelImage::buildWorkers()
{
    // poll/select scan: iterate r12 descriptors in the fd table.
    pollScanWorker_ =
        newFunc("poll_scan_worker", Subsystem::Fs, FuncClass::Hot);
    {
        Assembler &a = asm_.begin();
        a.emit(movImm(20, 0));
        std::uint32_t head = a.here();
        unsigned b = a.emit(branch(Cond::Ge, 20, reg::kArg1, 0));
        // pollfd entry in the fd table (L1-resident)...
        a.emit(shlImm(21, 20, 3));
        a.emit(andImm(21, 21, 0x7f8));
        a.emit(add(22, reg::kCtx, 21));
        a.emit(load(23, 22, 0x800));
        // ...and the struct file it references: slab objects whose
        // lines span the whole L1D, so the scan continuously misses
        // (what Delay-on-Miss pays for).
        a.emit(shlImm(27, 20, 7));
        a.emit(shlImm(26, 20, 6));
        a.emit(add(27, 27, 26));
        a.emit(andImm(27, 27, 0x7fc0));
        a.emit(add(28, reg::kArg2, 27));
        a.emit(load(29, 28, 16));
        a.emit(add(23, 23, 29));
        // Every 8th descriptor is "deep-processed": follow its ops
        // pointer — a dependent, tainted-address access whose result
        // feeds the readiness decision (the part STT pays for).
        a.emit(andImm(25, 20, 7));
        unsigned skip = a.emit(branchImm(Cond::Ne, 25, 0, 0));
        a.emit(load(26, 28, 0));
        a.emit(load(30, 26, 8));
        a.emit(add(23, 23, 30));
        a.patch(skip, a.here());
        // Readiness check: control-dependent on everything above.
        unsigned rdy = a.emit(branchImm(Cond::Ne, 23, 0, 0));
        a.emit(andImm(24, 23, 0xff));
        a.patch(rdy, a.here());
        a.emit(addImm(20, 20, 1));
        a.emit(jump(head));
        a.patch(b, a.here());
        a.emit(ret());
        setBody(pollScanWorker_, a.ops);
    }

    // read/write/send/recv copy: r12 cache lines from [r13].
    copyWorker_ =
        newFunc("uaccess_copy_worker", Subsystem::Lib, FuncClass::Hot);
    {
        Assembler &a = asm_.begin();
        a.emit(movImm(20, 0));
        std::uint32_t head = a.here();
        unsigned b = a.emit(branch(Cond::Ge, 20, reg::kArg1, 0));
        a.emit(shlImm(21, 20, 6));
        a.emit(add(22, reg::kArg2, 21));
        a.emit(load(23, 22, 0));
        // Fault check on every 4th copied word.
        a.emit(andImm(26, 20, 3));
        unsigned skip = a.emit(branchImm(Cond::Ne, 26, 0, 0));
        unsigned chk = a.emit(branchImm(Cond::Lt, 23,
                                        0x8000'0000'0000'0000ll, 0));
        a.emit(nop());
        a.patch(chk, a.here());
        a.patch(skip, a.here());
        a.emit(andImm(24, 21, 0xfc0));
        a.emit(add(25, reg::kCtx, 24));
        a.emit(store(25, 0x1000, 23));
        a.emit(addImm(20, 20, 1));
        a.emit(jump(head));
        a.patch(b, a.here());
        a.emit(ret());
        setBody(copyWorker_, a.ops);
    }

    // mmap/page-fault populate: touch r12 fresh pages at [r13].
    populateWorker_ =
        newFunc("mm_populate_worker", Subsystem::Mm, FuncClass::Hot);
    {
        Assembler &a = asm_.begin();
        // Zero/initialize 8 lines per fresh page; each touch is
        // checked (PTE/validity), and the first access per page is
        // DSV-cold — where Perspective's allocation-path overhead
        // comes from.
        a.emit(movImm(20, 0));
        a.emit(shlImm(26, reg::kArg1, 3));
        std::uint32_t head = a.here();
        unsigned b = a.emit(branch(Cond::Ge, 20, 26, 0));
        a.emit(shlImm(21, 20, 9));
        a.emit(add(22, reg::kArg2, 21));
        a.emit(store(22, 0, 20));
        // PTE/validity check once per page (first line only): the
        // check load hits the fresh — DSV-cold — page.
        a.emit(andImm(24, 20, 7));
        unsigned skip = a.emit(branchImm(Cond::Ne, 24, 0, 0));
        a.emit(load(23, 22, 8));
        unsigned chk = a.emit(branchImm(Cond::Ne, 23, 0, 0));
        a.emit(nop());
        a.patch(chk, a.here());
        a.patch(skip, a.here());
        a.emit(addImm(20, 20, 1));
        a.emit(jump(head));
        a.patch(b, a.here());
        a.emit(ret());
        setBody(populateWorker_, a.ops);
    }

    // big read/write copy: page-cache walk at 512-byte stride over a
    // 128 KB window — large enough to defeat the L1D, so miss-delay
    // schemes (DOM) and blanket fencing pay the DRAM/L2 latency.
    bigCopyWorker_ = newFunc("pagecache_copy_worker", Subsystem::Fs,
                             FuncClass::Hot);
    {
        Assembler &a = asm_.begin();
        a.emit(movImm(20, 0));
        std::uint32_t head = a.here();
        unsigned b = a.emit(branch(Cond::Ge, 20, reg::kArg1, 0));
        a.emit(shlImm(21, 20, 9));
        a.emit(andImm(21, 21, 0x1'fe00));
        a.emit(add(22, reg::kArg2, 21));
        a.emit(load(23, 22, 0));
        unsigned chk = a.emit(branchImm(Cond::Lt, 23,
                                        0x8000'0000'0000'0000ll, 0));
        a.emit(nop());
        a.patch(chk, a.here());
        a.emit(andImm(24, 21, 0xfc0));
        a.emit(add(25, reg::kCtx, 24));
        a.emit(store(25, 0x1000, 23));
        a.emit(addImm(20, 20, 1));
        a.emit(jump(head));
        a.patch(b, a.here());
        a.emit(ret());
        setBody(bigCopyWorker_, a.ops);
    }

    // fork copy: 8 lines per page, from [r11] (parent) to [r13]
    // (child's fresh pages — cold in every DSV structure).
    forkCopyWorker_ =
        newFunc("mm_fork_copy_worker", Subsystem::Mm, FuncClass::Hot);
    {
        Assembler &a = asm_.begin();
        a.emit(movImm(20, 0));
        a.emit(shlImm(26, reg::kArg1, 3));
        std::uint32_t head = a.here();
        unsigned b = a.emit(branch(Cond::Ge, 20, 26, 0));
        a.emit(shlImm(21, 20, 9));
        a.emit(add(22, reg::kArg0, 21));
        a.emit(load(23, 22, 0));
        // Reverse-map/PTE touch on the *child's* fresh page — cold
        // in every DSVMT structure.
        a.emit(add(24, reg::kArg2, 21));
        a.emit(load(25, 24, 8));
        // COW/refcount check depends on both source word and the
        // child page state.
        a.emit(add(23, 23, 25));
        unsigned chk = a.emit(branchImm(Cond::Ne, 23, 0, 0));
        a.emit(nop());
        a.patch(chk, a.here());
        a.emit(store(24, 0, 23));
        a.emit(addImm(20, 20, 1));
        a.emit(jump(head));
        a.patch(b, a.here());
        a.emit(ret());
        setBody(forkCopyWorker_, a.ops);
    }

    // Recursive path walk (open/stat): r13 levels deep. Depths beyond
    // the RSB capacity underflow it — the Retbleed surface.
    pathWalk_ = newFunc("fs_path_walk_recursive", Subsystem::Fs,
                        FuncClass::Hot);
    {
        Assembler &a = asm_.begin();
        unsigned b = a.emit(branchImm(Cond::Eq, reg::kArg2, 0, 0));
        a.emit(addImm(reg::kArg2, reg::kArg2, -1));
        a.emit(load(23, reg::kCtx, 0x1200));
        a.emit(call(pathWalk_));
        a.patch(b, a.here());
        a.emit(ret());
        setBody(pathWalk_, a.ops);
    }
}

void
KernelImage::buildIndirectImpls()
{
    // File-operation implementations for four filesystem types; only
    // type 0 is "mounted" (executed). None has a direct caller: they
    // are exactly the nodes static ISV analysis cannot reach.
    for (unsigned t = 0; t < 4; ++t) {
        for (unsigned slot = 0; slot < 6; ++slot) {
            FuncClass cls = t == 0 ? FuncClass::Hot : FuncClass::Cold;
            Subsystem ss = t == 0 ? Subsystem::Fs : Subsystem::Driver;
            FuncId root = genTree("fsimpl_t" + std::to_string(t) +
                                      "_s" + std::to_string(slot),
                                  ss, 1 + rnd(2) % 2, 2, 0.7, cls);
            fsImpls_[t].push_back(root);
        }
    }
    for (unsigned p = 0; p < 3; ++p) {
        for (unsigned slot = 0; slot < 5; ++slot) {
            FuncClass cls = p == 0 ? FuncClass::Hot : FuncClass::Cold;
            Subsystem ss = p == 0 ? Subsystem::Net : Subsystem::Misc;
            FuncId root = genTree("protoimpl_p" + std::to_string(p) +
                                      "_s" + std::to_string(slot),
                                  ss, 1, 2, 0.7, cls);
            netImpls_[p].push_back(root);
        }
    }

    // Dispatch stubs: load the ops pointer from rodata and call it.
    static const char *fs_ops[6] = {"read", "write", "open",
                                    "stat", "poll", "ioctl"};
    for (unsigned slot = 0; slot < 6; ++slot) {
        FuncId f = newFunc(std::string("vfs_dispatch_") +
                               fs_ops[slot],
                           Subsystem::Fs, FuncClass::Hot);
        Assembler &a = asm_.begin();
        a.emit(loadAbs(30, fopsSlotVa(0, slot)));
        vfsDispatchIcallIdx_[slot] = a.emit(indirectCall(30));
        a.emit(ret());
        setBody(f, a.ops);
        info_[f].indirectTargets.push_back(fsImpls_[0][slot]);
        vfsDispatch_[slot] = f;
    }
    static const char *net_ops[5] = {"send", "recv", "connect",
                                     "accept", "sockopt"};
    for (unsigned slot = 0; slot < 5; ++slot) {
        FuncId f = newFunc(std::string("proto_dispatch_") +
                               net_ops[slot],
                           Subsystem::Net, FuncClass::Hot);
        Assembler &a = asm_.begin();
        a.emit(loadAbs(30, protoOpsSlotVa(0, slot)));
        a.emit(indirectCall(30));
        a.emit(ret());
        setBody(f, a.ops);
        info_[f].indirectTargets.push_back(netImpls_[0][slot]);
        netDispatch_[slot] = f;
    }
}

void
KernelImage::buildEntryExit()
{
    // e0 -> {e1 (seccomp), e2 (ctx tracking), e3 (audit, variant)}.
    FuncId e3 = newFunc("entry_audit", Subsystem::Entry,
                        FuncClass::Warm);
    {
        BodyCfg cfg;
        cfg.ctxLoads = 2;
        cfg.hotCalls.push_back(libPool_[rnd(libPool_.size())]);
        genBody(e3, cfg);
    }
    FuncId e1 = newFunc("entry_seccomp", Subsystem::Entry,
                        FuncClass::Hot);
    {
        BodyCfg cfg;
        cfg.ctxLoads = 2;
        cfg.hotCalls = pickAnchors(Subsystem::Security, 1);
        cfg.errorCalls.push_back(errorPool_[rnd(errorPool_.size())]);
        genBody(e1, cfg);
    }
    FuncId e2 = newFunc("entry_ctx_track", Subsystem::Entry,
                        FuncClass::Hot);
    {
        BodyCfg cfg;
        cfg.ctxLoads = 1;
        cfg.hotCalls.push_back(libPool_[rnd(libPool_.size())]);
        genBody(e2, cfg);
    }
    FuncId e0 = newFunc("entry_common", Subsystem::Entry,
                        FuncClass::Hot);
    {
        BodyCfg cfg;
        cfg.ctxLoads = 2;
        cfg.hotCalls = {e1, e2};
        cfg.variantCalls = {e3};
        genBody(e0, cfg);
    }
    entryChain_ = {e0, e1, e2, e3};

    FuncId x1 = newFunc("exit_signal_check", Subsystem::Entry,
                        FuncClass::Hot);
    {
        BodyCfg cfg;
        cfg.ctxLoads = 1;
        genBody(x1, cfg);
    }
    FuncId x2 = newFunc("exit_resched_check", Subsystem::Entry,
                        FuncClass::Warm);
    {
        BodyCfg cfg;
        cfg.hotCalls = pickAnchors(Subsystem::Sched, 1);
        genBody(x2, cfg);
    }
    FuncId x0 = newFunc("exit_common", Subsystem::Entry,
                        FuncClass::Hot);
    {
        BodyCfg cfg;
        cfg.ctxLoads = 1;
        cfg.hotCalls = {x1};
        cfg.variantCalls = {x2};
        genBody(x0, cfg);
    }
    exitChain_ = {x0, x1, x2};
}

void
KernelImage::buildSyscallTrees()
{
    struct SysCfg
    {
        Subsystem ss = Subsystem::Core;
        unsigned anchors = 1;
        unsigned tree_depth = 2;
        FuncId worker = kNoFunc;
        FuncId dispatch = kNoFunc;
        bool path_walk = false;
        bool gadget = false; ///< concrete PoC gadget on the hot path
    };

    auto cfg_for = [&](Sys s) -> SysCfg {
        SysCfg c;
        c.anchors = 2;
        switch (s) {
          case Sys::Getpid:
          case Sys::Getuid:
          case Sys::Uname:
            c.ss = Subsystem::Sched;
            c.anchors = 0;
            c.tree_depth = 1;
            break;
          case Sys::GetTimeOfDay:
          case Sys::Nanosleep:
            c.ss = Subsystem::Time;
            break;
          case Sys::SchedYield:
          case Sys::Futex:
          case Sys::Wait:
          case Sys::Exit:
          case Sys::Kill:
          case Sys::Sigaction:
          case Sys::ThreadCreate:
            c.ss = Subsystem::Sched;
            break;
          case Sys::Ptrace:
            c.ss = Subsystem::Sched;
            c.gadget = true;
            break;
          case Sys::Fork:
          case Sys::BigFork:
            c.ss = Subsystem::Mm;
            c.anchors = 2;
            c.worker = forkCopyWorker_;
            break;
          case Sys::Mmap:
          case Sys::Brk:
          case Sys::PageFault:
            c.ss = Subsystem::Mm;
            c.worker = populateWorker_;
            break;
          case Sys::Munmap:
          case Sys::Mprotect:
            c.ss = Subsystem::Mm;
            break;
          case Sys::Open:
          case Sys::Stat:
            c.ss = Subsystem::Fs;
            c.path_walk = true;
            c.dispatch = vfsDispatch_[2]; // open slot
            break;
          case Sys::Read:
            c.ss = Subsystem::Fs;
            c.worker = copyWorker_;
            c.dispatch = vfsDispatch_[0];
            break;
          case Sys::BigRead:
            c.ss = Subsystem::Fs;
            c.worker = bigCopyWorker_;
            c.dispatch = vfsDispatch_[0];
            break;
          case Sys::Write:
          case Sys::Fsync:
            c.ss = Subsystem::Fs;
            c.worker = copyWorker_;
            c.dispatch = vfsDispatch_[1];
            break;
          case Sys::BigWrite:
            c.ss = Subsystem::Fs;
            c.worker = bigCopyWorker_;
            c.dispatch = vfsDispatch_[1];
            break;
          case Sys::Close:
          case Sys::Fstat:
          case Sys::Lseek:
          case Sys::Dup:
          case Sys::Readdir:
          case Sys::Pipe:
            c.ss = Subsystem::Fs;
            break;
          case Sys::Ioctl:
            c.ss = Subsystem::Fs;
            c.dispatch = vfsDispatch_[5];
            break;
          case Sys::Select:
          case Sys::Poll:
          case Sys::EpollWait:
            c.ss = Subsystem::Fs;
            c.worker = pollScanWorker_;
            c.dispatch = vfsDispatch_[4];
            break;
          case Sys::EpollCreate:
          case Sys::EpollCtl:
            c.ss = Subsystem::Fs;
            break;
          case Sys::Send:
          case Sys::SendTo:
            c.ss = Subsystem::Net;
            c.worker = copyWorker_;
            c.dispatch = netDispatch_[0];
            break;
          case Sys::Recv:
          case Sys::RecvFrom:
            c.ss = Subsystem::Net;
            c.worker = copyWorker_;
            c.dispatch = netDispatch_[1];
            break;
          case Sys::Socket:
          case Sys::Bind:
          case Sys::Listen:
          case Sys::Shutdown:
          case Sys::SetSockOpt:
            c.ss = Subsystem::Net;
            break;
          case Sys::Accept:
            c.ss = Subsystem::Net;
            c.dispatch = netDispatch_[3];
            break;
          case Sys::Connect:
            c.ss = Subsystem::Net;
            c.dispatch = netDispatch_[2];
            break;
          case Sys::Bpf:
            c.ss = Subsystem::Security;
            c.gadget = true;
            break;
          default:
            break;
        }
        return c;
    };

    for (unsigned i = 0; i < kNumSyscalls; ++i) {
        Sys s = static_cast<Sys>(i);
        SysCfg sc = cfg_for(s);
        std::string name{sysName(s)};

        FuncId entry = newFunc("sys_" + name + "_entry",
                               Subsystem::Entry, FuncClass::Hot);
        BodyCfg cfg;
        cfg.setRet = true;
        cfg.ctxLoads = 1;
        cfg.hotCalls.push_back(entryChain_[0]);
        for (FuncId a : pickAnchors(sc.ss, sc.anchors))
            cfg.hotCalls.push_back(a);

        // Private handler tree.
        unsigned n_trees = 3;
        for (unsigned t = 0; t < n_trees; ++t) {
            FuncId r = genTree("sys_" + name + "_h" +
                                   std::to_string(t),
                               sc.ss, sc.tree_depth + 1, 3, 0.7,
                               FuncClass::Hot);
            cfg.hotCalls.push_back(r);
        }
        // Warm (static-only) side tree.
        if (rnd(2)) {
            cfg.variantCalls.push_back(
                genTree("sys_" + name + "_w", sc.ss, 1, 2, 0.5,
                        FuncClass::Warm));
        }
        cfg.errorCalls.push_back(errorPool_[rnd(errorPool_.size())]);

        if (sc.gadget) {
            // Concrete PoC gadget function on the hot path.
            FuncId g = newFunc("sys_" + name + "_gadget",
                               sc.ss, FuncClass::Hot);
            BodyCfg gcfg;
            gcfg.ctxLoads = 1;
            gcfg.gadget = GadgetKind::Cache;
            genBody(g, gcfg);
            info_[g].gadgets.push_back(GadgetKind::Cache);
            ++totalGadgets_;
            cfg.hotCalls.push_back(g);
            if (s == Sys::Ptrace)
                pocPtraceGadget_ = g;
            else if (s == Sys::Bpf)
                pocBpfGadget_ = g;
        }
        if (sc.path_walk)
            cfg.hotCalls.push_back(pathWalk_);
        if (sc.dispatch != kNoFunc)
            cfg.hotCalls.push_back(sc.dispatch);
        if (sc.worker != kNoFunc)
            cfg.hotCalls.push_back(sc.worker);

        cfg.hotCalls.push_back(exitChain_[0]);
        genBody(entry, cfg);
        entries_[i] = entry;
    }

    // The ioctl dispatch target (fs type 0, slot 5) doubles as the
    // Xilinx-USB-style driver gadget (CVE-2022-27223 analogue): a
    // Spectre v1 gadget with an attacker-controlled index, reachable
    // from the ioctl hot path. Plant it on that impl root.
    pocDriverGadget_ = fsImpls_[0][5];
    plantGadgetIr(pocDriverGadget_, GadgetKind::Cache);
    info_[pocDriverGadget_].gadgets.push_back(GadgetKind::Cache);
    ++totalGadgets_;
}

void
KernelImage::buildColdBulk()
{
    static const Subsystem kColdSs[5] = {
        Subsystem::Driver, Subsystem::Crypto, Subsystem::Sound,
        Subsystem::Arch, Subsystem::Misc};
    unsigned module = 0;
    while (info_.size() < kTargetFunctions) {
        Subsystem ss = kColdSs[rnd(5)];
        genTree("mod" + std::to_string(module++), ss, 3, 3, 0.0,
                FuncClass::Cold);
    }

    // A cold driver function used as the hijack target in passive
    // attack PoCs: it loads the *current* task's secret and transmits
    // it — harmless architecturally (never called), lethal when the
    // victim's speculative control flow is steered into it.
    pocHijackGadget_ = newFunc("usb_audio_probe_gadget",
                               Subsystem::Driver, FuncClass::Cold);
    {
        Assembler &a = asm_.begin();
        a.emit(load(24, reg::kCtx, kSecretCtxOff));
        a.emit(shlImm(25, 24, 12));
        a.emit(addImm(26, 25,
                      static_cast<std::int64_t>(kSharedProbeBase)));
        a.emit(load(27, 26, 0));
        a.emit(ret());
        setBody(pocHijackGadget_, a.ops);
    }
    info_[pocHijackGadget_].gadgets.push_back(GadgetKind::Cache);
    ++totalGadgets_;
}

void
KernelImage::plantGadgetIr(FuncId f, GadgetKind kind)
{
    // Prepend the gadget snippet; all intra-function branch targets
    // shift by the snippet length. The snippet's own skip target is
    // relative to position 0 and stays valid after prepending.
    Assembler &a = asm_.begin();
    emitGadgetIr(a, kind);
    std::uint32_t shift = a.here();
    for (MicroOp op : prog_.func(f).body) {
        if (op.op == Op::Branch || op.op == Op::Jump)
            op.target += shift;
        a.emit(op);
    }
    setBody(f, a.ops);
}

void
KernelImage::plantGadgets()
{
    struct Quota
    {
        GadgetKind kind;
        unsigned total;
        double hot_frac;
        double warm_frac;
    };
    const Quota quotas[3] = {
        {GadgetKind::Mds, kMdsGadgets, 0.08, 0.06},
        {GadgetKind::Port, kPortGadgets, 0.08, 0.06},
        {GadgetKind::Cache, kCacheGadgets, 0.08, 0.12},
    };

    auto plant = [&](const std::vector<FuncId> &pool, unsigned n,
                     GadgetKind kind, bool with_ir) {
        for (unsigned i = 0; i < n && !pool.empty(); ++i) {
            FuncId f = pool[rnd(pool.size())];
            if (with_ir)
                plantGadgetIr(f, kind);
            info_[f].gadgets.push_back(kind);
            ++totalGadgets_;
        }
    };

    // Hot (traced, hence in-dynamic-ISV) gadgets live in the handler
    // trees of maintenance syscalls that processes touch at startup
    // but not in their request loops — matching the observation that
    // fuzzer-reachable gadgets sit in rarely-executed code. Excluding
    // them (ISV++) therefore barely perturbs steady-state execution.
    static const char *kStartupSysPrefixes[] = {
        "sys_brk_",      "sys_mprotect_", "sys_sigaction_",
        "sys_uname_",    "sys_getuid_",   "sys_gettimeofday_",
        "sys_nanosleep_","sys_futex_",    "sys_fstat_",
        "sys_lseek_",    "sys_dup_",      "sys_readdir_",
        "sys_pipe_",     "sys_kill_",
    };
    std::vector<FuncId> hot_startup;
    for (FuncId f : hotTreeFuncs_) {
        const std::string &n = prog_.func(f).name;
        for (const char *p : kStartupSysPrefixes) {
            if (n.rfind(p, 0) == 0) {
                hot_startup.push_back(f);
                break;
            }
        }
    }
    if (hot_startup.empty())
        hot_startup = hotTreeFuncs_; // defensive fallback

    for (const Quota &q : quotas) {
        unsigned hot = static_cast<unsigned>(q.total * q.hot_frac);
        unsigned warm = static_cast<unsigned>(q.total * q.warm_frac);
        unsigned cold = q.total - hot - warm;
        // Hot gadgets get real IR (they can execute); warm/cold
        // gadgets are metadata-only — they never run architecturally
        // and PoCs use dedicated concrete gadgets.
        plant(hot_startup, hot, q.kind, true);
        plant(warmTreeFuncs_, warm, q.kind, false);
        plant(coldFuncs_, cold, q.kind, false);
    }
}

void
KernelImage::writeRodataTables()
{
    for (unsigned t = 0; t < 4; ++t) {
        for (unsigned slot = 0; slot < 6; ++slot)
            mem_.write(fopsSlotVa(t, slot), fsImpls_[t][slot]);
    }
    for (unsigned p = 0; p < 3; ++p) {
        for (unsigned slot = 0; slot < 5; ++slot)
            mem_.write(protoOpsSlotVa(p, slot), netImpls_[p][slot]);
    }
}

} // namespace perspective::kernel
