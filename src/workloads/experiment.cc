#include "experiment.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kernel/process.hh"

namespace perspective::workloads
{

using kernel::Pid;
using kernel::Sys;
using sim::FuncId;

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Unsafe: return "unsafe";
      case Scheme::Fence: return "fence";
      case Scheme::Dom: return "dom";
      case Scheme::Stt: return "stt";
      case Scheme::Spot: return "spot";
      case Scheme::SpecCfi: return "spec-cfi";
      case Scheme::InvisiSpec: return "invisispec";
      case Scheme::PerspectiveStatic: return "perspective-static";
      case Scheme::Perspective: return "perspective";
      case Scheme::PerspectivePlusPlus: return "perspective++";
    }
    return "?";
}

std::vector<Scheme>
allSchemes()
{
    return {Scheme::Unsafe,           Scheme::Fence,
            Scheme::Dom,              Scheme::Stt,
            Scheme::Spot,             Scheme::SpecCfi,
            Scheme::PerspectiveStatic, Scheme::Perspective,
            Scheme::PerspectivePlusPlus};
}

namespace
{

bool
isPerspective(Scheme s)
{
    return s == Scheme::PerspectiveStatic ||
           s == Scheme::Perspective ||
           s == Scheme::PerspectivePlusPlus;
}

} // namespace

Experiment::Experiment(const WorkloadProfile &profile, Scheme scheme,
                       std::uint64_t seed,
                       sim::SamplingParams sampling,
                       core::PerspectiveConfig perspective)
    : profile_(profile), scheme_(scheme)
{
    if (!isPerspective(scheme) &&
        perspective != core::PerspectiveConfig{}) {
        throw std::invalid_argument(
            std::string("Experiment: scheme '") + schemeName(scheme) +
            "' runs no PerspectivePolicy to configure");
    }

    // The booted image (built once per seed per process when snapshot
    // reuse is on): restore its memory contents copy-on-write instead
    // of re-generating and re-laying-out ~28k kernel functions.
    boot_ = BootImage::forSeed(seed);
    img_ = &boot_->image();
    drivers_ = &boot_->drivers();
    mem_.restore(boot_->memoryImage());

    kernel::KernelParams kp;
    kp.secureSlab = isPerspective(scheme);
    ks_ = std::make_unique<kernel::KernelState>(mem_, kp);
    exec_ = std::make_unique<kernel::SyscallExecutor>(*ks_, *img_);

    // The measured tenant plus a co-located victim tenant whose
    // memory must stay confidential, and a background tenant for
    // allocator realism.
    kernel::CgroupId cg_main = ks_->createCgroup(profile.name);
    kernel::CgroupId cg_victim = ks_->createCgroup("victim-tenant");
    kernel::CgroupId cg_bg = ks_->createCgroup("background");
    mainPid_ = ks_->createProcess(cg_main);
    victimPid_ = ks_->createProcess(cg_victim);
    (void)ks_->createProcess(cg_bg);

    // Give the victim a secret in its context block.
    mem_.write(ks_->task(victimPid_).ctxVa +
                   kernel::KernelImage::kSecretCtxOff,
               0x5e);

    sim::PipelineParams pp;
    pp.sampling = sampling;
    cpu_ = std::make_unique<sim::Pipeline>(img_->program(), mem_, pp);
    interp_ = std::make_unique<kernel::Interpreter>(img_->program(),
                                                    mem_);

    // Scheme wiring.
    switch (scheme_) {
      case Scheme::Unsafe: break;
      case Scheme::Fence:
        policy_ = std::make_unique<defenses::FencePolicy>();
        break;
      case Scheme::Dom:
        policy_ = std::make_unique<defenses::DomPolicy>();
        break;
      case Scheme::Stt:
        policy_ = std::make_unique<defenses::SttPolicy>();
        break;
      case Scheme::Spot:
        policy_ = std::make_unique<defenses::SpotMitigationPolicy>();
        break;
      case Scheme::SpecCfi:
        policy_ = std::make_unique<defenses::SpecCfiPolicy>();
        break;
      case Scheme::InvisiSpec:
        policy_ = std::make_unique<defenses::InvisiSpecPolicy>();
        break;
      case Scheme::PerspectiveStatic:
      case Scheme::Perspective:
      case Scheme::PerspectivePlusPlus: {
        buildIsv();
        auto pol = std::make_unique<core::PerspectivePolicy>(
            ks_->ownership(), perspective, schemeName(scheme_));
        perspective_ = pol.get();
        policy_ = std::move(pol);
        // Timestamp source for deferred revocations / fleet flips;
        // with the default revocationLatency of 0 every update path
        // stays synchronous and nothing changes.
        perspective_->setClock(cpu_->cyclePtr());
        registerPerspectiveContext(mainPid_);
        registerPerspectiveContext(victimPid_);
        break;
      }
    }

    cpu_->setPolicy(policy_.get());

    // Transient-leakage ground truth (DESIGN §5.6), armed for every
    // scheme: a speculative kernel load is "secret" when a correct,
    // fully-synchronized policy would have blocked it — its function
    // is outside the context's ISV (when the scheme builds one), or
    // its target page is outside the context's DSV-reachable set
    // (another domain's frame, or unknown provenance). Pure lookups
    // only: the closure must not perturb simulated state.
    cpu_->leakLedger().setClassifier(
        [this, mruAsid = sim::Asid{0xffff},
         mruDom = kernel::kDomainUnknown](
            sim::Addr va, FuncId func, sim::Asid asid,
            sim::Cycle) mutable -> sim::SecretVerdict {
            bool secret = false;
            if (isv_ && func != sim::kNoFunc &&
                !isv_->containsFunction(func))
                secret = true;
            if (!secret && kernel::inDirectMap(va)) {
                kernel::DomainId owner =
                    ks_->ownership().ownerOfVa(va);
                if (owner != kernel::kDomainReplicated) {
                    if (asid != mruAsid) {
                        mruAsid = asid;
                        mruDom = ks_->domainOfAsid(asid);
                    }
                    // Unknown provenance is conservatively secret
                    // (the blockUnknown ground truth).
                    if (owner != mruDom)
                        secret = true;
                }
            }
            if (!secret)
                return {};
            // Attribute the stale allow to the dynamic-update window
            // that made it possible. The *active* policy is consulted
            // (PoCs lease replacement policies onto the pipeline).
            const sim::SpeculationPolicy *p = cpu_->policy();
            return {true, p ? p->updateWindow(va, asid)
                            : sim::LeakWindow::Baseline};
        });

    const kernel::Task &t = ks_->task(mainPid_);
    cpu_->setAsid(t.asid);
    cpu_->setKernelStackBase(t.stackTopVa);
    cpu_->setReg(dreg::kUserBuf, 0x3000'0000 + t.pid * 0x10'0000);
}

void
Experiment::buildIsv()
{
    if (scheme_ == Scheme::PerspectiveStatic) {
        core::StaticIsvBuilder builder(*img_);
        std::set<Sys> sys;
        for (Sys s : staticSyscallSet(profile_))
            sys.insert(s);
        isv_.emplace(builder.build(sys));
        return;
    }

    // Dynamic ISV: trace the process lifecycle (startup + steady
    // state) offline, like the kernel tracing subsystem would.
    core::DynamicIsvBuilder builder(*img_);
    std::function<void(FuncId)> observe = [&](FuncId f) {
        builder.observe(f);
    };
    for (const auto &inv : processStartupTrace())
        traceInvocation(inv, observe);
    for (unsigned i = 0; i < 3; ++i)
        traceRequest(observe);
    isv_.emplace(builder.build());

    if (scheme_ == Scheme::PerspectivePlusPlus) {
        // ISV++: exclude every gadget function the (ISV-bounded)
        // audit reports. The bounded scanner deterministically finds
        // all planted gadgets inside the view (see
        // analysis/scanner.cc), so the exclusion set equals the
        // in-view gadget functions.
        std::vector<FuncId> vulnerable;
        for (FuncId f : img_->functionsWithGadgets()) {
            if (isv_->containsFunction(f))
                vulnerable.push_back(f);
        }
        core::applyAudit(*isv_, vulnerable);
    }
}

void
Experiment::registerPerspectiveContext(Pid pid)
{
    if (!perspective_)
        return;
    const kernel::Task &t = ks_->task(pid);
    perspective_->registerContext(t.asid, t.domain,
                                  isv_ ? &*isv_ : nullptr);
}

void
Experiment::traceRequest(
    const std::function<void(FuncId)> &on_func)
{
    for (const auto &inv : profile_.request)
        traceInvocation(inv, on_func);
}

void
Experiment::traceInvocation(
    const kernel::SyscallInvocation &inv,
    const std::function<void(FuncId)> &on_func)
{
    // reset() zeroes every register, kPadIters included: prepare()
    // sets only the syscall argument registers.
    auto prep = exec_->prepare(mainPid_, inv);
    interp_->reset();
    for (auto [r, v] : prep.regs)
        interp_->setReg(r, v);
    interp_->run(img_->entryOf(inv.sys), 2'000'000, on_func);
    exec_->finish(mainPid_, inv);
}

sim::RunResult
Experiment::runRequestOnPipeline()
{
    return runRequestAs(mainPid_);
}

sim::RunResult
Experiment::runRequestAs(Pid pid)
{
    const kernel::Task &t = ks_->task(pid);
    cpu_->setAsid(t.asid);
    cpu_->setKernelStackBase(t.stackTopVa);
    cpu_->setReg(dreg::kUserBuf, 0x3000'0000 + t.pid * 0x10'0000);

    sim::RunResult total;
    for (const auto &inv : profile_.request) {
        auto r = runSyscall(pid, inv, profile_.userPadIters);
        total.cycles += r.cycles;
        total.instructions += r.instructions;
    }
    return total;
}

sim::RunResult
Experiment::runSyscall(Pid pid, const kernel::SyscallInvocation &inv,
                       std::uint64_t pad_iters,
                       std::optional<std::uint64_t> arg0)
{
    auto prep = exec_->prepare(pid, inv);
    for (auto [r, v] : prep.regs)
        cpu_->setReg(r, v);
    cpu_->setReg(dreg::kPadIters, pad_iters);
    if (arg0)
        cpu_->setReg(kernel::reg::kArg0, *arg0);
    auto r = cpu_->run(drivers_->driverFor(inv.sys));
    exec_->finish(pid, inv);
    return r;
}

sim::LeakageSummary
Experiment::leakageSummary() const
{
    sim::LeakageSummary out = cpu_->leakLedger().summary();
    for (auto &g : out.topGadgets) {
        if (g.func != sim::kNoFunc)
            g.funcName = cpu_->program().func(g.func).name;
        if (g.entryFunc != sim::kNoFunc)
            g.entryName = cpu_->program().func(g.entryFunc).name;
    }
    return out;
}

RunResult
Experiment::run(unsigned iterations, unsigned warmup)
{
    for (unsigned i = 0; i < warmup; ++i)
        runRequestOnPipeline();

    // Warmup must leave the microarchitectural state warm but the
    // accounting cold: zero every stat counter and the lookup
    // bookkeeping of the pipeline's active policy (cells may lease
    // their own; cached entries survive) so the result — including
    // the StatSet snapshot it carries and the cache hit rates —
    // covers only measured work.
    sim::StatSet &st = cpu_->stats();
    st.clear();
    cpu_->leakLedger().reset();
    // The sampling phase machine anchors on the committed counter
    // just cleared; re-anchoring also opens the measured phase with a
    // fresh detailed window and an empty estimator.
    cpu_->resetSampling();
    sim::SpeculationPolicy *pol = cpu_->policy();
    if (pol)
        pol->resetAccounting();

    RunResult out;
    for (unsigned i = 0; i < iterations; ++i) {
        auto r = runRequestOnPipeline();
        out.cycles += r.cycles;
    }
    out.instructions = st.get("committed");
    out.kernelInstructions = st.get("committed.kernel");
    out.fences = st.get("fences");
    out.isvFences = st.get("perspective.fence.isv");
    out.dsvFences = st.get("perspective.fence.dsv");
    if (auto a = pol ? pol->accounting() : std::nullopt) {
        out.isvCacheHitRate = a->isvHitRate;
        out.dsvCacheHitRate = a->dsvHitRate;
        // DSVMT-walk MRU-granule telemetry rides along in the cell
        // stats so sweeps (and bench_report) can report it.
        st.inc("dsvmt.mru.hits", a->dsvmtMruHits);
        st.inc("dsvmt.mru.lookups", a->dsvmtMruLookups);
    }
    out.stats = st;
    out.leakage = leakageSummary();

    // Sampled mode (DESIGN §5.8): the accumulated cycle count covers
    // only the detailed windows; the reported total is the estimate
    // cpiMean x committed instructions, carried with its confidence
    // interval. An infinite window is the warming-equivalence
    // configuration — every instruction ran detailed, so the
    // measured cycles are already exact and no extrapolation applies.
    const sim::SamplingParams &sp = cpu_->params().sampling;
    if (cpu_->sampledMode() &&
        sp.windowInsts != sim::SamplingParams::kInfiniteWindow) {
        if (cpu_->sampler().windows() == 0) {
            // Stream too short for one full window: fold the open
            // partial window in rather than report zero cycles.
            cpu_->flushSampleWindow();
        }
        const sim::SamplingEstimator &est = cpu_->sampler();
        if (est.windows() > 0) {
            out.sampling.active = true;
            out.sampling.windows = est.windows();
            out.sampling.windowInsts = sp.windowInsts;
            out.sampling.warmingInsts = sp.warmingInsts;
            out.sampling.periodInsts = sp.periodInsts;
            out.sampling.cpiMean = est.cpiMean();
            out.sampling.cpiCi95 = est.cpiCi95();
            out.sampling.relError = est.relError();
            out.sampling.sampledInsts = est.sampledInsts();
            out.sampling.measuredCycles = out.cycles;
            out.cycles = static_cast<sim::Cycle>(std::llround(
                est.cpiMean() *
                static_cast<double>(out.instructions)));
        }
    }
    return out;
}

} // namespace perspective::workloads
