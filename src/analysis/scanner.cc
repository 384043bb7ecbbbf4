#include "scanner.hh"

#include "kernel/process.hh"

namespace perspective::analysis
{

using kernel::Sys;
using sim::FuncId;

std::uint64_t
GadgetScanner::rnd(std::uint64_t bound)
{
    rngState_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = rngState_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return bound ? z % bound : z;
}

ScanResult
GadgetScanner::scan(const ScannerConfig &cfg,
                    const core::IsvView *bound)
{
    rngState_ = cfg.seed * 0x2545f4914f6cdd1dull + 99;
    ScanResult res;
    std::unordered_set<FuncId> covered;
    double sim_seconds = 0;

    kernel::Interpreter in(img_.program(), mem_);
    for (unsigned e = 0; e < cfg.executions; ++e) {
        // Syzkaller-style input generation: random syscall, random
        // arguments, and the error/variant knobs that steer execution
        // into cold handler paths.
        kernel::SyscallInvocation inv;
        inv.sys = static_cast<Sys>(rnd(kernel::kNumSyscalls));
        inv.arg0 = rnd(64);
        inv.arg1 = rnd(32) + 1;
        inv.arg2 = rnd(4) + 1;

        auto prep = exec_.prepare(pid_, inv);
        in.reset();
        for (auto [r, v] : prep.regs)
            in.setReg(r, v);
        // Flip the knobs on most executions to explore error paths
        // and variants, as a feedback-driven fuzzer ends up doing:
        // r14 selects one fault-injection site, r15 widens traversal
        // into variant paths.
        in.setReg(kernel::reg::kFault,
                  rnd(2) ? 1 + rnd(2048) : 0);
        in.setReg(kernel::reg::kVariant, rnd(2));
        in.setDryStores(true);

        std::uint64_t analysis_uops = 0;
        auto on_func = [&](FuncId f) {
            if (bound && !bound->containsFunction(f))
                return; // outside the ISV: cannot execute
                        // speculatively, no need to audit
            if (!covered.insert(f).second)
                return; // already instrumented+analyzed
            const auto &body = img_.program().func(f).body;
            analysis_uops += body.size();
            ++res.functionsAnalyzed;
            for (kernel::GadgetKind k : img_.info(f).gadgets) {
                ++res.gadgetsFound;
                switch (k) {
                  case kernel::GadgetKind::Mds:
                    ++res.mdsFound;
                    break;
                  case kernel::GadgetKind::Port:
                    ++res.portFound;
                    break;
                  case kernel::GadgetKind::Cache:
                    ++res.cacheFound;
                    break;
                }
            }
            if (!img_.info(f).gadgets.empty())
                res.vulnerableFunctions.push_back(f);
        };

        auto r = in.run(img_.entryOf(inv.sys), 500'000, on_func);
        exec_.finish(pid_, inv);

        sim_seconds += cfg.perExecCostSec;
        sim_seconds += r.uops * cfg.execCostSec;
        sim_seconds += analysis_uops * cfg.analysisCostSec;
        ++res.executions;
    }

    res.simHours = sim_seconds / 3600.0;
    return res;
}

} // namespace perspective::analysis
