#include "isv_builders.hh"

#include <deque>

namespace perspective::core
{

using kernel::Sys;
using sim::FuncId;

std::set<Sys>
StaticIsvBuilder::syscallsOfBinary(
    const std::vector<FuncId> &user_funcs) const
{
    // Map each kernel entry function back to its syscall.
    std::set<Sys> out;
    const sim::Program &prog = img_.program();
    for (FuncId uf : user_funcs) {
        for (const sim::MicroOp &op : prog.func(uf).body) {
            if (op.op != sim::Op::Call)
                continue;
            for (unsigned s = 0; s < kernel::kNumSyscalls; ++s) {
                if (img_.entryOf(static_cast<Sys>(s)) == op.callee)
                    out.insert(static_cast<Sys>(s));
            }
        }
    }
    return out;
}

std::unordered_set<FuncId>
StaticIsvBuilder::closure(const std::vector<FuncId> &roots) const
{
    std::unordered_set<FuncId> seen;
    std::deque<FuncId> work(roots.begin(), roots.end());
    for (FuncId r : roots)
        seen.insert(r);
    while (!work.empty()) {
        FuncId f = work.front();
        work.pop_front();
        for (FuncId c : img_.info(f).callees) {
            if (seen.insert(c).second)
                work.push_back(c);
        }
    }
    return seen;
}

IsvView
StaticIsvBuilder::build(const std::set<Sys> &syscalls) const
{
    std::vector<FuncId> roots;
    for (Sys s : syscalls)
        roots.push_back(img_.entryOf(s));
    IsvView view(img_.program());
    for (FuncId f : closure(roots))
        view.includeFunction(f);
    return view;
}

StaticIsvBuilder::ExtendStats
StaticIsvBuilder::extendView(IsvView &view,
                             const std::vector<FuncId> &roots) const
{
    ExtendStats st;
    std::deque<FuncId> work;
    std::unordered_set<FuncId> queued;
    for (FuncId r : roots) {
        ++st.visited;
        if (!view.containsFunction(r) && queued.insert(r).second)
            work.push_back(r);
    }
    while (!work.empty()) {
        FuncId f = work.front();
        work.pop_front();
        view.includeFunction(f);
        ++st.added;
        for (FuncId c : img_.info(f).callees) {
            ++st.visited;
            // Already-included functions bound the delta: their own
            // closure is in the view by construction, so the walk
            // stops at the frontier instead of re-crawling it.
            if (!view.containsFunction(c) && queued.insert(c).second)
                work.push_back(c);
        }
    }
    return st;
}

IsvView
DynamicIsvBuilder::build() const
{
    IsvView view(img_.program());
    for (FuncId f = 0; f < seen_.size(); ++f) {
        if (seen_[f])
            view.includeFunction(f);
    }
    return view;
}

void
applyAudit(IsvView &view, const std::vector<FuncId> &vulnerable)
{
    for (FuncId f : vulnerable)
        view.excludeFunction(f);
}

} // namespace perspective::core
