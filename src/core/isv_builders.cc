#include "isv_builders.hh"

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

std::vector<FuncId>
StaticIsvBuilder::closure(const std::vector<FuncId> &roots) const
{
    // Breadth-first over a FuncId bitmap; the visit list doubles as
    // the worklist (everything before `next` has been expanded).
    std::vector<bool> seen(img_.numKernelFunctions());
    std::vector<FuncId> out;
    auto visit = [&](FuncId f) {
        if (!seen[f]) {
            seen[f] = true;
            out.push_back(f);
        }
    };
    for (FuncId r : roots)
        visit(r);
    for (std::size_t next = 0; next < out.size(); ++next) {
        for (FuncId c : img_.info(out[next]).callees)
            visit(c);
    }
    return out;
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
    // The view is its own visited set: a function is included when
    // it is queued, and the queue is the list of included functions.
    ExtendStats st;
    std::vector<FuncId> added;
    auto visit = [&](FuncId f) {
        ++st.visited;
        // Already-included functions bound the delta: their own
        // closure is in the view by construction, so the walk stops
        // at the frontier instead of re-crawling it.
        if (!view.containsFunction(f)) {
            view.includeFunction(f);
            added.push_back(f);
        }
    };
    for (FuncId r : roots)
        visit(r);
    for (std::size_t next = 0; next < added.size(); ++next) {
        for (FuncId c : img_.info(added[next]).callees)
            visit(c);
    }
    st.added = added.size();
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
