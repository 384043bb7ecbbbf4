#include "interp.hh"

namespace perspective::kernel
{

using namespace sim;

/** Tracing: the interpreter's own frame vector, function-entry
 * reports and dry stores. */
struct Interpreter::TraceHooks : FunctionalHooks
{
    std::vector<Frame> &stack;
    const std::function<void(FuncId)> &onFunc;
    bool dryStores;

    bool store(Addr) { return !dryStores; }

    void
    call(const Function &caller, std::uint32_t idx, FuncId callee)
    {
        stack.push_back({caller.id, idx + 1});
        if (onFunc)
            onFunc(callee);
    }

    bool
    ret(FuncId &func, std::uint32_t &idx)
    {
        if (stack.empty())
            return false;
        func = stack.back().func;
        idx = stack.back().idx;
        stack.pop_back();
        return true;
    }
};

Interpreter::Result
Interpreter::run(FuncId entry, std::uint64_t max_uops,
                 const std::function<void(FuncId)> &on_func)
{
    stack_.clear();
    if (on_func)
        on_func(entry);
    TraceHooks hooks{{}, stack_, on_func, dryStores_};
    FuncId func = entry;
    std::uint32_t idx = 0;
    FunctionalResult r =
        runFunctional(prog_, mem_, regs_, func, idx, max_uops, hooks);
    return {r.uops, r.returned};
}

} // namespace perspective::kernel
