/**
 * @file
 * Allocation guards. The detailed loop: once a Pipeline has run a
 * program twice, a further run makes no heap allocation — call-stack
 * checkpoints, wake edges, the seq-ordered side queues and the
 * completion calendar all reuse what the warm runs left. A measured
 * cell: once an Experiment has served a few requests, a further
 * request makes none either — the syscall executor hands registers
 * over in a fixed array and a task's regions outlive the request.
 * Replaces the global operator new of this binary (its own test
 * executable) to count calls.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "defenses/schemes.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"
#include "support/program_gen.hh"
#include "workloads/experiment.hh"

namespace
{
std::atomic<std::uint64_t> gNews{0};
} // namespace

void *
operator new(std::size_t n)
{
    gNews.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

using namespace perspective;
using namespace perspective::sim;

namespace
{

/** Turn about every eighth data-register ALU op of the kernel
 * functions into a fence: op for op, so no branch target moves, and
 * never a loop counter (r7) or call-target (r9) write, so every loop
 * still ends. */
void
addFences(Program &prog)
{
    for (FuncId f = 1; f < prog.numFunctions(); ++f) {
        auto &body = prog.func(f).body;
        for (std::size_t i = 3; i < body.size(); i += 8)
            if (body[i].op == Op::IntAlu && body[i].dst >= 1 &&
                body[i].dst <= 6)
                body[i] = fence();
    }
    prog.layout();
}

std::size_t
countOps(const Program &prog, Op op)
{
    std::size_t n = 0;
    for (FuncId f = 0; f < prog.numFunctions(); ++f)
        for (const MicroOp &m : prog.func(f).body)
            n += m.op == op;
    return n;
}

} // namespace

TEST(AllocGuard, WarmPipelineRunAllocatesNothing)
{
    defenses::FencePolicy fence;
    defenses::DomPolicy dom;
    defenses::SttPolicy stt;
    defenses::InvisiSpecPolicy invisi;
    const std::pair<const char *, SpeculationPolicy *> schemes[] = {
        {"unsafe", nullptr}, {"fence", &fence}, {"dom", &dom},
        {"stt", &stt},       {"invisispec", &invisi}};

    for (std::uint64_t seed : {3u, 11u, 29u}) {
        testsupport::ProgramGen gen(seed * 31 + 7);
        Program prog = gen.make(6);
        addFences(prog);
        ASSERT_GT(countOps(prog, Op::Call) + countOps(prog, Op::IndirectCall),
                  0u);
        ASSERT_GT(countOps(prog, Op::Store), 0u);
        ASSERT_GT(countOps(prog, Op::Fence), 0u);

        for (auto [name, policy] : schemes) {
            SCOPED_TRACE(std::string(name) + " seed " +
                         std::to_string(seed));
            Memory mem;
            for (unsigned i = 0; i < 64; ++i)
                mem.write(0x100000 + i * 8, i * 3 + 1);
            PipelineParams params;
            params.maxCycles = 1'000'000; // fail fast on a wedge
            Pipeline cpu(prog, mem, params);
            cpu.setPolicy(policy);
            cpu.run(0);
            cpu.run(0);
            const std::uint64_t before = gNews.load();
            RunResult r = cpu.run(0);
            EXPECT_EQ(gNews.load() - before, 0u);
            EXPECT_GT(r.instructions, 0u);
        }
    }
}

TEST(AllocGuard, WarmExperimentRequestAllocatesNothing)
{
    // The LEBench cells whose requests keep no growing state. The
    // other seven allocate on every request, at these sites:
    // - fork, big-fork, thread-create: KernelState::createProcess
    //   builds the child's Task (its vectors and its slab objects);
    // - mmap: the task's userPages grows, and Pipeline::run writes
    //   fresh sim::Memory pages into each newly mapped region;
    // - select, poll, epoll: a ROB slot's first wake-overflow growth
    //   (registerDispatch -> addWake) lands in later requests too.
    const char *const cells[] = {
        "getpid",    "ctx-switch", "read",   "write",
        "big-read",  "big-write",  "munmap", "page-fault",
        "open",      "stat",       "send",   "recv"};
    const auto suite = workloads::lebenchSuite();
    for (const char *name : cells) {
        auto w = std::find_if(suite.begin(), suite.end(),
                              [name](const auto &p) {
                                  return p.name == name;
                              });
        ASSERT_NE(w, suite.end()) << name;
        for (workloads::Scheme scheme : workloads::allSchemes()) {
            SCOPED_TRACE(std::string(name) + " under " +
                         workloads::schemeName(scheme));
            workloads::Experiment e(*w, scheme);
            for (int i = 0; i < 3; ++i)
                e.runRequestOnPipeline();
            const std::uint64_t before = gNews.load();
            std::uint64_t insts = 0;
            for (int i = 0; i < 4; ++i)
                insts += e.runRequestOnPipeline().instructions;
            EXPECT_EQ(gNews.load() - before, 0u);
            EXPECT_GT(insts, 0u);
        }
    }
}
