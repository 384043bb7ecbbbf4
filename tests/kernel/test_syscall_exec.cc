#include <gtest/gtest.h>

#include "kernel/process.hh"
#include "kernel/syscall_exec.hh"

using namespace perspective::kernel;
namespace sim = perspective::sim;

namespace
{

struct ExecFixture : ::testing::Test
{
    sim::Memory mem;
    KernelImage img{mem, 42};
    std::unique_ptr<KernelState> ks;
    std::unique_ptr<SyscallExecutor> exec;
    Pid pid = 0;

    ExecFixture()
    {
        img.program().layout();
        ks = std::make_unique<KernelState>(mem);
        pid = ks->createProcess(ks->createCgroup("t"));
        exec = std::make_unique<SyscallExecutor>(*ks, img);
    }

    std::uint64_t
    regOf(const PreparedSyscall &p, unsigned r)
    {
        // Assignments apply in order; the last one wins (syscall-
        // specific values override the baseline argument setup).
        bool found = false;
        std::uint64_t out = 0;
        for (auto [reg, val] : p.regs) {
            if (reg == r) {
                out = val;
                found = true;
            }
        }
        if (!found)
            ADD_FAILURE() << "register " << r << " not prepared";
        return out;
    }
};

} // namespace

TEST_F(ExecFixture, BaselineRegistersAlwaysSet)
{
    auto p = exec->prepare(pid, {Sys::Getpid, 0, 0, 0});
    EXPECT_EQ(regOf(p, reg::kCtx), ks->task(pid).ctxVa);
    EXPECT_EQ(regOf(p, reg::kPerCpu), ks->perCpuBase());
    EXPECT_EQ(regOf(p, reg::kFault), 0u);
    exec->finish(pid, {Sys::Getpid, 0, 0, 0});
}

TEST_F(ExecFixture, MmapAllocatesOwnedRegion)
{
    std::uint64_t before = ks->buddy().allocatedFrames();
    SyscallInvocation inv{Sys::Mmap, 2, 0, 0}; // order 2 = 4 pages
    auto p = exec->prepare(pid, inv);
    EXPECT_EQ(regOf(p, reg::kArg1), 4u);
    Addr base = regOf(p, reg::kArg2);
    EXPECT_EQ(ks->ownership().ownerOfVa(base), ks->domainOf(pid));
    exec->finish(pid, inv);
    EXPECT_EQ(ks->buddy().allocatedFrames(), before + 4);
}

TEST_F(ExecFixture, PageFaultIsTransient)
{
    std::uint64_t before = ks->buddy().allocatedFrames();
    SyscallInvocation inv{Sys::PageFault, 0, 0, 0};
    exec->prepare(pid, inv);
    EXPECT_GT(ks->buddy().allocatedFrames(), before);
    exec->finish(pid, inv);
    EXPECT_EQ(ks->buddy().allocatedFrames(), before);
}

TEST_F(ExecFixture, ForkCreatesAndReapsChild)
{
    std::size_t tasks_before = ks->numTasks();
    SyscallInvocation inv{Sys::Fork, 0, 0, 0};
    auto p = exec->prepare(pid, inv);
    EXPECT_EQ(ks->numTasks(), tasks_before + 1);
    // Child ctx is the copy destination; it must differ from the
    // parent's and belong to the same cgroup's domain.
    Addr child_ctx = regOf(p, reg::kArg2);
    EXPECT_NE(child_ctx, ks->task(pid).ctxVa);
    EXPECT_EQ(ks->ownership().ownerOfVa(child_ctx),
              ks->domainOf(pid));
    exec->finish(pid, inv);
    EXPECT_EQ(ks->numTasks(), tasks_before);
}

TEST_F(ExecFixture, PollAllocatesTransientMetadata)
{
    auto &cache = ks->cacheFor(256);
    std::uint64_t before = cache.activeObjects();
    SyscallInvocation inv{Sys::Poll, 0, 64, 0};
    exec->prepare(pid, inv);
    EXPECT_EQ(cache.activeObjects(), before + 1);
    exec->finish(pid, inv);
    EXPECT_EQ(cache.activeObjects(), before);
}

TEST_F(ExecFixture, OpenCloseBalanceSlabObjects)
{
    auto &cache = ks->cacheFor(512);
    std::uint64_t before = cache.activeObjects();
    exec->prepare(pid, {Sys::Open, 0, 0, 3});
    exec->finish(pid, {Sys::Open, 0, 0, 3});
    EXPECT_EQ(cache.activeObjects(), before + 1);
    exec->prepare(pid, {Sys::Close, 0, 0, 0});
    exec->finish(pid, {Sys::Close, 0, 0, 0});
    EXPECT_EQ(cache.activeObjects(), before);
}

TEST_F(ExecFixture, IoctlClampsBenignIndex)
{
    auto p = exec->prepare(pid, {Sys::Ioctl, 1234, 0, 0});
    EXPECT_LT(regOf(p, reg::kArg0), 16u);
    exec->finish(pid, {Sys::Ioctl, 1234, 0, 0});
}

TEST_F(ExecFixture, ExitProcessFreesLazyRegions)
{
    // A task owns the regions its syscalls create at first use and
    // the objects it has open; exiting it frees them with the rest of
    // its memory.
    const std::uint64_t frames = ks->buddy().allocatedFrames();
    auto &files = ks->cacheFor(512);
    const std::uint64_t open_files = files.activeObjects();
    Pid p = ks->createProcess(ks->createCgroup("exiting"));
    for (SyscallInvocation inv :
         {SyscallInvocation{Sys::Read, 0, 8, 0}, {Sys::Send, 0, 8, 0},
          {Sys::BigFork, 0, 0, 0}, {Sys::Poll, 0, 8, 0},
          {Sys::Open, 0, 0, 3}}) {
        exec->prepare(p, inv);
        exec->finish(p, inv);
    }
    for (const auto &r : ks->task(p).regions)
        EXPECT_TRUE(r.has_value());
    EXPECT_EQ(ks->task(p).openObjects.size(), 1u);
    ks->exitProcess(p);
    EXPECT_EQ(ks->buddy().allocatedFrames(), frames);
    EXPECT_EQ(files.activeObjects(), open_files);
}

TEST_F(ExecFixture, LaterRegisterSetOverwritesItsSlot)
{
    // One slot per register r10-r16: a syscall-specific value
    // replaces the baseline argument instead of following it.
    auto p = exec->prepare(pid, {Sys::Ioctl, 1234, 0, 0});
    for (unsigned i = 0; i < p.regs.size(); ++i)
        EXPECT_EQ(p.regs[i].first, reg::kCtx + i);
    EXPECT_EQ(p.regs[reg::kArg0 - reg::kCtx].second, 1234u % 16);
    exec->finish(pid, {Sys::Ioctl, 1234, 0, 0});
}

TEST_F(ExecFixture, MunmapReleasesLastMapping)
{
    SyscallInvocation mm{Sys::Mmap, 0, 0, 0};
    exec->prepare(pid, mm);
    exec->finish(pid, mm);
    std::uint64_t with_map = ks->buddy().allocatedFrames();
    SyscallInvocation um{Sys::Munmap, 0, 0, 0};
    exec->prepare(pid, um);
    exec->finish(pid, um);
    EXPECT_EQ(ks->buddy().allocatedFrames(), with_map - 1);
}
