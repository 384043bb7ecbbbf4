#include <gtest/gtest.h>

#include "kernel/image.hh"
#include "workloads/driver.hh"

using namespace perspective;
using namespace perspective::kernel;
using namespace perspective::workloads;

namespace
{

struct DriverFixture : ::testing::Test
{
    sim::Memory mem;
    KernelImage img{mem, 42};
    DriverSet drivers{img};

    DriverFixture() { img.program().layout(); }
};

} // namespace

TEST_F(DriverFixture, OneDriverPerSyscall)
{
    for (unsigned i = 0; i < kNumSyscalls; ++i) {
        sim::FuncId f = drivers.driverFor(static_cast<Sys>(i));
        ASSERT_NE(f, sim::kNoFunc);
        const auto &fn = img.program().func(f);
        EXPECT_FALSE(fn.kernel) << fn.name;
        EXPECT_FALSE(fn.body.empty());
    }
}

TEST_F(DriverFixture, DriverCallsMatchingEntry)
{
    for (Sys s : {Sys::Read, Sys::Poll, Sys::Getpid}) {
        const auto &body =
            img.program().func(drivers.driverFor(s)).body;
        bool found = false;
        for (const auto &op : body) {
            if (op.op == sim::Op::Call &&
                op.callee == img.entryOf(s))
                found = true;
        }
        EXPECT_TRUE(found) << sysName(s);
    }
}

TEST_F(DriverFixture, DriversLiveInUserSpace)
{
    sim::FuncId f = drivers.driverFor(Sys::Read);
    EXPECT_LT(img.program().func(f).base, sim::kKernelTextBase);
}

TEST_F(DriverFixture, AllReturnsFullTable)
{
    EXPECT_EQ(drivers.all().size(), kNumSyscalls);
}

TEST_F(DriverFixture, DriverBodyEndsInReturn)
{
    for (unsigned i = 0; i < kNumSyscalls; ++i) {
        const auto &body = img.program()
                               .func(drivers.driverFor(
                                   static_cast<Sys>(i)))
                               .body;
        EXPECT_EQ(static_cast<int>(body.back().op),
                  static_cast<int>(sim::Op::Return));
    }
}
