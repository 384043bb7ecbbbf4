/**
 * @file
 * Workload profiles: the LEBench-style microbenchmark suite and the
 * four datacenter applications of Chapter 7 (httpd, nginx, memcached,
 * redis), expressed as per-request syscall sequences plus a userspace
 * compute knob that reproduces each application's measured
 * kernel-time fraction (50 / 65 / 65 / 53 %).
 */

#ifndef PERSPECTIVE_WORKLOADS_PROFILES_HH
#define PERSPECTIVE_WORKLOADS_PROFILES_HH

#include <string>
#include <vector>

#include "kernel/syscall_exec.hh"

namespace perspective::workloads
{

/** One benchmark or application. */
struct WorkloadProfile
{
    std::string name;

    /** Syscalls issued per request/iteration, in order. */
    std::vector<kernel::SyscallInvocation> request;

    /** Userspace loop iterations between syscalls (5 micro-ops
     * each); sizes the user/kernel time split. */
    unsigned userPadIters = 2;

    /**
     * Syscalls a static analysis of the binary would additionally
     * attribute to it (libc wrappers that are linked but unused) —
     * static ISVs overapproximate through these.
     */
    std::vector<kernel::Sys> extraStaticSyscalls;
};

/** The LEBench-style microbenchmark suite (Figure 9.2's x-axis). */
std::vector<WorkloadProfile> lebenchSuite();

/** The four datacenter applications (Figure 9.3). */
std::vector<WorkloadProfile> datacenterSuite();

WorkloadProfile httpdProfile();
WorkloadProfile nginxProfile();
WorkloadProfile memcachedProfile();
WorkloadProfile redisProfile();

/** Every syscall a profile touches (request + static extras). */
std::vector<kernel::Sys> staticSyscallSet(const WorkloadProfile &w);

/**
 * Syscalls every traced process executes before reaching its steady
 * state: the exec/loader sequence (brk, mmap of libraries, dynamic
 * linker file accesses) plus periodic background activity (timers,
 * context switches). Dynamic ISVs include these paths — which is why
 * even a tiny microbenchmark's dynamic ISV spans a few percent of the
 * kernel (Table 8.1).
 */
std::vector<kernel::SyscallInvocation> processStartupTrace();

} // namespace perspective::workloads

#endif // PERSPECTIVE_WORKLOADS_PROFILES_HH
