#include "profiles.hh"

#include <set>

namespace perspective::workloads
{

using kernel::Sys;
using kernel::SyscallInvocation;

namespace
{

SyscallInvocation
inv(Sys s, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
    std::uint64_t a2 = 0)
{
    return SyscallInvocation{s, a0, a1, a2};
}

/** libc links wrappers for most of the fs/mm surface into every
 * binary; static binary analysis cannot prune them. */
std::vector<Sys>
libcStaticExtras()
{
    return {Sys::Brk,    Sys::Mprotect, Sys::Fstat, Sys::Lseek,
            Sys::Dup,    Sys::Readdir,  Sys::Pipe,  Sys::Sigaction,
            Sys::Futex,  Sys::Uname,    Sys::Getuid,
            Sys::GetTimeOfDay, Sys::Kill, Sys::Nanosleep,
            Sys::Read,   Sys::Write,    Sys::Open,  Sys::Close,
            Sys::Stat,   Sys::Mmap,     Sys::Munmap,
            Sys::SchedYield, Sys::Socket, Sys::SetSockOpt,
            Sys::Bind,   Sys::Listen,   Sys::EpollCreate,
            Sys::EpollCtl, Sys::ThreadCreate};
}

} // namespace

std::vector<WorkloadProfile>
lebenchSuite()
{
    std::vector<WorkloadProfile> out;
    auto add = [&out](std::string name,
                      std::vector<SyscallInvocation> req) {
        WorkloadProfile w;
        w.name = std::move(name);
        w.request = std::move(req);
        w.userPadIters = 2; // the ROI is the syscall itself
        out.push_back(std::move(w));
    };

    add("getpid", {inv(Sys::Getpid)});
    add("ctx-switch", {inv(Sys::SchedYield)});
    add("read", {inv(Sys::Read, 0, 16)});
    add("write", {inv(Sys::Write, 0, 16)});
    add("big-read", {inv(Sys::BigRead, 0, 256)});
    add("big-write", {inv(Sys::BigWrite, 0, 256)});
    add("mmap", {inv(Sys::Mmap, 2)});
    add("munmap", {inv(Sys::Mmap, 0), inv(Sys::Munmap)});
    add("page-fault", {inv(Sys::PageFault)});
    add("fork", {inv(Sys::Fork)});
    add("big-fork", {inv(Sys::BigFork)});
    add("thread-create", {inv(Sys::ThreadCreate)});
    add("open", {inv(Sys::Open, 0, 0, 3), inv(Sys::Close)});
    add("stat", {inv(Sys::Stat, 0, 0, 3)});
    add("select", {inv(Sys::Select, 0, 512)});
    add("poll", {inv(Sys::Poll, 0, 512)});
    add("epoll", {inv(Sys::EpollWait, 0, 512)});
    add("send", {inv(Sys::Send, 0, 16)});
    add("recv", {inv(Sys::Recv, 0, 16)});

    // The suite binary links the whole syscall surface.
    for (auto &w : out)
        w.extraStaticSyscalls = libcStaticExtras();
    return out;
}

WorkloadProfile
httpdProfile()
{
    WorkloadProfile w;
    w.name = "httpd";
    // Prefork worker: wait, accept, parse, stat+open+read the file,
    // respond, close. ~50% kernel time.
    w.request = {
        inv(Sys::EpollWait, 0, 8), inv(Sys::Accept),
        inv(Sys::Recv, 0, 16),     inv(Sys::Stat, 0, 0, 3),
        inv(Sys::Open, 0, 0, 3),   inv(Sys::Read, 0, 32),
        inv(Sys::Send, 0, 32),     inv(Sys::Close),
    };
    w.userPadIters = 152;
    w.extraStaticSyscalls = libcStaticExtras();
    w.extraStaticSyscalls.push_back(Sys::Fork);
    w.extraStaticSyscalls.push_back(Sys::Select);
    return w;
}

WorkloadProfile
nginxProfile()
{
    WorkloadProfile w;
    w.name = "nginx";
    // Event loop: epoll-driven, sendfile-ish read+send. ~65% kernel.
    w.request = {
        inv(Sys::EpollWait, 0, 16), inv(Sys::Recv, 0, 16),
        inv(Sys::Stat, 0, 0, 2),    inv(Sys::Open, 0, 0, 2),
        inv(Sys::Read, 0, 32),      inv(Sys::Send, 0, 48),
        inv(Sys::Close),
    };
    w.userPadIters = 86;
    w.extraStaticSyscalls = libcStaticExtras();
    w.extraStaticSyscalls.push_back(Sys::Accept);
    w.extraStaticSyscalls.push_back(Sys::SetSockOpt);
    return w;
}

WorkloadProfile
memcachedProfile()
{
    WorkloadProfile w;
    w.name = "memcached";
    // Cache hit path: epoll, recv, hash lookup (user), send. ~65%.
    w.request = {
        inv(Sys::EpollWait, 0, 8),
        inv(Sys::Recv, 0, 8),
        inv(Sys::Send, 0, 8),
    };
    w.userPadIters = 79;
    w.extraStaticSyscalls = libcStaticExtras();
    w.extraStaticSyscalls.push_back(Sys::Accept);
    w.extraStaticSyscalls.push_back(Sys::ThreadCreate);
    return w;
}

WorkloadProfile
redisProfile()
{
    WorkloadProfile w;
    w.name = "redis";
    // Single-threaded event loop over pipes/sockets. ~53% kernel.
    w.request = {
        inv(Sys::EpollWait, 0, 8),
        inv(Sys::Read, 0, 8),
        inv(Sys::Write, 0, 8),
    };
    w.userPadIters = 119;
    w.extraStaticSyscalls = libcStaticExtras();
    w.extraStaticSyscalls.push_back(Sys::Fork); // bgsave
    w.extraStaticSyscalls.push_back(Sys::BigFork);
    return w;
}

std::vector<WorkloadProfile>
datacenterSuite()
{
    return {httpdProfile(), nginxProfile(), memcachedProfile(),
            redisProfile()};
}

std::vector<kernel::SyscallInvocation>
processStartupTrace()
{
    std::vector<SyscallInvocation> t;
    // Loader: program + libraries.
    t.push_back(inv(Sys::Brk));
    for (int lib = 0; lib < 4; ++lib) {
        t.push_back(inv(Sys::Open, 0, 0, 3));
        t.push_back(inv(Sys::Fstat));
        t.push_back(inv(Sys::Mmap, 2));
        t.push_back(inv(Sys::Read, 0, 16));
        t.push_back(inv(Sys::Close));
    }
    t.push_back(inv(Sys::Mprotect));
    t.push_back(inv(Sys::Munmap));
    // Runtime init.
    t.push_back(inv(Sys::Getpid));
    t.push_back(inv(Sys::Getuid));
    t.push_back(inv(Sys::Uname));
    t.push_back(inv(Sys::Sigaction));
    t.push_back(inv(Sys::Futex));
    t.push_back(inv(Sys::GetTimeOfDay));
    // Service initialization: sockets, event queues, worker threads.
    t.push_back(inv(Sys::Socket));
    t.push_back(inv(Sys::SetSockOpt));
    t.push_back(inv(Sys::Bind));
    t.push_back(inv(Sys::Listen));
    t.push_back(inv(Sys::EpollCreate));
    t.push_back(inv(Sys::EpollCtl));
    t.push_back(inv(Sys::ThreadCreate));
    t.push_back(inv(Sys::Pipe));
    t.push_back(inv(Sys::Dup));
    t.push_back(inv(Sys::Readdir, 0, 4));
    t.push_back(inv(Sys::Lseek));
    // Background activity any trace captures.
    t.push_back(inv(Sys::Nanosleep));
    t.push_back(inv(Sys::SchedYield));
    t.push_back(inv(Sys::Write, 0, 8)); // logging
    return t;
}

std::vector<Sys>
staticSyscallSet(const WorkloadProfile &w)
{
    std::set<Sys> s;
    for (const auto &i : w.request)
        s.insert(i.sys);
    for (Sys e : w.extraStaticSyscalls)
        s.insert(e);
    return {s.begin(), s.end()};
}

} // namespace perspective::workloads
