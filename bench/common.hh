/**
 * @file
 * Shared helpers for the experiment harnesses: fixed-width table
 * printing and the standard iteration counts.
 */

#ifndef PERSPECTIVE_BENCH_COMMON_HH
#define PERSPECTIVE_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

namespace perspective::bench
{

/** Measured iterations per workload (after warmup). */
inline constexpr unsigned kIterations = 30;
inline constexpr unsigned kWarmup = 3;

/** Print a horizontal rule sized to @p width. */
inline void
rule(unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace perspective::bench

#endif // PERSPECTIVE_BENCH_COMMON_HH
