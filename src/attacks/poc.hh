/**
 * @file
 * Runnable proof-of-concept attacks (Chapter 8).
 *
 * Every PoC executes end-to-end on the simulator: mistrain or poison
 * a predictor, trigger transient execution of a kernel gadget, and
 * recover the secret through Flush+Reload on the shared probe region.
 * The same PoC run under different defense schemes demonstrates
 * which mechanism stops which attack class:
 *
 *  - *active* attacks (the attacker's own kernel thread reads another
 *    context's memory) are eliminated by DSVs;
 *  - *passive* attacks (the victim's kernel thread is control-flow-
 *    hijacked into a gadget that leaks the victim's own data) pass
 *    every DSV check and are only stopped by ISVs.
 */

#ifndef PERSPECTIVE_ATTACKS_POC_HH
#define PERSPECTIVE_ATTACKS_POC_HH

#include <optional>

#include "cve.hh"
#include "workloads/experiment.hh"

namespace perspective::attacks
{

/** Outcome of one PoC run. */
struct PocResult
{
    bool leaked = false;
    std::optional<unsigned> recovered;
    unsigned expected = 0;
};

/** The victim's own secret, leaked by the passive (hijack) attacks. */
inline constexpr unsigned kOwnSecret = 0x6b;

/**
 * Run PoC @p kind against the stack in @p e (its scheme decides the
 * active defense). The experiment should be built with pocProfile()
 * so the attacked syscalls are part of the workload's ISV.
 */
PocResult runPoc(PocKind kind, workloads::Experiment &e);

/** Spectre-v1 step 1: mistrain the bounds check on syscall @p via's
 * gadget path with in-bounds indices from the main process. */
void mistrainV1(workloads::Experiment &e, kernel::Sys via);

/**
 * Spectre-v1 steps 2-4, up to @p attempts times: warm @p target_va,
 * evict the gadget's bound, invoke @p via with the out-of-bounds
 * index that lands on @p target_va, and Flush+Reload the probe region
 * for @p expected. Assumes mistrainV1() ran.
 */
PocResult probeV1(workloads::Experiment &e, kernel::Sys via,
                  sim::Addr target_va, unsigned expected,
                  unsigned attempts);

/**
 * Spectre-v2 hijack, up to @p attempts times: poison the BTB entry of
 * the vfs read dispatch with the hijack gadget, warm the main
 * process's own secret (kOwnSecret), evict the fops slot and let the
 * process's own read() transiently leak it.
 */
PocResult probeV2(workloads::Experiment &e, unsigned attempts);

/** All five PoC kinds. */
std::vector<PocKind> allPocs();

/** Workload profile whose ISV covers the attacked syscall paths. */
workloads::WorkloadProfile pocProfile();

} // namespace perspective::attacks

#endif // PERSPECTIVE_ATTACKS_POC_HH
