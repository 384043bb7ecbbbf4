/**
 * @file
 * Deterministic random-program generator (splitmix64-driven) shared
 * by the differential suites: the pipeline against the reference
 * interpreter (sim/test_pipeline_properties.cc) and sampled against
 * detailed runs (sim/test_sampling.cc). Each suite mixes its own seed
 * range into the generator's seed.
 */

#ifndef PERSPECTIVE_TESTS_SUPPORT_PROGRAM_GEN_HH
#define PERSPECTIVE_TESTS_SUPPORT_PROGRAM_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/program.hh"

namespace perspective::testsupport
{

class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    rnd(std::uint64_t bound)
    {
        state_ += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        return bound ? z % bound : z;
    }

    /**
     * Build a program of @p nfuncs functions with arithmetic, memory
     * traffic, forward branches, loops, (acyclic) direct and indirect
     * calls, wild indirect targets, and ops with unused (kNoReg)
     * operand slots. Function 0 is a user entry that calls into
     * higher-numbered functions only; those are kernel, so call
     * chains cross the privilege boundary and charge entry/exit
     * microcode stalls. Every function starts a fresh I-cache line
     * run, so the front end stalls and the ROB drains often: each
     * drain is a quiescent point where the sampling controller may
     * switch phases.
     */
    sim::Program
    make(unsigned nfuncs)
    {
        using namespace sim;
        Program prog;
        for (unsigned f = 0; f < nfuncs; ++f)
            prog.addFunction("f" + std::to_string(f), f != 0);
        for (unsigned f = 0; f < nfuncs; ++f) {
            auto &body = prog.func(f).body;
            unsigned n_ops = 8 + static_cast<unsigned>(rnd(24));
            for (unsigned i = 0; i < n_ops; ++i) {
                switch (rnd(9)) {
                  case 0:
                    body.push_back(movImm(
                        reg(), static_cast<std::int64_t>(rnd(1000))));
                    break;
                  case 1:
                    body.push_back(add(reg(), reg(), reg()));
                    break;
                  case 2:
                    body.push_back(store(
                        kNoReg, static_cast<std::int64_t>(slot()),
                        reg()));
                    break;
                  case 3:
                    body.push_back(loadAbs(reg(), slot()));
                    break;
                  case 4:
                    forwardBranch(body, reg());
                    break;
                  case 5:
                    if (f + 1 < nfuncs) {
                        body.push_back(call(static_cast<FuncId>(
                            f + 1 + rnd(nfuncs - f - 1))));
                    } else {
                        body.push_back(nop());
                    }
                    break;
                  case 6:
                    // Indirect call: mostly a valid callee, sometimes
                    // a wild pointer (architected no-op call).
                    if (f + 1 < nfuncs && rnd(4) != 0) {
                        body.push_back(movImm(
                            9, static_cast<std::int64_t>(
                                   f + 1 + rnd(nfuncs - f - 1))));
                    } else {
                        body.push_back(
                            movImm(9, 0x7fffffff + rnd(100)));
                    }
                    body.push_back(indirectCall(9));
                    break;
                  case 7:
                    noRegSlot(body);
                    break;
                  default:
                    body.push_back(addImm(
                        reg(), reg(),
                        static_cast<std::int64_t>(rnd(64))));
                    break;
                }
            }
            // A bounded counted loop at the end of some functions.
            if (rnd(2)) {
                RegId ctr = 7;
                std::uint32_t head =
                    static_cast<std::uint32_t>(body.size() + 1);
                body.push_back(movImm(ctr, 0));
                body.push_back(branchImm(
                    Cond::Ge, ctr,
                    static_cast<std::int64_t>(2 + rnd(12)),
                    static_cast<std::uint32_t>(body.size() + 4)));
                body.push_back(loadAbs(8, slot()));
                body.push_back(addImm(ctr, ctr, 1));
                body.push_back(jump(head));
            }
            body.push_back(ret());
        }
        prog.layout();
        return prog;
    }

  private:
    std::uint64_t state_;

    /** One of the generated data registers, r1..r6. */
    sim::RegId reg() { return static_cast<sim::RegId>(1 + rnd(6)); }

    /** One of the 64 memory slots at 0x100000. */
    sim::Addr slot() { return 0x100000 + rnd(64) * 8; }

    /** A branch on @p src1 over the next op, an addImm. */
    void
    forwardBranch(std::vector<sim::MicroOp> &body, sim::RegId src1)
    {
        std::uint32_t target =
            static_cast<std::uint32_t>(body.size() + 2);
        body.push_back(sim::branchImm(
            static_cast<sim::Cond>(rnd(4)), src1,
            static_cast<std::int64_t>(rnd(500)), target));
        body.push_back(sim::addImm(reg(), reg(), 1));
    }

    /** An op with an unused (kNoReg) slot where a register could be:
     * a store of src2, a branch on src1, an ALU or load result, or an
     * ALU source. */
    void
    noRegSlot(std::vector<sim::MicroOp> &body)
    {
        using namespace sim;
        switch (rnd(5)) {
          case 0:
            body.push_back(store(
                kNoReg, static_cast<std::int64_t>(slot()), kNoReg));
            break;
          case 1:
            forwardBranch(body, kNoReg);
            break;
          case 2:
            body.push_back(add(kNoReg, reg(), reg()));
            break;
          case 3:
            body.push_back(loadAbs(kNoReg, slot()));
            break;
          default:
            body.push_back(add(reg(), kNoReg, reg()));
            break;
        }
    }
};

} // namespace perspective::testsupport

#endif // PERSPECTIVE_TESTS_SUPPORT_PROGRAM_GEN_HH
