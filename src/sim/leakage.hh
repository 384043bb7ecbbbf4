/**
 * @file
 * Transient-leakage ledger: taint-based accounting of secret bytes
 * exposed during speculation (ConTExT-style, see DESIGN §5.6).
 *
 * The pipeline classifies each *speculative* load's target against
 * kernel ground truth (a pluggable SecretClassifier — data a correct
 * synchronous policy would have blocked), tags the loaded value with
 * a taint bit, propagates taint through forwarded operands, and
 * reports a *transmission* when a tainted value forms the address of
 * an access that durably changes observable microarchitectural state
 * (cache install, TLB fill) before the squash.
 *
 * The whole layer is observation-only: it never touches caches, TLB,
 * memory, or the pipeline's StatSet, so enabling it cannot perturb a
 * single simulated cycle (tests/sim/test_leakage.cc pins this).
 */

#ifndef PERSPECTIVE_SIM_LEAKAGE_HH
#define PERSPECTIVE_SIM_LEAKAGE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "types.hh"

namespace perspective::sim
{

/**
 * Which dynamic-update window made the stale allow possible. None
 * means "not secret"; Baseline means the data was unreachable under
 * a fully synchronized policy too (no open window to blame — the
 * active scheme simply does not enforce reachability).
 */
enum class LeakWindow : std::uint8_t
{
    None = 0,
    Baseline,
    Revocation, ///< pending (deferred) DSV revocation
    ModuleLoad, ///< context has not synced the grown ISV epoch yet
    FleetFlip,  ///< fleet tighten still propagating to this context
};

inline constexpr unsigned kNumLeakWindows = 5;

constexpr const char *
leakWindowName(LeakWindow w)
{
    switch (w) {
    case LeakWindow::None: return "none";
    case LeakWindow::Baseline: return "baseline";
    case LeakWindow::Revocation: return "revocation";
    case LeakWindow::ModuleLoad: return "module_load";
    case LeakWindow::FleetFlip: return "fleet_flip";
    }
    return "?";
}

/** Ground-truth verdict for one speculative load target. */
struct SecretVerdict
{
    bool secret = false;
    LeakWindow window = LeakWindow::None;
};

/**
 * Kernel ground truth, injected by the experiment layer so the sim
 * library stays independent of the kernel model. MUST be pure: the
 * pipeline calls it on the load-issue path and any side effect on
 * simulated state would break the observation-only contract.
 */
using SecretClassifier =
    std::function<SecretVerdict(Addr va, FuncId func, Asid asid, Cycle now)>;

/** Transmitter channel taxonomy (SoK: durable uarch state changes). */
enum class LeakChannel : std::uint8_t
{
    CacheInstall = 0, ///< L1D/L2 fill or eviction on the normal path
    TlbFill,          ///< TLB walk + fill (also fires on InvisiSpec)
};

/** Per-run roll-up, exported into RunResult and sweep JSON. */
struct LeakageSummary
{
    std::uint64_t secretLoads = 0;      ///< speculative loads of secrets
    std::uint64_t bytesAtRisk = 0;      ///< 8 per secret load
    std::uint64_t transmissions = 0;    ///< tainted-address transmit events
    std::uint64_t bytesTransmitted = 0; ///< deduped per secret source
    std::uint64_t taintOverflows = 0;   ///< sources folded into slot 63
    std::uint64_t channelCacheInstall = 0;
    std::uint64_t channelTlbFill = 0;

    struct WindowRow
    {
        std::uint64_t secretLoads = 0;
        std::uint64_t transmissions = 0;
        std::uint64_t bytesTransmitted = 0;
    };
    std::array<WindowRow, kNumLeakWindows> windows{};

    struct Gadget
    {
        Addr pc = 0;          ///< transmitting load's PC
        FuncId func = kNoFunc;///< function containing the transmitter
        FuncId entryFunc = kNoFunc; ///< syscall entry point (context)
        LeakWindow window = LeakWindow::None; ///< of the leaked source
        std::uint64_t transmissions = 0;
        std::uint64_t bytesTransmitted = 0;
        /** Resolved by the harness (the ledger has no symbol table). */
        std::string funcName;
        std::string entryName;
    };
    std::vector<Gadget> topGadgets; ///< sorted by bytes, capped

    bool
    empty() const
    {
        return secretLoads == 0 && transmissions == 0;
    }
};

/**
 * The ledger proper. Owns up to 64 live *secret sources* (one per
 * in-flight speculative secret load; bit 63 is a shared overflow
 * slot), the per-source transmitted/at-risk accounting, and the
 * aggregated counters and gadget table.
 */
class LeakLedger
{
  public:
    static constexpr std::uint8_t kNoSource = 0xff;
    static constexpr unsigned kOverflowBit = 63;
    static constexpr unsigned kTopGadgets = 8;

    void setClassifier(SecretClassifier fn);
    void setEnabled(bool on);
    bool enabled() const { return enabled_; }

    /** True when the pipeline should pay for classification at all. */
    bool armed() const { return enabled_ && classifier_ != nullptr; }

    SecretVerdict
    classify(Addr va, FuncId func, Asid asid, Cycle now) const
    {
        return classifier_(va, func, asid, now);
    }

    /**
     * A speculative load of secret data executed: allocate a source
     * slot and account bytes-at-risk. Returns the taint bit index
     * (kOverflowBit when all individual slots are live).
     */
    std::uint8_t noteSecretLoad(Addr va, Addr pc, FuncId func,
                                FuncId entryFunc, LeakWindow window);

    /**
     * A tainted value formed the address of an access that durably
     * changed uarch state. @p taintMask names the contributing
     * sources; each live one is marked transmitted (bytes counted
     * once per source) and attributed to the transmitting gadget.
     */
    void noteTransmission(std::uint64_t taintMask, LeakChannel channel,
                          Addr gadgetPc, FuncId gadgetFunc);

    /** The creating load left the ROB (commit or squash). */
    void retireSource(std::uint8_t bit);

    /** Per-measure-run reset (counters, gadgets, live sources). */
    void reset();

    LeakageSummary summary() const;

    struct Source
    {
        bool live = false;
        bool transmitted = false;
        Addr va = 0;
        Addr pc = 0;
        FuncId func = kNoFunc;
        FuncId entryFunc = kNoFunc;
        LeakWindow window = LeakWindow::None;
        std::uint32_t refs = 0; ///< >1 only for the overflow slot
    };

    struct GadgetKey
    {
        Addr pc;
        std::uint8_t window;
        bool operator==(const GadgetKey &o) const
        {
            return pc == o.pc && window == o.window;
        }
    };
    struct GadgetKeyHash
    {
        std::size_t
        operator()(const GadgetKey &k) const
        {
            return std::hash<Addr>{}(k.pc) * 1000003u + k.window;
        }
    };
    struct GadgetRow
    {
        FuncId func = kNoFunc;
        FuncId entryFunc = kNoFunc;
        std::uint64_t transmissions = 0;
        std::uint64_t bytesTransmitted = 0;
    };

    /** The accounting state: everything reset() clears. The wiring
     * (classifier, enable flag) belongs to the experiment and is
     * kept. */
    struct State
    {
        std::array<Source, 64> sources{};
        unsigned rrNext = 0; ///< round-robin allocation cursor
        std::uint64_t secretLoads = 0;
        std::uint64_t bytesAtRisk = 0;
        std::uint64_t transmissions = 0;
        std::uint64_t bytesTransmitted = 0;
        std::uint64_t taintOverflows = 0;
        std::array<std::uint64_t, 2> channelCounts{};
        std::array<LeakageSummary::WindowRow, kNumLeakWindows> windows{};
        std::unordered_map<GadgetKey, GadgetRow, GadgetKeyHash> gadgets;
    };

  private:
    bool enabled_ = true;
    SecretClassifier classifier_;
    State st_;
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_LEAKAGE_HH
