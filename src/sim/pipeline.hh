/**
 * @file
 * Out-of-order, speculative, cycle-approximate pipeline.
 *
 * The model implements the mechanisms transient-execution attacks and
 * their defenses actually interact with:
 *
 *  - in-order fetch along a *predicted* path (conditional predictor,
 *    BTB for indirect calls, RSB for returns), so wrong-path micro-ops
 *    really enter the window, really execute, and really disturb the
 *    cache before being squashed;
 *  - a reorder buffer with in-order commit and full squash/restore on
 *    misprediction (rename map, speculative call stack, predictor
 *    history and RSB checkpoints);
 *  - a Visibility Point rule (Section 6.2): an instruction is
 *    speculative while any older unresolved control-flow instruction
 *    could squash it; defenses may block transmitters until then;
 *  - STT-style taint: values produced by speculative loads are tainted
 *    and taint propagates through data flow until the producer load
 *    reaches its Visibility Point.
 *
 * Defense schemes plug in through sim::SpeculationPolicy.
 */

#ifndef PERSPECTIVE_SIM_PIPELINE_HH
#define PERSPECTIVE_SIM_PIPELINE_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cache.hh"
#include "leakage.hh"
#include "memory.hh"
#include "policy.hh"
#include "predictor.hh"
#include "program.hh"
#include "sampling.hh"
#include "stats.hh"
#include "tlb.hh"
#include "trace.hh"
#include "types.hh"

namespace perspective::sim
{

/** Core configuration (defaults follow Table 7.1). */
struct PipelineParams
{
    unsigned width = 8;           ///< fetch/commit width
    unsigned robSize = 192;
    unsigned lqSize = 62;
    unsigned sqSize = 32;
    Cycle mispredictPenalty = 10; ///< front-end redirect cycles
    /** Minimum cycles between dispatch of a control-flow op and its
     * resolution, modeling the fetch-to-execute pipeline depth. This
     * is the length of the speculative window defenses fight over:
     * FENCE-style schemes stall loads for at least this long behind
     * every unresolved branch. */
    Cycle branchResolveDepth = 6;
    /** Baseline privilege-transition microcode cost (syscall/sysret,
     * swapgs), charged on every kernel entry/exit regardless of the
     * defense scheme. KPTI-style mitigations add on top. */
    Cycle kernelEntryCost = 40;
    Cycle kernelExitCost = 24;
    Cycle dramLatency = 100;      ///< 50 ns at 2 GHz
    Cycle maxCycles = 200'000'000;///< runaway guard
    /** Sampled simulation (DESIGN §5.8): when enabled (and no event
     * log demands the per-cycle detailed path), the core runs the
     * periodic functional-skip -> functional-warm -> detailed-window
     * cycle and
     * estimates mean CPI with a confidence interval instead of
     * simulating every instruction cycle-accurately. Explicitly
     * statistical — cycle counts and most stats cover only the
     * detailed windows; callers extrapolate via sampler(). */
    SamplingParams sampling;
};

/** Outcome of one Pipeline::run invocation. */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0; ///< committed micro-ops
};

/**
 * The simulated core. One Pipeline owns its cache hierarchy,
 * predictors, TLBs and architectural state; the Program and the
 * backing Memory are shared with the kernel model and attack drivers.
 */
class Pipeline
{
  public:
    Pipeline(const Program &prog, Memory &mem,
             PipelineParams params = {});

    /** Install the active defense scheme (nullptr -> unsafe). */
    void setPolicy(SpeculationPolicy *policy);
    SpeculationPolicy *policy() const { return policy_; }

    /** Current address-space identifier (tags ISV cache et al.). */
    void setAsid(Asid asid) { asid_ = asid; }
    Asid asid() const { return asid_; }

    /** Kernel stack base used for call/return slot traffic. */
    void setKernelStackBase(Addr base) { stackBase_ = base; }
    Addr kernelStackBase() const { return stackBase_; }

    /** Architectural register access (drivers pass syscall args). */
    std::uint64_t regValue(unsigned r) const { return regs_[r]; }
    void setReg(unsigned r, std::uint64_t v) { regs_[r] = v; }

    /**
     * Execute @p entry to completion (its final return) and report the
     * cycles and committed micro-ops consumed. Microarchitectural
     * state (caches, predictors) persists across calls, which is what
     * lets an attacker mistrain structures in one call and exploit
     * them in the next.
     */
    RunResult run(FuncId entry);

    /** Core cycle clock. The pointer stays valid for the pipeline's
     * lifetime — policies hold it to timestamp deferred updates
     * (PerspectivePolicy::setClock). */
    Cycle now() const { return now_; }
    const Cycle *cyclePtr() const { return &now_; }

    /**
     * Run @p fn at the first cycle >= @p when of a subsequent run()
     * — an asynchronous kernel-side event (ownership handoff, module
     * load, fleet flip) landing mid-run while loads are in flight.
     * Callbacks mutate semantic state, not pipeline internals.
     */
    void
    scheduleAt(Cycle when, std::function<void()> fn)
    {
        scheduled_.emplace_back(when, std::move(fn));
    }
    std::size_t pendingScheduled() const { return scheduled_.size(); }

    /** Transient-leakage ledger (observation-only; DESIGN §5.6).
     * Arm it with LeakLedger::setClassifier; the pipeline classifies
     * speculative loads and tracks taint only while armed. */
    LeakLedger &leakLedger() { return ledger_; }
    const LeakLedger &leakLedger() const { return ledger_; }

    /** @name Sampled simulation (DESIGN §5.8)
     * @{ */

    /** Per-window CPI estimator; meaningful after a sampled run. */
    const SamplingEstimator &sampler() const { return sampler_; }

    /** True when the most recent run() executed in sampled mode
     * (sampling enabled and no installed event log demanded the
     * detailed path). */
    bool sampledMode() const { return sampleMode_; }

    /**
     * Re-anchor the sampling phase machine and clear the estimator.
     * Experiment calls this at its warmup -> measured boundary (right
     * after clearing stats) so the measured phase starts with a fresh
     * detailed window and an empty estimate.
     */
    void resetSampling();

    /**
     * Fold an open, partially filled detailed window into the
     * estimator. Only used as a last resort on streams too short to
     * complete a single full window — partial windows carry the same
     * weight as full ones, so routine flushing would bias the mean.
     */
    void flushSampleWindow();

    /** @} */

    Memory &memory() { return mem_; }
    CacheHierarchy &caches() { return caches_; }
    Btb &btb() { return btb_; }
    StatSet &stats() { return stats_; }
    const Program &program() const { return prog_; }
    const PipelineParams &params() const { return params_; }

    /** Host-side telemetry, not a stat: cycles the run loop jumped
     * over as provably idle (see skipIdleCycles) over the pipeline's
     * lifetime. Simulated results are identical either way. */
    std::uint64_t cyclesSkipped() const { return cyclesSkipped_; }

  private:
    /** A frame of the speculative call stack. */
    struct Frame
    {
        FuncId func = kNoFunc;
        std::uint32_t retIdx = 0;
        Addr slotVa = 0; ///< stack slot holding the return address
    };

    class StackPool;

    /**
     * Immutable, structurally shared call stack (a persistent cons
     * list). Every control op checkpoints the fetch path's stack into
     * its ROB entry (RobEntry::stackCkpt); with a plain vector that
     * deep-copied every frame per checkpoint and per squash restore.
     * Here checkpoint and restore are one reference-count bump, push
     * links a single node sharing the whole tail, and pop is a
     * pointer step — nothing is ever cloned, and frozen snapshots
     * stay valid through any later mutation because nodes are
     * immutable once linked. Nodes come from the owning Pipeline's
     * StackPool and carry plain (non-atomic) counts: a Pipeline runs
     * on one thread, and a warmed pool allocates nothing.
     */
    class CowStack
    {
      public:
        CowStack() = default;
        CowStack(const CowStack &o) : pool_(o.pool_), top_(o.top_)
        {
            if (top_)
                ++top_->refs;
        }
        CowStack(CowStack &&o) noexcept
            : pool_(o.pool_), top_(std::exchange(o.top_, nullptr))
        {
        }
        CowStack &
        operator=(const CowStack &o)
        {
            if (o.top_)
                ++o.top_->refs; // before release: self-assignment
            release();
            pool_ = o.pool_;
            top_ = o.top_;
            return *this;
        }
        CowStack &
        operator=(CowStack &&o) noexcept
        {
            if (this != &o) {
                release();
                pool_ = o.pool_;
                top_ = std::exchange(o.top_, nullptr);
            }
            return *this;
        }
        ~CowStack() { release(); }

        std::size_t size() const { return top_ ? top_->depth : 0; }
        bool empty() const { return !top_; }
        const Frame &back() const { return top_->frame; }

        /** The new node takes over this handle's reference to the
         * old top. */
        void
        push_back(const Frame &f, StackPool &pool)
        {
            assert((!pool_ || pool_ == &pool) && "one pool per stack");
            pool_ = &pool;
            top_ = pool.make(f, top_, static_cast<std::uint32_t>(size() + 1));
        }

        void
        pop_back()
        {
            Node *prev = top_->prev;
            if (prev)
                ++prev->refs;
            release();
            top_ = prev;
        }

      private:
        friend class StackPool;
        struct Node
        {
            Frame frame;
            Node *prev;
            std::uint32_t depth;
            std::uint32_t refs;
        };

        /** Drop this handle's reference; frees every node it was the
         * last holder of, iteratively (no recursion on long chains). */
        void
        release()
        {
            Node *n = std::exchange(top_, nullptr);
            while (n && --n->refs == 0) {
                Node *prev = n->prev;
                pool_->free(n);
                n = prev;
            }
        }

        StackPool *pool_ = nullptr; ///< set by the first push
        Node *top_ = nullptr;       ///< null = empty
    };

    /** CowStack node allocator: fixed chunks threaded onto a free
     * list. Chunks are freed only with the pool, which the Pipeline
     * declares before every CowStack it owns. */
    class StackPool
    {
      public:
        using Node = CowStack::Node;

        Node *
        make(const Frame &f, Node *prev, std::uint32_t depth)
        {
            if (!free_)
                grow();
            Node *n = free_;
            free_ = n->prev;
            *n = Node{f, prev, depth, 1};
            return n;
        }

        void
        free(Node *n)
        {
            n->prev = free_;
            free_ = n;
        }

      private:
        static constexpr std::size_t kChunk = 64;

        void
        grow()
        {
            chunks_.push_back(std::make_unique<Node[]>(kChunk));
            Node *c = chunks_.back().get();
            for (std::size_t i = 0; i < kChunk; ++i)
                free(&c[i]);
        }

        std::vector<std::unique_ptr<Node[]>> chunks_;
        Node *free_ = nullptr;
    };

    /** Front-end state: where fetch is and the path's call stack. */
    struct FetchState
    {
        FuncId func = kNoFunc;
        std::uint32_t idx = 0;
        CowStack stack;
        bool halted = false; ///< fetched past the outermost return
    };

    enum class EState : std::uint8_t
    {
        Waiting,   ///< operands not ready
        Blocked,   ///< transmitter gated by the policy
        Executing, ///< in an FU, completes at doneCycle
        Done,      ///< result available
    };

    struct RobEntry
    {
        std::uint64_t seq = 0;
        FuncId func = kNoFunc;
        std::uint32_t idx = 0;
        Addr pc = 0;
        const MicroOp *op = nullptr;
        bool kernel = false;

        EState state = EState::Waiting;
        Cycle doneCycle = 0;
        Cycle dispatchCycle = 0;
        Cycle issueCycle = 0;   ///< when the op entered an FU
        Cycle blockedSince = 0; ///< first policy-blocked cycle
        std::uint64_t result = 0;

        // Operand capture: producer seq (kNoSeq when the value came
        // from the architectural file at dispatch).
        static constexpr std::uint64_t kNoSeq = ~0ull;
        std::array<std::uint64_t, 2> srcProd = {kNoSeq, kNoSeq};
        /** Producer entries resolved at capture time (ROB ring slots
         * never move), consumed by registerDispatch in the same cycle
         * so dispatch never searches the ROB by seq. */
        std::array<RobEntry *, 2> srcProdPtr = {nullptr, nullptr};
        std::array<std::uint64_t, 2> srcVal = {0, 0};
        std::array<bool, 2> srcReady = {true, true};
        std::array<RegId, 2> srcReg = {kNoReg, kNoReg};

        bool tainted = false;   ///< result taint (STT), memoized
        Cycle taintCycle = 0;   ///< cycle `tainted` was computed for
        bool counted = false;   ///< fence already counted for stats
        bool invisible = false; ///< executed without cache fills

        // Leakage-ledger taint (observation-only, independent of the
        // STT bit above): which live secret sources this entry's
        // result derives from, the per-operand captures, and — for a
        // secret-classified load — its own source slot.
        std::uint64_t leakTaint = 0;
        std::array<std::uint64_t, 2> srcLeakTaint = {0, 0};
        std::uint8_t leakSrcBit = LeakLedger::kNoSource;

        // Wake-driven gate re-evaluation (GateWake in policy.hh):
        // snapshot of the blocking verdict's inputs, captured when
        // the policy blocked this entry. While no wake condition
        // holds, the per-cycle re-gate is elided.
        bool wakeEvery = true;
        std::uint8_t wakeNumGens = 0;
        Cycle wakeRecheckAt = 0;
        std::uint64_t wakeHorizonGen = 0;
        std::array<const std::uint64_t *, GateWake::kMaxGens>
            wakeGen{};
        std::array<std::uint64_t, GateWake::kMaxGens> wakeGenSeen{};

        /** Unready source-operand count; 0 = issue candidate. */
        std::uint8_t pendingSrcs = 0;
        /**
         * Consumers to wake when this entry completes, one edge
         * `(consumer ROB slot << 1) | operand` each: the first
         * kInlineWakes inline, the rest in wakeOverflow (which keeps
         * its capacity across slot reuse). An edge is live iff the
         * consumer slot's seq is not kNoSeq, that operand is still
         * unready and its srcProd is this entry's seq. The seq test
         * is required: a squashed slot keeps its dead occupant's
         * srcProd until reuse (squashAfter invalidates only the
         * seq). A recycled slot whose new occupant waits on this same
         * producer and operand is exactly the consumer to wake, and
         * the unready test fires it once even if both occupants'
         * edges are listed. Committed consumers cannot appear: an
         * entry with a pending operand cannot complete, and its
         * producer fires the edge the moment it does.
         */
        static constexpr unsigned kInlineWakes = 4;
        std::uint8_t numWakes = 0; ///< inline edges in use
        std::array<std::uint32_t, kInlineWakes> wakeInline{};
        std::vector<std::uint32_t> wakeOverflow;

        void
        addWake(std::uint32_t edge)
        {
            if (numWakes < kInlineWakes)
                wakeInline[numWakes++] = edge;
            else
                wakeOverflow.push_back(edge);
        }

        // Memory ops.
        Addr effAddr = 0;

        // Control ops.
        bool isControl = false;
        bool resolved = false;
        bool predictedTaken = false;
        FuncId predTargetFunc = kNoFunc;
        std::uint32_t predTargetIdx = 0;
        std::uint64_t histCkpt = 0;
        Rsb::Checkpoint rsbCkpt{0, 0};
        CowStack stackCkpt; ///< stack before this op's effect
        bool sawHalt = false; ///< return with an empty correct stack

        /** Re-initialize a recycled ring slot for dispatch. Selective
         * on purpose — a full `*this = RobEntry{}` re-writes ~400
         * bytes per dispatched micro-op and dominated the fetch
         * stage. Skipped fields are written before they can be read
         * on every path:
         *  - seq/func/idx/pc/op/kernel/isControl/dispatchCycle: set
         *    by the dispatcher immediately after reset();
         *  - srcProd/srcProdPtr/srcVal/srcReady/srcReg/srcLeakTaint:
         *    captureOperand covers both slots in every dispatch case
         *    (and zeroes the leak taint on architectural reads);
         *  - pendingSrcs: set by registerDispatch;
         *  - issueCycle/doneCycle/blockedSince/result: set at issue
         *    (blockedSince is only read under `counted`, reset here);
         *  - histCkpt/rsbCkpt/predTargetFunc/predTargetIdx: set at
         *    dispatch for exactly the control ops that resolve them;
         *  - wakeEvery/wakeNumGens/wakeGen/wakeGenSeen/wakeRecheckAt/
         *    wakeHorizonGen: set by captureGateWake, read
         *    only while state == Blocked, and Blocked is entered
         *    through captureGateWake. */
        void reset()
        {
            numWakes = 0;
            wakeOverflow.clear(); // keeps its allocation
            stackCkpt = {};   // unpin the checkpointed stack nodes
            state = EState::Waiting;
            resolved = false;
            predictedTaken = false;
            sawHalt = false;
            counted = false;
            invisible = false;
            tainted = false;
            taintCycle = 0;
            leakTaint = 0;
            leakSrcBit = LeakLedger::kNoSource;
            effAddr = 0;
        }
    };

    /**
     * Fixed-capacity FIFO over a power-of-two slot array. Slots are
     * permanent and recycled in place: element addresses never change
     * (the contract renameProd_, srcProdPtr, wake edges and events
     * rely on) and a ring allocates only in init(). Backs the ROB and
     * the seq-ordered side queues, each of which holds only live ROB
     * entries and so never outgrows the ROB's capacity.
     */
    template <class T> class Ring
    {
      public:
        void init(std::size_t capacity)
        {
            std::size_t cap = 1;
            while (cap < capacity)
                cap <<= 1;
            slots_.resize(cap);
            mask_ = cap - 1;
            head_ = 0;
            count_ = 0;
        }
        bool empty() const { return count_ == 0; }
        std::size_t size() const { return count_; }
        std::size_t capacity() const { return slots_.size(); }
        T &front() { return slots_[head_ & mask_]; }
        const T &front() const { return slots_[head_ & mask_]; }
        T &back() { return slots_[(head_ + count_ - 1) & mask_]; }
        T &operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
        /** Append by recycling the tail slot in place. */
        T &pushSlot()
        {
            assert(count_ <= mask_ && "ring overflow");
            return slots_[(head_ + count_++) & mask_];
        }
        void push_back(const T &v) { pushSlot() = v; }
        void pop_front()
        {
            ++head_;
            --count_;
        }
        void pop_back() { --count_; }
        void clear()
        {
            head_ = 0;
            count_ = 0;
        }
        /** Permanent slot index of an element, and its inverse. */
        std::uint32_t slotOf(const T &e) const
        {
            return static_cast<std::uint32_t>(&e - slots_.data());
        }
        T &slot(std::uint32_t i) { return slots_[i]; }

      private:
        std::vector<T> slots_;
        std::size_t head_ = 0, mask_ = 0, count_ = 0;
    };

    // -- per-cycle stages ------------------------------------------------
    // Each reports whether it did anything this cycle; a cycle in
    // which none did is idle (see skipIdleCycles).
    unsigned doCommit();
    bool doExecute();
    unsigned doFetch();

    // -- helpers ---------------------------------------------------------
    bool isSpeculative(const RobEntry &e) const;
    bool addrTainted(RobEntry &e);
    bool taintOf(RobEntry &e);
    /** Answers a gated load's on-demand SpecContext inputs. */
    struct LoadGateInputs;
    bool resolveControl(RobEntry &e);
    void registerDispatch(RobEntry &e);
    void enqueueReady(RobEntry &e);
    void onComplete(RobEntry &e);
    bool tryIssue(RobEntry &e);
    bool gateWakeDue(const RobEntry &e) const;
    void captureGateWake(RobEntry &e, const GateWake &w);
    std::uint64_t horizonSeq();
    void squashAfter(std::uint64_t seq);
    void rebuildRenameMap();
    void captureOperand(RobEntry &e, unsigned slot, RegId reg);
    Cycle execLatency(const RobEntry &e);
    bool tryIssueLoad(RobEntry &e);
    std::uint64_t memFront() const;
    std::uint64_t unparkLoads(std::size_t from);
    void applyCommit(RobEntry &e);
    void noteFenceStallEnd(const RobEntry &e);
    void recordSpan(trace::Flag flag, const RobEntry &e, Cycle start,
                    const char *suffix = nullptr);
    void runScheduled();
    /**
     * Called after an idle cycle: one that committed, completed,
     * issued, tried and dispatched nothing. Every ready-queue entry
     * was then a policy-blocked load whose wake conditions all held
     * still (loads behind the fence/store front wait in frontQ_), and
     * every following cycle repeats this one until a time-bound
     * source fires: the next completion event, the fetch stall's
     * end, a blocked load's recheck cycle or a scheduled callback.
     * Jumps now_ to the cycle before the earliest of them, charging
     * the skipped cycles' blocked-cycle, elided-gate and
     * ROB-occupancy accounting exactly (DESIGN §5.5).
     * @p start is the run's first cycle, for the maxCycles guard.
     */
    void skipIdleCycles(Cycle start);
    std::uint64_t evalAlu(const RobEntry &e) const;
    bool evalBranch(const RobEntry &e) const;

    // -- sampled simulation (pipeline_sampling.cc, DESIGN §5.8) -----------
    /** Phase controller: called at the quiescent engagement point in
     * sampled mode. Runs functional skip/warm phases to their
     * instruction-count boundaries, records completed detailed
     * windows into sampler_, and returns with the machine either
     * inside a detailed window (the detailed loop proceeds) or
     * halted. */
    void samplingStep(SpeculationPolicy &pol);
    /** Commits up to @p budget micro-ops through the architectural
     * stepping core (functional.hh) with no timing (now_ does not
     * advance) and, in the skip phase, no microarchitectural updates
     * at all. With @p kWarm set its hooks drive the L1/L2 caches,
     * D-TLB, branch predictors, BTB, RSB and the policy's warmAccess
     * hook, so detailed windows open on the state a continuously-
     * detailed run would have. Only the committed-micro-op counters
     * advance; all other stats stay untouched. */
    template <bool kWarm>
    void functionalAdvance(std::uint64_t budget, SpeculationPolicy &pol);
    /** The functional phases' hooks into the stepping core
     * (pipeline_sampling.cc). */
    template <bool kWarm>
    struct PhaseHooks;

    const Program &prog_;
    Memory &mem_;
    PipelineParams params_;

    CacheHierarchy caches_;
    Tlb dtlb_;
    CondPredictor cond_;
    Btb btb_;
    Rsb rsb_;
    StatSet stats_;

    // Cached stat handles: every per-cycle, per-op and per-run stat
    // bumps through one, never by name. Handles survive
    // StatSet::clear(), so the warmup/measure reset keeps them live.
    Counter ctrCommitted_;
    Counter ctrCommittedKernel_;
    Counter ctrFetched_;
    Counter ctrLoads_;
    Counter ctrLoadsSpec_;
    Counter ctrLoadsInvisible_;
    Counter ctrBlockedCycles_;
    Counter ctrSquashedUops_;
    Counter ctrFences_;
    Counter ctrFencesKernel_;
    Counter ctrMispredicts_;
    Counter ctrSquashes_;
    Counter ctrGateChecks_; ///< real policy gateLoad invocations
    Counter ctrGateElided_; ///< per-cycle re-gates skipped by wakes

    // Handles for stats that exist only once their event fires: each
    // binds on first use, so the key set matches what name-keyed
    // increments would leave (DESIGN §5.2).
    CacheCounters cacheCtrs_{stats_};
    LazyCounter ctrMispredBranch_{&stats_, "mispredicts.branch"};
    LazyCounter ctrMispredIcall_{&stats_, "mispredicts.icall"};
    LazyCounter ctrMispredRet_{&stats_, "mispredicts.ret"};
    LazyCounter ctrKernelEntries_{&stats_, "kernel_entries"};
    LazyCounter ctrRsbUnderflowBtb_{&stats_, "rsb_underflow_btb"};

    // Distribution telemetry (registered once in the constructor;
    // pointees are stable map nodes inside stats_).
    Histogram *histRobOcc_ = nullptr;
    Histogram *histFenceStall_ = nullptr;
    Histogram *histSquashDepth_ = nullptr;
    Histogram *histLoadWait_ = nullptr;

    SpeculationPolicy *policy_ = nullptr;
    UnsafePolicy unsafe_;

    LeakLedger ledger_;
    /** Ledger enabled && classifier installed, latched per run. */
    bool ledgerArmed_ = false;
    /** Syscall entry point of the current run (leak attribution). */
    FuncId entryFunc_ = kNoFunc;

    Asid asid_ = 0;
    Addr stackBase_ = 0;

    std::array<std::uint64_t, kNumRegs> regs_{};

    /** Node pool of every CowStack below (fetch_.stack and the ROB
     * slots' checkpoints): declared first, destroyed last. */
    StackPool stackPool_;

    // ROB as a fixed-capacity ring (capacity = params_.robSize
    // rounded up to a power of two, set once in the constructor).
    Ring<RobEntry> rob_;
    std::uint64_t nextSeq_ = 0;
    std::array<std::uint64_t, kNumRegs> renameMap_{};
    /** Producer entry per renamed register (valid iff renameValid_);
     * ROB ring slots never move, and the commit and squash paths
     * repair the map before a slot is recycled. */
    std::array<RobEntry *, kNumRegs> renameProd_{};
    std::array<bool, kNumRegs> renameValid_{};

    FetchState fetch_;
    Cycle now_ = 0;
    Cycle fetchStallUntil_ = 0;
    std::uint64_t fetchBlockedOnSeq_ = RobEntry::kNoSeq;
    Addr lastFetchLine_ = ~Addr{0};
    unsigned inflightLoads_ = 0;
    unsigned inflightStores_ = 0;
    bool halted_ = false;
    bool eventsOn_ = false; ///< structured-sink flag, cached per run

    // Smallest seq of an unresolved control op (the Visibility Point
    // horizon), recomputed once per cycle from unresolvedCtls_.
    std::uint64_t oldestUnresolvedCtl_ = RobEntry::kNoSeq;
    /** Ticks whenever oldestUnresolvedCtl_ changes: the implicit
     * wake source of every blocked load (VP release, `speculative`
     * flips, STT taint clears — all tied to horizon movement). */
    std::uint64_t horizonGen_ = 0;

    // Descriptor of the function fetch is in; re-resolved only when
    // fetch_.func changes.
    FuncId fetchFuncCached_ = kNoFunc;
    const Function *fetchFuncPtr_ = nullptr;

    // Idle-cycle skipping (skipIdleCycles): what the current cycle's
    // issue walk elided, and the lifetime skip total.
    unsigned idleElided_ = 0;   ///< blocked loads elided this cycle
    Cycle idleRecheckAt_ = 0;   ///< their earliest recheck (0 = none)
    std::uint64_t cyclesSkipped_ = 0;

    // Sampled-simulation controller state (pipeline_sampling.cc). The phase
    // machine anchors on the cumulative committed-micro-op count, so
    // phases span run() boundaries and request streams; it is
    // re-anchored only by resetSampling().
    enum class SamplePhase : std::uint8_t
    {
        Skip,    ///< functional, no microarchitectural updates
        Warm,    ///< functional, caches/predictors/views driven
        Detailed ///< cycle-accurate, contributes to the estimate
    };
    bool sampleMode_ = false; ///< sampling latched for this run
    bool sampleInit_ = false; ///< phase machine anchored
    bool sampleFirstSkip_ = true; ///< next skip takes the seed jitter
    SamplePhase samplePhase_ = SamplePhase::Detailed;
    std::uint64_t samplePhaseEnd_ = 0; ///< phase boundary (committed)
    std::uint64_t sampleWindowStartInsts_ = 0;
    Cycle sampleWindowStartCycle_ = 0;
    SamplingEstimator sampler_;

    // -- incremental scheduling structures --------------------------------
    // All are keyed/sorted by seq; RobEntry pointers are stable (ring
    // slots never move) and every structure drops its suffix on
    // squash and the affected front entries on commit, so no
    // structure ever holds a pointer to a popped entry. Each holds
    // only live ROB entries, so none outgrows the ROB; the vectors
    // are reserved to the ROB's capacity up front.

    /** Issue candidates (Waiting with ready operands, or Blocked),
     * sorted by seq. Entries leave by issuing, by parking in frontQ_
     * or by squash; conflict-stalled entries are re-attempted every
     * cycle, exactly like the full-ROB scan did. Policy-blocked
     * entries are only re-gated when a wake condition holds (see
     * GateWake); an elided cycle is still charged as blocked. */
    std::vector<std::pair<std::uint64_t, RobEntry *>> readyQ_;
    /** Ready loads parked behind the fence/store front (an older
     * unissued store or not-Done fence), sorted by seq. They rejoin
     * readyQ_ once memFront() has passed them (unparkLoads). */
    std::vector<std::pair<std::uint64_t, RobEntry *>> frontQ_;

    /** Completion calendar: a ring of per-cycle seq buckets plus a
     * (practically unused) sorted overflow list for events beyond
     * the ring span. Execution latencies are bounded far below the
     * span, so push and drain are O(1) where the (cycle, seq)
     * min-heap this replaces paid O(log n) per event. Drain order is
     * the heap's exactly: cycles ascending, seqs ascending within a
     * cycle. Squashed entries' events are dropped lazily on pop.
     * A bucket is a seq-sorted list threaded through one node pool
     * with a free list, so a cell's calendar allocates only when the
     * pool grows (a few times per Pipeline), not once per bucket as
     * 1024 separate vectors did. */
    class EventRing
    {
      public:
        /** One completion event: the issued entry's seq (liveness
         * check: a squashed entry's slot reads kNoSeq or a newer
         * seq) plus its permanent ring slot, so firing never
         * searches the ROB. */
        struct Ev
        {
            std::uint64_t seq;
            RobEntry *entry;
        };

        EventRing()
        {
            head_.fill(kNil);
            tail_.fill(kNil);
        }

        bool empty() const { return size_ == 0; }
        void emplace(Cycle c, std::uint64_t seq, RobEntry *entry)
        {
            assert(c >= base_ && "event scheduled in the past");
            if (size_ == 0 || c < next_)
                next_ = c;
            ++size_;
            if (c - base_ >= kSlots) {
                auto it = std::lower_bound(
                    overflow_.begin(), overflow_.end(), c,
                    [](const auto &p, Cycle cc) {
                        return p.first < cc;
                    });
                while (it != overflow_.end() && it->first == c &&
                       it->second.seq < seq)
                    ++it;
                overflow_.insert(it, {c, {seq, entry}});
                return;
            }
            link(c & kMask, {seq, entry});
        }
        /** Earliest pending event cycle; only valid when !empty(). */
        Cycle nextCycle()
        {
            if (next_ >= base_)
                return next_; // still exact (emplace keeps the min)
            Cycle c = base_;
            while (head_[c & kMask] == kNil && c - base_ < kSlots - 1)
                ++c;
            if (head_[c & kMask] == kNil)
                c = overflow_.front().first;
            next_ = c;
            return c;
        }
        /** Pop every event with cycle <= now, in (cycle, seq) order.
         * @p f may schedule events (for later cycles only). */
        template <class F> void drainUpTo(Cycle now, F &&f)
        {
            while (base_ <= now) {
                const std::size_t slot = base_ & kMask;
                while (head_[slot] != kNil) {
                    const std::uint32_t n = head_[slot];
                    const Ev ev = nodes_[n].ev;
                    head_[slot] = nodes_[n].next;
                    nodes_[n].next = free_;
                    free_ = n;
                    --size_;
                    f(ev); // may grow nodes_: hold no node reference
                }
                tail_[slot] = kNil;
                ++base_;
                while (!overflow_.empty() &&
                       overflow_.front().first - base_ < kSlots) {
                    auto [c, ev] = overflow_.front();
                    overflow_.erase(overflow_.begin());
                    link(c & kMask, ev);
                }
            }
            if (next_ < base_)
                next_ = base_ - 1; // mark lazy: recompute on demand
        }
        /** Reset; the next drain starts at @p base (events are only
         * ever scheduled for cycles > now). */
        void clear(Cycle base)
        {
            head_.fill(kNil);
            tail_.fill(kNil);
            nodes_.clear(); // keeps the pool's capacity
            free_ = kNil;
            overflow_.clear();
            size_ = 0;
            base_ = base;
            next_ = 0;
        }

      private:
        static constexpr std::size_t kSlots = 1024;
        static constexpr std::size_t kMask = kSlots - 1;
        static constexpr std::uint32_t kNil = ~std::uint32_t{0};

        struct Node
        {
            Ev ev;
            std::uint32_t next;
        };

        /** Insert @p ev into bucket @p slot after every event with a
         * seq <= its own (events mostly arrive in seq order, so the
         * tail check usually decides). */
        void link(std::size_t slot, Ev ev)
        {
            std::uint32_t n = free_;
            if (n != kNil) {
                free_ = nodes_[n].next;
                nodes_[n].ev = ev;
            } else {
                n = static_cast<std::uint32_t>(nodes_.size());
                nodes_.push_back({ev, kNil});
            }
            const std::uint32_t t = tail_[slot];
            if (t == kNil || nodes_[t].ev.seq <= ev.seq) {
                nodes_[n].next = kNil;
                (t == kNil ? head_[slot] : nodes_[t].next) = n;
                tail_[slot] = n;
                return;
            }
            std::uint32_t *at = &head_[slot];
            while (nodes_[*at].ev.seq <= ev.seq)
                at = &nodes_[*at].next;
            nodes_[n].next = *at;
            *at = n;
        }

        std::array<std::uint32_t, kSlots> head_;
        std::array<std::uint32_t, kSlots> tail_;
        std::vector<Node> nodes_;
        std::uint32_t free_ = kNil;
        std::vector<std::pair<Cycle, Ev>> overflow_;
        Cycle base_ = 0;  ///< oldest undrained cycle
        Cycle next_ = 0;  ///< min pending cycle; < base_ means stale
        std::size_t size_ = 0;
    };
    EventRing eventQ_;

    /** All in-flight stores (dispatch to commit), seq order. */
    Ring<std::pair<std::uint64_t, RobEntry *>> storeQ_;
    /** Seqs of stores that have not issued yet (address unknown);
     * stores issue out of order, so this one erases mid-vector. */
    std::vector<std::uint64_t> pendingStores_;
    /** Seqs of fences that are not Done yet. A fence issues only at
     * the ROB head, so the completing fence is always the front. */
    Ring<std::uint64_t> pendingFences_;
    /** Dispatched control ops as (seq, permanent ring slot);
     * resolved/dead fronts are popped lazily by horizonSeq(), which
     * validates the slot by seq instead of searching the ROB. Every
     * entry behind a live front is a live ROB entry (committed ones
     * are popped before each cycle's dispatch), so the ROB's capacity
     * bounds it too. */
    Ring<std::pair<std::uint64_t, RobEntry *>> unresolvedCtls_;

    /** Frames called inside a functional phase (PhaseHooks), reused
     * across phases so a warmed pipeline's phases allocate nothing. */
    std::vector<Frame> phaseFrames_;

    /** Mid-run kernel events (scheduleAt), fired by the run loop
     * once now_ reaches their cycle. Unsorted — the list is tiny
     * (a scenario schedules a handful) and scanned only while
     * nonempty. */
    std::vector<std::pair<Cycle, std::function<void()>>> scheduled_;
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_PIPELINE_HH
