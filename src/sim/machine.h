/**
 * @file
 * The simulated multicore machine: an interpreter for the IR with a
 * pluggable coherence protocol (MESI directory by default, Dragon via
 * MachineConfig::protocol), a cycle cost model, SSB-aware execution,
 * and PMU callbacks.
 *
 * Scheduling is event-driven lowest-clock-first: every instruction that
 * other threads can observe runs when its thread has the smallest
 * (clock, tid) of all runnable threads, and advances that clock by its
 * cost. This makes timing feedback shape interleavings the way real
 * contention does (a core stalled on a HITM transfer falls behind and
 * its rival gets ahead), while staying fully deterministic.
 *
 * Instructions are either shared or thread-local. Shared ones (Load,
 * Store, AddMem, Cas, FetchAdd, Fence, SsbFlush, AliasCheck) may touch
 * the coherence protocol, memory, the PMU sink, the TSO trace or the
 * SSB flush path. Thread-local ones (ALU ops, branches, Call, Ret,
 * JmpReg, Tid, Pause, Halt) change only their own thread's registers,
 * pc and clock, so they commute with everything other threads do.
 *
 * run() therefore executes in slices. It picks the runnable thread with
 * the lowest (clock, tid) and the runner-up (the rival), and runSlice()
 * runs that thread until it halts, the instruction budget runs out,
 * or it reaches a shared instruction while its (clock, tid) is no
 * longer below the rival's. The rival's clock cannot move meanwhile, so
 * it is read once per slice. Thread-local instructions run even past
 * the rival's clock. Shared instructions therefore run in exactly the
 * order, at exactly the clocks, that one-instruction-at-a-time
 * lowest-clock scheduling gives, so their outcomes, costs, jitter draws
 * and sink callbacks are the same; only the host-side order of
 * thread-local work differs.
 *
 * Inside a slice, pc, clock and the instruction count live in locals,
 * and each instruction jumps straight to its op's handler through a
 * label table with one entry per isa::Op (GCC/Clang labels-as-values;
 * a static_assert keeps it complete). That table is the only
 * local/shared classification: thread-local ops are executed inline,
 * and every shared op is handed to executeShared().
 *
 * The constructor rejects a program that fails isa::Program::validate()
 * or whose last instruction could fall through past the end, and a
 * JmpReg or Ret to an index past the end throws, so a fetch never
 * leaves the code.
 */

#ifndef LASER_SIM_MACHINE_H
#define LASER_SIM_MACHINE_H

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "isa/program.h"
#include "mem/address_space.h"
#include "mem/allocator.h"
#include "mem/memory.h"
#include "sim/hitm.h"
#include "sim/protocol.h"
#include "sim/ssb.h"
#include "sim/timing.h"
#include "util/rng.h"

namespace laser::sim {

/** Machine configuration. */
struct MachineConfig
{
    /** Core (== thread) count; the paper's machine has 4 cores. */
    int numCores = 4;
    TimingModel timing{};
    /** Coherence backend (protocol sweeps; MESI reproduces the paper). */
    ProtocolKind protocol = ProtocolKind::Mesi;
    /** Simulated cache geometry (line size; optional capacity). */
    CacheGeometry geometry{};
    /**
     * Seed for the per-thread timing jitter. Real machines perturb
     * per-access latency (prefetchers, DRAM refresh, TLB walks); without
     * a little jitter the deterministic lockstep scheduler can resonate
     * with the PEBS sample-after value and bias sampling to one core.
     * Runs remain bit-reproducible for a fixed seed.
     */
    std::uint64_t seed = 0x1a5e2;
    /** Enable the +-1 cycle memory-latency jitter. */
    bool latencyJitter = true;
    /**
     * Runaway-program guard. A truncated run still executes exactly
     * maxInstructions instructions, but they are no longer the exact
     * lowest-clock prefix: a thread may have run ahead through
     * thread-local instructions when the budget ran out.
     */
    std::uint64_t maxInstructions = 400'000'000;
    /**
     * Bytes added to the initial heap break before the first allocation;
     * models the incidental layout shift of running under LASER
     * (Section 7.4.2, lu_ncb).
     */
    std::uint64_t heapPerturbation = 0;
    /**
     * Sheriff execution model: non-atomic accesses bypass coherence
     * (each thread works on its private copy), atomics stay shared.
     */
    bool threadsAsProcesses = false;
    /** Track pages dirtied between sync points (Sheriff diff costs). */
    bool trackDirtyPages = false;
    /** Pre-emptive SSB flush threshold (L1 associativity, Section 5.5). */
    int ssbMaxEntries = 8;
    SsbMode ssbMode = SsbMode::Coalescing;
    /** Record the store-visibility trace for TSO property tests. */
    bool recordTsoTrace = false;
};

/**
 * One store-visibility event: a group of stores by one thread became
 * globally visible atomically. Direct stores are singleton groups; a
 * transactional SSB flush is one group covering all buffered stores.
 */
struct TsoEvent
{
    int tid = 0;
    std::uint64_t minSeq = 0;
    std::uint64_t maxSeq = 0;
    std::uint64_t count = 0;
};

/** Aggregate statistics of one machine run. */
struct MachineStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t memMisses = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t rfos = 0;
    std::uint64_t hitmLoads = 0;
    std::uint64_t hitmStores = 0;
    std::uint64_t syncOps = 0;
    std::uint64_t ssbStores = 0;
    std::uint64_t ssbLoadHits = 0;
    std::uint64_t ssbFlushes = 0;
    std::uint64_t ssbFlushedEntries = 0;
    std::uint64_t ssbMaxEntriesSeen = 0;
    std::uint64_t aliasChecks = 0;
    std::uint64_t aliasMisspecs = 0;
    /** True if the run hit the maxInstructions guard. */
    bool truncated = false;
    std::vector<std::uint64_t> threadCycles;
    std::vector<std::uint64_t> threadInstructions;

    std::uint64_t hitmTotal() const { return hitmLoads + hitmStores; }

    bool operator==(const MachineStats &) const = default;

    /** Represented seconds of this run (after time compression). */
    double seconds() const { return representedSeconds(cycles); }
};

/** The simulated machine. */
class Machine
{
  public:
    /**
     * Load @p prog. Throws std::invalid_argument when it fails
     * Program::validate() or its last instruction is not Halt, Jmp,
     * JmpReg or Ret.
     */
    explicit Machine(isa::Program prog, MachineConfig cfg = {});

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    mem::Memory &memory() { return mem_; }
    const mem::Memory &memory() const { return mem_; }
    mem::BumpAllocator &heap() { return heap_; }
    mem::BumpAllocator &globalsAllocator() { return globals_; }
    const mem::AddressSpace &addressSpace() const { return space_; }
    const isa::Program &program() const { return prog_; }
    const MachineConfig &config() const { return cfg_; }
    /** The coherence backend (MESI directory, Dragon bus, ...). */
    const CoherenceProtocol &protocol() const { return *proto_; }

    /** Install the PMU observer (PEBS / VTune / Sheriff model). */
    void setPmuSink(PmuSink *sink) { sink_ = sink; }

    /**
     * Run all threads to completion; returns the run statistics. Throws
     * std::runtime_error when a JmpReg or Ret jumps past the end of the
     * code.
     */
    MachineStats run();

    /** Register value of thread @p tid after run() (for tests). */
    std::int64_t reg(int tid, isa::Reg r) const;

    /** Store-visibility trace (only populated when recordTsoTrace). */
    const std::vector<TsoEvent> &tsoTrace() const { return tsoTrace_; }

  private:
    struct ThreadCtx
    {
        explicit ThreadCtx(SsbMode mode) : ssb(mode) {}

        std::array<std::int64_t, isa::kNumRegs> regs{};
        std::uint32_t pc = 0;
        std::uint64_t clock = 0;
        std::uint64_t instructions = 0;
        std::uint64_t storeSeq = 0;
        bool halted = false;
        int tid = 0;
        SoftwareStoreBuffer ssb;
        std::unordered_set<std::uint64_t> dirtyPages;
        laser::Rng rng;
    };

    void setReg(ThreadCtx &t, isa::Reg r, std::int64_t v);
    /** One coherence-visible memory access; returns its cycle cost. */
    std::uint64_t memAccess(ThreadCtx &t, std::uint64_t addr, int size,
                            bool is_write, bool is_load_class,
                            bool is_atomic);
    std::uint64_t flushSsb(ThreadCtx &t);
    std::uint64_t syncComplete(ThreadCtx &t, isa::SyncKind kind);
    void traceVisibility(ThreadCtx &t, std::uint64_t min_seq,
                         std::uint64_t max_seq, std::uint64_t count);
    /** Execute the shared instruction at t.pc; advance its pc and clock. */
    void executeShared(ThreadCtx &t);
    /**
     * Run @p t (the lowest runnable (clock, tid)) until it halts, the
     * instruction budget runs out, or its next instruction is shared and
     * its (clock, tid) is no longer below @p rival's (null: no other
     * runnable thread).
     */
    void runSlice(ThreadCtx &t, const ThreadCtx *rival);

    isa::Program prog_;
    MachineConfig cfg_;
    /** Cycle cost of each AccessOutcome under the configured protocol. */
    std::array<std::uint32_t, kAccessOutcomeCount> outcomeCost_{};
    mem::Memory mem_;
    mem::AddressSpace space_;
    mem::BumpAllocator heap_;
    mem::BumpAllocator globals_;
    std::unique_ptr<CoherenceProtocol> proto_;
    std::vector<ThreadCtx> threads_;
    PmuSink *sink_ = nullptr;
    MachineStats stats_;
    std::vector<TsoEvent> tsoTrace_;
    /** flushSsb's drain buffer, reused across flushes. */
    std::vector<SsbEntry> drained_;
    bool ran_ = false;
};

} // namespace laser::sim

#endif // LASER_SIM_MACHINE_H
