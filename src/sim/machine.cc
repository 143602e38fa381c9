#include "sim/machine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace laser::sim {

using isa::Instruction;
using isa::Op;
using isa::SyncKind;

#if !defined(__GNUC__)
#error "Machine::runSlice dispatches through GCC/Clang labels-as-values"
#endif

namespace {

/**
 * Return @p prog if it is safe to interpret, else throw: it must be
 * structurally valid, and no instruction may fall through past the last
 * one. Branch targets are checked here; register-indirect jumps are
 * checked when they execute.
 */
isa::Program
loadable(isa::Program prog)
{
    const std::string err = prog.validate();
    if (!err.empty())
        throw std::invalid_argument("program " + prog.name + ": " + err);
    const Op last = prog.code.back().op;
    if (last != Op::Halt && last != Op::Jmp && last != Op::JmpReg &&
            last != Op::Ret) {
        throw std::invalid_argument(
            "program " + prog.name + ": last instruction (" +
            isa::opName(last) + ") falls through past the end of the code");
    }
    return prog;
}

/** A JmpReg or Ret left the code; never returns. */
[[noreturn]] void
badJump(int tid, std::uint32_t pc, std::uint64_t dest, std::size_t size)
{
    throw std::runtime_error(
        "thread " + std::to_string(tid) + ": indirect jump at pc " +
        std::to_string(pc) + " to " + std::to_string(dest) +
        ", past the end of the code (" + std::to_string(size) +
        " instructions)");
}

} // namespace

Machine::Machine(isa::Program prog, MachineConfig cfg)
    : prog_(loadable(std::move(prog))),
      cfg_(cfg),
      space_(prog_, cfg.numCores),
      heap_(mem::Layout::kHeapBase, mem::Layout::kHeapSize),
      globals_(mem::Layout::kGlobalsBase, mem::Layout::kGlobalsSize),
      proto_(makeProtocol(cfg.protocol, cfg.numCores, cfg.geometry))
{
    heap_.perturb(cfg.heapPerturbation);
    threads_.reserve(cfg.numCores);
    for (int t = 0; t < cfg.numCores; ++t) {
        threads_.emplace_back(cfg.ssbMode);
        threads_.back().tid = t;
        threads_.back().regs[isa::R15] =
            static_cast<std::int64_t>(space_.stackTop(t));
        threads_.back().rng.reseed(cfg.seed ^
                                   (0x9e3779b97f4a7c15ULL * (t + 1)));
    }
    stats_.threadCycles.resize(cfg.numCores, 0);
    stats_.threadInstructions.resize(cfg.numCores, 0);

    // Per-protocol cycle costs: Dragon's dirty intervention and bus
    // update replace MESI's HITM transfer and S->M upgrade.
    const TimingModel &tm = cfg_.timing;
    const bool dragon = cfg_.protocol == ProtocolKind::Dragon;
    const auto set = [&](AccessOutcome o, std::uint32_t cycles) {
        outcomeCost_[static_cast<std::size_t>(o)] = cycles;
    };
    set(AccessOutcome::L1Hit, tm.l1Hit);
    set(AccessOutcome::LlcHit, tm.llcHit);
    set(AccessOutcome::MemMiss, tm.memMiss);
    set(AccessOutcome::HitmLoad, dragon ? tm.dragonHitm : tm.hitm);
    set(AccessOutcome::HitmStore, dragon ? tm.dragonHitm : tm.hitm);
    set(AccessOutcome::Upgrade, dragon ? tm.dragonUpdate : tm.upgrade);
    set(AccessOutcome::RfoShared, tm.rfoShared);
}

void
Machine::setReg(ThreadCtx &t, isa::Reg r, std::int64_t v)
{
    // r0 is hardwired to zero by convention.
    if (r != isa::R0)
        t.regs[r] = v;
}

std::int64_t
Machine::reg(int tid, isa::Reg r) const
{
    return threads_.at(tid).regs[r];
}

std::uint64_t
Machine::memAccess(ThreadCtx &t, std::uint64_t addr, int size,
                   bool is_write, bool is_load_class, bool is_atomic)
{
    const TimingModel &tm = cfg_.timing;
    std::uint64_t cost = 0;
    if (cfg_.latencyJitter)
        cost += t.rng() & 1;

    if (is_load_class)
        ++stats_.loads;
    if (is_write)
        ++stats_.stores;
    if (cfg_.trackDirtyPages && is_write)
        t.dirtyPages.insert(addr >> 12);

    if (cfg_.threadsAsProcesses && !is_atomic) {
        // Sheriff execution model: the access hits the thread's private
        // copy; no coherence traffic, no HITM possible.
        cost += tm.l1Hit;
        if (sink_)
            cost += sink_->onMemop(t.tid, t.pc, is_write, t.clock);
        return cost;
    }

    const AccessOutcome outcome =
        proto_->access(t.tid, addr, is_write, is_load_class);
    cost += outcomeCost_[static_cast<std::size_t>(outcome)];
    switch (outcome) {
      case AccessOutcome::L1Hit:
        ++stats_.l1Hits;
        break;
      case AccessOutcome::LlcHit:
        ++stats_.llcHits;
        break;
      case AccessOutcome::MemMiss:
        ++stats_.memMisses;
        break;
      case AccessOutcome::HitmLoad:
        ++stats_.hitmLoads;
        break;
      case AccessOutcome::HitmStore:
        ++stats_.hitmStores;
        break;
      case AccessOutcome::Upgrade:
        ++stats_.upgrades;
        break;
      case AccessOutcome::RfoShared:
        ++stats_.rfos;
        break;
    }

    if (sink_) {
        if (isHitm(outcome)) {
            HitmEvent ev;
            ev.core = t.tid;
            ev.pcIndex = t.pc;
            ev.vaddr = addr;
            ev.accessSize = static_cast<std::uint8_t>(size);
            ev.isLoadUop = outcome == AccessOutcome::HitmLoad;
            ev.isStore = is_write;
            ev.cycle = t.clock;
            cost += sink_->onHitm(ev);
        }
        cost += sink_->onMemop(t.tid, t.pc, is_write, t.clock);
    }
    return cost;
}

void
Machine::traceVisibility(ThreadCtx &t, std::uint64_t min_seq,
                         std::uint64_t max_seq, std::uint64_t count)
{
    if (cfg_.recordTsoTrace)
        tsoTrace_.push_back({t.tid, min_seq, max_seq, count});
}

std::uint64_t
Machine::flushSsb(ThreadCtx &t)
{
    if (t.ssb.empty())
        return 0;

    const TimingModel &tm = cfg_.timing;
    t.ssb.drain(&drained_);
    ++stats_.ssbFlushes;
    stats_.ssbFlushedEntries += drained_.size();

    std::uint64_t cost = tm.ssbFlushBase;

    if (cfg_.ssbMode == SsbMode::Fifo) {
        // The queue drains one store at a time, each individually
        // globally visible (trivially TSO, impractically slow/large).
        for (const SsbEntry &e : drained_) {
            cost += memAccess(t, e.addr, 8, true, false, false);
            mem_.writeMasked(e.addr, e.data, byteMask(e.validMask));
            traceVisibility(t, e.minSeq, e.maxSeq, 1);
        }
        return cost;
    }

    // Coalescing mode: the flush is one hardware transaction — all lines
    // are acquired and all bytes become visible atomically (strong
    // atomicity, Section 5.5), so no illegal reordering is observable.
    // drain() returns chunks in ascending address order, so each line is
    // acquired once, in ascending order, by skipping repeats of the
    // previous chunk's line.
    const std::uint64_t line_bytes = proto_->lineBytes();
    std::uint64_t min_seq = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_seq = 0;
    for (std::size_t i = 0; i < drained_.size(); ++i) {
        const SsbEntry &e = drained_[i];
        const std::uint64_t line = proto_->lineOf(e.addr);
        if (i == 0 || line != proto_->lineOf(drained_[i - 1].addr))
            cost += memAccess(t, line * line_bytes,
                              static_cast<int>(line_bytes), true, false,
                              false);
        min_seq = std::min(min_seq, e.minSeq);
        max_seq = std::max(max_seq, e.maxSeq);
    }
    for (const SsbEntry &e : drained_)
        mem_.writeMasked(e.addr, e.data, byteMask(e.validMask));
    traceVisibility(t, min_seq, max_seq, drained_.size());
    return cost;
}

std::uint64_t
Machine::syncComplete(ThreadCtx &t, SyncKind kind)
{
    ++stats_.syncOps;
    std::uint64_t cost = 0;
    if (sink_) {
        cost = sink_->onSync(t.tid, kind,
                             static_cast<std::uint64_t>(
                                 t.dirtyPages.size()),
                             t.clock);
    }
    if (cfg_.trackDirtyPages)
        t.dirtyPages.clear();
    return cost;
}

void
Machine::executeShared(ThreadCtx &t)
{
    const Instruction &insn = prog_.code[t.pc];
    const TimingModel &tm = cfg_.timing;
    std::uint64_t cost = tm.base;
    auto regU = [&](isa::Reg r) {
        return static_cast<std::uint64_t>(t.regs[r]);
    };

    switch (insn.op) {
      case Op::Load: {
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        std::uint64_t value = 0;
        if (insn.useSsb && !insn.ssbSkip) {
            cost += tm.ssbLoadCheck;
            if (t.ssb.getFull(addr, insn.size, &value)) {
                ++stats_.ssbLoadHits;
                cost += tm.ssbLoadHit;
            } else if (t.ssb.containsAny(addr, insn.size)) {
                cost += memAccess(t, addr, insn.size, false, true, false);
                value = t.ssb.merge(addr, insn.size,
                                    mem_.read(addr, insn.size));
            } else {
                cost += memAccess(t, addr, insn.size, false, true, false);
                value = mem_.read(addr, insn.size);
            }
        } else {
            cost += memAccess(t, addr, insn.size, false, true, false);
            value = mem_.read(addr, insn.size);
        }
        setReg(t, insn.dst, static_cast<std::int64_t>(value));
        break;
      }

      case Op::Store: {
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        const std::uint64_t value = regU(insn.src2);
        if (insn.useSsb) {
            ++stats_.ssbStores;
            cost += tm.ssbStore;
            t.ssb.put(addr, insn.size, value, ++t.storeSeq);
            stats_.ssbMaxEntriesSeen = std::max(
                stats_.ssbMaxEntriesSeen,
                static_cast<std::uint64_t>(t.ssb.entryCount()));
            if (t.ssb.entryCount() >
                    static_cast<std::size_t>(cfg_.ssbMaxEntries)) {
                cost += flushSsb(t);
            }
        } else {
            cost += memAccess(t, addr, insn.size, true, false, false);
            mem_.write(addr, insn.size, value);
            ++t.storeSeq;
            traceVisibility(t, t.storeSeq, t.storeSeq, 1);
        }
        if (insn.sync == SyncKind::LockRelease)
            cost += syncComplete(t, SyncKind::LockRelease);
        break;
      }

      case Op::AddMem: {
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        if (insn.useSsb) {
            cost += tm.ssbLoadCheck;
            std::uint64_t value = 0;
            if (!t.ssb.getFull(addr, insn.size, &value)) {
                cost += memAccess(t, addr, insn.size, false, true, false);
                value = t.ssb.merge(addr, insn.size,
                                    mem_.read(addr, insn.size));
            }
            value += regU(insn.src2);
            ++stats_.ssbStores;
            cost += tm.ssbStore;
            t.ssb.put(addr, insn.size, value, ++t.storeSeq);
            stats_.ssbMaxEntriesSeen = std::max(
                stats_.ssbMaxEntriesSeen,
                static_cast<std::uint64_t>(t.ssb.entryCount()));
            if (t.ssb.entryCount() >
                    static_cast<std::size_t>(cfg_.ssbMaxEntries)) {
                cost += flushSsb(t);
            }
        } else {
            // One coherence access with write intent; the load uop is
            // what a PEBS HITM record would attribute (Section 4.3: such
            // instructions are in both the load and store sets).
            cost += memAccess(t, addr, insn.size, true, true, false);
            const std::uint64_t value =
                mem_.read(addr, insn.size) + regU(insn.src2);
            mem_.write(addr, insn.size, value);
            ++t.storeSeq;
            traceVisibility(t, t.storeSeq, t.storeSeq, 1);
        }
        break;
      }

      case Op::Cas: {
        // Atomics have fence semantics: drain the SSB first.
        cost += flushSsb(t);
        cost += tm.atomicExtra;
        ++stats_.atomics;
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        cost += memAccess(t, addr, insn.size, true, true, true);
        const std::uint64_t old = mem_.read(addr, insn.size);
        const bool success = old == regU(insn.src2);
        if (success) {
            mem_.write(addr, insn.size, regU(insn.dst));
            ++t.storeSeq;
            traceVisibility(t, t.storeSeq, t.storeSeq, 1);
        }
        setReg(t, insn.dst, static_cast<std::int64_t>(old));
        if (insn.sync == SyncKind::LockAcquire && success)
            cost += syncComplete(t, SyncKind::LockAcquire);
        break;
      }

      case Op::FetchAdd: {
        cost += flushSsb(t);
        cost += tm.atomicExtra;
        ++stats_.atomics;
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        cost += memAccess(t, addr, insn.size, true, true, true);
        const std::uint64_t old = mem_.read(addr, insn.size);
        mem_.write(addr, insn.size, old + regU(insn.src2));
        ++t.storeSeq;
        traceVisibility(t, t.storeSeq, t.storeSeq, 1);
        setReg(t, insn.dst, static_cast<std::int64_t>(old));
        if (insn.sync == SyncKind::BarrierWait)
            cost += syncComplete(t, SyncKind::BarrierWait);
        break;
      }

      case Op::Fence:
        cost += tm.fenceCost;
        cost += flushSsb(t);
        break;

      case Op::SsbFlush:
        cost += flushSsb(t);
        break;

      case Op::AliasCheck: {
        ++stats_.aliasChecks;
        cost += tm.aliasCheckCost;
        const std::uint64_t addr = regU(insn.src1) + insn.imm;
        if (t.ssb.containsAny(addr, 8)) {
            // Mis-speculation: recover by flushing (a thread-local
            // decision that cannot violate TSO, Section 5.3).
            ++stats_.aliasMisspecs;
            cost += flushSsb(t);
        }
        break;
      }

      default:
        throw std::logic_error(std::string("thread-local op ") +
                               isa::opName(insn.op) +
                               " routed to executeShared");
    }

    ++t.pc;
    t.clock += cost;
}

void
Machine::runSlice(ThreadCtx &t, const ThreadCtx *rival)
{
    // One handler per Op, in enum order: each thread-local op has its
    // own, every shared op goes to `shared`.
    static const void *const kDispatch[] = {
        &&nop,      // Nop
        &&halt,     // Halt
        &&movImm,   // MovImm
        &&movReg,   // MovReg
        &&add,      // Add
        &&addImm,   // AddImm
        &&sub,      // Sub
        &&subImm,   // SubImm
        &&mul,      // Mul
        &&mulImm,   // MulImm
        &&andOp,    // And
        &&orOp,     // Or
        &&xorOp,    // Xor
        &&shlImm,   // ShlImm
        &&shrImm,   // ShrImm
        &&shared,   // Load
        &&shared,   // Store
        &&shared,   // AddMem
        &&shared,   // Cas
        &&shared,   // FetchAdd
        &&shared,   // Fence
        &&jmp,      // Jmp
        &&jmpReg,   // JmpReg
        &&call,     // Call
        &&jmpReg,   // Ret
        &&beq,      // Beq
        &&bne,      // Bne
        &&blt,      // Blt
        &&bge,      // Bge
        &&pause,    // Pause
        &&tid,      // Tid
        &&shared,   // SsbFlush
        &&shared,   // AliasCheck
    };
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == isa::kNumOps,
                  "kDispatch needs exactly one handler per isa::Op");

    const Instruction *const code = prog_.code.data();
    const std::size_t code_size = prog_.code.size();
    const std::uint64_t base = cfg_.timing.base;
    std::array<std::int64_t, isa::kNumRegs> &regs = t.regs;
    // run() only calls with budget left, so at least one instruction
    // runs.
    const std::uint64_t budget = cfg_.maxInstructions - stats_.instructions;
    // t may run a shared op while its (clock, tid) stays below the
    // rival's, i.e. while clock <= last. The rival's clock cannot move
    // while t runs. t starts below the rival (run() picks the lowest
    // pair), so the slice's first instruction always qualifies, and
    // last cannot underflow: t.tid > rival->tid implies t.clock <
    // rival->clock.
    std::uint64_t last = std::numeric_limits<std::uint64_t>::max();
    if (rival)
        last = t.tid < rival->tid ? rival->clock : rival->clock - 1;

    std::uint32_t pc = t.pc;
    std::uint64_t clock = t.clock;
    std::uint64_t n = 0;
    const Instruction *insn = &code[pc];
    auto regU = [&](isa::Reg r) { return static_cast<std::uint64_t>(regs[r]); };
    // Thread-local writes skip setReg's branch: write, then re-zero r0.
    auto set = [&](std::int64_t v) {
        regs[insn->dst] = v;
        regs[isa::R0] = 0;
    };

// Retire the current instruction (pc is already its successor), stop at
// the instruction budget, else fetch and jump to the next handler.
#define LASER_DISPATCH()                                                   \
    do {                                                                   \
        if (++n == budget)                                                 \
            goto done;                                                     \
        insn = &code[pc];                                                  \
        goto *kDispatch[static_cast<std::size_t>(insn->op)];               \
    } while (0)
#define LASER_NEXT(cost)                                                   \
    do {                                                                   \
        ++pc;                                                              \
        clock += (cost);                                                   \
        LASER_DISPATCH();                                                  \
    } while (0)

    goto *kDispatch[static_cast<std::size_t>(insn->op)];

nop:
    LASER_NEXT(base);
halt:
    t.halted = true;
    ++pc;
    clock += base;
    ++n;
    goto done;
movImm:
    set(insn->imm);
    LASER_NEXT(base);
movReg:
    set(regs[insn->src1]);
    LASER_NEXT(base);
// ALU arithmetic wraps modulo 2^64 like the hardware it models; compute
// unsigned to keep overflow defined.
add:
    set(static_cast<std::int64_t>(regU(insn->src1) + regU(insn->src2)));
    LASER_NEXT(base);
addImm:
    set(static_cast<std::int64_t>(regU(insn->src1) +
                                  static_cast<std::uint64_t>(insn->imm)));
    LASER_NEXT(base);
sub:
    set(static_cast<std::int64_t>(regU(insn->src1) - regU(insn->src2)));
    LASER_NEXT(base);
subImm:
    set(static_cast<std::int64_t>(regU(insn->src1) -
                                  static_cast<std::uint64_t>(insn->imm)));
    LASER_NEXT(base);
mul:
    set(static_cast<std::int64_t>(regU(insn->src1) * regU(insn->src2)));
    LASER_NEXT(base + 2); // multiply latency
mulImm:
    set(static_cast<std::int64_t>(regU(insn->src1) *
                                  static_cast<std::uint64_t>(insn->imm)));
    LASER_NEXT(base + 2);
andOp:
    set(regs[insn->src1] & regs[insn->src2]);
    LASER_NEXT(base);
orOp:
    set(regs[insn->src1] | regs[insn->src2]);
    LASER_NEXT(base);
xorOp:
    set(regs[insn->src1] ^ regs[insn->src2]);
    LASER_NEXT(base);
shlImm:
    set(static_cast<std::int64_t>(regU(insn->src1) << insn->imm));
    LASER_NEXT(base);
shrImm:
    set(static_cast<std::int64_t>(regU(insn->src1) >> insn->imm));
    LASER_NEXT(base);
pause:
    LASER_NEXT(base + cfg_.timing.pauseCost);
tid:
    set(t.tid);
    LASER_NEXT(base);

jmp:
    pc = static_cast<std::uint32_t>(insn->target);
    clock += base;
    LASER_DISPATCH();
jmpReg: { // JmpReg and Ret
    const std::uint64_t dest = regU(insn->src1);
    if (dest >= code_size) [[unlikely]]
        badJump(t.tid, pc, dest, code_size);
    pc = static_cast<std::uint32_t>(dest);
    clock += base;
    LASER_DISPATCH();
}
call:
    set(pc + 1);
    pc = static_cast<std::uint32_t>(insn->target);
    clock += base;
    LASER_DISPATCH();
beq:
    pc = regs[insn->src1] == regs[insn->src2]
             ? static_cast<std::uint32_t>(insn->target) : pc + 1;
    clock += base;
    LASER_DISPATCH();
bne:
    pc = regs[insn->src1] != regs[insn->src2]
             ? static_cast<std::uint32_t>(insn->target) : pc + 1;
    clock += base;
    LASER_DISPATCH();
blt:
    pc = regs[insn->src1] < regs[insn->src2]
             ? static_cast<std::uint32_t>(insn->target) : pc + 1;
    clock += base;
    LASER_DISPATCH();
bge:
    pc = regs[insn->src1] >= regs[insn->src2]
             ? static_cast<std::uint32_t>(insn->target) : pc + 1;
    clock += base;
    LASER_DISPATCH();

shared:
    if (clock > last)
        goto done;
    t.pc = pc;
    t.clock = clock;
    executeShared(t);
    pc = t.pc;
    clock = t.clock;
    LASER_DISPATCH();

#undef LASER_NEXT
#undef LASER_DISPATCH

done:
    t.pc = pc;
    t.clock = clock;
    t.instructions += n;
    stats_.instructions += n;
}

MachineStats
Machine::run()
{
    if (ran_)
        return stats_;
    ran_ = true;

    // Run the runnable thread with the lowest (clock, tid) for one slice
    // against the runner-up; see the scheduling notes in machine.h.
    while (stats_.instructions < cfg_.maxInstructions) {
        ThreadCtx *best = nullptr;
        ThreadCtx *rival = nullptr;
        for (ThreadCtx &t : threads_) {
            if (t.halted)
                continue;
            if (!best || t.clock < best->clock) {
                rival = best;
                best = &t;
            } else if (!rival || t.clock < rival->clock) {
                rival = &t;
            }
        }
        if (!best)
            break;
        runSlice(*best, rival);
    }

    if (stats_.instructions >= cfg_.maxInstructions)
        stats_.truncated = true;

    // Drain any abandoned store buffers (a real fence would precede
    // thread exit) so final memory is complete for result checking.
    for (ThreadCtx &t : threads_)
        flushSsb(t);

    for (const ThreadCtx &t : threads_) {
        stats_.threadCycles[t.tid] = t.clock;
        stats_.threadInstructions[t.tid] = t.instructions;
        stats_.cycles = std::max(stats_.cycles, t.clock);
    }
    return stats_;
}

} // namespace laser::sim
