#include "workloads/common.h"

#include <atomic>

namespace laser::workloads {

using namespace laser::isa;

const char *
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::Phoenix:  return "phoenix";
      case Suite::Parsec:   return "parsec";
      case Suite::Splash2x: return "splash2x";
    }
    return "???";
}

const char *
bugTypeName(BugType type)
{
    return type == BugType::FalseSharing ? "FS" : "TS";
}

const char *
sheriffCompatName(SheriffCompat compat)
{
    switch (compat) {
      case SheriffCompat::Works:           return "works";
      case SheriffCompat::WorksSmallInput: return "works*";
      case SheriffCompat::Crash:           return "x";
      case SheriffCompat::Incompatible:    return "i";
    }
    return "???";
}

namespace {

std::atomic<std::uint64_t> g_imagesSynthesized{0};

} // namespace

WorkloadBuild::WorkloadBuild(isa::Program program,
                             std::vector<MemInit> inits,
                             ImageGenerator deferred)
    : program(std::move(program)),
      inits_(std::move(inits)),
      deferred_(std::move(deferred))
{
}

const WorkloadBuild::Image &
WorkloadBuild::image()
{
    if (deferred_) {
        image_ = deferred_();
        deferred_ = nullptr;
        g_imagesSynthesized.fetch_add(1, std::memory_order_relaxed);
    }
    return image_;
}

void
WorkloadBuild::applyTo(sim::Machine &m)
{
    for (const MemInit &mi : inits_)
        m.memory().write(mi.addr, mi.size, mi.value);
    const Image &img = image();
    const std::size_t n = img.bytes.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t word = 0; // little-endian: byte i + b is byte b
        for (std::size_t b = 0; b < 8; ++b)
            word |= std::uint64_t(img.bytes[i + b]) << (8 * b);
        m.memory().write(img.base + i, 8, word);
    }
    for (; i < n; ++i)
        m.memory().write(img.base + i, 1, img.bytes[i]);
}

std::uint64_t
imagesSynthesized()
{
    return g_imagesSynthesized.load(std::memory_order_relaxed);
}

void
emitBarrier(Ctx &ctx, std::uint64_t barrier_addr)
{
    ctx.a.movi(R12, static_cast<std::int64_t>(barrier_addr));
    ctx.a.callLib(LibFn::BarrierWait);
}

void
emitInlineTtsAcquire(Asm &a, Reg addr_reg, Reg scratch)
{
    Asm::Label retry = a.here();
    Asm::Label spin = a.newLabel();
    Asm::Label done = a.newLabel();
    a.load(scratch, addr_reg, 0, 8);
    a.bne(scratch, R0, spin);
    a.movi(scratch, 1);
    a.markSync(a.cas(scratch, addr_reg, 0, R0), SyncKind::LockAcquire);
    a.beq(scratch, R0, done);
    a.bind(spin);
    a.pause();
    a.jmp(retry);
    a.bind(done);
}

void
emitInlineSpinAcquire(Asm &a, Reg addr_reg, Reg scratch)
{
    Asm::Label retry = a.here();
    Asm::Label done = a.newLabel();
    a.movi(scratch, 1);
    a.markSync(a.cas(scratch, addr_reg, 0, R0), SyncKind::LockAcquire);
    a.beq(scratch, R0, done);
    a.pause();
    a.jmp(retry);
    a.bind(done);
}

void
emitInlineRelease(Asm &a, Reg addr_reg)
{
    a.markSync(a.store(addr_reg, 0, R0, 8), SyncKind::LockRelease);
}

void
emitThreadAddr(Asm &a, Reg dst, Reg tid_reg, std::uint64_t base,
               std::int64_t stride, Reg scratch)
{
    a.muli(scratch, tid_reg, stride);
    a.movi(dst, static_cast<std::int64_t>(base));
    a.add(dst, dst, scratch);
}

void
emitPrivateWork(Asm &a, Reg data_reg, Reg counter_reg, std::int64_t iters,
                int loads, int arith, int stores, std::int64_t stride)
{
    a.movi(counter_reg, iters);
    Asm::Label loop = a.here();
    // Interleave loads with arithmetic (as a scheduling compiler would);
    // back-to-back loads are penalized by profilers that sample loads.
    int arith_left = arith;
    for (int i = 0; i < loads; ++i) {
        a.load(R6, data_reg, 8 * i, 8);
        if (arith_left > 0) {
            a.addi(R7, R6, i + 1);
            --arith_left;
        }
    }
    for (int i = 0; i < arith_left; ++i) {
        if (i % 3 == 2)
            a.mul(R7, R6, R6);
        else
            a.addi(R7, R6, i + 1);
    }
    for (int i = 0; i < stores; ++i)
        a.store(data_reg, 8 * i, R7, 8);
    if (stride != 0)
        a.addi(data_reg, data_reg, stride);
    a.subi(counter_reg, counter_reg, 1);
    a.bne(counter_reg, R0, loop);
}

} // namespace laser::workloads
