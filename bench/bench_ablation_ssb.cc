/**
 * @file
 * Ablation of LASERREPAIR's design choices (Section 5.5 and DESIGN.md):
 *
 *  1. Coalescing SSB vs a TSO-trivial FIFO queue — the queue keeps one
 *     entry per store, so its space and flush costs explode between
 *     flushes ("many of our workloads perform millions of stores before
 *     a flush operation").
 *  2. The pre-emptive flush threshold (8 entries = L1 associativity).
 *  3. Speculative alias analysis on/off.
 *
 * The shape is asserted: the bench exits non-zero when a predicate in
 * its shape check fails.
 */

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "isa/assembler.h"
#include "repair/repairer.h"
#include "sim/machine.h"

using namespace laser;
using namespace laser::isa;

namespace {

/** Two threads falsely sharing one line, plus disjoint read traffic. */
isa::Program
fsKernel(std::vector<std::uint32_t> *stores)
{
    Asm a("ablation");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.movi(R9, 2);
    a.bge(R1, R9, done);
    a.movi(R2, 0x1300000);
    a.muli(R3, R1, 16);
    a.add(R2, R2, R3);
    a.movi(R5, 0x1400000); // disjoint read-only data
    a.movi(R3, 6000);
    Asm::Label loop = a.here();
    stores->push_back(a.store(R2, 0, R3, 8));
    stores->push_back(a.store(R2, 8, R3, 8));
    a.load(R4, R5, 0, 8);
    a.add(R6, R6, R4);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.bind(done);
    a.halt();
    return a.finalize();
}

struct Row
{
    std::string config;
    std::uint64_t cycles;
    std::uint64_t hitms;
    std::uint64_t flushes;
    std::uint64_t maxEntries;
};

Row
run(const isa::Program &prog, sim::SsbMode mode, int max_entries)
{
    sim::MachineConfig mc;
    mc.ssbMode = mode;
    mc.ssbMaxEntries = max_entries;
    sim::Machine m(prog, mc);
    sim::MachineStats s = m.run();
    return {"", s.cycles, s.hitmTotal(), s.ssbFlushes,
            s.ssbMaxEntriesSeen};
}

} // namespace

int
main()
{
    bench::banner("SSB design ablation", "Section 5.5 design choices");
    obs::BenchReport telemetry("ablation_ssb");

    std::vector<std::uint32_t> stores;
    isa::Program native_prog = fsKernel(&stores);

    sim::Machine native(native_prog);
    sim::MachineStats ns = native.run();

    TablePrinter table({"configuration", "cycles", "vs native", "HITMs",
                        "flushes", "max SSB entries"});
    table.addRow({"native (no repair)", fmtCount(ns.cycles), "1.00x",
                  fmtCount(ns.hitmTotal()), "-", "-"});

    // Repaired with alias speculation (default).
    repair::RepairOutcome with_alias =
        repair::repairProgram(native_prog, stores);
    // Repaired without alias speculation.
    repair::RepairConfig no_spec_cfg;
    no_spec_cfg.aliasSpeculation = false;
    repair::RepairOutcome no_alias =
        repair::repairProgram(native_prog, stores, no_spec_cfg);

    struct Variant
    {
        std::string name;
        const isa::Program *prog;
        sim::SsbMode mode;
        int maxEntries;
    };
    const Variant variants[] = {
        {"coalescing, cap 8, alias spec (paper design)",
         &with_alias.program, sim::SsbMode::Coalescing, 8},
        {"coalescing, cap 8, no alias speculation", &no_alias.program,
         sim::SsbMode::Coalescing, 8},
        // The kernel dirties two chunks per thread, so only a cap below
        // 2 forces flushes inside the loop.
        {"coalescing, cap 1", &with_alias.program,
         sim::SsbMode::Coalescing, 1},
        {"coalescing, cap 32", &with_alias.program,
         sim::SsbMode::Coalescing, 32},
        {"FIFO queue, cap 8", &with_alias.program, sim::SsbMode::Fifo, 8},
        {"FIFO queue, cap 1024 (unbounded-ish)", &with_alias.program,
         sim::SsbMode::Fifo, 1024},
    };
    obs::Json rows = obs::Json::array();
    std::vector<Row> results;
    for (const Variant &v : variants) {
        Row r = run(*v.prog, v.mode, v.maxEntries);
        results.push_back(r);
        table.addRow({v.name, fmtCount(r.cycles),
                      fmtTimes(double(r.cycles) / double(ns.cycles)),
                      fmtCount(r.hitms), fmtCount(r.flushes),
                      fmtCount(r.maxEntries)});
        obs::Json j = obs::Json::object();
        j.set("configuration", obs::Json(v.name));
        j.set("cycles", obs::Json(r.cycles));
        j.set("vs_native", obs::Json(double(r.cycles) /
                                     double(ns.cycles)));
        j.set("hitms", obs::Json(r.hitms));
        j.set("flushes", obs::Json(r.flushes));
        j.set("max_ssb_entries", obs::Json(r.maxEntries));
        rows.push(std::move(j));
    }
    std::fputs(table.render().c_str(), stdout);

    // Rows by position in variants[].
    const Row &paper = results[0];
    const Row &cap1 = results[2];
    const Row &fifo8 = results[4];
    const Row &fifo1024 = results[5];
    bool capped = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (variants[i].mode == sim::SsbMode::Coalescing &&
            results[i].maxEntries >
                static_cast<std::uint64_t>(variants[i].maxEntries) + 1)
            capped = false;
    }
    bool pass = true;
    const auto check = [&pass](const char *claim, bool ok) {
        std::printf("  %s: %s\n", claim, ok ? "PASS" : "FAIL");
        pass = pass && ok;
    };
    std::printf("\nShape check:\n");
    check("the coalescing SSB keeps at most cap + 1 entries on every row",
          capped);
    check("the FIFO queue's entry count explodes with store count "
          "(cap 1024: >= 10x the paper design's max entries)",
          fifo1024.maxEntries >= 10 * paper.maxEntries);
    check("the FIFO queue flushes far more often "
          "(cap 8: >= 10x the paper design's flushes)",
          fifo8.flushes >= 10 * paper.flushes);
    check("a tiny cap flushes constantly and gives back the contention "
          "(cap 1: >= 10x the flushes, more HITMs)",
          cap1.flushes >= 10 * paper.flushes && cap1.hitms > paper.hitms);

    telemetry.results()
        .set("native_cycles", obs::Json(ns.cycles))
        .set("rows", std::move(rows))
        .set("shape_pass", obs::Json(pass));
    bench::writeTelemetry(telemetry, nullptr);
    return pass ? 0 : 1;
}
