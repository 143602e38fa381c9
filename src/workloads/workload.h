/**
 * @file
 * Workload framework: the reproduction's Phoenix / Parsec / Splash2x
 * benchmark suites (Section 7).
 *
 * Each workload is an IR kernel that reproduces the *sharing structure*
 * of the original benchmark — who writes which bytes of which lines, how
 * allocation decides layout, how much synchronization runs — plus
 * ground-truth metadata: the known performance bugs (the database of
 * Section 7.1, assembled from this paper and its prior work), Sheriff
 * compatibility (Table 1 / Figure 14), and the manual-fix variant used
 * for Figures 11/14.
 */

#ifndef LASER_WORKLOADS_WORKLOAD_H
#define LASER_WORKLOADS_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "isa/program.h"
#include "sim/machine.h"

namespace laser::workloads {

/** Source benchmark suite. */
enum class Suite : std::uint8_t { Phoenix, Parsec, Splash2x };

const char *suiteName(Suite suite);

/** Ground-truth contention type of a known bug. */
enum class BugType : std::uint8_t { FalseSharing, TrueSharing };

const char *bugTypeName(BugType type);

/** One entry of the known-performance-bug database. */
struct KnownBug
{
    /** Canonical "file:line" of the contending source code. */
    std::string location;
    BugType type = BugType::FalseSharing;
    std::string description;
    /**
     * Additional lines that are part of the same bug (the contending
     * loop spans several statements); reports matching any of these do
     * not count as false positives.
     */
    std::vector<std::string> relatedLocations;
};

/** Sheriff compatibility per Table 1 / Figure 14. */
enum class SheriffCompat : std::uint8_t {
    Works,           ///< runs with native inputs
    WorksSmallInput, ///< runs only with simlarge inputs (the * of Fig 14)
    Crash,           ///< runtime error ("x" in Table 1)
    Incompatible,    ///< unsupported pthreads/OpenMP ("i" in Table 1)
};

const char *sheriffCompatName(SheriffCompat compat);

/** Static description of one workload. */
struct WorkloadInfo
{
    std::string name;
    Suite suite = Suite::Phoenix;
    std::vector<KnownBug> bugs;
    SheriffCompat sheriff = SheriffCompat::Works;
    /**
     * Whether Sheriff-Detect's object-granularity sampling reports the
     * bug (encoded from Table 1/2; Sheriff's internal heuristics are out
     * of reproduction scope — see DESIGN.md).
     */
    bool sheriffDetectsBug = false;
    /** What Sheriff-Detect reports when it does (allocation site). */
    std::string sheriffReportLocation;
    /** Has a manual-fix variant (Figures 11/14). */
    bool hasManualFix = false;
};

/** Options for building one workload instance. */
struct BuildOptions
{
    /** Build the manually-fixed variant (padding/alignment/restructure). */
    bool manualFix = false;
    /**
     * Initial-heap-break shift in bytes; must match the machine's
     * MachineConfig::heapPerturbation (LASER attach shifts layout).
     */
    std::uint64_t heapPerturbation = 0;
    int numThreads = 4;
    /** Input-synthesis seed. */
    std::uint64_t inputSeed = 0x5eed;
    /**
     * Work scale factor (1.0 = default "native" input). The Sheriff
     * comparison uses smaller inputs for some workloads (Figure 14).
     */
    double scale = 1.0;
};

/**
 * A built workload: program + initial memory image.
 *
 * A large input image (histogram's pixels) is synthesized on first use,
 * not at build time: the offline replay path needs only the program, so
 * it never pays for inputs it would throw away. The image is a pure
 * function of the build options, so when it is made does not change it.
 */
class WorkloadBuild
{
  public:
    struct MemInit
    {
        std::uint64_t addr;
        std::uint8_t size;
        std::uint64_t value;
    };

    /** A block of initial bytes starting at @p base. */
    struct Image
    {
        std::uint64_t base = 0;
        std::vector<std::uint8_t> bytes;
    };

    /**
     * Synthesizes the deferred image. It must capture by value (it
     * outlives the builder's locals) and return the same bytes on every
     * call.
     */
    using ImageGenerator = std::function<Image()>;

    WorkloadBuild() = default;
    WorkloadBuild(isa::Program program, std::vector<MemInit> inits,
                  ImageGenerator deferred = {});

    isa::Program program;

    /** The initial-memory records known at build time. */
    const std::vector<MemInit> &inits() const { return inits_; }

    /**
     * The deferred image (empty when there is none). The first call
     * runs the generator and keeps its bytes, so later calls (the
     * repaired re-run's) reuse them.
     */
    const Image &image();

    /**
     * Write the initial memory image into a machine: the records, then
     * the deferred image as 8-byte words with a byte-wise tail.
     */
    void applyTo(sim::Machine &m);

  private:
    std::vector<MemInit> inits_;
    ImageGenerator deferred_;
    Image image_;
};

/**
 * Number of deferred images synthesized in this process so far (every
 * thread, every build): the offline replay path adds none.
 */
std::uint64_t imagesSynthesized();

/** A registered workload: metadata + builder. */
struct WorkloadDef
{
    WorkloadInfo info;
    std::function<WorkloadBuild(const BuildOptions &)> build;
};

/** All 35 workload configurations, in Table 1 order. */
const std::vector<WorkloadDef> &allWorkloads();

/** Lookup by name; nullptr if unknown. */
const WorkloadDef *findWorkload(const std::string &name);

/** The nine workloads with known performance bugs (Table 2). */
std::vector<const WorkloadDef *> buggyWorkloads();

} // namespace laser::workloads

#endif // LASER_WORKLOADS_WORKLOAD_H
