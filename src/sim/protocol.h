/**
 * @file
 * Protocol-pluggable coherence: the CoherenceProtocol interface and the
 * cache-geometry parameters shared by every backend.
 *
 * LASER's whole detection signal is the HITM event, so the robustness
 * question "does accuracy hold under a different coherence fabric?"
 * requires the fabric to be swappable. A CoherenceProtocol classifies
 * every memory access into an AccessOutcome (below); the
 * machine charges latency from the outcome and raises HITM events for
 * the two HITM outcomes. Two backends are provided:
 *
 *  - MesiDirectory (sim/protocol_mesi.h): the invalidation-based
 *    directory-MESI model, transition-identical to the original
 *    CoherenceDirectory, plus optional capacity/eviction modeling.
 *  - DragonBus (sim/protocol_dragon.h): a snooping update-based Dragon
 *    protocol (E/Sc/Sm/M) in which HITM outcomes fall out of real
 *    M/Sm-state dirty interventions instead of invalidations.
 *
 * CacheGeometry makes line size (and, per protocol, capacity) a
 * first-class simulated parameter; it participates in the LSRT hashed
 * config section so trace-cache keys can never collide across
 * protocols or geometries.
 */

#ifndef LASER_SIM_PROTOCOL_H
#define LASER_SIM_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace laser::sim {

/** Classification of one memory access by the coherence protocol. */
enum class AccessOutcome : std::uint8_t {
    L1Hit,     ///< line valid locally in a sufficient state
    LlcHit,    ///< read served by LLC / a clean remote copy
    MemMiss,   ///< first touch, served by memory
    HitmLoad,  ///< HITM: remote-M line, access has a load uop (Fig. 1a)
    HitmStore, ///< HITM: remote-M line, pure store (Fig. 1c)
    Upgrade,   ///< local S copy upgraded to M (invalidates remote sharers)
    RfoShared, ///< I->M acquiring a line with remote clean copies
};

/** Number of AccessOutcome values (for per-outcome tables). */
inline constexpr std::size_t kAccessOutcomeCount = 7;
static_assert(static_cast<std::size_t>(AccessOutcome::RfoShared) + 1 ==
              kAccessOutcomeCount);

/** True for the two HITM outcomes. */
constexpr bool
isHitm(AccessOutcome outcome)
{
    return outcome == AccessOutcome::HitmLoad ||
           outcome == AccessOutcome::HitmStore;
}

/** Selectable coherence backend. */
enum class ProtocolKind : std::uint8_t {
    Mesi = 0,   ///< invalidation-based directory MESI (the default)
    Dragon = 1, ///< snooping update-based Dragon (E/Sc/Sm/M)
};

/** Printable name ("mesi", "dragon"). */
const char *protocolName(ProtocolKind kind);

/** Parse a protocol name; returns false (and leaves @p out alone) on an
 *  unknown name. */
bool parseProtocol(const std::string &name, ProtocolKind *out);

/**
 * Simulated cache geometry. The default (64-byte lines, unbounded
 * capacity) reproduces the original hard-coded model bit-for-bit.
 * Capacity is optional per protocol: MESI models per-core LRU eviction
 * when bounded; Dragon is capacity-less by design (an update protocol
 * keeps every sharer's copy live).
 */
struct CacheGeometry
{
    /** Cache line size in bytes; a power of two in [8, 128]. The upper
     *  bound keeps a line's byte count within HitmEvent::accessSize. */
    std::uint32_t lineBytes = 64;
    /** Cache sets per core; 0 = unbounded (no eviction modeling). */
    std::uint32_t sets = 0;
    /** Ways per set; 0 = unbounded. */
    std::uint32_t associativity = 0;

    /** True when capacity (and therefore eviction) is modeled. */
    bool bounded() const { return sets > 0 && associativity > 0; }

    /** True for a representable line size (power of two in [8, 128]). */
    bool
    valid() const
    {
        return lineBytes >= 8 && lineBytes <= 128 &&
               (lineBytes & (lineBytes - 1)) == 0;
    }
};

/**
 * One coherence backend: classifies accesses, tracks per-line sharing
 * state, and self-checks its protocol invariants (fuzzed by the
 * property tests over random interleavings).
 */
class CoherenceProtocol
{
  public:
    CoherenceProtocol(int num_cores, const CacheGeometry &geometry);
    virtual ~CoherenceProtocol() = default;

    CoherenceProtocol(const CoherenceProtocol &) = delete;
    CoherenceProtocol &operator=(const CoherenceProtocol &) = delete;

    /** Which backend this is. */
    virtual ProtocolKind kind() const = 0;

    /**
     * Perform one access and update protocol state. Parameter meaning
     * matches CoherenceDirectory::access: @p is_load_class selects the
     * HITM flavour (and thus PEBS record precision, Section 3.1).
     */
    virtual AccessOutcome access(int core, std::uint64_t addr,
                                 bool is_write, bool is_load_class) = 0;

    /** Validate all protocol invariants; false on the first violation. */
    virtual bool checkInvariants() const = 0;

    /** Number of lines tracked. */
    virtual std::size_t linesTouched() const = 0;

    /** Line address (upper bits) for a byte address. */
    std::uint64_t lineOf(std::uint64_t addr) const
    {
        return addr >> lineShift_;
    }

    /** Cache line size in bytes. */
    std::uint64_t lineBytes() const { return geometry_.lineBytes; }

    int numCores() const { return numCores_; }
    const CacheGeometry &geometry() const { return geometry_; }

  protected:
    int numCores_;
    CacheGeometry geometry_;
    std::uint32_t lineShift_;
};

/** Construct the backend for @p kind. Invalid geometry falls back to
 *  the default (the machine validates up front; this is a backstop). */
std::unique_ptr<CoherenceProtocol>
makeProtocol(ProtocolKind kind, int num_cores,
             const CacheGeometry &geometry = {});

} // namespace laser::sim

#endif // LASER_SIM_PROTOCOL_H
