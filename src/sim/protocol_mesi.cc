#include "sim/protocol_mesi.h"

#include <algorithm>
#include <bit>

namespace laser::sim {

MesiDirectory::MesiDirectory(int num_cores, const CacheGeometry &geometry)
    : CoherenceProtocol(num_cores, geometry)
{
    if (geometry_.bounded())
        lru_.resize(static_cast<std::size_t>(num_cores),
                    std::vector<std::list<std::uint64_t>>(geometry_.sets));
}

void
MesiDirectory::evictLine(int core, std::uint64_t line)
{
    LineInfo *found = lines_.find(line);
    if (!found)
        return;
    LineInfo &li = *found;
    li.sharers &= ~(1u << core);
    if (li.owner == core) {
        // An evicted M line writes back to memory; an evicted E line is
        // simply dropped. Either way the line is clean and unowned.
        li.modified = false;
        li.exclusive = false;
        li.owner = -1;
    }
    if (li.sharers == 0)
        lines_.erase(line);
    ++evictions_;
}

void
MesiDirectory::touchLru(int core, std::uint64_t line)
{
    std::list<std::uint64_t> &set =
        lru_[static_cast<std::size_t>(core)][line % geometry_.sets];
    auto pos = std::find(set.begin(), set.end(), line);
    if (pos != set.end()) {
        set.splice(set.begin(), set, pos);
        return;
    }
    set.push_front(line);
    if (set.size() > geometry_.associativity) {
        const std::uint64_t victim = set.back();
        set.pop_back();
        evictLine(core, victim);
    }
}

AccessOutcome
MesiDirectory::access(int core, std::uint64_t addr, bool is_write,
                      bool is_load_class)
{
    const std::uint64_t line = lineOf(addr);
    if (geometry_.bounded())
        touchLru(core, line);
    LineInfo &li = lines_.findOrInsert(line);
    const std::uint32_t me = 1u << core;
    const bool mine = (li.sharers & me) != 0;

    if (!is_write) {
        if (mine)
            return AccessOutcome::L1Hit;
        if (li.modified) {
            // Remote Modified: HITM. Owner writes back and both end Shared.
            li.modified = false;
            li.exclusive = false;
            li.owner = -1;
            li.sharers |= me;
            return AccessOutcome::HitmLoad;
        }
        if (li.sharers != 0) {
            li.exclusive = false;
            li.owner = -1;
            li.sharers |= me;
            return AccessOutcome::LlcHit;
        }
        li.sharers = me;
        li.owner = static_cast<std::int8_t>(core);
        li.exclusive = true;
        return AccessOutcome::MemMiss;
    }

    // Write path.
    if (mine && (li.modified || li.exclusive) && li.owner == core) {
        li.modified = true;
        li.exclusive = false;
        return AccessOutcome::L1Hit;
    }
    if (mine) {
        // Local Shared copy: upgrade, invalidating remote sharers.
        li.sharers = me;
        li.owner = static_cast<std::int8_t>(core);
        li.modified = true;
        li.exclusive = false;
        return AccessOutcome::Upgrade;
    }
    if (li.modified) {
        // Remote Modified: the HITM case. Ownership migrates.
        li.sharers = me;
        li.owner = static_cast<std::int8_t>(core);
        li.modified = true;
        li.exclusive = false;
        return is_load_class ? AccessOutcome::HitmLoad
                             : AccessOutcome::HitmStore;
    }
    if (li.sharers != 0) {
        // Remote clean copies (E or S): invalidate them; not a HITM.
        li.sharers = me;
        li.owner = static_cast<std::int8_t>(core);
        li.modified = true;
        li.exclusive = false;
        return AccessOutcome::RfoShared;
    }
    li.sharers = me;
    li.owner = static_cast<std::int8_t>(core);
    li.modified = true;
    li.exclusive = false;
    return AccessOutcome::MemMiss;
}

const MesiDirectory::LineInfo *
MesiDirectory::probe(std::uint64_t line_addr) const
{
    return lines_.find(line_addr);
}

bool
MesiDirectory::checkInvariants() const
{
    return lines_.allOf([&](const LineInfo &li) {
        if (li.sharers == 0)
            return false;
        if (li.modified && li.exclusive)
            return false;
        if (li.modified || li.exclusive) {
            // Illinois rules: a dirty (M) or exclusive-clean (E) line
            // has exactly one sharer, and that sharer is the owner — so
            // the owner is never in another line's sharer set here.
            if (std::popcount(li.sharers) != 1)
                return false;
            if (li.owner < 0 || li.owner >= numCores_)
                return false;
            if (li.sharers != (1u << li.owner))
                return false;
        } else if (li.owner != -1) {
            // Audit addition: Shared lines are unowned.
            return false;
        }
        if (li.sharers >= (1u << numCores_))
            return false;
        return true;
    });
}

} // namespace laser::sim
