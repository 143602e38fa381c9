/**
 * @file
 * Accuracy evaluation against the known-performance-bug database
 * (Section 7.1, Tables 1 and 2).
 *
 * A reported source line counts as identifying a bug when it falls on
 * the bug's canonical line (±1, absorbing instruction skid) or any of
 * its related lines (the rest of the contending loop). Reported lines
 * matching no bug are false positives; bugs matched by no reported line
 * are false negatives.
 */

#ifndef LASER_CORE_ACCURACY_H
#define LASER_CORE_ACCURACY_H

#include <cstdint>
#include <string>
#include <vector>

#include "detect/types.h"
#include "workloads/workload.h"

namespace laser::core {

/** FN/FP tally for one tool on one workload. */
struct AccuracyResult
{
    int falseNegatives = 0;
    int falsePositives = 0;
    /** Locations counted as false positives. */
    std::vector<std::string> fpLocations;
    /** Bugs that were missed. */
    std::vector<std::string> missedBugs;
};

/** Split "file:line" into its parts; returns false on malformed input. */
bool parseLocation(const std::string &location, std::string *file,
                   std::uint32_t *line);

/**
 * True if @p reported matches @p canonical within @p tolerance lines
 * (same file).
 */
bool locationsMatch(const std::string &reported,
                    const std::string &canonical,
                    std::uint32_t tolerance = 1);

/** Evaluate a list of reported locations against the bug database. */
AccuracyResult evaluateAccuracy(const workloads::WorkloadInfo &info,
                                const std::vector<std::string> &reported);

/** Convenience: extract locations from a LASER detection report. */
std::vector<std::string>
reportLocations(const detect::DetectionReport &report);

/**
 * The contention type LASER reports for a workload's bug: the type of
 * the hottest reported line matching the bug (Table 2).
 */
detect::ContentionType
reportedTypeForBug(const workloads::WorkloadInfo &info,
                   const detect::DetectionReport &report);

} // namespace laser::core

#endif // LASER_CORE_ACCURACY_H
