/**
 * @file
 * The cross-engine oracle for driver-level tests: a paper cell
 * simulated by the naive scan engine (MachineConfig::naiveEngine)
 * through the driver's per-cell path, to compare against the
 * wakeup-list engine that prefetch()'s batched groups run.
 */

#ifndef DDSC_TESTS_NAIVE_ORACLE_HH
#define DDSC_TESTS_NAIVE_ORACLE_HH

#include <string>

#include "sim/experiment.hh"

namespace ddsc::test
{

/** Cell (@p config, @p width) of @p spec on the naive engine, cached
 *  in @p driver under its own key. */
inline const SchedStats &
naiveStats(ExperimentDriver &driver, const WorkloadSpec &spec,
           char config, unsigned width)
{
    MachineConfig naive = MachineConfig::paper(config, width);
    naive.naiveEngine = true;
    return driver.statsFor(spec, naive,
                           std::string(1, config) + "/" +
                               std::to_string(width) + "/naive");
}

} // namespace ddsc::test

#endif // DDSC_TESTS_NAIVE_ORACLE_HH
