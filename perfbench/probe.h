// Host speed probe. On the shared 4-core VM the benchmark was tuned on, host
// speed drifted by up to 2x over seconds to minutes with load outside the
// process, and hardware counters are unavailable, so raw host times from two
// sets of runs a few minutes apart disagreed by more than any useful bound.
// tas_perfbench runs this probe before every trial and
// scales every host-time metric by kProbeReferenceSeconds / (the run's median
// probe time): host times are reported in "µs of a host on which the probe
// takes 25 ms". Raw values are printed beside them.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

namespace tas {
namespace perfbench {

// The probe time that calibrated host times are expressed against. A unit
// convention, not a baseline: parent and child runs on one machine share it.
inline constexpr double kProbeReferenceSeconds = 0.025;

// Runs the fixed probe workload once and returns its host time in seconds.
double RunSpeedProbe();

}  // namespace perfbench
}  // namespace tas

#endif  // PERFBENCH_PROBE_H_
