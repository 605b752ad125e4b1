// Shared timing and statistics helpers for the benchmark's phases.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "reference.hpp"

namespace perfbench {

namespace obs = hero::obs;

/// Median; the mean of the two middle values for an even count, 0 for an
/// empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid), values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double seconds_since(obs::Clock::time_point t0) {
  return static_cast<double>(obs::ns_between(t0, obs::now())) * 1e-9;
}

/// Every reference pass timed in this process, in µs: host.ref_us.
std::vector<double>& reference_samples();

/// Runs and times `reps` reference passes back to back.
void time_reference(int reps);

/// The last reference pass, or 0 before the first.
inline double last_reference_us() {
  return reference_samples().empty() ? 0.0 : reference_samples().back();
}

/// The reference time a call is divided by: the mean of the pass just before
/// it (the previous call's, when calls run back to back) and the median of
/// the `reps` passes just after it. Host-speed swings shared by the call and
/// its neighbouring passes cancel; a window over more distant passes was
/// measured to cancel less.
inline double bracketing_reference_us(double before_us, int reps) {
  const std::vector<double>& all = reference_samples();
  const double after =
      median(std::vector<double>(all.end() - static_cast<long>(reps), all.end()));
  return before_us > 0.0 ? 0.5 * (before_us + after) : after;
}

/// A paired timing series: each call's raw time and its ratio to the
/// reference passes around it.
struct Paired {
  std::vector<double> raw_us;
  std::vector<double> ratio;

  /// The paired metric in µs: median ratio times the nominal reference time.
  double paired_us() const { return median(ratio) * kNominalReferenceUs; }
  double raw_median_us() const { return median(raw_us); }
  std::size_t count() const { return ratio.size(); }
};

/// Times fn(), then `ref_reps` reference passes, and records the pair.
/// Returns fn()'s result.
template <class F>
auto time_paired(Paired& series, int ref_reps, F&& fn) {
  const double before = last_reference_us();
  const auto t0 = obs::now();
  auto result = fn();
  const double call_us = static_cast<double>(obs::ns_between(t0, obs::now())) * 1e-3;
  time_reference(ref_reps);
  series.raw_us.push_back(call_us);
  series.ratio.push_back(call_us / bracketing_reference_us(before, ref_reps));
  return result;
}

}  // namespace perfbench
