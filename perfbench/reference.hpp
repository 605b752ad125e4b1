// Host-speed reference for paired timings.
//
// The benchmark host's compute speed swings by up to ~2x for minutes at a
// time, so a raw wall-clock median does not repeat between runs. Every
// timed call is therefore followed at once by this fixed scalar computation,
// and the metric is the median of (call time / reference time) scaled by
// kNominalReferenceUs: host-speed swings hit both sides and cancel.
//
// reference.cpp is compiled with the benchmark's own fixed flags (see
// CMakeLists.txt), never the program's, so the divisor stays the same code
// whatever a change does to the program's build.
#pragma once

namespace perfbench {

/// A round figure near the reference's time on the host of README.md's
/// figures; it only sets the scale paired metrics are printed in.
inline constexpr double kNominalReferenceUs = 150.0;

/// Allocates and fills the reference's fixed input; call once before timing.
void init_reference();

/// One pass of the reference: a scalar 3x3 convolution, 8 -> 8 channels over
/// 12x12 with zero padding. Returns a checksum so the work cannot be elided.
float run_reference();

}  // namespace perfbench
