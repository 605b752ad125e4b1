// Correctness checks the benchmark applies to the program's outputs, and the
// self-test that proves each check can fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hessian/hvp.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Same shape and the same bytes.
bool same_bits(const hero::Tensor& a, const hero::Tensor& b);

/// Row `row` of a batched output has the same bytes as a single-row output.
bool row_matches(const hero::Tensor& batch_out, std::int64_t row, const hero::Tensor& row_out);

/// Symmetric-grid audit of one quantized weight tensor against its fp32
/// source, recomputed here from the fp32 values: with
/// Δ = max|w| / (2^(b−1) − 1), every q must equal kΔ for an integer
/// |k| ≤ 2^(b−1) − 1 and lie within Δ/2 of w (plus float32 rounding).
/// Returns the number of elements that violate it.
std::int64_t sym_grid_violations(const hero::Tensor& fp32, const hero::Tensor& quantized,
                                 int bits);

/// Largest relative error ‖Hv − D‖ / ‖Hv‖ accepted between the exact HVP
/// and the benchmark's central difference D. Measured errors sit near 1e-4.
inline constexpr double kHvpRelativeBound = 1e-3;
/// Step of the central difference along the unit direction.
inline constexpr float kHvpEpsilon = 3e-2f;

/// A seeded unit direction that moves only the classifier (the last weight
/// matrix and bias). Along it no ReLU changes state, so the central
/// difference converges to H·v; a direction through earlier layers flips
/// activations at any usable float32 step and the difference diverges. The
/// comparison still covers every block of H·v, the mixed second derivatives
/// of every earlier layer included.
hero::hessian::ParamVector classifier_direction(const hero::hessian::Params& params,
                                               std::uint64_t seed);

/// Relative error of `hv` (a claimed H·v) against the central difference
/// (∇L(w + εv) − ∇L(w − εv)) / 2ε computed by the benchmark with
/// hessian::gradient; `v` must have unit norm. Restores the weights.
double hvp_relative_error(const hero::hessian::LossClosure& loss,
                          const hero::hessian::Params& params,
                          const hero::hessian::ParamVector& v,
                          const hero::hessian::ParamVector& hv);

/// Corrupts one input per check — one logit bit, one quantized weight moved
/// off its grid, the HVP direction negated — and confirms each check fires,
/// after confirming it passes on the uncorrupted input. Returns the number
/// of checks that misbehaved (0 = all can fail and none fails spuriously).
int run_selftest();

}  // namespace perfbench
