#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/check.hpp"
#include "data/synthetic.hpp"
#include "deploy/inference.hpp"
#include "nn/models.hpp"
#include "optim/methods.hpp"
#include "quant/planner.hpp"
#include "quant/quantize.hpp"

namespace perfbench {

using namespace hero;

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

bool row_matches(const Tensor& batch_out, std::int64_t row, const Tensor& row_out) {
  const std::int64_t width = row_out.numel();
  return batch_out.ndim() == 2 && row_out.dim(0) == 1 && batch_out.dim(1) == width &&
         std::memcmp(batch_out.data() + row * width, row_out.data(),
                     static_cast<std::size_t>(width) * sizeof(float)) == 0;
}

std::int64_t sym_grid_violations(const Tensor& fp32, const Tensor& quantized, int bits) {
  if (fp32.shape() != quantized.shape()) return fp32.numel() + 1;
  const float* w = fp32.data();
  const float* q = quantized.data();
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < fp32.numel(); ++i) max_abs = std::max(max_abs, std::fabs(w[i]));
  const float levels = static_cast<float>((1 << (bits - 1)) - 1);
  std::int64_t violations = 0;
  if (max_abs == 0.0f) {
    for (std::int64_t i = 0; i < fp32.numel(); ++i) violations += q[i] != 0.0f;
    return violations;
  }
  const float delta = max_abs / levels;
  const double half = 0.5 * static_cast<double>(delta);
  for (std::int64_t i = 0; i < fp32.numel(); ++i) {
    const float k = std::round(q[i] / delta);
    const bool on_grid = k * delta + 0.0f == q[i] && std::fabs(k) <= levels;
    // Δ/2 plus float32 rounding: computing w/Δ and kΔ in float moves q from
    // the exact nearest grid point by at most (|w| + |q|)·2^-24 (seen: about
    // one weight in 10^6 lands that far past Δ/2); the slack doubles that.
    const double wd = w[i], qd = q[i];
    const bool near = std::fabs(qd - wd) <= half + (std::fabs(wd) + std::fabs(qd)) * 0x1p-23;
    violations += !(on_grid && near);
  }
  return violations;
}

hessian::ParamVector classifier_direction(const hessian::Params& params, std::uint64_t seed) {
  HERO_CHECK_MSG(params.size() >= 2 && params[params.size() - 2].value().ndim() == 2 &&
                     params.back().value().ndim() == 1,
                 "the model does not end in a linear classifier");
  Rng rng(seed);
  hessian::ParamVector v = hessian::zeros_like(params);
  for (std::size_t i = params.size() - 2; i < params.size(); ++i) {
    v[i] = Tensor::randn(params[i].shape(), rng);
  }
  hessian::scale(v, static_cast<float>(1.0 / hessian::norm(v)));
  return v;
}

double hvp_relative_error(const hessian::LossClosure& loss, const hessian::Params& params,
                          const hessian::ParamVector& v, const hessian::ParamVector& hv) {
  auto shift = [&](float step) {
    for (std::size_t i = 0; i < params.size(); ++i) params[i].mutable_value().add_(v[i], step);
  };
  shift(kHvpEpsilon);
  const hessian::ParamVector g_plus = hessian::gradient(loss, params);
  shift(-2.0f * kHvpEpsilon);
  const hessian::ParamVector g_minus = hessian::gradient(loss, params);
  shift(kHvpEpsilon);
  double diff_sq = 0.0;
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float* p = g_plus[i].data();
    const float* m = g_minus[i].data();
    const float* h = hv[i].data();
    for (std::int64_t j = 0; j < hv[i].numel(); ++j) {
      const double fd = (static_cast<double>(p[j]) - m[j]) / (2.0 * kHvpEpsilon);
      diff_sq += (h[j] - fd) * (h[j] - fd);
      norm_sq += static_cast<double>(h[j]) * h[j];
    }
  }
  return norm_sq > 0.0 ? std::sqrt(diff_sq / norm_sq) : (diff_sq > 0.0 ? 1.0 : 0.0);
}

namespace {

/// One check's clean-pass / corrupted-fail pair; prints and scores it.
int expect(const char* name, bool clean_passes, bool corrupted_fires) {
  std::printf("selftest %-28s clean input %s, corrupted input %s\n", name,
              clean_passes ? "passes" : "FAILS", corrupted_fires ? "fires" : "DOES NOT FIRE");
  return (clean_passes ? 0 : 1) + (corrupted_fires ? 0 : 1);
}

}  // namespace

int run_selftest() {
  int bad = 0;
  const data::Benchmark bench = data::make_benchmark("c10", 64, 32, 5);

  {  // Logit bit identity: IR predict vs the Module replay.
    Rng rng(7);
    auto model = nn::make_model("micro_mobilenet", 3, bench.train.classes, rng);
    model->set_training(false);
    const std::string spec =
        nn::canonical_model_spec("micro_mobilenet", 3, bench.train.classes);
    const quant::QuantPlan plan = quant::plan_quantization(*model, "uniform:sym:bits=8");
    deploy::InferenceSession session(deploy::pack_model(*model, plan, spec));
    const Tensor x = bench.test.features.narrow(0, 0, 4);
    const Tensor reference = session.predict_reference(x);
    Tensor logits = session.predict(x).clone();
    const bool clean = same_bits(logits, reference);
    std::uint32_t bits = 0;
    std::memcpy(&bits, logits.data(), sizeof bits);
    bits ^= 1u;
    std::memcpy(logits.data(), &bits, sizeof bits);
    bad += expect("logit bit identity", clean, !same_bits(logits, reference));
  }

  {  // Quantized weights on the symmetric grid.
    Rng rng(8);
    auto model = nn::make_model("micro_resnet", 3, bench.train.classes, rng);
    const quant::WeightSnapshot fp32 = quant::snapshot_weights(*model);
    quant::quantize_module_weights(*model, quant::plan_quantization(*model, "uniform:sym:bits=4"));
    const auto params = model->weight_parameters();
    std::int64_t violations = 0;
    for (std::size_t i = 0; i < params.size(); ++i) {
      violations += sym_grid_violations(fp32[i], params[i]->var.value(), 4);
    }
    Tensor& w = params[0]->var.mutable_value();
    float max_abs = 0.0f;
    for (std::int64_t j = 0; j < fp32[0].numel(); ++j) {
      max_abs = std::max(max_abs, std::fabs(fp32[0].data()[j]));
    }
    w.data()[0] += max_abs / 7.0f / 3.0f;  // a third of Δ at 4 bits
    bad += expect("symmetric weight grid", violations == 0,
                  sym_grid_violations(fp32[0], w, 4) > 0);
  }

  {  // Exact HVP against the benchmark's central difference.
    Rng rng(9);
    auto model = nn::make_model("micro_resnet", 3, bench.train.classes, rng);
    const data::Batch batch{bench.train.features.narrow(0, 0, 32),
                            bench.train.labels.narrow(0, 0, 32)};
    hessian::Params params;
    for (nn::Parameter* p : model->parameters()) params.push_back(p->var);
    const hessian::LossClosure loss = [&] { return optim::batch_loss(*model, batch); };
    const hessian::ParamVector v = classifier_direction(params, 10);
    const hessian::ParamVector hv = hessian::hvp_exact(loss, params, v);
    const double clean = hvp_relative_error(loss, params, v, hv);
    hessian::ParamVector negated = hessian::clone(v);
    hessian::scale(negated, -1.0f);
    const double corrupted =
        hvp_relative_error(loss, params, v, hessian::hvp_exact(loss, params, negated));
    std::printf("selftest hvp relative error: clean %.3g, negated direction %.3g (bound %.3g)\n",
                clean, corrupted, kHvpRelativeBound);
    bad += expect("exact HVP vs central diff", clean <= kHvpRelativeBound,
                  corrupted > kHvpRelativeBound);
  }
  return bad;
}

}  // namespace perfbench
