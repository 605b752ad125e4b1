// perfbench: end-to-end and per-layer performance of the HERO system.
//
// Every run goes through the whole system once, in three phases that each
// drive a different set of layers through their public functions and check
// every output:
//
//   train_hero     HERO steps (exact HVP) on micro_resnet; after each slice
//                  of steps, whole uniform symmetric post-training
//                  quantization sweeps (8/6/4/3/2 bits) of the weights
//                  trained so far. Autograd, double backprop, the Module
//                  forward, optim and quant; never ir, serve or net.
//   predict_mixed  one micro_mobilenet 8-bit HPKG artifact in an
//                  InferenceSession; predict() in rounds of batch 1, 8 and
//                  32. The IR executor and the tensor kernels.
//   tcp_open_loop  a three-model MLP fleet behind NetServer on loopback, one
//                  connection, seeded Poisson arrivals at 500 and 3000 req/s
//                  in alternating short segments.
//                  HNET decode/write, admission, the scheduler's queue and
//                  coalescing, thread wake-ups.
//
// The workload (--workload) picks the input images every phase runs on; see
// README.md. The two kernel-bound phases run on one kernel thread: with
// threads a parallel_for is gated by the slowest of the shared vCPUs.
//
// Compute timings are paired with a host-speed reference (reference.hpp).
// TCP is measured as process CPU time per request, not paired (pairing
// widened its spread). Its latency is printed too, but it waits on thread wake-ups, which a shared
// virtual machine delays by milliseconds in bursts, so it does not repeat
// between runs.
//
//   perfbench --workload c10 --seed 1 --seconds 40 --trace 0
//   perfbench --selftest
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A failed check exits 1.
#include <sys/resource.h>

#include <ctime>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "deploy/inference.hpp"
#include "ir/compile.hpp"
#include "ir/executor.hpp"
#include "nn/models.hpp"
#include "optim/methods.hpp"
#include "optim/registry.hpp"
#include "optim/sgd.hpp"
#include "quant/planner.hpp"
#include "quant/quantize.hpp"
#include "reference.hpp"
#include "tcp.hpp"
#include "tensor/conv_ops.hpp"

namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

// Counting operator new: optim.allocs_per_step and deploy.allocs_per_predict.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace perfbench {

std::vector<double>& reference_samples() {
  static std::vector<double> samples;
  return samples;
}

void time_reference(int reps) {
  static volatile float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = obs::now();
    sink = sink + run_reference();
    reference_samples().push_back(static_cast<double>(obs::ns_between(t0, obs::now())) * 1e-3);
  }
}

}  // namespace perfbench

namespace {

using namespace hero;
using namespace perfbench;

// ---------------------------------------------------------------- settings

/// Input images per workload: both run every phase; they differ in image
/// size (so in every activation, im2col and GEMM extent) and class count.
struct Workload {
  const char* name;
  const char* dataset;  ///< data::make_benchmark name
};
constexpr Workload kWorkloads[] = {{"c10", "c10"}, {"imnet", "imnet"}};

constexpr std::int64_t kTrainExamples = 512;
constexpr std::int64_t kTestExamples = 512;
constexpr std::int64_t kHeroBatch = 64;
constexpr const char* kHeroSpec = "hero:h=0.02,gamma=0.1";
constexpr int kSweepBits[] = {8, 6, 4, 3, 2};
constexpr std::int64_t kPredictBatches[] = {1, 8, 32};
constexpr std::int64_t kPredictPoolRows = 64;
constexpr double kLowRate = 500.0;
constexpr double kHighRate = 3000.0;
constexpr int kClosedLoopWindow = 8;
/// One open-loop segment: long enough for 250 requests at the low rate.
constexpr double kTcpSegmentS = 0.5;
constexpr std::size_t kTcpPoolSize = 256;
/// Minimum HERO steps per run: the loss check compares the first quarter of
/// the steps with the last.
constexpr int kMinHeroSteps = 12;
/// Slices each phase's measuring time is split into.
constexpr int kRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return args.selftest || (!args.workload.empty() && args.seconds > 0.0 && args.trace >= 0);
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Operations attempted and failed, per phase.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(bool ok) {
    attempted += 1;
    failed += ok ? 0 : 1;
  }
};

struct Report {
  std::vector<Metric> metrics;
  std::map<std::string, Tally> phases;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& what) {
    failures.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

void print_series(const char* name, const Paired& p, double scale, const char* unit) {
  std::printf("  %-22s paired %10.4f %-3s  raw median %10.4f %-3s  (n=%zu)\n", name,
              p.paired_us() * scale, unit, p.raw_median_us() * scale, unit, p.count());
}

// ---------------------------------------------------------------- fixtures

struct TrainFixture {
  data::Benchmark data;
  std::shared_ptr<nn::Module> model;
  std::string model_spec;
  std::unique_ptr<optim::TrainingMethod> hero;
  std::unique_ptr<optim::TrainingMethod> sgd_method;
  std::unique_ptr<optim::StepContext> ctx;
  std::unique_ptr<optim::Sgd> optimizer;
  std::vector<data::Batch> batches;

  TrainFixture(const char* dataset, std::uint64_t seed)
      : data(data::make_benchmark(dataset, kTrainExamples, kTestExamples, seed)) {
    Rng rng(seed * 7919 + 1);
    model = nn::make_model("micro_resnet", data.spec.channels, data.train.classes, rng);
    model_spec =
        nn::canonical_model_spec("micro_resnet", data.spec.channels, data.train.classes);
    auto& registry = optim::MethodRegistry::instance();
    hero = registry.create_from_spec(kHeroSpec);
    sgd_method = registry.create_from_spec("sgd");
    ctx = std::make_unique<optim::StepContext>(*model, Rng(seed * 7919 + 2));
    optimizer = std::make_unique<optim::Sgd>(model->parameters(), optim::SgdConfig{0.05f, 0.9f, 1e-4f});
    for (std::int64_t start = 0; start + kHeroBatch <= kTrainExamples; start += kHeroBatch) {
      batches.push_back({data.train.features.narrow(0, start, kHeroBatch),
                         data.train.labels.narrow(0, start, kHeroBatch)});
    }
  }

  /// One training step of `method` (gradient + momentum-SGD update).
  float step(optim::TrainingMethod& method, std::int64_t index) {
    ctx->begin_step(batches[static_cast<std::size_t>(index) % batches.size()], index);
    const optim::StepResult result = method.step(*ctx);
    optimizer->step_with(ctx->grads());
    return result.loss;
  }

  hessian::Params params() const {
    hessian::Params out;
    for (nn::Parameter* p : model->parameters()) out.push_back(p->var);
    return out;
  }
};

struct PredictFixture {
  std::unique_ptr<deploy::InferenceSession> session;
  std::vector<Tensor> rows;        ///< kPredictPoolRows single-row inputs
  std::vector<Tensor> row_logits;  ///< batch-1 IR output per row
  /// Per batch size: the pooled inputs (consecutive rows) and the first
  /// row index of each.
  std::map<std::int64_t, std::vector<std::pair<Tensor, std::int64_t>>> batches;
  std::map<std::int64_t, std::vector<Tensor>> module_logits;  ///< predict_reference per batch

  PredictFixture(const data::Benchmark& data, std::uint64_t seed, Report& report) {
    Rng rng(seed * 7919 + 5);
    auto model = nn::make_model("micro_mobilenet", data.spec.channels, data.train.classes, rng);
    model->set_training(false);
    const std::string model_spec =
        nn::canonical_model_spec("micro_mobilenet", data.spec.channels, data.train.classes);
    const quant::QuantPlan plan = quant::plan_quantization(*model, "uniform:sym:bits=8");
    session = std::make_unique<deploy::InferenceSession>(
        deploy::pack_model(*model, plan, model_spec, "uniform:sym:bits=8"));
    Tally& tally = report.phases["predict_mixed"];
    const Tensor pool = data.test.features.narrow(0, 0, kPredictPoolRows).clone();
    for (std::int64_t r = 0; r < kPredictPoolRows; ++r) {
      rows.push_back(pool.narrow(0, r, 1).clone());
      row_logits.push_back(session->predict(rows.back()).clone());
      const bool ok = same_bits(row_logits.back(), session->predict_reference(rows.back()));
      tally.add(ok);
      if (!ok) report.fail("predict_mixed: batch-1 IR logits differ from the Module replay");
    }
    for (const std::int64_t b : kPredictBatches) {
      for (std::int64_t start = 0; start + b <= kPredictPoolRows; start += b) {
        batches[b].push_back({pool.narrow(0, start, b).clone(), start});
        module_logits[b].push_back(session->predict_reference(batches[b].back().first));
        session->predict(batches[b].back().first);  // builds this shape's context
      }
    }
  }

  /// Checks one output against the batch-1 outputs of its rows and, when
  /// `against_module`, against the Module replay of the whole batch.
  bool check(std::int64_t b, std::size_t index, const Tensor& logits, bool against_module) const {
    const std::int64_t first_row = batches.at(b)[index].second;
    bool ok = logits.ndim() == 2 && logits.dim(0) == b;
    for (std::int64_t r = 0; ok && r < b; ++r) {
      ok = row_matches(logits, r, row_logits[static_cast<std::size_t>(first_row + r)]);
    }
    if (ok && against_module) ok = same_bits(logits, module_logits.at(b)[index]);
    return ok;
  }
};

// ------------------------------------------------------------- ir analysis

struct NodeCost {
  double flops = 0.0;
  double bytes = 0.0;
};

NodeCost node_cost(const ir::ShapeInfo& shapes, const ir::Node& n) {
  auto numel = [&](ir::ValueId v) {
    return static_cast<double>(shape_numel(shapes.value_shapes[static_cast<std::size_t>(v)]));
  };
  NodeCost cost;
  for (const ir::ValueId v : n.inputs) cost.bytes += numel(v) * sizeof(float);
  cost.bytes += numel(n.out) * sizeof(float);
  const Shape& a = shapes.value_shapes[static_cast<std::size_t>(n.inputs[0])];
  switch (n.op) {
    case ir::OpKind::kMatmul: {
      const Shape& b = shapes.value_shapes[static_cast<std::size_t>(n.inputs[1])];
      cost.flops = 2.0 * static_cast<double>(a[0]) * static_cast<double>(a[1]) *
                   static_cast<double>(b[1]);
      break;
    }
    case ir::OpKind::kDepthwise: cost.flops = 2.0 * numel(n.inputs[0]); break;
    case ir::OpKind::kIm2col:
    case ir::OpKind::kReshape:
    case ir::OpKind::kPermute: break;
    default: cost.flops = numel(n.out); break;
  }
  return cost;
}

/// The largest matmul (by FLOPs) and im2col (by bytes) of a graph at one
/// input shape: the shapes the kernel probes run at.
struct KernelShapes {
  Shape matmul_a, matmul_b;
  Shape im2col_input;
  Conv2dGeom im2col_geom;
};

KernelShapes largest_kernels(const ir::Graph& g, const Shape& input) {
  const ir::ShapeInfo shapes = ir::infer_shapes(g, input);
  KernelShapes out;
  double best_flops = -1.0, best_bytes = -1.0;
  for (const ir::NodeId id : g.schedule()) {
    const ir::Node& n = g.node(id);
    const NodeCost cost = node_cost(shapes, n);
    if (n.op == ir::OpKind::kMatmul && cost.flops > best_flops) {
      best_flops = cost.flops;
      out.matmul_a = shapes.value_shapes[static_cast<std::size_t>(n.inputs[0])];
      out.matmul_b = shapes.value_shapes[static_cast<std::size_t>(n.inputs[1])];
    }
    if (n.op == ir::OpKind::kIm2col && cost.bytes > best_bytes) {
      best_bytes = cost.bytes;
      out.im2col_input = shapes.value_shapes[static_cast<std::size_t>(n.inputs[0])];
      out.im2col_geom = shapes.node_geom[static_cast<std::size_t>(id)];
    }
  }
  return out;
}

// -------------------------------------------------------------- span maths

/// Self time of every span (µs), grouped by span name: its duration minus
/// the union of the intervals its children cover.
std::map<std::string, std::vector<double>> self_times(const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const obs::SpanRecord*>> children;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, std::vector<double>> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const obs::SpanRecord& s : spans) {
    intervals.clear();
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const obs::SpanRecord* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) intervals.push_back({lo, hi});
      }
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : intervals) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-3);
  }
  return out;
}

double median_of(const std::map<std::string, std::vector<double>>& by_name, const char* name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : median(it->second);
}

// ------------------------------------------------------------------ phases

/// What the three phases measured so far; each run interleaves them in
/// kRounds slices (see run()).
struct Measured {
  Paired steps;
  std::vector<float> losses;
  Paired points;  ///< PTQ sweep points
  std::map<int, double> accuracy;  ///< test accuracy per bit-width, last sweep
  int sweeps = 0;
  std::map<std::int64_t, Paired> predict;  ///< per batch size
  std::size_t predict_rounds = 0;
  SegmentResult low, high;
  std::vector<double> low_cpu_us, high_cpu_us;  ///< process CPU per request, per segment
  std::uint64_t segments = 0;
};

/// train_hero: HERO steps for `budget_s`.
void train_slice(TrainFixture& fx, Measured& m, double budget_s, Report& report) {
  Tally& tally = report.phases["train_hero"];
  const auto t0 = obs::now();
  for (int i = 0; i < kMinHeroSteps / kRounds || seconds_since(t0) < budget_s; ++i) {
    const auto index = static_cast<std::int64_t>(m.losses.size());
    const float loss = time_paired(m.steps, 3, [&] { return fx.step(*fx.hero, index); });
    m.losses.push_back(loss);
    tally.add(std::isfinite(loss));
  }
}

/// train_hero: whole post-training quantization sweeps of the weights
/// trained so far, for `budget_s`. Every point's weights are audited against
/// the symmetric grid, then the fp32 weights are restored.
void ptq_slice(TrainFixture& fx, Measured& m, double budget_s, Report& report) {
  Tally& tally = report.phases["train_hero"];
  const quant::WeightSnapshot fp32 = quant::snapshot_weights(*fx.model);
  const auto weights = fx.model->weight_parameters();
  const auto t0 = obs::now();
  for (int i = 0; i < 1 || seconds_since(t0) < budget_s; ++i, ++m.sweeps) {
    for (const int bits : kSweepBits) {
      const std::string planner = "uniform:sym:bits=" + std::to_string(bits);
      m.accuracy[bits] = time_paired(m.points, 3, [&] {
        quant::quantize_module_weights(*fx.model, quant::plan_quantization(*fx.model, planner));
        return optim::evaluate(*fx.model, fx.data.test).accuracy;
      });
      std::int64_t violations = 0;
      for (std::size_t w = 0; w < weights.size(); ++w) {
        violations += sym_grid_violations(fp32[w], weights[w]->var.value(), bits);
      }
      tally.add(violations == 0);
      if (violations != 0) {
        report.fail("train_hero: " + std::to_string(violations) + " weights off the " +
                    std::to_string(bits) + "-bit grid");
      }
      quant::restore_weights(*fx.model, fp32);
    }
  }
}

/// train_hero, after the last slice: the loss and HVP checks, the report.
void finish_train(TrainFixture& fx, Measured& m, std::uint64_t seed, Report& report) {
  Tally& tally = report.phases["train_hero"];
  const std::vector<float>& losses = m.losses;
  const std::size_t quarter = losses.size() / 4;
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    first += losses[i];
    last += losses[losses.size() - 1 - i];
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  const bool loss_fell = last < first;
  tally.add(loss_fell);
  if (!loss_fell) report.fail("train_hero: mean loss of the last steps did not fall below the first");

  // hvp_exact against the benchmark's own central difference, along a
  // seeded classifier direction at the trained weights.
  const hessian::Params params = fx.params();
  const data::Batch& batch = fx.batches.front();
  const hessian::LossClosure loss = [&] { return optim::batch_loss(*fx.model, batch); };
  const hessian::ParamVector v = classifier_direction(params, seed * 7919 + 6);
  const double hvp_error = hvp_relative_error(loss, params, v, hessian::hvp_exact(loss, params, v));
  tally.add(hvp_error <= kHvpRelativeBound);
  if (hvp_error > kHvpRelativeBound) report.fail("train_hero: hvp_exact disagrees with the central difference");

  std::printf("train_hero: %zu HERO steps, loss %.4f -> %.4f (first/last quarter means), "
              "hvp rel. error %.2e (bound %.2g), %d PTQ sweeps\n",
              m.steps.count(), first, last, hvp_error, kHvpRelativeBound, m.sweeps);
  print_series("hero_step", m.steps, 1e-3, "ms");
  print_series("ptq_point", m.points, 1e-3, "ms");
  std::printf("  test accuracy at the last sweep:");
  for (const auto& [bits, acc] : m.accuracy) std::printf(" %d-bit %.3f", bits, acc);
  std::printf("\n");
  report.metric("hero_step_ms", m.steps.paired_us() * 1e-3, "ms");
  report.metric("ptq_point_ms", m.points.paired_us() * 1e-3, "ms");
}

/// predict_mixed: rounds of predict() at batch 1, 8 and 32 for `budget_s`.
void predict_slice(PredictFixture& fx, Measured& m, double budget_s, Report& report) {
  Tally& tally = report.phases["predict_mixed"];
  const auto t0 = obs::now();
  for (int i = 0; i < 3 || seconds_since(t0) < budget_s; ++i, ++m.predict_rounds) {
    for (const std::int64_t b : kPredictBatches) {
      const auto& pool = fx.batches[b];
      const std::size_t index = m.predict_rounds % pool.size();
      const Tensor logits =
          time_paired(m.predict[b], 1, [&] { return fx.session->predict(pool[index].first); });
      const bool ok = fx.check(b, index, logits, m.predict_rounds % 16 == 0);
      tally.add(ok);
      if (!ok) report.fail("predict_mixed: batch-" + std::to_string(b) + " logits are not bitwise equal to the references");
    }
  }
}

void finish_predict(PredictFixture& fx, Measured& m, Report& report) {
  const std::size_t arena = fx.session->arena_stats().total_bytes;
  std::printf("predict_mixed: %zu rounds of batch 1/8/32, arena %zu bytes in %zu contexts\n",
              m.predict_rounds, arena, fx.session->arena_stats().contexts);
  print_series("predict_b1", m.predict[1], 1.0, "us");
  print_series("predict_b8", m.predict[8], 1.0, "us");
  print_series("predict_b32", m.predict[32], 1.0, "us");
  std::printf("  b32 images/s: paired %.1f, raw %.1f\n", 32e6 / m.predict[32].paired_us(),
              32e6 / m.predict[32].raw_median_us());
  report.metric("predict_b1_us", m.predict[1].paired_us(), "us");
  report.metric("predict_b32_images_per_s", 32e6 / m.predict[32].paired_us(), "images/s");
  report.metric("arena_bytes", static_cast<double>(arena), "bytes");
}

void print_segment(const char* label, const SegmentResult& s) {
  std::printf("  %-12s sent %lld answered %lld rejected %lld failed %lld | p50 %.1f us "
              "p99 %.1f us | lateness p50 %.1f us max %.1f us | %.0f req/s\n",
              label, static_cast<long long>(s.sent), static_cast<long long>(s.answered),
              static_cast<long long>(s.rejected), static_cast<long long>(s.failures()),
              median(s.latency_us), percentile(s.latency_us, 99.0), median(s.lateness_us),
              s.lateness_us.empty() ? 0.0 : *std::max_element(s.lateness_us.begin(), s.lateness_us.end()),
              s.seconds > 0.0 ? static_cast<double>(s.answered) / s.seconds : 0.0);
}

void tally_segment(const char* label, const SegmentResult& s, Report& report) {
  Tally& tally = report.phases["tcp_open_loop"];
  tally.attempted += s.sent;
  tally.failed += s.failures();
  if (s.failures() != 0) {
    report.fail(std::string("tcp_open_loop ") + label + ": " + std::to_string(s.failures()) +
                " of " + std::to_string(s.sent) + " requests not answered with the reference logits (" +
                std::to_string(s.rejected) + " rejected, " + std::to_string(s.mismatched) + " mismatched)");
  }
}

double process_cpu_us() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_nsec) * 1e-3;
}

/// tcp_open_loop: alternating short segments at the two fixed rates for
/// `budget_s`, each seeded on its own, with the process CPU time each takes
/// per request. CPU time is not paired: dividing it by the reference widened
/// its run-to-run spread (IQR 2-6% raw against 9-14% paired).
void tcp_slice(TcpFleet& fleet, Measured& m, double budget_s, std::uint64_t seed) {
  const auto t0 = obs::now();
  for (int i = 0; i < 1 || seconds_since(t0) < budget_s; ++i) {
    for (const bool high : {false, true}) {
      const double cpu0 = process_cpu_us();
      const SegmentResult r =
          fleet.open_loop(high ? kHighRate : kLowRate, kTcpSegmentS, seed + m.segments++);
      const double cpu_us = process_cpu_us() - cpu0;
      (high ? m.high_cpu_us : m.low_cpu_us).push_back(cpu_us / static_cast<double>(r.sent));
      (high ? m.high : m.low).append(r);
    }
  }
}

/// tcp_open_loop, after the last slice: a short closed loop for the
/// reference req/s figure, then the report.
void finish_tcp(TcpFleet& fleet, Measured& m, double closed_s, Report& report) {
  const SegmentResult closed = fleet.closed_loop(kClosedLoopWindow, closed_s);
  std::printf("tcp_open_loop: Poisson arrivals, latency from each due time\n");
  print_segment("low 500/s", m.low);
  print_segment("high 3000/s", m.high);
  print_segment("closed x8", closed);
  std::printf("  CPU per request: low %.2f us, high %.2f us (medians of %zu segments each)\n",
              median(m.low_cpu_us), median(m.high_cpu_us), m.low_cpu_us.size());
  tally_segment("low", m.low, report);
  tally_segment("high", m.high, report);
  tally_segment("closed", closed, report);
  report.metric("tcp_cpu_us_low", median(m.low_cpu_us), "us");
  report.metric("tcp_cpu_us_high", median(m.high_cpu_us), "us");
}

// ------------------------------------------------------- traced (per layer)

template <class F>
double paired_probe(int calls, F&& fn) {
  Paired p;
  for (int i = 0; i < calls; ++i) time_paired(p, 1, [&] { fn(); return 0; });
  return p.paired_us();
}

template <class F>
double allocs_of(F&& fn) {
  fn();
  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return static_cast<double>(g_allocs.load(std::memory_order_relaxed) - before);
}

void run_layer_probes(TrainFixture& train, PredictFixture& predict, Report& report) {
  // tensor: the largest matmul and im2col of a HERO step (micro_resnet at
  // batch 64) and of micro_mobilenet at batch 32.
  Rng shape_rng(1);
  auto resnet = nn::make_model_from_spec(train.model_spec, shape_rng);
  resnet->set_training(false);
  const ir::Compiled resnet_ir = ir::compile(*resnet, train.model_spec);
  const Shape image = {train.data.spec.channels, train.data.spec.size, train.data.spec.size};
  auto batch_shape = [&](std::int64_t n) {
    Shape s = image;
    s.insert(s.begin(), n);
    return s;
  };
  const ir::Graph& mobile = predict.session->compiled()->graph;
  double flops = 0.0, matmul_us = 0.0, bytes = 0.0, im2col_us = 0.0;
  Rng data_rng(2);
  for (const KernelShapes& k : {largest_kernels(resnet_ir.graph, batch_shape(kHeroBatch)),
                                largest_kernels(mobile, batch_shape(32))}) {
    const Tensor a = Tensor::randn(k.matmul_a, data_rng);
    const Tensor b = Tensor::randn(k.matmul_b, data_rng);
    Tensor c = Tensor::zeros({k.matmul_a[0], k.matmul_b[1]});
    flops += 2.0 * static_cast<double>(k.matmul_a[0] * k.matmul_a[1] * k.matmul_b[1]);
    matmul_us += paired_probe(30, [&] { matmul_into(a, b, c); });
    const Tensor x = Tensor::randn(k.im2col_input, data_rng);
    const Conv2dGeom& g = k.im2col_geom;
    Tensor cols = Tensor::zeros({g.batch * g.out_h() * g.out_w(), g.channels * g.kernel_h * g.kernel_w});
    bytes += static_cast<double>(x.numel() + cols.numel()) * sizeof(float);
    im2col_us += paired_probe(30, [&] { im2col_into(x, g, cols); });
  }
  report.metric("tensor.matmul_gflops", flops / matmul_us * 1e-3, "GFLOP/s");
  report.metric("tensor.im2col_gbps", bytes / im2col_us * 1e-3, "GB/s");

  // autograd, hessian, optim on the HERO step's batch.
  const data::Batch& batch = train.batches.front();
  const hessian::Params params = train.params();
  report.metric("autograd.forward_ms",
                paired_probe(8, [&] { optim::batch_loss(*train.model, batch); }) * 1e-3, "ms");
  {
    Paired p;
    for (int i = 0; i < 8; ++i) {
      const ag::Variable loss = optim::batch_loss(*train.model, batch);
      time_paired(p, 1, [&] { return ag::grad(loss, params).size(); });
    }
    report.metric("autograd.backward_ms", p.paired_us() * 1e-3, "ms");
  }
  const hessian::LossClosure loss = [&] { return optim::batch_loss(*train.model, batch); };
  Rng dir_rng(3);
  const hessian::ParamVector v = hessian::random_like(params, dir_rng);
  report.metric("hessian.hvp_ms",
                paired_probe(6, [&] { hessian::hvp_exact(loss, params, v); }) * 1e-3, "ms");
  std::int64_t step_index = 0;
  report.metric("optim.sgd_step_ms",
                paired_probe(8, [&] { train.step(*train.sgd_method, step_index++); }) * 1e-3, "ms");
  report.metric("optim.allocs_per_step",
                allocs_of([&] { train.step(*train.hero, step_index++); }), "count");

  // quant: one 4-bit quantization of the weights, one test-split evaluation.
  const quant::WeightSnapshot fp32 = quant::snapshot_weights(*train.model);
  const quant::QuantPlan plan = quant::plan_quantization(*train.model, "uniform:sym:bits=4");
  Paired quantize;
  for (int i = 0; i < 10; ++i) {
    time_paired(quantize, 1, [&] { return quant::quantize_module_weights(*train.model, plan).mse; });
    quant::restore_weights(*train.model, fp32);
  }
  report.metric("quant.quantize_ms", quantize.paired_us() * 1e-3, "ms");
  report.metric("quant.eval_ms",
                paired_probe(6, [&] { optim::evaluate(*train.model, train.data.test); }) * 1e-3, "ms");

  // deploy and ir.
  const Tensor& row = predict.rows.front();
  report.metric("deploy.allocs_per_predict",
                allocs_of([&] { predict.session->predict(row); }), "count");
  const ir::ShapeInfo shapes = ir::infer_shapes(mobile, batch_shape(1));
  double nodes = 0, permutes = 0, node_flops = 0, node_bytes = 0;
  for (const ir::NodeId id : mobile.schedule()) {
    const ir::Node& n = mobile.node(id);
    const NodeCost cost = node_cost(shapes, n);
    nodes += 1;
    permutes += n.op == ir::OpKind::kPermute;
    node_flops += cost.flops;
    node_bytes += n.op == ir::OpKind::kReshape ? 0.0 : cost.bytes;
  }
  report.metric("ir.nodes", nodes, "count");
  report.metric("ir.permute_nodes", permutes, "count");
  report.metric("ir.flops_per_image", node_flops, "flop");
  report.metric("ir.bytes_per_image", node_bytes, "bytes");
  report.metric("ir.arena_contexts", static_cast<double>(predict.session->arena_stats().contexts), "count");
}

constexpr const char* kNodeKinds[] = {"matmul", "im2col", "depthwise", "permute", "other",
                                      "unattributed"};

/// Traced predict rounds: per-node self time by op kind at batch 1 and 32,
/// each call paired with the reference.
void run_traced_predict(PredictFixture& fx, double budget_s, Report& report) {
  Tally& tally = report.phases["predict_mixed"];
  obs::TraceSink sink(obs::TraceSink::Config{1 << 16, 8});
  for (const std::int64_t b : {std::int64_t{1}, std::int64_t{32}}) {
    // Per call: the paired time of each op kind, the deploy.predict span's
    // part not covered by node spans, and the reference pass after it.
    std::map<std::string, std::vector<double>> ratios;
    const auto& pool = fx.batches[b];
    const auto t0 = obs::now();
    std::size_t call = 0;
    while (call < 8 || seconds_since(t0) < budget_s / 2) {
      // Chunks small enough that no ring overflows before the drain.
      std::vector<double> ref_us;
      obs::set_trace_sink(&sink);
      for (int i = 0; i < 256 && (call < 8 || seconds_since(t0) < budget_s / 2); ++i, ++call) {
        const double before = last_reference_us();
        const Tensor logits = fx.session->predict(pool[call % pool.size()].first);
        time_reference(1);
        ref_us.push_back(bracketing_reference_us(before, 1));
        const bool ok = fx.check(b, call % pool.size(), logits, false);
        tally.add(ok);
        if (!ok) report.fail("predict_mixed (traced): logits differ from the references");
      }
      obs::set_trace_sink(nullptr);
      const std::vector<obs::SpanRecord> spans = sink.drain_sorted();
      std::unordered_map<std::uint64_t, std::size_t> call_of;
      std::vector<std::map<std::string, double>> per_call;
      for (const obs::SpanRecord& s : spans) {
        if (std::strcmp(s.name, "deploy.predict") == 0) {
          call_of[s.id] = per_call.size();
          per_call.push_back({{"unattributed", static_cast<double>(s.end_ns - s.start_ns) * 1e-3}});
        }
      }
      for (const obs::SpanRecord& s : spans) {
        const auto it = call_of.find(s.parent);
        if (it == call_of.end()) continue;
        std::string kind = s.name;
        if (kind != "matmul" && kind != "im2col" && kind != "depthwise" && kind != "permute") {
          kind = "other";
        }
        const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
        per_call[it->second][kind] += us;
        per_call[it->second]["unattributed"] -= us;
      }
      if (per_call.size() != ref_us.size()) {
        report.fail("predict_mixed (traced): trace lost spans");
        break;
      }
      for (std::size_t c = 0; c < per_call.size(); ++c) {
        for (const char* kind : kNodeKinds) ratios[kind].push_back(per_call[c][kind] / ref_us[c]);
      }
    }
    const std::string suffix = b == 1 ? ".b1_us" : ".b32_us";
    for (const char* kind : kNodeKinds) {
      report.metric(std::string("ir.") + kind + suffix, median(ratios[kind]) * kNominalReferenceUs,
                    "us");
    }
  }
  if (sink.dropped() != 0) report.fail("predict_mixed (traced): trace lost spans");
}

/// Traced TCP: alternating 0.5 s segments, untraced at 500 req/s (the
/// baseline of obs.trace_overhead_us), traced at 500 and at 3000 req/s,
/// each drained before the next so no ring overflows.
void run_traced_tcp(TcpFleet& fleet, double budget_s, std::uint64_t seed, Report& report) {
  obs::TraceSink sink(obs::TraceSink::Config{1 << 16, 8});
  SegmentResult untraced, low, high;
  std::map<std::string, std::vector<double>> low_self, high_self;
  double rows = 0.0, batches = 0.0;
  auto traced_segment = [&](double rate, std::uint64_t segment_seed, SegmentResult& into) {
    obs::set_trace_sink(&sink);
    into.append(fleet.open_loop(rate, kTcpSegmentS, segment_seed));
    // A worker records serve.execute after the completion it delivered has
    // returned; let the last batch finish before uninstalling the sink.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    obs::set_trace_sink(nullptr);
    const std::vector<obs::SpanRecord> spans = sink.drain_sorted();
    for (auto& [name, values] : self_times(spans)) {
      auto& dst = (rate == kLowRate ? low_self : high_self)[name];
      dst.insert(dst.end(), values.begin(), values.end());
    }
    if (rate != kHighRate) return;
    for (const obs::SpanRecord& span : spans) {
      if (std::strcmp(span.name, "serve.execute") == 0) {
        rows += static_cast<double>(span.arg);
        batches += 1.0;
      }
    }
  };
  const auto t0 = obs::now();
  for (std::uint64_t i = 0; i < 1 || seconds_since(t0) < budget_s; ++i) {
    untraced.append(fleet.open_loop(kLowRate, kTcpSegmentS, seed + 3 * i));
    traced_segment(kLowRate, seed + 3 * i + 1, low);
    traced_segment(kHighRate, seed + 3 * i + 2, high);
  }
  if (sink.dropped() != 0) report.fail("tcp_open_loop (traced): trace lost spans");
  std::printf("tcp_open_loop (traced runs at 500/s then 3000/s):\n");
  print_segment("untraced low", untraced);
  print_segment("traced low", low);
  print_segment("traced high", high);
  tally_segment("untraced low", untraced, report);
  tally_segment("traced low", low, report);
  tally_segment("traced high", high, report);

  report.metric("net.decode_us", median_of(low_self, "net.decode"), "us");
  report.metric("net.admission_us", median_of(low_self, "net.admission"), "us");
  report.metric("net.write_us", median_of(low_self, "net.write"), "us");
  report.metric("serve.queue_us", median_of(high_self, "serve.queue"), "us");
  report.metric("serve.coalesce_us", median_of(high_self, "serve.coalesce"), "us");
  report.metric("serve.execute_us", median_of(high_self, "serve.execute"), "us");
  report.metric("serve.rows_per_batch", batches > 0.0 ? rows / batches : 0.0, "rows");
  std::vector<double> predict_us = low_self["deploy.predict"];
  const std::vector<double>& more = high_self["deploy.predict"];
  predict_us.insert(predict_us.end(), more.begin(), more.end());
  report.metric("deploy.predict_us", median(predict_us), "us");
  report.metric("obs.trace_overhead_us", median(low.latency_us) - median(untraced.latency_us), "us");
}

// -------------------------------------------------------------------- main

void print_json(const Report& report) {
  std::int64_t attempted = 0, failed = 0;
  for (const auto& [name, t] : report.phases) {
    attempted += t.attempted;
    failed += t.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              report.failures.empty() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args, obs::Clock::time_point process_start) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (c10, imnet)\n", args.workload.c_str());
    return 2;
  }
  runtime::set_num_threads(1);
  Report report;
  const double s = args.seconds;

  // ---- set-up: inputs, models, artifacts, sessions, the server.
  TrainFixture train(workload->dataset, args.seed);
  PredictFixture predict(train.data, args.seed, report);
  TcpFleet fleet(train.data.train, train.data.test, args.seed, kTcpPoolSize);
  tally_segment("warm-up", fleet.open_loop(kHighRate, 0.05, args.seed * 7919 + 9), report);
  // Set-up is not paired: it allocates and faults in most of the process's
  // memory, which the compute reference does not track (pairing it widened
  // its run-to-run spread).
  const double setup_s = seconds_since(process_start);
  time_reference(15);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", workload->name,
              static_cast<unsigned long long>(args.seed), s, args.trace);
  std::printf("setup: %.4f s (reference pass after set-up %.2f us)\n", setup_s,
              bracketing_reference_us(0.0, 15));

  if (args.trace == 0) {
    // The phases alternate in kRounds slices, so that a host stall of a few
    // seconds lands in one slice of each phase rather than all of one.
    Measured m;
    for (int round = 0; round < kRounds; ++round) {
      train_slice(train, m, 0.30 * s / kRounds, report);
      ptq_slice(train, m, 0.20 * s / kRounds, report);
      predict_slice(predict, m, 0.15 * s / kRounds, report);
      tcp_slice(fleet, m, 0.30 * s / kRounds, args.seed * 7919 + 7);
    }
    finish_train(train, m, args.seed, report);
    finish_predict(predict, m, report);
    finish_tcp(fleet, m, 0.05 * s, report);
    report.metric("setup_s", setup_s, "s");
  } else {
    run_layer_probes(train, predict, report);
    run_traced_predict(predict, 0.3 * s, report);
    run_traced_tcp(fleet, 0.3 * s, args.seed * 7919 + 7, report);
    report.metric("host.ref_us", median(reference_samples()), "us");
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  if (args.trace == 0) report.metric("peak_rss_kb", static_cast<double>(usage.ru_maxrss), "KiB");
  std::printf("host.ref_us %.3f (median of %zu reference passes)\n", median(reference_samples()),
              reference_samples().size());
  for (const auto& [phase, t] : report.phases) {
    std::printf("phase %-14s checked %lld, failed %lld\n", phase.c_str(),
                static_cast<long long>(t.attempted), static_cast<long long>(t.failed));
  }
  print_json(report);
  return report.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = obs::now();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload c10|imnet --seed N --seconds S --trace 0|1\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  init_reference();
  try {
    if (args.selftest) {
      runtime::set_num_threads(1);
      const int bad = run_selftest();
      std::printf("selftest: %s\n", bad == 0 ? "every check passes clean input and fires on corrupted input" : "FAILED");
      return bad == 0 ? 0 : 1;
    }
    return run(args, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
