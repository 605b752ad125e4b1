#include "tcp.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "deploy/inference.hpp"
#include "net/protocol.hpp"
#include "net/traffic.hpp"
#include "nn/models.hpp"
#include "quant/planner.hpp"

namespace perfbench {

using namespace hero;

namespace {

constexpr const char* kModelNames[] = {"mlp-u4", "mlp-u8", "mlp-hawq5"};
constexpr const char* kPlanners[] = {"uniform:sym:bits=4", "uniform:sym:bits=8",
                                     "hawq:budget=5"};
constexpr serve::SlaClass kModelSla[] = {serve::SlaClass::kLatency, serve::SlaClass::kStandard,
                                         serve::SlaClass::kThroughput};
constexpr std::size_t kModels = 3;

enum Status : int { kPending = 0, kAnswered, kMismatched, kRejected, kFailed };

/// How long a segment waits for its last response before counting the rest
/// as failed.
constexpr auto kDrainTimeout = std::chrono::seconds(20);

}  // namespace

void SegmentResult::append(const SegmentResult& other) {
  sent += other.sent;
  answered += other.answered;
  rejected += other.rejected;
  mismatched += other.mismatched;
  latency_us.insert(latency_us.end(), other.latency_us.begin(), other.latency_us.end());
  lateness_us.insert(lateness_us.end(), other.lateness_us.begin(), other.lateness_us.end());
  seconds += other.seconds;
}

/// The benchmark's HNET connection: frames go out from the dispatching
/// thread, a reader thread stamps and checks every reply.
struct TcpFleet::Connection {
  explicit Connection(std::uint16_t port, const std::vector<PooledRequest>& requests)
      : socket(net::connect_loopback(port)), pool(requests) {
    reader = std::thread([this] { read_loop(); });
  }
  ~Connection() {
    socket.shutdown_write();
    socket.shutdown_read();
    reader.join();
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Starts a segment of at most `capacity` frames with ids from `first_id`.
  void begin(std::uint64_t first_id, std::int64_t capacity) {
    std::lock_guard<std::mutex> lock(mutex);
    base_id = first_id;
    pool_index.assign(static_cast<std::size_t>(capacity), 0);
    status.assign(static_cast<std::size_t>(capacity), kPending);
    recv_ns.assign(static_cast<std::size_t>(capacity), 0);
    done = 0;
  }

  void read_loop() {
    try {
      char header_bytes[net::kHeaderBytes];
      while (socket.recv_exact(header_bytes, net::kHeaderBytes)) {
        const net::FrameHeader header = net::decode_header(header_bytes);
        std::string body(header.body_bytes, '\0');
        if (header.body_bytes > 0 && !socket.recv_exact(body.data(), body.size())) break;
        const std::int64_t now = obs::now_ns();
        std::lock_guard<std::mutex> lock(mutex);
        const auto slot = static_cast<std::size_t>(header.id - base_id);
        if (header.id < base_id || slot >= status.size()) continue;
        if (header.type == net::FrameType::kResponse) {
          const net::ResponseFrame frame = net::decode_response_body(header, body);
          status[slot] = same_bits(frame.logits, pool[pool_index[slot]].expected)
                             ? kAnswered
                             : kMismatched;
        } else if (header.type == net::FrameType::kError) {
          const net::ErrorFrame error = net::decode_error_body(header, body);
          status[slot] = error.code == net::ErrorCode::kRejected ? kRejected : kFailed;
          std::fprintf(stderr, "request %llu: %s\n",
                       static_cast<unsigned long long>(header.id), error.message.c_str());
        } else {
          continue;
        }
        recv_ns[slot] = now;
        done += 1;
        cv.notify_all();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "connection lost: %s\n", e.what());
    }
    std::lock_guard<std::mutex> lock(mutex);
    broken = true;
    cv.notify_all();
  }

  net::Socket socket;
  const std::vector<PooledRequest>& pool;
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t base_id = 0;
  std::vector<std::size_t> pool_index;
  std::vector<int> status;
  std::vector<std::int64_t> recv_ns;
  std::int64_t done = 0;
  bool broken = false;
  std::thread reader;  // last: started after every member it reads exists
};

TcpFleet::TcpFleet(const data::Dataset& train, const data::Dataset& test, std::uint64_t seed,
                   std::size_t pool_size) {
  const std::int64_t flat_dim = train.features.numel() / train.size();
  data::Dataset flat_train = train;
  flat_train.features = train.features.reshape({train.size(), flat_dim});
  const Tensor flat_test = test.features.reshape({test.size(), flat_dim});

  Rng model_rng(seed * 7919 + 3);
  auto model = nn::make_model("mlp", flat_dim, train.classes, model_rng);
  const std::string spec = nn::canonical_model_spec("mlp", flat_dim, train.classes);
  model->set_training(false);
  quant::PlannerContext ctx;
  ctx.calib = &flat_train;
  ctx.seed = seed;
  std::vector<std::unique_ptr<deploy::InferenceSession>> direct;
  for (std::size_t m = 0; m < kModels; ++m) {
    artifacts_.push_back(deploy::pack_model(
        *model, quant::plan_quantization(*model, kPlanners[m], ctx), spec, kPlanners[m]));
    direct.push_back(std::make_unique<deploy::InferenceSession>(artifacts_.back()));
  }

  Rng pool_rng(seed * 7919 + 4);
  for (std::size_t i = 0; i < pool_size; ++i) {
    PooledRequest r;
    const std::uint32_t m = pool_rng.next_below(kModels);
    const std::int64_t rows = 1 + pool_rng.next_below(4);
    const std::int64_t start =
        pool_rng.next_below(static_cast<std::uint32_t>(flat_test.dim(0) - rows + 1));
    r.features = flat_test.narrow(0, start, rows).clone();
    r.expected = direct[m]->predict_reference(r.features);
    r.frame_model = kModelNames[m];
    pool_.push_back(std::move(r));
  }

  for (std::size_t m = 0; m < kModels; ++m) store_.install(kModelNames[m], artifacts_[m]);
  serve::ServerConfig config;
  config.workers = 1;
  config.max_batch = 16;
  config.max_delay_us = 200;
  config.max_queue_rows = std::int64_t{1} << 22;
  server_ = std::make_unique<serve::Server>(store_, config);
  for (std::size_t m = 0; m < kModels; ++m) server_->set_sla(kModelNames[m], kModelSla[m]);
  // Admission bounds far above what the rates can queue: a host stall must
  // show as latency, not as rejected requests.
  net::NetServerConfig net_config;
  net_config.max_inflight = std::int64_t{1} << 20;
  net_ = std::make_unique<net::NetServer>(*server_, net_config);
  conn_ = std::make_unique<Connection>(net_->port(), pool_);
}

TcpFleet::~TcpFleet() {
  conn_.reset();
  net_->shutdown();
  server_->shutdown();
}

void TcpFleet::send(std::int64_t slot) {
  const std::size_t index = static_cast<std::size_t>(slot) % pool_.size();
  net::RequestFrame frame;
  {
    std::lock_guard<std::mutex> lock(conn_->mutex);
    conn_->pool_index[static_cast<std::size_t>(slot)] = index;
    frame.id = conn_->base_id + static_cast<std::uint64_t>(slot);
  }
  frame.model = pool_[index].frame_model;
  frame.features = pool_[index].features;
  conn_->socket.send_all(net::encode_request(frame));
}

SegmentResult TcpFleet::finish_segment(std::int64_t sent, const std::vector<std::int64_t>& due_ns) {
  SegmentResult result;
  result.sent = sent;
  std::unique_lock<std::mutex> lock(conn_->mutex);
  conn_->cv.wait_for(lock, kDrainTimeout,
                     [&] { return conn_->done >= sent || conn_->broken; });
  std::int64_t last_ns = due_ns.empty() ? 0 : due_ns.front();
  for (std::int64_t i = 0; i < sent; ++i) {
    const auto s = static_cast<std::size_t>(i);
    switch (conn_->status[s]) {
      case kAnswered:
      case kMismatched:
        result.answered += 1;
        result.mismatched += conn_->status[s] == kMismatched;
        result.latency_us.push_back(static_cast<double>(conn_->recv_ns[s] - due_ns[s]) * 1e-3);
        last_ns = std::max(last_ns, conn_->recv_ns[s]);
        break;
      case kRejected: result.rejected += 1; break;
      default: break;  // an error frame, or no answer before the timeout
    }
  }
  if (!due_ns.empty()) result.seconds = static_cast<double>(last_ns - due_ns.front()) * 1e-9;
  next_id_ += static_cast<std::uint64_t>(sent);
  return result;
}

SegmentResult TcpFleet::open_loop(double rate_rps, double seconds, std::uint64_t seed) {
  net::TraceConfig trace;
  trace.kind = net::TraceKind::kPoisson;
  trace.rate_rps = rate_rps;
  trace.count = std::max<std::int64_t>(1, static_cast<std::int64_t>(rate_rps * seconds));
  trace.seed = seed;
  const std::vector<std::int64_t> arrivals = net::make_arrivals_us(trace);
  conn_->begin(next_id_, trace.count);

  std::vector<std::int64_t> due_ns(arrivals.size());
  std::vector<double> lateness;
  lateness.reserve(arrivals.size());
  const auto t0 = obs::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto due = t0 + std::chrono::microseconds(arrivals[i]);
    std::this_thread::sleep_until(due);
    due_ns[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(due.time_since_epoch()).count();
    lateness.push_back(static_cast<double>(obs::now_ns() - due_ns[i]) * 1e-3);
    send(static_cast<std::int64_t>(i));
  }
  SegmentResult result = finish_segment(trace.count, due_ns);
  result.lateness_us = std::move(lateness);
  return result;
}

SegmentResult TcpFleet::closed_loop(int window, double seconds) {
  // Over three times the 15k req/s the loop reached on a 4-vCPU VM; the
  // loop stops at capacity.
  const std::int64_t capacity = static_cast<std::int64_t>(seconds * 50000.0) + window;
  conn_->begin(next_id_, capacity);
  std::vector<std::int64_t> due_ns;
  const auto t0 = obs::now();
  std::int64_t sent = 0;
  while (seconds_since(t0) < seconds && sent < capacity) {
    {
      std::unique_lock<std::mutex> lock(conn_->mutex);
      conn_->cv.wait(lock, [&] { return sent - conn_->done < window || conn_->broken; });
      if (conn_->broken) break;
    }
    due_ns.push_back(obs::now_ns());
    send(sent++);
  }
  return finish_segment(sent, due_ns);
}

}  // namespace perfbench
