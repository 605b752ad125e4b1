// The tcp_open_loop phase: a three-model MLP fleet behind net::NetServer on
// loopback, driven by the benchmark's own HNET connection.
//
// The connection is the benchmark's, not net::Client, because an open-loop
// latency must run from each arrival's due time to its response: a
// dispatcher that falls behind delays every later request, and that wait is
// part of what a user sees. net::Client times from the send instead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "deploy/artifact.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "serve/model_store.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// One request body of the seeded pool, with its expected logits.
struct PooledRequest {
  hero::Tensor features;  ///< 1-4 rows
  hero::Tensor expected;  ///< predict_reference (the Module replay) of features
  std::string frame_model;
};

/// Outcome of one traffic segment, per request.
struct SegmentResult {
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t rejected = 0;
  std::int64_t mismatched = 0;  ///< answered, but not bitwise equal to the reference
  std::vector<double> latency_us;   ///< due time -> response read, answered requests
  std::vector<double> lateness_us;  ///< due time -> send, every request
  double seconds = 0.0;             ///< first due time -> last response

  /// Operations that count as failed: every request not answered correctly.
  std::int64_t failures() const { return sent - (answered - mismatched); }
  /// Adds another segment's requests to this one.
  void append(const SegmentResult& other);
};

class TcpFleet {
 public:
  /// Packs u4 / u8 / hawq5 artifacts of one seeded MLP over the flattened
  /// images, installs them behind a 1-worker scheduler and the HNET front
  /// end, connects, and builds a pool of `pool_size` seeded requests.
  TcpFleet(const hero::data::Dataset& train, const hero::data::Dataset& test,
           std::uint64_t seed, std::size_t pool_size);
  ~TcpFleet();
  TcpFleet(const TcpFleet&) = delete;
  TcpFleet& operator=(const TcpFleet&) = delete;

  /// Open loop: Poisson arrivals at `rate_rps` for `seconds`, seeded.
  SegmentResult open_loop(double rate_rps, double seconds, std::uint64_t seed);
  /// Closed loop: `window` requests kept in flight for `seconds`.
  SegmentResult closed_loop(int window, double seconds);

 private:
  struct Connection;
  /// Sends frame `slot` of the current segment: pool request slot % pool size.
  void send(std::int64_t slot);
  SegmentResult finish_segment(std::int64_t sent, const std::vector<std::int64_t>& due_ns);

  std::vector<hero::deploy::ModelArtifact> artifacts_;
  std::vector<PooledRequest> pool_;
  hero::serve::ModelStore store_;
  std::unique_ptr<hero::serve::Server> server_;
  std::unique_ptr<hero::net::NetServer> net_;
  std::unique_ptr<Connection> conn_;
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
