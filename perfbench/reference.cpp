#include "reference.hpp"

#include <vector>

namespace perfbench {
namespace {

constexpr int kChannels = 8;
constexpr int kSize = 12;

std::vector<float>& input() {
  static std::vector<float> values(kChannels * kSize * kSize);
  return values;
}
std::vector<float>& weights() {
  static std::vector<float> values(kChannels * kChannels * 9);
  return values;
}
std::vector<float>& output() {
  static std::vector<float> values(kChannels * kSize * kSize);
  return values;
}

}  // namespace

void init_reference() {
  // A fixed LCG keeps the input independent of every seed and library.
  unsigned state = 12345u;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<float>(state >> 8) / 16777216.0f - 0.5f;
  };
  for (float& v : input()) v = next();
  for (float& v : weights()) v = next();
}

__attribute__((noinline)) float run_reference() {
  const float* x = input().data();
  const float* w = weights().data();
  float* y = output().data();
  for (int co = 0; co < kChannels; ++co) {
    for (int oy = 0; oy < kSize; ++oy) {
      for (int ox = 0; ox < kSize; ++ox) {
        float acc = 0.0f;
        for (int ci = 0; ci < kChannels; ++ci) {
          for (int ky = 0; ky < 3; ++ky) {
            const int iy = oy + ky - 1;
            if (iy < 0 || iy >= kSize) continue;
            for (int kx = 0; kx < 3; ++kx) {
              const int ix = ox + kx - 1;
              if (ix < 0 || ix >= kSize) continue;
              acc += x[(ci * kSize + iy) * kSize + ix] * w[((co * kChannels + ci) * 3 + ky) * 3 + kx];
            }
          }
        }
        y[(co * kSize + oy) * kSize + ox] = acc;
      }
    }
  }
  float sum = 0.0f;
  for (int i = 0; i < kChannels * kSize * kSize; ++i) sum += y[i];
  return sum;
}

}  // namespace perfbench
