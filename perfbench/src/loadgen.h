// Load generation: the benchmark's own seeded random streams (Poisson
// arrival times, Zipf-skewed picks) and a single-threaded loopback client
// that multiplexes a few nonblocking connections over epoll.
//
// The generators depend on nothing in the program under test, so a
// change to the program can never change the inputs a seed produces.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 1]); 0 for no values.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// splitmix64: small, fast, and identical on every platform.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Uniform() * n); }
  /// Exponential gap with the given mean.
  double Exponential(double mean);

 private:
  uint64_t state_;
};

/// Arrival offsets (seconds from the start) of a Poisson process of
/// `rate` per second over [0, seconds).
std::vector<double> PoissonArrivals(SeededRng& rng, double rate,
                                    double seconds);

/// Draws ranks 0..n-1 with P(r) proportional to 1 / (r + 1)^exponent.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);
  size_t Sample(SeededRng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A seeded permutation of 0..n-1 (which items are hot under Zipf).
std::vector<size_t> Permutation(SeededRng& rng, size_t n);

/// One line received on a connection.
struct Received {
  size_t conn = 0;
  std::string_view line;  // without the terminator
  Clock::time_point at{};
};

/// A single-threaded client over loopback TCP. Lines are sent with
/// Send() (buffered, flushed as the socket accepts them) and delivered
/// to the Poll() callback as they arrive, in per-connection order.
class LoopbackClient {
 public:
  explicit LoopbackClient(uint16_t port);
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  /// Opens a connection; returns its index. Exits the process on error
  /// (a loopback connect to a running server cannot fail).
  size_t Connect();
  /// Replaces connection `conn` by a fresh one, closing the old socket
  /// without reading what it has pending (a client that hung up).
  void Reconnect(size_t conn);
  void Send(size_t conn, std::string_view bytes);

  /// Waits for socket events until `until`, delivering each complete line
  /// to `on_line`. Returns after the first batch of events, or at
  /// `until`. Returns false when a connection failed.
  bool Poll(Clock::time_point until,
            const std::function<void(const Received&)>& on_line);

  const std::string& error() const { return error_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    bool want_write = false;
  };
  void Flush(size_t conn);
  void Watch(size_t conn);
  bool ReadAll(size_t conn,
               const std::function<void(const Received&)>& on_line);

  uint16_t port_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  std::string error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
