#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double SeededRng::Exponential(double mean) {
  return -std::log1p(-Uniform()) * mean;
}

std::vector<double> PoissonArrivals(SeededRng& rng, double rate,
                                    double seconds) {
  std::vector<double> at;
  double t = rng.Exponential(1.0 / rate);
  while (t < seconds) {
    at.push_back(t);
    t += rng.Exponential(1.0 / rate);
  }
  return at;
}

ZipfSampler::ZipfSampler(size_t n, double exponent) : cdf_(n) {
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(SeededRng& rng) const {
  const double u = rng.Uniform();
  const size_t r = std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(r, cdf_.size() - 1);
}

std::vector<size_t> Permutation(SeededRng& rng, size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  return perm;
}

namespace {

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, std::strerror(errno));
  std::exit(1);
}

constexpr uint64_t kTimerTag = ~uint64_t{0};

}  // namespace

LoopbackClient::LoopbackClient(uint16_t port) : port_(port) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) Die("epoll_create1");
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) Die("timerfd_create");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerTag;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) != 0) {
    Die("epoll_ctl(timer)");
  }
}

LoopbackClient::~LoopbackClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  close(timer_fd_);
  close(epoll_fd_);
}

size_t LoopbackClient::Connect() {
  conns_.emplace_back();
  Reconnect(conns_.size() - 1);
  return conns_.size() - 1;
}

void LoopbackClient::Reconnect(size_t index) {
  Conn& conn = conns_[index];
  if (conn.fd >= 0) close(conn.fd);  // also drops its epoll registration
  conn = Conn{};
  conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn.fd < 0) Die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Die("connect");
  }
  const int one = 1;
  setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = fcntl(conn.fd, F_GETFL, 0);
  if (flags < 0 || fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    Die("fcntl");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = index;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) != 0) {
    Die("epoll_ctl(conn)");
  }
}

void LoopbackClient::Send(size_t index, std::string_view bytes) {
  Conn& conn = conns_[index];
  conn.out.append(bytes);
  Flush(index);
}

void LoopbackClient::Flush(size_t index) {
  Conn& conn = conns_[index];
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_off,
                           conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      error_ = std::string("send: ") + std::strerror(errno);
      return;
    }
    conn.out_off += static_cast<size_t>(n);
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  Watch(index);
}

void LoopbackClient::Watch(size_t index) {
  Conn& conn = conns_[index];
  const bool want_write = conn.out_off < conn.out.size();
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = index;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
    error_ = std::string("epoll_ctl: ") + std::strerror(errno);
  }
}

bool LoopbackClient::ReadAll(
    size_t index, const std::function<void(const Received&)>& on_line) {
  char buf[64 * 1024];
  while (true) {
    Conn& conn = conns_[index];
    const ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      error_ = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) {
      error_ = "connection " + std::to_string(index) + " closed by server";
      return false;
    }
    const Clock::time_point at = Clock::now();
    conn.in.append(buf, static_cast<size_t>(n));
    size_t begin = 0;
    while (true) {
      const size_t nl = conn.in.find('\n', begin);
      if (nl == std::string::npos) break;
      on_line(Received{index,
                       std::string_view(conn.in).substr(begin, nl - begin),
                       at});
      begin = nl + 1;
    }
    conns_[index].in.erase(0, begin);
  }
}

bool LoopbackClient::Poll(
    Clock::time_point until,
    const std::function<void(const Received&)>& on_line) {
  if (!error_.empty()) return false;
  const auto now = Clock::now();
  if (until > now) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        until.time_since_epoch())
                        .count();
    itimerspec spec{};
    spec.it_value.tv_sec = ns / 1000000000;
    spec.it_value.tv_nsec = ns % 1000000000;
    // steady_clock is CLOCK_MONOTONIC on Linux, so the deadline is
    // absolute on the same clock.
    timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }
  epoll_event events[64];
  const int timeout = until > now ? -1 : 0;
  const int n = epoll_wait(epoll_fd_, events, 64, timeout);
  if (n < 0) {
    if (errno == EINTR) return true;
    error_ = std::string("epoll_wait: ") + std::strerror(errno);
    return false;
  }
  for (int i = 0; i < n; ++i) {
    const uint64_t tag = events[i].data.u64;
    if (tag == kTimerTag) {
      uint64_t expirations = 0;
      (void)!read(timer_fd_, &expirations, sizeof(expirations));
      continue;
    }
    if (events[i].events & EPOLLOUT) Flush(tag);
    if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
      if (!ReadAll(tag, on_line)) return false;
    }
  }
  return error_.empty();
}

}  // namespace perfbench
