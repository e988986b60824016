// Measurement primitives for the benchmark binary: clocks, resource usage,
// the host-noise record, allocation counting and order statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns();

/// CPU time (user + system) of the calling thread, in seconds.
double thread_cpu_s();

/// CPU time of the whole process (all threads), in seconds, to the
/// nanosecond (getrusage reports whole microseconds).
double process_cpu_s();

/// Process-wide resource usage (all threads).
struct Usage {
  double cpu_s = 0.0;  ///< user + system
  std::int64_t vcsw = 0;
  std::int64_t ivcsw = 0;
  double max_rss_mb = 0.0;
};
Usage usage();

/// Host-noise record: what else the machine was doing while the run went.
struct HostSample {
  std::uint64_t total = 0;   ///< all /proc/stat cpu jiffies
  std::uint64_t steal = 0;
  std::uint64_t iowait = 0;
};
HostSample host_sample();

struct NoiseRecord {
  unsigned nproc = 0;
  double loadavg_1m = 0.0;
  double steal_share = 0.0;   ///< steal jiffies / all jiffies over the run
  double iowait_share = 0.0;
};
NoiseRecord noise_between(const HostSample& start, const HostSample& end);

/// Thread CPU seconds of a fixed reference computation (heap and sort work
/// on 4096 doubles from a fixed seed; the fastest of three passes). It is
/// the benchmark's own code, never the program's, so its time tracks only
/// how fast the host runs this thread right now. CPU figures divided by it
/// are in host-speed units: the hosts this benchmark was built on ran the
/// same code 1.6x slower in some minutes than in others.
double reference_cpu_s();

/// Heap allocations made by this process so far. The benchmark binary
/// replaces the global operator new to count them; the same counter is
/// installed as the library's alloc_probe hook, so SimResult's
/// event_loop_allocs is live.
std::uint64_t allocations();
void install_alloc_probe();

/// Median of `v` (0 when empty). Takes a copy: callers keep their order.
double median(std::vector<double> v);

/// Value at quantile q in [0, 1] by nearest rank on a sorted copy.
double quantile(std::vector<double> v, double q);

/// 64-bit fingerprint: FNV-1a over the raw bytes, in call order.
class Fingerprint {
 public:
  void add(const void* data, std::size_t n);
  void add(double x) { add(&x, sizeof(x)); }
  void add(std::uint64_t x) { add(&x, sizeof(x)); }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace perfbench
