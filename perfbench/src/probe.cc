#include "probe.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>

#include "common/alloc_probe.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
volatile double g_reference_sink = 0.0;
}  // namespace

// Counting replacements for the global allocation functions. Every form
// funnels into malloc/free, so the counter sees each heap allocation once.
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size == 0 ? align : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

namespace {
double reference_pass_cpu_s();
}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.vcsw = ru.ru_nvcsw;
  u.ivcsw = ru.ru_nivcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

HostSample host_sample() {
  HostSample s;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return s;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  std::uint64_t v[10] = {};
  const int n = std::fscanf(
      f,
      "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
      " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
      &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7], &v[8], &v[9]);
  std::fclose(f);
  if (n < 8) return s;
  // guest time is already counted in user; sum the first eight fields.
  for (int i = 0; i < 8; ++i) s.total += v[i];
  s.iowait = v[4];
  s.steal = v[7];
  return s;
}

NoiseRecord noise_between(const HostSample& start, const HostSample& end) {
  NoiseRecord r;
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  r.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 1;
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) r.loadavg_1m = load[0];
  const double total = static_cast<double>(end.total - start.total);
  if (total > 0) {
    r.steal_share = static_cast<double>(end.steal - start.steal) / total;
    r.iowait_share = static_cast<double>(end.iowait - start.iowait) / total;
  }
  return r;
}

double reference_cpu_s() {
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double t = reference_pass_cpu_s();
    if (pass == 0 || t < best) best = t;
  }
  return best;
}

namespace {
double reference_pass_cpu_s() {
  static std::vector<double> keys = [] {
    std::vector<double> k(4096);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto& v : k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    return k;
  }();
  static std::vector<double> work(keys.size());
  const double t0 = thread_cpu_s();
  work.clear();
  for (double k : keys) {
    work.push_back(k);
    std::push_heap(work.begin(), work.end(), std::greater<>{});
  }
  double sum = 0.0;
  while (!work.empty()) {
    std::pop_heap(work.begin(), work.end(), std::greater<>{});
    sum += work.back();
    work.pop_back();
  }
  work = keys;
  std::sort(work.begin(), work.end());
  g_reference_sink = sum + work[work.size() / 2];
  return thread_cpu_s() - t0;
}
}  // namespace

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void install_alloc_probe() { tailguard::set_alloc_count_fn(&allocations); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

void Fingerprint::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

}  // namespace perfbench
