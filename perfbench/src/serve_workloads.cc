// serve-inproc and serve-loopback: the same closed-loop traffic through the
// threaded in-process runtime and through the TCP dispatcher to two task
// daemons on loopback. Tasks take zero simulated service time, so latency
// and CPU are all dispatch path.
#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/cdf_model.h"
#include "layers.h"
#include "net/dispatcher.h"
#include "net/task_server.h"
#include "runtime/service.h"
#include "workloads.h"
#include "workloads/tailbench.h"

namespace perfbench {

using namespace tailguard;

namespace {

constexpr std::size_t kServers = 2;
constexpr std::size_t kOutstanding = 8;
// Offered rate cap. A saturating closed loop's throughput swung 3x between
// runs with the host's steal time, and with it CPU per task and the
// dispatcher's memory (it keeps every task's timeout entry for
// task_timeout_ms). Pacing fixes the offered load well below the slowest
// capacity measured, so the figures describe the dispatch path, not the
// host.
constexpr double kQueriesPerSecond = 4000.0;
constexpr int kSetups = 21;
const std::vector<ClassSpec> kClasses = {{.slo_ms = 1.0, .percentile = 99.0},
                                         {.slo_ms = 1.5, .percentile = 99.0}};

/// One serving stack behind a uniform submit().
class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::future<QueryResult> submit(ClassId cls,
                                          std::uint32_t fanout) = 0;
  virtual std::uint64_t completed_queries() const = 0;
  /// Daemon-side counts (0 in process, where no daemon exists).
  virtual std::uint64_t tasks_executed() const = 0;
  virtual std::uint64_t failed_tasks() const = 0;
  virtual double deadline_miss_ratio() const = 0;
  virtual PlacementStats placement_stats() const = 0;
  /// Deepest daemon queue right now (0 where the runtime does not expose
  /// one).
  virtual std::size_t queue_depth_max() const = 0;
};

std::vector<double> masstree_profile(std::uint64_t seed) {
  const auto dist = make_service_time_model(TailbenchApp::kMasstree);
  Rng rng(seed);
  std::vector<double> profile(2000);
  for (auto& x : profile) x = dist->sample(rng);
  return profile;
}

class InprocBackend final : public Backend {
 public:
  InprocBackend(std::uint64_t seed, QueryRecorder* recorder)
      : recorder_(recorder), service_(options(seed, recorder)) {
    service_.seed_profile(masstree_profile(seed));
  }
  std::future<QueryResult> submit(ClassId cls, std::uint32_t fanout) override {
    cls_ = cls;
    return service_.submit(cls, std::vector<ServiceTaskSpec>(fanout));
  }
  std::uint64_t completed_queries() const override {
    return service_.completed_queries();
  }
  std::uint64_t tasks_executed() const override { return 0; }
  std::uint64_t failed_tasks() const override { return 0; }
  double deadline_miss_ratio() const override {
    return service_.deadline_miss_ratio();
  }
  PlacementStats placement_stats() const override {
    return service_.placement_stats();
  }
  std::size_t queue_depth_max() const override { return 0; }

 private:
  ServiceOptions options(std::uint64_t seed, QueryRecorder* recorder) {
    ServiceOptions opt;
    opt.num_workers = kServers;
    opt.policy = Policy::kTfEdf;
    opt.classes = kClasses;
    opt.seed = seed;
    if (recorder != nullptr)
      opt.placement_observer = [this](std::span<const ServerId> s) {
        recorder_->placed(cls_, s);
      };
    return opt;
  }

  QueryRecorder* recorder_;
  ClassId cls_ = 0;
  TailGuardService service_;
};

class LoopbackBackend final : public Backend {
 public:
  LoopbackBackend(std::uint64_t seed, QueryRecorder* recorder)
      : recorder_(recorder) {
    for (std::size_t i = 0; i < kServers; ++i) {
      net::TaskServerOptions opt;
      opt.policy = Policy::kTfEdf;
      opt.num_classes = kClasses.size();
      daemons_.push_back(std::make_unique<net::TaskServer>(opt));
    }
    net::DispatcherOptions opt;
    for (const auto& d : daemons_)
      opt.servers.push_back({"127.0.0.1", d->port()});
    opt.policy = Policy::kTfEdf;
    opt.classes = kClasses;
    opt.seed = seed;
    if (recorder != nullptr)
      opt.placement_observer = [this](std::span<const ServerId> s) {
        recorder_->placed(cls_, s);
      };
    dispatcher_ = std::make_unique<net::RemoteDispatcher>(opt);
    TG_CHECK_MSG(dispatcher_->wait_for_servers(kServers, 10000.0),
                 "task daemons did not come up on loopback");
    dispatcher_->seed_profile(masstree_profile(seed));
  }
  ~LoopbackBackend() override {
    dispatcher_.reset();
    for (auto& d : daemons_) d->stop();
  }
  std::future<QueryResult> submit(ClassId cls, std::uint32_t fanout) override {
    cls_ = cls;
    return dispatcher_->submit(cls, std::vector<net::RemoteTaskSpec>(fanout));
  }
  std::uint64_t completed_queries() const override {
    return dispatcher_->completed_queries();
  }
  std::uint64_t tasks_executed() const override {
    std::uint64_t n = 0;
    for (const auto& d : daemons_) n += d->tasks_executed();
    return n;
  }
  std::uint64_t failed_tasks() const override {
    return dispatcher_->failed_tasks();
  }
  double deadline_miss_ratio() const override {
    return dispatcher_->deadline_miss_ratio();
  }
  PlacementStats placement_stats() const override {
    return dispatcher_->placement_stats();
  }
  std::size_t queue_depth_max() const override {
    std::size_t m = 0;
    for (const auto& d : daemons_) m = std::max(m, d->queue_depth());
    return m;
  }

 private:
  QueryRecorder* recorder_;
  ClassId cls_ = 0;
  std::vector<std::unique_ptr<net::TaskServer>> daemons_;
  std::unique_ptr<net::RemoteDispatcher> dispatcher_;
};

/// Per-query record of a measured phase.
struct Sample {
  ClassId cls;
  std::uint32_t fanout;
  double latency_ms;
  double submit_ns;  ///< time inside submit(); 0 when untraced
};

/// Fixed-capacity uniform sample of a phase's queries (reservoir
/// sampling), so memory does not grow with throughput.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = 1 << 17;
  Reservoir() { kept_.reserve(kCapacity); }
  void add(const Sample& s) {
    ++seen_;
    if (kept_.size() < kCapacity) {
      kept_.push_back(s);
    } else if (const std::uint64_t j = rng_() % seen_; j < kCapacity) {
      kept_[j] = s;
    }
  }
  const std::vector<Sample>& kept() const { return kept_; }

 private:
  Rng rng_;
  std::uint64_t seen_ = 0;
  std::vector<Sample> kept_;
};

struct Phase {
  Reservoir samples;
  std::uint64_t queries = 0, tasks = 0;
  /// Exact sums over every query (traced phases): time inside submit(),
  /// latency minus that time, and the fanout-1 share of the latter.
  double front_ns = 0.0, back_ns = 0.0, f1_post_ms = 0.0;
  std::uint64_t f1_queries = 0;
  double wall_s = 0.0;
  Usage u0, u1;
  std::uint64_t allocs = 0;
  std::size_t queue_depth_max = 0;
  std::uint64_t depth_samples = 0;
  std::uint64_t late_sends = 0;  ///< sent more than one period after due
  /// reference_cpu_s() sampled every 100 ms on the generator thread, and
  /// the CPU those samples cost (taken out of the phase's CPU).
  std::vector<double> ref;
  double ref_cost_s = 0.0;

  Phase() { ref.reserve(1024); }
  double cpu_s() const { return u1.cpu_s - u0.cpu_s - ref_cost_s; }
  /// CPU per task in reference units x 1e6 (see reference_cpu_s()).
  double cpu_per_task_rel() const {
    return tasks > 0 && !ref.empty()
               ? 1e6 * cpu_s() / static_cast<double>(tasks) / median(ref)
               : 0.0;
  }
};

/// Paced closed-loop load generator: one generator thread sends a query every
/// 1/kQueriesPerSecond, but never has more than kOutstanding in flight.
/// Each query's class and fanout are drawn 50/50 from the seeded Rng.
class LoadGen {
 public:
  LoadGen(Backend& backend, std::uint64_t seed, Report& report,
         QueryRecorder* recorder)
      : backend_(backend), rng_(seed), report_(report), recorder_(recorder) {}

  /// Runs for `seconds`; `traced` times each submit() and samples daemon
  /// queue depth.
  void run(double seconds, bool traced, Phase& p) {
    p.u0 = usage();
    p.allocs = allocations();
    using Clock = std::chrono::steady_clock;
    const auto period = static_cast<std::int64_t>(1e9 / kQueriesPerSecond);
    const std::int64_t start = now_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t due = start;
    std::int64_t next_ref = start;
    std::uint64_t n = 0;
    for (;;) {
      std::int64_t now = now_ns();
      const bool open = now < deadline;
      if (open && now >= next_ref) {
        const double c0 = thread_cpu_s();
        p.ref.push_back(reference_cpu_s());
        p.ref_cost_s += thread_cpu_s() - c0;
        next_ref = now + 100'000'000;
        now = now_ns();
      }
      if (open && window_.size() < kOutstanding && now >= due) {
        if (now - due > period) ++p.late_sends;
        send(traced);
        // A stalled generator catches up by at most one window.
        due = std::max(due + period,
                       now - static_cast<std::int64_t>(kOutstanding) * period);
        continue;
      }
      const Clock::time_point due_at{std::chrono::nanoseconds(due)};
      if (window_.empty()) {
        if (!open) break;
        std::this_thread::sleep_until(due_at);
        continue;
      }
      // Wait for the oldest query, but only until the next send is due.
      if (open && window_.size() < kOutstanding &&
          window_.front().future.wait_until(due_at) !=
              std::future_status::ready)
        continue;
      Pending done = std::move(window_.front());
      window_.pop_front();
      const QueryResult r = resolve(done);
      ++p.queries;
      p.tasks += done.fanout;
      p.samples.add({done.cls, done.fanout, r.latency_ms, done.submit_ns});
      if (!traced) continue;
      const double post_ms = r.latency_ms - 1e-6 * done.submit_ns;
      p.front_ns += done.submit_ns;
      p.back_ns += 1e6 * post_ms;
      if (done.fanout == 1) {
        p.f1_post_ms += post_ms;
        ++p.f1_queries;
      }
      if (++n % 64 == 0) {
        p.queue_depth_max =
            std::max(p.queue_depth_max, backend_.queue_depth_max());
        ++p.depth_samples;
      }
    }
    p.wall_s = 1e-9 * static_cast<double>(now_ns() - start);
    p.u1 = usage();
    p.allocs = allocations() - p.allocs;
  }

  std::uint64_t submitted_queries() const { return submitted_; }
  std::uint64_t submitted_tasks() const { return submitted_tasks_; }

  /// Every submitted query resolved exactly once.
  bool resolved_exactly_once() const {
    std::uint64_t resolved = 0;
    for (auto c : seen_) {
      if (c > 1) return false;
      resolved += c;
    }
    return resolved == submitted_;
  }

 private:
  struct Pending {
    std::future<QueryResult> future;
    ClassId cls;
    std::uint32_t fanout;
    double submit_ns;
    std::size_t recorded;  ///< index in the recorder, or SIZE_MAX
  };

  void send(bool traced) {
    const ClassId cls = rng_.uniform() < 0.5 ? 0 : 1;
    const std::uint32_t fanout = rng_.uniform() < 0.5 ? 1 : 2;
    const std::size_t before = recorder_ ? recorder_->queries() : 0;
    const std::int64_t t0 = traced ? now_ns() : 0;
    std::future<QueryResult> f = backend_.submit(cls, fanout);
    const double submit_ns =
        traced ? static_cast<double>(now_ns() - t0) : 0.0;
    const bool placed = recorder_ && recorder_->queries() > before;
    window_.push_back({std::move(f), cls, fanout, submit_ns,
                       placed ? before : SIZE_MAX});
    ++submitted_;
    submitted_tasks_ += fanout;
  }

  QueryResult resolve(Pending& p) {
    const QueryResult r = p.future.get();
    if (r.id >= seen_.size()) seen_.resize(r.id + 1, 0);
    ++seen_[r.id];
    report_.attempt(!r.admitted            ? "query refused by admission"
                    : r.tasks_failed != 0  ? "query had failed tasks"
                    : r.cls != p.cls || r.fanout != p.fanout
                        ? "query resolved with another class or fanout"
                        : "");
    if (p.recorded != SIZE_MAX)
      recorder_->set_budget(p.recorded, r.deadline_budget_ms);
    return r;
  }

  Backend& backend_;
  Rng rng_;
  Report& report_;
  QueryRecorder* recorder_;
  std::deque<Pending> window_;
  std::vector<std::uint8_t> seen_;
  std::uint64_t submitted_ = 0, submitted_tasks_ = 0;
};

template <typename Make>
void run_serve(const char* backend_name, const RunArgs& args, Report& report,
               Make&& make, bool daemons) {
  const std::string prefix = backend_name;
  // Set-up: the whole stack is built kSetups times; the last one serves.
  // Set-up time is the CPU the build costs, all threads: its wall time is
  // mostly thread and handshake wake-ups, whose latency followed the host
  // (the loopback median moved 1.7x between two sets of ten runs).
  std::vector<double> setup;
  std::unique_ptr<Backend> backend;
  QueryRecorder recorder(1 << 16, 1 << 17);
  for (int i = 0; i < kSetups; ++i) {
    backend.reset();
    const double cpu0 = process_cpu_s();
    backend = make(args.trace ? &recorder : nullptr);
    setup.push_back(process_cpu_s() - cpu0);
  }
  LoadGen load(*backend, args.seed, report, args.trace ? &recorder : nullptr);

  // Warm-up: models, queues and connections settle before timing.
  auto warmup = std::make_unique<Phase>();
  load.run(std::min(1.0, 0.1 * args.seconds), false, *warmup);
  warmup.reset();
  // Untraced measurement; a traced run halves it and adds the traced half.
  const double measure_s = args.trace ? 0.5 * args.seconds : args.seconds;
  auto plain_phase = std::make_unique<Phase>();
  load.run(measure_s, false, *plain_phase);
  const Phase& plain = *plain_phase;
  auto traced_phase = std::make_unique<Phase>();
  if (args.trace) load.run(measure_s, true, *traced_phase);

  // Output checks: exactly-once resolution and task conservation. The
  // backends' counters may trail the last reply briefly, so poll them.
  const auto settled = [](auto read, std::uint64_t want) {
    std::uint64_t got = read();
    for (int i = 0; i < 100 && got != want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      got = read();
    }
    return got;
  };
  report.check(load.resolved_exactly_once(),
               prefix + ": every submitted query resolved exactly once");
  const std::uint64_t completed = settled(
      [&] { return backend->completed_queries(); }, load.submitted_queries());
  report.check(completed == load.submitted_queries(),
               prefix + ": backend completed every submitted query");
  if (daemons) {
    const std::uint64_t executed =
        settled([&] { return backend->tasks_executed(); },
                load.submitted_tasks());
    report.check(executed == load.submitted_tasks(),
                 prefix + ": daemons executed every submitted task (" +
                     std::to_string(executed) + " of " +
                     std::to_string(load.submitted_tasks()) + ")");
    report.failures(backend->failed_tasks(),
                    "dispatcher reported failed tasks");
  }

  const auto per_task = [](double x, const Phase& p) {
    return p.tasks > 0 ? x / static_cast<double>(p.tasks) : 0.0;
  };
  const auto per_query = [](double x, const Phase& p) {
    return p.queries > 0 ? x / static_cast<double>(p.queries) : 0.0;
  };
  const double cpu_s = plain.cpu_s();
  std::vector<double> lat;
  for (const auto& s : plain.samples.kept()) lat.push_back(s.latency_ms);
  report.e2e("setup_s", median(setup), "s");
  report.e2e("cpu_per_task_rel", plain.cpu_per_task_rel(), "uref");
  report.info("cpu_us_per_task", 1e6 * per_task(cpu_s, plain), "us",
              "process CPU, not normalized");
  report.info(prefix + ".qps",
              static_cast<double>(plain.queries) / plain.wall_s, "1/s",
              "offered " +
                  std::to_string(static_cast<int>(kQueriesPerSecond)) +
                         " q/s; " + std::to_string(plain.late_sends) +
                         " sends more than one period late");
  report.info(prefix + ".p50_ms", median(lat), "ms",
              std::to_string(lat.size()) + " of " +
                  std::to_string(plain.queries) + " queries sampled");
  report.info(prefix + ".cpu_us_per_query", 1e6 * per_query(cpu_s, plain), "us",
              "getrusage, all threads");
  if (!args.trace) return;

  // --- per-layer metrics of the traced half --------------------------------
  const Phase& t = *traced_phase;
  const double t_cpu_s = t.cpu_s();
  std::vector<double> t_lat, post, front;
  std::vector<std::vector<double>> groups(kClasses.size() * 2);
  for (const auto& s : t.samples.kept()) {
    t_lat.push_back(s.latency_ms);
    post.push_back(s.latency_ms - 1e-6 * s.submit_ns);
    front.push_back(s.submit_ns);
    groups[s.cls * 2 + (s.fanout - 1)].push_back(s.latency_ms);
  }
  double worst = 0.0;
  std::size_t worst_n = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) continue;
    const double r = quantile(groups[g], 0.99) / kClasses[g / 2].slo_ms;
    if (r > worst) {
      worst = r;
      worst_n = groups[g].size();
    }
  }
  const std::string wire_moves =
      daemons ? "cpu_per_task_rel" : "none here (no network)";
  report.layer("trace.overhead",
               t.cpu_per_task_rel() / plain.cpu_per_task_rel() - 1.0, "share",
               t.queries, "traced / untraced cpu_per_task_rel - 1",
               "(tracing cost, not a layer)");
  report.layer("path.front_ns", per_query(t.front_ns, t), "ns", t.queries,
               "per query, inside submit() (" + prefix +
                                     ".submit_us)",
               "cpu_per_task_rel, " + prefix + ".p50_ms");
  report.layer(prefix + ".submit_us", 1e-3 * median(front), "us",
               front.size(), "median per sampled query", "cpu_per_task_rel",
               false);
  report.layer("path.back_ns_per_task", per_task(t.back_ns, t), "ns", t.tasks,
               "per task, latency - submit time", prefix + ".p50_ms");
  report.layer(prefix + ".post_submit_us", 1e3 * median(post), "us",
               post.size(), "median per sampled query, latency - submit",
               prefix + ".p50_ms", false);
  report.layer("path.allocs_per_task",
               per_task(static_cast<double>(t.allocs), t),
               "count", t.tasks, "heap allocations per task, all threads",
               "cpu_per_task_rel");
  report.layer("path.vcsw_per_task",
               per_task(static_cast<double>(t.u1.vcsw - t.u0.vcsw), t),
               "count", t.tasks, "voluntary context switches per task",
               "cpu_per_task_rel");
  report.layer("path.ivcsw_per_task",
               per_task(static_cast<double>(t.u1.ivcsw - t.u0.ivcsw), t),
               "count", t.tasks, "involuntary context switches per task",
               prefix + ".p50_ms");
  report.layer("path.qps", static_cast<double>(t.queries) / t.wall_s, "1/s",
               t.queries,
               "queries per wall second, " + std::to_string(kOutstanding) +
                   " outstanding",
               "(the offered rate, when the loop keeps up)");
  report.layer("lat.p99_over_slo", worst, "ratio", worst_n,
               "wall p99 / SLO, worst (class, fanout) group",
               prefix + ".p50_ms");
  report.layer(prefix + ".p99_ms", quantile(t_lat, 0.99), "ms", t_lat.size(),
               "sampled queries (>= 10 beyond it from 1000)",
               prefix + ".p50_ms", false);
  report.layer(prefix + ".p999_ms", quantile(t_lat, 0.999), "ms",
               t_lat.size(), "sampled queries (>= 10 beyond it from 10000)",
               prefix + ".p50_ms", false);
  const double tasks_per_ms = static_cast<double>(t.tasks) / (1e3 * t.wall_s);
  const double depth =
      t.f1_queries > 0 ? tasks_per_ms / kServers *
                             (t.f1_post_ms / static_cast<double>(t.f1_queries))
                       : 0.0;
  report.layer("queue.mean_depth", depth, "tasks", t.f1_queries,
               "Little's law on fanout-1 post-submit latency",
               "edf.push_ns, edf.pop_ns");
  if (daemons)
    report.layer("daemon.queue_depth_max",
                 static_cast<double>(t.queue_depth_max), "tasks",
                 t.depth_samples, "max of queue_depth() samples",
                 "tcp.p50_ms", false);
  report.layer("deadline.miss_share", backend->deadline_miss_ratio(), "share",
               load.submitted_tasks(), "tasks dequeued after t_D",
               "(scheduling outcome)");
  const PlacementStats ps = backend->placement_stats();
  report.layer("place.decisions_per_query",
               static_cast<double>(ps.decisions) /
                   static_cast<double>(load.submitted_queries()),
               "count", ps.decisions, "place() calls per query",
               "cpu_per_task_rel");
  report.layer("admit.reject_share", 0.0, "share", load.submitted_queries(),
               "queries refused (no admission configured)",
               "none here (no admission)");
  report.layer("cpu.util",
               t_cpu_s / (t.wall_s * static_cast<double>(
                                         std::thread::hardware_concurrency())),
               "share", t.queries,
               "CPU s / (wall s x " +
                   std::to_string(std::thread::hardware_concurrency()) +
                   " cores)",
               "cpu_per_task_rel");

  LayerInputs in;
  in.classes = kClasses;
  auto model = std::make_shared<StreamingCdfModel>();
  model->seed(masstree_profile(args.seed));
  in.models.assign(kServers, nullptr);
  for (auto& m : in.models) m = model->clone();
  in.queries = &recorder;
  in.service = make_service_time_model(TailbenchApp::kMasstree);
  in.queue_depth = depth;
  in.tasks_per_ms = tasks_per_ms;
  in.miss_share = backend->deadline_miss_ratio();
  in.moves = {{"admit.ns", "none here (no admission)"},
              {"dist.sample_ns", "none here (zero service time)"},
              {"wire.codec_ns_per_task", wire_moves},
              {"wire.bytes_per_task", wire_moves}};
  drive_layers(in, 0.15, report);
}

}  // namespace

void run_serve_inproc(const RunArgs& args, Report& report) {
  run_serve(
      "inproc", args, report,
      [&](QueryRecorder* rec) -> std::unique_ptr<Backend> {
        return std::make_unique<InprocBackend>(args.seed, rec);
      },
      false);
}

void run_serve_loopback(const RunArgs& args, Report& report) {
  run_serve(
      "tcp", args, report,
      [&](QueryRecorder* rec) -> std::unique_ptr<Backend> {
        return std::make_unique<LoopbackBackend>(args.seed, rec);
      },
      true);
}

}  // namespace perfbench
