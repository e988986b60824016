#include "layers.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/rng.h"
#include "core/control_plane.h"
#include "core/policy.h"
#include "net/wire.h"

namespace perfbench {

using namespace tailguard;

QueryRecorder::QueryRecorder(std::size_t max_queries, std::size_t max_servers)
    : max_queries_(max_queries), max_servers_(max_servers) {
  cls_.reserve(max_queries);
  begin_.reserve(max_queries + 1);
  begin_.push_back(0);
  servers_.reserve(max_servers);
  budget_.reserve(max_queries);
}

void QueryRecorder::placed(ClassId cls, std::span<const ServerId> servers) {
  if (cls_.size() == max_queries_ ||
      servers_.size() + servers.size() > max_servers_)
    return;
  cls_.push_back(cls);
  servers_.insert(servers_.end(), servers.begin(), servers.end());
  begin_.push_back(static_cast<std::uint32_t>(servers_.size()));
  budget_.push_back(0.0);
}

void QueryRecorder::planned(double budget_ms) {
  if (!budget_.empty()) budget_.back() = budget_ms;
}

void QueryRecorder::set_budget(std::size_t i, double budget_ms) {
  if (i < budget_.size()) budget_[i] = budget_ms;
}

std::span<const ServerId> QueryRecorder::servers(std::size_t i) const {
  return std::span<const ServerId>(servers_.data() + begin_[i],
                                   begin_[i + 1] - begin_[i]);
}

namespace {

// Keeps results observable so the optimizer cannot drop the timed calls.
volatile double g_sink = 0.0;

struct Timing {
  double ns_per_call = 0.0;
  std::uint64_t calls = 0;
};

/// Times `batch(i)` (which makes `per_batch` calls starting at call index
/// i) until `seconds` of timed work has accumulated; `prepare(i)` runs
/// untimed before each batch.
template <typename Prepare, typename Batch>
Timing time_batches(double seconds, std::size_t per_batch, Prepare&& prepare,
                    Batch&& batch) {
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t spent = 0;
  std::uint64_t calls = 0;
  while (spent < budget || calls == 0) {
    prepare(calls);
    const std::int64_t t0 = now_ns();
    batch(calls);
    spent += now_ns() - t0;
    calls += per_batch;
  }
  return {static_cast<double>(spent) / static_cast<double>(calls), calls};
}

template <typename Batch>
Timing time_batches(double seconds, std::size_t per_batch, Batch&& batch) {
  return time_batches(seconds, per_batch, [](std::uint64_t) {}, batch);
}

ControlPlaneOptions plane_options(const LayerInputs& in) {
  ControlPlaneOptions opt;
  opt.policy = in.policy;
  opt.classes = in.classes;
  opt.placement = in.placement;
  opt.seed = 7;
  return opt;
}

}  // namespace

void drive_layers(const LayerInputs& in, double seconds_each, Report& report) {
  const QueryRecorder& q = *in.queries;
  const std::size_t nq = q.queries();
  const std::size_t n_servers = in.models.size();
  const auto moves = [&](const std::string& metric) {
    const auto it = in.moves.find(metric);
    return it != in.moves.end() ? it->second : std::string("cpu_per_task_rel");
  };
  report.check(nq > 0, "layer drives: the run recorded at least one query");
  if (nq == 0) return;

  // core.deadline / core.order_stats: the Eq. 6 budget over the recorded
  // (class, servers) stream.
  {
    QueryControlPlane plane(plane_options(in), in.models);
    double sum = 0.0;
    const Timing t = time_batches(seconds_each, 256, [&](std::uint64_t i0) {
      for (std::uint64_t i = i0; i < i0 + 256; ++i) {
        const std::size_t k = i % nq;
        sum += plane.budget(q.cls(k), q.servers(k));
      }
    });
    g_sink = sum;
    report.layer("budget.ns", t.ns_per_call, "ns", t.calls,
                 "per QueryControlPlane::budget call", moves("budget.ns"));
  }

  // core.placement: place() over the workload's candidate count, at loads
  // drawn around the workload's mean queue depth.
  {
    QueryControlPlane plane(plane_options(in), in.models);
    Rng rng(11);
    const auto max_load = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(2.0 * in.queue_depth)));
    std::vector<PlacementCandidate> base(n_servers);
    for (std::size_t s = 0; s < n_servers; ++s)
      base[s] = {static_cast<std::size_t>(rng() % (max_load + 1)),
                 static_cast<ServerId>(s)};
    const std::size_t per_batch =
        std::clamp<std::size_t>((std::size_t{1} << 20) / n_servers, 1, 256);
    std::vector<std::vector<PlacementCandidate>> batch(per_batch);
    std::size_t picked = 0;
    const Timing t = time_batches(
        seconds_each, per_batch,
        [&](std::uint64_t) {
          for (auto& c : batch) c = base;
        },
        [&](std::uint64_t i0) {
          for (std::size_t b = 0; b < per_batch; ++b) {
            const std::size_t k = (i0 + b) % nq;
            picked += plane
                          .place(std::move(batch[b]), q.servers(k).size(),
                                 q.cls(k), static_cast<double>(i0 + b))
                          .size();
          }
        });
    g_sink = static_cast<double>(picked);
    report.layer("place.ns", t.ns_per_call, "ns", t.calls,
                 "per place() over " + std::to_string(n_servers) +
                     " candidates",
                 moves("place.ns"));
  }

  // core.policy: the EDF queue held near the workload's mean depth.
  {
    auto queue = make_task_queue(in.policy, in.classes.size());
    const auto depth = static_cast<std::size_t>(
        std::max(1.0, std::round(in.queue_depth)));
    constexpr std::size_t kBatch = 16;
    const double gap_ms = 1.0 / std::max(in.tasks_per_ms, 1e-9);
    double now = 0.0;
    TaskId next = 0;
    const auto make_task = [&] {
      QueuedTask task;
      const std::size_t k = next % nq;
      task.task = next++;
      task.query = k;
      task.cls = q.cls(k);
      task.enqueue_time = now;
      task.deadline = now + q.budget(k);
      now += gap_ms;
      return task;
    };
    for (std::size_t i = 0; i < depth; ++i) queue->push(make_task());
    std::vector<QueuedTask> staged(kBatch);
    std::int64_t push_ns = 0, pop_ns = 0;
    std::uint64_t rounds = 0;
    double sum = 0.0;
    const auto budget = static_cast<std::int64_t>(2 * seconds_each * 1e9);
    while (push_ns + pop_ns < budget || rounds == 0) {
      for (auto& t : staged) t = make_task();
      const std::int64_t t0 = now_ns();
      for (const auto& t : staged) queue->push(t);
      const std::int64_t t1 = now_ns();
      for (std::size_t i = 0; i < kBatch; ++i) sum += queue->pop().deadline;
      const std::int64_t t2 = now_ns();
      push_ns += t1 - t0;
      pop_ns += t2 - t1;
      ++rounds;
    }
    g_sink = sum;
    const std::uint64_t ops = rounds * kBatch;
    const std::string base = "per op at depth " + std::to_string(depth) +
                             ".." + std::to_string(depth + kBatch);
    report.layer("edf.push_ns",
                 static_cast<double>(push_ns) / static_cast<double>(ops), "ns",
                 ops, base, moves("edf.push_ns"));
    report.layer("edf.pop_ns",
                 static_cast<double>(pop_ns) / static_cast<double>(ops), "ns",
                 ops, base, moves("edf.pop_ns"));
  }

  // core.admission: one dequeue record plus one admit decision, on a
  // stream with the workload's task rate and miss share.
  {
    ControlPlaneOptions opt = plane_options(in);
    opt.admission = AdmissionOptions{};
    QueryControlPlane plane(std::move(opt), in.models);
    Rng rng(13);
    constexpr std::size_t kCoins = 4096;
    std::vector<double> coin(kCoins);
    std::vector<char> missed(kCoins);
    for (std::size_t i = 0; i < kCoins; ++i) {
      coin[i] = rng.uniform();
      missed[i] = rng.uniform() < in.miss_share ? 1 : 0;
    }
    const double gap_ms = 1.0 / std::max(in.tasks_per_ms, 1e-9);
    std::uint64_t admitted = 0;
    const Timing t = time_batches(seconds_each, 256, [&](std::uint64_t i0) {
      for (std::uint64_t i = i0; i < i0 + 256; ++i) {
        const double now = static_cast<double>(i) * gap_ms;
        const std::size_t c = i % kCoins;
        plane.record_task_dequeue(now, q.cls(i % nq), missed[c] != 0);
        admitted += plane.should_admit(now, coin[c]) ? 1 : 0;
      }
    });
    g_sink = static_cast<double>(admitted);
    report.layer("admit.ns", t.ns_per_call, "ns", t.calls,
                 "per dequeue record + admit decision", moves("admit.ns"));
  }

  // dist: one service-time draw from the workload's law.
  {
    Rng rng(17);
    double sum = 0.0;
    const Timing t = time_batches(seconds_each, 1024, [&](std::uint64_t) {
      for (int i = 0; i < 1024; ++i) sum += in.service->sample(rng);
    });
    g_sink = sum;
    report.layer("dist.sample_ns", t.ns_per_call, "ns", t.calls,
                 "per Distribution::sample", moves("dist.sample_ns"));
  }

  // net.wire: encode one SubmitTask and one TaskDone, frame them, decode
  // both, for every task of the recorded stream.
  {
    std::vector<std::pair<net::SubmitTaskMsg, net::TaskDoneMsg>> msgs;
    Rng rng(19);
    for (std::size_t k = 0; k < nq && msgs.size() < 65536; ++k) {
      for (std::size_t j = 0; j < q.servers(k).size(); ++j) {
        const TaskId id = msgs.size();
        const double service = in.service->sample(rng);
        msgs.push_back(
            {net::SubmitTaskMsg{.task = id,
                                .query = k,
                                .cls = q.cls(k),
                                .relative_deadline_ms = q.budget(k),
                                .simulated_service_ms = service},
             net::TaskDoneMsg{.task = id,
                              .query = k,
                              .queue_ms = q.budget(k) * rng.uniform(),
                              .service_ms = service,
                              .missed_deadline = rng.uniform() < 0.01}});
      }
    }
    std::vector<std::uint8_t> bytes;
    net::FrameBuffer frames;
    std::uint64_t wire_bytes = 0, mismatches = 0;
    const Timing t = time_batches(seconds_each, 64, [&](std::uint64_t i0) {
      for (std::uint64_t i = i0; i < i0 + 64; ++i) {
        const auto& [submit, done] = msgs[i % msgs.size()];
        bytes.clear();
        net::encode_into(submit, bytes);
        net::encode_into(done, bytes);
        wire_bytes += bytes.size();
        frames.append(bytes.data(), bytes.size());
        net::SubmitTaskMsg submit_back;
        net::TaskDoneMsg done_back;
        const std::optional<net::Frame> f1 = frames.next();
        const std::optional<net::Frame> f2 = frames.next();
        if (!f1 || !f2 || !net::decode(*f1, &submit_back) ||
            !net::decode(*f2, &done_back) || !(submit_back == submit) ||
            !(done_back == done))
          ++mismatches;
      }
    });
    report.check(mismatches == 0,
                 "wire: every SubmitTask/TaskDone decodes to what was encoded");
    report.layer("wire.codec_ns_per_task", t.ns_per_call, "ns", t.calls,
                 "per task (SubmitTask + TaskDone round trip)",
                 moves("wire.codec_ns_per_task"));
    report.layer("wire.bytes_per_task",
                 static_cast<double>(wire_bytes) / static_cast<double>(t.calls),
                 "B", t.calls, "per task (both frames)",
                 moves("wire.bytes_per_task"));
  }
}

}  // namespace perfbench
