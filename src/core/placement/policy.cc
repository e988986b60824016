#include "core/placement/policy.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "core/placement/slack_tracker.h"

namespace tailguard {

const char* placement_kind_name(PlacementPolicyKind kind) {
  switch (kind) {
    case PlacementPolicyKind::kLeastLoaded:
      return "least_loaded";
    case PlacementPolicyKind::kPowerOfD:
      return "pow_d";
    case PlacementPolicyKind::kTailRisk:
      return "tail_risk";
  }
  return "unknown";
}

PlacementPolicyOptions placement_from_env() {
  PlacementPolicyOptions opts;
  // tg-lint: allow(env-read) until callers pass PlacementPolicyOptions
  if (const char* env = std::getenv("TAILGUARD_PLACEMENT")) {
    if (std::strcmp(env, "least_loaded") == 0) {
      opts.kind = PlacementPolicyKind::kLeastLoaded;
    } else if (std::strcmp(env, "pow_d") == 0) {
      opts.kind = PlacementPolicyKind::kPowerOfD;
    } else if (std::strcmp(env, "tail_risk") == 0) {
      opts.kind = PlacementPolicyKind::kTailRisk;
    } else {
      TG_CHECK_MSG(false, "TAILGUARD_PLACEMENT must be 'least_loaded', "
                          "'pow_d' or 'tail_risk', got '"
                              << env << "'");
    }
  }
  // tg-lint: allow(env-read) until callers pass PlacementPolicyOptions
  if (const char* env = std::getenv("TAILGUARD_PLACEMENT_D")) {
    char* end = nullptr;
    const long d = std::strtol(env, &end, 10);
    TG_CHECK_MSG(end != env && *end == '\0' && d >= 1,
                 "TAILGUARD_PLACEMENT_D must be a positive integer, got '"
                     << env << "'");
    opts.power_d = static_cast<std::size_t>(d);
  }
  return opts;
}

// --- least_loaded ----------------------------------------------------------

std::size_t LeastLoadedPolicy::place(std::vector<PlacementCandidate>& candidates,
                                     std::size_t count,
                                     const PlacementContext& /*ctx*/, Rng& rng,
                                     std::vector<ServerId>& out) {
  const std::size_t examined = count == 0 ? 0 : candidates.size();
  out = pick_least_loaded(std::move(candidates), count, rng);
  return examined;
}

// --- pow_d -----------------------------------------------------------------

PowerOfDPolicy::PowerOfDPolicy(std::size_t d) : d_(d) {
  TG_CHECK_MSG(d_ >= 1, "power-of-d needs d >= 1");
}

std::size_t PowerOfDPolicy::place(std::vector<PlacementCandidate>& candidates,
                                  std::size_t count,
                                  const PlacementContext& /*ctx*/, Rng& rng,
                                  std::vector<ServerId>& out) {
  out.clear();
  if (count == 0) return 0;
  TG_CHECK_MSG(!candidates.empty(), "placement needs at least one candidate");
  out.reserve(count);
  avail_.clear();
  std::size_t examined = 0;
  for (std::size_t pick = 0; pick < count; ++pick) {
    // Distinct while possible: once every candidate has been picked once,
    // refill and go around again (count > n reuse, as in pick_least_loaded).
    if (avail_.empty()) {
      avail_.resize(candidates.size());
      std::iota(avail_.begin(), avail_.end(), std::size_t{0});
    }
    // Sample d distinct candidates via a partial Fisher–Yates over the
    // still-unpicked indices; keep the least loaded (first-sampled wins
    // ties, and sampling order is random, so ties break uniformly).
    const std::size_t d_eff = std::min(d_, avail_.size());
    std::size_t best = 0;
    for (std::size_t j = 0; j < d_eff; ++j) {
      const std::size_t swap_with =
          j + static_cast<std::size_t>(rng.uniform_index(avail_.size() - j));
      std::swap(avail_[j], avail_[swap_with]);
      if (candidates[avail_[j]].first < candidates[avail_[best]].first)
        best = j;
    }
    examined += d_eff;
    out.push_back(candidates[avail_[best]].second);
    avail_[best] = avail_.back();
    avail_.pop_back();
  }
  return examined;
}

// --- tail_risk -------------------------------------------------------------

double SlackTailRiskPolicy::risk_of(std::size_t load, ServerId server,
                                    const PlacementContext& ctx) {
  TG_CHECK_MSG(ctx.slack != nullptr, "tail-risk placement needs a SlackTracker");
  const SlackTracker& tracker = *ctx.slack;
  const double n = static_cast<double>(load);
  if (tracker.slack_observations(server) == 0) {
    // Cold server: no slack data yet. Rank by raw load inside the
    // partial-data band — worse than any informed feasible server, better
    // than one whose urgent backlog already exceeds the budget.
    return 1.0 + n / (n + 1.0);
  }
  // Fraction of this server's queue that must drain before our own task's
  // deadline: tasks whose remaining slack is at most our budget run first
  // under (TF-)EDF ordering, so they are the work "ahead of" the new task.
  const double urgent = tracker.slack_cdf(server, ctx.budget_hint_ms);
  const double ahead = n * urgent;
  const double mean_service_ms = tracker.mean_service_ms(server);
  if (mean_service_ms <= 0.0) {
    // Slack data but no service observations yet: rank by expected urgent
    // backlog, same partial-data band as cold servers.
    return 1.0 + ahead / (ahead + 1.0);
  }
  const double room_ms = ctx.budget_hint_ms - ahead * mean_service_ms;
  if (room_ms <= 0.0) {
    // The urgent backlog alone exceeds the budget — a miss in expectation.
    // Rank overloaded servers by how far past the budget they are.
    return 2.0 - room_ms;
  }
  // P(own post-queuing time exceeds the remaining room) from the server's
  // observed service distribution.
  return 1.0 - tracker.service_cdf(server, room_ms);
}

std::size_t SlackTailRiskPolicy::place(
    std::vector<PlacementCandidate>& candidates, std::size_t count,
    const PlacementContext& ctx, Rng& rng, std::vector<ServerId>& out) {
  out.clear();
  if (count == 0) return 0;
  TG_CHECK_MSG(!candidates.empty(), "placement needs at least one candidate");
  scored_.clear();
  scored_.reserve(candidates.size());
  for (const auto& [load, server] : candidates)
    scored_.push_back({risk_of(load, server, ctx),
                       rng.uniform_index(candidates.size()), server});
  std::sort(scored_.begin(), scored_.end(),
            [](const Scored& a, const Scored& b) {
              if (a.risk != b.risk) return a.risk < b.risk;
              if (a.tie_break != b.tie_break) return a.tie_break < b.tie_break;
              return a.server < b.server;
            });
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(scored_[i % scored_.size()].server);
  return candidates.size();
}

std::unique_ptr<PlacementPolicy> make_placement_policy(
    const PlacementPolicyOptions& options) {
  switch (options.kind) {
    case PlacementPolicyKind::kLeastLoaded:
      return std::make_unique<LeastLoadedPolicy>();
    case PlacementPolicyKind::kPowerOfD:
      return std::make_unique<PowerOfDPolicy>(options.power_d);
    case PlacementPolicyKind::kTailRisk:
      return std::make_unique<SlackTailRiskPolicy>();
  }
  TG_CHECK_MSG(false, "unknown placement policy kind");
  return nullptr;
}

}  // namespace tailguard
