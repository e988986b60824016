// Pluggable distinct-server placement policies.
//
// The Fig. 2 query handler fans each admitted query out to kf *distinct*
// task servers; which kf is a policy decision, not pipeline structure. This
// subsystem turns the former hardcoded least-loaded pick (core/placement.h)
// into an interface with three implementations:
//
//   least_loaded  — bit-identical wrapper around pick_least_loaded; the
//                   default, and the paper's behaviour.
//   pow_d         — power-of-d-choices: per replica, sample d candidates
//                   uniformly (without replacement) and take the least
//                   loaded. The sampling is O(d·kf), but place() still
//                   fills an n-entry index vector per call, and callers
//                   build an n-entry candidate vector per query, so a
//                   decision costs O(n + d·kf). All draws come from the
//                   caller's Rng, so runs are deterministic for a fixed
//                   seed at any thread count.
//   tail_risk     — Malcolm-Strict's counter to least-loaded: minimising
//                   load variance optimises the mean, not the p99. Scores
//                   each candidate by the estimated probability it blows the
//                   task's budget T_b, using per-server slack histograms
//                   (queued tasks' t_D − now) and service-time histograms
//                   from the SlackTracker, and picks the kf lowest-risk
//                   servers.
//
// Backends never name these classes: they call the control-plane facade's
// place(), and selection is configuration (PlacementPolicyOptions, or the
// TAILGUARD_PLACEMENT / TAILGUARD_PLACEMENT_D environment knobs). The
// tg_lint `control-plane-boundary` rule enforces that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/streaming_histogram.h"
#include "core/placement.h"
#include "core/types.h"

namespace tailguard {

class SlackTracker;

enum class PlacementPolicyKind { kLeastLoaded, kPowerOfD, kTailRisk };

/// Stable lowercase name, matching the TAILGUARD_PLACEMENT spelling
/// ("least_loaded" | "pow_d" | "tail_risk").
const char* placement_kind_name(PlacementPolicyKind kind);

struct PlacementPolicyOptions {
  PlacementPolicyKind kind = PlacementPolicyKind::kLeastLoaded;
  /// pow_d: candidates sampled per replica pick (d >= 1; d >= n degenerates
  /// to a global least-loaded scan).
  std::size_t power_d = 2;
  /// tail_risk: geometry/decay of the per-server slack and service
  /// histograms. The default decays every 4096 observations so a server
  /// that drained its urgent backlog stops looking risky.
  StreamingHistogramOptions slack_histogram{.min_value = 1e-3,
                                            .max_value = 1e6,
                                            .buckets_per_decade = 100,
                                            .decay_every = 4096,
                                            .decay_factor = 0.5};
};

/// Environment fallback for backend placement configuration, mirroring the
/// TAILGUARD_SHARDS pattern: TAILGUARD_PLACEMENT selects the policy kind
/// (least_loaded | pow_d | tail_risk; unset = least_loaded) and
/// TAILGUARD_PLACEMENT_D overrides the pow_d sample width. Invalid values
/// abort rather than silently running the wrong experiment.
PlacementPolicyOptions placement_from_env();

/// Per-decision inputs beyond the candidate list itself.
struct PlacementContext {
  TimeMs now_ms = 0.0;
  /// The task's deadline budget T_b (Eq. 6) over a representative server
  /// set; only tail_risk consumes it. 0 when the caller has no estimate.
  TimeMs budget_hint_ms = 0.0;
  /// Slack/service histograms; non-null only under tail_risk.
  const SlackTracker* slack = nullptr;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual PlacementPolicyKind kind() const = 0;

  /// Fills `out` with `count` servers drawn from `candidates` (load, server)
  /// pairs — distinct while count <= candidates.size(), round-robin reuse
  /// beyond that, matching pick_least_loaded's contract. `candidates` is
  /// caller-owned scratch the policy may reorder or consume. All randomness
  /// comes from `rng`. Returns the number of candidates the policy examined
  /// (observability: pow_d looks at d per pick, the others at all n).
  /// Precondition: !candidates.empty() when count > 0.
  virtual std::size_t place(std::vector<PlacementCandidate>& candidates,
                            std::size_t count, const PlacementContext& ctx,
                            Rng& rng, std::vector<ServerId>& out) = 0;
};

/// The default: exactly pick_least_loaded (same comparisons, same Rng
/// draws), so selecting least_loaded through the policy layer is
/// bit-identical to the pre-refactor free-function call sites.
class LeastLoadedPolicy final : public PlacementPolicy {
 public:
  PlacementPolicyKind kind() const override {
    return PlacementPolicyKind::kLeastLoaded;
  }
  std::size_t place(std::vector<PlacementCandidate>& candidates,
                    std::size_t count, const PlacementContext& ctx, Rng& rng,
                    std::vector<ServerId>& out) override;
};

class PowerOfDPolicy final : public PlacementPolicy {
 public:
  explicit PowerOfDPolicy(std::size_t d);

  PlacementPolicyKind kind() const override {
    return PlacementPolicyKind::kPowerOfD;
  }
  std::size_t place(std::vector<PlacementCandidate>& candidates,
                    std::size_t count, const PlacementContext& ctx, Rng& rng,
                    std::vector<ServerId>& out) override;

 private:
  std::size_t d_;
  std::vector<std::size_t> avail_;  // scratch: candidate indices still unpicked
};

class SlackTailRiskPolicy final : public PlacementPolicy {
 public:
  PlacementPolicyKind kind() const override {
    return PlacementPolicyKind::kTailRisk;
  }
  std::size_t place(std::vector<PlacementCandidate>& candidates,
                    std::size_t count, const PlacementContext& ctx, Rng& rng,
                    std::vector<ServerId>& out) override;

  /// Risk score for one candidate (exposed for unit tests): lower is safer.
  /// Bands: [0,1) = estimated P(miss) with full slack+service data;
  /// [1,2) = partial data, ranked by expected urgent backlog; [2,∞) = the
  /// urgent backlog alone already exceeds the budget.
  static double risk_of(std::size_t load, ServerId server,
                        const PlacementContext& ctx);

 private:
  struct Scored {
    double risk;
    std::uint64_t tie_break;
    ServerId server;
  };
  std::vector<Scored> scored_;  // scratch
};

std::unique_ptr<PlacementPolicy> make_placement_policy(
    const PlacementPolicyOptions& options);

}  // namespace tailguard
