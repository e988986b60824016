// A backend hard-wiring a placement strategy. Linted under src/sim/,
// src/runtime/, src/net/, src/sas/ or src/shard/ — the sharding facade
// included — every placement token below must fire control-plane-boundary:
// placement is pluggable behind QueryControlPlane::place(), selected via
// PlacementPolicyOptions, and naming the raw picker or a concrete policy
// class pins one strategy into this backend. The same bytes are legal in
// core (which owns the policies), tests and tools.
#include "core/placement.h"
#include "core/placement/policy.h"

namespace tailguard {

struct HardwiredBackend {
  LeastLoadedPolicy fallback;
  PowerOfDPolicy sampler{2};
  SlackTailRiskPolicy ranker;
};

std::vector<ServerId> place_direct(std::vector<PlacementCandidate> cand,
                                   Rng& rng) {
  return pick_least_loaded(std::move(cand), 2, rng);
}

}  // namespace tailguard
