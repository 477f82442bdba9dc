#include "core/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ea/permutation.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"

namespace rfsm {

LocalSearchPlan planTwoOpt(const MigrationContext& context,
                           const std::vector<int>& seed,
                           const DecodeOptions& options,
                           int maxEvaluations) {
  metrics::ScopedTimer timing(metrics::timer("planner.2opt"));
  const int n = loopDeltaCount(context, options.tempInput);
  std::vector<int> order = seed;
  if (order.empty()) {
    order.resize(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
  }
  RFSM_CHECK(static_cast<int>(order.size()) == n,
             "2-opt seed must cover all loop deltas");
  RFSM_CHECK(isPermutation(order), "2-opt seed must be a permutation");

  OrderScorer scorer(context, options);
  LocalSearchPlan plan;
  int bestLength = scorer.length(order);
  ++plan.evaluations;

  bool improved = true;
  while (improved && plan.evaluations < maxEvaluations) {
    improved = false;
    for (std::size_t i = 0;
         i + 1 < order.size() && !improved && plan.evaluations < maxEvaluations;
         ++i) {
      for (std::size_t j = i + 1;
           j < order.size() && !improved && plan.evaluations < maxEvaluations;
           ++j) {
        std::reverse(order.begin() + static_cast<std::ptrdiff_t>(i),
                     order.begin() + static_cast<std::ptrdiff_t>(j) + 1);
        const int candidateLength = scorer.length(order);
        ++plan.evaluations;
        if (candidateLength < bestLength) {
          bestLength = candidateLength;
          ++plan.improvements;
          improved = true;  // first improvement: restart scan
        } else {
          std::reverse(order.begin() + static_cast<std::ptrdiff_t>(i),
                       order.begin() + static_cast<std::ptrdiff_t>(j) + 1);
        }
        if (plan.evaluations >= maxEvaluations) break;
      }
    }
  }
  // `order` is the best order found: every non-improving move was undone.
  plan.program = scorer.decode(order);
  return plan;
}

LocalSearchPlan planAnnealing(const MigrationContext& context,
                              const AnnealingConfig& config, Rng& rng,
                              const DecodeOptions& options) {
  metrics::ScopedTimer timing(metrics::timer("planner.anneal"));
  const int n = loopDeltaCount(context, options.tempInput);
  OrderScorer scorer(context, options);
  LocalSearchPlan plan;
  std::vector<int> current = randomPermutation(n, rng);
  int currentLength = scorer.length(current);
  ++plan.evaluations;
  std::vector<int> best = current;
  int bestLength = currentLength;

  double temperature = config.initialTemperature;
  for (int move = 0; move < config.moves && n >= 2; ++move) {
    std::vector<int> candidate = current;
    swapMutation(candidate, rng);
    const int candidateLength = scorer.length(candidate);
    ++plan.evaluations;
    const int delta = candidateLength - currentLength;
    if (delta <= 0 ||
        rng.uniform() < std::exp(-static_cast<double>(delta) / temperature)) {
      current = std::move(candidate);
      currentLength = candidateLength;
      if (currentLength < bestLength) {
        bestLength = currentLength;
        best = current;
        ++plan.improvements;
      }
    }
    temperature *= config.coolingRate;
  }
  plan.program = scorer.decode(best);
  ++plan.evaluations;
  return plan;
}

}  // namespace rfsm
