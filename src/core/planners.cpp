#include "core/planners.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/jsr.hpp"
#include "core/mutable_machine.hpp"
#include "ea/permutation.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfsm {
namespace {

constexpr int kInfinity = std::numeric_limits<int>::max() / 4;

}  // namespace

namespace detail {

/// Shared machinery of the order-decoding planners: tracks the machine
/// under reconfiguration, emits steps, connects to delta sources, and
/// repairs the temporary cell at the end.  rewind() returns a used decoder
/// to the state its constructor left it in, so one decoder can decode many
/// orders (OrderScorer).
class Decoder {
 public:
  Decoder(const MigrationContext& context, const DecodeOptions& options)
      : context_(context),
        options_(options),
        machine_(context),
        image_(machine_.checkpoint()) {
    machine_.setCancel(options.cancel);
    i0_ = options.tempInput == kNoSymbol ? context.liftTargetInput(0)
                                         : options.tempInput;
    RFSM_CHECK(context.inTargetInputs(i0_),
               "temporary input must be an input of M'");
    s0_ = context.targetReset();
    tempOutput_ = context.targetOutput(i0_, s0_);
    for (const Transition& td : context.deltaTransitions()) {
      if (td.input == i0_ && td.from == s0_) {
        tempCellIsDelta_ = true;
      } else {
        loopDeltas_.push_back(td);
      }
    }
    // Programs start with a reset transition: the machine may be anywhere
    // when reconfiguration begins (JSR line (3)).
    emit(ReconfigStep::reset());
  }

  /// Restores M's tables and starts a new program.  restore() bumps the
  /// table version, so no BFS tree of the previous decode is served; the
  /// table and step buffers keep their capacity.
  void rewind() {
    machine_.restore(image_);
    program_.steps.clear();
    tempDirty_ = false;
    emit(ReconfigStep::reset());
  }

  const std::vector<Transition>& loopDeltas() const { return loopDeltas_; }

  /// Cycles the next connect() to `td` would cost, without mutating.
  int connectionCost(const Transition& td) const {
    const SymbolId here = machine_.state();
    if (options_.rule == DecodeRule::kPaper) {
      if (here == td.from) return 0;
      if (machine_.edgeInput(here, td.from).has_value()) return 1;
      return here == s0_ ? 1 : 2;  // [reset +] temporary
    }
    return bestOfThreeCost(td).first;
  }

  /// Connects to td.from, then rewrites td while traversing it.
  void processDelta(const Transition& td) {
    connect(td);
    RFSM_CHECK(machine_.state() == td.from,
               "decoder failed to reach the delta source");
    emit(ReconfigStep::rewrite(td.input, td.to, td.output));
  }

  /// Repairs the temporary cell and terminates in S0'.
  void finish() {
    if (tempDirty_ || tempCellIsDelta_) {
      if (machine_.state() != s0_) emit(ReconfigStep::reset());
      emit(ReconfigStep::rewrite(i0_, context_.targetNext(i0_, s0_),
                                 context_.targetOutput(i0_, s0_)));
    }
    if (machine_.state() != s0_) emit(ReconfigStep::reset());
  }

  int length() const { return program_.length(); }
  ReconfigurationProgram takeProgram() { return std::move(program_); }

 private:
  enum class Connect { kWalk, kResetWalk, kTemporary };

  void emit(const ReconfigStep& step) {
    program_.steps.push_back(step);
    machine_.applyStep(step);
  }

  /// (cost, choice) of the cheapest kBestOfThree connection to td.from.
  /// Distances come from the machine's version-tagged BFS cache, so the
  /// greedy planner's O(n^2) cost scan re-walks nothing between rewrites.
  std::pair<int, Connect> bestOfThreeCost(const Transition& td) const {
    const SymbolId here = machine_.state();
    const int dHere =
        machine_.distancesFrom(here)[static_cast<std::size_t>(td.from)];
    const int costWalk = dHere < 0 ? kInfinity : dHere;

    const int dReset =
        machine_.distancesFrom(s0_)[static_cast<std::size_t>(td.from)];
    const int costResetWalk = dReset < 0 ? kInfinity : 1 + dReset;

    int costTemporary = (here == s0_) ? 1 : 2;
    if (!options_.allowTemporary &&
        (costWalk < kInfinity || costResetWalk < kInfinity))
      costTemporary = kInfinity;

    // Prefer non-mutating connections on ties.
    if (costWalk <= costResetWalk && costWalk <= costTemporary)
      return {costWalk, Connect::kWalk};
    if (costResetWalk <= costTemporary)
      return {costResetWalk, Connect::kResetWalk};
    return {costTemporary, Connect::kTemporary};
  }

  void emitWalk(SymbolId from, SymbolId to) {
    const auto inputs = machine_.pathInputs(from, to);
    RFSM_CHECK(inputs.has_value(), "walk target became unreachable");
    for (const SymbolId input : *inputs)
      emit(ReconfigStep::traverse(input));
  }

  void emitTemporary(SymbolId target) {
    if (machine_.state() != s0_) emit(ReconfigStep::reset());
    if (machine_.state() == target) return;  // the reset already arrived
    emit(ReconfigStep::rewrite(i0_, target, tempOutput_, /*temporary=*/true));
    tempDirty_ = true;
  }

  void connect(const Transition& td) {
    const SymbolId here = machine_.state();
    if (here == td.from) return;
    if (options_.rule == DecodeRule::kPaper) {
      // Paper Sec. 4.6: existing path of length <= 1, else reset+temporary.
      if (const auto input = machine_.edgeInput(here, td.from)) {
        emit(ReconfigStep::traverse(*input));
        return;
      }
      emitTemporary(td.from);
      return;
    }
    const auto [cost, choice] = bestOfThreeCost(td);
    switch (choice) {
      case Connect::kWalk:
        emitWalk(here, td.from);
        break;
      case Connect::kResetWalk:
        emit(ReconfigStep::reset());
        emitWalk(s0_, td.from);
        break;
      case Connect::kTemporary:
        emitTemporary(td.from);
        break;
    }
  }

  const MigrationContext& context_;
  DecodeOptions options_;
  MutableMachine machine_;
  const MutableMachine::TableImage image_;  // M's tables, for rewind()
  ReconfigurationProgram program_;
  std::vector<Transition> loopDeltas_;
  SymbolId i0_ = kNoSymbol;
  SymbolId s0_ = kNoSymbol;
  SymbolId tempOutput_ = kNoSymbol;
  bool tempDirty_ = false;
  bool tempCellIsDelta_ = false;
};

}  // namespace detail

namespace {

using detail::Decoder;

/// The one decode body, shared by decodeOrder (fresh decoder) and
/// OrderScorer (rewound decoder): per-call telemetry and cancellation, the
/// order checks, then every delta in order and the temp-cell repair.
/// `acquire` hands over the decoder inside the timed scope.
template <class Acquire>
auto runDecode(const std::vector<int>& order, const CancelToken* cancel,
               Acquire&& acquire) {
  static metrics::Counter& decodeCalls =
      metrics::counter(metrics::kDecodeCalls);
  static metrics::Histogram& decodeLatency =
      metrics::histogram(metrics::kDecodeLatency);
  decodeCalls.add();
  pollCancel(cancel, "planner.decode");
  metrics::ScopedLatency latency(decodeLatency);
  // The span's arg is formatted only while tracing records it.
  trace::ScopedSpan span =
      trace::enabled()
          ? trace::ScopedSpan("planner.decode", "planner",
                              {trace::Arg::num("deltas",
                                               static_cast<std::int64_t>(
                                                   order.size()))})
          : trace::ScopedSpan("planner.decode", "planner");
  auto decoder = acquire();
  const auto& deltas = decoder->loopDeltas();
  RFSM_CHECK(order.size() == deltas.size(),
             "order must be a permutation of the loop deltas");
  RFSM_CHECK(isPermutation(order), "order must be a permutation");
  for (const int index : order)
    decoder->processDelta(deltas[static_cast<std::size_t>(index)]);
  decoder->finish();
  return decoder;
}

}  // namespace

int loopDeltaCount(const MigrationContext& context, SymbolId tempInput) {
  const SymbolId i0 =
      tempInput == kNoSymbol ? context.liftTargetInput(0) : tempInput;
  const SymbolId s0 = context.targetReset();
  int n = 0;
  for (const Transition& td : context.deltaTransitions())
    if (!(td.input == i0 && td.from == s0)) ++n;
  return n;
}

ReconfigurationProgram decodeOrder(const MigrationContext& context,
                                   const std::vector<int>& order,
                                   const DecodeOptions& options) {
  return runDecode(order, options.cancel, [&] {
           return std::make_unique<Decoder>(context, options);
         })->takeProgram();
}

OrderScorer::OrderScorer(const MigrationContext& context,
                         const DecodeOptions& options)
    : context_(context), options_(options) {}

OrderScorer::~OrderScorer() = default;

std::unique_ptr<Decoder> OrderScorer::acquire() {
  std::unique_ptr<Decoder> decoder;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) return std::make_unique<Decoder>(context_, options_);
    decoder = std::move(free_.back());
    free_.pop_back();
  }
  decoder->rewind();  // before each use: a returned decoder is still dirty
  return decoder;
}

void OrderScorer::release(std::unique_ptr<Decoder> decoder) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(decoder));
}

int OrderScorer::length(const std::vector<int>& order) {
  // A throwing decode unwinds past release(): its decoder is dropped.
  std::unique_ptr<Decoder> decoder =
      runDecode(order, options_.cancel, [this] { return acquire(); });
  const int length = decoder->length();
  release(std::move(decoder));
  return length;
}

ReconfigurationProgram OrderScorer::decode(const std::vector<int>& order) {
  std::unique_ptr<Decoder> decoder =
      runDecode(order, options_.cancel, [this] { return acquire(); });
  ReconfigurationProgram program = decoder->takeProgram();
  release(std::move(decoder));
  return program;
}

ReconfigurationProgram planGreedy(const MigrationContext& context,
                                  const DecodeOptions& options) {
  metrics::ScopedTimer timing(metrics::timer("planner.greedy"));
  trace::ScopedSpan span("planner.greedy", "planner");
  Decoder decoder(context, options);
  const auto& deltas = decoder.loopDeltas();
  std::vector<bool> done(deltas.size(), false);
  for (std::size_t round = 0; round < deltas.size(); ++round) {
    pollCancel(options.cancel, "planner.greedy");
    int best = -1;
    int bestCost = kInfinity + 1;
    for (std::size_t k = 0; k < deltas.size(); ++k) {
      if (done[k]) continue;
      const int cost = decoder.connectionCost(deltas[k]);
      if (cost < bestCost) {
        bestCost = cost;
        best = static_cast<int>(k);
      }
    }
    done[static_cast<std::size_t>(best)] = true;
    decoder.processDelta(deltas[static_cast<std::size_t>(best)]);
  }
  decoder.finish();
  return decoder.takeProgram();
}

EvolutionaryPlan planEvolutionary(const MigrationContext& context,
                                  const EvolutionConfig& config, Rng& rng,
                                  const DecodeOptions& options,
                                  ThreadPool* pool) {
  metrics::ScopedTimer timing(metrics::timer("planner.ea"));
  trace::ScopedSpan span("planner.ea", "planner");
  const int n = loopDeltaCount(context, options.tempInput);
  OrderScorer scorer(context, options);
  const FitnessFn fitness = [&](const Permutation& order) {
    return static_cast<double>(scorer.length(order));
  };
  const EvolutionResult evo = evolvePermutation(n, fitness, config, rng, pool);

  EvolutionaryPlan plan;
  plan.program = scorer.decode(evo.best);
  plan.evaluations = evo.evaluations;
  plan.initialBest =
      evo.history.empty() ? evo.bestFitness : evo.history.front().bestFitness;
  plan.bestPerGeneration.reserve(evo.history.size());
  for (const GenerationStats& g : evo.history)
    plan.bestPerGeneration.push_back(g.bestFitness);
  return plan;
}

std::optional<ReconfigurationProgram> planExact(const MigrationContext& context,
                                                int maxDeltas,
                                                const DecodeOptions& options) {
  metrics::ScopedTimer timing(metrics::timer("planner.exact"));
  trace::ScopedSpan span("planner.exact", "planner");
  const int n = loopDeltaCount(context, options.tempInput);
  if (n > maxDeltas) return std::nullopt;
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  OrderScorer scorer(context, options);
  std::vector<int> best;
  int bestLength = kInfinity;
  do {
    const int length = scorer.length(order);
    if (length < bestLength) {
      bestLength = length;
      best = order;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return scorer.decode(best);
}

ReconfigurationProgram planNoTemporary(const MigrationContext& context,
                                       SymbolId tempInput) {
  DecodeOptions options;
  options.tempInput = tempInput;
  options.rule = DecodeRule::kBestOfThree;
  options.allowTemporary = false;
  return planGreedy(context, options);
}

BatchReport planAllChecked(const std::vector<MigrationContext>& instances,
                           const BatchPlanFn& plan,
                           const BatchOptions& options) {
  metrics::ScopedTimer timing(metrics::timer("batch.plan_all"));
  static metrics::Histogram& instanceLatency =
      metrics::histogram(metrics::kInstanceLatency);
  static metrics::Counter& failureCounter =
      metrics::counter(metrics::kBatchInstanceFailures);
  static metrics::Counter& cancelledCounter =
      metrics::counter(metrics::kBatchCancelled);
  trace::ScopedSpan span(
      "batch.plan_all", "batch",
      {trace::Arg::num("instances",
                       static_cast<std::uint64_t>(instances.size())),
       trace::Arg::num("jobs", static_cast<std::int64_t>(options.jobs))});
  BatchReport report;
  report.programs.resize(instances.size());
  // Per-slot failure records; merged (in instance order) after the drain so
  // the parallel bodies never contend on a shared vector.
  std::vector<std::optional<InstanceFailure>> failures(instances.size());
  const Rng base(options.seed);
  ThreadPool pool(options.jobs);
  pool.parallelFor(instances.size(), [&](std::size_t k) {
    metrics::ScopedLatency latency(instanceLatency);
    trace::ScopedSpan instanceSpan(
        "batch.instance", "batch",
        {trace::Arg::num("instance", static_cast<std::uint64_t>(
                                         options.substreamBase + k))});
    InstanceFailure failure;
    failure.instance = k;
    try {
      // Not-yet-started instances stop here once the token expires, so a
      // deadline turns into cancelled slots, not a long tail of work.
      pollCancel(options.cancel, "batch.instance");
      Rng rng = base.substream(options.substreamBase + k);
      report.programs[k] = plan(instances[k], rng);
      return;
    } catch (const CancelledError& error) {
      failure.error = error.what();
      failure.cancelled = true;
      cancelledCounter.add();
    } catch (const std::exception& error) {
      // Poison this slot only: the planner threw (planner defect, degenerate
      // instance, ...), every other instance still runs.
      failure.error = error.what();
      failureCounter.add();
    }
    trace::instant("batch.instance_failed", "batch",
                   {trace::Arg::num("instance", static_cast<std::uint64_t>(
                                                    options.substreamBase + k)),
                    trace::Arg::boolean("cancelled", failure.cancelled),
                    trace::Arg::str("error", failure.error)});
    report.programs[k] = ReconfigurationProgram{};  // poisoned slot
    failures[k] = std::move(failure);
  });
  for (auto& failure : failures)
    if (failure.has_value()) report.failures.push_back(std::move(*failure));
  return report;
}

std::vector<ReconfigurationProgram> planAll(
    const std::vector<MigrationContext>& instances, const BatchPlanFn& plan,
    const BatchOptions& options) {
  BatchReport report = planAllChecked(instances, plan, options);
  if (!report.ok()) {
    std::string what = std::to_string(report.failures.size()) + " of " +
                       std::to_string(instances.size()) +
                       " instances failed; first: instance " +
                       std::to_string(report.failures.front().instance) +
                       ": " + report.failures.front().error;
    throw BatchError(what, std::move(report.failures));
  }
  return std::move(report.programs);
}

std::vector<EvolutionaryPlan> planEvolutionaryBatch(
    const std::vector<MigrationContext>& instances,
    const EvolutionConfig& config, const BatchOptions& options,
    const DecodeOptions& decode) {
  metrics::ScopedTimer timing(metrics::timer("batch.plan_evolutionary"));
  static metrics::Histogram& instanceLatency =
      metrics::histogram(metrics::kInstanceLatency);
  trace::ScopedSpan span(
      "batch.plan_evolutionary", "batch",
      {trace::Arg::num("instances",
                       static_cast<std::uint64_t>(instances.size())),
       trace::Arg::num("jobs", static_cast<std::int64_t>(options.jobs))});
  std::vector<EvolutionaryPlan> plans(instances.size());
  // Thread the batch's cancel token into the EA generation loop and the
  // decode path of every instance.
  EvolutionConfig batchConfig = config;
  DecodeOptions batchDecode = decode;
  if (options.cancel != nullptr) {
    batchConfig.cancel = options.cancel;
    batchDecode.cancel = options.cancel;
  }
  const Rng base(options.seed);
  ThreadPool pool(options.jobs);
  pool.parallelFor(instances.size(), [&](std::size_t k) {
    metrics::ScopedLatency latency(instanceLatency);
    trace::ScopedSpan instanceSpan(
        "batch.instance", "batch",
        {trace::Arg::num("instance", static_cast<std::uint64_t>(
                                         options.substreamBase + k))});
    pollCancel(options.cancel, "batch.instance");
    Rng rng = base.substream(options.substreamBase + k);
    // Parallelism is across instances here; each EA runs its fitness
    // serially (nested parallelFor would be inline anyway).
    plans[k] = planEvolutionary(instances[k], batchConfig, rng, batchDecode);
  });
  return plans;
}

}  // namespace rfsm
