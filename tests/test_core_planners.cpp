// Tests for the planners: JSR (Sec. 4.4, Example 4.3), temporary
// transitions (Sec. 4.3, Example 4.2), bounds (Sec. 4.5), the decoder, the
// greedy / evolutionary / exact planners (Sec. 4.6).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>

#include "core/apply.hpp"
#include "core/bounds.hpp"
#include "core/jsr.hpp"
#include "core/planners.hpp"
#include "ea/permutation.hpp"
#include "gen/families.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rfsm {
namespace {

TEST(Bounds, Formulas) {
  EXPECT_EQ(jsrUpperBound(0), 3);
  EXPECT_EQ(jsrUpperBound(4), 15);
  EXPECT_EQ(programLowerBound(7), 7);
  EXPECT_THROW(jsrUpperBound(-1), ContractError);
}

TEST(Jsr, Example43ProgramLengthIs15) {
  // Example 4.3 lists a 15-step program: 3 * (|Td| + 1) with |Td| = 4.
  const MigrationContext context(example41Source(), example41Target());
  const ReconfigurationProgram z = planJsr(context);
  EXPECT_EQ(z.length(), 15);
  EXPECT_EQ(z.length(), jsrUpperBound(context));
  const ValidationResult result = validateProgram(context, z);
  EXPECT_TRUE(result.valid) << result.reason;
}

TEST(Jsr, Example43ProgramStructure) {
  // Paper structure: reset, then (temp, delta, reset) per loop delta, then
  // the final temporary-cell rewrite and reset.
  const MigrationContext context(example41Source(), example41Target());
  const ReconfigurationProgram z = planJsr(context);
  ASSERT_EQ(z.steps.size(), 15u);
  EXPECT_EQ(z.steps[0].kind, StepKind::kReset);
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(z.steps[static_cast<std::size_t>(1 + 3 * d)].kind,
              StepKind::kRewrite);
    EXPECT_TRUE(z.steps[static_cast<std::size_t>(1 + 3 * d)].temporary);
    EXPECT_EQ(z.steps[static_cast<std::size_t>(2 + 3 * d)].kind,
              StepKind::kRewrite);
    EXPECT_FALSE(z.steps[static_cast<std::size_t>(2 + 3 * d)].temporary);
    EXPECT_EQ(z.steps[static_cast<std::size_t>(3 + 3 * d)].kind,
              StepKind::kReset);
  }
  EXPECT_EQ(z.steps[13].kind, StepKind::kRewrite);  // repair temp cell
  EXPECT_EQ(z.steps[14].kind, StepKind::kReset);
  EXPECT_EQ(z.resetCount(), 6);
  EXPECT_EQ(z.temporaryCount(), 4);
}

TEST(Jsr, NoDeltasStillThreeSteps) {
  // Even with Td empty, JSR emits reset + temp-cell rewrite + reset = 3,
  // its 3*(0+1) bound.
  const MigrationContext context(onesDetector(), onesDetector());
  const ReconfigurationProgram z = planJsr(context);
  EXPECT_EQ(z.length(), 3);
  EXPECT_TRUE(validateProgram(context, z).valid);
}

TEST(Jsr, CustomTemporaryInput) {
  const MigrationContext context(example41Source(), example41Target());
  JsrOptions options;
  options.tempInput = context.inputs().at("1");
  const ReconfigurationProgram z = planJsr(context, options);
  EXPECT_TRUE(validateProgram(context, z).valid);
  EXPECT_LE(z.length(), jsrUpperBound(context));
}

TEST(Jsr, TempCellDeltaFoldedIntoTail) {
  // Ones -> zeros: with i0 = "0", the cell (0, S0) is itself a delta; JSR
  // folds it into the tail and the program shortens to 3 * |Td|.
  const MigrationContext context(onesDetector(), zerosDetector());
  JsrOptions options;
  options.tempInput = context.inputs().at("0");
  const ReconfigurationProgram z = planJsr(context, options);
  EXPECT_EQ(context.deltaCount(), 2);
  EXPECT_EQ(z.length(), 3 * 2);
  EXPECT_TRUE(validateProgram(context, z).valid);
}

// ---------------------------------------------------------------------------
// Example 4.2: temporary transitions shorten the program from 4 to 3.
// ---------------------------------------------------------------------------

TEST(TemporaryTransitions, PathProgramTakesFourCycles) {
  const MigrationContext c(example42Source(), example42Target());
  const SymbolId in0 = c.inputs().at("0");
  const SymbolId in1 = c.inputs().at("1");
  // Z = ((1,S0,S1,0), (1,S1,S2,0), (1,S2,S3,0), (0,S3,S0,0)).
  ReconfigurationProgram z;
  z.steps.push_back(ReconfigStep::traverse(in1));
  z.steps.push_back(ReconfigStep::traverse(in1));
  z.steps.push_back(ReconfigStep::traverse(in1));
  z.steps.push_back(ReconfigStep::rewrite(in0, c.states().at("S0"),
                                          c.outputs().at("0")));
  EXPECT_EQ(z.length(), 4);
  EXPECT_TRUE(validateProgram(c, z).valid);
}

TEST(TemporaryTransitions, TemporaryProgramTakesThreeCycles) {
  const MigrationContext c(example42Source(), example42Target());
  const SymbolId in0 = c.inputs().at("0");
  // Z = ((0,S0,S3,0), (0,S3,S0,0), (0,S0,S0,0)).
  ReconfigurationProgram z;
  z.steps.push_back(ReconfigStep::rewrite(in0, c.states().at("S3"),
                                          c.outputs().at("0"), true));
  z.steps.push_back(ReconfigStep::rewrite(in0, c.states().at("S0"),
                                          c.outputs().at("0")));
  z.steps.push_back(ReconfigStep::rewrite(in0, c.states().at("S0"),
                                          c.outputs().at("0")));
  EXPECT_EQ(z.length(), 3);
  const ValidationResult result = validateProgram(c, z);
  EXPECT_TRUE(result.valid) << result.reason;
}

// ---------------------------------------------------------------------------
// Decoder and planners.
// ---------------------------------------------------------------------------

TEST(Decoder, IdentityOrderIsValidOnExample41) {
  const MigrationContext context(example41Source(), example41Target());
  const int n = loopDeltaCount(context);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  const ReconfigurationProgram z = decodeOrder(context, order);
  const ValidationResult result = validateProgram(context, z);
  EXPECT_TRUE(result.valid) << result.reason;
  EXPECT_GE(z.length(), programLowerBound(context));
}

TEST(Decoder, RejectsNonPermutations) {
  const MigrationContext context(example41Source(), example41Target());
  EXPECT_THROW(decodeOrder(context, {0, 0, 1, 2}), ContractError);
  EXPECT_THROW(decodeOrder(context, {0}), ContractError);
}

TEST(Decoder, BestOfThreeNeverWorseThanPaperRule) {
  const MigrationContext context(example41Source(), example41Target());
  const int n = loopDeltaCount(context);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  DecodeOptions paper;
  DecodeOptions better;
  better.rule = DecodeRule::kBestOfThree;
  EXPECT_LE(decodeOrder(context, order, better).length(),
            decodeOrder(context, order, paper).length());
}

TEST(Planners, GreedyValidAndWithinBounds) {
  const MigrationContext context(example41Source(), example41Target());
  const ReconfigurationProgram z = planGreedy(context);
  EXPECT_TRUE(validateProgram(context, z).valid);
  EXPECT_GE(z.length(), programLowerBound(context));
  EXPECT_LE(z.length(), jsrUpperBound(context));
}

TEST(Planners, EvolutionaryBeatsOrMatchesJsrOnExample41) {
  const MigrationContext context(example41Source(), example41Target());
  Rng rng(7);
  EvolutionConfig config;
  config.generations = 40;
  const EvolutionaryPlan plan = planEvolutionary(context, config, rng);
  EXPECT_TRUE(validateProgram(context, plan.program).valid);
  EXPECT_LE(plan.program.length(), planJsr(context).length());
  EXPECT_GE(plan.program.length(), programLowerBound(context));
  EXPECT_GT(plan.evaluations, 0);
  EXPECT_FALSE(plan.bestPerGeneration.empty());
}

TEST(Planners, ExactIsNoWorseThanAnyOtherPlanner) {
  const MigrationContext context(example41Source(), example41Target());
  const auto exact = planExact(context);
  ASSERT_TRUE(exact.has_value());
  EXPECT_TRUE(validateProgram(context, *exact).valid);
  EXPECT_LE(exact->length(), planGreedy(context).length());
  EXPECT_LE(exact->length(), planJsr(context).length());
  Rng rng(3);
  EvolutionConfig config;
  EXPECT_LE(exact->length(),
            planEvolutionary(context, config, rng).program.length());
}

TEST(Planners, ExactRefusesLargeInstances) {
  const MigrationContext context(example41Source(), example41Target());
  EXPECT_FALSE(planExact(context, /*maxDeltas=*/2).has_value());
}

TEST(Planners, NoTemporaryIsValid) {
  const MigrationContext context(example41Source(), example41Target());
  const ReconfigurationProgram z = planNoTemporary(context);
  EXPECT_TRUE(validateProgram(context, z).valid);
}

TEST(Planners, SingleDeltaInstanceAllPlannersAgreeItIsCheap) {
  const MigrationContext context(example42Source(), example42Target());
  // |Td| = 1: every planner should finish in a handful of cycles.
  EXPECT_LE(planJsr(context).length(), 6);
  EXPECT_LE(planGreedy(context).length(), 6);
  const auto exact = planExact(context);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(exact->length(), 4);
  EXPECT_TRUE(validateProgram(context, *exact).valid);
}

TEST(Planners, EvolutionaryDeterministicForSeed) {
  const MigrationContext context(example41Source(), example41Target());
  EvolutionConfig config;
  config.generations = 20;
  Rng a(99), b(99);
  const auto planA = planEvolutionary(context, config, a);
  const auto planB = planEvolutionary(context, config, b);
  EXPECT_EQ(planA.program.length(), planB.program.length());
  EXPECT_EQ(planA.evaluations, planB.evaluations);
}

// ---------------------------------------------------------------------------
// OrderScorer: decoders reused across orders decode exactly like fresh ones.
// ---------------------------------------------------------------------------

MigrationContext randomContext(int states, int deltas, int newStates,
                               std::uint64_t seed) {
  Rng rng(seed);
  RandomMachineSpec spec;
  spec.stateCount = states;
  spec.inputCount = 3;
  spec.outputCount = 2;
  const Machine source = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.deltaCount = deltas;
  mutation.newStateCount = newStates;
  return MigrationContext(source, mutateMachine(source, mutation, rng));
}

/// Scores `rounds` random orders on one scorer, alternating length() and
/// decode(), each against a fresh decodeOrder.  Returns how many decodes
/// followed one that wrote a temporary transition.
int expectScorerMatchesFresh(const MigrationContext& context,
                             const DecodeOptions& options,
                             std::uint64_t seed, int rounds = 24) {
  OrderScorer scorer(context, options);
  Rng rng(seed);
  const int n = loopDeltaCount(context, options.tempInput);
  int afterTemporary = 0;
  bool previousTemporary = false;
  for (int round = 0; round < rounds; ++round) {
    const std::vector<int> order = randomPermutation(n, rng);
    const ReconfigurationProgram fresh = decodeOrder(context, order, options);
    if (round % 2 == 0) {
      EXPECT_EQ(scorer.length(order), fresh.length()) << "round " << round;
    } else {
      EXPECT_EQ(scorer.decode(order).steps, fresh.steps) << "round " << round;
    }
    if (previousTemporary) ++afterTemporary;
    previousTemporary = fresh.temporaryCount() > 0;
  }
  return afterTemporary;
}

TEST(OrderScorer, ReusedDecodersMatchFreshUnderBothRules) {
  const MigrationContext context = randomContext(12, 9, 0, 4101);
  DecodeOptions paper;
  DecodeOptions best;
  best.rule = DecodeRule::kBestOfThree;
  // The paper rule writes temporary transitions, so later decodes start on
  // a decoder whose temp cell and BFS cache the previous order dirtied.
  EXPECT_GT(expectScorerMatchesFresh(context, paper, 1), 0);
  expectScorerMatchesFresh(context, best, 2);
}

TEST(OrderScorer, MatchesFreshWithoutTemporaries) {
  const MigrationContext context = randomContext(10, 8, 0, 4102);
  DecodeOptions options;
  options.rule = DecodeRule::kBestOfThree;
  options.allowTemporary = false;
  expectScorerMatchesFresh(context, options, 3);
}

TEST(OrderScorer, MatchesFreshWithNewStates) {
  const MigrationContext context = randomContext(9, 14, 3, 4103);
  ASSERT_GT(context.states().size(), context.sourceMachine().stateCount());
  for (const DecodeRule rule : {DecodeRule::kPaper, DecodeRule::kBestOfThree}) {
    DecodeOptions options;
    options.rule = rule;
    expectScorerMatchesFresh(context, options, 4);
  }
}

TEST(OrderScorer, MatchesFreshWhenTheTempCellIsADelta) {
  const MigrationContext context = randomContext(8, 10, 0, 4104);
  // Pick i0 so that (i0, S0') is itself a delta transition.
  DecodeOptions options;
  for (const Transition& td : context.deltaTransitions())
    if (td.from == context.targetReset()) options.tempInput = td.input;
  ASSERT_NE(options.tempInput, kNoSymbol);
  ASSERT_EQ(loopDeltaCount(context, options.tempInput) + 1,
            static_cast<int>(context.deltaTransitions().size()));
  expectScorerMatchesFresh(context, options, 5);
  options.rule = DecodeRule::kBestOfThree;
  expectScorerMatchesFresh(context, options, 6);
}

TEST(OrderScorer, DecodeAfterAMidRunCancelMatchesFresh) {
  const MigrationContext context = randomContext(96, 40, 0, 4105);
  CancelToken token;
  DecodeOptions options;
  options.rule = DecodeRule::kBestOfThree;  // polls the token per BFS scan
  options.cancel = &token;
  OrderScorer scorer(context, options);
  Rng rng(7);
  const int n = loopDeltaCount(context);
  const auto disarm = [&] {
    token.setDeadline(CancelToken::Clock::now() + std::chrono::hours(1));
  };
  disarm();
  const std::vector<int> order = randomPermutation(n, rng);
  const int freshLength = decodeOrder(context, order, options).length();
  auto decodeTime = CancelToken::Clock::duration::max();
  for (int k = 0; k < 5; ++k) {
    const auto start = CancelToken::Clock::now();
    scorer.length(order);
    decodeTime = std::min(decodeTime, CancelToken::Clock::now() - start);
  }

  // Deadlines inside one decode's duration cut it at a BFS poll, past the
  // entry check, with the decoder part-way through its rewrites.
  int midRunCancels = 0;
  for (int attempt = 0; attempt < 64 && midRunCancels < 3; ++attempt) {
    token.setDeadline(CancelToken::Clock::now() +
                      decodeTime * (1 + attempt % 8) / 10);
    try {
      scorer.length(order);
    } catch (const CancelledError& error) {
      if (std::string(error.what()).find("planner.bfs") != std::string::npos)
        ++midRunCancels;
    }
    disarm();
    EXPECT_EQ(scorer.length(order), freshLength) << "attempt " << attempt;
    const std::vector<int> other = randomPermutation(n, rng);
    EXPECT_EQ(scorer.decode(other).steps,
              decodeOrder(context, other, options).steps);
  }
  EXPECT_GT(midRunCancels, 0);
}

TEST(OrderScorer, ConcurrentCallersMatchFresh) {
  const MigrationContext context = randomContext(16, 12, 1, 4106);
  DecodeOptions options;
  options.rule = DecodeRule::kBestOfThree;
  OrderScorer scorer(context, options);
  Rng rng(8);
  const int n = loopDeltaCount(context);
  std::vector<std::vector<int>> orders;
  for (int k = 0; k < 64; ++k) orders.push_back(randomPermutation(n, rng));
  std::vector<int> lengths(orders.size());
  ThreadPool pool(4);
  pool.parallelFor(orders.size(), [&](std::size_t k) {
    lengths[k] = scorer.length(orders[k]);
  });
  for (std::size_t k = 0; k < orders.size(); ++k)
    EXPECT_EQ(lengths[k], decodeOrder(context, orders[k], options).length());
}

TEST(OrderScorer, RejectsNonPermutationsAndStaysUsable) {
  const MigrationContext context(example41Source(), example41Target());
  OrderScorer scorer(context);
  EXPECT_THROW(scorer.length({0, 0, 1, 2}), ContractError);
  EXPECT_THROW(scorer.length({0}), ContractError);
  const std::vector<int> order = {3, 1, 0, 2};
  EXPECT_EQ(scorer.decode(order).steps, decodeOrder(context, order).steps);
}

}  // namespace
}  // namespace rfsm
