#include "tools/cli.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "bdd/symbolic_fsm.hpp"
#include "core/apply.hpp"
#include "core/bounds.hpp"
#include "core/chain.hpp"
#include "core/jsr.hpp"
#include "core/local_search.hpp"
#include "core/optimal.hpp"
#include "core/peephole.hpp"
#include "core/planners.hpp"
#include "core/recovery.hpp"
#include "core/sequence.hpp"
#include "fsm/analysis.hpp"
#include "fsm/equivalence.hpp"
#include "fsm/kiss.hpp"
#include "fsm/statistics.hpp"
#include "fsm/serialize.hpp"
#include "gen/samples.hpp"
#include "logic/synthesize.hpp"
#include "rtl/resources.hpp"
#include "rtl/testbench.hpp"
#include "rtl/vhdl.hpp"
#include "service/client.hpp"
#include "service/fabric.hpp"
#include "service/plan_cache.hpp"
#include "service/session.hpp"
#include "util/chaos.hpp"
#include "util/fsio.hpp"
#include "tools/report.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace rfsm::cli {
namespace {

/// Thrown for user-facing CLI errors (bad usage, unreadable files).
class CliError : public Error {
 public:
  explicit CliError(const std::string& what) : Error(what) {}
};

std::string readFile(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) throw CliError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

/// Resolves a machine argument: `sample:<name>`, *.json, or *.kiss2.
/// Truncated or corrupt files surface as a CliError naming the file and the
/// parser's line/offset — never as an uncaught abort.
Machine loadMachine(const std::string& spec) {
  if (startsWith(spec, "sample:")) return sampleMachine(spec.substr(7));
  const std::string text = readFile(spec);
  try {
    if (spec.size() >= 5 && spec.substr(spec.size() - 5) == ".json")
      return machineFromJson(text);
    if (spec.size() >= 6 && spec.substr(spec.size() - 6) == ".kiss2")
      return machineFromKiss2(parseKiss2(text), spec);
  } catch (const Error& error) {
    throw CliError("cannot load '" + spec + "': " + error.what());
  }
  throw CliError("unsupported machine format for '" + spec +
                 "' (expected .json, .kiss2 or sample:<name>)");
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream stream(path, std::ios::binary);
  if (!stream) throw CliError("cannot write '" + path + "'");
  stream << text;
  if (!stream) throw CliError("write to '" + path + "' failed");
}

/// Option lookup: returns the value following `--name`, if present.
std::optional<std::string> option(const std::vector<std::string>& args,
                                  const std::string& name) {
  for (std::size_t k = 0; k + 1 < args.size(); ++k)
    if (args[k] == name) return args[k + 1];
  return std::nullopt;
}

bool flag(const std::vector<std::string>& args, const std::string& name) {
  for (const auto& a : args)
    if (a == name) return true;
  return false;
}

/// Every value of a repeatable option (--endpoint can appear N times).
std::vector<std::string> optionAll(const std::vector<std::string>& args,
                                   const std::string& name) {
  std::vector<std::string> values;
  for (std::size_t k = 0; k + 1 < args.size(); ++k)
    if (args[k] == name) values.push_back(args[k + 1]);
  return values;
}

/// The planner-fabric endpoint set: repeated --endpoint flags, or the
/// RFSM_ENDPOINTS environment list when no flag is given.
std::vector<ipc::Endpoint> fabricEndpoints(
    const std::vector<std::string>& args) {
  std::vector<ipc::Endpoint> endpoints;
  for (const std::string& text : optionAll(args, "--endpoint"))
    endpoints.push_back(ipc::parseEndpoint(text));
  if (endpoints.empty()) {
    if (const char* env = std::getenv("RFSM_ENDPOINTS"))
      endpoints = ipc::parseEndpointList(env);
  }
  return endpoints;
}

int cmdInfo(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty()) throw CliError("usage: rfsmc info <machine>");
  const Machine m = loadMachine(args[0]);
  out << "name:        " << m.name() << "\n";
  out << "states:      " << m.stateCount() << " (reset "
      << m.states().name(m.resetState()) << ")\n";
  out << "inputs:      " << m.inputCount() << "\n";
  out << "outputs:     " << m.outputCount() << "\n";
  out << "transitions: " << m.stateCount() * m.inputCount() << "\n";
  out << "moore form:  " << (m.isMoore() ? "yes" : "no") << "\n";
  out << "connected:   " << (isConnectedFromReset(m) ? "yes" : "no") << "\n";
  out << "stable total states: " << stableTotalStates(m).size() << "\n";
  if (flag(args, "--stats"))
    out << "\n" << describeStatistics(computeStatistics(m));
  return 0;
}

int cmdReport(const std::vector<std::string>& args, std::ostream& out) {
  if (args.size() < 2)
    throw CliError("usage: rfsmc report <from> <to> [--seed N] [--jobs N] "
                   "[--telemetry md|csv|json]");
  const Machine source = loadMachine(args[0]);
  const Machine target = loadMachine(args[1]);
  const MigrationContext context(source, target);
  ReportOptions options;
  options.seed = static_cast<std::uint64_t>(
      std::stoll(option(args, "--seed").value_or("1")));
  options.jobs = std::stoi(option(args, "--jobs").value_or("1"));
  options.includeTimings = true;  // interactive use; determinism not needed
  const std::string telemetry = option(args, "--telemetry").value_or("md");
  if (telemetry == "md")
    options.telemetryFormat = TelemetryFormat::kMarkdown;
  else if (telemetry == "csv")
    options.telemetryFormat = TelemetryFormat::kCsv;
  else if (telemetry == "json")
    options.telemetryFormat = TelemetryFormat::kJson;
  else
    throw CliError("unknown telemetry format '" + telemetry +
                   "' (md|csv|json)");
  out << buildMigrationReport(context, options);
  return 0;
}

int cmdDot(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty()) throw CliError("usage: rfsmc dot <machine>");
  out << toDot(loadMachine(args[0]));
  return 0;
}

int cmdConvert(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty())
    throw CliError("usage: rfsmc convert <machine> --to json|kiss2");
  const Machine m = loadMachine(args[0]);
  const std::string to = option(args, "--to").value_or("json");
  if (to == "json") {
    out << toJson(m);
  } else if (to == "kiss2") {
    out << writeKiss2(kiss2FromMachine(m));
  } else {
    throw CliError("unknown target format '" + to + "'");
  }
  return 0;
}

ReconfigurationProgram planWith(const std::string& planner,
                                const MigrationContext& context,
                                std::uint64_t seed, int jobs) {
  if (planner == "jsr") return planJsr(context);
  if (planner == "greedy") return planGreedy(context);
  if (planner == "ea") {
    Rng rng(seed);
    ThreadPool pool(jobs);
    return planEvolutionary(context, EvolutionConfig{}, rng, {}, &pool)
        .program;
  }
  if (planner == "exact") {
    const auto program = planExact(context);
    if (!program.has_value())
      throw CliError("instance too large for the exact planner");
    return *program;
  }
  if (planner == "2opt") return planTwoOpt(context).program;
  if (planner == "optimal") {
    const auto program = planOptimalSearch(context);
    if (!program.has_value())
      throw CliError("instance too large for the optimal search");
    return *program;
  }
  if (planner == "anneal") {
    Rng rng(seed);
    return planAnnealing(context, AnnealingConfig{}, rng).program;
  }
  throw CliError("unknown planner '" + planner +
                 "' (jsr|greedy|ea|exact|2opt|anneal|optimal)");
}

int cmdMigrate(const std::vector<std::string>& args, std::ostream& out) {
  if (args.size() < 2)
    throw CliError("usage: rfsmc migrate <from> <to> [--planner P] "
                   "[--seed N] [--jobs N] [--table] [--program-out FILE]");
  const Machine source = loadMachine(args[0]);
  const Machine target = loadMachine(args[1]);
  const MigrationContext context(source, target);
  const std::string planner = option(args, "--planner").value_or("ea");
  const std::uint64_t seed = static_cast<std::uint64_t>(
      std::stoll(option(args, "--seed").value_or("1")));
  const int jobs = std::stoi(option(args, "--jobs").value_or("1"));

  ReconfigurationProgram z = planWith(planner, context, seed, jobs);
  if (flag(args, "--optimize")) z = optimizeProgram(context, z).program;
  const ValidationResult verdict = validateProgram(context, z);

  out << "migration " << source.name() << " -> " << target.name() << "\n";
  out << "|Td| = " << context.deltaCount() << ", bounds [" << programLowerBound(context)
      << ", " << jsrUpperBound(context) << "]\n";
  out << "planner " << planner << ": |Z| = " << z.length() << " ("
      << z.rewriteCount() << " rewrites, " << z.temporaryCount()
      << " temporary, " << z.resetCount() << " resets)\n";
  out << "valid: " << (verdict.valid ? "yes" : "NO - " + verdict.reason)
      << "\n";
  if (const auto path = option(args, "--program-out"))
    writeFile(*path, programToText(context, z));
  if (flag(args, "--table"))
    out << "\n" << sequenceToMarkdown(context, sequenceFromProgram(z));
  else
    out << "\n" << describeProgram(context, z);
  return verdict.valid ? 0 : 2;
}

/// Shared rendering of a guarded-migration report.
void printGuardedReport(const GuardedMigrationReport& report,
                        std::ostream& out) {
  out << "outcome:        " << toString(report.outcome) << "\n";
  out << "fault detected: " << (report.faultDetected ? "yes" : "no") << "\n";
  out << "resumed:        " << (report.resumed ? "yes" : "no") << "\n";
  out << "patch attempts: " << report.patchAttempts << " ("
      << report.cellsPatched << " cells patched, " << report.cellsScrubbed
      << " scrubbed)\n";
  out << "cycles:         " << report.executedCycles << " executed + "
      << report.backoffCycles << " backoff\n";
  out << "journal:        " << report.journalCommitted
      << " step(s) committed\n";
  out << "detail:         " << report.detail << "\n";
}

/// Exit code contract shared by inject/resume: 0 = verified, 3 = clean
/// rollback, 1 = silent-corruption risk (never happens by construction
/// unless the fault model is stacked against recovery, e.g. stuck-at
/// damage inside the source domain).
int guardedExitCode(const GuardedMigrationReport& report) {
  switch (report.outcome) {
    case MigrationOutcome::kVerified: return 0;
    case MigrationOutcome::kRolledBack: return 3;
    case MigrationOutcome::kFailed: return 1;
  }
  return 1;
}

ReconfigurationProgram loadProgramFile(const MigrationContext& context,
                                       const std::string& path) {
  try {
    return programFromText(context, readFile(path));
  } catch (const ProgramParseError& error) {
    throw CliError("cannot load '" + path + "': " + error.what());
  }
}

int cmdInject(const std::vector<std::string>& args, std::ostream& out) {
  if (args.size() < 2)
    throw CliError(
        "usage: rfsmc inject <from> <to> [--planner P] [--seed N] "
        "[--flips N] [--abort-step K] [--retries N] [--program FILE] "
        "[--journal-out FILE]");
  const Machine source = loadMachine(args[0]);
  const Machine target = loadMachine(args[1]);
  const MigrationContext context(source, target);
  const std::string planner = option(args, "--planner").value_or("jsr");
  const std::uint64_t seed = static_cast<std::uint64_t>(
      std::stoll(option(args, "--seed").value_or("1")));

  const auto programFile = option(args, "--program");
  const ReconfigurationProgram program =
      programFile.has_value() ? loadProgramFile(context, *programFile)
                              : planWith(planner, context, seed, /*jobs=*/1);

  MutableMachine machine(context);
  fault::FaultModel model;
  const auto abortStep = option(args, "--abort-step");
  if (abortStep.has_value()) model.abortProbability = 0.0;
  if (const auto flips = option(args, "--flips")) {
    model.maxFlips = std::stoi(*flips);
    model.flipProbability = 1.0;
  }
  fault::FaultGeometry geometry;
  geometry.cellCount = static_cast<std::size_t>(context.states().size()) *
                       static_cast<std::size_t>(context.inputs().size());
  geometry.bitsPerCell = machine.faultBitsPerCell();
  geometry.programLength = program.length();
  fault::FaultInjector injector(seed);
  fault::FaultScenario scenario = injector.draw(model, geometry);
  if (abortStep.has_value()) scenario.abortAtStep = std::stoi(*abortStep);

  RecoveryOptions options;
  options.maxAttempts = std::stoi(option(args, "--retries").value_or("3"));

  ProgramJournal journal;
  const GuardedMigrationReport report =
      runGuardedMigration(machine, program, scenario, options, &journal);

  out << "guarded migration " << source.name() << " -> " << target.name()
      << " (|Z| = " << program.length() << ", seed " << seed << ")\n";
  out << "scenario:       " << scenario.flips.size() << " flip(s)";
  if (scenario.abortAtStep.has_value())
    out << ", power loss before step " << *scenario.abortAtStep;
  out << "\n";
  printGuardedReport(report, out);
  if (const auto path = option(args, "--journal-out")) {
    // Journals exist to be read back after a crash: write-temp + fsync +
    // rename + parent fsync, so the file is never torn or lost.
    try {
      fsio::writeFileDurable(*path, journal.serialize(context));
    } catch (const fsio::FsError& error) {
      throw CliError(error.what());
    }
  }
  return guardedExitCode(report);
}

int cmdResume(const std::vector<std::string>& args, std::ostream& out) {
  const auto journalFile = option(args, "--journal");
  if (args.size() < 2 || !journalFile.has_value())
    throw CliError(
        "usage: rfsmc resume <from> <to> --journal FILE [--retries N]");
  const Machine source = loadMachine(args[0]);
  const Machine target = loadMachine(args[1]);
  const MigrationContext context(source, target);

  ProgramJournal journal;
  try {
    journal = ProgramJournal::parse(context, readFile(*journalFile));
  } catch (const Error& error) {
    throw CliError("cannot load '" + *journalFile + "': " + error.what());
  }

  // The device's table survived the crash exactly as the committed prefix
  // left it; reconstruct that state by replaying the prefix.
  MutableMachine machine(context);
  try {
    trace::ScopedSpan span(
        "journal.replay", "recovery",
        {trace::Arg::num("committed", static_cast<std::int64_t>(
                                          journal.committedSteps()))});
    for (int k = 0; k < journal.committedSteps(); ++k)
      machine.applyStep(journal.program().steps[static_cast<std::size_t>(k)]);
  } catch (const Error& error) {
    throw CliError("journal '" + *journalFile +
                   "' does not replay on this migration: " + error.what());
  }

  RecoveryOptions options;
  options.maxAttempts = std::stoi(option(args, "--retries").value_or("3"));

  out << "journal: " << journal.committedSteps() << "/"
      << journal.program().length() << " step(s) committed"
      << (journal.truncated() ? ", torn trailing record dropped" : "")
      << "\n";
  const GuardedMigrationReport report =
      journal.complete()
          ? repairToTarget(machine, options)
          : runGuardedMigration(machine, journal.program(),
                                fault::FaultScenario{}, options, &journal);
  printGuardedReport(report, out);
  return guardedExitCode(report);
}

int cmdVhdl(const std::vector<std::string>& args, std::ostream& out) {
  if (args.size() < 2) throw CliError("usage: rfsmc vhdl <from> <to>");
  const Machine source = loadMachine(args[0]);
  const Machine target = loadMachine(args[1]);
  const MigrationContext context(source, target);
  const auto sequence = sequenceFromProgram(planJsr(context));
  rtl::VhdlOptions options;
  options.entityName = option(args, "--entity").value_or("reconfigurable_fsm");
  out << rtl::generateVhdl(context, sequence, options);
  return 0;
}

int cmdSynth(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty()) throw CliError("usage: rfsmc synth <machine>");
  const Machine m = loadMachine(args[0]);
  const logic::TwoLevelSynthesis synthesis = logic::synthesizeTwoLevel(m);
  out << synthesis.describe() << "\n";
  const MigrationContext identity(m, m);
  const auto ram = rtl::estimateResources(identity, {});
  out << "RAM-based alternative: " << ram.framBits + ram.gramBits
      << " RAM bits in " << ram.blockRams << " BlockRAM(s)\n";
  return 0;
}

int cmdEquiv(const std::vector<std::string>& args, std::ostream& out) {
  if (args.size() < 2)
    throw CliError("usage: rfsmc equiv <a> <b> [--symbolic]");
  const Machine a = loadMachine(args[0]);
  const Machine b = loadMachine(args[1]);
  if (flag(args, "--symbolic")) {
    const auto result = bdd::checkEquivalenceSymbolic(a, b);
    out << "equivalent: " << (result.equivalent ? "yes" : "no")
        << " (symbolic: " << result.reachablePairs << " reachable pairs, "
        << result.iterations << " image iterations, " << result.bddNodes
        << " BDD nodes)\n";
    return result.equivalent ? 0 : 2;
  }
  const EquivalenceResult result = checkEquivalence(a, b);
  out << "equivalent: " << (result.equivalent ? "yes" : "no") << "\n";
  if (result.counterexample.has_value()) {
    out << "counterexample input word:";
    for (const auto& name : *result.counterexample) out << " " << name;
    out << "\n";
  }
  return result.equivalent ? 0 : 2;
}

int cmdChain(const std::vector<std::string>& args, std::ostream& out) {
  std::vector<Machine> revisions;
  for (const auto& arg : args) {
    if (startsWith(arg, "--")) break;
    revisions.push_back(loadMachine(arg));
  }
  if (revisions.size() < 2)
    throw CliError("usage: rfsmc chain <m1> <m2> [<m3> ...] [--planner P]");
  const std::string plannerName = option(args, "--planner").value_or("ea");
  ChainPlanner planner = ChainPlanner::kEvolutionary;
  if (plannerName == "jsr") planner = ChainPlanner::kJsr;
  else if (plannerName == "greedy") planner = ChainPlanner::kGreedy;
  else if (plannerName != "ea")
    throw CliError("unknown chain planner '" + plannerName +
                   "' (jsr|greedy|ea)");

  const ChainPlan plan = planMigrationChain(revisions, planner);
  Table table({"hop", "|Td|", "upgrade |Z|", "rollback |Z|", "valid"});
  for (const ChainStage& stage : plan.stages)
    table.addRow({stage.context.sourceMachine().name() + " -> " +
                      stage.context.targetMachine().name(),
                  std::to_string(stage.context.deltaCount()),
                  std::to_string(stage.upgrade.length()),
                  std::to_string(stage.rollback.length()),
                  stage.upgradeValid && stage.rollbackValid ? "yes" : "NO"});
  out << table.toMarkdown();
  out << "total upgrade " << plan.totalUpgradeLength()
      << " cycles, total rollback " << plan.totalRollbackLength()
      << " cycles\n";
  return plan.allValid() ? 0 : 2;
}

int cmdTestbench(const std::vector<std::string>& args, std::ostream& out) {
  if (args.size() < 2) throw CliError("usage: rfsmc testbench <from> <to>");
  const Machine source = loadMachine(args[0]);
  const Machine target = loadMachine(args[1]);
  const MigrationContext context(source, target);
  const auto sequence = sequenceFromProgram(planJsr(context));
  rtl::TestbenchOptions options;
  options.entityName = option(args, "--entity").value_or("reconfigurable_fsm");
  options.testbenchName = options.entityName + "_tb";
  // Exercise each target input once, twice around.
  std::vector<SymbolId> word;
  for (int round = 0; round < 2; ++round)
    for (SymbolId i = 0; i < target.inputCount(); ++i)
      word.push_back(context.liftTargetInput(i));
  out << rtl::generateTestbench(context, sequence, word, options);
  return 0;
}

int cmdPlan(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  const std::optional<std::string> server = option(args, "--server");
  if (flag(args, "--probe")) {
    if (!server.has_value())
      throw CliError("plan --probe needs --server SOCKET");
    const auto health = service::probeHealth(*server);
    if (!health.has_value()) {
      err << "rfsmc: no planner service at '" << *server << "'\n";
      return 1;
    }
    out << "healthy:  " << (health->healthy ? "yes" : "NO") << "\n"
        << "workers:  " << health->workersAlive << "/"
        << health->workersConfigured << " alive\n"
        << "queue:    " << health->queueDepth << "\n"
        << "crashes:  " << health->crashes << "\n"
        << "retries:  " << health->retries << "\n"
        << "shed:     " << health->shed << "\n";
    return health->healthy ? 0 : 1;
  }

  const std::optional<std::string> random = option(args, "--random");
  if (!random.has_value())
    throw CliError(
        "usage: rfsmc plan --random S,I,D,N [--planner jsr|greedy|ea] "
        "[--seed N] [--jobs N] [--deadline-ms MS] [--server SOCKET] "
        "[--probe]");
  const std::vector<std::string> dims = split(*random, ',');
  if (dims.size() != 4)
    throw CliError("--random wants S,I,D,N (states,inputs,deltas,instances)");
  service::BatchSpec spec;
  spec.stateCount = std::stoi(dims[0]);
  spec.inputCount = std::stoi(dims[1]);
  spec.deltaCount = std::stoi(dims[2]);
  spec.instanceCount = std::stoull(dims[3]);
  spec.seed = static_cast<std::uint64_t>(
      std::stoll(option(args, "--seed").value_or("1")));
  spec.planner = option(args, "--planner").value_or("jsr");
  const std::int64_t deadlineMs =
      std::stoll(option(args, "--deadline-ms").value_or("0"));
  const int jobs = std::stoi(option(args, "--jobs").value_or("1"));
  // Plan-result cache opt-in (tools only; the library never reads the
  // environment).  The flag overrides RFSM_PLAN_CACHE.
  service::configurePlanCacheFromEnv();
  const std::optional<std::string> planCacheArg = option(args, "--plan-cache");
  if (planCacheArg.has_value())
    service::configurePlanCache(
        static_cast<std::size_t>(std::stoull(*planCacheArg)));
  const std::vector<ipc::Endpoint> endpoints = fabricEndpoints(args);

  // Root of the distributed trace: with tracing enabled, every span below —
  // the local planner's, the server's, the workers', and the fabric's —
  // chains back to this context, across process boundaries.
  trace::ContextScope traceScope(trace::beginTrace());
  trace::ScopedSpan rootSpan("rfsmc.plan", "cli",
                             {trace::Arg::num("instances", spec.instanceCount),
                              trace::Arg::num("seed", spec.seed)});

  service::ClientResult result;
  const bool viaFabric = !endpoints.empty();
  if (viaFabric) {
    service::FabricOptions fabricOptions;
    fabricOptions.endpoints = endpoints;
    fabricOptions.deadlineMs = deadlineMs;
    fabricOptions.jobs = jobs;
    fabricOptions.hedgeMs =
        std::stoll(option(args, "--hedge-ms").value_or("0"));
    fabricOptions.quorum = std::stoi(option(args, "--quorum").value_or("1"));
    fabricOptions.shardSize =
        std::stoull(option(args, "--shard-size").value_or("0"));
    service::Fabric fabric(std::move(fabricOptions));
    result = fabric.plan(spec, err);
  } else if (server.has_value()) {
    service::ClientOptions clientOptions;
    clientOptions.socketPath = *server;
    clientOptions.deadlineMs = deadlineMs;
    clientOptions.jobs = jobs;
    result = service::planBatch(spec, clientOptions, err);
  } else {
    result = service::planLocal(spec, deadlineMs, jobs);
  }

  if (result.status != WorkResult::Status::kOk) {
    err << "rfsmc: plan " << toString(result.status)
        << (result.error.empty() ? "" : ": " + result.error) << "\n";
    return result.status == WorkResult::Status::kDeadlineExceeded ? 4 : 1;
  }
  // stdout carries only the programs (byte-comparable between local,
  // server, fabric, and degraded runs); everything else goes to stderr.
  for (std::size_t k = 0; k < result.programs.size(); ++k)
    out << "# instance " << k << "\n" << result.programs[k];
  // The summary tokens are the canonical metric names (DESIGN.md §12
  // table), spelled via the constants so the stderr vocabulary cannot
  // drift from the CSV/JSON/markdown sinks.  CI smokes grep these.
  err << "rfsmc: planned " << result.programs.size() << " instances ("
      << spec.planner
      << (viaFabric ? ", fabric" : server.has_value() ? ", server" : ", local")
      << (result.degraded ? ", degraded" : "") << ", "
      << metrics::kServiceShardRetries << " " << result.retries << ", "
      << metrics::kServiceWorkerCrashes << " " << result.crashes << ", "
      << metrics::kServicePlanCacheHits << " " << result.cacheHits;
  if (viaFabric) {
    err << ", " << metrics::kFabricRerouted << " "
        << metrics::counter(metrics::kFabricRerouted).value() << ", "
        << metrics::kFabricHedged << " "
        << metrics::counter(metrics::kFabricHedged).value() << ", "
        << metrics::kFabricQuorumMismatch << " "
        << metrics::counter(metrics::kFabricQuorumMismatch).value();
  }
  err << ")\n";
  return 0;
}

/// The deterministic mutation schedule of `rfsmc session stream`: seq k
/// mutates with seed base+k; with --defer-every E > 1, only every E-th
/// mutation (and the last) flushes — the rest defer and compact.
service::MutationRecord scheduleRecord(std::uint64_t k, std::uint64_t total,
                                       std::uint32_t deltas,
                                       std::uint32_t newStates,
                                       std::uint64_t seedBase,
                                       std::uint64_t deferEvery) {
  service::MutationRecord rec;
  rec.seq = k;
  rec.deltaCount = deltas;
  rec.newStateCount = newStates;
  rec.mutationSeed = seedBase + k;
  rec.defer = deferEvery > 1 && k % deferEvery != 0 && k != total;
  return rec;
}

int cmdSessionStatus(const std::vector<std::string>& rest, std::ostream& out,
                     std::ostream& err) {
  const auto servers = optionAll(rest, "--server");
  if (servers.empty())
    throw CliError(
        "usage: rfsmc session status --server ENDPOINT [--server ...]\n"
        "         --tenant T --name N");
  service::SessionStream::Options streamOptions;
  streamOptions.endpoint = ipc::parseEndpoint(servers.front());
  for (const std::string& endpoint : servers)
    streamOptions.endpoints.push_back(ipc::parseEndpoint(endpoint));
  service::SessionStream stream(streamOptions);
  service::SessionStatusRequest request;
  request.tenant = option(rest, "--tenant").value_or("default");
  request.name = option(rest, "--name").value_or("session");
  const service::SessionStatusResponse status = stream.status(request);
  if (status.status != service::SessionStatus::kOk) {
    err << "rfsmc: session status failed: " << toString(status.status)
        << (status.error.empty() ? "" : " - " + status.error) << "\n";
    return 1;
  }
  out << "session " << request.tenant << "/" << request.name << ": role "
      << status.role << ", epoch " << status.epoch << ", accepted "
      << status.lastAccepted << ", applied " << status.applied << "\n";
  return 0;
}

int cmdSession(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  if (args.empty() || (args[0] != "stream" && args[0] != "status"))
    throw CliError(
        "usage: rfsmc session stream (--server ENDPOINT ... | --local)\n"
        "         --tenant T --name N --mutations M [--random S,I,O]\n"
        "         [--seed N] [--planner jsr|greedy|ea] [--priority P]\n"
        "         [--weight W] [--deltas D] [--new-states K]\n"
        "         [--defer-every E] [--mutation-seed B] [--resume]\n"
        "         [--close] [--retry-for-ms MS]\n"
        "       rfsmc session status --server ENDPOINT --tenant T --name N\n"
        "(repeat --server to add failover endpoints, primary first)");
  if (args[0] == "status")
    return cmdSessionStatus(
        std::vector<std::string>(args.begin() + 1, args.end()), out, err);
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  service::SessionConfig config;
  config.tenant = option(rest, "--tenant").value_or("default");
  config.name = option(rest, "--name").value_or("session");
  config.priority = std::stoi(option(rest, "--priority").value_or("1"));
  config.weight =
      std::max(1.0, std::stod(option(rest, "--weight").value_or("1")));
  config.planner = option(rest, "--planner").value_or("jsr");
  config.seed = static_cast<std::uint64_t>(
      std::stoull(option(rest, "--seed").value_or("1")));
  if (const auto dims = option(rest, "--random")) {
    const auto parts = split(*dims, ',');
    if (parts.size() != 3)
      throw CliError("--random expects S,I,O (e.g. --random 8,2,2)");
    config.stateCount = std::stoi(parts[0]);
    config.inputCount = std::stoi(parts[1]);
    config.outputCount = std::stoi(parts[2]);
  }
  const auto mutationsOpt = option(rest, "--mutations");
  if (!mutationsOpt.has_value())
    throw CliError("session stream needs --mutations M");
  const std::uint64_t mutations = std::stoull(*mutationsOpt);
  const auto deltas = static_cast<std::uint32_t>(
      std::stoul(option(rest, "--deltas").value_or("4")));
  const auto newStates = static_cast<std::uint32_t>(
      std::stoul(option(rest, "--new-states").value_or("0")));
  const std::uint64_t deferEvery =
      std::stoull(option(rest, "--defer-every").value_or("1"));
  const std::uint64_t seedBase =
      std::stoull(option(rest, "--mutation-seed").value_or("1000"));
  const auto retryFor = std::chrono::milliseconds(
      std::stoll(option(rest, "--retry-for-ms").value_or("15000")));

  if (flag(rest, "--local")) {
    // The reference transcript: the exact SessionEngine the daemon runs,
    // uninterrupted and unscheduled — what any kill/restart/resume run
    // against a real daemon must byte-match.
    service::SessionEngine engine(config);
    std::uint64_t plans = 0;
    for (std::uint64_t k = 1; k <= mutations; ++k) {
      const service::PlanOutcome outcome = engine.apply(scheduleRecord(
          k, mutations, deltas, newStates, seedBase, deferEvery));
      if (outcome.failed)
        err << "rfsmc: mutation " << k << " failed: " << outcome.error
            << "\n";
      if (outcome.planned) {
        out << "# mutation " << k << "\n" << outcome.program;
        ++plans;
      }
    }
    err << "session " << config.tenant << "/" << config.name << ": "
        << engine.lastApplied() << " mutation(s), " << plans
        << " plan(s) (local reference)\n";
    return 0;
  }

  const auto servers = optionAll(rest, "--server");
  if (servers.empty())
    throw CliError("session stream needs --server ENDPOINT or --local");
  service::SessionStream::Options streamOptions;
  streamOptions.endpoint = ipc::parseEndpoint(servers.front());
  // Every --server after the first is a failover endpoint (a standby that
  // promotes itself when the primary dies); the stream rotates on
  // transport failure.
  for (const std::string& endpoint : servers)
    streamOptions.endpoints.push_back(ipc::parseEndpoint(endpoint));
  streamOptions.retryFor = retryFor;
  service::SessionStream stream(streamOptions);

  const service::SessionOpenRequest openRequest =
      service::openRequestFor(config);
  const service::SessionOpenResponse opened = stream.open(openRequest);
  if (opened.status != service::SessionStatus::kOk) {
    err << "rfsmc: session open failed: " << toString(opened.status)
        << (opened.error.empty() ? "" : " - " + opened.error) << "\n";
    return 1;
  }
  std::uint64_t start = opened.lastApplied + 1;
  if (flag(rest, "--resume") && opened.lastApplied > 0) {
    // Re-print the recovered prefix so the resumed run's stdout is the
    // full transcript, byte-comparable against an uninterrupted one.
    service::SessionReplayRequest replayRequest;
    replayRequest.tenant = config.tenant;
    replayRequest.name = config.name;
    replayRequest.fromSeq = 1;
    replayRequest.toSeq = opened.lastApplied;
    const service::SessionReplayResponse replayed =
        stream.replay(replayRequest);
    if (replayed.status != service::SessionStatus::kOk) {
      err << "rfsmc: session replay failed: " << toString(replayed.status)
          << (replayed.error.empty() ? "" : " - " + replayed.error) << "\n";
      return 1;
    }
    for (const auto& entry : replayed.entries)
      out << "# mutation " << entry.seq << "\n" << entry.program;
  }

  std::uint64_t plans = 0, rejections = 0, rewinds = 0;
  // Output high-water mark: after a failover rewind the deterministic
  // schedule is re-sent from the promoted standby's frontier, and already-
  // printed sequence numbers must not print twice (the resumed stdout has
  // to stay byte-identical to an uninterrupted run).
  std::uint64_t processedUpTo = start - 1;
  for (std::uint64_t k = start; k <= mutations; ++k) {
    const service::SessionMutateRequest request = service::mutateRequestFor(
        config, scheduleRecord(k, mutations, deltas, newStates, seedBase,
                               deferEvery));
    const auto admissionDeadline =
        std::chrono::steady_clock::now() + retryFor;
    for (;;) {
      const service::SessionMutateResponse response =
          stream.mutate(request);
      if (response.status == service::SessionStatus::kResourceExhausted ||
          response.status == service::SessionStatus::kDraining) {
        // The typed backoff loop: honour the server's retry hint.
        ++rejections;
        if (std::chrono::steady_clock::now() >= admissionDeadline) {
          err << "rfsmc: mutation " << k << " not admitted within "
              << retryFor.count() << " ms: " << toString(response.status)
              << "\n";
          return 2;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max<std::int64_t>(1, response.retryAfterMs > 0
                                          ? response.retryAfterMs
                                          : 100)));
        continue;
      }
      if (response.status == service::SessionStatus::kBadSequence) {
        // Failover rewind: a promoted standby can trail the acked
        // frontier under --repl-ack async.  Re-learn its high-water mark
        // and resend the (deterministic, so byte-identical) schedule from
        // there; processedUpTo suppresses the duplicate output.
        if (++rewinds > 8) {
          err << "rfsmc: mutation " << k
              << " rejected after repeated rewinds: " << response.error
              << "\n";
          return 1;
        }
        const service::SessionOpenResponse reopened = stream.open(openRequest);
        if (reopened.status != service::SessionStatus::kOk) {
          err << "rfsmc: session re-open after failover failed: "
              << toString(reopened.status)
              << (reopened.error.empty() ? "" : " - " + reopened.error)
              << "\n";
          return 1;
        }
        k = reopened.lastApplied;  // the outer ++k resumes right after it
        break;
      }
      if (response.status == service::SessionStatus::kOk) {
        if (k > processedUpTo) {
          out << "# mutation " << k << "\n" << response.program;
          ++plans;
        }
      } else if (response.status == service::SessionStatus::kFailed &&
                 !response.error.empty()) {
        if (k > processedUpTo)
          err << "rfsmc: mutation " << k << " failed: " << response.error
              << "\n";
      } else if (response.status != service::SessionStatus::kAccepted) {
        err << "rfsmc: mutation " << k << " rejected: "
            << toString(response.status)
            << (response.error.empty() ? "" : " - " + response.error)
            << "\n";
        return 1;
      }
      if (k > processedUpTo) processedUpTo = k;
      break;
    }
  }

  std::uint64_t closedPlans = plans;
  if (flag(rest, "--close")) {
    service::SessionCloseRequest closeRequest;
    closeRequest.tenant = config.tenant;
    closeRequest.name = config.name;
    const service::SessionCloseResponse closed = stream.close(closeRequest);
    if (closed.status != service::SessionStatus::kOk) {
      err << "rfsmc: session close failed: " << toString(closed.status)
          << "\n";
      return 1;
    }
    closedPlans = closed.plans;
  }
  err << "session " << config.tenant << "/" << config.name << ": streamed "
      << mutations << " mutation(s), " << closedPlans << " plan(s), "
      << rejections << " admission rejection(s), " << stream.reconnects()
      << " reconnect(s), " << stream.failovers() << " failover(s), "
      << rewinds << " rewind(s)\n";
  return 0;
}

/// Prometheus exposition metric name: rfsm_ prefix, [a-zA-Z0-9_] body.
std::string promName(const std::string& name) {
  std::string flat = "rfsm_";
  for (const char c : name)
    flat += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  return flat;
}

/// Prometheus / JSON label-value escaping (backslash and double quote).
std::string escapeValue(const std::string& value) {
  std::string escaped;
  for (const char c : value) {
    if (c == '\\' || c == '"') escaped += '\\';
    escaped += c;
  }
  return escaped;
}

void renderStatsTable(const service::StatsResponse& stats,
                      std::ostream& out) {
  out << "daemon:     pid " << stats.pid << ", up "
      << stats.uptimeMs / 1000 << " s"
      << (stats.draining ? ", DRAINING" : "") << "\n";
  out << "workers:    " << stats.workers.workersAlive << "/"
      << stats.workers.workersConfigured << " alive, "
      << (stats.workers.healthy ? "healthy" : "UNHEALTHY") << ", queue "
      << stats.workers.queueDepth << ", crashes " << stats.workers.crashes
      << ", retries " << stats.workers.retries << ", shed "
      << stats.workers.shed << "\n";
  out << "plan cache: "
      << (stats.planCache.enabled
              ? std::to_string(stats.planCache.size) + "/" +
                    std::to_string(stats.planCache.capacity) + " entries"
              : std::string("disabled"))
      << "\n";
  out << "scheduler:  depth " << stats.schedulerDepth << ", vtime "
      << stats.schedulerVirtualNow << ", " << stats.openSessions
      << " open session(s)\n";
  if (!stats.breakers.empty()) {
    Table table({"breaker", "state", "trips"});
    for (const auto& breaker : stats.breakers)
      table.addRow({breaker.name, breaker.state,
                    std::to_string(breaker.trips)});
    out << "\n" << table.toMarkdown();
  }
  if (!stats.sessions.empty()) {
    Table table({"tenant", "session", "role", "epoch", "prio", "weight",
                 "vtime", "tokens", "queued", "applied", "wal age ms",
                 "snap age ms"});
    for (const auto& s : stats.sessions) {
      std::ostringstream weight, vtime, tokens;
      weight << s.weight;
      vtime << s.vtime;
      tokens << s.tokensRemaining;
      table.addRow({s.tenant, s.name, s.role, std::to_string(s.epoch),
                    std::to_string(s.priority), weight.str(), vtime.str(),
                    tokens.str(), std::to_string(s.queued),
                    std::to_string(s.applied), std::to_string(s.walAgeMs),
                    std::to_string(s.snapshotAgeMs)});
    }
    out << "\n" << table.toMarkdown();
  }
  const std::string rendered = metrics::toMarkdown(stats.metrics);
  if (!rendered.empty()) out << "\n" << rendered;
}

void renderStatsJson(const service::StatsResponse& stats, std::ostream& out) {
  out << "{\n";
  out << "  \"pid\": " << stats.pid << ",\n";
  out << "  \"uptime_ms\": " << stats.uptimeMs << ",\n";
  out << "  \"draining\": " << (stats.draining ? "true" : "false") << ",\n";
  out << "  \"workers\": {\"healthy\": "
      << (stats.workers.healthy ? "true" : "false")
      << ", \"alive\": " << stats.workers.workersAlive
      << ", \"configured\": " << stats.workers.workersConfigured
      << ", \"queue_depth\": " << stats.workers.queueDepth
      << ", \"crashes\": " << stats.workers.crashes
      << ", \"retries\": " << stats.workers.retries
      << ", \"shed\": " << stats.workers.shed << "},\n";
  out << "  \"plan_cache\": {\"enabled\": "
      << (stats.planCache.enabled ? "true" : "false")
      << ", \"size\": " << stats.planCache.size
      << ", \"capacity\": " << stats.planCache.capacity << "},\n";
  out << "  \"breakers\": [";
  for (std::size_t k = 0; k < stats.breakers.size(); ++k) {
    const auto& breaker = stats.breakers[k];
    out << (k == 0 ? "" : ", ") << "{\"name\": \""
        << escapeValue(breaker.name) << "\", \"state\": \"" << breaker.state
        << "\", \"trips\": " << breaker.trips << "}";
  }
  out << "],\n";
  out << "  \"sessions\": [";
  for (std::size_t k = 0; k < stats.sessions.size(); ++k) {
    const auto& s = stats.sessions[k];
    out << (k == 0 ? "" : ", ") << "{\"tenant\": \"" << escapeValue(s.tenant)
        << "\", \"name\": \"" << escapeValue(s.name)
        << "\", \"role\": \"" << escapeValue(s.role)
        << "\", \"epoch\": " << s.epoch
        << ", \"priority\": " << s.priority << ", \"weight\": " << s.weight
        << ", \"vtime\": " << s.vtime
        << ", \"tokens_remaining\": " << s.tokensRemaining
        << ", \"queued\": " << s.queued << ", \"applied\": " << s.applied
        << ", \"wal_age_ms\": " << s.walAgeMs
        << ", \"snapshot_age_ms\": " << s.snapshotAgeMs << "}";
  }
  out << "],\n";
  out << "  \"open_sessions\": " << stats.openSessions << ",\n";
  out << "  \"scheduler_depth\": " << stats.schedulerDepth << ",\n";
  out << "  \"scheduler_vtime\": " << stats.schedulerVirtualNow << ",\n";
  const std::string rendered = metrics::toJson(stats.metrics);
  out << "  \"metrics\": " << (rendered.empty() ? "{}" : rendered) << "\n";
  out << "}\n";
}

void renderStatsPrometheus(const service::StatsResponse& stats,
                           std::ostream& out) {
  auto gauge = [&](const std::string& name, const std::string& labels,
                   double value, const char* type = "gauge") {
    out << "# TYPE " << name << " " << type << "\n";
    out << name << labels << " " << value << "\n";
  };
  gauge("rfsm_up", "", 1);
  gauge("rfsm_uptime_seconds", "",
        static_cast<double>(stats.uptimeMs) / 1000.0);
  gauge("rfsm_draining", "", stats.draining ? 1 : 0);
  gauge("rfsm_workers_alive", "",
        static_cast<double>(stats.workers.workersAlive));
  gauge("rfsm_workers_configured", "",
        static_cast<double>(stats.workers.workersConfigured));
  gauge("rfsm_worker_queue_depth", "",
        static_cast<double>(stats.workers.queueDepth));
  gauge("rfsm_plan_cache_enabled", "", stats.planCache.enabled ? 1 : 0);
  gauge("rfsm_plan_cache_size", "",
        static_cast<double>(stats.planCache.size));
  gauge("rfsm_plan_cache_capacity", "",
        static_cast<double>(stats.planCache.capacity));
  gauge("rfsm_open_sessions", "",
        static_cast<double>(stats.openSessions));
  gauge("rfsm_scheduler_depth", "",
        static_cast<double>(stats.schedulerDepth));
  gauge("rfsm_scheduler_vtime", "", stats.schedulerVirtualNow);
  if (!stats.breakers.empty()) {
    out << "# TYPE rfsm_breaker_trips counter\n";
    for (const auto& breaker : stats.breakers)
      out << "rfsm_breaker_trips{name=\"" << escapeValue(breaker.name)
          << "\",state=\"" << breaker.state << "\"} " << breaker.trips
          << "\n";
  }
  if (!stats.sessions.empty()) {
    out << "# TYPE rfsm_session_queued gauge\n";
    for (const auto& s : stats.sessions)
      out << "rfsm_session_queued{tenant=\"" << escapeValue(s.tenant)
          << "\",session=\"" << escapeValue(s.name) << "\"} " << s.queued
          << "\n";
    out << "# TYPE rfsm_session_tokens_remaining gauge\n";
    for (const auto& s : stats.sessions)
      out << "rfsm_session_tokens_remaining{tenant=\""
          << escapeValue(s.tenant) << "\",session=\"" << escapeValue(s.name)
          << "\"} " << s.tokensRemaining << "\n";
    out << "# TYPE rfsm_session_wal_age_ms gauge\n";
    for (const auto& s : stats.sessions)
      out << "rfsm_session_wal_age_ms{tenant=\"" << escapeValue(s.tenant)
          << "\",session=\"" << escapeValue(s.name) << "\"} " << s.walAgeMs
          << "\n";
    out << "# TYPE rfsm_session_epoch gauge\n";
    for (const auto& s : stats.sessions)
      out << "rfsm_session_epoch{tenant=\"" << escapeValue(s.tenant)
          << "\",session=\"" << escapeValue(s.name) << "\",role=\""
          << escapeValue(s.role) << "\"} " << s.epoch << "\n";
  }
  for (const auto& counter : stats.metrics.counters)
    gauge(promName(counter.name) + "_total", "",
          static_cast<double>(counter.value), "counter");
  for (const auto& g : stats.metrics.gauges)
    gauge(promName(g.name), "", static_cast<double>(g.value));
  for (const auto& window : stats.metrics.rolling) {
    const std::string base = promName(window.name);
    gauge(base + "_window_count", "", static_cast<double>(window.count));
    gauge(base + "_window_p50_ms", "", window.p50Ms);
    gauge(base + "_window_p90_ms", "", window.p90Ms);
    gauge(base + "_window_p99_ms", "", window.p99Ms);
  }
}

int cmdStats(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  const auto server = option(args, "--server");
  if (!server.has_value())
    throw CliError(
        "usage: rfsmc stats --server ENDPOINT [--watch] "
        "[--interval-ms MS] [--format table|json|prometheus]");
  const std::string format = option(args, "--format").value_or("table");
  if (format != "table" && format != "json" && format != "prometheus")
    throw CliError("unknown stats format '" + format +
                   "' (table|json|prometheus)");
  const bool watch = flag(args, "--watch");
  const auto interval = std::chrono::milliseconds(
      std::stoll(option(args, "--interval-ms").value_or("2000")));
  const ipc::Endpoint endpoint = ipc::parseEndpoint(*server);

  for (;;) {
    std::optional<std::string> reply;
    try {
      reply = service::exchangeEndpoint(endpoint,
                                        service::encodeStatsRequest(),
                                        /*timeoutMs=*/10000);
    } catch (const ipc::IpcError& error) {
      err << "rfsmc: no planner service at '" << *server << "': "
          << error.what() << "\n";
      return 1;
    }
    if (!reply.has_value()) {
      err << "rfsmc: stats request to '" << *server << "' timed out\n";
      return 1;
    }
    const service::StatsResponse stats =
        service::decodeStatsResponse(*reply);
    if (format == "json")
      renderStatsJson(stats, out);
    else if (format == "prometheus")
      renderStatsPrometheus(stats, out);
    else
      renderStatsTable(stats, out);
    if (!watch) return 0;
    out << "\n";
    out.flush();
    std::this_thread::sleep_for(interval);
  }
}

int cmdTraceDump(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  const auto server = option(args, "--server");
  const auto outFile = option(args, "--out");
  if (!server.has_value() || !outFile.has_value())
    throw CliError("usage: rfsmc trace-dump --server ENDPOINT --out FILE");
  const auto steadyNs = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  service::TraceDumpRequest request;
  const std::int64_t t0 = steadyNs();
  request.clientSteadyNs = t0;
  std::optional<std::string> reply;
  try {
    reply = service::exchangeEndpoint(
        ipc::parseEndpoint(*server),
        service::encodeTraceDumpRequest(request), /*timeoutMs=*/10000);
  } catch (const ipc::IpcError& error) {
    err << "rfsmc: no planner service at '" << *server << "': "
        << error.what() << "\n";
    return 1;
  }
  const std::int64_t t1 = steadyNs();
  if (!reply.has_value()) {
    err << "rfsmc: trace dump request to '" << *server << "' timed out\n";
    return 1;
  }
  const service::TraceDumpResponse response =
      service::decodeTraceDumpResponse(*reply);
  // Clock-offset handshake: the server stamped its CLOCK_MONOTONIC when it
  // built the dump; the midpoint of [t0, t1] is our best estimate of the
  // same instant locally.  Same-host offsets come out ~0 (shared clock).
  const std::int64_t offsetNs = response.serverSteadyNs - (t0 + t1) / 2;
  std::string dump = response.traceJson;
  const std::size_t brace = dump.find('{');
  if (brace == std::string::npos) {
    err << "rfsmc: malformed trace dump from '" << *server << "'\n";
    return 1;
  }
  dump.insert(brace + 1,
              "\"clockOffsetNs\": " + std::to_string(offsetNs) + ", ");
  writeFile(*outFile, dump);
  err << "rfsmc: trace dump from '" << *server << "' written to '"
      << *outFile << "' (clock offset " << offsetNs << " ns)\n";
  (void)out;
  return 0;
}

int cmdSamples(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty()) {
    for (const auto& name : sampleNames()) out << name << "\n";
    return 0;
  }
  out << sampleKiss2(args[0]);
  return 0;
}

int cmdHelp(std::ostream& out) {
  out << "rfsmc - (self-)reconfigurable FSM toolkit\n"
         "usage: rfsmc <command> [args]\n\n"
         "commands:\n"
         "  info <machine>                machine statistics\n"
         "  dot <machine>                 Graphviz graph\n"
         "  convert <machine> --to FMT    json|kiss2\n"
         "  migrate <from> <to>           plan + validate a migration\n"
         "          [--planner jsr|greedy|ea|exact|2opt|anneal|optimal]\n"
         "          [--seed N] [--jobs N] [--table] [--optimize]\n"
         "          [--program-out FILE]  save the program (rfsm-program v1)\n"
         "  inject <from> <to>            migrate under injected faults\n"
         "          [--planner P] [--seed N] [--flips N] [--abort-step K]\n"
         "          [--retries N] [--program FILE] [--journal-out FILE]\n"
         "          exit 0 = verified, 3 = clean rollback\n"
         "  resume <from> <to> --journal FILE   finish a crashed migration\n"
         "  vhdl <from> <to>              emit the Fig. 5 VHDL entity\n"
         "  testbench <from> <to>         emit a self-checking testbench\n"
         "  synth <machine>               two-level logic estimate\n"
         "  plan --random S,I,D,N         plan a batch of seeded random\n"
         "          [--planner jsr|greedy|ea] [--seed N] [--jobs N]\n"
         "          [--deadline-ms MS]    migrations (Table 2 axis)\n"
         "          [--server SOCKET]     via an rfsmd (degrades to local\n"
         "                                planning when unavailable)\n"
         "          [--endpoint E]...     shard across replicated rfsmds\n"
         "                                (unix:/path or tcp:host:port;\n"
         "                                repeatable, or RFSM_ENDPOINTS)\n"
         "          [--hedge-ms MS]       hedge tail shards to a twin\n"
         "          [--quorum K]          byte-compare sampled shards on K\n"
         "                                endpoints, quarantine liars\n"
         "          [--shard-size N]      instances per fabric shard\n"
         "          [--plan-cache N]      memoize plan results, N entries\n"
         "                                (0 = off, the default; overrides\n"
         "                                RFSM_PLAN_CACHE)\n"
         "          [--probe]             health-check the rfsmd\n"
         "          exit 0 = planned, 4 = deadline exceeded\n"
         "  session stream                stream mutations into a resident\n"
         "          (--server E | --local) session on an rfsmd (--local =\n"
         "          --tenant T --name N     the in-process reference run)\n"
         "          --mutations M [--random S,I,O] [--seed N] [--planner P]\n"
         "          [--priority P] [--weight W] [--deltas D]\n"
         "          [--new-states K] [--defer-every E] [--mutation-seed B]\n"
         "          [--resume] [--close] [--retry-for-ms MS]\n"
         "          exit 0 = streamed, 2 = not admitted in time\n"
         "          (repeat --server for failover endpoints: the stream\n"
         "          rotates to a promoted standby when the primary dies)\n"
         "  session status                role (primary|standby), fencing\n"
         "          --server E --tenant T   epoch, and applied frontier of\n"
         "          --name N                one session\n"
         "  stats --server ENDPOINT       live daemon telemetry (workers,\n"
         "          [--watch]             breakers, plan cache, per-tenant\n"
         "          [--interval-ms MS]    session gauges, scheduler vtimes)\n"
         "          [--format table|json|prometheus]\n"
         "  trace-dump --server ENDPOINT  fetch the daemon's span ring as\n"
         "          --out FILE            Chrome-trace JSON (stitch multi-\n"
         "                                process dumps with\n"
         "                                tools/trace_stitch.py)\n"
         "  chain <m1> <m2> [...]         plan a release train + rollbacks\n"
         "  equiv <a> <b> [--symbolic]    behavioural equivalence check\n"
         "  report <from> <to>            one-page migration report\n"
         "  samples [name]                list / dump bundled samples\n\n"
         "machines: path.json | path.kiss2 | sample:<name>\n"
         "global:   --trace-out FILE      write a Chrome trace-event /\n"
         "                                Perfetto JSON profile of the run\n"
         "          (RFSM_TRACE=1 [RFSM_TRACE_OUT=FILE] does the same via\n"
         "          the environment)\n"
         "          --chaos SEED:PROFILE  arm deterministic disk/network\n"
         "                                fault injection (off|disk-light|\n"
         "                                disk-storm|net-light|net-storm|\n"
         "                                repl-light|repl-storm|full;\n"
         "                                RFSM_CHAOS=SEED:PROFILE does\n"
         "                                the same via the environment)\n";
  return 0;
}

}  // namespace

int runCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (trace::processName().empty()) trace::setProcessName("rfsmc");
  if (args.empty() || args[0] == "help" || args[0] == "--help")
    return cmdHelp(out);
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  // --trace-out works on every command: enable tracing for the whole run,
  // dump the buffer when the command finished (even on a failure exit, so
  // the trace shows what led up to the error).
  const std::optional<std::string> traceOut = option(rest, "--trace-out");
  const bool traceWasEnabled = trace::enabled();
  if (traceOut.has_value()) trace::setEnabled(true);
  // --chaos likewise works on every command: the fault plane is armed for
  // the whole run (RFSM_CHAOS provides the same through the environment,
  // which is how forked daemons and workers inherit it).
  bool chaosArmedByFlag = false;
  try {
    if (const auto chaosSpec = option(rest, "--chaos")) {
      chaos::plane().armFromSpec(*chaosSpec);
      chaosArmedByFlag = true;
      err << "rfsmc: chaos armed (seed " << chaos::plane().seed()
          << ", profile '" << chaos::plane().profile().name << "')\n";
    } else if (chaos::plane().armFromEnv()) {
      err << "rfsmc: chaos armed (seed " << chaos::plane().seed()
          << ", profile '" << chaos::plane().profile().name << "')\n";
    }
  } catch (const Error& error) {
    err << "rfsmc: " << error.what() << "\n";
    return 64;
  }
  int code = 1;
  try {
    if (args[0] == "info") code = cmdInfo(rest, out);
    else if (args[0] == "dot") code = cmdDot(rest, out);
    else if (args[0] == "convert") code = cmdConvert(rest, out);
    else if (args[0] == "migrate") code = cmdMigrate(rest, out);
    else if (args[0] == "inject") code = cmdInject(rest, out);
    else if (args[0] == "resume") code = cmdResume(rest, out);
    else if (args[0] == "vhdl") code = cmdVhdl(rest, out);
    else if (args[0] == "testbench") code = cmdTestbench(rest, out);
    else if (args[0] == "synth") code = cmdSynth(rest, out);
    else if (args[0] == "chain") code = cmdChain(rest, out);
    else if (args[0] == "equiv") code = cmdEquiv(rest, out);
    else if (args[0] == "report") code = cmdReport(rest, out);
    else if (args[0] == "samples") code = cmdSamples(rest, out);
    else if (args[0] == "plan") code = cmdPlan(rest, out, err);
    else if (args[0] == "stats") code = cmdStats(rest, out, err);
    else if (args[0] == "trace-dump") code = cmdTraceDump(rest, out, err);
    else if (args[0] == "session") code = cmdSession(rest, out, err);
    else {
      err << "rfsmc: unknown command '" << args[0] << "' (try rfsmc help)\n";
      code = 64;
    }
  } catch (const Error& error) {
    err << "rfsmc: " << error.what() << "\n";
    code = 1;
  } catch (const std::exception& error) {
    // E.g. std::stoi on a non-numeric --seed/--jobs value; a malformed
    // argument must not abort the process.
    err << "rfsmc: invalid argument (" << error.what() << ")\n";
    code = 1;
  }
  if (traceOut.has_value()) {
    if (!trace::writeFile(*traceOut))
      err << "rfsmc: cannot write trace to '" << *traceOut << "'\n";
    // Restore for embedders (tests drive runCli repeatedly in-process);
    // an environment-enabled tracer stays on.
    if (!traceWasEnabled) trace::setEnabled(false);
  }
  // Same restore rule as tracing: a flag-armed plane is scoped to this
  // command; an environment-armed one stays on for the process.
  if (chaosArmedByFlag) chaos::plane().disarm();
  return code;
}

}  // namespace rfsm::cli
