/**
 * @file
 * statscc — the STATS command-line driver. Every offline job is one
 * subcommand; the serving daemon is `statsd`.
 *
 * Subcommands:
 *   list                          benchmarks, tradeoffs, state spaces
 *   run <benchmark> [options]     run one configuration
 *   trace <benchmark> [options]   run with tracing on and print the
 *                                 event table, summary, and scheduler
 *                                 footer
 *   tune <benchmark> [options]    autotune; optional results store
 *   frontend <file|benchmark>     run the front-end compiler
 *   pipeline <ir-file> [options]  middle-end + back-end on an IR file
 *   analyze <ir-file>... [opts]   speculation-safety static analysis
 *   disasm <ir-file> [options]    compile to bytecode and disassemble
 *   fuzz [options]                generative differential testing
 *   fuzz <case-file>...           re-run the oracle on saved cases
 *   fuzz gen --index=I            print one generated case
 *   fuzz shrink <case> [--out=F]  minimize a failing case
 *   log inspect <log>             header, metadata, record listing
 *   log diff <a> <b>              first differing record (exit 1)
 *
 * Each subcommand accepts only its own options; an unknown option is
 * a usage error.
 *
 * Execution-tier options (see docs/INTERPRETER.md):
 *   --exec-tier=ast|bytecode|auto tier for executing getValue() and
 *                                 fuzz transitions (default auto)
 *   --function=NAME               disasm: one function only
 *   --midend                      disasm: run the middle-end first
 *
 * Fuzzing options (see docs/TESTING.md):
 *   --seed=N                  campaign root seed         (default 1)
 *   --runs=N                  generated cases            (default 500)
 *   --artifacts=DIR           failure artifacts ("" = none)
 *                             (default fuzz-artifacts)
 *   --case=FILE               replay one case file instead
 *   --near-miss-every=N       every Nth case must be rejected
 *   --faults-every=N          every Nth case gets a fault storm
 *   --max-inputs=N            cap generated input counts
 *   --no-shrink               keep failing cases unminimized
 *   --shrink-evals=N          shrinker oracle budget     (default 400)
 *   --max-failures=N          stop after N failures      (default 8)
 *   --no-analysis             skip the static-analysis stage
 *   --verbose                 log every case, not only failures
 *   --index=I                 gen: the case index        (default 0)
 *   --out=FILE                shrink: write the minimized case
 *
 * Analysis options (see docs/ANALYSIS.md):
 *   --analyze[=pass]          pass to run: verify, purity,
 *                             clone-audit, freeze, escape, range,
 *                             bytecode-verify           (default all)
 *   --analysis-format=FMT     text|json                 (default text)
 *   --midend                  analyze: run the middle-end first
 *   --quiet                   analyze: print nothing for clean modules
 *
 * Common options:
 *   --mode=original|seq|par   parallelization mode      (default par)
 *   --threads=N               hardware threads          (default 28)
 *   --workload=rep|bad        input family              (default rep)
 *   --budget=N                tuning evaluations        (default 60)
 *   --objective=time|energy   tuning objective          (default time)
 *   --db=FILE                 results store to reuse/update
 *   --seed=N                  root seed; derives the workload, run,
 *                             and tuner streams via SeedSequence
 *                             (0 = entropy)
 *
 * Record/replay + fault injection (run/tune; the run session shared
 * with the figure harnesses, replay/run_session.hpp; docs/REPLAY.md):
 *   --record=FILE             record the engine's nondeterministic
 *                             choice points to a replayable log
 *   --replay=FILE             re-drive the engine from a recorded
 *                             log; exits 1 on the first divergence
 *   --faults=PLAN             inject faults (spec string or file;
 *                             grammar in docs/REPLAY.md §4)
 *   --limit=N                 log inspect: records listed (default
 *                             64; 0 = all)
 *   --run=R                   log inspect: one engine run only
 *
 * Observability (run/tune/trace; see docs/OBSERVABILITY.md):
 *   --trace=FILE              record speculation events, export a
 *                             chrome://tracing JSON to FILE
 *   --metrics=FILE            dump the trace-derived metrics JSON
 *   --snapshots=FILE          tune: per-configuration profiler
 *                             snapshots (JSON)
 *   --audit=FILE              tune: the autotuner's decision trail
 *   --limit=N                 trace: event rows printed (default 64;
 *                             0 = all)
 *   --events=all|engine|sched trace: event-row filter  (default all)
 *   --chrome=FILE             trace: also write chrome://tracing JSON
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "autotuner/results_io.hpp"
#include "backend/backend.hpp"
#include "observability/summary.hpp"
#include "observability/trace.hpp"
#include "benchmarks/common/benchmark.hpp"
#include "benchmarks/common/extended_sources.hpp"
#include "frontend/frontend.hpp"
#include "ir/bytecode_verifier.hpp"
#include "ir/disasm.hpp"
#include "ir/exec_tier.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "midend/midend.hpp"
#include "profiler/profiler.hpp"
#include "replay/log_render.hpp"
#include "replay/record_log.hpp"
#include "replay/run_session.hpp"
#include "support/cli_args.hpp"
#include "support/log.hpp"
#include "support/seed_sequence.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"
#include "testing/fuzzer.hpp"

namespace {

using namespace stats;
using namespace stats::benchmarks;
using support::CliArgs;

replay::RecordLog
loadLog(const std::string &path)
{
    std::string error;
    auto log = replay::RecordLog::loadFile(path, error);
    if (!log)
        support::fatal(path, ": ", error);
    return std::move(*log);
}

Mode
parseMode(const std::string &word)
{
    if (word == "original")
        return Mode::Original;
    if (word == "seq")
        return Mode::SeqStats;
    if (word == "par")
        return Mode::ParStats;
    support::fatal("unknown mode '", word,
                   "' (expected original|seq|par)");
}

WorkloadKind
parseWorkload(const std::string &word)
{
    if (word == "rep")
        return WorkloadKind::Representative;
    if (word == "bad")
        return WorkloadKind::NonRepresentative;
    support::fatal("unknown workload '", word, "' (expected rep|bad)");
}

/**
 * The benchmark named on the command line; on replay without one, the
 * benchmark the recording names.
 */
std::unique_ptr<Benchmark>
benchmarkFrom(const CliArgs &args, const replay::RunSession &session,
              const char *command)
{
    const std::string name = !args.positional().empty()
                                 ? args.positional()[0]
                                 : session.recorded(args, "benchmark", "");
    if (name.empty())
        support::fatal("usage: statscc ", command, " <benchmark> [options]");
    return createBenchmark(name);
}

/**
 * The mode, threads, and workload of `run`, `trace` and `tune`. On
 * replay the recording supplies any option the command line omits.
 */
RunRequest
parseRunRequest(const CliArgs &args, const replay::RunSession &session)
{
    RunRequest request;
    request.mode = parseMode(session.recorded(args, "mode", "par"));
    request.threads = support::intValue(
        "threads", session.recorded(args, "threads", "28"), 1);
    request.workload =
        parseWorkload(session.recorded(args, "workload", "rep"));
    return request;
}

/** One root seed drives every stream (docs/REPLAY.md §1). */
void
applyRootSeed(RunRequest &request, std::uint64_t root_seed)
{
    if (root_seed == 0)
        return;
    const support::SeedSequence seeds(root_seed);
    request.workloadSeed = seeds.derive("workload");
    request.runSeed = seeds.derive("run");
}

int
cmdList(const CliArgs &)
{
    support::TextTable table({"benchmark", "tradeoffs", "state deps",
                              "state-space points (28 threads)"});
    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const auto frontend_result = frontend::compileExtendedSource(
            extendedSourceFor(name), name);
        std::ostringstream points;
        points << bench->stateSpace(28).totalPoints();
        table.addRow({name, std::to_string(bench->tradeoffCount()),
                      std::to_string(frontend_result.stateDeps.size()),
                      points.str()});
    }
    table.print(std::cout);
    return 0;
}

int
cmdRun(const CliArgs &args)
{
    replay::RunSession session(args);
    auto bench = benchmarkFrom(args, session, "run");

    RunRequest request = parseRunRequest(args, session);
    const std::uint64_t root_seed = session.start(0);
    applyRootSeed(request, root_seed);
    session.setMetadata("benchmark", bench->name());
    session.setMetadata("mode", args.get("mode", "par"));
    session.setMetadata("threads", std::to_string(request.threads));
    session.setMetadata("workload", args.get("workload", "rep"));
    session.setMetadata("seed", std::to_string(root_seed));

    const RunResult result = bench->run(request);
    const auto oracle =
        bench->oracleSignature(request.workload, request.workloadSeed);

    std::cout << bench->name() << " [" << modeName(request.mode) << ", "
              << request.threads << " threads]\n";
    std::cout << "  time:    " << result.virtualSeconds << " s\n";
    std::cout << "  energy:  " << result.energyJoules << " J\n";
    std::cout << "  quality: "
              << bench->quality(result.signature, oracle)
              << " (distance to oracle; lower is better)\n";
    const auto &stats = result.engineStats;
    std::cout << "  engine:  groups=" << stats.groups
              << " commits=" << stats.validations
              << " mismatches=" << stats.mismatches
              << " re-execs=" << stats.reexecutions
              << " aborts=" << stats.aborts
              << " extra-work=" << 100.0 * stats.extraWorkFraction()
              << "%\n";
    return session.finish();
}

std::string
trackName(std::int32_t track)
{
    if (track == obs::kFrontierTrack)
        return "frontier";
    return "exec " + std::to_string(track);
}

/** Park and commit-lane activity at a glance. */
void
printSchedulerFooter(const std::vector<obs::Event> &events)
{
    std::size_t parks = 0;
    std::size_t unparks = 0;
    std::size_t lane_enqueues = 0;
    for (const auto &event : events) {
        switch (event.type) {
          case obs::EventType::WorkerPark:   ++parks;   break;
          case obs::EventType::WorkerUnpark: ++unparks; break;
          case obs::EventType::CommitLaneEnqueue:
            ++lane_enqueues;
            break;
          default: break;
        }
    }
    // Real-thread runs only; simulated runs legitimately show zeros.
    std::cout << "\nscheduler: " << parks << " parks, " << unparks
              << " unparks, " << lane_enqueues
              << " commit-lane enqueues\n";
}

int
cmdTrace(const CliArgs &args)
{
    if (args.positional().size() != 1)
        support::fatal("usage: statscc trace <benchmark> [options]");
    auto bench = createBenchmark(args.positional()[0]);
    const std::string filter = args.get("events", "all");
    if (filter != "all" && filter != "engine" && filter != "sched")
        support::fatal("unknown --events '", filter,
                       "' (expected all|engine|sched)");
    const auto limit =
        static_cast<std::size_t>(args.getInt("limit", 64, 0));
    replay::RunSession session(args);
    RunRequest request = parseRunRequest(args, session);
    applyRootSeed(request, session.start(0));

    replay::enableTrace("statscc trace needs");
    const RunResult result = bench->run(request);
    const replay::TraceCapture trace = replay::TraceCapture::collect();
    const auto &events = trace.events;

    std::cout << bench->name() << " [" << modeName(request.mode) << ", "
              << request.threads << " threads]: " << events.size()
              << " events, " << result.virtualSeconds << " s virtual\n\n";
    support::TextTable table(
        {"seq", "event", "group", "inputs", "track", "t (s)", "arg"});
    std::size_t printed = 0;
    std::size_t filtered = 0;
    for (const auto &event : events) {
        const bool sched = obs::isSchedulerEvent(event.type);
        if ((filter == "engine" && sched) ||
            (filter == "sched" && !sched)) {
            ++filtered;
            continue;
        }
        if (limit != 0 && printed == limit)
            break;
        std::ostringstream inputs;
        inputs << "[" << event.inputBegin << ", " << event.inputEnd
               << ")";
        table.addRow({std::to_string(event.seq),
                      obs::eventTypeName(event.type),
                      std::to_string(event.group), inputs.str(),
                      trackName(event.track),
                      support::TextTable::formatDouble(event.ts, 6),
                      std::to_string(event.arg)});
        ++printed;
    }
    table.print(std::cout);
    if (limit != 0 && events.size() - filtered > limit)
        std::cout << "... " << events.size() - filtered - limit
                  << " more events (raise with --limit=N, 0 = all)\n";
    if (filtered > 0)
        std::cout << "(" << filtered << " events hidden by --events="
                  << filter << ")\n";
    std::cout << "\n";
    obs::printSummaryTable(std::cout, trace.summary);
    printSchedulerFooter(events);

    const std::string chrome_path = args.get("chrome", "");
    if (!chrome_path.empty())
        trace.writeChrome(chrome_path);
    return session.finish();
}

int
cmdTune(const CliArgs &args)
{
    replay::RunSession session(args);
    auto bench = benchmarkFrom(args, session, "tune");

    const RunRequest request = parseRunRequest(args, session);
    const int budget = support::intValue(
        "budget", session.recorded(args, "budget", "60"));
    const std::string objective_name =
        session.recorded(args, "objective", "time");
    const auto objective = objective_name == "energy"
                               ? profiler::Objective::Energy
                               : profiler::Objective::Time;
    const std::string db_path = args.get("db", "");

    const std::uint64_t root_seed = session.start(1);
    const support::SeedSequence seeds(root_seed);
    session.setMetadata("benchmark", bench->name());
    session.setMetadata("command", "tune");
    session.setMetadata("mode", args.get("mode", "par"));
    session.setMetadata("threads", std::to_string(request.threads));
    session.setMetadata("budget", std::to_string(budget));
    session.setMetadata("workload", args.get("workload", "rep"));
    session.setMetadata("objective", objective_name);
    session.setMetadata("seed", std::to_string(root_seed));

    sim::MachineConfig machine;
    profiler::Profiler profiler(
        *bench, request.mode, request.threads, machine, request.workload,
        /*workload_seed=*/1, /*repetitions=*/2,
        root_seed == 0 ? 0 : seeds.derive("run"));
    autotuner::Autotuner tuner(bench->stateSpace(request.threads),
                               seeds.derive("tuner"));

    // Reuse a previous exploration of the same objective, if any.
    if (!db_path.empty()) {
        std::ifstream in(db_path);
        if (in) {
            tuner.preload(
                autotuner::readResults(in, tuner.space()));
            std::cout << "loaded " << tuner.results().size()
                      << " profiled configurations from " << db_path
                      << "\n";
        }
    }

    const auto result =
        tuner.tune(profiler.objectiveFunction(objective), budget);
    const auto best = profiler.profile(result.best);

    std::cout << "evaluated " << result.evaluations
              << " new configurations (space: "
              << tuner.space().totalPoints() << " points)\n";
    std::cout << "best: " << tuner.space().describe(result.best) << "\n";
    std::cout << "  time " << best.seconds << " s, energy "
              << best.energyJoules << " J, quality " << best.quality
              << "\n";

    if (!db_path.empty()) {
        std::ofstream out(db_path);
        autotuner::writeResults(out, tuner.space(), tuner.results());
        std::cout << "stored " << tuner.results().size()
                  << " configurations to " << db_path << "\n";
    }

    const std::string snapshots_path = args.get("snapshots", "");
    if (!snapshots_path.empty()) {
        std::ofstream out(snapshots_path);
        if (!out)
            support::fatal("cannot open '", snapshots_path, "'");
        profiler.writeSnapshotsJson(out, tuner.space());
        std::cout << "wrote " << profiler.snapshots().size()
                  << " configuration snapshots to " << snapshots_path
                  << "\n";
    }
    const std::string audit_path = args.get("audit", "");
    if (!audit_path.empty()) {
        std::ofstream out(audit_path);
        if (!out)
            support::fatal("cannot open '", audit_path, "'");
        result.writeAuditJson(out, tuner.space());
        std::cout << "wrote " << result.audit.size()
                  << " audit entries to " << audit_path << "\n";
    }
    return session.finish();
}

int
cmdFrontend(const CliArgs &args)
{
    if (args.positional().empty())
        support::fatal("usage: statscc frontend <file|benchmark>");
    const std::string &target = args.positional()[0];

    std::string source;
    std::string unit = target;
    std::ifstream in(target);
    if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        source = buffer.str();
        const auto slash = unit.find_last_of('/');
        if (slash != std::string::npos)
            unit = unit.substr(slash + 1);
    } else {
        source = extendedSourceFor(target); // Embedded encodings.
    }

    const auto result = frontend::compileExtendedSource(source, unit);
    std::cout << "// " << result.tradeoffs.size() << " tradeoff(s), "
              << result.stateDeps.size() << " state dependence(s), "
              << result.originalLoc << " LOC in, "
              << result.generatedLoc << " LOC generated\n\n";
    std::cout << "// ---- generated header ----\n"
              << result.generatedHeader << "\n";
    std::cout << "// ---- IR metadata ----\n" << result.irMetadata;
    return 0;
}

/** Read and parse one textual IR file. */
ir::Module
loadModule(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        support::fatal("cannot open '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return ir::parseModule(buffer.str());
}

/** The IR file named by the first positional, parsed. */
ir::Module
loadModule(const CliArgs &args, const char *usage_line)
{
    if (args.positional().empty())
        support::fatal("usage: ", usage_line);
    return loadModule(args.positional()[0]);
}

/** Selected analysis pass from `--analyze[=pass]` ("" = all). */
std::string
analysisPass(const CliArgs &args)
{
    const std::string pass = args.get("analyze", "");
    if (pass.empty() || pass == "true")
        return "";
    if (!analysis::isPassName(pass)) {
        std::string known;
        for (const auto &name : analysis::passNames()) {
            if (!known.empty())
                known += '|';
            known += name;
        }
        support::fatal("unknown analysis pass '", pass, "' (expected ",
                       known, ")");
    }
    return pass;
}

/**
 * Run the analyzer and render its findings (nothing when `quiet` and
 * the module is clean); returns whether any error was found.
 */
bool
analyzeModule(const ir::Module &module, const std::string &file,
              const CliArgs &args, std::ostream &out,
              bool quiet = false)
{
    const std::string format = args.get("analysis-format", "text");
    if (format != "text" && format != "json")
        support::fatal("unknown --analysis-format '", format,
                       "' (expected text|json)");
    analysis::LintOptions options;
    options.pass = analysisPass(args);
    options.bytecodeVerifier = ir::bc::verifyCompiledModule;
    const auto diags = analysis::runAnalyses(module, options);
    if (quiet && diags.empty())
        return false;
    if (format == "json")
        analysis::writeDiagnosticsJson(out, module.name, file, diags);
    else
        analysis::writeDiagnosticsText(out, file, diags);
    return analysis::hasErrors(diags);
}

int
cmdAnalyze(const CliArgs &args)
{
    const auto &files = args.positional();
    if (files.empty())
        support::fatal("usage: statscc analyze <ir-file>... [options]");
    const bool quiet = args.has("quiet");
    std::size_t failed = 0;
    for (const auto &file : files) {
        ir::Module module = loadModule(file);
        if (args.has("midend"))
            midend::runMiddleEnd(module);
        if (analyzeModule(module, file, args, std::cout, quiet))
            ++failed;
    }
    if (files.size() > 1 && !quiet) {
        std::cout << failed << " of " << files.size()
                  << " module(s) failed\n";
    }
    return failed == 0 ? 0 : 1;
}

/** Parse `--exec-tier=` (docs/INTERPRETER.md §6). */
ir::ExecTier
execTierOption(const CliArgs &args)
{
    const std::string word = args.get("exec-tier", "auto");
    const auto tier = ir::parseExecTier(word);
    if (!tier)
        support::fatal("unknown --exec-tier '", word,
                       "' (expected ast|bytecode|auto)");
    return *tier;
}

int
cmdDisasm(const CliArgs &args)
{
    ir::Module module =
        loadModule(args, "statscc disasm <ir-file> [options]");
    const auto problems = ir::verifyModule(module);
    if (!problems.empty()) {
        for (const auto &problem : problems)
            std::cerr << "verify: " << problem << "\n";
        return 1;
    }
    if (args.has("midend"))
        midend::runMiddleEnd(module);
    const ir::bc::BcModule bytecode = ir::bc::compileModule(module);
    const std::string fn_name = args.get("function", "");
    if (!fn_name.empty()) {
        const ir::bc::BcFunction *fn = bytecode.find(fn_name);
        if (!fn)
            support::fatal("disasm: unknown function @", fn_name);
        std::cout << ir::bc::disassemble(*fn);
    } else {
        std::cout << ir::bc::disassemble(bytecode);
    }
    return 0;
}

int
cmdPipeline(const CliArgs &args)
{
    ir::Module module =
        loadModule(args, "statscc pipeline <ir-file> [options]");
    const auto problems = ir::verifyModule(module);
    if (!problems.empty()) {
        for (const auto &problem : problems)
            std::cerr << "verify: " << problem << "\n";
        return 1;
    }

    const std::size_t before = module.instructionCount();
    const auto report = midend::runMiddleEnd(module);
    std::cerr << "; middle-end: " << report.clonedFunctions.size()
              << " function clone(s), " << report.clonedTradeoffs.size()
              << " tradeoff clone(s), " << before << " -> "
              << module.instructionCount() << " instructions\n";

    // Optional speculation-safety gate on the middle-end output.
    if (args.has("analyze")) {
        if (analyzeModule(module, args.positional()[0], args, std::cerr))
            return 1;
    }

    const std::string emit = args.get("emit", "binary");
    if (emit == "midend") {
        std::cout << ir::printModule(module);
        return 0;
    }
    if (emit != "binary")
        support::fatal("unknown --emit '", emit,
                       "' (expected midend|binary)");

    backend::BackendConfig config;
    config.execTier = execTierOption(args);
    for (const auto &dep : module.stateDeps)
        config.auxiliaryDeps.insert(dep.name);
    const std::string assignments = args.get("config", "");
    if (!assignments.empty()) {
        for (const auto &pair : support::split(assignments, ',')) {
            // Last colon: post-midend tradeoff names are themselves
            // namespace-qualified (aux::T_42).
            const auto colon = pair.rfind(':');
            if (colon == std::string::npos)
                support::fatal("--config wants name:index pairs");
            config.tradeoffIndices[pair.substr(0, colon)] =
                support::intValue("config", pair.substr(colon + 1));
        }
    }
    const backend::Executable executable =
        backend::instantiateExecutable(module, config);
    std::cerr << "; back-end: tier "
              << ir::execTierName(config.execTier) << ", "
              << executable.exec->bytecode().compiledCount() << "/"
              << executable.module->functions.size()
              << " function(s) compiled to bytecode\n";
    std::cout << ir::printModule(*executable.module);
    return 0;
}

testing::CampaignOptions
campaignOptions(const CliArgs &args)
{
    testing::CampaignOptions options;
    options.seed = args.getU64("seed", 1);
    options.runs = args.getInt("runs", 500, 1);
    options.artifactsDir = args.get("artifacts", "fuzz-artifacts");
    auto &generator = options.generator;
    generator.nearMissEvery =
        args.getInt("near-miss-every", generator.nearMissEvery);
    generator.faultsEvery =
        args.getInt("faults-every", generator.faultsEvery);
    generator.maxInputs = args.getInt("max-inputs", generator.maxInputs);
    options.shrink = !args.has("no-shrink");
    options.shrinkEvaluations = args.getInt("shrink-evals", 400);
    options.maxFailures = args.getInt("max-failures", 8);
    options.verbose = args.has("verbose");
    options.oracle.runAnalysis = !args.has("no-analysis");
    options.oracle.execTier = execTierOption(args);
    return options;
}

int
fuzzShrink(const CliArgs &args, const testing::CampaignOptions &campaign)
{
    if (args.positional().size() != 2)
        support::fatal("usage: statscc fuzz shrink <case-file> "
                       "[--out=FILE]");
    const std::string &path = args.positional()[1];
    std::string error;
    const auto loaded = testing::loadCaseFile(path, error);
    if (!loaded)
        support::fatal("cannot load '", path, "': ", error);

    testing::ShrinkOptions shrink;
    shrink.maxEvaluations = campaign.shrinkEvaluations;
    shrink.oracle = campaign.oracle;
    const auto result = testing::shrinkCase(*loaded, shrink);
    if (result.failKind.empty()) {
        std::cerr << "case does not fail the oracle; nothing to shrink\n";
        return 1;
    }
    std::cerr << "; shrunk in " << result.evaluations
              << " oracle evaluation(s), failure kind '"
              << result.failKind << "'\n";

    const std::string text = testing::serializeCase(result.minimized);
    const std::string out_path = args.get("out", "");
    if (out_path.empty()) {
        std::cout << text;
        return 0;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        support::fatal("cannot write '", out_path, "'");
    out << text;
    std::cerr << "; wrote " << out_path << "\n";
    return 0;
}

int
cmdFuzz(const CliArgs &args)
{
    const testing::CampaignOptions options = campaignOptions(args);
    const std::string stage =
        args.positional().empty() ? "" : args.positional()[0];
    if (stage == "gen") {
        std::cout << testing::serializeCase(testing::generateCase(
            options.seed, args.getU64("index", 0), options.generator));
        return 0;
    }
    if (stage == "shrink")
        return fuzzShrink(args, options);

    // Corpus-replay mode: re-run the oracle on saved case files.
    std::vector<std::string> cases = args.positional();
    for (const auto &path : args.getAll("case"))
        cases.push_back(path);
    if (cases.empty())
        return testing::runCampaign(options, std::cout).ok() ? 0 : 1;
    int failed = 0;
    for (const auto &path : cases) {
        if (!testing::replayCaseFile(path, options.oracle, std::cout).ok)
            ++failed;
    }
    return failed == 0 ? 0 : 1;
}

int
logInspect(const replay::RecordLog &log, const CliArgs &args)
{
    std::printf("schema version : %llu\n",
                static_cast<unsigned long long>(
                    replay::kLogSchemaVersion));
    std::printf("root seed      : %llu\n",
                static_cast<unsigned long long>(log.rootSeed));
    std::printf("engine runs    : %u\n", log.runCount());
    std::printf("records        : %zu\n", log.records.size());
    for (const auto &entry : log.metadata) {
        std::printf("meta %-10s: %s\n", entry.first.c_str(),
                    entry.second.c_str());
    }

    const long limit = args.getInt("limit", 64, 0);
    const long run_filter = args.getInt("run", -1, 0);
    long printed = 0;
    long skipped = 0;
    for (const auto &record : log.records) {
        if (run_filter >= 0 &&
            record.run != static_cast<std::uint32_t>(run_filter)) {
            continue;
        }
        if (limit != 0 && printed >= limit) {
            ++skipped;
            continue;
        }
        std::fputs(replay::renderRecord(record).c_str(), stdout);
        ++printed;
    }
    if (skipped > 0) {
        std::printf("  ... %ld more (raise --limit or use --run)\n",
                    skipped);
    }
    return 0;
}

int
cmdLog(const CliArgs &args)
{
    const auto &words = args.positional();
    const std::string verb = words.empty() ? "" : words[0];
    if (verb == "inspect" && words.size() == 2)
        return logInspect(loadLog(words[1]), args);
    if (verb == "diff" && words.size() == 3) {
        const replay::DiffRender render =
            replay::renderDiff(loadLog(words[1]), loadLog(words[2]));
        std::fputs(render.text.c_str(), stdout);
        return render.identical ? 0 : 1;
    }
    support::fatal("usage: statscc log inspect <log> [--limit=N] "
                   "[--run=R] | statscc log diff <a> <b>");
}

/** One subcommand: its usage line, handler, and accepted options. */
struct Command
{
    const char *name;
    const char *arguments;
    const char *summary;
    int (*run)(const CliArgs &);
    std::vector<std::string> options;
};

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"list", "", "benchmarks and state spaces", cmdList, {}},
        {"run", "<benchmark> [options]", "run one configuration", cmdRun,
         {"mode", "threads", "workload", "seed", "record", "replay",
          "faults", "trace", "metrics"}},
        {"trace", "<benchmark> [options]", "run and print its events",
         cmdTrace,
         {"mode", "threads", "workload", "seed", "limit", "events",
          "chrome"}},
        {"tune", "<benchmark> [options]", "autotune a benchmark",
         cmdTune,
         {"mode", "threads", "workload", "seed", "budget", "objective",
          "db", "record", "replay", "faults", "trace", "metrics",
          "snapshots", "audit"}},
        {"frontend", "<file|benchmark>", "run the front-end compiler",
         cmdFrontend, {}},
        {"pipeline", "<ir-file>", "middle-end + back-end", cmdPipeline,
         {"analyze", "analysis-format", "emit", "exec-tier", "config"}},
        {"analyze", "<ir-file>...", "speculation-safety checks",
         cmdAnalyze, {"analyze", "analysis-format", "midend", "quiet"}},
        {"disasm", "<ir-file>", "bytecode disassembly", cmdDisasm,
         {"function", "midend"}},
        {"fuzz", "[case...|gen|shrink]", "differential testing",
         cmdFuzz,
         {"seed", "runs", "artifacts", "case", "near-miss-every",
          "faults-every", "max-inputs", "no-shrink", "shrink-evals",
          "max-failures", "no-analysis", "verbose", "exec-tier",
          "index", "out"}},
        {"log", "inspect|diff <log>...", "record/replay logs", cmdLog,
         {"limit", "run"}},
    };
    return table;
}

void
usage()
{
    std::cerr << "usage: statscc <command> [arguments]\n"
              << "commands:\n";
    for (const auto &command : commands()) {
        const std::string head =
            std::string(command.name) + " " + command.arguments;
        std::cerr << "  " << head
                  << std::string(head.size() < 29 ? 29 - head.size() : 1,
                                 ' ')
                  << command.summary << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc < 2 ? "" : argv[1];
    for (const auto &command : commands()) {
        if (name != command.name)
            continue;
        const CliArgs args(argc, argv, 2);
        if (const auto unknown = args.unknownOption(command.options)) {
            std::cerr << "statscc " << name << ": unknown option --"
                      << *unknown << "\n";
            usage();
            return 1;
        }
        return command.run(args);
    }
    usage();
    return 1;
}
