/**
 * @file
 * stats-cli — client for the statsd serving daemon (docs/SERVING.md).
 *
 * Subcommands:
 *   submit <plan.txt>     submit a text-form ExecutionPlan
 *                         (`-` reads stdin; --binary sends the file's
 *                         bytes as the wire form unchanged;
 *                         --no-cache bypasses the server's result
 *                         cache for this request)
 *   status <id>           request lifecycle state
 *   result <id>           final result: state, summary numbers, and
 *                         the FNV-1a digest of the result bytes
 *                         (--blob=FILE writes the raw bytes)
 *   replay-fetch <id>     RecordLog captured while serving the
 *                         request (--out=FILE, default <id>.rec)
 *   drain                 drain the daemon and shut it down
 *
 * Common option: --socket=PATH (default statsd.sock).
 *
 * Exit codes: 0 success; 2 graceful backpressure rejection
 * (quota/queue/draining); 1 anything else.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "replay/record_log.hpp"
#include "serving/client.hpp"
#include "serving/execution_plan.hpp"
#include "support/cli_args.hpp"

using namespace stats;
using support::CliArgs;

namespace {

void
usage()
{
    std::cerr
        << "usage: stats-cli <command> [--socket=PATH] [arguments]\n"
        << "commands:\n"
        << "  submit <plan.txt|-> [--binary] [--no-cache]\n"
        << "                                   submit a plan\n"
        << "  status <id>                      request state\n"
        << "  result <id> [--blob=FILE]        finished result\n"
        << "  replay-fetch <id> [--out=FILE]   served RecordLog\n"
        << "  drain                            drain + shut down\n";
}

bool
readInput(const std::string &path, std::string &contents)
{
    if (path == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        contents = buffer.str();
        return true;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
    return true;
}

int
fail(const std::string &message)
{
    std::cerr << "stats-cli: " << message << "\n";
    return 1;
}

std::uint64_t
parseId(const CliArgs &args)
{
    if (args.positional().empty()) {
        usage();
        std::exit(1);
    }
    const std::string &word = args.positional()[0];
    if (const auto id = support::parseU64(word))
        return *id;
    std::exit(fail("bad request id '" + word + "'"));
}

int
cmdSubmit(serving::Client &client, const CliArgs &args)
{
    if (args.positional().empty()) {
        usage();
        return 1;
    }
    std::string contents;
    if (!readInput(args.positional()[0], contents))
        return fail("cannot read '" + args.positional()[0] + "'");

    std::string wire;
    if (args.has("binary")) {
        wire = contents;
    } else {
        std::string error;
        auto plan = serving::ExecutionPlan::fromText(contents, error);
        if (!plan)
            return fail("plan: " + error);
        if (args.has("no-cache"))
            plan->noCache = true;
        wire = plan->saveToString();
    }

    serving::AdmissionVerdict verdict;
    std::string error;
    const auto request_id = client.submit(wire, verdict, error);
    if (request_id) {
        std::cout << "request " << *request_id << "\n";
        return 0;
    }
    if (!error.empty())
        return fail(error);
    std::cerr << "rejected " << rejectReasonName(verdict.reason)
              << ": " << verdict.detail;
    if (verdict.retryAfterSeconds > 0.0)
        std::cerr << " (retry after " << verdict.retryAfterSeconds
                  << " s)";
    std::cerr << "\n";
    return serving::isBackpressure(verdict.reason) ? 2 : 1;
}

int
cmdStatus(serving::Client &client, const CliArgs &args)
{
    std::string tenant;
    std::string error;
    const auto state = client.status(parseId(args), tenant, error);
    if (!state)
        return fail(error);
    std::cout << serving::requestStateName(*state);
    if (!tenant.empty())
        std::cout << " tenant=" << tenant;
    std::cout << "\n";
    return 0;
}

int
cmdResult(serving::Client &client, const CliArgs &args)
{
    std::string error;
    const auto status = client.result(parseId(args), error);
    if (!status)
        return fail(error);
    std::cout << serving::requestStateName(status->state);
    if (status->state == serving::RequestState::Failed)
        std::cout << " error=\"" << status->result.error << "\"";
    if (status->state == serving::RequestState::Done ||
        status->state == serving::RequestState::Failed) {
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(
                          replay::fnv1a(status->result.resultBlob)));
        std::cout << " final-state=" << status->result.finalState
                  << " invocations=" << status->result.invocations
                  << " lanes=" << status->result.batchedLanes
                  << " blob-bytes=" << status->result.resultBlob.size()
                  << " blob-fnv1a=" << digest;
    }
    std::cout << "\n";
    const std::string blob_path = args.get("blob", "");
    if (!blob_path.empty()) {
        std::ofstream out(blob_path, std::ios::binary);
        if (!out)
            return fail("cannot open '" + blob_path + "'");
        out << status->result.resultBlob;
    }
    return status->state == serving::RequestState::Done ? 0 : 1;
}

int
cmdReplayFetch(serving::Client &client, const CliArgs &args)
{
    const std::uint64_t request_id = parseId(args);
    std::string error;
    const auto log = client.replayFetch(request_id, error);
    if (!log)
        return fail(error);
    if (log->empty())
        return fail("request " + std::to_string(request_id) +
                    " has no record log (not finished, unknown, or "
                    "record-choices off)");
    const std::string out_path =
        args.get("out", std::to_string(request_id) + ".rec");
    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        return fail("cannot open '" + out_path + "'");
    out << *log;
    std::cout << "wrote " << log->size() << " bytes to " << out_path
              << "\n";
    return 0;
}

int
cmdDrain(serving::Client &client)
{
    std::string error;
    const auto completed = client.drain(error);
    if (!completed)
        return fail(error);
    std::cout << "drained; " << *completed
              << " request(s) completed\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    const CliArgs args(argc, argv, 2);

    const bool known = command == "submit" || command == "status" ||
                       command == "result" ||
                       command == "replay-fetch" ||
                       command == "drain";
    if (!known || args.unknownOption({"socket", "binary", "no-cache",
                                      "blob", "out"})) {
        usage();
        return 1;
    }

    std::string error;
    serving::Client client(args.get("socket", "statsd.sock"),
                           error);
    if (!client.connected())
        return fail(error);

    if (command == "submit")
        return cmdSubmit(client, args);
    if (command == "status")
        return cmdStatus(client, args);
    if (command == "result")
        return cmdResult(client, args);
    if (command == "replay-fetch")
        return cmdReplayFetch(client, args);
    return cmdDrain(client);
}
