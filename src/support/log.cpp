#include "support/log.hpp"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace stats::support {

namespace {

std::mutex logMutex;

const char *
levelName(LogLevel level)
{
    return level == LogLevel::Warn ? "warn" : "error";
}

} // namespace

void
logMessage(LogLevel level, const std::string &message)
{
    std::lock_guard<std::mutex> lock(logMutex);
    std::cerr << "[stats:" << levelName(level) << "] " << message << "\n";
}

void
fatalExit(const std::string &message)
{
    logMessage(LogLevel::Error, "fatal: " + message);
    std::exit(1);
}

void
panicAbort(const std::string &message)
{
    logMessage(LogLevel::Error, "panic: " + message);
    std::abort();
}

} // namespace stats::support
