/**
 * @file
 * Analyzer diagnostics: a typed finding with a stable rule ID, a
 * severity, and a source location, plus the text / JSON renderers
 * used by `statscc analyze`.
 *
 * The rule registry below is the canonical list; docs/ANALYSIS.md
 * documents every entry and a test keeps the two in lockstep.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace stats::analysis {

enum class Severity
{
    Note,
    Warning,
    Error,
};

const char *severityName(Severity severity);

/** One analyzer finding. */
struct Diagnostic
{
    std::string pass;     ///< "verify", "purity", "clone-audit", ...
    std::string rule;     ///< Stable rule ID, e.g. "AUD03".
    Severity severity = Severity::Error;
    std::string function; ///< Enclosing function ("" = module scope).
    std::string block;    ///< Enclosing block label ("" = none).
    std::size_t line = 0; ///< Textual-module line (0 = unknown).
    std::string message;
};

/** Entry of the stable rule registry. */
struct RuleInfo
{
    const char *id;
    const char *pass;
    Severity severity;
    const char *summary;
};

/** Every rule any pass can emit (stable IDs, documented). */
const std::vector<RuleInfo> &allRules();

/** Look up a rule; panics on unknown IDs (registry is closed). */
const RuleInfo &ruleInfo(const std::string &id);

/** Build a diagnostic from the registry (severity, pass filled in). */
Diagnostic makeDiagnostic(const std::string &rule,
                          const std::string &function,
                          const std::string &block, std::size_t line,
                          const std::string &message);

/** Deterministic order: line, then function, then rule, message. */
void sortDiagnostics(std::vector<Diagnostic> &diagnostics);

bool hasErrors(const std::vector<Diagnostic> &diagnostics);

/**
 * `file:line: severity[RULE] pass: message (@function)` — one line
 * per diagnostic plus a trailing `N error(s), M warning(s)` summary.
 */
void writeDiagnosticsText(std::ostream &out, const std::string &file,
                          const std::vector<Diagnostic> &diagnostics);

/**
 * JSON report (schema documented in docs/ANALYSIS.md §5):
 * {schemaVersion, module, file, diagnostics: [...], summary}.
 */
void writeDiagnosticsJson(std::ostream &out,
                          const std::string &module_name,
                          const std::string &file,
                          const std::vector<Diagnostic> &diagnostics);

/** Schema version stamped into every diagnostics JSON. */
inline constexpr int kDiagnosticsSchemaVersion = 1;

} // namespace stats::analysis
