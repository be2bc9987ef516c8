/**
 * @file
 * Analysis driver behind `statscc analyze` (and admission): runs
 * the structural verifier (as rule VER01) and the semantic passes
 * (purity, clone-audit, freeze, escape) over a module and returns the
 * combined, deterministically-ordered diagnostic list.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "ir/ir.hpp"

namespace stats::analysis {

struct LintOptions
{
    /** Run one pass only ("" = all): verify, purity, clone-audit,
     *  freeze, escape, range, bytecode-verify. */
    std::string pass;

    /** Back-end mode for the freeze checker (see FreezeCheckOptions). */
    bool requireInstantiated = false;

    /**
     * The `bytecode-verify` pass lives above this library
     * (src/ir/bytecode_verifier.cpp links against stats_analysis, not
     * the other way around), so drivers that can compile bytecode
     * inject it here — typically ir::bc::verifyCompiledModule. Unset,
     * the pass is silently skipped.
     */
    std::function<std::vector<Diagnostic>(const ir::Module &)>
        bytecodeVerifier;
};

/** Names accepted by LintOptions::pass, in run order. */
const std::vector<std::string> &passNames();

bool isPassName(const std::string &name);

/**
 * Run the verifier and the selected semantic passes. Structural
 * (VER01) errors suppress the semantic passes: their results are not
 * meaningful on ill-formed IR.
 */
std::vector<Diagnostic> runAnalyses(const ir::Module &module,
                                    const LintOptions &options = {});

} // namespace stats::analysis
