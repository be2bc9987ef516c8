/**
 * @file
 * AnalysisManager: lazily computes and caches the per-function
 * analyses (Cfg, def-use, reaching definitions, liveness)
 * and the module-wide call graph, so semantic passes can share
 * results instead of recomputing them. Mutating a function requires
 * invalidateFunction() (or invalidateAll() after structural changes
 * such as adding/removing functions).
 */

#pragma once

#include <map>
#include <memory>
#include <string>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/def_use.hpp"
#include "ir/call_graph.hpp"
#include "ir/ir.hpp"

namespace stats::analysis {

class AnalysisManager
{
  public:
    explicit AnalysisManager(const ir::Module &module)
        : _module(&module)
    {}

    const ir::Module &module() const { return *_module; }

    /** Per-function analyses; computed on first request, then cached. */
    const Cfg &cfg(const std::string &fn);
    const DefUse &defUse(const std::string &fn);
    const ReachingDefs &reachingDefs(const std::string &fn);
    const Liveness &liveness(const std::string &fn);

    /** Module-wide call graph (cached). */
    const ir::CallGraph &callGraph();

    /** Drop cached analyses for one function (body changed). */
    void invalidateFunction(const std::string &fn);

    /** Drop everything (functions added/removed, metadata changed). */
    void invalidateAll();

    /** Number of functions with at least one cached analysis. */
    std::size_t cachedFunctionCount() const { return _perFn.size(); }

  private:
    struct FunctionAnalyses
    {
        std::unique_ptr<Cfg> cfg;
        std::unique_ptr<DefUse> defUse;
        std::unique_ptr<ReachingDefs> reachingDefs;
        std::unique_ptr<Liveness> liveness;
    };

    const ir::Function &functionOrPanic(const std::string &fn) const;
    FunctionAnalyses &entryFor(const std::string &fn);

    const ir::Module *_module;
    std::map<std::string, FunctionAnalyses> _perFn;
    std::unique_ptr<ir::CallGraph> _callGraph;
};

} // namespace stats::analysis
