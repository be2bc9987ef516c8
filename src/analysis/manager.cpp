#include "analysis/manager.hpp"

#include "support/log.hpp"

namespace stats::analysis {

const ir::Function &
AnalysisManager::functionOrPanic(const std::string &fn) const
{
    const ir::Function *found = _module->findFunction(fn);
    if (found == nullptr)
        support::panic("analysis: no function '", fn, "' in module '",
                       _module->name, "'");
    return *found;
}

AnalysisManager::FunctionAnalyses &
AnalysisManager::entryFor(const std::string &fn)
{
    return _perFn[fn];
}

const Cfg &
AnalysisManager::cfg(const std::string &fn)
{
    FunctionAnalyses &entry = entryFor(fn);
    if (!entry.cfg)
        entry.cfg = std::make_unique<Cfg>(functionOrPanic(fn));
    return *entry.cfg;
}

const DefUse &
AnalysisManager::defUse(const std::string &fn)
{
    FunctionAnalyses &entry = entryFor(fn);
    if (!entry.defUse)
        entry.defUse = std::make_unique<DefUse>(functionOrPanic(fn));
    return *entry.defUse;
}

const ReachingDefs &
AnalysisManager::reachingDefs(const std::string &fn)
{
    FunctionAnalyses &entry = entryFor(fn);
    if (!entry.reachingDefs) {
        entry.reachingDefs =
            std::make_unique<ReachingDefs>(cfg(fn), defUse(fn));
    }
    return *entry.reachingDefs;
}

const Liveness &
AnalysisManager::liveness(const std::string &fn)
{
    FunctionAnalyses &entry = entryFor(fn);
    if (!entry.liveness)
        entry.liveness = std::make_unique<Liveness>(cfg(fn), defUse(fn));
    return *entry.liveness;
}

const ir::CallGraph &
AnalysisManager::callGraph()
{
    if (!_callGraph)
        _callGraph = std::make_unique<ir::CallGraph>(*_module);
    return *_callGraph;
}

void
AnalysisManager::invalidateFunction(const std::string &fn)
{
    _perFn.erase(fn);
    _callGraph.reset(); // A body change can add/remove call edges.
}

void
AnalysisManager::invalidateAll()
{
    _perFn.clear();
    _callGraph.reset();
}

} // namespace stats::analysis
