/**
 * @file
 * Call graph and the bottom-up tradeoff-reachability analysis the
 * middle-end's cloning policy relies on (paper section 3.4: clone
 * functions reachable from computeOutput "only if they, or some of
 * their callees, include a tradeoff").
 */

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace stats::ir {

/** Static call graph of a module (callee multiplicity ignored). */
class CallGraph
{
  public:
    explicit CallGraph(const Module &module);

    /** Direct callees of a function (module functions only). */
    const std::set<std::string> &callees(const std::string &fn) const;

    /** All functions reachable from `fn`, including itself. */
    std::set<std::string> reachableFrom(const std::string &fn) const;

    /**
     * Functions that contain a tradeoff placeholder call, or call
     * (transitively) a function that does — the bottom-up analysis.
     */
    std::set<std::string> tradeoffCarriers() const;

  private:
    const Module &_module;
    std::map<std::string, std::set<std::string>> _callees;
    std::set<std::string> _placeholders;
    std::map<std::string, bool> _directTradeoff;
};

} // namespace stats::ir
