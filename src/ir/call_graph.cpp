#include "ir/call_graph.hpp"

namespace stats::ir {

CallGraph::CallGraph(const Module &module) : _module(module)
{
    for (const auto &meta : module.tradeoffs)
        _placeholders.insert(meta.placeholder);

    for (const auto &fn : module.functions) {
        auto &edges = _callees[fn.name];
        bool direct = false;
        for (const auto &block : fn.blocks) {
            for (const auto &inst : block.instructions) {
                if (inst.op != Opcode::Call)
                    continue;
                if (_placeholders.count(inst.callee))
                    direct = true;
                if (module.findFunction(inst.callee))
                    edges.insert(inst.callee);
            }
        }
        _directTradeoff[fn.name] = direct;
    }
}

const std::set<std::string> &
CallGraph::callees(const std::string &fn) const
{
    static const std::set<std::string> empty;
    auto it = _callees.find(fn);
    return it == _callees.end() ? empty : it->second;
}

std::set<std::string>
CallGraph::reachableFrom(const std::string &fn) const
{
    std::set<std::string> visited;
    std::vector<std::string> stack{fn};
    while (!stack.empty()) {
        const std::string current = stack.back();
        stack.pop_back();
        if (!visited.insert(current).second)
            continue;
        for (const auto &callee : callees(current))
            stack.push_back(callee);
    }
    return visited;
}

std::set<std::string>
CallGraph::tradeoffCarriers() const
{
    // Bottom-up fixed point: a function carries a tradeoff if it has
    // a direct placeholder call or calls a carrier.
    std::set<std::string> carriers;
    for (const auto &[fn, direct] : _directTradeoff) {
        if (direct)
            carriers.insert(fn);
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &[fn, edges] : _callees) {
            if (carriers.count(fn))
                continue;
            for (const auto &callee : edges) {
                if (carriers.count(callee)) {
                    carriers.insert(fn);
                    changed = true;
                    break;
                }
            }
        }
    }
    return carriers;
}

} // namespace stats::ir
