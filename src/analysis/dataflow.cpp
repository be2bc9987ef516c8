#include "analysis/dataflow.hpp"

#include <algorithm>

namespace stats::analysis {

bool
unionInto(BitVector &dst, const BitVector &src)
{
    bool changed = false;
    for (std::size_t i = 0; i < dst.size(); ++i) {
        if (src[i] && !dst[i]) {
            dst[i] = true;
            changed = true;
        }
    }
    return changed;
}

std::vector<BlockFacts>
solveMayDataflow(const Cfg &cfg, std::size_t domain_size, bool forward,
                 const std::vector<BitVector> &gen,
                 const std::vector<BitVector> &kill,
                 const BitVector &boundary)
{
    const std::size_t n = cfg.blockCount();
    std::vector<BlockFacts> facts(n);
    for (auto &f : facts) {
        f.in.assign(domain_size, false);
        f.out.assign(domain_size, false);
    }

    // Iterate in RPO for forward problems, post-order for backward;
    // both converge in O(loop-nesting-depth) sweeps.
    std::vector<int> order = cfg.reversePostorder();
    if (!forward)
        std::reverse(order.begin(), order.end());

    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : order) {
            BlockFacts &f = facts[std::size_t(b)];
            BitVector &entry_set = forward ? f.in : f.out;
            BitVector &exit_set = forward ? f.out : f.in;

            const auto &sources =
                forward ? cfg.predecessors(b) : cfg.successors(b);
            if (b == cfg.entry() && forward)
                unionInto(entry_set, boundary);
            if (!forward && cfg.successors(b).empty())
                unionInto(entry_set, boundary);
            for (int src : sources) {
                const BlockFacts &sf = facts[std::size_t(src)];
                unionInto(entry_set, forward ? sf.out : sf.in);
            }

            // exit = gen U (entry - kill)
            BitVector next = gen[std::size_t(b)];
            for (std::size_t i = 0; i < domain_size; ++i) {
                if (entry_set[i] && !kill[std::size_t(b)][i])
                    next[i] = true;
            }
            if (next != exit_set) {
                exit_set = std::move(next);
                changed = true;
            }
        }
    }
    return facts;
}

// ------------------------------------------------ reaching definitions

ReachingDefs::ReachingDefs(const Cfg &cfg, const DefUse &du)
    : _cfg(&cfg), _du(&du)
{
    // Enumerate the domain: every definition site of every name.
    for (const auto &name : du.names()) {
        auto [it, fresh] = _nameIndex.try_emplace(name, _defsOfName.size());
        if (fresh)
            _defsOfName.emplace_back();
        for (const auto &site : du.defs(name)) {
            _defsOfName[it->second].push_back(_defs.size());
            _defs.push_back({name, site});
        }
    }

    const std::size_t n = cfg.blockCount();
    std::vector<BitVector> gen(n, BitVector(_defs.size(), false));
    std::vector<BitVector> kill(n, BitVector(_defs.size(), false));
    BitVector boundary(_defs.size(), false);

    for (std::size_t d = 0; d < _defs.size(); ++d) {
        const Def &def = _defs[d];
        if (def.site.block < 0) {
            boundary[d] = true; // Parameter: reaches from the entry.
            continue;
        }
        gen[std::size_t(def.site.block)][d] = true;
    }
    // A block's last def of a name kills every other def of it; with
    // gen applied after kill that collapses to: defining a name
    // anywhere in the block kills all external defs of the name.
    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t d = 0; d < _defs.size(); ++d) {
            if (!gen[b][d])
                continue;
            for (std::size_t other :
                 _defsOfName[_nameIndex[_defs[d].name]]) {
                if (!gen[b][other])
                    kill[b][other] = true;
            }
        }
    }

    _facts = solveMayDataflow(cfg, _defs.size(), /*forward=*/true, gen,
                              kill, boundary);
}

const BitVector &
ReachingDefs::in(int block) const
{
    return _facts.at(std::size_t(block)).in;
}

std::vector<InstRef>
ReachingDefs::reachingAt(int block, int index,
                         const std::string &name) const
{
    std::vector<InstRef> result;
    auto it = _nameIndex.find(name);
    if (it == _nameIndex.end())
        return result;

    // Last def of `name` inside this block before `index` shadows
    // everything flowing in from outside.
    const auto &insts = _cfg->block(block).instructions;
    for (int i = index - 1; i >= 0; --i) {
        if (insts[std::size_t(i)].result == name) {
            result.push_back({block, i});
            return result;
        }
    }
    const BitVector &reaching = in(block);
    for (std::size_t d : _defsOfName[it->second]) {
        if (reaching[d])
            result.push_back(_defs[d].site);
    }
    return result;
}

// ------------------------------------------------------- live variables

Liveness::Liveness(const Cfg &cfg, const DefUse &du)
{
    _names = du.names();
    for (std::size_t i = 0; i < _names.size(); ++i)
        _nameIndex[_names[i]] = i;

    const std::size_t n = cfg.blockCount();
    // gen = upward-exposed uses, kill = defs.
    std::vector<BitVector> gen(n, BitVector(_names.size(), false));
    std::vector<BitVector> kill(n, BitVector(_names.size(), false));
    const BitVector boundary(_names.size(), false);

    for (std::size_t b = 0; b < n; ++b) {
        const auto &insts = cfg.block(int(b)).instructions;
        for (const auto &inst : insts) {
            for (const auto &operand : inst.operands) {
                if (operand.kind != ir::Operand::Kind::Temp)
                    continue;
                auto it = _nameIndex.find(operand.name);
                if (it == _nameIndex.end())
                    continue; // Undefined temp: verifier's business.
                if (!kill[b][it->second])
                    gen[b][it->second] = true;
            }
            if (!inst.result.empty())
                kill[b][_nameIndex[inst.result]] = true;
        }
    }

    _facts = solveMayDataflow(cfg, _names.size(), /*forward=*/false,
                              gen, kill, boundary);
}

std::size_t
Liveness::indexOf(const std::string &name) const
{
    auto it = _nameIndex.find(name);
    return it == _nameIndex.end() ? _names.size() : it->second;
}

bool
Liveness::liveIn(int block, const std::string &name) const
{
    const std::size_t i = indexOf(name);
    return i < _names.size() && _facts.at(std::size_t(block)).in[i];
}

bool
Liveness::liveOut(int block, const std::string &name) const
{
    const std::size_t i = indexOf(name);
    return i < _names.size() && _facts.at(std::size_t(block)).out[i];
}

} // namespace stats::analysis
