/**
 * @file
 * Bit-vector dataflow over a Cfg: a generic gen/kill fixed-point
 * solver plus the two canonical instances the semantic passes use —
 * reaching definitions (forward, may) and live variables (backward,
 * may).
 *
 * Phi semantics: a phi reads its incomings "on the edge". The solver
 * approximates by treating phi operands as live into the phi's block
 * and by letting every predecessor's definitions reach it — sound
 * (never misses a reaching def / live value) and precise enough for
 * the freeze checker's type queries.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/def_use.hpp"

namespace stats::analysis {

/** One dataflow fact set, fixed-width bit vector. */
using BitVector = std::vector<bool>;

/** Union `src` into `dst`; returns true when `dst` changed. */
bool unionInto(BitVector &dst, const BitVector &src);

/**
 * Generic union (may) gen/kill solver.
 *
 * @param forward  true: in[b] = U out[preds]; false: mirrored.
 * @param boundary facts at the entry (forward) or at exits (backward).
 * @return per-block {in, out} pairs, indexed like the Cfg.
 */
struct BlockFacts
{
    BitVector in;
    BitVector out;
};

std::vector<BlockFacts> solveMayDataflow(
    const Cfg &cfg, std::size_t domain_size, bool forward,
    const std::vector<BitVector> &gen,
    const std::vector<BitVector> &kill, const BitVector &boundary);

/** Reaching definitions: which def sites may reach each block/use. */
class ReachingDefs
{
  public:
    ReachingDefs(const Cfg &cfg, const DefUse &du);

    /** All definition sites, in domain order. */
    struct Def
    {
        std::string name;
        InstRef site;
    };
    const std::vector<Def> &definitions() const { return _defs; }

    const BitVector &in(int block) const;

    /**
     * Definition sites of `name` that may reach the operand read of
     * instruction (block, index). Parameters reach as {-1, p} sites.
     */
    std::vector<InstRef> reachingAt(int block, int index,
                                    const std::string &name) const;

  private:
    const Cfg *_cfg;
    const DefUse *_du;
    std::vector<Def> _defs;
    std::vector<std::vector<std::size_t>> _defsOfName; // name idx -> defs
    std::map<std::string, std::size_t> _nameIndex;
    std::vector<BlockFacts> _facts;
};

/** Live variables: which temps are live into / out of each block. */
class Liveness
{
  public:
    Liveness(const Cfg &cfg, const DefUse &du);

    const std::vector<std::string> &names() const { return _names; }
    bool liveIn(int block, const std::string &name) const;
    bool liveOut(int block, const std::string &name) const;

  private:
    std::size_t indexOf(const std::string &name) const;

    std::vector<std::string> _names;
    std::map<std::string, std::size_t> _nameIndex;
    std::vector<BlockFacts> _facts;
};

} // namespace stats::analysis
