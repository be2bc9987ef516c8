/**
 * @file
 * State-comparison helpers.
 *
 * The paper lets developers "decide how strict the matching between
 * speculative and original states needs to be" via
 * `doesSpecStateMatchAny()` (section 3.3). The benchmarks all use one
 * of three shapes, provided here as reusable adapters:
 *
 *  - valid-by-construction (swaptions, streamcluster,
 *    streamclassifier): any state the original program could have
 *    produced is acceptable, so no comparison is needed;
 *  - the distance-bracket rule (bodytrack, fluidanimate, facedet):
 *    the speculative state is accepted if it is at most as far from
 *    some original state as another original state is — i.e. it lies
 *    within the spread the program's own nondeterminism produces;
 *  - exact equality against a single state (used by the Fast Track
 *    baseline, which ignores nondeterminism).
 */

#pragma once

#include <functional>
#include <set>
#include <vector>

namespace stats::sdi {

/**
 * Matcher for states that are valid by construction: always accepts,
 * attributing the match to the first original state.
 */
template <class State>
std::function<int(const State &, const std::vector<State> &)>
alwaysMatch()
{
    return [](const State &, const std::vector<State> &) { return 0; };
}

/** Matcher that never accepts (forces the conventional fallback). */
template <class State>
std::function<int(const State &, const std::vector<State> &)>
neverMatch()
{
    return [](const State &, const std::vector<State> &) { return -1; };
}

/**
 * The paper's distance-bracket rule (section 4.2, bodytrack): accept
 * the speculative state S' if for some pair of original states (A, B)
 * the distance d(S', A) is no larger than d(B, A). A single original
 * state A gives no pair, so S' is accepted only within the
 * developer-calibrated `single_tolerance` of A; otherwise the runtime
 * re-executes the producer to obtain a second original — this is
 * exactly how STATS "takes advantage of the program's
 * nondeterminism".
 *
 * @param distance developer-supplied state distance measure
 * @param single_tolerance largest d(S', A) accepted against a single
 *        original state A
 */
template <class State>
std::function<int(const State &, const std::vector<State> &)>
distanceBracketMatcher(
    std::function<double(const State &, const State &)> distance,
    double single_tolerance)
{
    return [distance, single_tolerance](
               const State &spec,
               const std::vector<State> &originals) -> int {
        if (originals.size() == 1)
            return distance(spec, originals[0]) <= single_tolerance ? 0
                                                                     : -1;
        for (std::size_t a = 0; a < originals.size(); ++a) {
            const double spec_dist = distance(spec, originals[a]);
            for (std::size_t b = 0; b < originals.size(); ++b) {
                if (b == a)
                    continue;
                if (spec_dist <= distance(originals[b], originals[a]))
                    return static_cast<int>(a);
            }
        }
        return -1;
    };
}

/**
 * Exact-equality matcher against only the *first* original state
 * (requires State::operator==). This reproduces Fast Track's check,
 * which "loses the opportunity created by the nondeterminism of the
 * original code" (paper section 4.4).
 */
template <class State>
std::function<int(const State &, const std::vector<State> &)>
exactSingleMatcher()
{
    return [](const State &spec,
              const std::vector<State> &originals) -> int {
        if (!originals.empty() && spec == originals.front())
            return 0;
        return -1;
    };
}

/**
 * Adapt a paper-style boolean `doesSpecStateMatchAny(set<State*>)`
 * member function to the engine's indexed matcher. On a positive
 * answer the newest original state is credited with the match.
 */
template <class State>
std::function<int(const State &, const std::vector<State> &)>
fromBoolMethod()
{
    return [](const State &spec,
              const std::vector<State> &originals) -> int {
        std::set<const State *> set;
        for (const State &s : originals)
            set.insert(&s);
        if (spec.doesSpecStateMatchAny(set))
            return static_cast<int>(originals.size()) - 1;
        return -1;
    };
}

} // namespace stats::sdi
