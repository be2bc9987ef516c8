/**
 * @file
 * Unit tests for the support library: PRVGs, statistics, JSON
 * writing, string utilities, command-line parsing.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/cli_args.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

namespace {

using namespace stats::support;

TEST(Rng, SameSeedSameSequence)
{
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Xoshiro256 rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Xoshiro256 rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Xoshiro256 rng(11);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(stat.mean(), 5.0, 0.05);
    EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, GaussianMatchesNormal)
{
    // Chi-square over 100 equiprobable bins (x lands in bin
    // floor(100 * Phi(x))), plus each side's count beyond 3.5 sigma,
    // which only the ziggurat's tail branch produces.
    constexpr int kDraws = 1000000;
    constexpr int kBins = 100;
    Xoshiro256 rng(2024);
    std::vector<int> bins(kBins, 0);
    int below = 0, above = 0;
    for (int i = 0; i < kDraws; ++i) {
        const double x = rng.gaussian();
        const double phi = 0.5 * std::erfc(-x / std::sqrt(2.0));
        bins[std::min(kBins - 1, static_cast<int>(phi * kBins))]++;
        below += x < -3.5;
        above += x > 3.5;
    }
    const double expected = static_cast<double>(kDraws) / kBins;
    double chi2 = 0.0;
    for (int count : bins)
        chi2 += (count - expected) * (count - expected) / expected;
    EXPECT_LT(chi2, 148.2); // The 0.999 quantile of chi-square(99).

    // P(Z > 3.5) = 2.326e-4: 232.6 expected per side, sd 15.3.
    const double tail = kDraws * 2.326291e-4;
    const double sd = std::sqrt(tail);
    EXPECT_NEAR(below, tail, 5 * sd);
    EXPECT_NEAR(above, tail, 5 * sd);
}

/**
 * The out-of-line ziggurat as it stood before its one-draw accept
 * path moved inline, with its own tables; it counts the draws that
 * leave the layer cores.
 */
class ReferenceGaussian
{
  public:
    ReferenceGaussian()
    {
        double f = std::exp(-0.5 * kZigR * kZigR);
        _x[0] = kZigV / f;
        _x[1] = kZigR;
        _x[kZigLayers] = 0.0;
        for (std::size_t i = 2; i < kZigLayers; ++i) {
            _x[i] = std::sqrt(-2.0 * std::log(kZigV / _x[i - 1] + f));
            f = std::exp(-0.5 * _x[i] * _x[i]);
        }
        for (std::size_t i = 0; i <= kZigLayers; ++i)
            _f[i] = std::exp(-0.5 * _x[i] * _x[i]);
        for (std::size_t i = 0; i < kZigLayers; ++i)
            _ratio[i] = _x[i + 1] / _x[i];
    }

    double
    operator()(Xoshiro256 &rng)
    {
        for (;;) {
            const std::uint64_t bits = rng();
            const std::size_t layer = bits & (kZigLayers - 1);
            const double u =
                static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
            if (std::fabs(u) < _ratio[layer])
                return u * _x[layer];
            if (layer == 0) {
                ++tailDraws;
                double x = 0.0, y = 0.0;
                do {
                    x = std::log(1.0 - rng.nextDouble()) / kZigR;
                    y = std::log(1.0 - rng.nextDouble());
                } while (-2.0 * y < x * x);
                return u < 0.0 ? x - kZigR : kZigR - x;
            }
            ++wedgeDraws;
            const double x = u * _x[layer];
            const double y =
                _f[layer] + rng.nextDouble() * (_f[layer + 1] - _f[layer]);
            if (y < std::exp(-0.5 * x * x))
                return x;
        }
    }

    long tailDraws = 0;
    long wedgeDraws = 0;

  private:
    static constexpr std::size_t kZigLayers = 128;
    static constexpr double kZigR = 3.442619855899;
    static constexpr double kZigV = 9.91256303526217e-3;

    std::array<double, kZigLayers + 1> _x{};
    std::array<double, kZigLayers + 1> _f{};
    std::array<double, kZigLayers> _ratio{};
};

TEST(Rng, GaussianMatchesOutOfLineReference)
{
    // Same bits, draw for draw, and the same generator state after:
    // the inline accept path and the out-of-line tail and wedges
    // consume the stream exactly as the one-function ziggurat did.
    constexpr int kDrawsPerSeed = 300000;
    ReferenceGaussian reference;
    for (const std::uint64_t seed : {1u, 7u, 2024u, 0xdeadbeefu}) {
        Xoshiro256 got(seed), want(seed);
        for (int i = 0; i < kDrawsPerSeed; ++i) {
            const double a = got.gaussian();
            const double b = reference(want);
            ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                << "seed " << seed << ", draw " << i << ": " << a
                << " vs " << b;
        }
        EXPECT_EQ(got(), want()) << "seed " << seed;
    }
    EXPECT_GE(reference.tailDraws, 1);
    EXPECT_GE(reference.wedgeDraws, 1);
}

TEST(Rng, EntropySeedsDistinct)
{
    const auto a = entropySeed();
    const auto b = entropySeed();
    EXPECT_NE(a, b);
}

TEST(Rng, EntropySeedsDistinctAcrossThreads)
{
    constexpr int kThreads = 4;
    constexpr int kSeeds = 10000;
    std::vector<std::vector<std::uint64_t>> seeds(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&seeds, t] {
            for (int i = 0; i < kSeeds; ++i)
                seeds[static_cast<std::size_t>(t)].push_back(entropySeed());
        });
    }
    for (auto &thread : threads)
        thread.join();
    std::set<std::uint64_t> distinct;
    for (const auto &per_thread : seeds)
        distinct.insert(per_thread.begin(), per_thread.end());
    EXPECT_EQ(distinct.size(),
              static_cast<std::size_t>(kThreads) * kSeeds);
}

TEST(Rng, DeterministicSeedScope)
{
    std::uint64_t first, second;
    {
        ScopedDeterministicSeeds scope(123);
        first = entropySeed();
    }
    {
        ScopedDeterministicSeeds scope(123);
        second = entropySeed();
    }
    EXPECT_EQ(first, second);
}

TEST(Statistics, RunningStatMatchesClosedForm)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(x);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(Statistics, GeomeanOfPowers)
{
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({8.0}), 8.0, 1e-12);
}

TEST(Statistics, MedianEvenOdd)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Statistics, MeasureToConfidenceStopsEarlyOnStableSamples)
{
    int calls = 0;
    const double result = measureToConfidence([&] {
        ++calls;
        return 10.0;
    });
    EXPECT_DOUBLE_EQ(result, 10.0);
    EXPECT_EQ(calls, 3); // minRuns with zero variance.
}

TEST(Json, ObjectWithNestedArray)
{
    std::ostringstream out;
    {
        JsonWriter json(out, /* pretty */ false);
        json.beginObject()
            .field("name", "fig12")
            .key("series")
            .beginArray()
            .value(1.0)
            .value(2.5)
            .endArray()
            .field("ok", true)
            .endObject();
    }
    EXPECT_EQ(out.str(), "{\"name\":\"fig12\",\"series\":[1,2.5],"
                         "\"ok\":true}\n");
}

TEST(Json, EscapesStrings)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(StringUtils, SplitAndTrim)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, SplitWhitespace)
{
    const auto words = splitWhitespace("  foo\tbar \n baz ");
    ASSERT_EQ(words.size(), 3u);
    EXPECT_EQ(words[0], "foo");
    EXPECT_EQ(words[2], "baz");
}

TEST(StringUtils, PrefixSuffixJoin)
{
    EXPECT_TRUE(startsWith("tradeoff TO_x", "tradeoff"));
    EXPECT_FALSE(startsWith("x", "xyz"));
    EXPECT_TRUE(endsWith("file.cpp", ".cpp"));
    EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
}

TEST(StringUtils, CountLines)
{
    EXPECT_EQ(countLines(""), 0u);
    EXPECT_EQ(countLines("one"), 1u);
    EXPECT_EQ(countLines("one\ntwo\n"), 2u);
    EXPECT_EQ(countLines("one\ntwo\nthree"), 3u);
}

TEST(Table, AlignsColumns)
{
    TextTable table({"bench", "speedup"});
    table.addRow({"swaptions", "24.00"});
    table.addRow("bodytrack", {12.345}, 2);
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("swaptions"), std::string::npos);
    EXPECT_NE(text.find("12.35"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(CliArgs, KeepsPositionalsFlagsAndEveryRepeat)
{
    const CliArgs args({"a.ir", "--quiet", "--quota=x:1:1:1:1", "b.ir",
                        "--quota=y:2:2:2:2", "--artifacts="});
    EXPECT_EQ(args.positional(), (std::vector<std::string>{"a.ir",
                                                           "b.ir"}));
    EXPECT_TRUE(args.has("quiet"));
    EXPECT_EQ(args.get("quiet", ""), "true");
    EXPECT_EQ(args.get("quota", ""), "y:2:2:2:2");
    EXPECT_EQ(args.getAll("quota"),
              (std::vector<std::string>{"x:1:1:1:1", "y:2:2:2:2"}));
    EXPECT_EQ(args.get("artifacts", "dir"), "");
    EXPECT_EQ(args.get("absent", "dir"), "dir");
    EXPECT_EQ(args.unknownOption({"quiet", "quota", "artifacts"}),
              std::nullopt);
    EXPECT_EQ(args.unknownOption({"quiet", "artifacts"}), "quota");
}

TEST(CliArgs, NumbersParseWholeOrNotAtAll)
{
    EXPECT_EQ(parseInt("-12"), -12);
    EXPECT_EQ(parseInt("12x"), std::nullopt);
    EXPECT_EQ(parseInt(""), std::nullopt);
    EXPECT_EQ(parseInt("99999999999999999999"), std::nullopt);
    EXPECT_EQ(parseU64("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseU64("-1"), std::nullopt);
    EXPECT_EQ(parseDouble("0.5"), 0.5);
    EXPECT_EQ(parseDouble("1e999999"), std::nullopt);
    EXPECT_EQ(parseDouble("nan"), std::nullopt);

    const CliArgs args({"--threads=4", "--seed=7", "--quantum=2.5"});
    EXPECT_EQ(args.getInt("threads", 28, 1), 4);
    EXPECT_EQ(args.getInt("runs", 500, 1), 500);
    EXPECT_EQ(args.getU64("seed", 0), 7u);
    EXPECT_EQ(args.getDouble("quantum", 1.0), 2.5);
}

TEST(CliArgsDeathTest, MalformedNumberIsAUsageErrorNotAnAbort)
{
    const CliArgs args({"--threads=x", "--runs=0", "--seed=-3",
                        "--quantum=fast", "--limit=4294967296"});
    const auto usage_error = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(args.getInt("threads", 28), usage_error,
                "--threads wants an integer, got 'x'");
    EXPECT_EXIT(args.getInt("runs", 500, 1), usage_error,
                "--runs wants an integer >= 1, got '0'");
    EXPECT_EXIT(args.getU64("seed", 0), usage_error,
                "--seed wants an unsigned integer");
    EXPECT_EXIT(args.getDouble("quantum", 1.0), usage_error,
                "--quantum wants a number");
    EXPECT_EXIT(args.getInt("limit", 64, 0), usage_error,
                "--limit wants an integer");
}

} // namespace
