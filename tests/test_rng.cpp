// Tests for the RNG substrate: SplitMix64, Xoshiro256+, XORWOW, the Zipf
// sampler and the alias table.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "rng/alias_table.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xorwow.hpp"
#include "rng/xoshiro256.hpp"
#include "rng/zipf.hpp"

namespace {

using namespace pgl::rng;

TEST(SplitMix64, KnownSequenceFromSeedZero) {
    // Reference values from the canonical splitmix64.c (Vigna).
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, DistinctSeedsDiverge) {
    SplitMix64 a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256Plus, DeterministicForSeed) {
    Xoshiro256Plus a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256Plus, DoubleInUnitInterval) {
    Xoshiro256Plus rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Xoshiro256Plus, DoubleMeanNearHalf) {
    Xoshiro256Plus rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += rng.next_double();
    EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Xoshiro256Plus, BoundedStaysInRange) {
    Xoshiro256Plus rng(13);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.next_bounded(bound), bound);
        }
    }
}

TEST(Xoshiro256Plus, BoundedIsRoughlyUniform) {
    Xoshiro256Plus rng(17);
    constexpr std::uint64_t kBound = 10;
    std::array<int, kBound> counts{};
    const int n = 100000;
    for (int i = 0; i < n; ++i) counts[rng.next_bounded(kBound)]++;
    for (int c : counts) {
        EXPECT_NEAR(static_cast<double>(c), n / 10.0, n / 10.0 * 0.1);
    }
}

TEST(Xoshiro256Plus, FlipCoinIsFair) {
    Xoshiro256Plus rng(19);
    int heads = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) heads += rng.flip_coin();
    EXPECT_NEAR(heads, n / 2.0, n * 0.01);
}

TEST(Xoshiro256Plus, JumpProducesDisjointStream) {
    Xoshiro256Plus a(23);
    Xoshiro256Plus b = a;
    b.jump();
    // Streams should not collide over a short horizon.
    std::vector<std::uint64_t> av, bv;
    for (int i = 0; i < 100; ++i) {
        av.push_back(a.next());
        bv.push_back(b.next());
    }
    EXPECT_NE(av, bv);
}

TEST(Xorwow, StateIsSixWords) {
    EXPECT_EQ(sizeof(XorwowState), 24u);
}

TEST(Xorwow, DeterministicPerSequence) {
    XorwowState a = xorwow_init(99, 5);
    XorwowState b = xorwow_init(99, 5);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(xorwow_next(a), xorwow_next(b));
}

TEST(Xorwow, SequencesAreDecorrelated) {
    XorwowState a = xorwow_init(99, 0);
    XorwowState b = xorwow_init(99, 1);
    int equal = 0;
    for (int i = 0; i < 1000; ++i) equal += (xorwow_next(a) == xorwow_next(b));
    EXPECT_LT(equal, 5);
}

TEST(Xorwow, UniformInUnitInterval) {
    XorwowState st = xorwow_init(1, 2);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const float f = xorwow_uniform(st);
        ASSERT_GE(f, 0.0f);
        ASSERT_LT(f, 1.0f);
        sum += f;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xorwow, BoundedStaysInRange) {
    XorwowState st = xorwow_init(3, 4);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(xorwow_bounded(st, 37), 37u);
    }
}

// Exact normalized 1/k^theta mass of k in [1, n].
double zipf_mass(std::uint64_t k, std::uint64_t n, double theta) {
    double z = 0;
    for (std::uint64_t i = 1; i <= n; ++i) z += std::pow(i, -theta);
    return std::pow(k, -theta) / z;
}

// Draws `draws` variates on [1, n] from `zipf` and compares each
// frequency against the analytic mass.
void expect_analytic_mass(const ZipfTable& zipf, std::uint64_t n, double theta,
                          std::uint64_t seed) {
    Xoshiro256Plus rng(seed);
    std::map<std::uint64_t, int> counts;
    const int draws = 400000;
    for (int i = 0; i < draws; ++i) counts[zipf(n, rng)]++;
    for (std::uint64_t k = 1; k <= n; ++k) {
        const double got = counts[k] / static_cast<double>(draws);
        EXPECT_NEAR(got, zipf_mass(k, n, theta), 0.01) << "k=" << k;
    }
    EXPECT_EQ(counts.size(), n);  // nothing drawn outside [1, n]
}

TEST(Zipf, AlwaysInRange) {
    Xoshiro256Plus rng(31);
    const ZipfTable zipf(1000, 0.99);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t k = zipf(1000, rng);
        ASSERT_GE(k, 1u);
        ASSERT_LE(k, 1000u);
    }
}

TEST(Zipf, SingleElementDomain) {
    Xoshiro256Plus rng(32);
    const ZipfTable one(1, 0.99);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(one(1, rng), 1u);
    // A one-hop space of a larger table is also a constant — and, like
    // the table of one, consumes no randomness.
    const ZipfTable big(1000, 0.99);
    Xoshiro256Plus a(32), b(32);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(big(1, a), 1u);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Zipf, MatchesAnalyticMassForSmallN) {
    const double theta = 0.99;
    expect_analytic_mass(ZipfTable(10, theta), 10, theta, 33);
}

TEST(Zipf, TruncatedSpaceMatchesAnalyticMass) {
    // A path whose space n is below the shared table's N draws from the
    // table's prefix and must follow the mass renormalized over [1, n].
    const double theta = 0.99;
    const ZipfTable zipf(1000, theta);
    for (const std::uint64_t n : {2u, 7u, 37u}) {
        SCOPED_TRACE(n);
        expect_analytic_mass(zipf, n, theta, 37 + n);
    }
}

TEST(Zipf, HeavierHeadWithLargerTheta) {
    Xoshiro256Plus rng(34);
    const ZipfTable flat(1000, 0.2), steep(1000, 2.0);
    std::uint64_t ones_flat = 0, ones_steep = 0;
    for (int i = 0; i < 50000; ++i) {
        ones_flat += flat(1000, rng) == 1;
        ones_steep += steep(1000, rng) == 1;
    }
    EXPECT_GT(ones_steep, ones_flat * 2);
}

TEST(Zipf, GuidedInverseMatchesUpperBound) {
    // The guide table only chooses where the scan starts; the answer must
    // be exactly the first cdf entry above u over [0, n), clamped to n —
    // at every cdf entry, one ulp either side of it, and at random points.
    for (const double theta : {0.2, 0.99, 1.0, 2.0, 7.5}) {
        for (const std::uint64_t max_n : {1u, 2u, 3u, 10u, 1000u}) {
            const ZipfTable zipf(max_n, theta);
            std::vector<double> cdf;
            double sum = 0;
            for (std::uint64_t k = 1; k <= max_n; ++k) {
                sum += std::pow(static_cast<double>(k), -theta);
                cdf.push_back(sum);
                ASSERT_EQ(zipf.total(k), sum);
            }
            const double top = cdf.back();
            Xoshiro256Plus rng(38);
            for (const std::uint64_t n :
                 {std::uint64_t{1}, (max_n + 1) / 2, max_n}) {
                const auto oracle = [&](double u) {
                    const auto it =
                        std::upper_bound(cdf.begin(), cdf.begin() + n, u);
                    const auto k =
                        static_cast<std::uint64_t>(it - cdf.begin()) + 1;
                    return std::min(k, n);
                };
                std::vector<double> probes{0.0};
                for (const double c : cdf) {
                    probes.push_back(c);
                    probes.push_back(std::nextafter(c, 0.0));
                    if (c < top) probes.push_back(std::nextafter(c, top * 2));
                }
                for (int i = 0; i < 2000; ++i) {
                    probes.push_back(rng.next_double() * zipf.total(n));
                }
                for (const double u : probes) {
                    ASSERT_EQ(zipf.invert(u, n), oracle(u))
                        << "theta=" << theta << " max_n=" << max_n
                        << " n=" << n << " u=" << u;
                }
            }
        }
    }
}

TEST(Zipf, RejectsInvalidTheta) {
    for (const double theta :
         {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        EXPECT_THROW(ZipfTable(10, theta), std::invalid_argument) << theta;
    }
}

TEST(AliasTable, SingleBucket) {
    const std::vector<double> w{5.0};
    AliasTable t{std::span<const double>(w)};
    Xoshiro256Plus rng(35);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(t(rng), 0u);
}

TEST(AliasTable, MatchesWeights) {
    const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
    AliasTable t{std::span<const double>(w)};
    Xoshiro256Plus rng(36);
    std::array<int, 4> counts{};
    const int n = 400000;
    for (int i = 0; i < n; ++i) counts[t(rng)]++;
    for (int k = 0; k < 4; ++k) {
        EXPECT_NEAR(counts[k] / static_cast<double>(n), (k + 1) / 10.0, 0.01);
    }
}

TEST(AliasTable, HandlesZeroWeightEntries) {
    const std::vector<double> w{0.0, 1.0, 0.0, 1.0};
    AliasTable t{std::span<const double>(w)};
    Xoshiro256Plus rng(37);
    for (int i = 0; i < 20000; ++i) {
        const auto k = t(rng);
        EXPECT_TRUE(k == 1 || k == 3) << k;
    }
}

TEST(AliasTable, ExtremeWeightSkew) {
    const std::vector<double> w{1e-9, 1e9};
    AliasTable t{std::span<const double>(w)};
    Xoshiro256Plus rng(38);
    int zeros = 0;
    for (int i = 0; i < 100000; ++i) zeros += (t(rng) == 0);
    EXPECT_LT(zeros, 5);
}

}  // namespace
