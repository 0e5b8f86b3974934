#pragma once
// Power-law (Zipfian) node-hop sampler used by the PG-SGD cooling branch
// (Alg. 1 line 8). odgi-layout draws the hop distance between the two nodes
// of a pair from a Zipf distribution so that refinement concentrates on
// nearby nodes while still occasionally touching distant ones.
//
// Implementation: one inverse-CDF table over the largest hop space N any
// path needs, cdf[k-1] = sum_{i<=k} i^-theta, plus a guide table that maps
// a uniform point straight to within a step or two of its answer. A draw
// for a space n <= N scales one uniform to [0, cdf[n-1]) and returns the
// first k with cdf[k-1] > u — exact truncation, so every path of a graph
// shares the one table. Cost per draw: one next_double() and a short table
// walk; memory: 12 bytes per unit of N (an 8-byte cdf entry and a 4-byte
// guide entry).
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace pgl::rng {

/// Throws std::invalid_argument unless `theta` is a usable Zipf exponent:
/// finite and > 0. Shared by every boundary a theta crosses (wire request,
/// table construction); core::check_config guards the other float knobs.
inline void check_zipf_theta(double theta) {
    if (!std::isfinite(theta) || theta <= 0.0) {
        throw std::invalid_argument("zipf_theta must be finite and > 0, got " +
                                    std::to_string(theta));
    }
}

/// Samples k in [1, n] with P(k) proportional to 1 / k^theta, for any
/// n in [1, max_n()].
class ZipfTable {
public:
    /// Throws std::invalid_argument unless check_zipf_theta(theta) passes.
    /// max_n >= 1 must fit the 32-bit guide entries (a path's step count
    /// is 32-bit, so every hop space does).
    ZipfTable(std::uint64_t max_n, double theta) {
        check_zipf_theta(theta);
        assert(max_n >= 1 && max_n < std::numeric_limits<std::uint32_t>::max());
        const std::size_t n = static_cast<std::size_t>(max_n);
        // cdf_[n] is a +inf sentinel: a scan started at or before the
        // answer always stops, even for u == cdf_[n-1].
        cdf_.resize(n + 1);
        double sum = 0.0;
        for (std::size_t k = 1; k <= n; ++k) {
            sum += std::pow(static_cast<double>(k), -theta);
            cdf_[k - 1] = sum;
        }
        cdf_[n] = std::numeric_limits<double>::infinity();

        // guide_[b] = the smallest index i with bucket(cdf_[i]) >= b (n - 1
        // when none), where bucket(x) = size_t(x * scale_) is the very
        // expression invert() evaluates. bucket is monotone, so for any u
        // the first cdf entry above u lies in a bucket >= bucket(u): the
        // scan never starts past its answer. One bucket per entry keeps the
        // expected scan at about one step; n + 1 buckets cover u == cdf_[n-1].
        scale_ = static_cast<double>(n) / sum;
        guide_.resize(n + 1);
        std::size_t i = 0;
        for (std::size_t b = 0; b <= n; ++b) {
            while (i + 1 < n && bucket(cdf_[i]) < b) ++i;
            guide_[b] = static_cast<std::uint32_t>(i);
        }
    }

    std::uint64_t max_n() const noexcept { return cdf_.size() - 1; }

    /// Unnormalized mass of [1, n]: cdf[n-1].
    double total(std::uint64_t n) const noexcept { return cdf_[n - 1]; }

    /// The first k with cdf[k-1] > u, clamped to [1, n]. Requires
    /// 1 <= n <= max_n() and 0 <= u <= total(max_n()).
    std::uint64_t invert(double u, std::uint64_t n) const noexcept {
        assert(n >= 1 && n <= max_n());
        assert(u >= 0.0 && u <= cdf_[max_n() - 1]);
        std::size_t i = guide_[bucket(u)];
        while (cdf_[i] <= u) ++i;
        const std::uint64_t k = i + 1;
        return k < n ? k : n;
    }

    /// Draws one variate in [1, n]; `Rng` provides next_double() in [0,1).
    /// n == 1 consumes no randomness.
    template <typename Rng>
    std::uint64_t operator()(std::uint64_t n, Rng& rng) const {
        if (n <= 1) return 1;
        return invert(rng.next_double() * cdf_[n - 1], n);
    }

private:
    std::size_t bucket(double x) const noexcept {
        return static_cast<std::size_t>(x * scale_);
    }

    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_;
    double scale_ = 0.0;
};

}  // namespace pgl::rng
