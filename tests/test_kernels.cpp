// SIMD kernel layer tests (sig/kernels.hpp + util/simd.hpp): backend
// dispatch sanity, and differential tests running EVERY backend compiled
// into this binary against the naive per-bit references on awkward widths
// — 0, 1, word-boundary ±1, and large. The `simd-matrix` ctest legs
// additionally rerun these suites with SYMBIOSIS_SIMD forced to each
// backend so the env-override path stays green on every platform.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "reference/reference_kernels.hpp"
#include "sig/kernels.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace symbiosis::sig {
namespace {

using testref::naive_word_and_not;
using testref::naive_word_popcount;
using testref::naive_word_xor_popcount;

TEST(KernelDispatch, ScalarIsAlwaysAvailableAndLast) {
  const auto& backends = util::available_simd_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.back(), util::SimdBackend::Scalar);
  EXPECT_EQ(std::count(backends.begin(), backends.end(), util::SimdBackend::Scalar), 1);
}

TEST(KernelDispatch, ActiveBackendIsAvailable) {
  const auto& backends = util::available_simd_backends();
  const util::SimdBackend active = util::active_simd_backend();
  EXPECT_NE(std::find(backends.begin(), backends.end(), active), backends.end());
  EXPECT_EQ(kernels::ops().backend, active);
}

TEST(KernelDispatch, TablesReportTheirBackend) {
  for (const util::SimdBackend backend : util::available_simd_backends()) {
    EXPECT_EQ(kernels::kernel_ops(backend).backend, backend)
        << util::simd_backend_name(backend);
  }
}

TEST(KernelDispatch, BackendNamesRoundTripThroughParse) {
  for (const util::SimdBackend backend :
       {util::SimdBackend::Scalar, util::SimdBackend::Avx2, util::SimdBackend::Neon}) {
    const auto parsed = util::parse_simd_backend(util::simd_backend_name(backend));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(util::parse_simd_backend("").has_value());
  EXPECT_FALSE(util::parse_simd_backend("avx512").has_value());
  EXPECT_FALSE(util::parse_simd_backend("SCALAR").has_value());
}

/// Word counts covering empty, single, one-under/at/over the 4-word AVX2
/// block and the 2-word NEON block, and a large non-multiple.
const std::vector<std::size_t> kWordCounts = {0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1024};

std::vector<std::uint64_t> random_words(util::Rng& rng, std::size_t n, int fill_percent) {
  std::vector<std::uint64_t> words(n, 0);
  for (auto& word : words) {
    for (unsigned bit = 0; bit < 64; ++bit) {
      if (rng.next_below(100) < static_cast<std::uint64_t>(fill_percent)) {
        word |= std::uint64_t{1} << bit;
      }
    }
  }
  return words;
}

TEST(KernelDifferential, WordKernelsMatchNaiveOnEveryBackend) {
  util::Rng rng(20260808);
  for (const util::SimdBackend backend : util::available_simd_backends()) {
    const kernels::KernelOps& ops = kernels::kernel_ops(backend);
    for (const std::size_t n : kWordCounts) {
      for (const int fill : {0, 3, 50, 97, 100}) {
        const auto a = random_words(rng, n, fill);
        const auto b = random_words(rng, n, 100 - fill);
        EXPECT_EQ(ops.popcount(a.data(), n), naive_word_popcount(a.data(), n))
            << util::simd_backend_name(backend) << " n=" << n;
        EXPECT_EQ(ops.xor_popcount(a.data(), b.data(), n),
                  naive_word_xor_popcount(a.data(), b.data(), n))
            << util::simd_backend_name(backend) << " n=" << n;
        std::vector<std::uint64_t> dst(n, 0xdeadbeefdeadbeefull);
        std::vector<std::uint64_t> expected(n, 0);
        ops.and_not(dst.data(), a.data(), b.data(), n);
        naive_word_and_not(expected.data(), a.data(), b.data(), n);
        EXPECT_EQ(dst, expected) << util::simd_backend_name(backend) << " n=" << n;
      }
    }
  }
}

TEST(KernelDifferential, XorPopcountManyMatchesPerTargetCalls) {
  util::Rng rng(99);
  for (const util::SimdBackend backend : util::available_simd_backends()) {
    const kernels::KernelOps& ops = kernels::kernel_ops(backend);
    for (const std::size_t n : {std::size_t{0}, std::size_t{5}, std::size_t{64}}) {
      const auto a = random_words(rng, n, 40);
      std::vector<std::vector<std::uint64_t>> targets;
      std::vector<const std::uint64_t*> ptrs;
      for (int t = 0; t < 7; ++t) {
        targets.push_back(random_words(rng, n, 10 + 12 * t));
        ptrs.push_back(targets.back().data());
      }
      std::vector<std::size_t> out(targets.size(), ~std::size_t{0});
      ops.xor_popcount_many(a.data(), ptrs.data(), ptrs.size(), n, out.data());
      for (std::size_t t = 0; t < targets.size(); ++t) {
        EXPECT_EQ(out[t], naive_word_xor_popcount(a.data(), ptrs[t], n))
            << util::simd_backend_name(backend) << " n=" << n << " t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace symbiosis::sig
