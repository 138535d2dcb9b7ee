// kernels.hpp — runtime-dispatched word-parallel signature kernels.
//
// The signature hot loops — RBV popcount (occupancy weight), XOR-popcount
// (the symbiosis metric) and the RBV derivation CF ∧ ¬LF — are pure
// integer kernels over flat bit arrays. This layer provides one
// implementation per instruction set (scalar / AVX2 / NEON) behind a
// function-pointer table selected once at startup
// (util::active_simd_backend, overridable with SYMBIOSIS_SIMD).
//
// Contract: every backend computes EXACTLY the same integers — these are
// bit-counting kernels with no floating point, so backend choice can never
// change simulation results, only speed. The differential suite
// (tests/test_kernels.cpp) runs every compiled backend against the naive
// references on awkward widths to keep that true.
//
// To add a backend: extend util::SimdBackend, implement the ops in
// kernels.cpp (guarded by the target's predefine), list it in
// util::available_simd_backends() detection, and the differential tests
// and bench registration pick it up automatically (see DESIGN.md §15).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

namespace symbiosis::sig::kernels {

/// Dispatch table of the word-parallel kernels for one backend. All
/// pointers are non-null; word counts of zero are valid.
struct KernelOps {
  util::SimdBackend backend;

  /// Number of set bits in words[0..n).
  std::size_t (*popcount)(const std::uint64_t* words, std::size_t n);
  /// popcount(a XOR b) without materialising the XOR — the symbiosis metric.
  std::size_t (*xor_popcount)(const std::uint64_t* a, const std::uint64_t* b, std::size_t n);
  /// dst = a AND NOT b — the RBV derivation RBV = CF ∧ ¬LF.
  void (*and_not)(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                  std::size_t n);
  /// out[i] = popcount(a XOR bs[i]) for i in [0, count) — one batched pass
  /// evaluating an RBV against every core filter of a cluster.
  void (*xor_popcount_many)(const std::uint64_t* a, const std::uint64_t* const* bs,
                            std::size_t count, std::size_t words, std::size_t* out);
};

/// Table for a specific backend — for differential tests and benches that
/// compare backends in one process. Scalar is always valid; Avx2/Neon only
/// when listed in util::available_simd_backends() (calling a table for an
/// unsupported backend is undefined — it executes unsupported instructions).
[[nodiscard]] const KernelOps& kernel_ops(util::SimdBackend backend) noexcept;

/// The process-wide active table (util::active_simd_backend()); everything
/// in sig/ routes through this.
[[nodiscard]] const KernelOps& ops() noexcept;

}  // namespace symbiosis::sig::kernels
