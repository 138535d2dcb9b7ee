// kernels.cpp — scalar / AVX2 / NEON implementations of the signature
// kernels. The AVX2 bodies carry __attribute__((target("avx2"))) so the
// translation unit builds without -mavx2 and the default build stays free
// of ISA flags; they are only ever reached through a table whose backend
// util::available_simd_backends() confirmed at startup.
#include "sig/kernels.hpp"

#include <atomic>

#include "util/hotpath.hpp"

#include <bit>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SYMBIOSIS_KERNELS_AVX2 1
#define SYMBIOSIS_TARGET_AVX2 __attribute__((target("avx2")))
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define SYMBIOSIS_KERNELS_NEON 1
#endif

namespace symbiosis::sig::kernels {
namespace {

// ---------------------------------------------------------------- scalar

SYM_HOT std::size_t popcount_scalar(const std::uint64_t* words, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += static_cast<std::size_t>(std::popcount(words[i]));
  return total;
}

SYM_HOT std::size_t xor_popcount_scalar(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

SYM_HOT void and_not_scalar(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
}

SYM_HOT void xor_popcount_many_scalar(const std::uint64_t* a, const std::uint64_t* const* bs,
                              std::size_t count, std::size_t words, std::size_t* out) {
  for (std::size_t c = 0; c < count; ++c) out[c] = xor_popcount_scalar(a, bs[c], words);
}

constexpr KernelOps kScalarOps{
    util::SimdBackend::Scalar, popcount_scalar, xor_popcount_scalar, and_not_scalar,
    xor_popcount_many_scalar,
};

// ----------------------------------------------------------------- AVX2

#if defined(SYMBIOSIS_KERNELS_AVX2)

/// Per-byte popcount of a 256-bit block via the vpshufb nibble LUT (Mula),
/// horizontally folded into four 64-bit lanes with vpsadbw.
SYMBIOSIS_TARGET_AVX2 inline __m256i block_popcount_avx2(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

SYMBIOSIS_TARGET_AVX2 inline std::uint64_t hsum_epi64_avx2(__m256i v) {
  const __m128i sum =
      _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

SYMBIOSIS_TARGET_AVX2 inline __m256i load_words_avx2(const std::uint64_t* words) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words));
}

SYM_HOT SYMBIOSIS_TARGET_AVX2 std::size_t popcount_avx2(const std::uint64_t* words, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(acc, block_popcount_avx2(load_words_avx2(words + i)));
  }
  std::size_t total = hsum_epi64_avx2(acc);
  for (; i < n; ++i) total += static_cast<std::size_t>(std::popcount(words[i]));
  return total;
}

SYM_HOT SYMBIOSIS_TARGET_AVX2 std::size_t xor_popcount_avx2(const std::uint64_t* a,
                                                    const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_xor_si256(load_words_avx2(a + i), load_words_avx2(b + i));
    acc = _mm256_add_epi64(acc, block_popcount_avx2(v));
  }
  std::size_t total = hsum_epi64_avx2(acc);
  for (; i < n; ++i) total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  return total;
}

SYM_HOT SYMBIOSIS_TARGET_AVX2 void and_not_avx2(std::uint64_t* dst, const std::uint64_t* a,
                                        const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // vpandn computes ¬x ∧ y, so b goes first.
    const __m256i v = _mm256_andnot_si256(load_words_avx2(b + i), load_words_avx2(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}

SYM_HOT SYMBIOSIS_TARGET_AVX2 void xor_popcount_many_avx2(const std::uint64_t* a,
                                                  const std::uint64_t* const* bs,
                                                  std::size_t count, std::size_t words,
                                                  std::size_t* out) {
  for (std::size_t c = 0; c < count; ++c) out[c] = xor_popcount_avx2(a, bs[c], words);
}

constexpr KernelOps kAvx2Ops{
    util::SimdBackend::Avx2, popcount_avx2, xor_popcount_avx2, and_not_avx2,
    xor_popcount_many_avx2,
};

#endif  // SYMBIOSIS_KERNELS_AVX2

// ----------------------------------------------------------------- NEON

#if defined(SYMBIOSIS_KERNELS_NEON)

SYM_HOT std::size_t popcount_neon(const std::uint64_t* words, std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t v = vreinterpretq_u8_u64(vld1q_u64(words + i));
    total += vaddvq_u8(vcntq_u8(v));
  }
  for (; i < n; ++i) total += static_cast<std::size_t>(std::popcount(words[i]));
  return total;
}

SYM_HOT std::size_t xor_popcount_neon(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    total += vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v)));
  }
  for (; i < n; ++i) total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  return total;
}

SYM_HOT void and_not_neon(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vbicq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}

SYM_HOT void xor_popcount_many_neon(const std::uint64_t* a, const std::uint64_t* const* bs,
                            std::size_t count, std::size_t words, std::size_t* out) {
  for (std::size_t c = 0; c < count; ++c) out[c] = xor_popcount_neon(a, bs[c], words);
}

constexpr KernelOps kNeonOps{
    util::SimdBackend::Neon, popcount_neon, xor_popcount_neon, and_not_neon,
    xor_popcount_many_neon,
};

#endif  // SYMBIOSIS_KERNELS_NEON

}  // namespace

const KernelOps& kernel_ops(util::SimdBackend backend) noexcept {
  switch (backend) {
#if defined(SYMBIOSIS_KERNELS_AVX2)
    case util::SimdBackend::Avx2:
      return kAvx2Ops;
#endif
#if defined(SYMBIOSIS_KERNELS_NEON)
    case util::SimdBackend::Neon:
      return kNeonOps;
#endif
    default:
      return kScalarOps;
  }
}

namespace {
// Bound-once dispatch table pointer. A function-local static would guard
// its initialization with __cxa_guard_acquire -- a lock on every signature
// kernel call path -- so the binding is a lock-free atomic instead: the
// hot read is one acquire load, and the cold first-call binding is
// idempotent (active_simd_backend() is deterministic for a process), so a
// racing double-bind stores the same pointer twice.
std::atomic<const KernelOps*> g_active_ops{nullptr};

SYM_COLD const KernelOps& bind_ops() noexcept {
  // util::active_simd_backend() honours SYMBIOSIS_SIMD (env read + log --
  // cold by design).
  const KernelOps& bound = kernel_ops(util::active_simd_backend());
  g_active_ops.store(&bound, std::memory_order_release);
  return bound;
}
}  // namespace

SYM_HOT const KernelOps& ops() noexcept {
  const KernelOps* active = g_active_ops.load(std::memory_order_acquire);
  return active != nullptr ? *active : bind_ops();
}

}  // namespace symbiosis::sig::kernels
