// bitvector.hpp — dense bit-vector modelling the hardware Core/Last filters.
//
// The signature hardware is specified as flat bit arrays with parallel
// bitwise logic (§5.4: "parallel bitwise XOR gates"). BitVector provides the
// word-parallel equivalents the model needs: popcount, XOR-popcount,
// AND-NOT (the RBV derivation CF ∧ ¬LF), and saturation queries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace symbiosis::sig {

/// Fixed-size dense bit vector with word-parallel set operations.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t bits);

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }

  void set(std::size_t i) noexcept;
  void clear(std::size_t i) noexcept;
  [[nodiscard]] bool test(std::size_t i) const noexcept;

  /// Set all bits to zero.
  void reset() noexcept;

  /// Number of set bits ("occupancy weight" when this is an RBV).
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// popcount(*this XOR other) without materialising the XOR — this is the
  /// paper's symbiosis metric between an RBV and a core filter.
  [[nodiscard]] std::size_t xor_popcount(const BitVector& other) const noexcept;

  /// *this = a AND NOT b. This is the RBV derivation: RBV = CF ∧ ¬LF
  /// (equivalently ¬(CF → LF)). Sizes must match.
  void assign_and_not(const BitVector& a, const BitVector& b) noexcept;

  /// Copy assignment of contents (sizes must match); models the LF snapshot.
  void assign(const BitVector& other) noexcept;

  /// In-place OR / AND / XOR (sizes must match).
  BitVector& operator|=(const BitVector& other) noexcept;
  BitVector& operator&=(const BitVector& other) noexcept;
  BitVector& operator^=(const BitVector& other) noexcept;

  [[nodiscard]] bool operator==(const BitVector& other) const noexcept = default;

  /// Fraction of bits set, in [0, 1]; a value near 1 means the filter is
  /// saturated and carries little information (the presence-bits failure
  /// mode of §5.3).
  [[nodiscard]] double fill_ratio() const noexcept;

  /// Raw words for serialization / tests.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept { return words_; }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace symbiosis::sig
