#include "sig/bitvector.hpp"

#include "sig/kernels.hpp"
#include "util/check.hpp"

namespace symbiosis::sig {

namespace {
constexpr std::size_t kWordBits = 64;
}

BitVector::BitVector(std::size_t bits) : bits_(bits), words_((bits + kWordBits - 1) / kWordBits, 0) {}

void BitVector::set(std::size_t i) noexcept {
  SYM_DCHECK_BOUNDS(i, bits_, "sig.bitvector");
  words_[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

void BitVector::clear(std::size_t i) noexcept {
  SYM_DCHECK_BOUNDS(i, bits_, "sig.bitvector");
  words_[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

bool BitVector::test(std::size_t i) const noexcept {
  SYM_DCHECK_BOUNDS(i, bits_, "sig.bitvector");
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVector::reset() noexcept {
  for (auto& w : words_) w = 0;
}

std::size_t BitVector::popcount() const noexcept {
  return kernels::ops().popcount(words_.data(), words_.size());
}

std::size_t BitVector::xor_popcount(const BitVector& other) const noexcept {
  SYM_DCHECK_EQ(bits_, other.bits_, "sig.bitvector") << "bit-vector width mismatch";
  return kernels::ops().xor_popcount(words_.data(), other.words_.data(), words_.size());
}

void BitVector::assign_and_not(const BitVector& a, const BitVector& b) noexcept {
  SYM_DCHECK_EQ(bits_, a.bits_, "sig.bitvector") << "bit-vector width mismatch";
  SYM_DCHECK_EQ(bits_, b.bits_, "sig.bitvector") << "bit-vector width mismatch";
  kernels::ops().and_not(words_.data(), a.words_.data(), b.words_.data(), words_.size());
}

void BitVector::assign(const BitVector& other) noexcept {
  SYM_DCHECK_EQ(bits_, other.bits_, "sig.bitvector") << "bit-vector width mismatch";
  words_ = other.words_;
}

BitVector& BitVector::operator|=(const BitVector& other) noexcept {
  SYM_DCHECK_EQ(bits_, other.bits_, "sig.bitvector") << "bit-vector width mismatch";
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& other) noexcept {
  SYM_DCHECK_EQ(bits_, other.bits_, "sig.bitvector") << "bit-vector width mismatch";
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVector& BitVector::operator^=(const BitVector& other) noexcept {
  SYM_DCHECK_EQ(bits_, other.bits_, "sig.bitvector") << "bit-vector width mismatch";
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

double BitVector::fill_ratio() const noexcept {
  if (bits_ == 0) return 0.0;
  return static_cast<double>(popcount()) / static_cast<double>(bits_);
}

}  // namespace symbiosis::sig
