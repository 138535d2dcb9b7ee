#include "sig/hash.hpp"

#include <stdexcept>

namespace symbiosis::sig {

using util::floor_log2;
using util::is_pow2;

std::string to_string(HashKind kind) {
  switch (kind) {
    case HashKind::Xor: return "xor";
    case HashKind::XorInverseReverse: return "xor-inv-rev";
    case HashKind::Modulo: return "modulo";
    case HashKind::Presence: return "presence";
    case HashKind::Multiply: return "multiply";
  }
  return "?";
}

HashKind parse_hash_kind(const std::string& name) {
  if (name == "xor") return HashKind::Xor;
  if (name == "xor-inv-rev") return HashKind::XorInverseReverse;
  if (name == "modulo") return HashKind::Modulo;
  if (name == "presence") return HashKind::Presence;
  if (name == "multiply") return HashKind::Multiply;
  throw std::invalid_argument("unknown hash kind: " + name);
}

IndexHash::IndexHash(HashKind kind, std::size_t entries)
    : kind_(kind), entries_(entries), index_bits_(floor_log2(entries | 1)) {
  if (entries == 0) throw std::invalid_argument("IndexHash: entries must be > 0");
  const bool folds = kind == HashKind::Xor || kind == HashKind::XorInverseReverse ||
                     kind == HashKind::Multiply;
  // One entry would be a zero-bit index: xor_fold would never advance and
  // Multiply would shift by 64.
  if (folds && (entries < 2 || !is_pow2(entries))) {
    throw std::invalid_argument("IndexHash: " + to_string(kind) +
                                " requires a power-of-two entry count of at least 2");
  }
  if (kind == HashKind::Presence) {
    throw std::invalid_argument(
        "IndexHash: presence bits are positional (set/way), not an address hash; "
        "configure the filter unit with HashKind::Presence instead");
  }
}

}  // namespace symbiosis::sig
