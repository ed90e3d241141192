#include "support/bitstring.hpp"

#include "support/math.hpp"

namespace gather::support {

unsigned label_bit_length(std::uint64_t label) noexcept {
  return label == 0 ? 1 : bit_width_u64(label);
}

bool label_bit_lsb_first(std::uint64_t label, unsigned index) noexcept {
  if (index >= 64) return false;
  return ((label >> index) & 1ULL) != 0;
}

}  // namespace gather::support
