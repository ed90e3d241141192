// Robot-label bit utilities.
//
// The paper's algorithms read a robot's label "from the least significant
// bit to the most significant bit" of its natural binary representation
// (no leading zeros). These helpers centralize that convention so §2.1
// (UXS gathering) and §2.3 (i-Hop-Meeting) agree on it exactly.
#pragma once

#include <cstdint>

namespace gather::support {

/// Natural bit length of a label (labels are >= 1, so length >= 1).
[[nodiscard]] unsigned label_bit_length(std::uint64_t label) noexcept;

/// Bit of `label` at position `index`, counting from the least significant
/// bit (index 0). Positions beyond the natural length return 0 — this is
/// the "ran out of bits" padding the schedules use for alignment.
[[nodiscard]] bool label_bit_lsb_first(std::uint64_t label, unsigned index) noexcept;

}  // namespace gather::support
