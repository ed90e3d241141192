// Minimal JSON string escaping shared by every machine-readable emitter
// (scenario sweep JSON, the C ABI replay report). Escapes quotes, backslash,
// and control characters; everything else passes through byte-for-byte.
//
// Layer contract (src/support/): pure utilities with no knowledge of the
// paper's model. Depends on nothing but the standard library.
#pragma once

#include <string>

namespace gather::support {

[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace gather::support
