#include "support/parallel_for.hpp"

#include <cstdlib>

namespace gather::support {

std::optional<unsigned> parse_thread_count(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  unsigned value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    // Saturate at the cap, so any number of digits stays in range.
    value = std::min(kMaxWorkers,
                     value * 10 + static_cast<unsigned>(c - '0'));
  }
  return value;
}

unsigned default_thread_count() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup before
  // any pool exists; nothing in this process writes the environment.
  if (const char* env = std::getenv("GATHER_THREADS")) {
    if (const auto threads = parse_thread_count(env)) return *threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace gather::support
