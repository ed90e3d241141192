#include "scenario/result_cache.hpp"

namespace gather::scenario {
namespace {

std::uint64_t payload_bytes(const std::string& key) {
  return static_cast<std::uint64_t>(key.size()) + sizeof(CachedRun);
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::optional<CachedRun> ResultCache::lookup(const std::string& fingerprint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  it->second.last_use = ++tick_;
  return it->second.run;
}

void ResultCache::store(const std::string& fingerprint, const CachedRun& run) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    // Another worker raced us to the same point (or a caller re-ran a
    // hit); equal fingerprints imply equal outcomes, keep the incumbent.
    it->second.last_use = ++tick_;
    return;
  }
  Entry entry;
  entry.run = run;
  entry.last_use = ++tick_;
  entry.bytes = payload_bytes(fingerprint);
  entries_.emplace(fingerprint, std::move(entry));
  while (entries_.size() > capacity_) evict_lru_locked();
}

void ResultCache::evict_lru_locked() {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (victim == entries_.end() ||
        it->second.last_use < victim->second.last_use) {
      victim = it;
    }
  }
  if (victim == entries_.end()) return;
  entries_.erase(victim);
  ++stats_.evictions;
}

ResultCacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ResultCacheStats out = stats_;
  out.entries = entries_.size();
  out.resident_bytes = 0;
  for (const auto& [key, entry] : entries_) out.resident_bytes += entry.bytes;
  return out;
}

void ResultCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_ = ResultCacheStats{};
}

}  // namespace gather::scenario
