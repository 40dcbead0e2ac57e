#include "src/serve/cache.h"

#include <algorithm>

namespace inflog {
namespace serve {

std::optional<ServeAnswer> QueryCache::Lookup(const std::string& key,
                                              uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  SweepLocked();
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.epoch != epoch) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second.answer;
}

void QueryCache::Insert(const std::string& key, uint64_t epoch,
                        const std::vector<std::string>& support,
                        const ServeAnswer& answer) {
  std::lock_guard<std::mutex> lock(mu_);
  SweepLocked();
  if (epoch < current_epoch_) return;  // late insert from a retired pin
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.epoch >= epoch) return;
  entries_[key] = Entry{epoch, support, answer};
}

void QueryCache::Advance(const std::vector<std::string>* changed_relations,
                         uint64_t new_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  current_epoch_ = new_epoch;
  sweep_pending_ = true;
  if (changed_relations == nullptr) {
    sweep_all_ = true;
  } else {
    sweep_changed_.insert(changed_relations->begin(),
                          changed_relations->end());
  }
}

void QueryCache::SweepLocked() {
  if (!sweep_pending_) return;
  for (auto it = entries_.begin(); it != entries_.end();) {
    // Both lists are sorted: linear intersection test.
    const std::vector<std::string>& support = it->second.support;
    const bool touched =
        sweep_all_ || std::find_first_of(support.begin(), support.end(),
                                         sweep_changed_.begin(),
                                         sweep_changed_.end()) !=
                          support.end();
    if (touched) {
      ++invalidations_;
      it = entries_.erase(it);
    } else {
      it->second.epoch = current_epoch_;
      ++it;
    }
  }
  sweep_pending_ = false;
  sweep_all_ = false;
  sweep_changed_.clear();
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  SweepLocked();
  invalidations_ += entries_.size();
  entries_.clear();
}

uint64_t QueryCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t QueryCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t QueryCache::invalidations() {
  std::lock_guard<std::mutex> lock(mu_);
  SweepLocked();
  return invalidations_;
}

size_t QueryCache::size() {
  std::lock_guard<std::mutex> lock(mu_);
  SweepLocked();
  return entries_.size();
}

}  // namespace serve
}  // namespace inflog
