// util::IdSet — an order-free set of dense 32-bit ids (the file, machine,
// process, url, domain and signer ids of one corpus), for the
// distinct-count accumulators of the analysis layer.
//
// A set keeps its ids in one of two forms, or both at once:
//   * a log of 4-byte ids, appended on insert, duplicates included;
//   * a dense bit vector over [0, 64 * words).
// Inserts below the bit vector's extent set a bit. Any other id is
// appended to the log, and the log folds into bits once it is as large as
// the bit vector that would hold it. So a set never holds much more than
// the smaller of the two forms: a scan shard (util::sharded_for keeps
// every shard's result alive until the serial combine) stays a short log
// when it saw few events, and a set that accumulates a whole corpus — the
// combine target, a streaming tally — ends up dense, where an insert is
// one bit.
//
// merge() is set union and leaves the target dense, size() is a popcount
// and for_each() visits ids in ascending order, so no result depends on
// insertion or merge order.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace longtail::util {

class IdSet {
 public:
  void insert(std::uint32_t id) {
    if (id < extent()) {
      words_[id >> 6] |= bit(id);
      return;
    }
    log_.push_back(id);
    log_words_ = std::max(log_words_, words_for(id));
    // 4 bytes per log entry against 8 per word of bits.
    if (log_.size() >= 2 * log_words_) fold();
  }

  // Set union: afterwards this set also holds every id of `other`.
  void merge(const IdSet& other) {
    fold();
    grow(std::max(other.words_.size(), other.log_words_));
    for (std::size_t w = 0; w < other.words_.size(); ++w)
      words_[w] |= other.words_[w];
    for (const auto id : other.log_) words_[id >> 6] |= bit(id);
  }

  [[nodiscard]] bool contains(std::uint32_t id) const {
    if (id < extent() && (words_[id >> 6] & bit(id)) != 0) return true;
    return std::find(log_.begin(), log_.end(), id) != log_.end();
  }

  // Number of distinct ids.
  [[nodiscard]] std::size_t size() const {
    if (!log_.empty()) return folded().size();
    std::size_t n = 0;
    for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  // Calls fn(id) once per distinct id, in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!log_.empty()) return folded().for_each(fn);
    for (std::size_t w = 0; w < words_.size(); ++w)
      for (auto bits = words_[w]; bits != 0; bits &= bits - 1)
        fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t bit(std::uint32_t id) {
    return std::uint64_t{1} << (id & 63);
  }
  [[nodiscard]] static constexpr std::size_t words_for(std::uint32_t id) {
    return (static_cast<std::size_t>(id) >> 6) + 1;
  }
  [[nodiscard]] std::size_t extent() const { return words_.size() * 64; }

  void grow(std::size_t words) {
    if (words > words_.size()) words_.resize(words, 0);
  }

  // Moves the log into the bit vector.
  void fold() {
    if (log_.empty()) return;
    grow(log_words_);
    for (const auto id : log_) words_[id >> 6] |= bit(id);
    log_ = {};
    log_words_ = 0;
  }

  [[nodiscard]] IdSet folded() const {
    IdSet copy = *this;
    copy.fold();
    return copy;
  }

  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> log_;
  std::size_t log_words_ = 0;  // words needed to hold the log's largest id
};

}  // namespace longtail::util
