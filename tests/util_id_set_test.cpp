// util::IdSet (util/id_set.hpp) against a std::set reference: inserts,
// unions in shuffled shard orders, differing extents, the empty set,
// ascending iteration and duplicate inserts.
#include "util/id_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace longtail::util {
namespace {

std::vector<std::uint32_t> ids_of(const IdSet& s) {
  std::vector<std::uint32_t> out;
  s.for_each([&](std::uint32_t id) { out.push_back(id); });
  return out;
}

std::vector<std::uint32_t> ids_of(const std::set<std::uint32_t>& s) {
  return {s.begin(), s.end()};
}

TEST(IdSet, EmptySet) {
  const IdSet s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(ids_of(s).empty());

  IdSet merged;
  merged.merge(s);
  EXPECT_EQ(merged.size(), 0u);
  EXPECT_TRUE(ids_of(merged).empty());
}

TEST(IdSet, DuplicateInsertsCountOnce) {
  IdSet s;
  for (int round = 0; round < 100; ++round) {
    s.insert(7);
    s.insert(1'000'000);
  }
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(ids_of(s), (std::vector<std::uint32_t>{7, 1'000'000}));

  IdSet twice;
  twice.merge(s);
  twice.merge(s);
  EXPECT_EQ(twice.size(), 2u);
}

TEST(IdSet, IteratesInAscendingOrder) {
  IdSet s;
  for (const std::uint32_t id : {900u, 3u, 64u, 63u, 0u, 4'096u, 65u, 3u})
    s.insert(id);
  EXPECT_EQ(ids_of(s),
            (std::vector<std::uint32_t>{0, 3, 63, 64, 65, 900, 4'096}));
  for (const std::uint32_t id : {0u, 3u, 63u, 64u, 65u, 900u, 4'096u})
    EXPECT_TRUE(s.contains(id)) << id;
  for (const std::uint32_t id : {1u, 62u, 66u, 899u, 4'095u, 100'000u})
    EXPECT_FALSE(s.contains(id)) << id;
}

TEST(IdSet, UnionOfDifferentExtents) {
  IdSet narrow, wide;
  for (std::uint32_t id = 0; id < 100; id += 3) narrow.insert(id);
  for (std::uint32_t id = 50; id < 200'000; id += 997) wide.insert(id);
  std::set<std::uint32_t> ref;
  narrow.for_each([&](std::uint32_t id) { ref.insert(id); });
  wide.for_each([&](std::uint32_t id) { ref.insert(id); });

  IdSet a = narrow;
  a.merge(wide);
  IdSet b = wide;
  b.merge(narrow);
  EXPECT_EQ(a.size(), ref.size());
  EXPECT_EQ(ids_of(a), ids_of(ref));
  EXPECT_EQ(ids_of(b), ids_of(ref));

  // Inserting past the merged extent, and below it, after the merge.
  a.insert(5'000'000);
  a.insert(1);
  ref.insert(5'000'000);
  ref.insert(1);
  EXPECT_EQ(ids_of(a), ids_of(ref));
}

TEST(IdSet, MatchesStdSetUnderShuffledShardMerges) {
  std::mt19937 rng(20140101);
  for (const std::uint32_t id_space : {50u, 5'000u, 2'000'000u}) {
    SCOPED_TRACE(id_space);
    std::uniform_int_distribution<std::uint32_t> pick(0, id_space - 1);
    constexpr std::size_t kShards = 9;
    std::vector<IdSet> shards(kShards);
    std::set<std::uint32_t> ref;
    for (std::size_t s = 0; s < kShards; ++s) {
      // Shards of very different sizes, so some stay logs and some fold.
      const std::size_t n = (s * s * 977) % 20'000;
      for (std::size_t i = 0; i < n; ++i) {
        const auto id = pick(rng);
        shards[s].insert(id);
        ref.insert(id);
      }
    }

    std::vector<std::size_t> order(kShards);
    for (std::size_t i = 0; i < kShards; ++i) order[i] = i;
    for (int trial = 0; trial < 5; ++trial) {
      std::shuffle(order.begin(), order.end(), rng);
      IdSet total;
      for (const auto s : order) total.merge(shards[s]);
      EXPECT_EQ(total.size(), ref.size());
      EXPECT_EQ(ids_of(total), ids_of(ref)) << "trial " << trial;
      for (const auto id : {0u, id_space / 2, id_space - 1})
        EXPECT_EQ(total.contains(id), ref.count(id) == 1) << id;
    }
  }
}

TEST(IdSet, SizeAndContainsSeeUnfoldedLog) {
  // A handful of far-apart ids stays a log; reads must still see it.
  IdSet s;
  s.insert(3'000'000);
  s.insert(12);
  s.insert(3'000'000);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(12));
  EXPECT_TRUE(s.contains(3'000'000));
  EXPECT_FALSE(s.contains(13));
  EXPECT_EQ(ids_of(s), (std::vector<std::uint32_t>{12, 3'000'000}));
}

}  // namespace
}  // namespace longtail::util
