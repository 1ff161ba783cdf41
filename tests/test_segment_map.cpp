#include "util/segment_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>

#include "util/rng.h"

namespace caya {
namespace {

TEST(SegmentMap, MatchesMapModelUnderAssignAndErase) {
  // Differential check against a std::map of seq -> bytes: seeded inserts
  // (enough to double the record slots several times), overwrites that
  // shrink or grow a segment (leaving garbage to compact), erasures at any
  // index and clears. Every segment, in order, must agree after every
  // operation.
  SegmentMap map;
  std::map<std::uint32_t, Bytes> model;
  std::size_t most = 0;
  Rng rng(17);
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t roll = rng.uniform(0, 99);
    if (roll < 70) {
      const auto seq = static_cast<std::uint32_t>(
          rng.chance(0.9) ? rng.index(200) : rng.uniform(0, 0xffffffffu));
      const Bytes bytes = rng.bytes(rng.index(120));
      map.assign(seq, bytes);
      model[seq] = bytes;
    } else if (roll < 98) {
      if (model.empty()) continue;
      const std::size_t i = rng.index(model.size());
      map.erase_at(i);
      model.erase(std::next(model.begin(), static_cast<std::ptrdiff_t>(i)));
    } else {
      map.clear();
      model.clear();
    }
    most = std::max(most, model.size());
    ASSERT_EQ(map.size(), model.size()) << op;
    std::size_t live = 0;
    std::size_t i = 0;
    for (const auto& [seq, bytes] : model) {
      ASSERT_EQ(map.seq_at(i), seq) << op;
      const auto held = map.bytes_at(i);
      ASSERT_EQ(Bytes(held.begin(), held.end()), bytes) << op;
      live += bytes.size();
      ++i;
    }
    ASSERT_EQ(map.live_bytes(), live) << op;
    const auto probe = static_cast<std::uint32_t>(rng.index(200));
    const auto found = map.find(probe);
    ASSERT_EQ(found.has_value(), model.contains(probe)) << op;
  }
  EXPECT_GT(most, 32u);
}

}  // namespace
}  // namespace caya
