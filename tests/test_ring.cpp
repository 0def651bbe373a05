#include "sim/ring.h"

#include <gtest/gtest.h>

namespace spire::sim {
namespace {

TEST(Ring, RoundsCapacityUpToAPowerOfTwo) {
  EXPECT_EQ(Ring<int>(0).capacity(), 1u);
  EXPECT_EQ(Ring<int>(64).capacity(), 64u);
  EXPECT_EQ(Ring<int>(97).capacity(), 128u);
}

TEST(Ring, FifoOrderSurvivesWrap) {
  Ring<int> r(4);
  int next_in = 0;
  int next_out = 0;
  // Keep 3 of 4 slots busy so head and tail cross the array end many times.
  for (int round = 0; round < 50; ++round) {
    while (r.size() < 3) r.push_back(next_in++);
    ASSERT_EQ(r.front(), next_out);
    ASSERT_EQ(r.back(), next_in - 1);
    for (std::size_t i = 0; i < r.size(); ++i) {
      ASSERT_EQ(r[i], next_out + static_cast<int>(i));
    }
    r.pop_front();
    ++next_out;
  }
  EXPECT_EQ(r.capacity(), 4u);  // never grew
}

TEST(Ring, GrowsWhenFullAndKeepsOrder) {
  Ring<int> r(4);
  // Wrap first so the grow has to unroll a split range.
  for (int i = 0; i < 3; ++i) r.push_back(-1);
  for (int i = 0; i < 3; ++i) r.pop_front();
  for (int i = 0; i < 11; ++i) r.push_back(i);
  EXPECT_EQ(r.capacity(), 16u);
  ASSERT_EQ(r.size(), 11u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i], static_cast<int>(i));
  }
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(Ring, PopBackAfterWrap) {
  Ring<int> r(4);
  r.push_back(0);
  r.push_back(1);
  r.push_back(2);
  r.pop_front();
  r.pop_front();
  r.push_back(3);
  r.push_back(4);  // tail has wrapped to slot 0
  EXPECT_EQ(r.back(), 4);
  r.pop_back();
  EXPECT_EQ(r.back(), 3);
  r.pop_back();
  EXPECT_EQ(r.back(), 2);
  EXPECT_EQ(r.front(), 2);
  r.pop_back();
  EXPECT_TRUE(r.empty());
  r.push_back(9);
  EXPECT_EQ(r.front(), 9);
  EXPECT_EQ(r.back(), 9);
}

TEST(Ring, ClearEmptiesAndStaysUsable) {
  Ring<int> r(2);
  for (int i = 0; i < 5; ++i) r.push_back(i);
  r.pop_front();
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  r.push_back(7);
  r.push_back(8);
  EXPECT_EQ(r.front(), 7);
  EXPECT_EQ(r[1], 8);
  EXPECT_EQ(r.back(), 8);
}

TEST(Ring, EmplaceBackResetsTheSlotAndGrows) {
  struct Rec {
    int a = 7;
    bool flag = false;
  };
  Ring<Rec> r(2);
  r.emplace_back().a = 1;
  r.emplace_back().flag = true;
  r.pop_front();
  r.pop_front();
  // The slots now hold stale values; a new element starts from defaults.
  Rec& fresh = r.emplace_back();
  EXPECT_EQ(fresh.a, 7);
  EXPECT_FALSE(fresh.flag);
  r.emplace_back().a = 2;
  r.emplace_back().a = 3;  // full at 2: grows to 4
  EXPECT_EQ(r.capacity(), 4u);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].a, 7);
  EXPECT_EQ(r[1].a, 2);
  EXPECT_EQ(r[2].a, 3);
}

}  // namespace
}  // namespace spire::sim
