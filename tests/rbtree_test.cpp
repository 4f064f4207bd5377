// Property tests for the intrusive red-black tree against std::multiset as a
// reference model, plus structural invariant checks after every mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "kernel/rbtree.h"
#include "util/rng.h"

namespace hpcs::kernel {
namespace {

struct Item {
  explicit Item(std::uint64_t k, int id_) : key(k), id(id_) {
    node.owner = this;
  }
  std::uint64_t key;
  int id;
  RbNode node;
};

bool item_less(const RbNode& a, const RbNode& b, const void*) {
  const Item& ia = *static_cast<const Item*>(a.owner);
  const Item& ib = *static_cast<const Item*>(b.owner);
  if (ia.key != ib.key) return ia.key < ib.key;
  return ia.id < ib.id;
}

std::vector<std::pair<std::uint64_t, int>> in_order(const RbTree& tree) {
  std::vector<std::pair<std::uint64_t, int>> out;
  for (RbNode* n = tree.first(); n != nullptr; n = RbTree::next(n)) {
    const Item& item = *static_cast<const Item*>(n->owner);
    out.emplace_back(item.key, item.id);
  }
  return out;
}

TEST(RbTreeTest, EmptyTree) {
  RbTree tree(&item_less);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.leftmost(), nullptr);
  EXPECT_EQ(tree.validate(), 0);
}

TEST(RbTreeTest, SingleInsertErase) {
  RbTree tree(&item_less);
  Item a(5, 1);
  tree.insert(a.node);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(a.node.linked);
  EXPECT_EQ(tree.leftmost(), &a.node);
  EXPECT_GT(tree.validate(), 0);
  tree.erase(a.node);
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(a.node.linked);
}

TEST(RbTreeTest, DoubleInsertThrows) {
  RbTree tree(&item_less);
  Item a(1, 1);
  tree.insert(a.node);
  EXPECT_THROW(tree.insert(a.node), std::logic_error);
}

TEST(RbTreeTest, EraseUnlinkedThrows) {
  RbTree tree(&item_less);
  Item a(1, 1);
  EXPECT_THROW(tree.erase(a.node), std::logic_error);
}

TEST(RbTreeTest, LeftmostTracksMinimum) {
  RbTree tree(&item_less);
  Item a(10, 1), b(5, 2), c(20, 3), d(1, 4);
  tree.insert(a.node);
  EXPECT_EQ(tree.leftmost(), &a.node);
  tree.insert(b.node);
  EXPECT_EQ(tree.leftmost(), &b.node);
  tree.insert(c.node);
  EXPECT_EQ(tree.leftmost(), &b.node);
  tree.insert(d.node);
  EXPECT_EQ(tree.leftmost(), &d.node);
  tree.erase(d.node);
  EXPECT_EQ(tree.leftmost(), &b.node);
  tree.erase(b.node);
  EXPECT_EQ(tree.leftmost(), &a.node);
}

TEST(RbTreeTest, RightmostTracksMaximum) {
  RbTree tree(&item_less);
  EXPECT_EQ(tree.rightmost(), nullptr);
  Item a(10, 1), b(5, 2), c(20, 3), d(30, 4);
  tree.insert(a.node);
  EXPECT_EQ(tree.rightmost(), &a.node);
  tree.insert(b.node);
  EXPECT_EQ(tree.rightmost(), &a.node);
  tree.insert(c.node);
  EXPECT_EQ(tree.rightmost(), &c.node);
  tree.insert(d.node);
  EXPECT_EQ(tree.rightmost(), &d.node);
  tree.erase(d.node);
  EXPECT_EQ(tree.rightmost(), &c.node);
  tree.erase(c.node);
  EXPECT_EQ(tree.rightmost(), &a.node);
  tree.clear();
  EXPECT_EQ(tree.rightmost(), nullptr);
}

TEST(RbTreeTest, PrevWalksReverseOrder) {
  RbTree tree(&item_less);
  std::vector<std::unique_ptr<Item>> items;
  util::Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    items.push_back(std::make_unique<Item>(rng.uniform_u64(0, 50), i));
    tree.insert(items.back()->node);
  }
  auto forward = in_order(tree);
  std::vector<std::pair<std::uint64_t, int>> backward;
  for (RbNode* n = tree.last(); n != nullptr; n = RbTree::prev(n)) {
    const Item& item = *static_cast<const Item*>(n->owner);
    backward.emplace_back(item.key, item.id);
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST(RbTreeTest, InOrderIsSorted) {
  RbTree tree(&item_less);
  std::vector<std::unique_ptr<Item>> items;
  util::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    items.push_back(std::make_unique<Item>(rng.uniform_u64(0, 50), i));
    tree.insert(items.back()->node);
  }
  auto seq = in_order(tree);
  EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end()));
  EXPECT_EQ(seq.size(), 200u);
  EXPECT_GT(tree.validate(), 0);
}

TEST(RbTreeTest, ClearUnlinksAll) {
  RbTree tree(&item_less);
  Item a(1, 1), b(2, 2), c(3, 3);
  tree.insert(a.node);
  tree.insert(b.node);
  tree.insert(c.node);
  tree.clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(a.node.linked);
  EXPECT_FALSE(b.node.linked);
  EXPECT_FALSE(c.node.linked);
  // Nodes are reusable after clear.
  tree.insert(b.node);
  EXPECT_EQ(tree.size(), 1u);
}

struct SweepParam {
  std::uint64_t seed;
  int ops;
  // gtest names each case after the raw bytes of its param. These four were
  // uninitialised padding, so the case names changed from build to build;
  // spelling them out keeps each case under the name it is listed by.
  std::array<unsigned char, 4> name_bytes;
  std::uint64_t key_range;
};
static_assert(std::has_unique_object_representations_v<SweepParam>,
              "a padding byte would make the case names vary by build");

class RbTreeSweep : public ::testing::TestWithParam<SweepParam> {};

// Randomised differential test: every mutation is mirrored in a reference
// std::multiset; after each step the RB invariants must hold and the
// in-order traversal must match the reference exactly.
TEST_P(RbTreeSweep, MatchesReferenceModel) {
  const SweepParam param = GetParam();
  util::Rng rng(param.seed);
  RbTree tree(&item_less);
  std::vector<std::unique_ptr<Item>> pool;
  std::vector<Item*> linked;
  std::multiset<std::pair<std::uint64_t, int>> reference;

  for (int op = 0; op < param.ops; ++op) {
    const bool insert = linked.empty() || rng.chance(0.6);
    if (insert) {
      pool.push_back(std::make_unique<Item>(
          rng.uniform_u64(0, param.key_range), static_cast<int>(pool.size())));
      Item* item = pool.back().get();
      tree.insert(item->node);
      linked.push_back(item);
      reference.emplace(item->key, item->id);
    } else {
      const auto pick =
          static_cast<std::size_t>(rng.uniform_u64(0, linked.size() - 1));
      Item* item = linked[pick];
      tree.erase(item->node);
      reference.erase(reference.find({item->key, item->id}));
      linked.erase(linked.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_GT(tree.validate(), -1) << "RB invariant violated at op " << op;
    ASSERT_EQ(tree.size(), reference.size());
  }
  const auto seq = in_order(tree);
  std::vector<std::pair<std::uint64_t, int>> expect(reference.begin(),
                                                    reference.end());
  EXPECT_EQ(seq, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RbTreeSweep,
    ::testing::Values(SweepParam{1, 50, {}, 8},
                      SweepParam{2, 500, {0x65, 0x73, 0x74, 0x5F}, 4},
                      SweepParam{3, 500, {0x2E, 0x63, 0x70, 0x70}, 1000000},
                      SweepParam{4, 2000, {}, 64},
                      SweepParam{5, 2000, {0x00, 0x00, 0xC0, 0x00}, 2},
                      SweepParam{6, 5000, {}, 100},
                      SweepParam{7, 1000, {}, 1},
                      SweepParam{8, 3000, {0x00, 0x00, 0xD0, 0x00}, 1000}));

// Ascending/descending insertion are the classic degenerate cases.
TEST(RbTreeTest, AscendingInsertionStaysBalanced) {
  RbTree tree(&item_less);
  std::vector<std::unique_ptr<Item>> items;
  for (int i = 0; i < 1024; ++i) {
    items.push_back(std::make_unique<Item>(static_cast<std::uint64_t>(i), i));
    tree.insert(items.back()->node);
  }
  const int height = tree.validate();
  ASSERT_GT(height, 0);
  // Black-height of a 1024-node RB tree is at most ~log2(n)+1.
  EXPECT_LE(height, 11);
}

TEST(RbTreeTest, DescendingInsertionStaysBalanced) {
  RbTree tree(&item_less);
  std::vector<std::unique_ptr<Item>> items;
  for (int i = 1024; i > 0; --i) {
    items.push_back(std::make_unique<Item>(static_cast<std::uint64_t>(i), i));
    tree.insert(items.back()->node);
    ASSERT_GT(tree.validate(), 0);
  }
}

TEST(RbTreeTest, DuplicateKeysOrderedById) {
  RbTree tree(&item_less);
  Item a(5, 2), b(5, 1), c(5, 3);
  tree.insert(a.node);
  tree.insert(b.node);
  tree.insert(c.node);
  const auto seq = in_order(tree);
  EXPECT_EQ(seq[0].second, 1);
  EXPECT_EQ(seq[1].second, 2);
  EXPECT_EQ(seq[2].second, 3);
}

}  // namespace
}  // namespace hpcs::kernel
