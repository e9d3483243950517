// Differential suite for TagIndex (core/tag_index.h) against a
// std::unordered_map model.  A dense store keeps each id's key and hash,
// as Relation keeps its entries, and swap-moves its last id into an
// erased one.  The hash families force the index's edge cases: tags that
// all collide (so same() decides every probe), and home buckets at the
// end of the word array (so probe runs wrap to bucket 0).

#include "mra/core/tag_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <unordered_map>
#include <vector>

#include "mra/common/hash.h"

namespace mra {
namespace {

using HashFn = std::function<uint64_t(uint64_t)>;

/// Keys with their ids and payloads in dense vectors over one TagIndex.
class DenseStore {
 public:
  explicit DenseStore(HashFn hash) : hash_(std::move(hash)) {}

  TagIndex::Hit Lookup(uint64_t key) const {
    return index_.Find(hash_(key),
                       [&](size_t id) { return keys_[id] == key; });
  }
  size_t Find(uint64_t key) const { return Lookup(key).id; }

  /// Adds `value` to key's payload, inserting the key when absent.
  void Add(uint64_t key, uint64_t value) {
    bool inserted = false;
    const size_t id = index_.Insert(
        hash_(key), keys_.size(), [&](size_t i) { return keys_[i] == key; },
        [this](size_t i) { return hashes_[i]; }, &inserted);
    if (inserted) {
      EXPECT_EQ(id, keys_.size());
      keys_.push_back(key);
      hashes_.push_back(hash_(key));
      values_.push_back(0);
    }
    values_[id] += value;
  }

  /// Erases key; false when it was absent.
  bool Erase(uint64_t key) {
    const TagIndex::Hit hit = Lookup(key);
    const size_t id = hit.id;
    if (id == TagIndex::kNotFound) return false;
    const size_t last = keys_.size() - 1;
    index_.Erase(hit, last, [this](size_t i) { return hashes_[i]; });
    keys_[id] = keys_[last];
    hashes_[id] = hashes_[last];
    values_[id] = values_[last];
    keys_.pop_back();
    hashes_.pop_back();
    values_.pop_back();
    return true;
  }

  void Reserve(size_t n) {
    index_.Reserve(n, keys_.size(), [this](size_t i) { return hashes_[i]; });
  }

  void Clear() {
    index_.Clear();
    keys_.clear();
    hashes_.clear();
    values_.clear();
  }

  size_t size() const { return keys_.size(); }
  size_t capacity() const { return index_.capacity(); }
  uint64_t value(size_t id) const { return values_[id]; }

 private:
  HashFn hash_;
  TagIndex index_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint64_t> values_;
};

using Model = std::unordered_map<uint64_t, uint64_t>;

void ExpectMatchesModel(const DenseStore& store, const Model& model,
                        uint64_t domain) {
  ASSERT_EQ(store.size(), model.size());
  for (uint64_t key = 0; key < domain; ++key) {
    const size_t id = store.Find(key);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ(id, TagIndex::kNotFound) << "key " << key;
    } else {
      ASSERT_NE(id, TagIndex::kNotFound) << "key " << key;
      EXPECT_EQ(store.value(id), it->second) << "key " << key;
    }
  }
}

// Well-mixed hashes.
uint64_t Mixed(uint64_t key) { return Mix64(key + 1); }
// One tag for every key: the top 32 bits are constant.
uint64_t SameTag(uint64_t key) {
  return 0xA5A5A5A500000000ULL | (Mix64(key + 1) & 0xFFFFFFFFULL);
}
// Home in the last three buckets of any capacity up to 2^16, so every
// probe run wraps past the end of the word array.
uint64_t AtTheEnd(uint64_t key) {
  return (Mix64(key + 1) & 0xFFFFFFFF00000000ULL) | (0xFFFFu - key % 3);
}

struct Family {
  const char* name;
  uint64_t (*hash)(uint64_t);
};
constexpr Family kFamilies[] = {
    {"mixed", Mixed}, {"same tag", SameTag}, {"at the end", AtTheEnd}};

TEST(TagIndexDifferential, RandomOperationsMatchAMapModel) {
  for (const Family& family : kFamilies) {
    SCOPED_TRACE(family.name);
    // Fewer keys under the wrapping family: its keys share three homes,
    // so each probe walks the whole run.
    const uint64_t domain = family.hash == AtTheEnd ? 120 : 600;
    DenseStore store(family.hash);
    Model model;
    std::mt19937_64 rng(7);
    for (int op = 0; op < 20000; ++op) {
      const uint64_t key = rng() % domain;
      switch (rng() % 4) {
        case 0:
        case 1: {
          const uint64_t value = 1 + rng() % 5;
          store.Add(key, value);
          model[key] += value;
          break;
        }
        case 2:
          EXPECT_EQ(store.Erase(key), model.erase(key) == 1);
          break;
        default: {
          const size_t id = store.Find(key);
          auto it = model.find(key);
          ASSERT_EQ(id == TagIndex::kNotFound, it == model.end());
          if (it != model.end()) {
            EXPECT_EQ(store.value(id), it->second);
          }
        }
      }
      if (op % 997 == 0) ExpectMatchesModel(store, model, domain);
    }
    ExpectMatchesModel(store, model, domain);
    // Erase everything in a random order.
    std::vector<uint64_t> keys;
    for (const auto& [key, value] : model) keys.push_back(key);
    std::shuffle(keys.begin(), keys.end(), rng);
    for (uint64_t key : keys) {
      ASSERT_TRUE(store.Erase(key));
      model.erase(key);
      ExpectMatchesModel(store, model, domain);
    }
  }
}

TEST(TagIndexDifferential, CollidingTagsAreToldApartByTheKey) {
  DenseStore store(SameTag);
  for (uint64_t key = 0; key < 500; ++key) store.Add(key, key + 1);
  for (uint64_t key = 0; key < 500; ++key) {
    const size_t id = store.Find(key);
    ASSERT_NE(id, TagIndex::kNotFound);
    EXPECT_EQ(store.value(id), key + 1);
  }
  EXPECT_EQ(store.Find(500), TagIndex::kNotFound);
}

TEST(TagIndexDifferential, WrappingRunsSurviveEveryRemovalOrder) {
  std::mt19937_64 rng(11);
  std::vector<uint64_t> keys(40);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i;
  for (int trial = 0; trial < 30; ++trial) {
    DenseStore store(AtTheEnd);
    Model model;
    for (uint64_t key : keys) {
      store.Add(key, 2);
      model[key] = 2;
    }
    std::shuffle(keys.begin(), keys.end(), rng);
    for (uint64_t key : keys) {
      ASSERT_TRUE(store.Erase(key));
      model.erase(key);
      ExpectMatchesModel(store, model, keys.size());
    }
  }
}

TEST(TagIndexDifferential, GrowthAfterErasesKeepsEveryKey) {
  DenseStore store(Mixed);
  Model model;
  for (uint64_t key = 0; key < 100; ++key) {
    store.Add(key, 1);
    model[key] = 1;
  }
  // Erase most keys, then grow past the old peak: growth re-places only
  // the live ids, from their stored hashes.
  for (uint64_t key = 0; key < 100; ++key) {
    if (key % 5 != 0) {
      ASSERT_TRUE(store.Erase(key));
      model.erase(key);
    }
  }
  EXPECT_EQ(store.capacity(), TagIndex::CapacityFor(100));
  for (uint64_t key = 1000; key < 1400; ++key) {
    store.Add(key, 3);
    model[key] = 3;
  }
  EXPECT_EQ(store.capacity(), TagIndex::CapacityFor(420));
  ExpectMatchesModel(store, model, 1400);
}

TEST(TagIndexDifferential, ClearKeepsTheCapacity) {
  DenseStore store(Mixed);
  for (uint64_t key = 0; key < 300; ++key) store.Add(key, 1);
  const size_t buckets = store.capacity();
  ASSERT_GT(buckets, 0u);
  store.Clear();
  EXPECT_EQ(store.capacity(), buckets);
  for (uint64_t key = 0; key < 300; ++key) {
    EXPECT_EQ(store.Find(key), TagIndex::kNotFound);
  }
  for (uint64_t key = 0; key < 300; ++key) store.Add(key, 2);
  EXPECT_EQ(store.capacity(), buckets);
  ExpectMatchesModel(store, [] {
    Model m;
    for (uint64_t key = 0; key < 300; ++key) m[key] = 2;
    return m;
  }(), 300);
}

TEST(TagIndexTest, LoadStaysAtOrUnderSevenEighths) {
  EXPECT_EQ(TagIndex::CapacityFor(0), 0u);
  EXPECT_EQ(TagIndex::CapacityFor(1), 8u);
  EXPECT_EQ(TagIndex::CapacityFor(7), 8u);
  EXPECT_EQ(TagIndex::CapacityFor(8), 16u);
  EXPECT_EQ(TagIndex::CapacityFor(14), 16u);
  EXPECT_EQ(TagIndex::CapacityFor(15), 32u);
  DenseStore store(Mixed);
  for (uint64_t key = 0; key < 5000; ++key) {
    store.Add(key, 1);
    ASSERT_EQ(store.capacity(), TagIndex::CapacityFor(key + 1));
  }
}

TEST(TagIndexReserve, SizesOnceAndNeverShrinks) {
  DenseStore store(Mixed);
  store.Reserve(0);
  EXPECT_EQ(store.capacity(), 0u);
  store.Reserve(1000);
  const size_t buckets = TagIndex::CapacityFor(1000);
  EXPECT_EQ(store.capacity(), buckets);
  Model model;
  for (uint64_t key = 0; key < 1000; ++key) {
    store.Add(key, 1);
    model[key] = 1;
    ASSERT_EQ(store.capacity(), buckets);
  }
  // Within the room, or below the size: no-ops.
  store.Reserve(0);
  store.Reserve(10);
  store.Reserve(1000);
  EXPECT_EQ(store.capacity(), buckets);
  ExpectMatchesModel(store, model, 1000);
  // Past the room (7/8 of the buckets): twice the buckets, with every id
  // re-placed.
  store.Reserve(buckets * 7 / 8 + 1);
  EXPECT_EQ(store.capacity(), 2 * buckets);
  ExpectMatchesModel(store, model, 1000);
  // Far past it: the capacity n needs.
  store.Reserve(100000);
  EXPECT_EQ(store.capacity(), TagIndex::CapacityFor(100000));
  ExpectMatchesModel(store, model, 1000);
}

TEST(TagIndexReserve, ReservesAmongRandomOperationsKeepEveryKey) {
  for (const Family& family : kFamilies) {
    SCOPED_TRACE(family.name);
    const uint64_t domain = family.hash == AtTheEnd ? 120 : 600;
    DenseStore store(family.hash);
    Model model;
    std::mt19937_64 rng(13);
    for (int op = 0; op < 20000; ++op) {
      const uint64_t key = rng() % domain;
      switch (rng() % 5) {
        case 0:
        case 1: {
          const uint64_t value = 1 + rng() % 5;
          store.Add(key, value);
          model[key] += value;
          break;
        }
        case 2:
          EXPECT_EQ(store.Erase(key), model.erase(key) == 1);
          break;
        case 3: {
          // Below, at or past the live size.
          const size_t before = store.capacity();
          const size_t n = rng() % (2 * store.size() + 2);
          store.Reserve(n);
          ASSERT_GE(store.capacity(), before);
          ASSERT_GE(store.capacity(), TagIndex::CapacityFor(n));
          break;
        }
        default: {
          const size_t id = store.Find(key);
          auto it = model.find(key);
          ASSERT_EQ(id == TagIndex::kNotFound, it == model.end());
          if (it != model.end()) {
            EXPECT_EQ(store.value(id), it->second);
          }
        }
      }
      if (op % 997 == 0) ExpectMatchesModel(store, model, domain);
    }
    ExpectMatchesModel(store, model, domain);
  }
}

}  // namespace
}  // namespace mra
