// Shared helpers for the mra test suite.

#ifndef MRA_TESTS_TEST_UTIL_H_
#define MRA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "mra/core/relation.h"

namespace mra {
namespace testing {

/// Builds an all-int relation from rows; duplicates in `rows` accumulate
/// multiplicity, matching multi-set insertion.
inline Relation IntRel(const std::string& name,
                       const std::vector<std::vector<int64_t>>& rows,
                       size_t arity) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < arity; ++i) {
    attrs.push_back({"c" + std::to_string(i + 1), Type::Int()});
  }
  Relation rel(RelationSchema(name, std::move(attrs)));
  for (const auto& row : rows) {
    EXPECT_EQ(row.size(), arity);
    std::vector<Value> values;
    for (int64_t v : row) values.push_back(Value::Int(v));
    rel.InsertUnchecked(Tuple(std::move(values)), 1);
  }
  return rel;
}

/// Builds an int tuple.
inline Tuple IntTuple(const std::vector<int64_t>& values) {
  std::vector<Value> vs;
  for (int64_t v : values) vs.push_back(Value::Int(v));
  return Tuple(std::move(vs));
}

/// Random int relation with controlled multiplicities, for property tests.
/// Small value ranges force overlaps so −, ∩ and δ get exercised.
inline Relation RandomIntRelation(std::mt19937_64& rng, size_t arity,
                                  size_t max_distinct, int64_t value_range,
                                  uint64_t max_multiplicity) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < arity; ++i) {
    attrs.push_back({"c" + std::to_string(i + 1), Type::Int()});
  }
  Relation rel(RelationSchema("rnd", std::move(attrs)));
  std::uniform_int_distribution<size_t> distinct_dist(0, max_distinct);
  std::uniform_int_distribution<int64_t> value_dist(0, value_range - 1);
  std::uniform_int_distribution<uint64_t> count_dist(1, max_multiplicity);
  size_t n = distinct_dist(rng);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    for (size_t a = 0; a < arity; ++a) {
      values.push_back(Value::Int(value_dist(rng)));
    }
    rel.InsertUnchecked(Tuple(std::move(values)), count_dist(rng));
  }
  return rel;
}

/// The paper's beer database (Examples 3.1, 3.2, 4.1), small and
/// hand-checkable.  Both Guineken and Bavapils brew a beer named
/// "dubbel", so projecting beer names yields duplicates (Example 3.1),
/// and beer "pils" by Guineken carries multiplicity 2 to make the
/// multi-set character explicit.
struct PaperBeerDb {
  Relation beer;
  Relation brewery;

  PaperBeerDb()
      : beer(RelationSchema("beer", {{"name", Type::String()},
                                     {"brewery", Type::String()},
                                     {"alcperc", Type::Real()}})),
        brewery(RelationSchema("brewery", {{"name", Type::String()},
                                           {"city", Type::String()},
                                           {"country", Type::String()}})) {
    auto b = [](const char* n, const char* br, double a) {
      return Tuple({Value::Str(n), Value::Str(br), Value::Real(a)});
    };
    EXPECT_TRUE(beer.Insert(b("pils", "Guineken", 5.0), 2).ok());
    EXPECT_TRUE(beer.Insert(b("dubbel", "Guineken", 6.5)).ok());
    EXPECT_TRUE(beer.Insert(b("dubbel", "Bavapils", 7.0)).ok());
    EXPECT_TRUE(beer.Insert(b("stout", "Kirin", 4.2)).ok());
    auto w = [](const char* n, const char* c, const char* co) {
      return Tuple({Value::Str(n), Value::Str(c), Value::Str(co)});
    };
    EXPECT_TRUE(brewery.Insert(w("Guineken", "Amsterdam", "NL")).ok());
    EXPECT_TRUE(brewery.Insert(w("Bavapils", "Lieshout", "NL")).ok());
    EXPECT_TRUE(brewery.Insert(w("Kirin", "Tokyo", "JP")).ok());
  }
};

/// Random relation spanning every value domain (bool, int, real, string,
/// decimal, date), so sort-order tests exercise each Value::Compare branch.
/// Small ranges force key collisions; multiplicities up to `max_multiplicity`
/// keep the bag character visible.
inline Relation RandomMixedRelation(std::mt19937_64& rng, size_t max_distinct,
                                    uint64_t max_multiplicity) {
  Relation rel(RelationSchema("mixed", {{"flag", Type::Bool()},
                                        {"i", Type::Int()},
                                        {"x", Type::Real()},
                                        {"s", Type::String()},
                                        {"amount", Type::Decimal()},
                                        {"day", Type::Date()}}));
  std::uniform_int_distribution<size_t> distinct_dist(0, max_distinct);
  std::uniform_int_distribution<int64_t> int_dist(-5, 5);
  std::uniform_int_distribution<int> real_dist(0, 8);
  std::uniform_int_distribution<int> str_dist(0, 6);
  std::uniform_int_distribution<int64_t> dec_dist(-300, 300);
  std::uniform_int_distribution<int32_t> date_dist(10'000, 10'020);
  std::uniform_int_distribution<uint64_t> count_dist(1, max_multiplicity);
  size_t n = distinct_dist(rng);
  for (size_t i = 0; i < n; ++i) {
    rel.InsertUnchecked(
        Tuple({Value::Bool(int_dist(rng) > 0),
               Value::Int(int_dist(rng)),
               Value::Real(real_dist(rng) * 0.5),
               Value::Str(std::string(1 + str_dist(rng) % 3,
                                      static_cast<char>('a' + str_dist(rng)))),
               Value::DecimalScaled(dec_dist(rng)),
               Value::Date(date_dist(rng))}),
        count_dist(rng));
  }
  return rel;
}

/// A scaled-down TPC-H-style trio — customer ⟵ orders ⟵ lineitem — with
/// realistic key skew: every orders.custkey hits a customer, every
/// lineitem.orderkey hits an order, 1–4 lineitems per order.  Sizes are
/// small enough for definitional (nested-loop, whole-bag) evaluation to
/// stay fast, large enough that joins cross batch boundaries.
struct TpchMiniDb {
  Relation customer;
  Relation orders;
  Relation lineitem;

  explicit TpchMiniDb(uint64_t seed, size_t num_customers = 25,
                      size_t num_orders = 120)
      : customer(RelationSchema("customer", {{"custkey", Type::Int()},
                                             {"name", Type::String()},
                                             {"nation", Type::String()},
                                             {"acctbal", Type::Decimal()}})),
        orders(RelationSchema("orders", {{"orderkey", Type::Int()},
                                         {"o_custkey", Type::Int()},
                                         {"orderdate", Type::Date()},
                                         {"totalprice", Type::Decimal()},
                                         {"priority", Type::String()}})),
        lineitem(RelationSchema("lineitem", {{"l_orderkey", Type::Int()},
                                             {"partkey", Type::Int()},
                                             {"quantity", Type::Int()},
                                             {"extprice", Type::Decimal()},
                                             {"discount", Type::Real()},
                                             {"shipdate", Type::Date()},
                                             {"returnflag", Type::String()}})) {
    std::mt19937_64 rng(seed);
    static const char* kNations[] = {"NL", "JP", "DE", "US", "BR"};
    static const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM"};
    static const char* kFlags[] = {"A", "N", "R"};
    std::uniform_int_distribution<int64_t> bal_dist(-99'999, 999'999);
    for (size_t c = 1; c <= num_customers; ++c) {
      customer.InsertUnchecked(
          Tuple({Value::Int(static_cast<int64_t>(c)),
                 Value::Str("Customer#" + std::to_string(c)),
                 Value::Str(kNations[rng() % 5]),
                 Value::DecimalScaled(bal_dist(rng))}),
          1);
    }
    std::uniform_int_distribution<int64_t> price_dist(1'000, 500'000);
    std::uniform_int_distribution<int32_t> date_dist(9'000, 9'365);
    for (size_t o = 1; o <= num_orders; ++o) {
      orders.InsertUnchecked(
          Tuple({Value::Int(static_cast<int64_t>(o)),
                 Value::Int(static_cast<int64_t>(1 + rng() % num_customers)),
                 Value::Date(date_dist(rng)),
                 Value::DecimalScaled(price_dist(rng)),
                 Value::Str(kPriorities[rng() % 3])}),
          1);
      size_t items = 1 + rng() % 4;
      for (size_t l = 0; l < items; ++l) {
        lineitem.InsertUnchecked(
            Tuple({Value::Int(static_cast<int64_t>(o)),
                   Value::Int(static_cast<int64_t>(1 + rng() % 50)),
                   Value::Int(static_cast<int64_t>(1 + rng() % 50)),
                   Value::DecimalScaled(price_dist(rng)),
                   Value::Real((rng() % 10) * 0.01),
                   Value::Date(date_dist(rng)),
                   Value::Str(kFlags[rng() % 3])}),
            // Occasional multiplicity: identical line items do occur in a
            // bag and must survive every plan shape.
            rng() % 5 == 0 ? 2 : 1);
      }
    }
  }
};

}  // namespace testing
}  // namespace mra

/// Relation equality with readable diagnostics.
#define EXPECT_REL_EQ(a, b)                                           \
  EXPECT_TRUE((a).Equals(b)) << "left:  " << (a).ToString() << "\n"   \
                             << "right: " << (b).ToString()

// The status is copied out while `expr`'s temporaries are alive: binding
// a reference to `f().status()` would dangle past the full-expression.
#define ASSERT_OK(expr)                                               \
  do {                                                                \
    const ::mra::Status mra_st_ = ::mra::internal::ToStatus(expr);    \
    ASSERT_TRUE(mra_st_.ok()) << mra_st_.ToString();                  \
  } while (false)

#define EXPECT_OK(expr)                                               \
  do {                                                                \
    const ::mra::Status mra_st_ = ::mra::internal::ToStatus(expr);    \
    EXPECT_TRUE(mra_st_.ok()) << mra_st_.ToString();                  \
  } while (false)

#endif  // MRA_TESTS_TEST_UTIL_H_
