#include "data.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>

namespace perfbench {

using mra::Attribute;
using mra::Relation;
using mra::RelationSchema;
using mra::Tuple;
using mra::Type;
using mra::Value;

namespace {

// Stream ids of Hash(): one per generated column family.
enum Stream : uint64_t {
  kCustomer = 1,
  kOrder,
  kItemOwner,
  kItem,
  kItemDup,
  kStreamOrder,
  kOrdersRow,
  kLookup,
};

// Field `f` of row `i`: an independent draw per field.
uint64_t Field(uint64_t seed, uint64_t stream, uint64_t i, uint64_t f) {
  return Hash(seed, stream, i * 16 + f);
}

int64_t Draw(uint64_t seed, uint64_t stream, uint64_t i, uint64_t f,
             int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Field(seed, stream, i, f) %
                                   static_cast<uint64_t>(hi - lo + 1));
}

Relation Empty(std::string name, std::vector<Attribute> attrs) {
  return Relation(RelationSchema(std::move(name), std::move(attrs)));
}

// Query predicate constants (days since an arbitrary epoch).
constexpr int64_t kQ1ShipCutoff = 2'400;  // l_shipdate <= cutoff
constexpr int64_t kQ3Date = 1'300;        // o_orderdate < d < l_shipdate
constexpr int64_t kQ5From = 700;          // from <= o_orderdate < to
constexpr int64_t kQ5To = 1'800;
constexpr size_t kQ3Limit = 10;

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Hash(uint64_t seed, uint64_t stream, uint64_t i) {
  return Mix(Mix(seed ^ (stream << 56)) + i);
}

uint64_t BagDigest(const Relation& rel) {
  uint64_t digest = Mix(rel.size()) ^ Mix(rel.distinct_size() + 1);
  for (const auto& [tuple, count] : rel) {
    // Summation keeps the digest independent of hash-map iteration order.
    digest += Mix(Mix(std::hash<std::string>{}(tuple.ToString())) ^ count);
  }
  return digest;
}

TpchData MakeTpch(uint64_t seed) {
  TpchData d{
      Empty("customer", {{"c_custkey", Type::Int()},
                         {"c_nationkey", Type::Int()},
                         {"c_mktsegment", Type::String()}}),
      Empty("orders", {{"o_orderkey", Type::Int()},
                       {"o_custkey", Type::Int()},
                       {"o_orderdate", Type::Int()},
                       {"o_totalprice", Type::Int()}}),
      Empty("lineitem", {{"l_orderkey", Type::Int()},
                         {"l_partkey", Type::Int()},
                         {"l_quantity", Type::Int()},
                         {"l_extendedprice", Type::Int()},
                         {"l_returnflag", Type::String()},
                         {"l_linestatus", Type::String()},
                         {"l_shipdate", Type::Int()}})};
  static const char* kSegments[] = {"AUTO", "BUILD", "FURN", "HOUSE", "MACH"};
  static const char* kFlags[] = {"A", "N", "R"};
  for (int64_t c = 1; c <= kTpchCustomers; ++c) {
    d.customer.InsertUnchecked(
        Tuple({Value::Int(c), Value::Int(Draw(seed, kCustomer, c, 0, 0, 24)),
               Value::Str(kSegments[Draw(seed, kCustomer, c, 1, 0, 4)])}));
  }
  std::vector<int64_t> order_date(static_cast<size_t>(kTpchOrders) + 1);
  for (int64_t o = 1; o <= kTpchOrders; ++o) {
    order_date[o] = Draw(seed, kOrder, o, 1, 0, 2'405);
    d.orders.InsertUnchecked(Tuple(
        {Value::Int(o),
         Value::Int(Draw(seed, kOrder, o, 0, 1, kTpchCustomers)),
         Value::Int(order_date[o]),
         Value::Int(Draw(seed, kOrder, o, 2, 1'000, 500'000))}));
  }
  // Every order gets one line item; the rest go to seeded owners, so the
  // distinct count is exact and orders carry 1..n items.
  for (int64_t l = 0; l < kTpchLineitems; ++l) {
    const int64_t owner =
        l < kTpchOrders ? l + 1
                        : Draw(seed, kItemOwner, l, 0, 1, kTpchOrders);
    const int64_t part = Draw(seed, kItem, l, 0, 1, 2'000);
    const int64_t qty = Draw(seed, kItem, l, 1, 1, 50);
    const int64_t ship = order_date[owner] + Draw(seed, kItem, l, 2, 1, 120);
    const bool open = ship > 1'800;
    Tuple item({Value::Int(owner), Value::Int(part), Value::Int(qty),
                Value::Int(qty * (900 + part)),
                Value::Str(open ? "N" : kFlags[Draw(seed, kItem, l, 4, 0, 2)]),
                Value::Str(open ? "O" : "F"), Value::Int(ship)});
    // Duplicate line items are real bag members (Definition 2.2).
    d.lineitem.InsertUnchecked(std::move(item),
                               Field(seed, kItemDup, l, 0) % 5 == 0 ? 2 : 1);
  }
  return d;
}

const char* QueryName(Query q) {
  switch (q) {
    case Query::kQ1:
      return "q1";
    case Query::kQ3:
      return "q3";
    case Query::kQ5:
      return "q5";
    case Query::kDistinct:
      return "distinct";
    case Query::kOrderBy:
      return "orderby";
  }
  return "?";
}

const char* QuerySql(Query q) {
  switch (q) {
    case Query::kQ1:  // scan + σ + Γ
      return "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
             "SUM(l_extendedprice) AS sum_price, COUNT(*) AS n "
             "FROM lineitem WHERE l_shipdate <= 2400 "
             "GROUP BY l_returnflag, l_linestatus";
    case Query::kQ3:  // ⋈ + Γ + top-k
      return "SELECT o_orderkey, o_orderdate, SUM(l_extendedprice) AS revenue "
             "FROM orders, lineitem "
             "WHERE o_orderkey = l_orderkey AND o_orderdate < 1300 "
             "AND l_shipdate > 1300 "
             "GROUP BY o_orderkey, o_orderdate "
             "ORDER BY revenue DESC, o_orderkey LIMIT 10";
    case Query::kQ5:  // 3-way ⋈ + Γ
      return "SELECT c_nationkey, SUM(l_extendedprice) AS revenue "
             "FROM customer, orders, lineitem "
             "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
             "AND o_orderdate >= 700 AND o_orderdate < 1800 "
             "GROUP BY c_nationkey";
    case Query::kDistinct:  // δ over a bag projection
      return "SELECT DISTINCT l_partkey, l_quantity FROM lineitem";
    case Query::kOrderBy:  // full sort of a bag projection
      return "SELECT l_shipdate, l_orderkey, l_quantity FROM lineitem "
             "ORDER BY l_shipdate, l_orderkey";
  }
  return "";
}

TpchOracle ComputeTpchOracle(const TpchData& d) {
  std::map<int64_t, int64_t> cust_nation;
  for (const auto& [t, m] : d.customer) {
    cust_nation[t.at(0).int_value()] = t.at(1).int_value();
  }
  struct OrderInfo {
    int64_t cust, date;
    uint64_t mult;
  };
  std::map<int64_t, OrderInfo> orders;
  for (const auto& [t, m] : d.orders) {
    orders[t.at(0).int_value()] =
        OrderInfo{t.at(1).int_value(), t.at(2).int_value(), m};
  }

  std::map<std::pair<std::string, std::string>, std::array<int64_t, 3>> q1;
  std::map<int64_t, int64_t> q3;  // orderkey → revenue
  std::map<int64_t, int64_t> q5;  // nation → revenue
  std::set<std::pair<int64_t, int64_t>> distinct;
  std::map<std::tuple<int64_t, int64_t, int64_t>, uint64_t> sorted;
  for (const auto& [t, m] : d.lineitem) {
    const int64_t okey = t.at(0).int_value();
    const int64_t part = t.at(1).int_value();
    const int64_t qty = t.at(2).int_value();
    const int64_t price = t.at(3).int_value();
    const int64_t ship = t.at(6).int_value();
    const auto w = static_cast<int64_t>(m);
    if (ship <= kQ1ShipCutoff) {
      auto& acc = q1[{t.at(4).string_value(), t.at(5).string_value()}];
      acc[0] += qty * w;
      acc[1] += price * w;
      acc[2] += w;
    }
    const OrderInfo& o = orders.at(okey);
    // A join multiplies multiplicities (Definition 3.1).
    const int64_t joined = w * static_cast<int64_t>(o.mult);
    const int64_t revenue = price * joined;
    if (o.date < kQ3Date && ship > kQ3Date) q3[okey] += revenue;
    if (o.date >= kQ5From && o.date < kQ5To) {
      q5[cust_nation.at(o.cust)] += revenue;
    }
    distinct.insert({part, qty});
    sorted[{ship, okey, qty}] += m;
  }

  TpchOracle oracle;
  auto& e = oracle.expected;
  e[static_cast<int>(Query::kQ1)] =
      Empty("q1", {{"f", Type::String()}, {"s", Type::String()},
                   {"q", Type::Int()}, {"p", Type::Int()}, {"n", Type::Int()}});
  for (const auto& [key, acc] : q1) {
    e[0].InsertUnchecked(Tuple({Value::Str(key.first), Value::Str(key.second),
                                Value::Int(acc[0]), Value::Int(acc[1]),
                                Value::Int(acc[2])}));
  }
  std::vector<std::pair<int64_t, int64_t>> top(q3.begin(), q3.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  top.resize(std::min(top.size(), kQ3Limit));
  Relation& r3 = e[static_cast<int>(Query::kQ3)];
  r3 = Empty("q3", {{"k", Type::Int()}, {"d", Type::Int()},
                    {"r", Type::Int()}});
  for (const auto& [okey, revenue] : top) {
    r3.InsertUnchecked(Tuple({Value::Int(okey),
                              Value::Int(orders.at(okey).date),
                              Value::Int(revenue)}));
  }
  Relation& r5 = e[static_cast<int>(Query::kQ5)];
  r5 = Empty("q5", {{"n", Type::Int()}, {"r", Type::Int()}});
  for (const auto& [nation, revenue] : q5) {
    r5.InsertUnchecked(Tuple({Value::Int(nation), Value::Int(revenue)}));
  }
  Relation& rd = e[static_cast<int>(Query::kDistinct)];
  rd = Empty("distinct", {{"p", Type::Int()}, {"q", Type::Int()}});
  for (const auto& [part, qty] : distinct) {
    rd.InsertUnchecked(Tuple({Value::Int(part), Value::Int(qty)}));
  }
  Relation& ro = e[static_cast<int>(Query::kOrderBy)];
  ro = Empty("orderby",
             {{"s", Type::Int()}, {"k", Type::Int()}, {"q", Type::Int()}});
  for (const auto& [key, count] : sorted) {
    ro.InsertUnchecked(Tuple({Value::Int(std::get<0>(key)),
                              Value::Int(std::get<1>(key)),
                              Value::Int(std::get<2>(key))}),
                       count);
  }
  return oracle;
}

std::array<Query, kNumQueries> StreamOrder(uint64_t seed, uint64_t op) {
  std::array<Query, kNumQueries> order = {Query::kQ1, Query::kQ3, Query::kQ5,
                                          Query::kDistinct, Query::kOrderBy};
  for (int i = kNumQueries - 1; i > 0; --i) {
    const uint64_t j =
        Field(seed, kStreamOrder, op, static_cast<uint64_t>(i)) % (i + 1);
    std::swap(order[i], order[j]);
  }
  return order;
}

RelationSchema OrdersSchema() {
  return RelationSchema("orders", {{"o_orderkey", Type::Int()},
                                   {"o_custkey", Type::Int()},
                                   {"o_orderstatus", Type::String()},
                                   {"o_totalprice", Type::Int()},
                                   {"o_orderdate", Type::Int()},
                                   {"o_orderpriority", Type::String()},
                                   {"o_comment", Type::String()}});
}

int64_t OrderCustomer(uint64_t seed, uint64_t i, int64_t customers) {
  return Draw(seed, kOrdersRow, i, 0, 1, customers);
}

Tuple OrderRow(uint64_t seed, uint64_t i, int64_t customers) {
  static const char* kStatus[] = {"F", "O", "P"};
  static const char* kPriority[] = {"P1", "P2", "P3", "P4", "P5"};
  std::string comment(12, 'a');
  for (size_t c = 0; c < comment.size(); ++c) {
    comment[c] = static_cast<char>('a' + Field(seed, kOrdersRow, i, 5 + c) % 26);
  }
  return Tuple({Value::Int(static_cast<int64_t>(i) + 1),
                Value::Int(OrderCustomer(seed, i, customers)),
                Value::Str(kStatus[Draw(seed, kOrdersRow, i, 1, 0, 2)]),
                Value::Int(Draw(seed, kOrdersRow, i, 2, 1'000, 500'000)),
                Value::Int(Draw(seed, kOrdersRow, i, 3, 0, 2'405)),
                Value::Str(kPriority[Draw(seed, kOrdersRow, i, 4, 0, 4)]),
                Value::Str(std::move(comment))});
}

uint64_t OrderMult(uint64_t i) { return i % 5 == 4 ? 2 : 1; }

Relation OrderRows(uint64_t seed, uint64_t first, uint64_t count,
                   int64_t customers) {
  Relation rel(OrdersSchema());
  for (uint64_t i = first; i < first + count; ++i) {
    rel.InsertUnchecked(OrderRow(seed, i, customers), OrderMult(i));
  }
  return rel;
}

// XRA literal `{(…) : m, …}` of orders rows [first, first + count).
static std::string OrderLiteral(uint64_t seed, uint64_t first, uint64_t count,
                                int64_t customers) {
  std::string out = "{";
  for (uint64_t i = first; i < first + count; ++i) {
    if (i != first) out += ", ";
    const Tuple row = OrderRow(seed, i, customers);
    out += "(";
    for (size_t a = 0; a < row.arity(); ++a) {
      if (a > 0) out += ", ";
      const Value& v = row.at(a);
      out += v.kind() == mra::TypeKind::kString
                 ? "'" + v.string_value() + "'"
                 : std::to_string(v.int_value());
    }
    out += ") : " + std::to_string(OrderMult(i));
  }
  return out + "}";
}

std::string BracketText(uint64_t seed, uint64_t p) {
  const auto window = static_cast<uint64_t>(kIngestWindow);
  const auto batch = static_cast<uint64_t>(kIngestBatch);
  return "begin insert(orders, " +
         OrderLiteral(seed, p * batch + window, batch, kIngestCustomers) +
         "); delete(orders, " +
         OrderLiteral(seed, p * batch, batch, kIngestCustomers) + ") end";
}

int64_t LookupKey(uint64_t seed, uint64_t op, int64_t customers) {
  return Draw(seed, kLookup, op, 0, 1, customers);
}

std::string LookupText(int64_t key) {
  return "select(%2 = " + std::to_string(key) + ", orders)";
}

}  // namespace perfbench
