// Seeded data of the three workloads, and the oracles the benchmark checks
// the engine's answers against.  Everything here is a pure function of the
// seed: the same seed gives the same bags, the same op sequence and the
// same expected answers, in any thread and in any run.

#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mra/core/relation.h"

namespace perfbench {

/// SplitMix64 finaliser.
uint64_t Mix(uint64_t x);

/// Random access into a seeded stream: value `i` of stream `stream`.  Rows
/// are derived this way so every thread (writer, reader, replay) computes
/// the same row without sharing state.
uint64_t Hash(uint64_t seed, uint64_t stream, uint64_t i);

/// Order-independent digest of a bag (for the determinism self-test).
uint64_t BagDigest(const mra::Relation& rel);

// ---------------------------------------------------------------------------
// analytic: a TPC-H-style customer/orders/lineitem bag.

inline constexpr int64_t kTpchCustomers = 500;
inline constexpr int64_t kTpchOrders = 5'000;
/// Distinct line items; about a fifth of them have multiplicity 2, so the
/// weighted lineitem cardinality is about 1.2x this.
inline constexpr int64_t kTpchLineitems = 10'500;

struct TpchData {
  mra::Relation customer;
  mra::Relation orders;
  mra::Relation lineitem;
};

TpchData MakeTpch(uint64_t seed);

/// The five queries of one `analytic` op.
enum class Query : int { kQ1, kQ3, kQ5, kDistinct, kOrderBy };
inline constexpr int kNumQueries = 5;
const char* QueryName(Query q);  // "q1", "q3", "q5", "distinct", "orderby"
const char* QuerySql(Query q);

/// The expected answer of every query, computed directly from the generated
/// rows with plain loops and maps (no engine code).  Bag equality
/// (Definition 2.3) compares attribute types, not names, so each answer is
/// held over a schema of the query's result types.
struct TpchOracle {
  std::array<mra::Relation, kNumQueries> expected;
};

TpchOracle ComputeTpchOracle(const TpchData& data);

/// Order of the queries within analytic op `op`: a seeded permutation.
std::array<Query, kNumQueries> StreamOrder(uint64_t seed, uint64_t op);

// ---------------------------------------------------------------------------
// serve / ingest: one `orders` bag addressed by row index.

/// Every field has a fixed encoded width (ints, and strings of constant
/// length), so a relation of n rows with a fixed multiplicity pattern always
/// encodes to the same number of bytes — that is what makes the WAL byte
/// counts of `ingest` exact.
mra::RelationSchema OrdersSchema();

/// Row `i` (0-based) of the orders stream; its o_orderkey is i + 1.
mra::Tuple OrderRow(uint64_t seed, uint64_t i, int64_t customers);
int64_t OrderCustomer(uint64_t seed, uint64_t i, int64_t customers);

/// Every fifth row is a duplicate (multiplicity 2).  The pattern is fixed,
/// so any window of a multiple of five rows has the same weighted size.
uint64_t OrderMult(uint64_t i);

/// Rows [first, first + count) as a bag.
mra::Relation OrderRows(uint64_t seed, uint64_t first, uint64_t count,
                        int64_t customers);

// Workload shapes.
inline constexpr int64_t kServeRows = 3'000;
inline constexpr int64_t kServeCustomers = 150;
/// ingest keeps exactly kIngestWindow distinct rows: bracket p inserts rows
/// [p·B + N, (p+1)·B + N) and deletes rows [p·B, (p+1)·B).
inline constexpr int64_t kIngestWindow = 2'000;
inline constexpr int64_t kIngestBatch = 20;
inline constexpr int64_t kIngestCustomers = 100;

/// XRA text of ingest's writer bracket `p`.
std::string BracketText(uint64_t seed, uint64_t p);

/// Key of lookup `op`: a customer in [1, customers].
int64_t LookupKey(uint64_t seed, uint64_t op, int64_t customers);
std::string LookupText(int64_t key);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
