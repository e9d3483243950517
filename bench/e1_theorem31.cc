// E1 — Theorem 3.1: E1 ∩ E2 = E1 − (E1 − E2) and E1 ⋈_φ E2 = σ_φ(E1 × E2).
//
// The theorem makes the ∩ and ⋈ operators definable in the basic algebra;
// this experiment verifies both identities executable-y at several scales
// and measures what the derived forms cost compared to the direct physical
// operators — the practical reason the standard algebra includes them.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "mra/algebra/ops.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"

namespace mra {
namespace bench {
namespace {

struct IntersectInputs {
  Relation a;
  Relation b;
};

IntersectInputs MakeIntersectInputs(size_t n) {
  util::IntRelationOptions options;
  options.arity = 1;
  options.distinct_tuples = n;
  // Narrow value range → the supports overlap heavily, exercising min().
  options.value_range = static_cast<int64_t>(n);
  options.duplicates = util::DupDistribution::kUniform;
  options.max_multiplicity = 4;
  options.seed = 11;
  Relation a = Unwrap(util::MakeIntRelation(options));
  options.seed = 12;
  Relation b = Unwrap(util::MakeIntRelation(options));
  return {std::move(a), std::move(b)};
}

void BM_IntersectDirect(benchmark::State& state) {
  IntersectInputs in = MakeIntersectInputs(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(ops::Intersect(in.a, in.b)));
  }
}
BENCHMARK(BM_IntersectDirect)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_IntersectViaDifference(benchmark::State& state) {
  IntersectInputs in = MakeIntersectInputs(state.range(0));
  for (auto _ : state) {
    Relation inner = Unwrap(ops::Difference(in.a, in.b));
    benchmark::DoNotOptimize(Unwrap(ops::Difference(in.a, inner)));
  }
}
BENCHMARK(BM_IntersectViaDifference)->Arg(1000)->Arg(10000)->Arg(100000);

Catalog JoinCatalog(size_t n) {
  Catalog catalog;
  AddIntRelation(&catalog, "r", n, static_cast<int64_t>(n),
                 util::DupDistribution::kUniform, 3, 21);
  AddIntRelation(&catalog, "s", n / 4, static_cast<int64_t>(n),
                 util::DupDistribution::kUniform, 3, 22);
  return catalog;
}

void BM_JoinDirectHash(benchmark::State& state) {
  Catalog catalog = JoinCatalog(state.range(0));
  const Relation* r = Unwrap(catalog.GetRelation("r"));
  const Relation* s = Unwrap(catalog.GetRelation("s"));
  for (auto _ : state) {
    exec::HashJoinOp join({0}, {0}, nullptr,
                          std::make_unique<exec::ScanOp>(r),
                          std::make_unique<exec::ScanOp>(s));
    benchmark::DoNotOptimize(Unwrap(exec::ExecuteToRelation(join)));
  }
}
BENCHMARK(BM_JoinDirectHash)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_JoinViaSelectProduct(benchmark::State& state) {
  Catalog catalog = JoinCatalog(state.range(0));
  const Relation* r = Unwrap(catalog.GetRelation("r"));
  const Relation* s = Unwrap(catalog.GetRelation("s"));
  ExprPtr cond = Eq(Attr(0), Attr(2));
  for (auto _ : state) {
    Relation product = Unwrap(ops::Product(*r, *s));
    benchmark::DoNotOptimize(Unwrap(ops::Select(cond, product)));
  }
}
BENCHMARK(BM_JoinViaSelectProduct)->Arg(500)->Arg(1000)->Arg(2000);

void VerifyTheorem() {
  Header("E1: Theorem 3.1",
         "Claim: E1 ∩ E2 = E1 − (E1 − E2) and E1 ⋈ E2 = σ(E1 × E2) hold in "
         "the bag algebra; direct operators are the efficient forms.");
  Row("%-10s %-14s %-14s %-10s", "n", "|E1 ∩ E2|", "via −", "equal?");
  for (size_t n : {100, 1000, 10000}) {
    IntersectInputs in = MakeIntersectInputs(n);
    Relation direct = Unwrap(ops::Intersect(in.a, in.b));
    Relation via =
        Unwrap(ops::Difference(in.a, Unwrap(ops::Difference(in.a, in.b))));
    Row("%-10zu %-14llu %-14llu %-10s", n,
        static_cast<unsigned long long>(direct.size()),
        static_cast<unsigned long long>(via.size()),
        direct.Equals(via) ? "yes" : "NO!");
    MRA_CHECK(direct.Equals(via));
  }
  Row("");
  Row("%-10s %-14s %-14s %-10s", "n", "|E1 ⋈ E2|", "via σ(×)", "equal?");
  for (size_t n : {100, 500, 2000}) {
    Catalog catalog = JoinCatalog(n);
    const Relation* r = Unwrap(catalog.GetRelation("r"));
    const Relation* s = Unwrap(catalog.GetRelation("s"));
    ExprPtr cond = Eq(Attr(0), Attr(2));
    Relation direct = Unwrap(ops::Join(cond, *r, *s));
    Relation via = Unwrap(ops::Select(cond, Unwrap(ops::Product(*r, *s))));
    Row("%-10zu %-14llu %-14llu %-10s", n,
        static_cast<unsigned long long>(direct.size()),
        static_cast<unsigned long long>(via.size()),
        direct.Equals(via) ? "yes" : "NO!");
    MRA_CHECK(direct.Equals(via));
  }
}

}  // namespace
}  // namespace bench
}  // namespace mra

int main(int argc, char** argv) {
  mra::bench::VerifyTheorem();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mra::bench::DumpMetricsJson("E1");
  return 0;
}
