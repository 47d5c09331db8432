#include "dbtf/dbtf.h"

#include <gtest/gtest.h>

#include <tuple>

#include "eval/metrics.h"
#include "generator/generator.h"
#include "tensor/boolean_ops.h"
#include "test_util.h"

namespace dbtf {
namespace {

DbtfConfig SmallConfig(std::int64_t rank = 4) {
  DbtfConfig config;
  config.rank = rank;
  config.max_iterations = 8;
  config.num_initial_sets = 2;
  config.num_partitions = 4;
  config.seed = 17;
  config.cluster.num_machines = 2;
  config.cluster.num_threads = 2;
  return config;
}

PlantedTensor MakePlanted(std::int64_t dim, std::int64_t rank,
                          std::uint64_t seed, double add_noise = 0.0,
                          double del_noise = 0.0) {
  PlantedSpec spec;
  spec.dim_i = dim;
  spec.dim_j = dim + 4;
  spec.dim_k = dim - 4;
  spec.rank = rank;
  spec.factor_density = 0.18;
  spec.additive_noise = add_noise;
  spec.destructive_noise = del_noise;
  spec.seed = seed;
  return GeneratePlanted(spec).value();
}

TEST(DbtfConfig, Validation) {
  DbtfConfig config = SmallConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.rank = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.rank = 65;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.max_iterations = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.num_initial_sets = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.num_partitions = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.cache_group_size = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.cache_group_size = 25;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.init_density = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.convergence_epsilon = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.cluster.num_machines = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(Dbtf, RejectsDegenerateTensor) {
  auto t = SparseTensor::Create(0, 4, 4);
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(Dbtf::Factorize(*t, SmallConfig()).ok());
}

/// Session::Create reads the entries in sorted order (fiber-sampled start,
/// checkpoint fingerprint), so a tensor that was never sorted is refused.
TEST(Dbtf, RejectsUnsortedTensor) {
  auto t = SparseTensor::Create(4, 4, 4);
  ASSERT_TRUE(t.ok());
  t->AddUnchecked(3, 1, 2);
  t->AddUnchecked(0, 2, 1);
  t->AddUnchecked(2, 2, 2);
  EXPECT_EQ(Dbtf::Factorize(*t, SmallConfig()).status().code(),
            StatusCode::kInvalidArgument);
  t->SortAndDedup();
  EXPECT_TRUE(Dbtf::Factorize(*t, SmallConfig()).ok());
}

TEST(Dbtf, FinalErrorMatchesIndependentEvaluator) {
  const PlantedTensor p = MakePlanted(24, 4, 21);
  auto r = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto err = ReconstructionError(p.tensor, r->a, r->b, r->c);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(*err, r->final_error);
}

TEST(Dbtf, ErrorTraceIsMonotoneNonIncreasing) {
  const PlantedTensor p = MakePlanted(28, 5, 22, 0.05, 0.05);
  DbtfConfig config = SmallConfig(5);
  config.max_iterations = 10;
  auto r = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(r.ok());
  for (std::size_t t = 1; t < r->iteration_errors.size(); ++t) {
    EXPECT_LE(r->iteration_errors[t], r->iteration_errors[t - 1]);
  }
}

TEST(Dbtf, ConvergesAndStopsEarly) {
  const PlantedTensor p = MakePlanted(24, 3, 23);
  DbtfConfig config = SmallConfig(3);
  config.max_iterations = 50;
  auto r = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_LT(r->iterations_run, 50);
  EXPECT_EQ(r->iteration_errors.size(),
            static_cast<std::size_t>(r->iterations_run));
}

TEST(Dbtf, DeterministicBySeed) {
  const PlantedTensor p = MakePlanted(20, 4, 24);
  auto r1 = Dbtf::Factorize(p.tensor, SmallConfig());
  auto r2 = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->a, r2->a);
  EXPECT_EQ(r1->b, r2->b);
  EXPECT_EQ(r1->c, r2->c);
  EXPECT_EQ(r1->iteration_errors, r2->iteration_errors);
}

/// Core distribution property: the factorization is bit-identical regardless
/// of how many partitions or machines are used.
class DistributionInvariance
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistributionInvariance, FactorsIndependentOfPartitioning) {
  const auto [partitions, machines] = GetParam();
  const PlantedTensor p = MakePlanted(24, 4, 25);
  DbtfConfig reference = SmallConfig();
  reference.num_partitions = 1;
  reference.cluster.num_machines = 1;
  reference.cluster.num_threads = 1;
  auto want = Dbtf::Factorize(p.tensor, reference);
  ASSERT_TRUE(want.ok());

  DbtfConfig config = SmallConfig();
  config.num_partitions = partitions;
  config.cluster.num_machines = machines;
  config.cluster.num_threads = 2;
  auto got = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->a, want->a);
  EXPECT_EQ(got->b, want->b);
  EXPECT_EQ(got->c, want->c);
  EXPECT_EQ(got->final_error, want->final_error);
}

INSTANTIATE_TEST_SUITE_P(PartitionsMachines, DistributionInvariance,
                         ::testing::Combine(::testing::Values(1, 2, 3, 7, 16),
                                            ::testing::Values(1, 4)));

TEST(Dbtf, RecoversPlantedFactorsUnderNoise) {
  const PlantedTensor p = MakePlanted(32, 4, 26, 0.05, 0.05);
  DbtfConfig config = SmallConfig(4);
  config.num_initial_sets = 6;
  config.max_iterations = 15;
  auto r = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(r.ok());
  // The recovered reconstruction should be closer to the noise-free tensor
  // than the noise level itself.
  auto rel = RelativeError(p.noise_free, r->a, r->b, r->c);
  ASSERT_TRUE(rel.ok());
  EXPECT_LT(*rel, 0.30);
}

TEST(Dbtf, MoreInitialSetsNeverHurtFirstIteration) {
  const PlantedTensor p = MakePlanted(24, 4, 27);
  DbtfConfig one = SmallConfig();
  one.num_initial_sets = 1;
  one.max_iterations = 1;
  DbtfConfig many = SmallConfig();
  many.num_initial_sets = 8;
  many.max_iterations = 1;
  auto r1 = Dbtf::Factorize(p.tensor, one);
  auto r8 = Dbtf::Factorize(p.tensor, many);
  ASSERT_TRUE(r1.ok() && r8.ok());
  EXPECT_LE(r8->final_error, r1->final_error)
      << "best-of-8 seeds the same first seed plus seven more";
}

TEST(Dbtf, RandomInitSchemeRuns) {
  const PlantedTensor p = MakePlanted(20, 3, 28);
  DbtfConfig config = SmallConfig(3);
  config.init_scheme = InitScheme::kRandom;
  config.init_density = 0.2;
  auto r = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(r.ok());
  auto err = ReconstructionError(p.tensor, r->a, r->b, r->c);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(*err, r->final_error);
}

TEST(Dbtf, CommunicationLedgerPopulated) {
  const PlantedTensor p = MakePlanted(24, 4, 29);
  auto r = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->comm.shuffle_bytes, 0);
  EXPECT_GT(r->comm.broadcast_bytes, 0);
  EXPECT_GT(r->comm.collect_bytes, 0);
  // Shuffle happens exactly once (Lemma 6: O(|X|), one event).
  EXPECT_EQ(r->comm.shuffle_events, 1);
  EXPECT_GT(r->virtual_seconds, 0.0);
  EXPECT_GT(r->wall_seconds, 0.0);
  EXPECT_GE(r->partitions_used, 1);
}

TEST(Dbtf, RankOneWorks) {
  const PlantedTensor p = MakePlanted(16, 1, 30);
  DbtfConfig config = SmallConfig(1);
  auto r = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(r.ok());
  auto rel = RelativeError(p.tensor, r->a, r->b, r->c);
  ASSERT_TRUE(rel.ok());
  EXPECT_LT(*rel, 0.75);
}

TEST(Dbtf, RankAboveCacheGroupSizeWorks) {
  const PlantedTensor p = MakePlanted(20, 6, 31);
  DbtfConfig config = SmallConfig(6);
  config.cache_group_size = 3;  // Forces the multi-table path (Lemma 2).
  auto split = Dbtf::Factorize(p.tensor, config);
  DbtfConfig single = SmallConfig(6);
  single.cache_group_size = 15;
  auto merged = Dbtf::Factorize(p.tensor, single);
  ASSERT_TRUE(split.ok() && merged.ok());
  EXPECT_EQ(split->a, merged->a) << "V only changes cost, not results";
  EXPECT_EQ(split->final_error, merged->final_error);
}

TEST(Dbtf, DeadlineExpiresDuringInitialSets) {
  const PlantedTensor p = MakePlanted(24, 4, 32);
  DbtfConfig config = SmallConfig();
  config.num_initial_sets = 4;
  // Too small to finish even the session build: the first check (before
  // initial set l = 1) must fire.
  config.time_budget_seconds = 1e-9;
  auto r = Dbtf::Factorize(p.tensor, config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("initial factor sets"),
            std::string::npos)
      << r.status().ToString();
}

TEST(Dbtf, DeadlineExpiresDuringIterations) {
  const PlantedTensor p = MakePlanted(24, 4, 33);
  DbtfConfig config = SmallConfig();
  // One initial set is exempt from the deadline (the budget must produce at
  // least one full iteration), so a tiny budget reaches iteration 2.
  config.num_initial_sets = 1;
  // The deadline is checked at the top of each iteration t >= 2, before the
  // convergence test can break the loop.
  config.max_iterations = 50;
  config.time_budget_seconds = 1e-9;
  auto r = Dbtf::Factorize(p.tensor, config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("iterations"), std::string::npos)
      << r.status().ToString();
}

TEST(Dbtf, GenerousDeadlineDoesNotTrigger) {
  const PlantedTensor p = MakePlanted(20, 3, 34);
  DbtfConfig config = SmallConfig(3);
  config.time_budget_seconds = 3600.0;
  auto r = Dbtf::Factorize(p.tensor, config);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(Dbtf, SurfacesCacheAndChangeStats) {
  const PlantedTensor p = MakePlanted(24, 4, 35);
  auto r = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->cache_entries, 0);
  EXPECT_GT(r->cache_bytes, 0);
  // Factors start empty, so fitting a non-empty tensor must flip cells.
  EXPECT_GT(r->cells_changed, 0);

  DbtfConfig uncached = SmallConfig();
  uncached.enable_caching = false;
  auto r2 = Dbtf::Factorize(p.tensor, uncached);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->cache_entries, 0) << "ablation: no tables are materialized";
}

TEST(Dbtf, HandlesEmptyTensor) {
  auto t = SparseTensor::Create(8, 8, 8);
  ASSERT_TRUE(t.ok());
  DbtfConfig config = SmallConfig(2);
  auto r = Dbtf::Factorize(*t, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->final_error, 0) << "zero factors fit the zero tensor exactly";
}

}  // namespace
}  // namespace dbtf
