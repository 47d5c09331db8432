#include "dbtf/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>

#include "common/random.h"
#include "dbtf/partition.h"
#include "dist/provision.h"
#include "test_util.h"

namespace dbtf {
namespace {

/// Provisions one worker per machine of `cluster` and moves the mode-1
/// unfolding of `tensor`, in `partitions` slices, onto them — the way a
/// Session places each mode. Returns the unfolding's shape.
Result<UnfoldShape> PlaceModeOne(Cluster* cluster, const SparseTensor& tensor,
                                 std::int64_t partitions) {
  DBTF_ASSIGN_OR_RETURN(
      PartitionedUnfolding unfolding,
      PartitionedUnfolding::Build(tensor, Mode::kOne, partitions));
  DBTF_RETURN_IF_ERROR(ProvisionWorkers(*cluster));
  const UnfoldShape shape = unfolding.shape();
  DBTF_RETURN_IF_ERROR(StorePartitions(
      *cluster, Mode::kOne, std::move(unfolding).ReleasePartitions(), shape));
  return shape;
}

struct UpdateFixture {
  SparseTensor tensor;
  BitMatrix factor;
  BitMatrix mf;
  BitMatrix ms;
  std::unique_ptr<Cluster> cluster;
  DbtfConfig config;
  UnfoldShape shape{0, 0, 0};

  /// Builds the inputs of a mode-1 update and places the unfolding's
  /// partitions on the cluster's workers.
  static UpdateFixture Make(std::int64_t di, std::int64_t dj, std::int64_t dk,
                            std::int64_t rank, std::int64_t partitions,
                            std::uint64_t seed, int v = 15) {
    UpdateFixture f;
    f.tensor = testing::RandomTensor(di, dj, dk, 0.12, seed);
    Rng rng(seed + 1);
    // Mode-1 update: factor A (I x R), mf = C (K x R), ms = B (J x R).
    f.factor = BitMatrix::Random(di, rank, 0.3, &rng);
    f.mf = BitMatrix::Random(dk, rank, 0.3, &rng);
    f.ms = BitMatrix::Random(dj, rank, 0.3, &rng);
    f.config.rank = rank;
    f.config.num_partitions = partitions;
    f.config.cache_group_size = v;
    f.config.cluster.num_machines = 2;
    f.config.cluster.num_threads = 2;
    f.cluster = std::move(Cluster::Create(f.config.cluster).value());
    f.shape = PlaceModeOne(f.cluster.get(), f.tensor, partitions).value();
    return f;
  }

  Result<UpdateFactorStats> Update() {
    return RunFactorUpdate(cluster.get(), Mode::kOne, shape, &factor, mf, ms,
                           config);
  }
};

/// The distributed cached update must produce bit-identical factors and
/// errors to the naive dense reference, across ranks (including the
/// multi-group R > V path) and partition counts.
class UpdateEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(UpdateEquivalence, MatchesReferenceUpdate) {
  const auto [rank, partitions, v] = GetParam();
  UpdateFixture f = UpdateFixture::Make(18, 23, 15, rank, partitions,
                                        static_cast<std::uint64_t>(rank), v);
  auto dense = DenseUnfold(f.tensor, Mode::kOne);
  ASSERT_TRUE(dense.ok());

  BitMatrix reference_factor = f.factor;
  const std::int64_t reference_error = testing::ReferenceUpdateFactor(
      *dense, &reference_factor, f.mf, f.ms);

  auto stats = f.Update();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(f.factor, reference_factor) << "bit-identical greedy decisions";
  EXPECT_EQ(stats->final_error, reference_error);
}

INSTANTIATE_TEST_SUITE_P(
    RankPartitionsV, UpdateEquivalence,
    ::testing::Values(std::make_tuple(1, 1, 15), std::make_tuple(3, 4, 15),
                      std::make_tuple(10, 2, 15), std::make_tuple(10, 7, 3),
                      std::make_tuple(17, 4, 5),  // multi-group cache
                      std::make_tuple(20, 3, 8),
                      std::make_tuple(24, 5, 24)));

TEST(UpdateFactor, CachingAblationIsBitIdentical) {
  UpdateFixture cached = UpdateFixture::Make(16, 20, 12, 8, 3, 5);
  UpdateFixture uncached = UpdateFixture::Make(16, 20, 12, 8, 3, 5);
  uncached.config.enable_caching = false;
  auto stats_c = cached.Update();
  auto stats_u = uncached.Update();
  ASSERT_TRUE(stats_c.ok() && stats_u.ok());
  EXPECT_EQ(cached.factor, uncached.factor);
  EXPECT_EQ(stats_c->final_error, stats_u->final_error);
  EXPECT_GT(stats_c->cache_bytes, 0);
  EXPECT_EQ(stats_u->cache_bytes, 0);
}

TEST(UpdateFactor, GroundTruthFactorsReachZeroError) {
  // Build a tensor exactly from factors, zero the one being updated, and the
  // update must recover a zero-error factor.
  Rng rng(31);
  const BitMatrix a = BitMatrix::Random(14, 5, 0.25, &rng);
  const BitMatrix b = BitMatrix::Random(16, 5, 0.25, &rng);
  const BitMatrix c = BitMatrix::Random(12, 5, 0.25, &rng);
  auto x = ReconstructTensor(a, b, c);
  ASSERT_TRUE(x.ok());
  DbtfConfig config;
  config.rank = 5;
  config.num_partitions = 3;
  config.cluster.num_machines = 2;
  config.cluster.num_threads = 1;
  auto cluster = Cluster::Create(config.cluster);
  ASSERT_TRUE(cluster.ok());
  auto shape = PlaceModeOne(cluster->get(), *x, 3);
  ASSERT_TRUE(shape.ok());
  // Starting AT the ground truth, the update may never leave zero error
  // (the current value is always among the candidates).
  BitMatrix factor = a;
  auto stats = RunFactorUpdate(cluster->get(), Mode::kOne, *shape, &factor, c,
                               b, config);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->final_error, 0);
  // Starting from all-zero, one greedy sweep must land very close to zero
  // (greedy column order can leave a few residual cells).
  BitMatrix from_zero(14, 5);
  auto stats_zero = RunFactorUpdate(cluster->get(), Mode::kOne, *shape,
                                    &from_zero, c, b, config);
  ASSERT_TRUE(stats_zero.ok());
  EXPECT_LE(stats_zero->final_error, x->NumNonZeros() / 20);
}

TEST(UpdateFactor, ErrorNeverIncreasesAcrossRepeatedCalls) {
  UpdateFixture f = UpdateFixture::Make(20, 24, 18, 6, 4, 9);
  std::int64_t previous = -1;
  for (int round = 0; round < 4; ++round) {
    auto stats = f.Update();
    ASSERT_TRUE(stats.ok());
    if (previous >= 0) {
      EXPECT_LE(stats->final_error, previous);
    }
    previous = stats->final_error;
  }
}

TEST(UpdateFactor, ChargesCommunication) {
  UpdateFixture f = UpdateFixture::Make(16, 16, 16, 4, 2, 3);
  auto stats = f.Update();
  ASSERT_TRUE(stats.ok());
  const CommSnapshot snap = f.cluster->comm().Snapshot();
  EXPECT_GT(snap.broadcast_bytes, 0);
  EXPECT_GT(snap.collect_bytes, 0);
  // One collect per column update.
  EXPECT_EQ(snap.collect_events, f.config.rank);
}

TEST(UpdateFactor, ValidatesShapes) {
  UpdateFixture f = UpdateFixture::Make(16, 16, 16, 4, 2, 11);
  const auto update = [&f](BitMatrix* factor, const BitMatrix& ms) {
    return RunFactorUpdate(f.cluster.get(), Mode::kOne, f.shape, factor, f.mf,
                           ms, f.config);
  };
  BitMatrix wrong_rank(16, 5);
  EXPECT_FALSE(update(&wrong_rank, f.ms).ok());
  BitMatrix wrong_rows(15, 4);
  EXPECT_FALSE(update(&wrong_rows, f.ms).ok());
  BitMatrix wrong_ms(17, 4);
  EXPECT_FALSE(update(&f.factor, wrong_ms).ok());
}

}  // namespace
}  // namespace dbtf
