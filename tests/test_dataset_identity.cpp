// The feature-store identity anchor: training from a persisted dataset
// artefact — eager-loaded or mmap'ed — must reproduce the
// kernel trained straight off the simulator byte for byte, at 1 and 8
// threads, for both the ticket predictor and the trouble locator; and
// a served ranking computed from an artefact-trained kernel must match
// the reference ranking entry for entry.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/ticket_predictor.hpp"
#include "core/trouble_locator.hpp"
#include "features/dataset_io.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_service.hpp"

namespace nevermind {
namespace {

constexpr int kTrainFrom = 20;
constexpr int kTrainTo = 27;
constexpr int kLocFrom = 12;
constexpr int kLocTo = 34;
constexpr int kServeWeek = 31;

std::string temp_path(const std::string& name) {
  // Per-process prefix: ctest runs every case of this suite as its own
  // process, and each one re-runs SetUpTestSuite — without the pid the
  // processes race on the same artefact files under `ctest -j`.
  return ::testing::TempDir() + "nm_dataset_identity_" +
         std::to_string(::getpid()) + "_" + name;
}

core::PredictorConfig predictor_config(std::size_t threads) {
  core::PredictorConfig cfg;
  cfg.top_n = 25;
  cfg.boost_iterations = 50;
  if (threads > 1) cfg.exec = exec::ExecContext(threads);
  return cfg;
}

core::LocatorConfig locator_config(std::size_t threads) {
  core::LocatorConfig cfg;
  cfg.min_occurrences = 5;
  cfg.boost_iterations = 40;
  if (threads > 1) cfg.exec = exec::ExecContext(threads);
  return cfg;
}

class DatasetIdentityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dslsim::SimConfig cfg;
    cfg.seed = 57;
    cfg.topology.n_lines = 2000;
    data_ = new dslsim::SimDataset(dslsim::Simulator(cfg).run());

    reference_ = new core::TicketPredictor(predictor_config(1));
    reference_->train(*data_, kTrainFrom, kTrainTo);

    ref_locator_ = new core::TroubleLocator(locator_config(1));
    ref_locator_->train(*data_, kLocFrom, kLocTo);

    // Persist both matrices once, with the exact encoder layouts the
    // reference models trained under.
    const features::TicketLabeler labeler{predictor_config(1).horizon_days};
    const auto pred_st = features::save_predictor_dataset(
        temp_path("pred.nmarena"), *data_, kTrainFrom, kTrainTo,
        reference_->full_encoder_config(), labeler);
    ASSERT_TRUE(pred_st.ok()) << pred_st.message;
    const auto loc_st = features::save_locator_dataset(
        temp_path("loc.nmarena"), *data_, kLocFrom, kLocTo,
        ref_locator_->encoder_config());
    ASSERT_TRUE(loc_st.ok()) << loc_st.message;
  }
  static void TearDownTestSuite() {
    for (const char* name : {"pred.nmarena", "loc.nmarena"}) {
      std::remove(temp_path(name).c_str());
    }
    delete ref_locator_;
    delete reference_;
    delete data_;
    ref_locator_ = nullptr;
    reference_ = nullptr;
    data_ = nullptr;
  }

  static std::string kernel_string(const core::ScoringKernel& kernel) {
    std::stringstream ss;
    kernel.save(ss);
    return ss.str();
  }

  static std::string locator_string(const core::TroubleLocator& locator) {
    std::stringstream ss;
    locator.save(ss);
    return ss.str();
  }

  struct LoadCase {
    const char* label;
    const char* file;
    ml::ArenaLoadMode mode;
  };
  static constexpr LoadCase kPredictorCases[] = {
      {"eager-binary", "pred.nmarena", ml::ArenaLoadMode::kEager},
      {"mmap", "pred.nmarena", ml::ArenaLoadMode::kMapped},
  };
  static constexpr LoadCase kLocatorCases[] = {
      {"eager-binary", "loc.nmarena", ml::ArenaLoadMode::kEager},
      {"mmap", "loc.nmarena", ml::ArenaLoadMode::kMapped},
  };

  static const dslsim::SimDataset* data_;
  static core::TicketPredictor* reference_;
  static core::TroubleLocator* ref_locator_;
};

const dslsim::SimDataset* DatasetIdentityTest::data_ = nullptr;
core::TicketPredictor* DatasetIdentityTest::reference_ = nullptr;
core::TroubleLocator* DatasetIdentityTest::ref_locator_ = nullptr;
constexpr DatasetIdentityTest::LoadCase DatasetIdentityTest::kPredictorCases[];
constexpr DatasetIdentityTest::LoadCase DatasetIdentityTest::kLocatorCases[];

TEST_F(DatasetIdentityTest, PredictorKernelIdenticalAcrossLoadPathsAndThreads) {
  const std::string want = kernel_string(reference_->kernel());
  for (const auto& c : kPredictorCases) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(c.label) +
                   " threads=" + std::to_string(threads));
      ml::StoreStatus st;
      auto loaded =
          features::load_predictor_dataset(temp_path(c.file), c.mode, &st);
      ASSERT_TRUE(loaded.has_value()) << st.message;
      EXPECT_EQ(loaded->block.dataset.file_backed(),
                c.mode == ml::ArenaLoadMode::kMapped);

      core::TicketPredictor predictor(predictor_config(threads));
      predictor.train_from_block(loaded->block, loaded->encoder);
      EXPECT_EQ(kernel_string(predictor.kernel()), want);
    }
  }
}

TEST_F(DatasetIdentityTest, LocatorIdenticalAcrossLoadPathsAndThreads) {
  const std::string want = locator_string(*ref_locator_);
  for (const auto& c : kLocatorCases) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(c.label) +
                   " threads=" + std::to_string(threads));
      ml::StoreStatus st;
      auto loaded =
          features::load_locator_dataset(temp_path(c.file), c.mode, &st);
      ASSERT_TRUE(loaded.has_value()) << st.message;

      core::TroubleLocator locator(locator_config(threads));
      locator.train_from_block(*data_, loaded->block);
      EXPECT_EQ(locator_string(locator), want);
    }
  }
}

TEST_F(DatasetIdentityTest, LocatorStoredBinsMatchRebinnedTraining) {
  // A v2 artefact carries the histogram-path quantization; training
  // from its stored bin codes must be byte-identical to re-binning the
  // loaded matrix from scratch. Both locators run histogram binning —
  // the stored bins are only consumed on that path.
  core::LocatorConfig cfg = locator_config(1);
  cfg.binning = ml::BinningMode::kHistogram;
  core::TroubleLocator rebinned(cfg);
  rebinned.train(*data_, kLocFrom, kLocTo);
  const std::string want = locator_string(rebinned);

  const std::string path = temp_path("loc_bins.nmarena");
  const auto st_save = features::save_locator_dataset(
      path, *data_, kLocFrom, kLocTo, rebinned.encoder_config(),
      /*with_bins=*/true);
  ASSERT_TRUE(st_save.ok()) << st_save.message;
  for (const auto mode :
       {ml::ArenaLoadMode::kEager, ml::ArenaLoadMode::kMapped}) {
    SCOPED_TRACE(mode == ml::ArenaLoadMode::kEager ? "eager" : "mmap");
    ml::StoreStatus st;
    auto loaded = features::load_locator_dataset(path, mode, &st);
    ASSERT_TRUE(loaded.has_value()) << st.message;
    // The stored quantization must actually be surfaced — otherwise the
    // comparison below would silently test the re-binning path twice.
    ASSERT_NE(loaded->block.bins, nullptr);
    core::TroubleLocator locator(cfg);
    locator.train_from_block(*data_, loaded->block);
    EXPECT_EQ(locator_string(locator), want);
  }
  std::remove(path.c_str());
}

TEST_F(DatasetIdentityTest, ServedRankingFromMmapTrainedKernelMatches) {
  // Train off the mmap'ed artefact, publish the kernel, replay the
  // measurement stream, and compare the served ranking against the
  // reference kernel's — the full predict/serve surface, not just the
  // artefact bytes.
  ml::StoreStatus st;
  auto loaded = features::load_predictor_dataset(
      temp_path("pred.nmarena"), ml::ArenaLoadMode::kMapped, &st);
  ASSERT_TRUE(loaded.has_value()) << st.message;
  core::TicketPredictor predictor(predictor_config(8));
  predictor.train_from_block(loaded->block, loaded->encoder);

  const auto rank_with = [&](const core::ScoringKernel& kernel) {
    serve::LineStateStore store(4);
    serve::ModelRegistry registry;
    registry.publish(kernel);
    serve::ScoringService service(store, registry);
    serve::ReplayDriver replay(*data_, store);
    replay.feed_through(kServeWeek, predictor_config(8).exec);
    return service.top_n(50);
  };
  const auto want = rank_with(reference_->kernel());
  const auto got = rank_with(predictor.kernel());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].line, want[i].line) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
    EXPECT_EQ(got[i].probability, want[i].probability) << "rank " << i;
  }
}

TEST_F(DatasetIdentityTest, MismatchedArtefactsAreRefused) {
  ml::StoreStatus st;
  // A locator artefact is not a predictor dataset (and vice versa).
  EXPECT_FALSE(features::load_predictor_dataset(temp_path("loc.nmarena"),
                                                ml::ArenaLoadMode::kEager, &st)
                   .has_value());
  EXPECT_EQ(st.code, ml::StoreError::kMalformedMeta);
  EXPECT_FALSE(features::load_locator_dataset(temp_path("pred.nmarena"),
                                              ml::ArenaLoadMode::kEager, &st)
                   .has_value());
  EXPECT_EQ(st.code, ml::StoreError::kMalformedMeta);

  // A predictor configured differently from the artefact must refuse
  // to train rather than silently use the wrong columns.
  auto loaded = features::load_predictor_dataset(
      temp_path("pred.nmarena"), ml::ArenaLoadMode::kEager, &st);
  ASSERT_TRUE(loaded.has_value()) << st.message;
  core::PredictorConfig other = predictor_config(1);
  other.product_pool = 4;  // implies a different derived layout
  core::TicketPredictor predictor(other);
  EXPECT_THROW(predictor.train_from_block(loaded->block, loaded->encoder),
               std::invalid_argument);
}

}  // namespace
}  // namespace nevermind
