// The weekly Saturday job, in the two shapes the benchmark times:
//
//   retrain — build the tables, stream the two predictor passes (the
//             serving replay riding pass 1), plan stage 1, train from
//             the mmap'ed artefact, stream and train the trouble
//             locator (the held-out dispatch rows riding that pass),
//             publish, rank the top N, run the spatial analysis and
//             locate every held-out dispatch;
//   score   — build the tables, stream the weeks into the serving
//             replay (the dispatch encoder riding the same chunks),
//             then publish, rank, analyze and locate as above with the
//             model trained at set-up.
//
// Every call into a library layer is wrapped in a span named after the
// layer, so a traced job yields the per-layer times; with the tracer
// disabled the spans record nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scoring_kernel.hpp"
#include "core/ticket_predictor.hpp"
#include "core/trouble_locator.hpp"
#include "dslsim/simulator.hpp"
#include "exec/exec.hpp"
#include "serve/line_state_store.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/model_registry.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = nevermind::core;
namespace dslsim = nevermind::dslsim;
namespace exec = nevermind::exec;
namespace features = nevermind::features;
namespace ml = nevermind::ml;
namespace serve = nevermind::serve;
namespace util = nevermind::util;

/// An output that does not match its reference. main() turns it into
/// a nonzero exit without a result line.
struct GateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Calendar of the job: the Saturday it ranks, the held-out dispatch
/// weeks it locates, and the training windows (those of the CLI).
struct JobWeeks {
  int score_week = 0;
  int locate_from = 39;
  int locate_to = 43;
  int train_from = 0;
  int train_to = 0;
  int locator_to = 0;
  JobWeeks();
};

/// Shape of a streamed predictor training.
struct TrainStats {
  std::size_t selected_features = 0;
  std::size_t rows = 0;              // rows of the full training matrix
  std::size_t cols = 0;              // columns of the full matrix
  std::uint64_t artefact_bytes = 0;  // both predictor artefacts
};

/// A trained predictor kernel and trouble locator.
struct Models {
  core::ScoringKernel kernel;
  std::optional<core::TroubleLocator> locator;
  TrainStats stats;  // of the predictor training
};

/// What one job leaves behind for the online week that follows it: the
/// tables, the store replayed through the scored week, the registry
/// with the job's model published, and the next week's measurements
/// (the online INGEST stream).
struct ServingState {
  std::unique_ptr<dslsim::SimDataset> tables;
  std::unique_ptr<serve::LineStateStore> store;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<dslsim::MetricVector> next_week;
};

struct JobResult {
  double job_s = 0.0;
  /// Share of the ranked top N with a customer-edge ticket within the
  /// 4-week horizon after the scored Saturday.
  double precision_at_n = 0.0;
  /// Mean 1-based rank of the true disposition (combined model) over
  /// the held-out dispatches whose disposition the locator covers.
  double tests_to_locate = 0.0;
  std::size_t dispatches_ranked = 0;
  std::uint64_t topn_digest = 0;
  std::uint64_t locate_digest = 0;
  std::size_t spatial_findings = 0;
  TrainStats train;                 // retrain job only
  std::uint64_t ingested_rows = 0;  // measurements the replay fed
  ServingState state;
};

/// Ranking budget N for a population: 1% of the lines, at least 10
/// (the CLI's rule, and the predictor's AP(N) budget).
[[nodiscard]] std::size_t ranking_budget(std::uint32_t lines);

struct JobSpec {
  std::uint64_t seed = 1;
  std::uint32_t lines = 20000;
  /// Directory for the streamed .nmarena artefacts.
  std::string scratch_dir;
  /// Swap the first two entries of the sample's served ranking before
  /// it is digested (the negative case of the ranking gate).
  bool perturb_ranking = false;
};

/// The retrain Saturday.
[[nodiscard]] JobResult run_retrain_job(const JobSpec& spec,
                                        const exec::ExecContext& exec,
                                        Tracer& tracer);

/// The score Saturday, publishing `published`.
[[nodiscard]] JobResult run_score_job(const JobSpec& spec,
                                      const Models& published,
                                      const exec::ExecContext& exec,
                                      Tracer& tracer);

/// The set-up's sample predictor: the retrain job's predictor chain on
/// a separate spec.lines-line population of the same seed (so the
/// disposition catalogue matches). `served_digest` receives the digest
/// of the sample's top N from the serving path over its
/// replay.
[[nodiscard]] core::ScoringKernel train_sample_predictor(
    const JobSpec& spec, const exec::ExecContext& exec, Tracer& tracer,
    std::uint64_t* served_digest, TrainStats* stats);

/// The set-up's sample locator: the retrain job's locator chain on a
/// separate spec.lines-line population of the same seed.
[[nodiscard]] core::TroubleLocator train_sample_locator(
    const JobSpec& spec, const exec::ExecContext& exec, Tracer& tracer);

/// Offline reference for the sample: simulate it materialized, train
/// with TicketPredictor::train and digest predict_week's top N.
[[nodiscard]] std::uint64_t materialized_topn_digest(
    const JobSpec& spec, const exec::ExecContext& exec);

/// FNV-1a over (line, score bits, probability bits) of a ranking.
[[nodiscard]] std::uint64_t ranking_digest(
    std::span<const serve::ServeScore> ranked);
[[nodiscard]] std::uint64_t ranking_digest(
    std::span<const core::Prediction> ranked);

}  // namespace perfbench
