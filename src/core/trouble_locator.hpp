// The trouble locator (paper Section 6): before a dispatch, rank the
// possible problem dispositions so the technician tests the most likely
// locations first.
//
// Three models, matching the paper's comparison:
//   * experience — the simple prior: rank dispositions by how often
//     they were the cause in the past (Section 6.1).
//   * flat — a one-vs-rest BStump + Platt calibration per disposition
//     C_ij; rank by P(C_ij | x) (Section 6.2).
//   * combined — Eq. 2: stack f_Cij with its parent major-location
//     classifier f_Ci. through a logistic regression, exploiting the
//     HN/F1/DS/F2 hierarchy; helps rare dispositions most.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dslsim/simulator.hpp"
#include "exec/exec.hpp"
#include "features/encoder.hpp"
#include "ml/adaboost.hpp"
#include "ml/calibration.hpp"
#include "ml/logreg.hpp"

namespace nevermind::core {

enum class LocatorModelKind : std::uint8_t {
  kExperience = 0,
  kFlat,
  kCombined,
};

[[nodiscard]] const char* locator_model_name(LocatorModelKind k) noexcept;

struct LocatorConfig {
  features::EncoderConfig encoder;  // paper: all Table-3 features
  /// Boosting rounds (paper: 200 by cross-validation).
  std::size_t boost_iterations = 200;
  /// Dispositions must appear at least this often in training to get a
  /// model (paper: 52 dispositions with > 20 occurrences = 81.9%).
  std::size_t min_occurrences = 20;
  /// Split-search path for every one-vs-rest ensemble. kHistogram
  /// quantizes the dispatch feature matrix once and shares the bin
  /// codes across all 52 disposition + 4 location trainings.
  ml::BinningMode binning = ml::BinningMode::kExact;
  /// Execution context: the 52 one-vs-rest disposition problems (and
  /// the 4 major-location classifiers) train independently against one
  /// shared feature matrix, each with its own label vector. Models are
  /// byte-identical at every thread count.
  exec::ExecContext exec;
};

struct RankedDisposition {
  dslsim::DispositionId disposition = 0;
  double probability = 0.0;
};

class TroubleLocator {
 public:
  explicit TroubleLocator(LocatorConfig config);

  /// Train on all disposition notes whose dispatch falls in measurement
  /// weeks [week_from, week_to].
  void train(const dslsim::SimDataset& data, int week_from, int week_to);

  /// Train from a pre-encoded dispatch block — a persisted dataset
  /// artefact loaded eagerly or mmap'ed (see features/dataset_io.hpp).
  /// `data` still supplies the disposition notes and catalogue behind
  /// block.note_of_row; the block's columns must match this locator's
  /// encoder configuration. Throws std::invalid_argument on layout or
  /// note-index mismatches.
  void train_from_block(const dslsim::SimDataset& data,
                        const features::LocatorBlock& block);

  /// Dispositions covered by trained models (>= min_occurrences).
  [[nodiscard]] std::span<const dslsim::DispositionId> covered() const {
    return covered_;
  }

  /// Rank covered dispositions for one encoded feature row, most
  /// likely first.
  [[nodiscard]] std::vector<RankedDisposition> rank(
      std::span<const float> features, LocatorModelKind kind) const;

  struct RankedLocation {
    dslsim::MajorLocation location = dslsim::MajorLocation::kHomeNetwork;
    double probability = 0.0;
  };

  /// Rank the four major locations by the f_Ci. classifiers — the
  /// technician's first decision ("if the technician has enough
  /// evidence to believe a problem happens at DS, she can save time by
  /// skipping testing the other three locations", §2.2). Calibrated to
  /// probabilities by a softmax over the location ensemble scores.
  [[nodiscard]] std::vector<RankedLocation> rank_locations(
      std::span<const float> features) const;

  /// 1-based rank of `truth` under the model (the number of locations a
  /// technician tests before finding the problem). Returns covered()
  /// size + 1 when the disposition is not covered.
  [[nodiscard]] std::size_t rank_of(std::span<const float> features,
                                    dslsim::DispositionId truth,
                                    LocatorModelKind kind) const;

  [[nodiscard]] const features::EncoderConfig& encoder_config() const {
    return config_.encoder;
  }
  [[nodiscard]] const LocatorConfig& config() const { return config_; }
  [[nodiscard]] bool trained() const { return !covered_.empty(); }

  /// Versioned text artefact ("nmlocator v1", built on ml/serialization):
  /// the encoder layout, per-disposition priors / flat ensembles /
  /// calibrators / Eq.2 coefficients, and the four major-location
  /// classifiers. Disposition ids are those of the training catalogue;
  /// a loaded locator must be served against the same catalogue.
  void save(std::ostream& os) const;
  [[nodiscard]] static std::optional<TroubleLocator> load(
      std::istream& is, std::string* error = nullptr);

  /// The flat ensemble f_Cij for a covered disposition (nullptr when
  /// not covered) — exposed for Fig-9 style explanations.
  [[nodiscard]] const ml::BStumpModel* flat_model(
      dslsim::DispositionId disposition) const;
  /// The major-location ensemble f_Ci. .
  [[nodiscard]] const ml::BStumpModel& location_model(
      dslsim::MajorLocation loc) const {
    return location_models_[static_cast<std::size_t>(loc)];
  }

 private:
  struct ClassModel {
    dslsim::DispositionId disposition = 0;
    dslsim::MajorLocation location = dslsim::MajorLocation::kHomeNetwork;
    double prior = 0.0;  // experience model: empirical frequency
    ml::BStumpModel flat;
    ml::PlattCalibrator flat_cal;
    /// Eq. 2 coefficients: intercept, gamma1 (f_Cij), gamma2 (f_Ci.).
    ml::LogisticModel combined;
  };

  LocatorConfig config_;
  std::vector<dslsim::DispositionId> covered_;
  std::vector<ClassModel> models_;
  /// Major-location classifiers f_Ci. indexed by MajorLocation.
  std::array<ml::BStumpModel, dslsim::kNumMajorLocations> location_models_;
};

}  // namespace nevermind::core
