#include "core/trouble_locator.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>

#include "ml/serialization.hpp"
#include "util/mathx.hpp"

namespace nevermind::core {

const char* locator_model_name(LocatorModelKind k) noexcept {
  switch (k) {
    case LocatorModelKind::kExperience: return "experience";
    case LocatorModelKind::kFlat: return "flat";
    case LocatorModelKind::kCombined: return "combined";
  }
  return "?";
}

TroubleLocator::TroubleLocator(LocatorConfig config)
    : config_(std::move(config)) {}

void TroubleLocator::train(const dslsim::SimDataset& data, int week_from,
                           int week_to) {
  const features::LocatorBlock block =
      features::encode_at_dispatch(data, week_from, week_to, config_.encoder,
                                   config_.exec);
  train_from_block(data, block);
}

void TroubleLocator::train_from_block(const dslsim::SimDataset& data,
                                      const features::LocatorBlock& block) {
  const std::size_t n = block.dataset.n_rows();
  if (n == 0) throw std::invalid_argument("TroubleLocator: no dispatches");
  if (block.note_of_row.size() != n) {
    throw std::invalid_argument(
        "TroubleLocator::train_from_block: note mapping size mismatch");
  }
  if (block.dataset.n_cols() !=
      features::all_columns(config_.encoder).size()) {
    throw std::invalid_argument(
        "TroubleLocator::train_from_block: column count disagrees with the "
        "encoder configuration");
  }

  // Truth labels per row.
  std::vector<dslsim::DispositionId> truth(n);
  std::vector<dslsim::MajorLocation> truth_loc(n);
  std::map<dslsim::DispositionId, std::size_t> counts;
  for (std::size_t r = 0; r < n; ++r) {
    if (block.note_of_row[r] >= data.notes().size()) {
      throw std::invalid_argument(
          "TroubleLocator::train_from_block: note index out of range");
    }
    const auto& note = data.notes()[block.note_of_row[r]];
    truth[r] = note.disposition;
    truth_loc[r] = note.location;
    ++counts[note.disposition];
  }

  covered_.clear();
  for (const auto& [disp, count] : counts) {
    if (count >= config_.min_occurrences) covered_.push_back(disp);
  }

  ml::BStumpConfig boost;
  boost.iterations = config_.boost_iterations;
  boost.binning = config_.binning;
  const exec::ExecContext& exec = config_.exec;

  // One immutable feature matrix + per-matrix training cache (sorted
  // index or bin codes, built once under the shared pool) serve every
  // one-vs-rest problem below; tasks differ only in their label
  // vectors, so the old per-chunk Dataset copies are gone.
  boost.exec = exec::ExecContext::serial();
  ml::BStumpConfig cache_build = boost;
  cache_build.exec = exec;
  // A v2 artefact's stored quantization substitutes for re-binning when
  // it covers this exact matrix at the requested max_bins — the bins
  // were computed by the same deterministic quantizer at save time, so
  // training from them is byte-identical to binning here.
  ml::TrainCache cache;
  const std::size_t want_max_bins =
      std::min<std::size_t>(cache_build.binning_config.max_bins, 256);
  if (config_.binning == ml::BinningMode::kHistogram &&
      block.bins != nullptr && block.bins->n_rows() == n &&
      block.bins->n_cols() == block.dataset.n_cols() &&
      block.bins->max_bins() == want_max_bins) {
    cache.binned = block.bins;
  } else {
    cache = ml::make_train_cache(block.dataset, cache_build);
  }

  // ---- major-location classifiers f_Ci. -------------------------------
  // Each location problem builds its own label vector, trains against
  // the shared matrix, and writes its pre-assigned slot — so the 4 (and
  // below, 52) one-vs-rest problems run concurrently while staying
  // byte-identical to the serial loop.
  exec.parallel_for(
      0, dslsim::kNumMajorLocations, 1, [&](std::size_t lb, std::size_t le) {
        std::vector<std::uint8_t> labels(n);
        for (std::size_t loc = lb; loc < le; ++loc) {
          for (std::size_t r = 0; r < n; ++r) {
            labels[r] = truth_loc[r] == static_cast<dslsim::MajorLocation>(loc);
          }
          location_models_[loc] =
              ml::train_bstump_cached(block.dataset, cache, labels, {}, boost);
        }
      });

  // ---- per-disposition flat models + Eq. 2 stacking --------------------
  models_.clear();
  models_.resize(covered_.size());
  exec.parallel_for(
      0, covered_.size(), 1, [&](std::size_t db, std::size_t de) {
        std::vector<std::uint8_t> labels(n);
        for (std::size_t d = db; d < de; ++d) {
          const dslsim::DispositionId disp = covered_[d];
          ClassModel cm;
          cm.disposition = disp;
          cm.location = data.catalog().signature(disp).location;
          cm.prior =
              static_cast<double>(counts.at(disp)) / static_cast<double>(n);

          for (std::size_t r = 0; r < n; ++r) labels[r] = truth[r] == disp;
          cm.flat =
              ml::train_bstump_cached(block.dataset, cache, labels, {}, boost);

          const std::vector<double> flat_scores =
              cm.flat.score_dataset(block.dataset);
          cm.flat_cal = ml::fit_platt(flat_scores, labels);

          const auto loc = static_cast<std::size_t>(
              data.catalog().signature(disp).location);
          const std::vector<double> loc_scores =
              location_models_[loc].score_dataset(block.dataset);

          // Combined model: logistic regression of the truth on
          // [f_Cij(x), f_Ci.(x)] (Eq. 2's gamma coefficients).
          std::vector<double> covariates(n * 2);
          for (std::size_t r = 0; r < n; ++r) {
            covariates[r * 2] = flat_scores[r];
            covariates[r * 2 + 1] = loc_scores[r];
          }
          cm.combined = ml::fit_logistic(covariates, 2, labels, 1e-4);
          models_[d] = std::move(cm);
        }
      });
}

std::vector<RankedDisposition> TroubleLocator::rank(
    std::span<const float> features, LocatorModelKind kind) const {
  std::vector<RankedDisposition> out;
  out.reserve(models_.size());
  for (const auto& cm : models_) {
    RankedDisposition rd;
    rd.disposition = cm.disposition;
    switch (kind) {
      case LocatorModelKind::kExperience:
        rd.probability = cm.prior;
        break;
      case LocatorModelKind::kFlat:
        rd.probability =
            cm.flat_cal.probability(cm.flat.score_features(features));
        break;
      case LocatorModelKind::kCombined: {
        const double f_ij = cm.flat.score_features(features);
        // f_Ci. of the disposition's own major location.
        const double f_i =
            location_models_[static_cast<std::size_t>(cm.location)]
                .score_features(features);
        const double cov[2] = {f_ij, f_i};
        rd.probability = cm.combined.predict(cov);
        break;
      }
    }
    out.push_back(rd);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedDisposition& a, const RankedDisposition& b) {
                     return a.probability > b.probability;
                   });
  return out;
}

std::vector<TroubleLocator::RankedLocation> TroubleLocator::rank_locations(
    std::span<const float> features) const {
  std::vector<RankedLocation> out;
  out.reserve(dslsim::kNumMajorLocations);
  double max_score = -std::numeric_limits<double>::infinity();
  std::array<double, dslsim::kNumMajorLocations> scores{};
  for (std::size_t loc = 0; loc < dslsim::kNumMajorLocations; ++loc) {
    scores[loc] = location_models_[loc].score_features(features);
    max_score = std::max(max_score, scores[loc]);
  }
  double total = 0.0;
  for (std::size_t loc = 0; loc < dslsim::kNumMajorLocations; ++loc) {
    scores[loc] = std::exp(scores[loc] - max_score);
    total += scores[loc];
  }
  for (std::size_t loc = 0; loc < dslsim::kNumMajorLocations; ++loc) {
    out.push_back({static_cast<dslsim::MajorLocation>(loc),
                   total > 0.0 ? scores[loc] / total : 0.25});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedLocation& a, const RankedLocation& b) {
                     return a.probability > b.probability;
                   });
  return out;
}

const ml::BStumpModel* TroubleLocator::flat_model(
    dslsim::DispositionId disposition) const {
  for (const auto& cm : models_) {
    if (cm.disposition == disposition) return &cm.flat;
  }
  return nullptr;
}

std::size_t TroubleLocator::rank_of(std::span<const float> features,
                                    dslsim::DispositionId truth,
                                    LocatorModelKind kind) const {
  const auto ranking = rank(features, kind);
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (ranking[i].disposition == truth) return i + 1;
  }
  return ranking.size() + 1;
}

void TroubleLocator::save(std::ostream& os) const {
  os << "nmlocator v1\n";
  features::save_encoder_config(os, config_.encoder);
  os << "models " << models_.size() << '\n';
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& cm : models_) {
    os << "model " << cm.disposition << ' '
       << static_cast<int>(cm.location) << ' ' << cm.prior << '\n';
    ml::save_model(os, cm.flat);
    ml::save_calibrator(os, cm.flat_cal);
    ml::save_logistic(os, cm.combined);
  }
  os << "locations " << location_models_.size() << '\n';
  for (const auto& model : location_models_) ml::save_model(os, model);
}

std::optional<TroubleLocator> TroubleLocator::load(std::istream& is,
                                                   std::string* error) {
  const auto fail = [&](const std::string& message)
      -> std::optional<TroubleLocator> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  std::string magic;
  std::string version;
  if (!(is >> magic >> version) || magic != "nmlocator") {
    return fail("not a locator artefact (missing 'nmlocator' magic)");
  }
  if (version != "v1") {
    return fail("unsupported locator version '" + version +
                "' (this build reads v1)");
  }
  auto encoder = features::load_encoder_config(is);
  if (!encoder.has_value()) {
    return fail("malformed encoder configuration block");
  }

  LocatorConfig config;
  config.encoder = std::move(*encoder);
  TroubleLocator locator(config);

  std::string tag;
  std::size_t n_models = 0;
  if (!(is >> tag >> n_models) || tag != "models") {
    return fail("malformed model list header");
  }
  locator.models_.reserve(n_models);
  for (std::size_t i = 0; i < n_models; ++i) {
    ClassModel cm;
    int location = 0;
    if (!(is >> tag >> cm.disposition >> location >> cm.prior) ||
        tag != "model" || location < 0 ||
        location >= static_cast<int>(dslsim::kNumMajorLocations)) {
      return fail("malformed per-disposition model header");
    }
    cm.location = static_cast<dslsim::MajorLocation>(location);
    auto flat = ml::load_model(is);
    if (!flat.has_value()) return fail("malformed flat ensemble block");
    cm.flat = std::move(*flat);
    auto cal = ml::load_calibrator(is);
    if (!cal.has_value()) return fail("malformed flat calibrator block");
    cm.flat_cal = *cal;
    auto combined = ml::load_logistic(is);
    if (!combined.has_value()) return fail("malformed Eq.2 logistic block");
    cm.combined = std::move(*combined);
    locator.models_.push_back(std::move(cm));
  }
  locator.covered_.reserve(n_models);
  for (const auto& cm : locator.models_) {
    locator.covered_.push_back(cm.disposition);
  }

  std::size_t n_locations = 0;
  if (!(is >> tag >> n_locations) || tag != "locations" ||
      n_locations != locator.location_models_.size()) {
    return fail("malformed location model list");
  }
  for (auto& model : locator.location_models_) {
    auto loaded = ml::load_model(is);
    if (!loaded.has_value()) return fail("malformed location ensemble block");
    model = std::move(*loaded);
  }
  return locator;
}

}  // namespace nevermind::core
