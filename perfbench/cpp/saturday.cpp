#include "saturday.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>

#include "dslsim/topology.hpp"
#include "features/dataset_io.hpp"
#include "features/encoder.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_service.hpp"
#include "spatial/aggregator.hpp"
#include "util/calendar.hpp"

namespace perfbench {

namespace spatial = nevermind::spatial;

JobWeeks::JobWeeks()
    : score_week(util::test_week_of(util::day_from_date(10, 31))),
      train_from(util::test_week_of(util::day_from_date(8, 1))),
      train_to(util::test_week_of(util::day_from_date(9, 30))),
      locator_to(util::test_week_of(util::day_from_date(9, 18))) {}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFU;
    h *= kFnvPrime;
  }
}

dslsim::SimConfig sim_config(const JobSpec& spec) {
  dslsim::SimConfig cfg;
  cfg.seed = spec.seed;
  cfg.topology.n_lines = spec.lines;
  return cfg;
}

core::LocatorConfig locator_config(const JobSpec& spec,
                                   const exec::ExecContext& exec) {
  core::LocatorConfig cfg;
  cfg.exec = exec;
  cfg.min_occurrences = std::max<std::size_t>(6, spec.lines / 2000);
  return cfg;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void require(const ml::StoreStatus& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.message);
}

/// Streams a week's chunks into the serving replay through the scored
/// week, the held-out dispatch rows into `rows`, and keeps the week
/// after the scored one for the online INGEST stream.
struct WeekTaps {
  WeekTaps(const dslsim::SimDataset& tables, serve::LineStateStore& store,
           const features::EncoderConfig& locator_encoder,
           const exec::ExecContext& exec, Tracer& tracer)
      : replay(tables, store),
        dispatch(tables, weeks.locate_from, weeks.locate_to, locator_encoder,
                 [this](std::span<const float> row, std::uint32_t note) {
                   rows.emplace_back(row.begin(), row.end());
                   notes.push_back(note);
                 }),
        exec_(exec),
        tracer_(tracer) {}

  void feed_replay(const dslsim::WeekChunk& chunk) {
    if (chunk.week <= weeks.score_week) {
      const Span span(tracer_, "serve.replay");
      replay.feed_week_chunk(chunk, exec_);
    } else if (chunk.week == weeks.score_week + 1) {
      next_week.assign(chunk.measurements.begin(), chunk.measurements.end());
    }
  }
  void feed_dispatch(const dslsim::WeekChunk& chunk) {
    if (chunk.week > weeks.locate_to) return;
    const Span span(tracer_, "features.dispatch_rows");
    dispatch.on_week(chunk.week, chunk.measurements);
  }

  JobWeeks weeks;
  serve::ReplayDriver replay;
  features::DispatchEncoder dispatch;
  std::vector<std::vector<float>> rows;
  std::vector<std::uint32_t> notes;
  std::vector<dslsim::MetricVector> next_week;

 private:
  const exec::ExecContext& exec_;
  Tracer& tracer_;
};

/// The streamed predictor chain: pass 1 (base matrix, `pass1_tap`
/// riding it through `pass1_through`), stage-1 plan, pass 2 (full
/// matrix), mmap load, train_from_block.
core::ScoringKernel train_predictor_streamed(
    const dslsim::Simulator& sim, const dslsim::SimDataset& tables,
    const exec::ExecContext& exec, const JobSpec& spec, Tracer& tracer,
    const dslsim::WeekSink& pass1_tap, int pass1_through,
    TrainStats& stats) {
  const JobWeeks weeks;
  core::PredictorConfig cfg;
  cfg.exec = exec;
  cfg.top_n = ranking_budget(spec.lines);
  core::TicketPredictor predictor(cfg);
  const features::TicketLabeler labeler{cfg.horizon_days};
  features::EncoderConfig base_cfg = predictor.config().encoder;
  base_cfg.include_quadratic = false;
  base_cfg.product_pairs.clear();

  ml::StoreStatus st;
  const std::string base_path = spec.scratch_dir + "/base.nmarena";
  features::StreamPipelineOptions base_opts;
  base_opts.stream_through = pass1_through;
  base_opts.tap = pass1_tap;
  {
    const Span span(tracer, "features.stream_save_base");
    st = features::stream_save_predictor_dataset(
        base_path, sim, tables, exec, weeks.train_from, weeks.train_to,
        base_cfg, labeler, base_opts);
  }
  require(st, "pass 1");
  stats.artefact_bytes = file_bytes(base_path);
  features::EncoderConfig full_cfg;
  {
    std::optional<features::PredictorDataset> base;
    {
      const Span span(tracer, "features.load");
      base = features::load_predictor_dataset(
          base_path, ml::ArenaLoadMode::kMapped, &st);
    }
    if (!base.has_value()) require(st, "load base matrix");
    const Span span(tracer, "core.plan_full_encoder");
    full_cfg = predictor.plan_full_encoder(base->block);
  }
  std::filesystem::remove(base_path);

  const std::string full_path = spec.scratch_dir + "/full.nmarena";
  {
    const Span span(tracer, "features.stream_save_full");
    st = features::stream_save_predictor_dataset(
        full_path, sim, tables, exec, weeks.train_from, weeks.train_to,
        full_cfg, labeler, {});
  }
  require(st, "pass 2");
  stats.artefact_bytes += file_bytes(full_path);
  {
    std::optional<features::PredictorDataset> full;
    {
      const Span span(tracer, "features.load");
      full = features::load_predictor_dataset(
          full_path, ml::ArenaLoadMode::kMapped, &st);
    }
    if (!full.has_value()) require(st, "load full matrix");
    stats.rows = full->block.dataset.n_rows();
    stats.cols = full->block.dataset.n_cols();
    const Span span(tracer, "core.train_from_block");
    predictor.train_from_block(full->block, full->encoder);
  }
  std::filesystem::remove(full_path);
  stats.selected_features = predictor.selected_features().size();
  return predictor.kernel();
}

/// The streamed locator chain: the locator pass (`locator_tap`, when
/// set, riding it through the last held-out week), mmap load, train.
core::TroubleLocator train_locator_streamed(
    const dslsim::Simulator& sim, const dslsim::SimDataset& tables,
    const exec::ExecContext& exec, const JobSpec& spec, Tracer& tracer,
    const dslsim::WeekSink& locator_tap) {
  const JobWeeks weeks;
  ml::StoreStatus st;
  core::TroubleLocator locator(locator_config(spec, exec));
  const std::string locator_path = spec.scratch_dir + "/locator.nmarena";
  features::StreamPipelineOptions locator_opts;
  if (locator_tap) {
    locator_opts.stream_through = weeks.locate_to;
    locator_opts.tap = locator_tap;
  }
  {
    const Span span(tracer, "features.stream_save_locator");
    st = features::stream_save_locator_dataset(
        locator_path, sim, tables, exec, weeks.train_from, weeks.locator_to,
        locator.encoder_config(), locator_opts);
  }
  require(st, "locator pass");
  {
    std::optional<features::LocatorDataset> loaded;
    {
      const Span span(tracer, "features.load");
      loaded = features::load_locator_dataset(
          locator_path, ml::ArenaLoadMode::kMapped, &st);
    }
    if (!loaded.has_value()) require(st, "load locator matrix");
    const Span span(tracer, "core.locator_train");
    locator.train_from_block(tables, loaded->block);
  }
  std::filesystem::remove(locator_path);
  return locator;
}

/// Publish, rank, analyze and locate: the half both job shapes share.
void finish_job(const JobSpec& spec, const core::ScoringKernel& kernel,
                const core::TroubleLocator& locator, WeekTaps& taps,
                const exec::ExecContext& exec, Tracer& tracer,
                JobResult& r) {
  ServingState& state = r.state;
  const dslsim::SimDataset& tables = *state.tables;
  state.registry = std::make_unique<serve::ModelRegistry>();
  state.registry->publish(kernel);
  serve::ServiceConfig service_cfg;
  service_cfg.exec = exec;
  const serve::ScoringService service(*state.store, *state.registry,
                                      service_cfg);
  std::vector<serve::ServeScore> ranked;
  {
    const Span span(tracer, "serve.top_n");
    ranked = service.top_n(ranking_budget(spec.lines));
  }
  if (ranked.size() != ranking_budget(spec.lines)) {
    throw GateError("top_n returned " + std::to_string(ranked.size()) +
                    " lines, expected " +
                    std::to_string(ranking_budget(spec.lines)));
  }
  r.topn_digest = ranking_digest(ranked);
  const features::TicketLabeler labeler{core::PredictorConfig{}.horizon_days};
  const util::Day saturday = util::saturday_of_week(taps.weeks.score_week);
  std::size_t hits = 0;
  for (const auto& s : ranked) {
    if (s.week != taps.weeks.score_week) {
      throw GateError("ranked line " + std::to_string(s.line) +
                      " scored at week " + std::to_string(s.week));
    }
    if (labeler(tables, s.line, saturday)) ++hits;
  }
  r.precision_at_n =
      static_cast<double>(hits) / static_cast<double>(ranked.size());

  {
    const spatial::SpatialAggregator aggregator(tables.topology());
    const Span span(tracer, "spatial.analyze_store");
    const spatial::SpatialReport report =
        aggregator.analyze_store(*state.store, {}, exec);
    if (report.verdicts.size() != tables.n_lines() || report.evaluated == 0 ||
        report.week != taps.weeks.score_week) {
      throw GateError("spatial analysis did not judge the scored week");
    }
    r.spatial_findings = report.network_findings.size();
  }

  // Locate every held-out dispatch whose disposition the locator
  // covers; the plan position of the truth is the number of tests.
  const auto covered = locator.covered();
  std::uint64_t h = kFnvOffset;
  double tests = 0.0;
  std::size_t located = 0;
  {
    const Span span(tracer, "core.locator_rank");
    for (std::size_t i = 0; i < taps.rows.size(); ++i) {
      const auto& note = tables.notes()[taps.notes[i]];
      if (std::find(covered.begin(), covered.end(), note.disposition) ==
          covered.end()) {
        continue;
      }
      const auto plan =
          locator.rank(taps.rows[i], core::LocatorModelKind::kCombined);
      std::size_t pos = 0;
      while (pos < plan.size() && plan[pos].disposition != note.disposition) {
        ++pos;
      }
      if (pos == plan.size()) {
        throw GateError("locator plan misses covered disposition of ticket " +
                        std::to_string(note.ticket_id));
      }
      tests += static_cast<double>(pos + 1);
      ++located;
      fnv(h, note.ticket_id);
      for (std::size_t k = 0; k < 5 && k < plan.size(); ++k) {
        fnv(h, plan[k].disposition);
      }
    }
  }
  if (located == 0) throw GateError("no held-out dispatch was located");
  // The plan position must be what rank_of reports (checked on a
  // prefix; rank_of re-ranks, so checking all would double the work).
  std::size_t checked = 0;
  for (std::size_t i = 0; i < taps.rows.size() && checked < 16; ++i) {
    const auto& note = tables.notes()[taps.notes[i]];
    if (std::find(covered.begin(), covered.end(), note.disposition) ==
        covered.end()) {
      continue;
    }
    const auto plan =
        locator.rank(taps.rows[i], core::LocatorModelKind::kCombined);
    std::size_t pos = 0;
    while (plan[pos].disposition != note.disposition) ++pos;
    if (locator.rank_of(taps.rows[i], note.disposition,
                        core::LocatorModelKind::kCombined) != pos + 1) {
      throw GateError("rank_of disagrees with the ranked plan");
    }
    ++checked;
  }
  r.tests_to_locate = tests / static_cast<double>(located);
  r.dispatches_ranked = located;
  r.locate_digest = h;
  r.ingested_rows = taps.replay.measurements_fed();
  state.next_week = std::move(taps.next_week);
  if (state.next_week.size() != tables.n_lines()) {
    throw GateError("the week after the scored one was not captured");
  }
}

}  // namespace

std::size_t ranking_budget(std::uint32_t lines) {
  return std::max<std::size_t>(lines / 100, 10);
}

std::uint64_t ranking_digest(std::span<const serve::ServeScore> ranked) {
  std::uint64_t h = kFnvOffset;
  for (const auto& s : ranked) {
    fnv(h, s.line);
    fnv(h, std::bit_cast<std::uint64_t>(s.score));
    fnv(h, std::bit_cast<std::uint64_t>(s.probability));
  }
  return h;
}

std::uint64_t ranking_digest(std::span<const core::Prediction> ranked) {
  std::uint64_t h = kFnvOffset;
  for (const auto& p : ranked) {
    fnv(h, p.line);
    fnv(h, std::bit_cast<std::uint64_t>(p.score));
    fnv(h, std::bit_cast<std::uint64_t>(p.probability));
  }
  return h;
}

JobResult run_retrain_job(const JobSpec& spec, const exec::ExecContext& exec,
                          Tracer& tracer) {
  const auto t0 = Clock::now();
  JobResult r;
  const dslsim::Simulator sim(sim_config(spec));
  {
    const Span span(tracer, "dslsim.build_tables");
    r.state.tables =
        std::make_unique<dslsim::SimDataset>(sim.build_tables(exec));
  }
  r.state.store = std::make_unique<serve::LineStateStore>();
  WeekTaps taps(*r.state.tables, *r.state.store,
                locator_config(spec, exec).encoder, exec, tracer);
  const core::ScoringKernel kernel = train_predictor_streamed(
      sim, *r.state.tables, exec, spec, tracer,
      [&](const dslsim::WeekChunk& c) { taps.feed_replay(c); },
      taps.weeks.score_week + 1, r.train);
  const core::TroubleLocator locator = train_locator_streamed(
      sim, *r.state.tables, exec, spec, tracer,
      [&](const dslsim::WeekChunk& c) { taps.feed_dispatch(c); });
  finish_job(spec, kernel, locator, taps, exec, tracer, r);
  r.job_s = seconds_between(t0, Clock::now());
  return r;
}

JobResult run_score_job(const JobSpec& spec, const Models& published,
                        const exec::ExecContext& exec, Tracer& tracer) {
  const auto t0 = Clock::now();
  JobResult r;
  const dslsim::Simulator sim(sim_config(spec));
  {
    const Span span(tracer, "dslsim.build_tables");
    r.state.tables =
        std::make_unique<dslsim::SimDataset>(sim.build_tables(exec));
  }
  r.state.store = std::make_unique<serve::LineStateStore>();
  WeekTaps taps(*r.state.tables, *r.state.store,
                published.locator->encoder_config(), exec, tracer);
  {
    const Span span(tracer, "dslsim.stream_weeks");
    sim.stream_weeks(
        *r.state.tables, exec,
        [&](const dslsim::WeekChunk& c) {
          taps.feed_replay(c);
          taps.feed_dispatch(c);
        },
        taps.weeks.score_week + 1);
  }
  finish_job(spec, published.kernel, *published.locator, taps, exec, tracer,
             r);
  r.job_s = seconds_between(t0, Clock::now());
  return r;
}

core::ScoringKernel train_sample_predictor(const JobSpec& spec,
                                           const exec::ExecContext& exec,
                                           Tracer& tracer,
                                           std::uint64_t* served_digest,
                                           TrainStats* stats) {
  const dslsim::Simulator sim(sim_config(spec));
  std::optional<dslsim::SimDataset> tables;
  {
    const Span span(tracer, "dslsim.build_tables");
    tables.emplace(sim.build_tables(exec));
  }
  serve::LineStateStore store;
  serve::ReplayDriver replay(*tables, store);
  const JobWeeks weeks;
  core::ScoringKernel kernel = train_predictor_streamed(
      sim, *tables, exec, spec, tracer,
      [&](const dslsim::WeekChunk& c) {
        if (c.week > weeks.score_week) return;
        const Span span(tracer, "serve.replay");
        replay.feed_week_chunk(c, exec);
      },
      weeks.score_week, *stats);
  serve::ModelRegistry registry;
  registry.publish(kernel);
  serve::ServiceConfig service_cfg;
  service_cfg.exec = exec;
  const serve::ScoringService service(store, registry, service_cfg);
  std::vector<serve::ServeScore> ranked;
  {
    const Span span(tracer, "serve.top_n");
    ranked = service.top_n(ranking_budget(spec.lines));
  }
  if (spec.perturb_ranking && ranked.size() > 1) {
    std::swap(ranked[0], ranked[1]);
  }
  *served_digest = ranking_digest(ranked);
  return kernel;
}

core::TroubleLocator train_sample_locator(const JobSpec& spec,
                                          const exec::ExecContext& exec,
                                          Tracer& tracer) {
  const dslsim::Simulator sim(sim_config(spec));
  std::optional<dslsim::SimDataset> tables;
  {
    const Span span(tracer, "dslsim.build_tables");
    tables.emplace(sim.build_tables(exec));
  }
  return train_locator_streamed(sim, *tables, exec, spec, tracer, {});
}

std::uint64_t materialized_topn_digest(const JobSpec& spec,
                                       const exec::ExecContext& exec) {
  const JobWeeks weeks;
  const dslsim::SimDataset data = dslsim::Simulator(sim_config(spec)).run(exec);
  core::PredictorConfig cfg;
  cfg.exec = exec;
  cfg.top_n = ranking_budget(spec.lines);
  core::TicketPredictor predictor(cfg);
  predictor.train(data, weeks.train_from, weeks.train_to);
  std::vector<core::Prediction> ranked =
      predictor.predict_week(data, weeks.score_week);
  ranked.resize(std::min(ranked.size(), ranking_budget(spec.lines)));
  return ranking_digest(ranked);
}

}  // namespace perfbench
