#include "features/dataset_io.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace nevermind::features {

namespace {

constexpr const char* kPredictorKind = "predictor";
constexpr const char* kLocatorKind = "locator";

std::string make_meta(const char* kind, const EncoderConfig& config) {
  std::ostringstream os;
  os << "nmdataset " << kind << '\n';
  save_encoder_config(os, config);
  return os.str();
}

/// Parse the meta blob; nullopt unless it names `kind` and carries a
/// valid encoder record.
std::optional<EncoderConfig> parse_meta(const std::string& meta,
                                        const char* kind) {
  std::istringstream is(meta);
  std::string magic;
  std::string got_kind;
  if (!(is >> magic >> got_kind) || magic != "nmdataset" || got_kind != kind) {
    return std::nullopt;
  }
  return load_encoder_config(is);
}

void set_status(ml::StoreStatus* status, ml::StoreError code,
                std::string message) {
  if (status != nullptr) {
    status->code = code;
    status->message = std::move(message);
  }
}

/// The aux array named `name`, or nullptr if the artefact lacks it.
const std::vector<std::uint32_t>* find_aux(const ml::StoredArena& stored,
                                           std::string_view name) {
  for (std::size_t a = 0; a < stored.aux_names.size(); ++a) {
    if (stored.aux_names[a] == name) return &stored.aux[a];
  }
  return nullptr;
}

/// A week feed drives an encoder's on_week in week order from week 0
/// through at least `last`, from a materialized run's tables or from
/// the simulator's streamed chunks.
auto materialized_feed(const dslsim::SimDataset& data) {
  return [&data](auto& encoder, int last) {
    for (int w = 0; w <= last; ++w) {
      encoder.on_week(w, data.week_measurements(w));
    }
  };
}

/// The encoder reads the producer's chunk in place — its windows carry
/// all the history a row needs — and the tap sees the same chunk
/// afterwards.
auto streamed_feed(const dslsim::Simulator& sim,
                   const dslsim::SimDataset& tables,
                   const exec::ExecContext& exec,
                   const StreamPipelineOptions& options) {
  return [&](auto& encoder, int last) {
    sim.stream_weeks(tables, exec,
                     [&](const dslsim::WeekChunk& chunk) {
                       encoder.on_week(chunk.week, chunk.measurements);
                       if (options.tap) options.tap(chunk);
                     },
                     std::max(last, options.stream_through));
  };
}

/// The one predictor writer: WeekEncoder rows stream into the nmarena
/// writer with the row->line/week mapping as aux arrays.
template <typename Feed>
ml::StoreStatus write_predictor(const std::string& path,
                                const dslsim::SimDataset& tables,
                                int emit_from, int emit_to,
                                const EncoderConfig& config,
                                const TicketLabeler& labeler,
                                const exec::ExecContext& exec, Feed&& feed) {
  const std::size_t n_rows = count_week_rows(tables, emit_from, emit_to);
  ml::ArenaStreamWriter writer(path, all_columns(config), n_rows);
  std::vector<std::uint32_t> line_of_row;
  std::vector<std::uint32_t> week_of_row;
  line_of_row.reserve(n_rows);
  week_of_row.reserve(n_rows);
  WeekEncoder encoder(tables, emit_from, emit_to, config, labeler,
                      [&](std::span<const float> row, bool label,
                          dslsim::LineId u, int w) {
                        writer.append(row, label);
                        line_of_row.push_back(static_cast<std::uint32_t>(u));
                        week_of_row.push_back(static_cast<std::uint32_t>(w));
                      },
                      exec);
  feed(encoder, encoder.emit_to());
  writer.add_aux("line", line_of_row);
  writer.add_aux("week", week_of_row);
  writer.set_meta(make_meta(kPredictorKind, config));
  return writer.finish();
}

/// The one bin-less locator writer: DispatchEncoder rows stream into the
/// nmarena writer with the row->note mapping as an aux array.
template <typename Feed>
ml::StoreStatus write_locator(const std::string& path,
                              const dslsim::SimDataset& tables, int week_from,
                              int week_to, const EncoderConfig& config,
                              const exec::ExecContext& exec, Feed&& feed) {
  const std::size_t n_rows = count_dispatch_rows(tables, week_from, week_to);
  ml::ArenaStreamWriter writer(path, all_columns(config), n_rows);
  std::vector<std::uint32_t> note_of_row;
  note_of_row.reserve(n_rows);
  DispatchEncoder encoder(tables, week_from, week_to, config,
                          [&](std::span<const float> row,
                              std::uint32_t note_idx) {
                            writer.append(row, false);
                            note_of_row.push_back(note_idx);
                          },
                          exec);
  feed(encoder, encoder.week_to());
  writer.add_aux("note", note_of_row);
  writer.set_meta(make_meta(kLocatorKind, config));
  return writer.finish();
}

}  // namespace

std::optional<std::string> dataset_kind(const std::string& meta) {
  std::istringstream is(meta);
  std::string magic;
  std::string kind;
  if (!(is >> magic >> kind) || magic != "nmdataset") return std::nullopt;
  return kind;
}

ml::StoreStatus save_predictor_dataset(const std::string& path,
                                       const dslsim::SimDataset& data,
                                       int emit_from, int emit_to,
                                       const EncoderConfig& config,
                                       const TicketLabeler& labeler) {
  return write_predictor(path, data, emit_from, emit_to, config, labeler,
                         exec::ExecContext::serial(), materialized_feed(data));
}

ml::StoreStatus stream_save_predictor_dataset(
    const std::string& path, const dslsim::Simulator& sim,
    const dslsim::SimDataset& tables, const exec::ExecContext& exec,
    int emit_from, int emit_to, const EncoderConfig& config,
    const TicketLabeler& labeler, const StreamPipelineOptions& options) {
  return write_predictor(path, tables, emit_from, emit_to, config, labeler,
                         exec, streamed_feed(sim, tables, exec, options));
}

ml::StoreStatus save_locator_dataset(const std::string& path,
                                     const dslsim::SimDataset& data,
                                     int week_from, int week_to,
                                     const EncoderConfig& config,
                                     bool with_bins,
                                     const ml::BinningConfig& binning) {
  if (!with_bins) {
    return write_locator(path, data, week_from, week_to, config,
                         exec::ExecContext::serial(), materialized_feed(data));
  }
  // Quantization needs the whole matrix, which the streaming writer
  // never materializes — encode in memory and bulk-save (locator
  // matrices are dispatch-sized, not line-week-sized).
  const LocatorBlock block =
      encode_at_dispatch(data, week_from, week_to, config);
  const ml::BinnedColumns bins(block.dataset, binning);
  const std::vector<std::string> aux_names = {"note"};
  const std::vector<std::vector<std::uint32_t>> aux = {block.note_of_row};
  return ml::save_arena(path, block.dataset, aux_names, aux,
                        make_meta(kLocatorKind, config), &bins);
}

ml::StoreStatus stream_save_locator_dataset(
    const std::string& path, const dslsim::Simulator& sim,
    const dslsim::SimDataset& tables, const exec::ExecContext& exec,
    int week_from, int week_to, const EncoderConfig& config,
    const StreamPipelineOptions& options) {
  return write_locator(path, tables, week_from, week_to, config, exec,
                       streamed_feed(sim, tables, exec, options));
}

std::optional<PredictorDataset> load_predictor_dataset(const std::string& path,
                                                       ml::ArenaLoadMode mode,
                                                       ml::StoreStatus* status) {
  auto stored = ml::load_arena(path, {.mode = mode}, status);
  if (!stored.has_value()) return std::nullopt;
  auto config = parse_meta(stored->meta, kPredictorKind);
  if (!config.has_value()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + " is not a predictor dataset artefact");
    return std::nullopt;
  }
  const auto* line = find_aux(*stored, "line");
  const auto* week = find_aux(*stored, "week");
  const std::size_t n_rows = stored->arena.n_rows();
  if (line == nullptr || week == nullptr || line->size() != n_rows ||
      week->size() != n_rows) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + " lacks the line/week row mappings");
    return std::nullopt;
  }
  if (stored->arena.n_cols() != all_columns(*config).size()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + ": column count disagrees with the stored encoder");
    return std::nullopt;
  }
  PredictorDataset out;
  out.encoder = std::move(*config);
  out.block.line_of_row.assign(line->begin(), line->end());
  out.block.week_of_row.reserve(week->size());
  for (const std::uint32_t w : *week) {
    out.block.week_of_row.push_back(static_cast<int>(w));
  }
  out.block.dataset = std::move(stored->arena);
  return out;
}

std::optional<LocatorDataset> load_locator_dataset(const std::string& path,
                                                   ml::ArenaLoadMode mode,
                                                   ml::StoreStatus* status) {
  auto stored = ml::load_arena(path, {.mode = mode}, status);
  if (!stored.has_value()) return std::nullopt;
  auto config = parse_meta(stored->meta, kLocatorKind);
  if (!config.has_value()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + " is not a locator dataset artefact");
    return std::nullopt;
  }
  const auto* note = find_aux(*stored, "note");
  if (note == nullptr || note->size() != stored->arena.n_rows()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + " lacks the note row mapping");
    return std::nullopt;
  }
  if (stored->arena.n_cols() != all_columns(*config).size()) {
    set_status(status, ml::StoreError::kMalformedMeta,
               path + ": column count disagrees with the stored encoder");
    return std::nullopt;
  }
  if (stored->bins != nullptr) {
    // The bins parser already validated shape against the header; also
    // require per-column kind agreement with the stored encoder layout
    // before handing them to training.
    for (std::size_t j = 0; j < stored->arena.n_cols(); ++j) {
      if (stored->bins->column(j).categorical !=
          stored->arena.column_info(j).categorical) {
        set_status(status, ml::StoreError::kMalformedBins,
                   path + ": bin-code section disagrees with column kinds");
        return std::nullopt;
      }
    }
  }
  LocatorDataset out;
  out.encoder = std::move(*config);
  out.block.note_of_row = *note;
  out.block.bins = stored->bins;
  out.block.dataset = std::move(stored->arena);
  return out;
}

}  // namespace nevermind::features
