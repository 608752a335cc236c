#include "core/retrain.hpp"

#include <algorithm>

#include "features/encoder.hpp"

namespace nevermind::core {

const char* retrain_trigger_name(RetrainTrigger t) noexcept {
  switch (t) {
    case RetrainTrigger::kNone:
      return "none";
    case RetrainTrigger::kCalendar:
      return "calendar";
    case RetrainTrigger::kDrift:
      return "drift";
  }
  return "?";
}

RetrainOrchestrator::RetrainOrchestrator(RetrainPolicy policy,
                                         PredictorConfig predictor_config)
    : policy_(policy), predictor_(std::move(predictor_config)) {}

void RetrainOrchestrator::train_at(const dslsim::SimDataset& data,
                                   int week_before) {
  const int train_to = week_before;
  const int train_from =
      std::max(0, train_to - policy_.training_window_weeks + 1);
  predictor_.train(data, train_from, train_to);
  last_trained_week_ = train_to;

  // Reference distributions for drift monitoring: the selected feature
  // columns over the training window.
  const features::TicketLabeler labeler{predictor_.config().horizon_days};
  const auto block = features::encode_weeks(
      data, train_from, train_to, predictor_.full_encoder_config(), labeler,
      predictor_.config().exec);
  drift_.fit(
      ml::DatasetView(block.dataset).cols(predictor_.selected_features()));

  if (publish_) publish_(predictor_.kernel());
}

void RetrainOrchestrator::bootstrap(const dslsim::SimDataset& data,
                                    int first_week) {
  train_at(data, first_week - 1);
  weeks_since_training_ = 0;
  alert_streak_ = 0;
}

RetrainDecision RetrainOrchestrator::observe_week(
    const dslsim::SimDataset& data, int week) {
  RetrainDecision decision;
  decision.week = week;

  // Decide before scoring the week, on evidence accumulated through
  // week-1 — the calendar cadence composes with the drift trigger, and
  // either can run alone.
  if (policy_.retrain_every_weeks > 0 &&
      weeks_since_training_ >= policy_.retrain_every_weeks) {
    decision.trigger = RetrainTrigger::kCalendar;
  } else if (policy_.drift_min_alerts > 0 &&
             alert_streak_ >= policy_.drift_patience_weeks &&
             weeks_since_training_ >= policy_.drift_cooldown_weeks) {
    decision.trigger = RetrainTrigger::kDrift;
  }
  if (decision.trigger != RetrainTrigger::kNone) {
    train_at(data, week - 1);
    weeks_since_training_ = 0;
    alert_streak_ = 0;
    decision.retrained = true;
  }
  ++weeks_since_training_;

  // This week's PSI against the (possibly fresh) reference.
  const features::TicketLabeler labeler{predictor_.config().horizon_days};
  const auto block = features::encode_weeks(
      data, week, week, predictor_.full_encoder_config(), labeler,
      predictor_.config().exec);
  const auto current =
      ml::DatasetView(block.dataset).cols(predictor_.selected_features());
  for (double p : drift_.column_psi(current)) {
    decision.max_psi = std::max(decision.max_psi, p);
    decision.drift_alerts += p > policy_.psi_alert_threshold ? 1 : 0;
  }
  if (policy_.drift_min_alerts > 0 &&
      decision.drift_alerts >= policy_.drift_min_alerts) {
    ++alert_streak_;
  } else {
    alert_streak_ = 0;
  }
  return decision;
}

}  // namespace nevermind::core
