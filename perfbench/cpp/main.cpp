// perfbench: the repository benchmark. One process links the NEVERMIND
// libraries and runs one named workload — a Saturday job followed by
// the online week it serves — from a seed, checks every output it
// times, and prints one JSON result as the last line of stdout.
//
//   perfbench --workload retrain_saturday|score_saturday --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//             [--lines N] [--score-rate R] [--perturb ranking|score|topn]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced pass (plus an untraced and a 1-thread
// pass for the tracing overhead and the thread speed-ups), writes a
// Chrome trace-event JSON and prints a per-layer self-time table to
// stderr. A gate that fails exits 1 without a result line; bad flags
// exit 2.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster_week.hpp"
#include "ml/simd.hpp"
#include "online.hpp"
#include "saturday.hpp"
#include "serve/scoring_service.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Workload {
  std::string name;
  std::uint32_t lines;
  bool retrain;
  /// Nominal SCORE rate of the online week. On the 200K-line store a
  /// TOP_N stalls the server for 0.3 s of each second; at 20K SCORE/s
  /// the backlog it leaves takes long enough to drain that about half
  /// the requests wait, and the p50 lands on that edge. 5K keeps the
  /// p50 clear of it.
  double score_rate;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"retrain_saturday", 20000, true, 20000.0},
      {"score_saturday", 200000, false, 5000.0},
  };
  return w;
}

/// The set-up's sample predictor is trained on this many lines: small
/// enough to also train materialized for the ranking gate.
constexpr std::uint32_t kSampleLines = 4000;
/// score_saturday's sample locator is trained on this many lines; at
/// 4,000 it covers so few dispositions that tests_to_locate swings with
/// the seed.
constexpr std::uint32_t kSampleLocatorLines = 20000;
/// Set-up repetitions per untraced run (setup_s is their median).
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench/out";
  std::string source_digest = "unknown";
  std::string commit = "unknown";
  std::optional<std::uint32_t> lines;
  std::optional<double> score_rate;
  std::string perturb;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--lines N] "
               "[--score-rate R] [--perturb ranking|score|topn] "
               "[--source-digest HEX] [--commit REV]\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  std::istringstream is(text);
  T v{};
  if (!(is >> v) || !is.eof()) usage("bad value for " + flag + ": " + text);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, v);
    } else if (flag == "--trace") {
      a.trace = parse_number<int>(flag, v);
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--source-digest") {
      a.source_digest = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--lines") {
      a.lines = parse_number<std::uint32_t>(flag, v);
    } else if (flag == "--score-rate") {
      a.score_rate = parse_number<double>(flag, v);
    } else if (flag == "--perturb") {
      if (v != "ranking" && v != "score" && v != "topn") {
        usage("bad --perturb " + v);
      }
      a.perturb = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0.0) usage("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.lines.has_value() && *a.lines < 1000) usage("--lines must be >= 1000");
  if (a.score_rate.has_value() && !(*a.score_rate >= 1.0)) {
    usage("--score-rate must be >= 1");
  }
  return a;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

// ---- peak resident set (VmHWM), resettable per phase -----------------

std::uint64_t peak_rss_bytes() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS; false when the kernel refuses, in
/// which case the peak covers the whole process so far.
bool reset_peak_rss() {
  std::ofstream os("/proc/self/clear_refs");
  os << "5";
  os.flush();
  return static_cast<bool>(os);
}

// ---- result line ------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": true, \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].first << "\": {\"value\": "
       << metrics[i].second.value << ", \"unit\": \"" << metrics[i].second.unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_stamp(const Args& a, std::size_t threads) {
  std::cout << "stamp {\"nproc\": " << nproc()
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ", \"exec_threads\": "
            << threads << ", \"simd\": \""
            << ml::simd::kernel_name(ml::simd::active_kernel())
            << "\", \"compiler\": \"gcc " << __VERSION__
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << a.commit << "\", \"source_digest\": \""
            << a.source_digest << "\"}" << std::endl;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ---- the runs -----------------------------------------------------------

struct Context {
  Args args;
  Workload workload;
  std::size_t threads = 1;
  std::string scratch;  // artefact directory of this process
};

JobSpec job_spec(const Context& cx) {
  JobSpec spec;
  spec.seed = cx.args.seed;
  spec.lines = cx.workload.lines;
  spec.scratch_dir = cx.scratch;
  return spec;
}

JobSpec sample_spec(const Context& cx) {
  JobSpec spec = job_spec(cx);
  spec.lines = kSampleLines;
  spec.perturb_ranking = cx.args.perturb == "ranking";
  return spec;
}

OnlineSpec online_spec(const Context& cx) {
  OnlineSpec spec;
  // The ladder's knee moves with neighbour load far more than any other
  // figure (spread 0.82 of its median over 10 seeds on a shared VM), so
  // it is a per-layer figure of the traced run only.
  spec.ladder = cx.args.trace == 1;
  spec.seed = cx.args.seed;
  spec.nominal_score_rate = cx.args.score_rate.value_or(cx.workload.score_rate);
  spec.nominal_seconds = cx.args.seconds;
  spec.connections = std::min<std::size_t>(4, nproc());
  spec.perturb_score = cx.args.perturb == "score";
  return spec;
}

/// Set-up: train the sample predictor and check its served top N
/// against the materialized predict_week reference computed by the
/// caller; score_saturday also trains the sample locator it publishes.
Models set_up(const Context& cx, std::uint64_t reference,
              const exec::ExecContext& exec, Tracer& tracer) {
  std::uint64_t served = 0;
  Models models;
  models.kernel = train_sample_predictor(sample_spec(cx), exec, tracer,
                                         &served, &models.stats);
  if (served != reference) {
    throw GateError(
        "sample top-N from the serving path differs from predict_week");
  }
  if (!cx.workload.retrain) {
    JobSpec spec = job_spec(cx);
    spec.lines = std::min(kSampleLocatorLines, cx.workload.lines);
    models.locator = train_sample_locator(spec, exec, tracer);
  }
  return models;
}

JobResult run_job(const Context& cx, const Models& sample,
                  const exec::ExecContext& exec, Tracer& tracer) {
  return cx.workload.retrain ? run_retrain_job(job_spec(cx), exec, tracer)
                             : run_score_job(job_spec(cx), sample, exec, tracer);
}

/// Compares a job's digests with the digests recorded for the same
/// workload, seed, size and source, recording them on first sight.
void check_recorded_digest(const Context& cx, const JobResult& r) {
  const std::filesystem::path dir =
      std::filesystem::path(cx.args.out_dir) / "digests";
  std::filesystem::create_directories(dir);
  const auto path =
      dir / (cx.workload.name + "-seed" + std::to_string(cx.args.seed) +
             "-lines" + std::to_string(cx.workload.lines) + "-" +
             cx.args.source_digest + ".txt");
  std::ostringstream now;
  now << std::hex << r.topn_digest << ' ' << r.locate_digest;
  std::ifstream is(path);
  std::string recorded;
  if (std::getline(is, recorded)) {
    if (recorded != now.str()) {
      throw GateError("job digests " + now.str() + " differ from recorded " +
                      recorded);
    }
    return;
  }
  const auto tmp = path.string() + ".tmp";
  std::ofstream(tmp) << now.str() << '\n';
  std::filesystem::rename(tmp, path);
}

int run_untraced(const Context& cx) {
  const exec::ExecContext exec(cx.threads);
  Tracer off(false);
  const std::uint64_t reference =
      materialized_topn_digest(sample_spec(cx), exec);

  std::vector<double> setup_s;
  std::optional<Models> sample;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sample.reset();
    const auto t0 = Clock::now();
    sample = set_up(cx, reference, exec, off);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const bool exact_peak = reset_peak_rss();
  std::vector<double> job_s;
  std::optional<JobResult> last;
  std::uint64_t first_topn = 0;
  std::uint64_t first_locate = 0;
  const auto timed0 = Clock::now();
  do {
    last.reset();
    last = run_job(cx, *sample, exec, off);
    job_s.push_back(last->job_s);
    if (job_s.size() == 1) {
      first_topn = last->topn_digest;
      first_locate = last->locate_digest;
      check_recorded_digest(cx, *last);
    } else if (last->topn_digest != first_topn ||
               last->locate_digest != first_locate) {
      throw GateError("two jobs of one run ranked differently");
    }
  } while (seconds_between(timed0, Clock::now()) < cx.args.seconds);
  // The job's peak: the online week's footprint is mostly the load
  // generator's request plans, not the program.
  const double peak = static_cast<double>(peak_rss_bytes());
  const OnlineResult online =
      run_online_week(last->state, online_spec(cx), exec, off);

  // Sample counts behind the result's medians and percentiles.
  std::cout << "samples {\"setups\": " << setup_s.size()
            << ", \"jobs\": " << job_s.size()
            << ", \"score\": " << online.score_samples
            << ", \"ingest\": " << online.ingest_samples
            << ", \"topn\": " << online.topn_samples
            << ", \"dispatches_located\": " << last->dispatches_ranked
            << ", \"peak_rss_exact\": " << (exact_peak ? "true" : "false")
            << "}" << std::endl;
  const std::uint64_t attempted = job_s.size() + online.nominal.sent;
  const std::uint64_t failed = online.nominal.failed;
  print_result(
      attempted, failed,
      {{"setup_s", {median(setup_s), "s"}},
       {"job_s", {median(job_s), "s"}},
       {"peak_rss_bytes", {peak, "bytes"}},
       {"tests_to_locate", {last->tests_to_locate, "tests"}}});
  return 0;
}

/// Direct (no wire) SCORE latency from one caller, and the micro-batch
/// coalescing ratio with `threads` concurrent callers.
std::pair<double, double> direct_score_probe(ServingState& state,
                                             const exec::ExecContext& exec,
                                             std::size_t threads,
                                             Tracer& tracer) {
  serve::ServiceConfig cfg;
  cfg.exec = exec;
  serve::ScoringService service(*state.store, *state.registry, cfg);
  const auto n = static_cast<dslsim::LineId>(state.tables->n_lines());
  std::vector<double> us;
  {
    const Span span(tracer, "serve.score_direct");
    for (dslsim::LineId i = 0; i < 2000; ++i) {
      const dslsim::LineId line = (i * 7919U) % n;
      const auto t0 = Clock::now();
      const serve::ServeScore s = service.score(line);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      if (!s.valid) throw GateError("direct score of a replayed line invalid");
    }
  }
  const auto before = service.batch_stats();
  {
    const Span span(tracer, "serve.score_concurrent");
    std::atomic<bool> failed{false};
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < threads; ++t) {
      callers.emplace_back([&, t] {
        try {
          for (dslsim::LineId i = 0; i < 2000; ++i) {
            if (!service.score(static_cast<dslsim::LineId>(
                                   (i * 104729U + t) % n))
                     .valid) {
              failed.store(true);
            }
          }
        } catch (...) {
          failed.store(true);
        }
      });
    }
    for (auto& c : callers) c.join();
    if (failed.load()) throw GateError("a concurrent direct score failed");
  }
  const auto after = service.batch_stats();
  const double batches = static_cast<double>(after.batches - before.batches);
  const double requests = static_cast<double>(after.requests - before.requests);
  return {percentile(us, 0.5), batches > 0 ? requests / batches : 0.0};
}

/// Line-weeks the two streamed predictor saves sweep: pass 1 through
/// `pass1_through`, pass 2 through the last training week.
std::uint64_t save_line_weeks(std::uint32_t lines, int pass1_through) {
  const JobWeeks w;
  return static_cast<std::uint64_t>(lines) *
         static_cast<std::uint64_t>((pass1_through + 1) + (w.train_to + 1));
}

int run_traced(const Context& cx) {
  const exec::ExecContext exec(cx.threads);
  Tracer tracer(true);
  constexpr int kSetupRun = 0;
  constexpr int kJobRun = 1;
  constexpr int kSerialRun = 2;
  const std::uint64_t reference =
      materialized_topn_digest(sample_spec(cx), exec);

  tracer.set_run(kSetupRun, "setup");
  const Models sample = set_up(cx, reference, exec, tracer);

  // Untraced job first: the reference for the tracing overhead.
  tracer.set_enabled(false);
  double untraced_s = 0.0;
  std::uint64_t topn = 0;
  std::uint64_t locate = 0;
  {
    const JobResult r = run_job(cx, sample, exec, tracer);
    untraced_s = r.job_s;
    topn = r.topn_digest;
    locate = r.locate_digest;
    check_recorded_digest(cx, r);
  }
  tracer.set_enabled(true);
  tracer.set_run(kJobRun, "job");
  std::map<std::string, double> m;
  OnlineResult online;
  ClusterResult cluster;
  double direct_p50_us = 0.0;
  double batch_mean = 0.0;
  double bare_sweep_s = 0.0;
  std::uint64_t bare_line_weeks = 0;
  {
    JobResult r = run_job(cx, sample, exec, tracer);
    if (r.topn_digest != topn || r.locate_digest != locate) {
      throw GateError("traced job ranked differently from the untraced one");
    }
    m["job_s"] = r.job_s;
    // The score Saturday does not train: its training shape is the
    // set-up's sample predictor.
    const TrainStats& train = cx.workload.retrain ? r.train : sample.stats;
    m["features.rows"] = static_cast<double>(train.rows);
    m["features.cols"] = static_cast<double>(train.cols);
    m["features.artefact_bytes"] = static_cast<double>(train.artefact_bytes);
    m["core.selected_features"] = static_cast<double>(train.selected_features);
    m["core.dispatches_ranked"] = static_cast<double>(r.dispatches_ranked);
    m["core.precision_at_n"] = r.precision_at_n;
    m["spatial.findings"] = static_cast<double>(r.spatial_findings);
    m["serve.ingested_rows"] = static_cast<double>(r.ingested_rows);
    m["n_lines"] = static_cast<double>(r.state.tables->n_lines());
    {
      // Bare sweep: the simulator alone, through the same weeks the job
      // streams, into a no-op sink.
      const JobWeeks w;
      const dslsim::Simulator sim([&] {
        dslsim::SimConfig c;
        c.seed = cx.args.seed;
        c.topology.n_lines = cx.workload.lines;
        return c;
      }());
      const Span span(tracer, "dslsim.bare_sweep");
      const auto t0 = Clock::now();
      sim.stream_weeks(*r.state.tables, exec, [](const dslsim::WeekChunk&) {},
                       w.score_week + 1);
      bare_sweep_s = seconds_between(t0, Clock::now());
      bare_line_weeks = static_cast<std::uint64_t>(cx.workload.lines) *
                        static_cast<std::uint64_t>(w.score_week + 2);
    }
    std::tie(direct_p50_us, batch_mean) = direct_score_probe(
        r.state, exec, std::min<std::size_t>(4, cx.threads), tracer);
    // A shorter nominal phase than the untraced run's: the traced run
    // also times two more jobs (one at 1 thread), the rate ladder and
    // the cluster leg, and must end within its time limit.
    OnlineSpec spec = online_spec(cx);
    spec.nominal_seconds = std::min(4.0, cx.args.seconds);
    online = run_online_week(r.state, spec, exec, tracer);
    ClusterSpec cluster_spec;
    cluster_spec.seed = cx.args.seed;
    cluster_spec.seconds = std::min(3.0, cx.args.seconds);
    cluster_spec.perturb_topn = cx.args.perturb == "topn";
    cluster = run_cluster_week(r.state, cluster_spec, exec, tracer);
  }
  tracer.set_run(kSerialRun, "serial");
  {
    const exec::ExecContext serial(1);
    const JobResult r = run_job(cx, sample, serial, tracer);
    if (r.topn_digest != topn || r.locate_digest != locate) {
      throw GateError("the 1-thread job ranked differently");
    }
  }

  // Per-layer metrics from the job run; the training spans of the
  // score Saturday come from the set-up's sample predictor and locator.
  const auto total = [&](const std::string& name) {
    const double job = tracer.total(name, kJobRun);
    return tracer.count(name, kJobRun) > 0 ? job
                                           : tracer.total(name, kSetupRun);
  };
  const bool trained_in_setup = !cx.workload.retrain;
  const int train_run = trained_in_setup ? kSetupRun : kJobRun;
  const double line_weeks_per_s =
      bare_sweep_s > 0 ? static_cast<double>(bare_line_weeks) / bare_sweep_s
                       : 0.0;
  const double encode_self_s =
      tracer.self_total("features.stream_save_base", train_run) +
      tracer.self_total("features.stream_save_full", train_run) -
      static_cast<double>(
          trained_in_setup
              ? save_line_weeks(kSampleLines, JobWeeks{}.score_week)
              : save_line_weeks(cx.workload.lines,
                                JobWeeks{}.score_week + 1)) /
          line_weeks_per_s;
  const double replay_s = total("serve.replay");
  const double top_n_s = tracer.total("serve.top_n", kJobRun);
  const double rank_s = tracer.total("core.locator_rank", kJobRun);
  const double dispatches = m["core.dispatches_ranked"];

  std::vector<std::pair<std::string, Metric>> out = {
      {"dslsim.build_tables_s", {tracer.total("dslsim.build_tables", kJobRun), "s"}},
      {"dslsim.stream_weeks_s", {bare_sweep_s, "s"}},
      {"dslsim.line_weeks_per_s", {line_weeks_per_s, "1/s"}},
      {"features.stream_save_base_s", {total("features.stream_save_base"), "s"}},
      {"features.stream_save_full_s", {total("features.stream_save_full"), "s"}},
      {"features.stream_save_locator_s", {total("features.stream_save_locator"), "s"}},
      {"features.dispatch_rows_s", {tracer.total("features.dispatch_rows", kJobRun), "s"}},
      {"features.encode_self_s", {encode_self_s, "s"}},
      {"features.rows", {m["features.rows"], "count"}},
      {"features.cols", {m["features.cols"], "count"}},
      {"features.artefact_bytes", {m["features.artefact_bytes"], "bytes"}},
      {"features.load_s", {total("features.load"), "s"}},
      {"core.plan_full_encoder_s", {total("core.plan_full_encoder"), "s"}},
      {"core.train_from_block_s", {total("core.train_from_block"), "s"}},
      {"core.selected_features", {m["core.selected_features"], "count"}},
      {"core.locator_train_s", {total("core.locator_train"), "s"}},
      {"core.locator_rank_us", {dispatches > 0 ? rank_s / dispatches * 1e6 : 0.0, "us"}},
      {"core.dispatches_ranked", {dispatches, "count"}},
      {"core.precision_at_n", {m["core.precision_at_n"], "ratio"}},
      {"serve.replay_s", {replay_s, "s"}},
      {"serve.ingest_rows_per_s", {replay_s > 0 ? m["serve.ingested_rows"] / replay_s : 0.0, "1/s"}},
      {"serve.top_n_s", {top_n_s, "s"}},
      {"serve.lines_scored_per_s", {top_n_s > 0 ? m["n_lines"] / top_n_s : 0.0, "1/s"}},
      {"serve.score_direct_p50_us", {direct_p50_us, "us"}},
      {"serve.batch_mean", {batch_mean, "ratio"}},
      {"spatial.analyze_store_s", {tracer.total("spatial.analyze_store", kJobRun), "s"}},
      {"spatial.findings", {m["spatial.findings"], "count"}},
      {"net.frames_in", {static_cast<double>(online.frames_in), "count"}},
      {"net.replies_out", {static_cast<double>(online.replies_out), "count"}},
      {"net.protocol_errors", {static_cast<double>(online.protocol_errors), "count"}},
      {"net.score_p50_ms", {online.score_p50_ms, "ms"}},
      {"net.score_p999_ms", {online.score_p999_ms, "ms"}},
      {"net.ingest_p999_ms", {online.ingest_p999_ms, "ms"}},
      {"net.topn_p50_ms", {online.topn_p50_ms, "ms"}},
      {"net.wire_overhead_p50_us", {online.score_p50_ms * 1e3 - direct_p50_us, "us"}},
      {"net.gen_late_p99_ms", {online.gen_late_p99_ms, "ms"}},
      {"net.nominal.sent", {static_cast<double>(online.nominal.sent), "count"}},
      {"net.nominal.succeeded", {static_cast<double>(online.nominal.succeeded), "count"}},
      {"net.nominal.failed", {static_cast<double>(online.nominal.failed), "count"}},
      {"net.max_score_rate_per_s", {online.max_score_rate, "req/s"}},
      {"net.ladder.sent", {static_cast<double>(online.ladder.sent), "count"}},
      {"net.ladder.succeeded", {static_cast<double>(online.ladder.succeeded), "count"}},
      {"net.ladder.failed", {static_cast<double>(online.ladder.failed), "count"}},
      {"cluster.lines", {static_cast<double>(cluster.lines), "count"}},
      {"cluster.score_p50_ms", {cluster.score_p50_ms, "ms"}},
      {"cluster.score_p99_ms", {cluster.score_p99_ms, "ms"}},
      {"cluster.ingest_p99_ms", {cluster.ingest_p99_ms, "ms"}},
      {"cluster.topn_merge_ms", {cluster.topn_merge_ms, "ms"}},
      {"cluster.replica_writes_per_ingest", {cluster.replica_writes_per_ingest, "ratio"}},
      {"cluster.failovers", {static_cast<double>(cluster.failovers), "count"}},
      {"cluster.retries", {static_cast<double>(cluster.retries), "count"}},
      {"cluster.sent", {static_cast<double>(cluster.sent), "count"}},
      {"cluster.failed", {static_cast<double>(cluster.failed), "count"}},
      {"exec.threads", {static_cast<double>(cx.threads), "count"}},
  };
  // exec.speedup.<stage>: the stage's time at 1 thread over its time at
  // exec.threads; 0 when the workload's job has no such stage.
  for (const char* stage :
       {"dslsim.build_tables", "dslsim.stream_weeks",
        "features.stream_save_base", "features.stream_save_full",
        "features.stream_save_locator", "core.plan_full_encoder",
        "core.train_from_block", "core.locator_train", "serve.replay",
        "serve.top_n", "spatial.analyze_store", "core.locator_rank"}) {
    const double par = tracer.total(stage, kJobRun);
    const double ser = tracer.total(stage, kSerialRun);
    const std::string short_name = std::strchr(stage, '.') + 1;
    out.push_back({"exec.speedup." + short_name,
                   {par > 0 && ser > 0 ? ser / par : 0.0, "ratio"}});
  }
  out.push_back({"trace.overhead_frac", {m["job_s"] / untraced_s - 1.0, "ratio"}});

  const std::filesystem::path trace_path =
      std::filesystem::path(cx.args.out_dir) /
      ("trace-" + cx.workload.name + "-seed" + std::to_string(cx.args.seed) +
       ".json");
  {
    std::ofstream os(trace_path);
    tracer.write_chrome_json(os);
    if (!os) throw std::runtime_error("cannot write " + trace_path.string());
  }
  std::cerr << "perfbench: trace written to " << trace_path.string() << '\n';
  tracer.write_self_time_table(std::cerr);

  print_result(3 + online.nominal.sent + online.ladder.sent + cluster.sent,
               online.nominal.failed + online.ladder.failed + cluster.failed,
               out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Context cx;
  cx.args = parse_args(argc, argv);
  const auto it = std::find_if(
      workloads().begin(), workloads().end(),
      [&](const Workload& w) { return w.name == cx.args.workload; });
  if (it == workloads().end()) usage("unknown workload " + cx.args.workload);
  cx.workload = *it;
  if (cx.args.lines.has_value()) cx.workload.lines = *cx.args.lines;
  cx.threads =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   nproc(), std::thread::hardware_concurrency()));
  cx.scratch = (std::filesystem::path(cx.args.out_dir) /
                ("tmp-" + std::to_string(::getpid())))
                   .string();
  int rc = 1;
  try {
    std::filesystem::create_directories(cx.scratch);
    print_stamp(cx.args, cx.threads);
    rc = cx.args.trace == 1 ? run_traced(cx) : run_untraced(cx);
  } catch (const GateError& e) {
    std::cerr << "perfbench: GATE FAILED: " << e.what() << '\n';
    rc = 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(cx.scratch, ec);
  return rc;
}
