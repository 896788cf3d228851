// The repo benchmark: runs one workload through core::RunTraining for a
// fixed time, checks every job's output and prints the metrics as the last
// line of standard output, one JSON object. See README.md.
//
//   rna_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 when every output check passed, 1 when one failed, 2 on bad
// arguments.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "replay.hpp"
#include "rna/core/rna.hpp"
#include "rna/obs/session.hpp"
#include "stats.hpp"
#include "trace_summary.hpp"
#include "workloads.hpp"

namespace rna::perfbench {
namespace {

/// Timed jobs per run, whatever --seconds says: medians need a few.
constexpr std::size_t kMinJobs = 3;
/// Per-track span capacity of a traced job (no span may be overwritten).
constexpr std::size_t kTraceCapacity = 1 << 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One training job and what its output checks found.
struct Job {
  train::TrainResult result;
  std::size_t world = 0;
  std::size_t batch_size = 0;
  bool lockstep = false;
  double setup_s = 0.0;
  double time_to_target_s = 0.0;
  std::vector<std::string> failures;

  double SamplesPerSecond() const {
    return Ratio(static_cast<double>(result.gradients_applied * batch_size),
                 result.wall_seconds);
  }
  double RoundsPerSecond() const {
    return Ratio(static_cast<double>(result.rounds), result.wall_seconds);
  }
};

/// Job `index` of a run draws its inputs from this seed.
std::uint64_t JobSeed(std::uint64_t seed, std::size_t index) {
  return seed * 1000003 + index;
}

/// Output checks: finite loss and params, the target reached, a
/// contributor in every round, no worker lost, and no more gradients
/// applied than were computed.
void Check(const Workload& w, bool check_target, Job& job) {
  const train::TrainResult& r = job.result;
  auto fail = [&](const std::string& what) { job.failures.push_back(what); };
  if (!std::isfinite(r.final_loss)) fail("non-finite final loss");
  for (float p : r.final_params) {
    if (!std::isfinite(p)) {
      fail("non-finite parameter");
      break;
    }
  }
  if (r.final_params.empty()) fail("no final parameters");
  if (r.rounds == 0) fail("no rounds ran");
  for (std::size_t c : r.round_contributors) {
    if (c == 0) {
      fail("a round had no contributor");
      break;
    }
  }
  if (r.live_workers != w.config.world) {
    fail("live_workers " + std::to_string(r.live_workers) + " < world " +
         std::to_string(w.config.world));
  }
  std::size_t iterations = 0;
  for (const train::WorkerTimeBreakdown& b : r.breakdown) {
    iterations += b.iterations;
  }
  if (r.gradients_applied > iterations) {
    fail("gradients_applied " + std::to_string(r.gradients_applied) +
         " > iterations " + std::to_string(iterations));
  }
  job.time_to_target_s = -1.0;
  for (const train::CurvePoint& p : r.curve) {
    if (p.loss <= w.target_loss) {
      job.time_to_target_s = p.time;
      break;
    }
  }
  if (check_target && job.time_to_target_s < 0.0) {
    double best = INFINITY;
    for (const train::CurvePoint& p : r.curve) best = std::min(best, p.loss);
    fail("target loss " + std::to_string(w.target_loss) +
         " not reached (best " + std::to_string(best) + ")");
  }
}

/// Runs one job. `world` overrides the workload's world size when non-zero;
/// with a session the job is traced and folded into `totals`.
Job RunJob(const Options& opt, std::uint64_t seed, std::size_t world,
           obs::Session* session = nullptr, TraceTotals* totals = nullptr) {
  Job job;
  const Clock::time_point start = Clock::now();
  try {
    const Workload w = MakeWorkload(opt.workload, seed, world);
    job.world = w.config.world;
    job.batch_size = w.config.batch_size;
    job.lockstep = w.config.lockstep;
    const double build_s = SecondsSince(start);
    const double call_start = session ? session->Trace().Now() : 0.0;
    const Clock::time_point call = Clock::now();
    job.result = core::RunTraining(w.config, w.scenario.factory,
                                   w.scenario.train, w.scenario.val);
    job.setup_s = build_s + SecondsSince(call) - job.result.wall_seconds;
    Check(w, world == 0, job);
    if (totals != nullptr) {
      totals->Add(*session, job.result, w.config.world, call_start,
                  w.config.protocol == train::Protocol::kRnaHierarchical);
    }
  } catch (const std::exception& e) {
    job.failures.push_back(std::string("threw: ") + e.what());
  }
  std::fprintf(stderr,
               "job seed=%llu world=%zu: wall %.3fs setup %.4fs rounds %zu "
               "samples/s %.0f ttt %.4fs final_loss %.4f%s\n",
               static_cast<unsigned long long>(seed), world,
               job.result.wall_seconds, job.setup_s, job.result.rounds,
               job.SamplesPerSecond(), job.time_to_target_s,
               job.result.final_loss, job.failures.empty() ? "" : " FAILED");
  for (const std::string& f : job.failures) {
    std::fprintf(stderr, "  check failed: %s\n", f.c_str());
  }
  return job;
}

/// Peak resident set of the process so far, in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// FNV-1a over the parameter bytes: a short fingerprint for the log.
std::string Digest(const std::vector<float>& params) {
  std::uint64_t h = 1469598103934665603ull;
  for (float p : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &p, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xffu)) * 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  MetricMap metrics;

  void Count(const Job& job) {
    ++attempted;
    if (!job.failures.empty()) {
      ++failed;
      correct = false;
    }
  }
};

/// End-to-end run: one warm-up job (dropped, except its set-up time and,
/// under lockstep, its parameters), then timed jobs until --seconds pass.
Outcome RunEndToEnd(const Options& opt) {
  Outcome out;
  const Job warm = RunJob(opt, JobSeed(opt.seed, 0), 0);
  // The memory one job needs in a fresh process; later jobs only add the
  // allocator's history.
  const double peak_rss_mb = PeakRssMb();
  out.Count(warm);
  std::vector<Job> jobs;
  const Clock::time_point start = Clock::now();
  while (jobs.size() < kMinJobs || SecondsSince(start) < opt.seconds) {
    jobs.push_back(RunJob(opt, JobSeed(opt.seed, jobs.size()), 0));
    out.Count(jobs.back());
  }
  // Lockstep training is a pure function of its seeds: the warm-up job and
  // job 0 share one and must agree bit for bit.
  if (warm.lockstep &&
      warm.result.final_params != jobs[0].result.final_params) {
    std::fprintf(stderr, "check failed: lockstep replay not bitwise equal\n");
    out.correct = false;
  }
  std::printf("info: workload %s jobs %zu params %s\n", opt.workload.c_str(),
              jobs.size(), Digest(jobs[0].result.final_params).c_str());

  std::vector<double> ttt, sps, rps, loss, setup{warm.setup_s};
  for (const Job& j : jobs) {
    ttt.push_back(j.time_to_target_s);
    sps.push_back(j.SamplesPerSecond());
    rps.push_back(j.RoundsPerSecond());
    loss.push_back(j.result.final_loss);
    setup.push_back(j.setup_s);
  }
  out.metrics["time_to_target_s"] = {Median(ttt), "s"};
  out.metrics["samples_per_s"] = {Median(sps), "samples/s"};
  out.metrics["rounds_per_s"] = {Median(rps), "1/s"};
  out.metrics["final_loss"] = {Median(loss), "nats"};
  out.metrics["setup_s"] = {Median(setup), "s"};
  out.metrics["peak_rss_mb"] = {peak_rss_mb, "MiB"};
  return out;
}

/// Traced run: layer replays, then pairs of untraced and traced jobs on the
/// same seed until --seconds pass, then one single-worker job.
Outcome RunTraced(const Options& opt) {
  Outcome out;
  const Job warm = RunJob(opt, JobSeed(opt.seed, 0), 0);
  out.Count(warm);
  const Clock::time_point start = Clock::now();
  out.metrics = RunReplays(MakeWorkload(opt.workload, JobSeed(opt.seed, 0)));

  TraceTotals totals;
  std::vector<double> plain_sps, traced_sps;
  for (std::size_t i = 0;
       i < kMinJobs - 1 || SecondsSince(start) < opt.seconds; ++i) {
    const Job plain = RunJob(opt, JobSeed(opt.seed, i), 0);
    out.Count(plain);
    plain_sps.push_back(plain.SamplesPerSecond());
    obs::Session session(kTraceCapacity);
    const Job traced = RunJob(opt, JobSeed(opt.seed, i), 0, &session, &totals);
    out.Count(traced);
    traced_sps.push_back(traced.SamplesPerSecond());
  }
  const Job single = RunJob(opt, JobSeed(opt.seed, 0), 1);
  out.Count(single);

  totals.Report(out.metrics);
  const auto world = static_cast<double>(warm.world);
  out.metrics["obs.trace_overhead"] = {
      1.0 - Ratio(Median(traced_sps), Median(plain_sps)), "1"};
  out.metrics["core.scaling_efficiency"] = {
      Ratio(Median(plain_sps), world * single.SamplesPerSecond()), "1"};

  const std::vector<double>& groups = totals.Groups();
  for (double g : groups) {
    if (g != groups.front()) {
      std::fprintf(stderr, "check failed: speed groups differ across jobs\n");
      out.correct = false;
    }
  }
  if (totals.SpansDropped() > 0) {
    std::fprintf(stderr, "check failed: %.0f spans overwritten\n",
                 totals.SpansDropped());
    out.correct = false;
  }
  return out;
}

void PrintResult(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  const char* sep = "";
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "rna_perfbench: %s\nusage: rna_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::string(value) == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& n : WorkloadNames()) known |= n == opt.workload;
  if (!known) return Usage("unknown or missing --workload");
  if (!(opt.seconds > 0.0)) return Usage("--seconds must be positive");

  const Outcome out = opt.trace ? RunTraced(opt) : RunEndToEnd(opt);
  std::fflush(stderr);
  PrintResult(out);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace rna::perfbench

int main(int argc, char** argv) { return rna::perfbench::Main(argc, argv); }
