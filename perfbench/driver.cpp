// xtv benchmark driver.
//
// Builds one workload from a seed, times the calls into each layer's
// public functions, checks that the run's findings are correct, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   xtv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--commit SHA]
//
// Workloads (perfbench/METRICS.md has the full definitions):
//   audit_flat_serial     chip_audit defaults: 800 nets, alignment on,
//                         exact 64 MiB model cache, 1 thread, batch width 1
//   audit_tiled_parallel  replicated rows, alignment off, exact cache,
//                         4 threads (at most nproc), batch width 8
//   serve_closed_loop     a forked ServeDaemon (max_running 2, 2 shard
//                         processes per job) fed by two closed-loop clients
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 is a
// separate run that records spans around the public calls into each layer
// (plus the VictimPipeline stage hook) and reports the per-layer metrics;
// the spans are written to .bench_out/trace_<workload>_<seed>.json at exit.
// --smoke shrinks every workload to toy size for the driver's own test.
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/glitch_analyzer.h"
#include "core/journal.h"
#include "core/pipeline.h"
#include "core/verifier.h"
#include "core/wire.h"
#include "mor/model_cache.h"
#include "mor/reduced_sim.h"
#include "mor/sympvl.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/job.h"
#include "util/workspace.h"

#ifndef XTV_BENCH_BUILD_TYPE
#define XTV_BENCH_BUILD_TYPE "unknown"
#endif

using namespace xtv;

namespace {

// --- clocks and process accounting -------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double rusage_cpu_s(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double self_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double children_cpu_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }

double peak_rss_mb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it. Below 21
/// samples that percentile is not above the median, so the maximum stands
/// in and `beyond` says how many samples lie past it (zero).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 20 ? n - 11 : n - 1;
  t.value = v[idx];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- arguments -----------------------------------------------------------

/// Cell cache, serve work dirs and traces, relative to the working directory
/// (the checkout root).
const std::string kOutDir = ".bench_out";
const std::string kCellCache = kOutDir + "/xtv_cells.cache";

struct Args {
  std::string workload;
  std::uint64_t seed = 1999;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string commit = "unknown";  ///< recorded in the context line
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "xtv_perfbench: %s\nusage: xtv_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--smoke] [--commit SHA]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " requires a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value);
      else if (flag == "--commit") a.commit = value;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload != "audit_flat_serial" &&
      a.workload != "audit_tiled_parallel" &&
      a.workload != "serve_closed_loop")
    usage("unknown workload \"" + a.workload + "\"");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

// --- metrics and correctness bookkeeping --------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< failed correctness checks
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

// --- spans ---------------------------------------------------------------

/// In-memory span recorder: name, start, end, parent span, and the victim
/// net as the request id (-1 outside per-victim work). Written out once,
/// at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    long long request = -1;
  };

  long open(const std::string& name, long parent = -1,
            long long request = -1) {
    spans_.push_back({name, now_s(), 0.0, parent, request});
    return static_cast<long>(spans_.size()) - 1;
  }
  void close(long id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }

  /// Runs `fn` inside a span and returns its duration.
  template <typename Fn>
  double time(const std::string& name, Fn&& fn, long parent = -1,
              long long request = -1) {
    const long id = open(name, parent, request);
    fn();
    close(id);
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  // VictimPipeline::stage_trace support: a stage span runs from one stage
  // entry to the next (or to the end of the victim).
  void begin_victim(std::size_t victim, long parent) {
    victim_span_ = open("pipeline.victim", parent,
                        static_cast<long long>(victim));
    stage_span_ = -1;
  }
  void stage(std::size_t victim, PipelineStage stage) {
    if (stage_span_ >= 0) close(stage_span_);
    std::string name = std::string("pipeline.") + pipeline_stage_name(stage);
    std::replace(name.begin(), name.end(), '-', '_');
    stage_span_ = open(name, victim_span_, static_cast<long long>(victim));
  }
  void end_victim() {
    if (stage_span_ >= 0) close(stage_span_);
    close(victim_span_);
    stage_span_ = victim_span_ = -1;
  }

  /// Summed duration of every span called `name`.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) sum += s.end - s.start;
    return sum;
  }

  /// Summed duration of every stage span (children of victim spans).
  double stage_total(long first_span) const {
    double sum = 0.0;
    for (std::size_t i = static_cast<std::size_t>(first_span);
         i < spans_.size(); ++i)
      if (spans_[i].name.rfind("pipeline.", 0) == 0 &&
          spans_[i].name != "pipeline.victim" &&
          spans_[i].name != "pipeline.pass")
        sum += spans_[i].end - spans_[i].start;
    return sum;
  }

  /// kBuildCluster entries beyond the two every analyzed victim makes
  /// (spec build, then the first attempt): ladder-rung re-entries.
  std::size_t retry_entries() const {
    std::map<long, std::size_t> per_victim;
    for (const Span& s : spans_)
      if (s.name == "pipeline.build_cluster") ++per_victim[s.parent];
    std::size_t extra = 0;
    for (const auto& [victim_span, n] : per_victim)
      if (n > 2) extra += n - 2;
    return extra;
  }

  void write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"parent\":%ld,\"request\":%lld}%s\n",
                   i, s.name.c_str(), s.start - origin, s.end - origin,
                   s.parent, s.request, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
  long victim_span_ = -1;
  long stage_span_ = -1;
};

// --- findings digest -----------------------------------------------------

/// Normalized journal encoding: cpu_seconds masked (the one legitimately
/// nondeterministic field), and the SPICE cross-audit fields masked so a
/// reference pass that also audits compares equal to an unaudited run.
std::string normalized_encoding(const JournalRecord& record) {
  JournalRecord copy = record;
  copy.finding.cpu_seconds = 0.0;
  copy.finding.audited = false;
  copy.finding.audit_pass = false;
  copy.finding.audit_peak_err = 0.0;
  copy.finding.audit_time_err = 0.0;
  return journal_encode(copy);
}

using Records = std::map<std::size_t, JournalRecord>;

std::uint64_t findings_digest(const Records& records) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [net, rec] : records) {
    for (unsigned char ch : normalized_encoding(rec) + "\n") {
      h ^= ch;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::size_t count_status(const Records& records, FindingStatus status) {
  std::size_t n = 0;
  for (const auto& [net, rec] : records)
    if (rec.finding.status == status) ++n;
  return n;
}

bool mor_status(FindingStatus s) {
  return s == FindingStatus::kAnalyzed ||
         s == FindingStatus::kAnalyzedAfterRetry ||
         s == FindingStatus::kCertified;
}

// --- workload definitions ------------------------------------------------

struct Workload {
  DspChipOptions chip;
  VerifierOptions options;
};

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

/// chip_audit's defaults (examples/chip_audit.cpp), which JobSpec's
/// defaults mirror.
VerifierOptions chip_audit_options() { return serve::JobSpec().options; }

// The audit designs keep chipgen's default seed (1999, the ROADMAP's
// reference chip): across chipgen seeds the 800-net design's work varies
// by more than a quarter, which would drown every regression bound. The
// workload seed drives the SPICE cross-audit lottery instead.
Workload flat_workload(const Args& a) {
  Workload w;
  w.chip.net_count = a.smoke ? 60 : 800;
  w.options = chip_audit_options();
  return w;
}

Workload tiled_workload(const Args& a) {
  Workload w;
  const std::size_t rows = a.smoke ? 2 : 4;
  w.chip.replicate_rows = rows;
  w.chip.tracks = 8 * rows;
  w.chip.net_count = a.smoke ? 64 : 800;
  w.options = chip_audit_options();
  w.options.glitch.align_aggressors = false;
  w.options.threads = std::min<std::size_t>(4, nproc());
  w.options.batch_width = 8;
  return w;
}

struct ServeShape {
  std::size_t nets = 200;
  std::size_t clients = 2;
  std::size_t max_running = 2;
  std::size_t processes = 2;
  std::size_t max_jobs_per_client = 0;  ///< 0 = until the window closes
};

ServeShape serve_shape(const Args& a) {
  ServeShape s;
  if (a.smoke) {
    s.nets = 60;
    s.max_jobs_per_client = 1;
  }
  return s;
}

/// Audit lottery fraction that samples about a dozen victims.
double audit_fraction_for(std::size_t candidates) {
  return candidates > 0
             ? std::min(1.0, 12.0 / static_cast<double>(candidates))
             : 0.0;
}

// --- set-up: cells -> chipgen -> extract -> pruning ----------------------

struct Env {
  Technology tech = Technology::default_250nm();
  CellLibrary library{tech};
  CharacterizedLibrary chars{library};
  Extractor extractor{tech};
};

struct Bench {
  std::unique_ptr<Env> env;
  ChipDesign design;
  std::vector<NetSummary> summaries;
  PruneResult pruned;
  std::unique_ptr<ChipVerifier> verifier;
};

struct SetupTimes {
  double cells = 0.0, chipgen = 0.0, summaries = 0.0, prune = 0.0,
         total = 0.0;
};

/// Characterizes every library master once per checkout and persists the
/// models, so each timed set-up loads a warm cache.
void warm_cell_cache() {
  Env env;
  const std::size_t loaded = env.chars.load(kCellCache);
  if (loaded >= env.library.size()) return;
  for (std::size_t i = 0; i < env.library.size(); ++i) {
    try {
      env.chars.model(env.library.at(i).name());
    } catch (const std::exception&) {
      // A master whose characterization fails is characterized (and
      // fails) lazily in the run that uses it, as in chip_audit.
    }
  }
  env.chars.save(kCellCache);
}

std::unique_ptr<Bench> set_up(const Workload& w, SetupTimes* t,
                              Tracer* tracer) {
  auto b = std::make_unique<Bench>();
  auto span = [&](const char* name, auto&& fn) {
    if (tracer) return tracer->time(name, fn);
    const double t0 = now_s();
    fn();
    return now_s() - t0;
  };
  const double t0 = now_s();
  t->cells = span("cells.load", [&] {
    b->env = std::make_unique<Env>();
    b->env->chars.load(kCellCache);
  });
  t->chipgen = span("chipgen.generate", [&] {
    b->design = generate_dsp_chip(b->env->library, w.chip);
  });
  t->summaries = span("extract.summaries", [&] {
    b->summaries =
        chip_net_summaries(b->design, b->env->extractor, b->env->chars);
  });
  t->prune = span("pruning.prune",
                  [&] {
                    b->pruned = prune_couplings(b->summaries, w.options.prune);
                  });
  t->total = now_s() - t0;
  b->verifier =
      std::make_unique<ChipVerifier>(b->env->extractor, b->env->chars);
  return b;
}

std::vector<std::size_t> candidates_of(const Bench& b,
                                       const VerifierOptions& options) {
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < b.design.nets.size(); ++v) {
    if (b.pruned.retained[v].empty()) continue;
    if (options.latch_inputs_only && !b.design.nets[v].latch_input) continue;
    out.push_back(v);
  }
  return out;
}

// --- verifier: the timed end-to-end call ---------------------------------

struct VerifyRun {
  VerificationReport report;
  Records records;
  std::size_t duplicates = 0;
  double wall = 0.0;
  double cpu = 0.0;
  double first_record = -1.0;
};

VerifyRun run_verify(Bench& b, VerifierOptions options) {
  VerifyRun out;
  std::mutex mu;
  double t0 = 0.0;
  options.on_record = [&](const JournalRecord& rec) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu);
    if (out.first_record < 0.0) out.first_record = t - t0;
    if (!out.records.emplace(rec.finding.net, rec).second) ++out.duplicates;
  };
  const double cpu0 = self_cpu_s();
  t0 = now_s();
  out.report = b.verifier->verify(b.design, options);
  out.wall = now_s() - t0;
  out.cpu = self_cpu_s() - cpu0;
  return out;
}

/// Time to first finding of an audit: verify() start to its first settled
/// record, over `count` probes capped at one victim (max_victims runs the
/// serial path up to the first record).
std::vector<double> first_finding_probes(Bench& b, VerifierOptions options,
                                         int count) {
  options.max_victims = 1;
  options.threads = 1;
  options.batch_width = 1;
  std::vector<double> out;
  for (int i = 0; i < count; ++i)
    out.push_back(run_verify(b, options).first_record);
  return out;
}

/// Exactly-once accounting and the no-kFailed rule for one verify() run.
void check_verify(const VerifyRun& run, Result* r, const std::string& tag) {
  const VerificationReport& rep = run.report;
  r->expect(rep.victims_eligible == rep.victims_analyzed +
                                        rep.victims_screened_out +
                                        rep.victims_fallback +
                                        rep.victims_failed,
            tag + ": eligible != analyzed + screened + fallback + failed");
  r->expect(run.records.size() == rep.victims_eligible,
            tag + ": settled records != eligible victims");
  r->expect(run.duplicates == 0, tag + ": a victim settled twice");
  const std::size_t failed = count_status(run.records, FindingStatus::kFailed);
  r->expect(failed == 0 && rep.victims_failed == 0, tag + ": kFailed finding");
  r->attempted += rep.victims_eligible;
  r->failed += failed + run.duplicates +
               (rep.victims_eligible > run.records.size()
                    ? rep.victims_eligible - run.records.size()
                    : 0);
}

// --- pipeline: the serial reference / traced pass -------------------------

struct PassRun {
  Records records;
  std::size_t duplicates = 0;
  double wall = 0.0;
  ModelCache::Stats cache{};
  workspace::Stats ws{};  ///< delta over the pass
  long first_span = 0;
};

/// Serial pass driving VictimPipeline over `victims` (candidates, in net
/// order), with the same context verify() builds (core/verifier.cpp,
/// Prepared::Impl). With a tracer, the pipeline's stage_trace hook records
/// one span per stage.
PassRun pipeline_pass(Bench& b, const VerifierOptions& options,
                      const std::vector<std::size_t>& victims,
                      Tracer* tracer) {
  PassRun out;
  GlitchAnalyzer analyzer(b.env->extractor, b.env->chars);
  std::unique_ptr<ModelCache> cache;
  if (options.model_cache_mb > 0.0)
    cache = std::make_unique<ModelCache>(
        static_cast<std::size_t>(options.model_cache_mb * 1024.0 * 1024.0));
  PipelineContext ctx;
  ctx.verifier = b.verifier.get();
  ctx.extractor = &b.env->extractor;
  ctx.chars = &b.env->chars;
  ctx.analyzer = &analyzer;
  ctx.design = &b.design;
  ctx.summaries = &b.summaries;
  ctx.pruned = &b.pruned;
  ctx.options = &options;
  ctx.model_cache = cache.get();
  if (tracer)
    ctx.stage_trace = [tracer](std::size_t v, PipelineStage s) {
      tracer->stage(v, s);
    };
  const VictimPipeline pipeline(ctx);

  const workspace::Stats ws0 = workspace::stats();
  long pass_span = -1;
  if (tracer) {
    pass_span = tracer->open("pipeline.pass");
    out.first_span = pass_span;
  }
  const double t0 = now_s();
  for (std::size_t v : victims) {
    if (tracer) tracer->begin_victim(v, pass_span);
    std::optional<JournalRecord> rec = pipeline.run(v, /*shed=*/false);
    if (tracer) tracer->end_victim();
    if (rec && !out.records.emplace(v, std::move(*rec)).second)
      ++out.duplicates;
  }
  out.wall = now_s() - t0;
  if (tracer) tracer->close(pass_span);
  const workspace::Stats ws1 = workspace::stats();
  out.ws.acquires = ws1.acquires - ws0.acquires;
  out.ws.pool_misses = ws1.pool_misses - ws0.pool_misses;
  if (cache) out.cache = cache->stats();
  return out;
}

/// SPICE cross-audit figures of a reference pass run with audit_fraction.
void add_audit_metrics(const Records& records, double vdd, Result* r) {
  std::size_t audited = 0, passed = 0;
  double worst = 0.0;
  for (const auto& [net, rec] : records) {
    if (!rec.finding.audited) continue;
    ++audited;
    if (rec.finding.audit_pass) ++passed;
    worst = std::max(worst, rec.finding.audit_peak_err);
  }
  r->expect(audited > 0, "SPICE cross-audit sampled no victim");
  r->add("audit_pass_frac", ratio(static_cast<double>(passed),
                                  static_cast<double>(audited)),
         "fraction");
  std::printf("audit: %zu sampled, %zu within tolerance, worst peak error "
              "%.6g mV (vdd %.2f V)\n",
              audited, passed, 1e3 * worst, vdd);
}

/// Per-layer SPICE cross-audit: about a dozen MOR findings, spread evenly
/// over the clusters, re-simulated on the golden engine with the options
/// the pipeline's own audit stage replays. Returns the worst peak error (V).
double spice_audit_sample(
    Bench& b, const VerifierOptions& options, std::uint64_t seed,
    const std::vector<std::size_t>& candidates,
    const std::vector<std::pair<VictimSpec, std::vector<AggressorSpec>>>&
        clusters,
    const Records& records, Tracer& tracer) {
  GlitchAnalyzer gold(b.env->extractor, b.env->chars);
  GlitchAnalysisOptions opts = options.glitch;
  opts.certify = false;
  const std::size_t step = std::max<std::size_t>(1, clusters.size() / 12);
  double worst = 0.0;
  const long root = tracer.open("spice.audit");
  for (std::size_t i = seed % step; i < clusters.size(); i += step) {
    const auto& [victim, aggressors] = clusters[i];
    const auto rec = records.find(candidates[i]);
    if (aggressors.empty() || rec == records.end() ||
        !mor_status(rec->second.finding.status))
      continue;
    GlitchResult res;
    tracer.time(
        "spice.analyze",
        [&] { res = gold.analyze_spice(victim, aggressors, opts); }, root,
        static_cast<long long>(candidates[i]));
    worst = std::max(worst, std::fabs(rec->second.finding.peak - res.peak));
  }
  tracer.close(root);
  return worst;
}

// --- glitch + mor: re-invoked stage calls ---------------------------------

struct StageCalls {
  double prepare = 0.0;       ///< prepare() with the workload's options
  double extract = 0.0;       ///< prepare() with alignment off
  double prepare_simulate = 0.0;
  double transient = 0.0;
  double measure = 0.0;
  double sympvl = 0.0;
  double diagonalize = 0.0;
  std::size_t victims = 0;
  std::size_t skipped = 0;  ///< victims whose rung-0 attempt throws
};

/// Re-invokes GlitchAnalyzer's staged calls and the raw SyMPVL/eigen
/// kernels on every eligible cluster, timing each call on its own. The
/// alignment-probe share is prepare() with alignment minus without.
StageCalls reinvoke_stages(
    Bench& b, const VerifierOptions& options,
    const std::vector<std::size_t>& candidates,
    const std::vector<std::pair<VictimSpec, std::vector<AggressorSpec>>>&
        clusters,
    Tracer& tracer) {
  StageCalls sc;
  GlitchAnalyzer analyzer(b.env->extractor, b.env->chars);
  std::unique_ptr<ModelCache> cache;
  if (options.model_cache_mb > 0.0)
    cache = std::make_unique<ModelCache>(
        static_cast<std::size_t>(options.model_cache_mb * 1024.0 * 1024.0));
  GlitchAnalysisOptions work = options.glitch;
  work.model_cache = cache.get();
  GlitchAnalysisOptions no_align = work;
  no_align.align_aggressors = false;
  const long root = tracer.open("glitch.reinvoke");
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const auto& [victim, aggressors] = clusters[i];
    if (aggressors.empty()) continue;
    const long long req = static_cast<long long>(candidates[i]);
    try {
      GlitchAnalyzer::PreparedCluster prepared;
      const double prep = tracer.time(
          "glitch.prepare",
          [&] { prepared = analyzer.prepare(victim, aggressors, work); },
          root, req);
      sc.prepare += prep;
      sc.extract += work.align_aggressors
                        ? tracer.time("glitch.extract",
                                      [&] {
                                        analyzer.prepare(victim, aggressors,
                                                         no_align);
                                      },
                                      root, req)
                        : prep;
      const GlitchAnalyzer::ReducedOutcome reduced =
          analyzer.reduce(prepared, work);
      std::optional<GlitchAnalyzer::SimulateSetup> setup;
      sc.prepare_simulate += tracer.time(
          "glitch.prepare_simulate",
          [&] {
            setup.emplace(analyzer.prepare_simulate(victim, aggressors,
                                                    prepared, reduced, work));
          },
          root, req);
      ReducedSimResult res;
      sc.transient += tracer.time(
          "mor.reduced_transient", [&] { res = setup->sim.run(setup->ropt); },
          root, req);
      sc.measure += tracer.time(
          "glitch.measure",
          [&] { analyzer.measure_reduced(*setup, res, 0.0); }, root, req);
      ReducedModel model;
      sc.sympvl += tracer.time(
          "mor.sympvl",
          [&] {
            model = sympvl_reduce(prepared.built.network, true, work.mor);
          },
          root, req);
      sc.diagonalize += tracer.time(
          "mor.diagonalize", [&] { diagonalize_reduced(model); }, root, req);
      ++sc.victims;
    } catch (const std::exception&) {
      ++sc.skipped;  // the pipeline's retry ladder handles these victims
    }
  }
  tracer.close(root);
  return sc;
}

// --- audit workloads -------------------------------------------------------

void run_audit_e2e(const Args& a, const Workload& w, Result* r) {
  // Set-up is timed nine times, in three bursts spread over the run so
  // that one slow stretch of the machine does not decide the median; the
  // last set-up of the first burst serves the run.
  std::vector<double> setups;
  auto setup_burst = [&] {
    std::unique_ptr<Bench> last;
    for (int i = 0; i < 3; ++i) {
      SetupTimes t;
      last.reset();
      last = set_up(w, &t, nullptr);
      setups.push_back(t.total);
    }
    return last;
  };
  std::unique_ptr<Bench> b = setup_burst();

  // Timed region: verify() at least twice (one 800-net flat iteration
  // outlasts the window, and a median of two halves its exposure to the
  // machine's drift), then while another iteration still fits in the
  // window; each iteration is checked and must reproduce the first digest.
  std::vector<double> walls, cpus, rates;
  VerifyRun first;
  std::uint64_t first_digest = 0;
  double peak_rss = 0.0;
  const double window_start = now_s();
  std::size_t iterations = 0;
  do {
    VerifyRun run = run_verify(*b, w.options);
    check_verify(run, r, "timed verify");
    const std::uint64_t d = findings_digest(run.records);
    if (iterations == 0) {
      first_digest = d;
      peak_rss = peak_rss_mb(RUSAGE_SELF);
    }
    r->expect(d == first_digest, "timed verify iterations disagree");
    walls.push_back(run.wall);
    cpus.push_back(run.cpu);
    rates.push_back(ratio(static_cast<double>(run.report.victims_eligible),
                          run.wall));
    if (iterations == 0) first = std::move(run);
    ++iterations;
  } while (iterations < 2 ||
           now_s() - window_start + median(walls) <= a.seconds);
  setup_burst();

  const VerificationReport& rep = first.report;
  const double wall = median(walls);
  const Tail tail = tail_of(walls);
  r->add("wall_s", wall, "s");
  r->add("victims_per_s", median(rates), "1/s");
  r->add("cpu_s", median(cpus), "s");
  r->add("peak_rss_mb", peak_rss, "MB");
  r->add("unconceded_frac",
         1.0 - ratio(static_cast<double>(rep.victims_fallback +
                                         rep.victims_failed),
                     static_cast<double>(rep.victims_eligible)),
         "fraction");

  // Untimed serial reference pass through the pipeline over a seed-chosen
  // quarter of the candidates, with the SPICE cross-audit lottery on: each
  // record (audit fields masked) must equal the timed run's, which checks
  // the threads/batch bit-identity contract. Exact-key cache hits are
  // bit-identical to fresh reductions, so the subset needs no other
  // victims. The traced run (--trace 1) compares every victim.
  std::vector<std::size_t> sample;
  const std::vector<std::size_t> candidates = candidates_of(*b, w.options);
  for (std::size_t i = a.seed % 4; i < candidates.size(); i += 4)
    sample.push_back(candidates[i]);
  VerifierOptions ref = w.options;
  ref.threads = 1;
  ref.batch_width = 1;
  ref.audit_seed = a.seed;
  ref.audit_fraction = audit_fraction_for(sample.size());
  const PassRun pass = pipeline_pass(*b, ref, sample, nullptr);
  Records timed_sample;
  for (std::size_t v : sample) {
    const auto it = first.records.find(v);
    if (it != first.records.end()) timed_sample.insert(*it);
  }
  r->expect(pass.duplicates == 0, "reference pass settled a victim twice");
  r->expect(findings_digest(pass.records) == findings_digest(timed_sample),
            "timed digest != serial reference digest");
  add_audit_metrics(pass.records, b->env->tech.vdd, r);
  setup_burst();
  r->add("setup_s", median(setups), "s");

  // One verify() is one job for an audit workload.
  r->add("jobs_per_min", ratio(60.0, wall), "1/min");
  r->add("turnaround_p50_s", wall, "s");
  r->add("turnaround_tail_s", tail.value, "s");
  r->add("job_ok_frac", r->problems.empty() ? 1.0 : 0.0, "fraction");

  std::printf("timed: %zu verify() iteration(s), eligible=%zu analyzed=%zu "
              "screened=%zu fallback=%zu failed=%zu violations=%zu "
              "digest=%016llx\n",
              iterations, rep.victims_eligible, rep.victims_analyzed,
              rep.victims_screened_out, rep.victims_fallback,
              rep.victims_failed, rep.violations,
              static_cast<unsigned long long>(first_digest));
  std::printf("turnaround tail: p%.1f of %zu samples (%zu beyond)\n",
              tail.percentile, tail.samples, tail.beyond);
  std::printf("iteration walls (s):");
  for (double x : walls) std::printf(" %.4f", x);
  std::printf("\nreference pass: %zu of %zu candidates\n", sample.size(),
              candidates.size());
}

/// Bytes per record of `records` written as a journal file.
double journal_bytes_per_victim(const Records& records,
                                const VerifierOptions& options,
                                const std::string& path) {
  std::vector<const JournalRecord*> ptrs;
  for (const auto& [net, rec] : records) ptrs.push_back(&rec);
  ResultJournal::write_atomic(path, ptrs, options_result_hash(options));
  struct stat st {};
  const double bytes =
      ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
  std::remove(path.c_str());
  return ratio(bytes, static_cast<double>(records.size()));
}

struct LayerRuns {
  std::unique_ptr<Bench> bench;  ///< the traced set-up
  VerifyRun verify;  ///< the untraced verify() with the workload's options
  PassRun traced;    ///< the traced serial pipeline pass
};

/// The per-layer block shared by every workload: traced set-up, one
/// untraced verify(), build_victim_cluster over every candidate, a traced
/// serial pipeline pass, a sampled SPICE audit, and the re-invoked stage
/// calls.
LayerRuns run_layers(const Args& a, const Workload& w, Tracer& tracer,
                     Result* r) {
  SetupTimes t;
  std::unique_ptr<Bench> b =
      set_up(w, &t, &tracer);
  r->add("cells.load_s", t.cells, "s");
  r->add("chipgen.generate_s", t.chipgen, "s");
  r->add("extract.summaries_s", t.summaries, "s");
  r->add("pruning.prune_s", t.prune, "s");
  r->add("pruning.kept_frac",
         ratio(static_cast<double>(b->pruned.stats.couplings_after),
               static_cast<double>(b->pruned.stats.couplings_before)),
         "fraction");

  VerifyRun run;
  tracer.time("verifier.verify", [&] { run = run_verify(*b, w.options); });
  check_verify(run, r, "verify");
  const std::uint64_t digest = findings_digest(run.records);

  std::vector<std::pair<VictimSpec, std::vector<AggressorSpec>>> clusters;
  const std::vector<std::size_t> candidates = candidates_of(*b, w.options);
  clusters.reserve(candidates.size());
  const double bvc = tracer.time("verifier.build_victim_cluster", [&] {
    for (std::size_t v : candidates)
      clusters.push_back(b->verifier->build_victim_cluster(
          b->design, b->summaries, b->pruned, v));
  });
  std::size_t eligible = 0, aggressors = 0;
  for (const auto& c : clusters)
    if (!c.second.empty()) {
      ++eligible;
      aggressors += c.second.size();
    }
  r->add("verifier.build_victim_cluster_s", bvc, "s");
  r->add("verifier.aggressors_per_victim",
         ratio(static_cast<double>(aggressors), static_cast<double>(eligible)),
         "count");

  VerifierOptions serial = w.options;
  serial.threads = 1;
  serial.batch_width = 1;
  PassRun traced = pipeline_pass(*b, serial, candidates, &tracer);
  r->expect(findings_digest(traced.records) == digest,
            "verify() digest != serial traced digest");
  r->expect(traced.records.size() == run.report.victims_eligible &&
                traced.duplicates == 0,
            "traced pass did not settle each eligible victim once");

  const double victims = static_cast<double>(traced.records.size());
  r->add("pipeline.build_cluster_s", tracer.total("pipeline.build_cluster"),
         "s");
  r->add("pipeline.reduce_s", tracer.total("pipeline.reduce"), "s");
  r->add("pipeline.simulate_reduced_s",
         tracer.total("pipeline.simulate_reduced"), "s");
  r->add("pipeline.certify_s", tracer.total("pipeline.certify"), "s");
  r->add("pipeline.audit_s", tracer.total("pipeline.audit"), "s");
  r->add("pipeline.full_sim_s", tracer.total("pipeline.full_sim"), "s");
  r->add("pipeline.bound_s", tracer.total("pipeline.bound"), "s");
  r->add("pipeline.retry_entries", static_cast<double>(tracer.retry_entries()),
         "count");
  const double lookups =
      static_cast<double>(traced.cache.hits + traced.cache.misses);
  r->add("mor.reductions_per_victim", ratio(lookups, victims), "count");
  r->add("mor.cache_hit_rate",
         ratio(static_cast<double>(traced.cache.hits), lookups), "fraction");
  r->add("mor.batch_lanes", static_cast<double>(run.report.batched_victims),
         "count");
  r->add("mor.batch_lane_fallbacks",
         static_cast<double>(run.report.batch_lane_fallbacks), "count");
  r->add("workspace.acquires_per_victim",
         ratio(static_cast<double>(traced.ws.acquires), victims), "count");
  r->add("workspace.pool_miss_frac",
         ratio(static_cast<double>(traced.ws.pool_misses),
               static_cast<double>(traced.ws.acquires)),
         "fraction");
  r->add("trace.coverage",
         ratio(tracer.stage_total(traced.first_span), traced.wall),
         "fraction");
  // Against the untraced verify(): meaningful where that run is serial too.
  r->add("trace.overhead_frac", ratio(traced.wall, run.wall) - 1.0,
         "fraction");

  r->add("audit_max_peak_err_mv",
         1e3 * spice_audit_sample(*b, serial, a.seed, candidates, clusters,
                                  traced.records, tracer),
         "mV");

  const StageCalls sc = reinvoke_stages(*b, serial, candidates, clusters, tracer);
  r->add("glitch.align_probe_s",
         w.options.glitch.align_aggressors ? sc.prepare - sc.extract : 0.0,
         "s");
  r->add("glitch.extract_s", sc.extract, "s");
  r->add("glitch.prepare_simulate_s", sc.prepare_simulate, "s");
  r->add("mor.reduced_transient_s", sc.transient, "s");
  r->add("glitch.measure_s", sc.measure, "s");
  r->add("mor.sympvl_s", sc.sympvl, "s");
  r->add("mor.diagonalize_s", sc.diagonalize, "s");

  std::printf("traced pass: %zu victims in %.3f s, untraced verify() "
              "%.3f s; re-invoked stages on %zu clusters (%zu skipped)\n",
              traced.records.size(), traced.wall, run.wall, sc.victims,
              sc.skipped);
  return {std::move(b), std::move(run), std::move(traced)};
}

void run_audit_layers(const Args& a, const Workload& w, Tracer& tracer,
                      Result* r) {
  const LayerRuns lr = run_layers(a, w, tracer, r);
  const VerifyRun& run = lr.verify;
  r->add("first_finding_p50_s",
         median(first_finding_probes(*lr.bench, w.options, 9)), "s");
  const double threads =
      static_cast<double>(std::max<std::size_t>(1, w.options.threads));
  r->add("parallel.efficiency", ratio(run.cpu, run.wall * threads),
         "fraction");
  r->add("accounting.unattributed_cpu_frac",
         1.0 - ratio(run.report.total_cpu_seconds, run.cpu), "fraction");
  r->add("serve.accept_ms", 0.0, "ms");
  r->add("serve.first_finding_s", 0.0, "s");
  r->add("serve.stream_s", 0.0, "s");
  r->add("serve.finalize_ms", 0.0, "ms");
  r->add("shard.crashed_victims",
         static_cast<double>(run.report.victims_shard_crashed), "count");
  r->add("journal.bytes_per_victim",
         journal_bytes_per_victim(lr.traced.records, w.options,
                                  kOutDir + "/trace.journal"),
         "B");
}

// --- serve workload ------------------------------------------------------

/// Forks a ServeDaemon and waits until its poll loop answers a status
/// query (a bare connect() can succeed from the listen backlog before the
/// daemon installs its drain handlers). Returns the pid (or -1) and the
/// fork-to-answer time.
pid_t start_daemon(const serve::DaemonOptions& opt, double* ready_s) {
  std::fflush(stdout);
  std::fflush(stderr);
  const double t0 = now_s();
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 1;
    try {
      serve::ServeDaemon daemon(opt);
      code = daemon.run();
    } catch (...) {
    }
    ::_exit(code);
  }
  if (pid < 0) return -1;
  while (now_s() - t0 < 120.0) {
    serve::ServeClient probe;
    std::string err;
    WireFrame reply;
    if (probe.connect(opt.socket_path, &err) &&
        probe.send(WireType::kJobQuery, "p 0000000000000000", &err) &&
        probe.recv(&reply, 60000.0, &err)) {
      *ready_s = now_s() - t0;
      return pid;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return -1;
    ::usleep(1000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

/// SIGTERM + wait; true on a clean (exit 0) drain.
bool drain_daemon(pid_t pid) {
  ::kill(pid, SIGTERM);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void remove_tree(const std::string& path) {
  const std::string cmd = "rm -rf '" + path + "'";
  if (std::system(cmd.c_str()) != 0)
    std::fprintf(stderr, "could not remove %s\n", path.c_str());
}

struct JobTiming {
  bool ok = false;
  std::string error;
  std::uint64_t key = 0;
  double submit = 0.0, accept = 0.0, first = -1.0, last = -1.0, done = 0.0;
  serve::JobState state = serve::JobState::kQueued;
  std::string summary;
  Records findings;
  std::size_t duplicates = 0;
};

/// serve::submit_and_wait with a client-side timestamp on every frame.
void run_job(serve::ServeClient& client, const serve::JobSpec& spec,
             double timeout_s, JobTiming* jt) {
  const std::string token = "b" + serve::job_key_hex(spec.key());
  jt->submit = now_s();
  const double deadline = jt->submit + timeout_s;
  auto remaining_ms = [&] { return std::max(1.0, 1e3 * (deadline - now_s())); };
  if (!client.send(WireType::kJobSubmit, token + " " + spec.to_text(),
                   &jt->error))
    return;
  for (;;) {
    WireFrame f;
    if (!client.recv(&f, remaining_ms(), &jt->error)) return;
    std::istringstream in(f.payload);
    std::string got;
    in >> got;
    if (f.type == WireType::kJobRejected && (got == token || got == "-")) {
      jt->error = "rejected: " + f.payload;
      return;
    }
    if (f.type == WireType::kJobAccepted && got == token) {
      std::string hex;
      in >> hex;
      if (!serve::parse_job_key(hex, &jt->key)) {
        jt->error = "malformed accept: " + f.payload;
        return;
      }
      jt->accept = now_s();
      break;
    }
  }
  const std::string hex = serve::job_key_hex(jt->key);
  for (;;) {
    WireFrame f;
    if (!client.recv(&f, remaining_ms(), &jt->error)) return;
    const double t = now_s();
    std::istringstream in(f.payload);
    std::string got;
    in >> got;
    if (got != hex) continue;
    if (f.type == WireType::kJobFinding) {
      const std::size_t sp = f.payload.find(' ');
      JournalRecord rec;
      if (sp == std::string::npos ||
          !journal_decode(f.payload.substr(sp + 1), rec)) {
        jt->error = "malformed finding frame";
        return;
      }
      if (jt->first < 0.0) jt->first = t;
      jt->last = t;
      if (!jt->findings.emplace(rec.finding.net, rec).second) ++jt->duplicates;
    } else if (f.type == WireType::kJobDone) {
      std::string verdict;
      in >> verdict;
      if (!serve::parse_job_state(verdict, &jt->state)) {
        jt->error = "malformed done frame: " + f.payload;
        return;
      }
      std::getline(in, jt->summary);
      jt->done = t;
      jt->ok = true;
      return;
    }
  }
}

/// Parses "k=v" tokens of a terminal summary.
std::map<std::string, std::size_t> parse_summary(const std::string& s) {
  std::map<std::string, std::size_t> out;
  std::istringstream in(s);
  for (std::string tok; in >> tok;) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    try {
      out[tok.substr(0, eq)] = std::stoul(tok.substr(eq + 1));
    } catch (const std::exception&) {
    }
  }
  return out;
}

struct ServeRun {
  std::vector<JobTiming> jobs;
  double setup = 0.0;
  double loop_start = 0.0, loop_end = 0.0;
  double cpu = 0.0;       ///< self + children over the loop
  double peak_rss = 0.0;  ///< largest of this process and the daemon tree
  bool drained = false;
  std::string jobs_dir;
};

ServeRun closed_loop(const Args& a, const ServeShape& shape) {
  ServeRun out;
  const std::string base = kOutDir + "/serve." + std::to_string(::getpid());
  remove_tree(base);
  ::mkdir(base.c_str(), 0755);

  // Set-up: six daemon starts, three before the loop (the third serves)
  // and three after it, median reported. Each daemon gets a fresh jobs dir.
  std::vector<double> readies;
  int started = 0;
  auto start = [&](serve::DaemonOptions* opt) {
    const std::string dir = base + "/d" + std::to_string(started++);
    ::mkdir(dir.c_str(), 0755);
    opt->socket_path = dir + "/s.sock";
    opt->jobs_dir = dir + "/jobs";
    opt->net_count = shape.nets;
    opt->queue_capacity = 4 * shape.clients;
    opt->max_running = shape.max_running;
    opt->default_processes = shape.processes;
    opt->cell_cache = kCellCache;
    double ready = 0.0;
    const pid_t pid = start_daemon(*opt, &ready);
    if (pid < 0) throw std::runtime_error("serve daemon failed to start");
    readies.push_back(ready);
    return pid;
  };
  auto start_idle = [&] {
    serve::DaemonOptions opt;
    if (!drain_daemon(start(&opt)))
      throw std::runtime_error("idle serve daemon did not drain cleanly");
  };
  start_idle();
  start_idle();
  serve::DaemonOptions opt;
  const pid_t daemon = start(&opt);
  out.jobs_dir = opt.jobs_dir;

  const double cpu0 = self_cpu_s() + children_cpu_s();
  out.loop_start = now_s();
  const double deadline = out.loop_start + a.seconds;
  std::vector<std::vector<JobTiming>> per_client(shape.clients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    clients.emplace_back([&, c] {
      serve::ServeClient client;
      JobTiming failed_connect;
      if (!client.connect(opt.socket_path, &failed_connect.error)) {
        per_client[c].push_back(failed_connect);
        return;
      }
      for (std::size_t k = 0;; ++k) {
        if (shape.max_jobs_per_client && k >= shape.max_jobs_per_client) break;
        if (!shape.max_jobs_per_client && now_s() >= deadline) break;
        // Jobs differ only in audit_seed: each has its own key while the
        // findings stay identical (audit_fraction is 0).
        serve::JobSpec spec;
        spec.options.audit_seed = a.seed * 1000003ull + c * 100000ull + k;
        spec.processes = shape.processes;
        JobTiming jt;
        run_job(client, spec, 150.0, &jt);
        const bool ok = jt.ok;
        per_client[c].push_back(std::move(jt));
        if (!ok) break;
      }
    });
  }
  for (auto& t : clients) t.join();
  out.loop_end = out.loop_start;
  for (const auto& jobs : per_client)
    for (const JobTiming& jt : jobs) {
      if (jt.ok) out.loop_end = std::max(out.loop_end, jt.done);
      out.jobs.push_back(jt);
    }
  out.drained = drain_daemon(daemon);
  out.cpu = self_cpu_s() + children_cpu_s() - cpu0;
  out.peak_rss =
      std::max(peak_rss_mb(RUSAGE_SELF), peak_rss_mb(RUSAGE_CHILDREN));
  for (int i = 0; i < 3; ++i) start_idle();
  out.setup = median(readies);
  return out;
}

/// Correctness of a served run against the in-process serial reference of
/// the same design and options.
void check_served(const ServeRun& sr, const Records& reference,
                  std::uint64_t ref_digest, Result* r,
                  std::size_t* ok_jobs) {
  r->expect(sr.drained, "serve daemon did not drain cleanly");
  r->expect(!sr.jobs.empty(), "no job was served");
  *ok_jobs = 0;
  for (const JobTiming& jt : sr.jobs) {
    ++r->attempted;
    bool good = jt.ok && jt.state == serve::JobState::kDone &&
                jt.duplicates == 0;
    if (!jt.ok) r->problems.push_back("job failed: " + jt.error);
    if (jt.ok) {
      const auto s = parse_summary(jt.summary);
      auto get = [&](const char* k) {
        auto it = s.find(k);
        return it == s.end() ? std::size_t{0} : it->second;
      };
      const bool once = get("eligible") == get("analyzed") + get("screened") +
                                               get("fallback") + get("failed") &&
                        jt.findings.size() == get("eligible");
      good = good && once && get("failed") == 0 &&
             count_status(jt.findings, FindingStatus::kFailed) == 0 &&
             jt.findings.size() == reference.size() &&
             findings_digest(jt.findings) == ref_digest;
    }
    if (!good) {
      ++r->failed;
      r->problems.push_back("served job " + serve::job_key_hex(jt.key) +
                            " lost, duplicated, failed or diverged");
    } else {
      ++*ok_jobs;
    }
  }
}

void run_serve(const Args& a, Tracer* tracer, Result* r) {
  const ServeShape shape = serve_shape(a);
  const ServeRun sr = closed_loop(a, shape);

  // In-process serial reference of the same design and options, with the
  // SPICE cross-audit lottery on.
  Workload w;
  w.chip.net_count = shape.nets;  // the daemon's resident design
  w.options = chip_audit_options();
  SetupTimes st;
  std::unique_ptr<Bench> b = set_up(w, &st, nullptr);
  const std::vector<std::size_t> candidates = candidates_of(*b, w.options);
  VerifierOptions ref = w.options;
  ref.audit_seed = a.seed;
  ref.audit_fraction = audit_fraction_for(candidates.size());
  const PassRun pass = pipeline_pass(*b, ref, candidates, nullptr);
  r->expect(pass.duplicates == 0 &&
                count_status(pass.records, FindingStatus::kFailed) == 0,
            "in-process reference settled a victim twice or failed it");
  const std::uint64_t ref_digest = findings_digest(pass.records);
  std::size_t ok_jobs = 0;
  check_served(sr, pass.records, ref_digest, r, &ok_jobs);

  std::vector<double> turnaround, first, accept_ms, first_after_accept,
      stream, finalize_ms, runtime;
  std::size_t victims = 0, crashed = 0;
  double finding_cpu = 0.0, journal_bytes = 0.0;
  std::size_t conceded = 0;
  for (const JobTiming& jt : sr.jobs) {
    if (!jt.ok) continue;
    turnaround.push_back(jt.done - jt.submit);
    runtime.push_back(jt.done - jt.accept);
    accept_ms.push_back(1e3 * (jt.accept - jt.submit));
    if (jt.first >= 0.0) {
      first.push_back(jt.first - jt.submit);
      first_after_accept.push_back(jt.first - jt.accept);
      stream.push_back(jt.last - jt.first);
      finalize_ms.push_back(1e3 * (jt.done - jt.last));
    }
    victims += jt.findings.size();
    for (const auto& [net, rec] : jt.findings) {
      finding_cpu += rec.finding.cpu_seconds;
      if (!mor_status(rec.finding.status) && !rec.screened) ++conceded;
    }
    crashed += parse_summary(jt.summary)["shard_crashed"];
    struct stat fst {};
    const std::string journal = serve::job_paths(sr.jobs_dir, jt.key).journal;
    if (::stat(journal.c_str(), &fst) == 0)
      journal_bytes += static_cast<double>(fst.st_size);
  }
  const double loop_wall = sr.loop_end - sr.loop_start;
  const Tail tail = tail_of(turnaround);
  const double jobs = static_cast<double>(sr.jobs.size());

  if (!tracer) {
    r->add("setup_s", sr.setup, "s");
    r->add("wall_s", median(runtime), "s");
    r->add("victims_per_s", ratio(static_cast<double>(victims), loop_wall),
           "1/s");
    r->add("cpu_s", ratio(sr.cpu, static_cast<double>(ok_jobs)), "s");
    r->add("peak_rss_mb", sr.peak_rss, "MB");
    r->add("unconceded_frac",
           1.0 - ratio(static_cast<double>(conceded),
                       static_cast<double>(victims)),
           "fraction");
    add_audit_metrics(pass.records, b->env->tech.vdd, r);
    r->add("jobs_per_min",
           ratio(60.0 * static_cast<double>(ok_jobs), loop_wall), "1/min");
    r->add("turnaround_p50_s", median(turnaround), "s");
    r->add("turnaround_tail_s", tail.value, "s");
    r->add("job_ok_frac", ratio(static_cast<double>(ok_jobs), jobs),
           "fraction");
  } else {
    // Per-layer: the in-process pipeline of one job, plus the serve layer
    // from client-side frame timestamps.
    run_layers(a, w, *tracer, r);
    const double slots =
        static_cast<double>(shape.max_running * shape.processes);
    r->add("parallel.efficiency", ratio(sr.cpu, loop_wall * slots),
           "fraction");
    r->add("accounting.unattributed_cpu_frac",
           1.0 - ratio(finding_cpu, sr.cpu), "fraction");
    r->add("first_finding_p50_s", median(first), "s");
    r->add("serve.accept_ms", median(accept_ms), "ms");
    r->add("serve.first_finding_s", median(first_after_accept), "s");
    r->add("serve.stream_s", median(stream), "s");
    r->add("serve.finalize_ms", median(finalize_ms), "ms");
    r->add("shard.crashed_victims", static_cast<double>(crashed), "count");
    r->add("journal.bytes_per_victim",
           ratio(journal_bytes, static_cast<double>(victims)), "B");
  }
  std::printf("serve: %zu jobs (%zu ok) in %.3f s, %zu findings, setup "
              "%.3f s, drained=%d, reference digest=%016llx\n",
              sr.jobs.size(), ok_jobs, loop_wall, victims, sr.setup,
              sr.drained ? 1 : 0, static_cast<unsigned long long>(ref_digest));
  std::printf("turnaround tail: p%.1f of %zu samples (%zu beyond)\n",
              tail.percentile, tail.samples, tail.beyond);
  remove_tree(kOutDir + "/serve." + std::to_string(::getpid()));
}

// --- output --------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Result& r) {
  for (const Metric& m : r.metrics)
    std::printf("metric %-36s %s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  for (const std::string& p : r.problems)
    std::printf("check failed: %s\n", p.c_str());
  std::string json = "{\"correct\": ";
  json += r.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::size_t>(1, r.attempted));
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  ::mkdir(kOutDir.c_str(), 0755);
  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
              "build_type=%s nproc=%zu commit=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, a.smoke ? 1 : 0, XTV_BENCH_BUILD_TYPE,
              nproc(), a.commit.c_str());
  try {
    warm_cell_cache();
    Result r;
    Tracer tracer;
    if (a.workload == "serve_closed_loop") {
      run_serve(a, a.trace ? &tracer : nullptr, &r);
    } else {
      const Workload w = a.workload == "audit_flat_serial" ? flat_workload(a)
                                                           : tiled_workload(a);
      if (a.trace) run_audit_layers(a, w, tracer, &r);
      else run_audit_e2e(a, w, &r);
    }
    if (a.trace)
      tracer.write_json(kOutDir + "/trace_" + a.workload + "_" +
                        std::to_string(a.seed) + ".json");
    print_result(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xtv_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
