// Time-to-verdict benchmark: one workload per process.
//
//   perfbench --workload check|campaign|serve --seed N --seconds S
//
// Runs rounds of the chosen workload until S seconds have passed (at least
// one round) and prints one JSON line with every round's raw measurements:
// set-up and verdict times, process CPU time, the verdict facts run.py
// compares with the known answers, and the deterministic effort counts
// that must repeat exactly from round to round. The traced build
// (perfbench_traced) adds each round's layer totals. run.py turns the raw
// rounds into the benchmark's metrics; progress goes to stderr.
//
// Workloads (BENCHMARK.json records why each was chosen):
//   check    — a closed batch of three property checks:
//              hunt (memctrl portfolio at session jobs 1), cube (the hard
//              clean FIFO FC refutation at bound 9, cube escalation on 4
//              workers) and decomp (the widepipe bench configuration,
//              decomposed).
//   campaign — one fault campaign over memctrl-fifo, alu, dataflow and
//              optflow: 24 mutants at the reference mutant seed, the
//              conventional baseline on (stimulus seeded from --seed),
//              session jobs 2, conflict budgets only.
//   serve    — an in-process aqed-server with a preloaded persisted cache,
//              driven by two closed-loop clients: a cold preamble of
//              distinct campaigns, then a seeded stream that mostly repeats
//              them, with a fixed set of fresh campaigns mixed in.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "accel/memctrl.h"
#include "accel/widepipe.h"
#include "decomp/session.h"
#include "fault/campaign.h"
#include "layers.h"
#include "sched/session.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/registry.h"
#include "service/server.h"

using namespace aqed;

namespace {

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time (user + system, every thread).
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// splitmix64: the benchmark's only source of seeded choices.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// Minimal JSON emitter for the result line.
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Number(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// One round's measurements
// ---------------------------------------------------------------------------

struct Round {
  std::vector<double> setup_seconds;  // one per set-up repetition
  double verdict_seconds = 0;  // median wall from request to verdict
  double cpu_seconds = 0;      // process CPU per verdict unit
  double verdicts_per_second = 0;
  double peak_rss_mb = 0;      // process high-water RSS at the round's end
  uint64_t attempted = 0;  // operations asked for
  uint64_t failed = 0;     // unknown, checker-error, rejected or errored
  // Verdict facts compared with the known answers (seed-independent).
  std::map<std::string, std::string> answers;
  // Deterministic effort counts: identical in every round of a run and
  // between the traced and the untraced binary.
  std::map<std::string, uint64_t> effort;
  // Workload-specific timings (seconds or milliseconds, as named).
  std::map<std::string, double> detail;
  // Latency samples in milliseconds, pooled across rounds by run.py.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> errors;
  perfbench::LayerTotals layers;
  // serve: (spec index, response digest) of every answered request,
  // checked against the direct runs once the rounds are done.
  std::vector<std::pair<size_t, uint64_t>> served;
};

// Takes kSetupReps set-up samples, each the mean of `batch` back-to-back
// calls of `setup` (set-ups that take microseconds are timed in batches so
// the sample is not timer noise); returns the last call's product.
constexpr int kSetupReps = 5;

template <typename F>
auto TimedSetup(Round& round, int batch, F&& setup) {
  for (int rep = 1; rep < kSetupReps; ++rep) {
    const double t0 = Now();
    for (int i = 0; i < batch; ++i) (void)setup();
    round.setup_seconds.push_back((Now() - t0) / batch);
  }
  const double t0 = Now();
  for (int i = 1; i < batch; ++i) (void)setup();
  auto product = setup();
  round.setup_seconds.push_back((Now() - t0) / batch);
  return product;
}

// Builds and validates a design: the elaboration a run does before it can
// check anything.
void Elaborate(const core::AcceleratorBuilder& build, Round& round,
               const std::string& name) {
  ir::TransitionSystem ts;
  (void)build(ts);
  if (!ts.Validate().ok()) round.errors.push_back(name + ": invalid design");
}

std::string VerdictOf(const core::SessionResult& result,
                      const core::JobHandle& handle) {
  if (result.bug_found(handle)) {
    return std::string("bug:") + core::BugKindName(result.kind(handle)) +
           ":cex=" + std::to_string(result.cex_cycles(handle));
  }
  if (result.unknown_reason(handle) != UnknownReason::kNone) return "unknown";
  return "clean";
}

// Adds a session's solver effort (from its public job results) to `effort`
// under `prefix`.
void AddSessionEffort(const core::SessionResult& result,
                      const std::string& prefix,
                      std::map<std::string, uint64_t>& effort) {
  uint64_t conflicts = 0, decisions = 0, frames = 0, fanouts = 0, cubes = 0;
  for (const core::JobResult& job : result.jobs) {
    conflicts += job.result.bmc.conflicts;
    decisions += job.result.bmc.decisions;
    frames += job.result.bmc.frames_explored;
    fanouts += job.result.bmc.cube_escalations;
    cubes += job.result.bmc.cubes_solved;
  }
  effort[prefix + ".conflicts"] = conflicts;
  effort[prefix + ".decisions"] = decisions;
  effort[prefix + ".frames"] = frames;
  effort[prefix + ".attempts"] = result.stats.num_jobs();
  if (fanouts > 0) effort[prefix + ".escalations"] = fanouts;
  if (cubes > 0) effort[prefix + ".cubes_solved"] = cubes;
}

// ---------------------------------------------------------------------------
// check: a closed batch of property checks
// ---------------------------------------------------------------------------

// RB bound 16 reaches the stall deadlock's 16-cycle counterexample.
core::AqedOptions HuntOptions(accel::MemCtrlConfig config) {
  core::RbOptions rb;
  rb.tau = accel::MemCtrlResponseBound(config);
  return core::AqedOptions::Builder()
      .WithRb(rb)
      .WithFcBound(8)
      .WithRbBound(16)
      .WithConflictBudget(200000)
      .Build();
}

struct HuntDesign {
  const char* name;
  accel::MemCtrlConfig config;
  accel::MemCtrlBug bug;
};

constexpr HuntDesign kHuntDesigns[] = {
    {"fifo", accel::MemCtrlConfig::kFifo, accel::MemCtrlBug::kNone},
    {"linebuffer", accel::MemCtrlConfig::kLineBuffer,
     accel::MemCtrlBug::kNone},
    {"fifo-stall", accel::MemCtrlConfig::kFifo,
     accel::MemCtrlBug::kFifoStallDeadlock},
};

core::AcceleratorBuilder HuntBuilder(const HuntDesign& design) {
  return [config = design.config, bug = design.bug](ir::TransitionSystem& ts) {
    return accel::BuildMemCtrl(ts, config, bug).acc;
  };
}

// The memctrl portfolio at session jobs 1: two clean designs and the FIFO
// stall deadlock, each an entry with first-bug-wins inside the entry.
void RunHunt(Round& round) {
  core::SessionOptions options;
  options.jobs = 1;
  options.cancel = core::SessionOptions::CancelPolicy::kEntry;
  sched::VerificationSession session(options);
  std::vector<core::JobHandle> handles;
  for (const HuntDesign& design : kHuntDesigns) {
    handles.push_back(session.Enqueue(HuntBuilder(design),
                                      HuntOptions(design.config), design.name));
  }
  const core::SessionResult result = session.Wait();
  for (size_t i = 0; i < handles.size(); ++i) {
    const std::string verdict = VerdictOf(result, handles[i]);
    round.answers[std::string("hunt.") + kHuntDesigns[i].name] = verdict;
    if (verdict == "unknown") ++round.failed;
  }
  round.failed += result.stats.num_checker_errors();
  round.attempted += handles.size();
  AddSessionEffort(result, "hunt", round.effort);
}

// The single hard clean FIFO FC refutation at bound 9: its deep depths
// stall past the conflict threshold and escalate into a cube fan-out on 4
// workers. --seed orders the cubes; every cube must be refuted, so the
// verdict and the summed effort do not depend on it.
void RunCube(Round& round, uint64_t seed) {
  bmc::BmcOptions::CubeEscalation cube;
  cube.conflict_threshold = 20000;
  cube.num_split_vars = 3;
  cube.jobs = 4;
  cube.seed = seed;
  const auto options =
      core::AqedOptions::Builder().WithBound(9).WithCubes(cube).Build();
  core::SessionOptions session_options;
  session_options.jobs = 1;
  sched::VerificationSession session(session_options);
  const core::JobHandle handle = session.Enqueue(
      [](ir::TransitionSystem& ts) {
        return accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo).acc;
      },
      options, "fifo/clean-cubed");
  const core::SessionResult result = session.Wait();
  const std::string verdict = VerdictOf(result, handle);
  round.answers["cube"] = verdict;
  if (verdict == "unknown") ++round.failed;
  round.failed += result.stats.num_checker_errors();
  ++round.attempted;
  AddSessionEffort(result, "cube", round.effort);
}

// The decomposed leg of the widepipe bench configuration: the isomorphic
// clean stages collapse to one one-stage solve.
void RunDecomp(Round& round) {
  const accel::WidePipeConfig config = accel::WidePipeBenchConfig();
  decomp::DecompOptions options;
  options.aqed = core::AqedOptions::Builder()
                     .WithBound(accel::WidePipeMonolithicBound(config))
                     .Build();
  options.session.jobs = 2;
  decomp::DecomposedSession session(accel::WidePipeDecomposition(config),
                                    options);
  ++round.attempted;
  StatusOr<decomp::DecompositionResult> run = session.Run();
  if (!run.ok()) {
    round.errors.push_back("decomp: " + run.status().message());
    ++round.failed;
    return;
  }
  const decomp::DecompositionResult& result = run.value();
  const std::string verdict =
      result.clean() ? "clean"
                     : (result.bug_found() ? "bug" : "unknown");
  round.answers["decomp"] = verdict;
  round.answers["decomp.solves"] = std::to_string(result.jobs_enqueued);
  if (verdict == "unknown") ++round.failed;
  round.effort["decomp.subs"] = result.subs.size();
  round.effort["decomp.solves"] = result.jobs_enqueued;
  round.effort["decomp.deduped"] = result.deduped;
}

Round RunCheckRound(uint64_t seed) {
  Round round;
  TimedSetup(round, /*batch=*/100, [&] {
    for (const HuntDesign& design : kHuntDesigns) {
      Elaborate(HuntBuilder(design), round, design.name);
    }
    const decomp::Decomposition decomposition =
        accel::WidePipeDecomposition(accel::WidePipeBenchConfig());
    Elaborate(decomposition.parent(), round, "widepipe");
    const StatusOr<decomp::CutCoverage> coverage = decomposition.Analyze();
    if (!coverage.ok()) {
      round.errors.push_back("widepipe: " + coverage.status().message());
    }
    return 0;
  });

  (void)perfbench::TakeLayerTotals();  // layers cover the checks only

  // The order is fixed: which part runs first decides which allocator
  // arenas the later ones reuse, and so the process's peak RSS.
  const auto timed = [&round](const std::string& name, const auto& part) {
    const double start = Now();
    part();
    round.detail[name + "_s"] = Now() - start;
  };
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  timed("hunt", [&] { RunHunt(round); });
  timed("cube", [&] { RunCube(round, seed); });
  timed("decomp", [&] { RunDecomp(round); });
  round.verdict_seconds = Now() - t0;
  round.cpu_seconds = CpuSeconds() - cpu0;
  round.verdicts_per_second =
      static_cast<double>(round.attempted) / round.verdict_seconds;
  return round;
}

// ---------------------------------------------------------------------------
// campaign: one fault campaign
// ---------------------------------------------------------------------------

constexpr uint64_t kCampaignMutantSeed = 0xA9EDFA17;  // the reference seed
constexpr uint32_t kCampaignMutants = 24;
constexpr const char* kCampaignDesigns = "memctrl-fifo,alu,dataflow,optflow";

Round RunCampaignRound(uint64_t seed) {
  Round round;
  const std::vector<fault::DesignUnderTest> designs =
      TimedSetup(round, /*batch=*/1000, [&] {
        StatusOr<std::vector<fault::DesignUnderTest>> selected =
            service::SelectDesigns(service::BuiltinDesigns({.with_aes = false}),
                                   std::string_view(kCampaignDesigns));
        if (!selected.ok()) {
          round.errors.push_back(selected.status().message());
          return std::vector<fault::DesignUnderTest>{};
        }
        std::vector<fault::DesignUnderTest> list = std::move(selected).value();
        Rng rng(seed);
        for (fault::DesignUnderTest& dut : list) {
          dut.conventional.base_seed ^= rng.Next();
          Elaborate(dut.build, round, dut.name);
        }
        return list;
      });
  if (designs.empty()) return round;
  (void)perfbench::TakeLayerTotals();  // layers cover the campaign only

  fault::FaultCampaignOptions options;
  options.seed = kCampaignMutantSeed;
  options.num_mutants = kCampaignMutants;
  options.session.jobs = 2;
  options.conventional_baseline = true;

  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  const fault::FaultCampaignResult result =
      fault::RunFaultCampaign(designs, options);
  round.verdict_seconds = Now() - t0;
  round.cpu_seconds = CpuSeconds() - cpu0;

  const size_t unknown = result.count(fault::Classification::kUnknown);
  const size_t checker_errors = result.stats.num_checker_errors();
  round.attempted = result.mutants.size();
  round.failed = unknown + checker_errors;
  round.verdicts_per_second =
      static_cast<double>(result.num_classified()) / round.verdict_seconds;
  round.answers["digest"] = Hex(result.ClassificationDigest());
  round.answers["classified"] = std::to_string(result.num_classified());
  round.answers["mutants"] = std::to_string(result.mutants.size());

  uint64_t conflicts = 0, frames = 0;
  for (const JobStat& job : result.stats.jobs()) {
    conflicts += job.conflicts;
    frames += job.frames_explored;
  }
  round.effort["campaign.conflicts"] = conflicts;
  round.effort["campaign.frames"] = frames;
  round.effort["campaign.attempts"] = result.stats.num_jobs();
  round.effort["campaign.mutants"] = result.mutants.size();
  round.effort["campaign.detected"] = result.num_detected();
  round.effort["campaign.silent_survivors"] = result.num_silent_survivors();
  return round;
}

// ---------------------------------------------------------------------------
// serve: a resident server under two closed-loop clients
// ---------------------------------------------------------------------------

struct Spec {
  std::vector<std::string> designs;
  uint32_t mutants;
  uint64_t seed;
};

std::string SpecName(const Spec& spec) {
  std::string name;
  for (const std::string& design : spec.designs) name += design + "+";
  return name + std::to_string(spec.mutants) + "@" + Hex(spec.seed);
}

// Small campaigns over the cheap catalog designs; spec i has mutant seed
// 0x5E7E0000 + i, so no two specs share a cache entry. Specs 0-7 form the
// cold preamble. The fresh campaigns of the stream are the six of 40
// candidates (i < 40) that solve in under 0.1 s each: while one client
// solves a miss, the other client's hits skip half their cache-save wait,
// so long misses would split the hits into two latency modes whose mix,
// and so the median, shifts from run to run.
std::vector<Spec> ServeSpecs() {
  const std::vector<std::vector<std::string>> design_sets = {
      {"alu"}, {"dataflow"}, {"alu", "dataflow"}};
  std::vector<Spec> specs;
  for (const uint64_t i : {0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 30, 31, 36}) {
    specs.push_back({design_sets[i % design_sets.size()],
                     static_cast<uint32_t>(2 + i % 2), 0x5E7E0000 + i});
  }
  return specs;
}
constexpr size_t kColdSpecs = 8;
// Requests per client in the stream, and the preloaded cache size. Every
// campaign, hits included, rewrites and fsyncs the whole cache file (about
// 0.5 ms plus 2.8 us per entry on a 4-core VM); 1024 entries make that
// serialization, as in a long-lived server, the bulk of a hit. Fewer
// entries left a hit to the fsync alone, whose latency varied more from
// run to run.
constexpr size_t kStreamPerClient = 1000;
constexpr size_t kPreloadEntries = 1024;

service::CampaignRequest RequestFor(const Spec& spec) {
  service::CampaignRequest request;
  request.tenant = "bench";
  request.designs = spec.designs;
  request.num_mutants = spec.mutants;
  request.seed = spec.seed;
  request.jobs = 1;
  return request;
}

// The digest each spec must come back with: the same campaign run directly
// through fault::RunFaultCampaign, without the server or its cache (0 when
// the spec names an unknown design). Specs are independent, so four threads
// share them.
std::vector<uint64_t> DirectDigests(const std::vector<Spec>& specs) {
  const std::vector<fault::DesignUnderTest> catalog =
      service::BuiltinDesigns({.with_aes = false});
  std::vector<uint64_t> digests(specs.size(), 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < specs.size(); i += 4) {
        const service::CampaignRequest request = RequestFor(specs[i]);
        StatusOr<std::vector<fault::DesignUnderTest>> designs =
            service::SelectDesigns(catalog, request.designs);
        if (!designs.ok()) continue;
        fault::FaultCampaignOptions options;
        options.seed = request.seed;
        options.num_mutants = request.num_mutants;
        options.session.jobs = request.jobs;
        options.session.retry.max_retries = request.retries;
        digests[i] = fault::RunFaultCampaign(designs.value(), options)
                         .ClassificationDigest();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return digests;
}

// Checks every served digest against the direct run of its spec.
void CheckServed(const std::vector<uint64_t>& direct, Round& round) {
  uint64_t mismatches = 0;
  for (const auto& [spec, digest] : round.served) {
    if (direct[spec] == 0 || direct[spec] != digest) ++mismatches;
  }
  round.failed += mismatches;
  round.answers["digest_mismatches"] = std::to_string(mismatches);
  if (mismatches > 0) {
    round.errors.push_back(std::to_string(mismatches) +
                           " response digests differ from the direct run");
  }
}

struct Reply {
  size_t spec;
  bool preamble;
  double latency_ms;
  bool ok;
  std::string error;
  service::CampaignResponse response;
};

Reply Send(service::Client& client, const std::vector<Spec>& specs,
           size_t spec, bool preamble) {
  Reply reply{spec, preamble, 0, false, {}, {}};
  const double t0 = Now();
  StatusOr<service::CampaignResponse> response =
      client.RunCampaign(RequestFor(specs[spec]));
  reply.latency_ms = (Now() - t0) * 1000.0;
  if (!response.ok()) {
    reply.error = response.status().message();
  } else if (!response.value().ok) {
    reply.error = response.value().error;
  } else {
    reply.ok = true;
    reply.response = std::move(response).value();
  }
  return reply;
}

// The seeded request stream of each client: repeats of preamble specs
// (cache hits), with the fresh specs (cache misses) at seeded positions.
// Fresh spec i always goes to client i % 2, so each client's share of
// solving work is the same for every seed.
std::vector<std::vector<size_t>> StreamPlan(uint64_t seed, size_t num_specs) {
  Rng rng(seed ^ 0x5E7E5E7Eull);
  std::vector<std::vector<size_t>> plan(2);
  for (std::vector<size_t>& list : plan) {
    for (size_t i = 0; i < kStreamPerClient; ++i) {
      list.push_back(rng.Below(kColdSpecs));
    }
  }
  for (size_t i = kColdSpecs; i < num_specs; ++i) {
    std::vector<size_t>& list = plan[i % plan.size()];
    size_t slot = rng.Below(list.size());
    while (list[slot] >= kColdSpecs) slot = rng.Below(list.size());
    list[slot] = i;
  }
  return plan;
}

// Preloads the persisted cache with unrelated decided verdicts.
Status PreloadCache(const std::string& path) {
  service::SolveCache cache;
  Rng rng(0xCAC4E);
  for (size_t i = 0; i < kPreloadEntries; ++i) {
    service::CacheKey key;
    key.design_digest = rng.Next();
    key.config_digest = rng.Next();
    key.mutant_key = "op-swap@n" + std::to_string(i) + "#seed=0xca";
    key.depth = 8;
    service::CachedVerdict verdict;
    verdict.classification = fault::Classification::kSurvived;
    cache.Store(key, verdict);
  }
  return cache.Save(path);
}

struct ServeFixture {
  std::string dir;
  std::unique_ptr<service::AqedServer> server;
  std::vector<std::unique_ptr<service::Client>> clients;

  ~ServeFixture() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    std::error_code ignored;
    if (!dir.empty()) std::filesystem::remove_all(dir, ignored);
  }
};

Round RunServeRound(uint64_t seed, int index,
                    const std::vector<Spec>& specs) {
  Round round;
  std::unique_ptr<ServeFixture> fixture;
  // Each repetition tears the previous one down first, outside the timing.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fixture.reset();
    const double t0 = Now();
    fixture = std::make_unique<ServeFixture>();
    // Relative paths keep the socket path short whatever the checkout is.
    fixture->dir = "serve-" + std::to_string(index) + "-" + std::to_string(rep);
    std::filesystem::create_directories(fixture->dir);
    const std::string cache_path = fixture->dir + "/cache.jsonl";
    const Status preloaded = PreloadCache(cache_path);
    if (!preloaded.ok()) round.errors.push_back(preloaded.message());
    service::ServerOptions options;
    options.socket_path = fixture->dir + "/aqed.sock";
    options.executors = 2;
    options.cache_path = cache_path;
    fixture->server = std::make_unique<service::AqedServer>(options);
    const Status started = fixture->server->Start();
    if (!started.ok()) {
      round.errors.push_back("server: " + started.message());
      return round;
    }
    for (int c = 0; c < 2; ++c) {
      fixture->clients.push_back(
          std::make_unique<service::Client>(options.socket_path));
      const Status connected = fixture->clients.back()->Connect();
      if (!connected.ok()) {
        round.errors.push_back("client: " + connected.message());
        return round;
      }
    }
    round.setup_seconds.push_back(Now() - t0);
  }

  (void)perfbench::TakeLayerTotals();  // layers cover the requests only

  // Cold preamble: each client sends half of the distinct cold specs.
  std::vector<std::vector<Reply>> replies(2);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        for (size_t s = c; s < kColdSpecs; s += 2) {
          replies[c].push_back(Send(*fixture->clients[c], specs, s, true));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // The stream.
  const std::vector<std::vector<size_t>> plan = StreamPlan(seed, specs.size());
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        for (const size_t s : plan[c]) {
          replies[c].push_back(Send(*fixture->clients[c], specs, s, false));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double stream_seconds = Now() - t0;
  const double stream_cpu = CpuSeconds() - cpu0;

  std::vector<double> latency, hit_ms, miss_ms, overhead_ms;
  uint64_t hits = 0, misses = 0, mutant_hits = 0, mutant_misses = 0;
  uint64_t stream_requests = 0;
  for (const std::vector<Reply>& list : replies) {
    for (const Reply& reply : list) {
      ++round.attempted;
      if (!reply.ok) {
        ++round.failed;
        if (round.errors.size() < 5) round.errors.push_back(reply.error);
        continue;
      }
      const service::CampaignResponse& response = reply.response;
      round.served.emplace_back(reply.spec, response.digest);
      if (response.classified != response.mutants) {
        ++round.failed;
        round.errors.push_back(SpecName(specs[reply.spec]) +
                               ": unclassified mutants");
      }
      mutant_hits += response.cache_hits;
      mutant_misses += response.cache_misses;
      const bool hit = response.cache_misses == 0;
      if (hit) {
        ++hits;
        hit_ms.push_back(reply.latency_ms);
        overhead_ms.push_back(reply.latency_ms -
                              response.wall_seconds * 1000.0);
      } else {
        ++misses;
        miss_ms.push_back(reply.latency_ms);
      }
      if (!reply.preamble) {
        ++stream_requests;
        latency.push_back(reply.latency_ms);
      }
    }
  }
  std::sort(latency.begin(), latency.end());
  round.verdict_seconds =
      latency.empty() ? 0 : latency[latency.size() / 2] / 1000.0;
  round.cpu_seconds =
      stream_requests == 0 ? 0 : stream_cpu / static_cast<double>(stream_requests);
  round.verdicts_per_second =
      static_cast<double>(stream_requests) / stream_seconds;
  round.effort["serve.requests"] = round.attempted;
  round.effort["serve.hit_requests"] = hits;
  round.effort["serve.miss_requests"] = misses;
  round.effort["serve.mutant_hits"] = mutant_hits;
  round.effort["serve.mutant_misses"] = mutant_misses;
  round.effort["serve.cache_entries"] = fixture->server->cache().size();
  round.effort["serve.rejected"] = fixture->server->rejected();
  round.samples["hit_ms"] = std::move(hit_ms);
  round.samples["miss_ms"] = std::move(miss_ms);
  round.samples["overhead_ms"] = std::move(overhead_ms);
  return round;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string LayersJson(const perfbench::LayerTotals& t) {
  using perfbench::Layer;
  std::vector<std::pair<std::string, double>> fields = {
      {"accel.build_s", t.self(Layer::kAccelBuild)},
      {"aqed.instrument_s", t.self(Layer::kInstrument)},
      {"aqed.instrument_calls", static_cast<double>(t.count(Layer::kInstrument))},
      {"bmc.unroll_s", t.self(Layer::kUnroll)},
      {"bmc.frames", static_cast<double>(t.count(Layer::kUnroll))},
      {"sat.solve_s", t.self(Layer::kSolve)},
      {"sat.solves", static_cast<double>(t.count(Layer::kSolve))},
      {"sat.conflicts", static_cast<double>(t.conflicts)},
      {"sat.propagations", static_cast<double>(t.propagations)},
      {"sat.decisions", static_cast<double>(t.decisions)},
      {"bitblast.vars", static_cast<double>(t.max_vars)},
      {"bitblast.clauses", static_cast<double>(t.max_clauses)},
      {"sat.cube_split_s", t.self(Layer::kCubeSplit)},
      {"sat.clone_s", t.self(Layer::kClone)},
      {"bmc.replay_s", t.self(Layer::kReplay)},
      {"bmc.replays", static_cast<double>(t.count(Layer::kReplay))},
      {"harness.baseline_s", t.self(Layer::kBaseline)},
      {"fault.mutate_s", t.self(Layer::kMutate)},
      {"fault.mutants", static_cast<double>(t.mutants_sampled)},
      {"sched.jobs", static_cast<double>(t.session_attempts)},
      {"sched.serial_s", t.session_serial_seconds},
      {"sched.capacity_s", t.session_capacity_seconds},
      {"decomp.analyze_s",
       t.self(Layer::kDecompRun) + t.self(Layer::kDecompAnalyze)},
      {"ir.digest_s", t.self(Layer::kDigest)},
      {"service.cache_lookup_s", t.self(Layer::kCacheLookup)},
      {"service.cache_lookups", static_cast<double>(t.count(Layer::kCacheLookup))},
      {"service.cache_save_s", t.self(Layer::kCacheSave)},
      {"service.cache_saves", static_cast<double>(t.count(Layer::kCacheSave))},
      {"service.client_calls", static_cast<double>(t.count(Layer::kClient))},
  };
  // Cube balance of the dominant fan-out (largest summed cube time).
  double imbalance = 0, dominant = -1;
  for (const std::vector<double>& cubes : t.cube_solve_seconds) {
    if (cubes.empty()) continue;
    const double sum = std::accumulate(cubes.begin(), cubes.end(), 0.0);
    if (sum > dominant) {
      dominant = sum;
      const double mean = sum / static_cast<double>(cubes.size());
      imbalance = mean > 0
                      ? *std::max_element(cubes.begin(), cubes.end()) / mean
                      : 0;
    }
  }
  fields.emplace_back("sat.cube_imbalance", imbalance);
  fields.emplace_back("sat.cube_fanouts",
                      static_cast<double>(t.cube_solve_seconds.size()));
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    out += Quote(fields[i].first) + ":" + Number(fields[i].second);
  }
  return out + "}";
}

std::string RoundJson(const Round& round) {
  std::string out = "{\"setup_s\":" + NumberList(round.setup_seconds);
  out += ",\"verdict_s\":" + Number(round.verdict_seconds);
  out += ",\"cpu_s\":" + Number(round.cpu_seconds);
  out += ",\"verdicts_per_s\":" + Number(round.verdicts_per_second);
  out += ",\"peak_rss_mb\":" + Number(round.peak_rss_mb);
  out += ",\"attempted\":" + std::to_string(round.attempted);
  out += ",\"failed\":" + std::to_string(round.failed);
  out += ",\"answers\":{";
  bool first = true;
  for (const auto& [key, value] : round.answers) {
    out += (first ? "" : ",") + Quote(key) + ":" + Quote(value);
    first = false;
  }
  out += "},\"effort\":{";
  first = true;
  for (const auto& [key, value] : round.effort) {
    out += (first ? "" : ",") + Quote(key) + ":" + std::to_string(value);
    first = false;
  }
  out += "},\"detail\":{";
  first = true;
  for (const auto& [key, value] : round.detail) {
    out += (first ? "" : ",") + Quote(key) + ":" + Number(value);
    first = false;
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [key, values] : round.samples) {
    out += (first ? "" : ",") + Quote(key) + ":" + NumberList(values);
    first = false;
  }
  out += "},\"errors\":[";
  for (size_t i = 0; i < round.errors.size(); ++i) {
    out += (i > 0 ? "," : "") + Quote(round.errors[i]);
  }
  out += "]";
  if (perfbench::Traced()) out += ",\"layers\":" + LayersJson(round.layers);
  return out + "}";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload check|campaign|serve --seed N "
               "--seconds S\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0) return Usage(argv[0]);

  std::function<Round(int)> run_round;
  const std::vector<Spec> specs = ServeSpecs();
  if (workload == "check") {
    run_round = [seed](int) { return RunCheckRound(seed); };
  } else if (workload == "campaign") {
    run_round = [seed](int) { return RunCampaignRound(seed); };
  } else if (workload == "serve") {
    run_round = [&](int index) { return RunServeRound(seed, index, specs); };
  } else {
    return Usage(argv[0]);
  }

  std::vector<Round> rounds;
  const double deadline = Now() + seconds;
  for (int index = 0; rounds.empty() || Now() < deadline; ++index) {
    const double t0 = Now();
    Round round = run_round(index);
    round.layers = perfbench::TakeLayerTotals();
    round.peak_rss_mb = PeakRssMb();
    std::fprintf(stderr, "[perfbench] %s round %d: %.3f s\n",
                 workload.c_str(), index, Now() - t0);
    rounds.push_back(std::move(round));
  }
  // The reference runs come after the rounds, so they touch neither the
  // first round's peak RSS nor any round's layer totals.
  if (workload == "serve") {
    const std::vector<uint64_t> direct = DirectDigests(specs);
    for (Round& round : rounds) CheckServed(direct, round);
  }

  std::string out = "{\"workload\":" + Quote(workload) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"traced\":" + (perfbench::Traced() ? "true" : "false") +
                    ",\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    out += (i > 0 ? "," : "") + RoundJson(rounds[i]);
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}
