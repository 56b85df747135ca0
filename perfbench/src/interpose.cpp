// Layer boundaries of the traced benchmark binary.
//
// perfbench_traced links the aqed sources as a shared library built with
// -fPIC, so every call to one of the public functions below — from the
// benchmark or from inside the library — binds through the dynamic linker
// to the definition in this executable, which comes first in symbol lookup.
// Each definition opens a layer span (layers.h), forwards to the library's
// own definition (found with dlsym(RTLD_NEXT) under the same mangled name),
// and records the work counts the layer's public results expose.
//
// Nothing here changes what the library computes: arguments and results
// pass through untouched, which run.py checks by comparing the traced run's
// effort counters with the untraced run's.
#include <dlfcn.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "accel/dataflow.h"
#include "accel/memctrl.h"
#include "accel/multi_action.h"
#include "accel/optflow.h"
#include "accel/widepipe.h"
#include "aqed/fc_instrument.h"
#include "aqed/rb_instrument.h"
#include "aqed/sac_instrument.h"
#include "bmc/trace.h"
#include "bmc/unroller.h"
#include "decomp/decomposition.h"
#include "decomp/session.h"
#include "fault/mutator.h"
#include "harness/conventional_flow.h"
#include "ir/digest.h"
#include "layers.h"
#include "sat/cube.h"
#include "sat/solver.h"
#include "sched/session.h"
#include "sched/thread_pool.h"
#include "service/cache.h"
#include "service/client.h"

namespace {

using perfbench::Layer;
using perfbench::LayerTotals;
using perfbench::Span;

// The library's definition of the function whose interposing definition
// sits at `self` in this executable.
void* NextDefinition(void* self) {
  Dl_info info{};
  if (dladdr(self, &info) == 0 || info.dli_sname == nullptr) {
    std::fprintf(stderr, "perfbench_traced: no symbol at %p\n", self);
    std::abort();
  }
  void* next = dlsym(RTLD_NEXT, info.dli_sname);
  if (next == nullptr || next == self) {
    std::fprintf(stderr, "perfbench_traced: %s is not interposable\n",
                 info.dli_sname);
    std::abort();
  }
  return next;
}

// Free functions: the real definition has the interposer's own type.
template <typename Fn>
Fn Real(Fn self) {
  return reinterpret_cast<Fn>(NextDefinition(reinterpret_cast<void*>(self)));
}

// Non-virtual member functions: under the Itanium C++ ABI the first word of
// a member-function pointer is the code address, and the member is called
// like a free function taking the object pointer first.
template <typename Fn, typename Member>
Fn RealMember(Member member) {
  static_assert(sizeof(Member) >= sizeof(void*));
  void* self = nullptr;
  std::memcpy(&self, &member, sizeof(self));
  return reinterpret_cast<Fn>(NextDefinition(self));
}

// Cube clones awaiting their one Solve, mapped to their escalation index in
// LayerTotals::cube_solve_seconds. Guarded by the totals mutex.
std::unordered_map<const aqed::sat::Solver*, size_t>& PendingClones() {
  static std::unordered_map<const aqed::sat::Solver*, size_t> clones;
  return clones;
}

}  // namespace

// --- accel ----------------------------------------------------------------

namespace aqed::accel {

MemCtrlDesign BuildMemCtrl(ir::TransitionSystem& ts, MemCtrlConfig config,
                           MemCtrlBug bug) {
  static const auto real = Real(&BuildMemCtrl);
  const Span span(Layer::kAccelBuild);
  return real(ts, config, bug);
}

AluDesign BuildAlu(ir::TransitionSystem& ts, const AluConfig& config) {
  static const auto real = Real(&BuildAlu);
  const Span span(Layer::kAccelBuild);
  return real(ts, config);
}

DataflowDesign BuildDataflow(ir::TransitionSystem& ts,
                             const DataflowConfig& config) {
  static const auto real = Real(&BuildDataflow);
  const Span span(Layer::kAccelBuild);
  return real(ts, config);
}

OptFlowDesign BuildOptFlow(ir::TransitionSystem& ts,
                           const OptFlowConfig& config) {
  static const auto real = Real(&BuildOptFlow);
  const Span span(Layer::kAccelBuild);
  return real(ts, config);
}

WidePipeDesign BuildWidePipe(ir::TransitionSystem& ts,
                             const WidePipeConfig& config) {
  static const auto real = Real(&BuildWidePipe);
  const Span span(Layer::kAccelBuild);
  return real(ts, config);
}

}  // namespace aqed::accel

// --- aqed instrumentation ---------------------------------------------------

namespace aqed::core {

FcInstrumentation InstrumentFc(ir::TransitionSystem& ts,
                               const AcceleratorInterface& acc,
                               const FcOptions& options) {
  static const auto real = Real(&InstrumentFc);
  const Span span(Layer::kInstrument);
  return real(ts, acc, options);
}

RbInstrumentation InstrumentRb(ir::TransitionSystem& ts,
                               const AcceleratorInterface& acc,
                               const RbOptions& options) {
  static const auto real = Real(&InstrumentRb);
  const Span span(Layer::kInstrument);
  return real(ts, acc, options);
}

SacInstrumentation InstrumentSac(ir::TransitionSystem& ts,
                                 const AcceleratorInterface& acc,
                                 const SpecFn& spec,
                                 const SacOptions& options) {
  static const auto real = Real(&InstrumentSac);
  const Span span(Layer::kInstrument);
  return real(ts, acc, spec, options);
}

}  // namespace aqed::core

// --- bmc ------------------------------------------------------------------

namespace aqed::bmc {

void Unroller::AddFrame() {
  using Fn = void (*)(Unroller*);
  static const Fn real = RealMember<Fn>(&Unroller::AddFrame);
  const Span span(Layer::kUnroll);
  real(this);
}

bool ReplayTrace(const ir::TransitionSystem& ts, const Trace& trace) {
  static const auto real = Real(&ReplayTrace);
  const Span span(Layer::kReplay);
  return real(ts, trace);
}

}  // namespace aqed::bmc

// --- sat ------------------------------------------------------------------

namespace aqed::sat {

SolveResult Solver::Solve(std::span<const Lit> assumptions,
                          const SolveLimits& limits) {
  using Fn = SolveResult (*)(Solver*, std::span<const Lit>,
                             const SolveLimits&);
  using Member = SolveResult (Solver::*)(std::span<const Lit>,
                                         const SolveLimits&);
  static const Fn real = RealMember<Fn>(static_cast<Member>(&Solver::Solve));
  const Statistics before = stats();
  const uint64_t vars = num_vars();
  const uint64_t clauses = num_clauses();
  SolveResult result;
  double seconds = 0;
  {
    const Span span(Layer::kSolve);
    result = real(this, assumptions, limits);
    seconds = span.Elapsed();
  }
  const Statistics& after = stats();
  perfbench::UpdateTotals([&](LayerTotals& totals) {
    totals.conflicts += after.conflicts - before.conflicts;
    totals.propagations += after.propagations - before.propagations;
    totals.decisions += after.decisions - before.decisions;
    totals.max_vars = std::max(totals.max_vars, vars);
    totals.max_clauses = std::max(totals.max_clauses, clauses);
    const auto clone = PendingClones().find(this);
    if (clone != PendingClones().end()) {
      totals.cube_solve_seconds[clone->second].push_back(seconds);
      PendingClones().erase(clone);
    }
  });
  return result;
}

std::unique_ptr<Solver> Solver::Clone(const Options& options) const {
  using Fn = std::unique_ptr<Solver> (*)(const Solver*, const Options&);
  static const Fn real = RealMember<Fn>(&Solver::Clone);
  std::unique_ptr<Solver> clone;
  {
    const Span span(Layer::kClone);
    clone = real(this, options);
  }
  perfbench::UpdateTotals([&](LayerTotals& totals) {
    // Clones belong to the most recent split: the engine clones only for
    // the cube fan-out it has just split.
    if (!totals.cube_solve_seconds.empty()) {
      PendingClones()[clone.get()] = totals.cube_solve_seconds.size() - 1;
    }
  });
  return clone;
}

std::vector<std::vector<Lit>> CubeSplitter::Split(const Solver& solver) const {
  using Fn = std::vector<std::vector<Lit>> (*)(const CubeSplitter*,
                                               const Solver&);
  static const Fn real = RealMember<Fn>(&CubeSplitter::Split);
  std::vector<std::vector<Lit>> cubes;
  {
    const Span span(Layer::kCubeSplit);
    cubes = real(this, solver);
  }
  perfbench::UpdateTotals(
      [](LayerTotals& totals) { totals.cube_solve_seconds.emplace_back(); });
  return cubes;
}

}  // namespace aqed::sat

// --- sched ----------------------------------------------------------------

namespace aqed::sched {

core::SessionResult VerificationSession::Wait() {
  using Fn = core::SessionResult (*)(VerificationSession*);
  static const Fn real = RealMember<Fn>(&VerificationSession::Wait);
  core::SessionResult result;
  {
    const Span span(Layer::kSession);
    result = real(this);
  }
  const uint32_t workers = options().jobs == 0
                               ? sched::ThreadPool::HardwareJobs()
                               : options().jobs;
  perfbench::UpdateTotals([&](LayerTotals& totals) {
    totals.session_attempts += result.stats.num_jobs();
    totals.session_serial_seconds += result.stats.serial_seconds();
    totals.session_capacity_seconds += result.wall_seconds * workers;
  });
  return result;
}

}  // namespace aqed::sched

// --- fault / harness ----------------------------------------------------------

namespace aqed::fault {

std::vector<MutantKey> SampleMutants(const ir::TransitionSystem& ts,
                                     const core::AcceleratorInterface& acc,
                                     uint64_t seed, uint32_t count) {
  static const auto real = Real(&SampleMutants);
  std::vector<MutantKey> keys;
  {
    const Span span(Layer::kMutate);
    keys = real(ts, acc, seed, count);
  }
  perfbench::UpdateTotals(
      [&](LayerTotals& totals) { totals.mutants_sampled += keys.size(); });
  return keys;
}

std::vector<ir::NodeRef> ApplyMutant(const ir::TransitionSystem& src,
                                     const MutantKey& key,
                                     ir::TransitionSystem& dst) {
  static const auto real = Real(&ApplyMutant);
  const Span span(Layer::kMutate);
  return real(src, key, dst);
}

}  // namespace aqed::fault

namespace aqed::harness {

CampaignResult RunCampaign(
    const std::function<core::AcceleratorInterface(ir::TransitionSystem&)>&
        build,
    const GoldenFn& golden, const CampaignOptions& options) {
  static const auto real = Real(&RunCampaign);
  const Span span(Layer::kBaseline);
  return real(build, golden, options);
}

}  // namespace aqed::harness

// --- decomp / ir ------------------------------------------------------------

namespace aqed::decomp {

StatusOr<DecompositionResult> DecomposedSession::Run() {
  using Fn = StatusOr<DecompositionResult> (*)(DecomposedSession*);
  static const Fn real = RealMember<Fn>(&DecomposedSession::Run);
  const Span span(Layer::kDecompRun);
  return real(this);
}

StatusOr<CutCoverage> Decomposition::Analyze() const {
  using Fn = StatusOr<CutCoverage> (*)(const Decomposition*);
  static const Fn real = RealMember<Fn>(&Decomposition::Analyze);
  const Span span(Layer::kDecompAnalyze);
  return real(this);
}

}  // namespace aqed::decomp

namespace aqed::ir {

uint64_t StructuralDigest(const TransitionSystem& ts) {
  static const auto real = Real(&StructuralDigest);
  const Span span(Layer::kDigest);
  return real(ts);
}

uint64_t AnonymousStructuralDigest(const TransitionSystem& ts) {
  static const auto real = Real(&AnonymousStructuralDigest);
  const Span span(Layer::kDigest);
  return real(ts);
}

}  // namespace aqed::ir

// --- service ----------------------------------------------------------------

namespace aqed::service {

std::optional<CachedVerdict> SolveCache::Lookup(const CacheKey& key) {
  using Fn = std::optional<CachedVerdict> (*)(SolveCache*, const CacheKey&);
  static const Fn real = RealMember<Fn>(&SolveCache::Lookup);
  const Span span(Layer::kCacheLookup);
  return real(this, key);
}

Status SolveCache::Save(const std::string& path) {
  using Fn = Status (*)(SolveCache*, const std::string&);
  static const Fn real = RealMember<Fn>(&SolveCache::Save);
  const Span span(Layer::kCacheSave);
  return real(this, path);
}

StatusOr<CampaignResponse> Client::RunCampaign(const CampaignRequest& request) {
  using Fn = StatusOr<CampaignResponse> (*)(Client*, const CampaignRequest&);
  static const Fn real = RealMember<Fn>(&Client::RunCampaign);
  const Span span(Layer::kClient);
  return real(this, request);
}

}  // namespace aqed::service
