// Per-layer accounting for the traced benchmark binary.
//
// The traced binary (perfbench_traced) links the aqed library as a shared,
// interposable object and defines its own versions of a set of public
// functions (interpose.cpp). Each one opens a Span around the call into
// the real library function, so a layer's time and work counts are
// measured at the module boundary without any tracing inside the program.
// The untraced binary links none of that: Traced() is false there and every
// total stays zero.
//
// Spans nest per thread; a layer's self time is its spans' durations minus
// the time covered by child spans on the same thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace perfbench {

enum class Layer : int {
  kAccelBuild,   // accel::Build* — elaborating a design into the IR
  kInstrument,   // core::InstrumentFc/Rb/Sac
  kUnroll,       // bmc::Unroller::AddFrame (includes bit-blasting)
  kSolve,        // sat::Solver::Solve
  kCubeSplit,    // sat::CubeSplitter::Split
  kClone,        // sat::Solver::Clone
  kReplay,       // bmc::ReplayTrace
  kBaseline,     // harness::RunCampaign (conventional random simulation)
  kMutate,       // fault::SampleMutants / ApplyMutant
  kSession,      // sched::VerificationSession::Wait
  kDecompRun,    // decomp::DecomposedSession::Run
  kDecompAnalyze,  // decomp::Decomposition::Analyze
  kDigest,       // ir::StructuralDigest / AnonymousStructuralDigest
  kCacheLookup,  // service::SolveCache::Lookup
  kCacheSave,    // service::SolveCache::Save
  kClient,       // service::Client::RunCampaign
  kCount,
};

// Totals since the last TakeLayerTotals().
struct LayerTotals {
  double self_seconds[static_cast<int>(Layer::kCount)] = {};
  uint64_t calls[static_cast<int>(Layer::kCount)] = {};

  // sat::Solver::Solve effort, summed over every solver (cube clones too).
  uint64_t conflicts = 0;
  uint64_t propagations = 0;
  uint64_t decisions = 0;
  // Size of the largest solver handed to Solve (its last depth).
  uint64_t max_vars = 0;
  uint64_t max_clauses = 0;

  uint64_t mutants_sampled = 0;  // keys returned by fault::SampleMutants

  // VerificationSession::Wait results: executed attempts, summed per-job
  // wall time, and summed session wall x worker count.
  uint64_t session_attempts = 0;
  double session_serial_seconds = 0;
  double session_capacity_seconds = 0;

  // Cube fan-outs: per escalation, the solve time of each cube clone.
  std::vector<std::vector<double>> cube_solve_seconds;

  double self(Layer layer) const {
    return self_seconds[static_cast<int>(layer)];
  }
  uint64_t count(Layer layer) const { return calls[static_cast<int>(layer)]; }
};

// True in the traced binary.
bool Traced();

// Returns the totals accumulated so far and resets them.
LayerTotals TakeLayerTotals();

// RAII span: counts one call of `layer` and charges its self time.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Seconds since the span opened.
  double Elapsed() const;

 private:
  Layer layer_;
  std::chrono::steady_clock::time_point start_;
  double child_seconds_ = 0;
  Span* parent_;
};

// The shared totals and the mutex guarding them.
std::mutex& TotalsMutex();
LayerTotals& Totals();

// Applies `update` to the shared totals under their lock.
template <typename F>
void UpdateTotals(F&& update) {
  const std::lock_guard<std::mutex> lock(TotalsMutex());
  update(Totals());
}

}  // namespace perfbench
