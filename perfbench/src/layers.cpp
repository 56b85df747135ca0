#include "layers.h"

namespace perfbench {

namespace {

// Innermost open span of this thread (spans nest strictly per thread).
thread_local Span* current_span = nullptr;

}  // namespace

#ifndef PERFBENCH_TRACED
bool Traced() { return false; }
#else
bool Traced() { return true; }
#endif

std::mutex& TotalsMutex() {
  static std::mutex mutex;
  return mutex;
}

LayerTotals& Totals() {
  static LayerTotals totals;
  return totals;
}

LayerTotals TakeLayerTotals() {
  const std::lock_guard<std::mutex> lock(TotalsMutex());
  LayerTotals taken = Totals();
  Totals() = LayerTotals{};
  return taken;
}

Span::Span(Layer layer)
    : layer_(layer),
      start_(std::chrono::steady_clock::now()),
      parent_(current_span) {
  current_span = this;
}

Span::~Span() {
  const double elapsed = Elapsed();
  current_span = parent_;
  if (parent_ != nullptr) parent_->child_seconds_ += elapsed;
  const int index = static_cast<int>(layer_);
  UpdateTotals([&](LayerTotals& totals) {
    totals.self_seconds[index] += elapsed - child_seconds_;
    ++totals.calls[index];
  });
}

double Span::Elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace perfbench
