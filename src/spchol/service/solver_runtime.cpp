#include "spchol/service/solver_runtime.hpp"

#include <algorithm>
#include <string>

#include "spchol/support/common.hpp"

namespace spchol {

void validate(const RuntimeOptions& opts) {
  if (opts.workers < 0) {
    throw InvalidArgument(
        "RuntimeOptions::workers must be >= 0 (0 = hardware concurrency); "
        "got " +
        std::to_string(opts.workers));
  }
  if (opts.max_concurrent < 1) {
    throw InvalidArgument("RuntimeOptions::max_concurrent must be >= 1; got " +
                          std::to_string(opts.max_concurrent));
  }
  gpu::validate(opts.device, "RuntimeOptions::device");
}

SolverRuntime::SolverRuntime(const RuntimeOptions& opts)
    : crew_((validate(opts), resolve_worker_count(opts.workers))),
      device_(opts.device),
      max_concurrent_(static_cast<std::size_t>(opts.max_concurrent)) {
  device_.set_crew(&crew_);
}

SolverRuntime::Admission::~Admission() {
  if (rt_ != nullptr) rt_->release();
}

SolverRuntime::Admission SolverRuntime::admit() {
  std::unique_lock<std::mutex> lk(mu_);
  if (in_flight_ >= max_concurrent_) {
    admission_waits_++;
    cv_.wait(lk, [&] { return in_flight_ < max_concurrent_; });
  }
  in_flight_++;
  factorizations_++;
  concurrent_peak_ = std::max(concurrent_peak_, in_flight_);
  return Admission(this);
}

void SolverRuntime::release() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    in_flight_--;
  }
  cv_.notify_one();
}

RuntimeStats SolverRuntime::stats() const {
  RuntimeStats st;
  {
    std::lock_guard<std::mutex> lk(mu_);
    st.factorizations = factorizations_;
    st.admission_waits = admission_waits_;
    st.concurrent_peak = concurrent_peak_;
    st.in_flight = in_flight_;
  }
  st.pools_cached = pools_.cached;
  st.pool_hits = pools_.hits;
  st.pool_misses = pools_.misses;
  st.pool_evictions = pools_.evictions;
  return st;
}

}  // namespace spchol
