#include "spchol/gpu/device.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

namespace spchol::gpu {

void Device::mem_acquire(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  if (mem_used_ + bytes > cfg_.memory_bytes) {
    throw DeviceOutOfMemory(bytes, mem_used_, cfg_.memory_bytes);
  }
  mem_used_ += bytes;
  mem_peak_ = std::max(mem_peak_, mem_used_);
}

void Device::mem_release(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  SPCHOL_CHECK(bytes <= mem_used_, "device memory accounting underflow");
  mem_used_ -= bytes;
}

std::size_t Device::mem_used() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return mem_used_;
}

std::size_t Device::mem_peak() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return mem_peak_;
}

DeviceStats Device::stats() const {
  DeviceStats st;
  st.h2d_bytes = h2d_bytes_.load(std::memory_order_relaxed);
  st.d2h_bytes = d2h_bytes_.load(std::memory_order_relaxed);
  st.num_h2d = num_h2d_.load(std::memory_order_relaxed);
  st.num_d2h = num_d2h_.load(std::memory_order_relaxed);
  st.num_kernels = num_kernels_.load(std::memory_order_relaxed);
  return st;
}

void validate(const DeviceConfig& cfg, const char* what) {
  const PerfModel& m = cfg.model;
  const std::pair<const char*, double> rates[] = {
      {"cpu_core_gflops", m.cpu_core_gflops},
      {"gpu_peak_gflops", m.gpu_peak_gflops},
      {"h2d_gbytes_per_s", m.h2d_gbytes_per_s},
      {"d2h_gbytes_per_s", m.d2h_gbytes_per_s},
  };
  const std::pair<const char*, double> costs[] = {
      {"cpu_call_overhead", m.cpu_call_overhead},
      {"cpu_per_thread_overhead", m.cpu_per_thread_overhead},
      {"gpu_kernel_launch", m.gpu_kernel_launch},
      {"issue_overhead", m.issue_overhead},
      {"gpu_batch_member_overhead", m.gpu_batch_member_overhead},
      {"cpu_batch_member_overhead", m.cpu_batch_member_overhead},
      {"transfer_latency", m.transfer_latency},
      {"assembly_seconds_per_entry", m.assembly_seconds_per_entry},
      {"assembly_fork_overhead", m.assembly_fork_overhead},
  };
  auto reject = [&](const char* field, double v, const char* rule) {
    throw InvalidArgument(std::string(what) + ".model." + field + " must be " +
                          rule + "; got " + std::to_string(v));
  };
  for (const auto& [field, v] : rates) {
    if (!std::isfinite(v) || !(v > 0.0)) {
      reject(field, v, "positive and finite");
    }
  }
  for (const auto& [field, v] : costs) {
    if (!std::isfinite(v) || !(v >= 0.0)) {
      reject(field, v, "non-negative and finite");
    }
  }
}

int Device::record(Stream s, OpKind kind, double seconds,
                   std::size_t bytes) {
  constexpr auto relaxed = std::memory_order_relaxed;
  if (kind == OpKind::kH2D) {
    h2d_bytes_.fetch_add(bytes, relaxed);
    num_h2d_.fetch_add(1, relaxed);
  } else if (kind == OpKind::kD2H) {
    d2h_bytes_.fetch_add(bytes, relaxed);
    num_d2h_.fetch_add(1, relaxed);
  } else if (kind == OpKind::kKernel) {
    num_kernels_.fetch_add(1, relaxed);
  }
  if (s.rec == nullptr) return -1;
  Op op;
  op.kind = kind;
  op.role = s.role;
  op.after = s.after;
  op.issue = cfg_.model.issue_overhead;
  op.seconds = seconds;
  op.bytes = bytes;
  s.rec->push_back(op);
  return static_cast<int>(s.rec->size()) - 1;
}

int Stream::last() const {
  if (rec == nullptr) return -1;
  for (int k = static_cast<int>(rec->size()) - 1; k >= 0; --k) {
    const Op& op = (*rec)[static_cast<std::size_t>(k)];
    if (op.role == role &&
        (op.kind == OpKind::kKernel || op.kind == OpKind::kH2D ||
         op.kind == OpKind::kD2H)) {
      return k;
    }
  }
  return -1;
}

DeviceBuffer::DeviceBuffer(Device& dev, std::size_t count)
    : dev_(&dev), count_(count) {
  dev.mem_acquire(count * sizeof(double));
  data_ = count > 0 ? new double[count] : nullptr;
}

DeviceBuffer::~DeviceBuffer() { release(); }

void DeviceBuffer::release() {
  if (dev_ != nullptr) {
    dev_->mem_release(count_ * sizeof(double));
    delete[] data_;
    dev_ = nullptr;
    data_ = nullptr;
    count_ = 0;
  }
}

DeviceBuffer::DeviceBuffer(DeviceBuffer&& o) noexcept
    : dev_(o.dev_), data_(o.data_), count_(o.count_) {
  o.dev_ = nullptr;
  o.data_ = nullptr;
  o.count_ = 0;
}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& o) noexcept {
  if (this != &o) {
    release();
    dev_ = o.dev_;
    data_ = o.data_;
    count_ = o.count_;
    o.dev_ = nullptr;
    o.data_ = nullptr;
    o.count_ = 0;
  }
  return *this;
}

void host_wait(Stream s, int op) {
  if (s.rec != nullptr) {
    s.rec->push_back({OpKind::kWait, s.role, op});
  }
}

int copy_h2d(Device& dev, Stream s, DeviceBuffer& dst, std::size_t dst_off,
             const double* src, std::size_t count, bool async) {
  SPCHOL_CHECK(dst_off + count <= dst.size(), "h2d copy out of range");
  const std::size_t bytes = count * sizeof(double);
  std::memcpy(dst.data() + dst_off, src, bytes);
  const int op = dev.record(
      s, OpKind::kH2D, dev.model().h2d_seconds(static_cast<double>(bytes)),
      bytes);
  if (!async) host_wait(s, op);
  return op;
}

int copy_d2h(Device& dev, Stream s, double* dst, const DeviceBuffer& src,
             std::size_t src_off, std::size_t count, bool async) {
  SPCHOL_CHECK(src_off + count <= src.size(), "d2h copy out of range");
  const std::size_t bytes = count * sizeof(double);
  std::memcpy(dst, src.data() + src_off, bytes);
  const int op = dev.record(
      s, OpKind::kD2H, dev.model().d2h_seconds(static_cast<double>(bytes)),
      bytes);
  if (!async) host_wait(s, op);
  return op;
}

bool PoolCell::drop_idle() {
  std::lock_guard<std::mutex> lk(mu_);
  // use_count() == 1: only the cell holds the pool, so dropping it
  // cannot pull slots out from under a live run.
  if (pool_ == nullptr || pool_.use_count() != 1) return false;
  pool_.reset();  // slot destructors release device memory here
  ledger_->cached--;
  ledger_->evictions++;
  return true;
}

bool PoolCell::covers_locked(const Caps& caps) const {
  if (pool_ == nullptr || caps.size() > caps_.size()) return false;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    if (caps[k].first > caps_[k].first || caps[k].second > caps_[k].second) {
      return false;
    }
  }
  return true;
}

}  // namespace spchol::gpu
