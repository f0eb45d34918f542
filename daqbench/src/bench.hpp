/// \file bench.hpp
/// \brief Shared pieces of the DAQ benchmark: the clock, order statistics,
///        per-wedge records, the pass-through tracing codec and the output
///        checks.  Everything here talks to the library through its public
///        headers only.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "codec/wedge_codec.hpp"
#include "core/tensor.hpp"

namespace daqbench {

namespace codec = nc::codec;
namespace core = nc::core;

// ---------------------------------------------------------------------------
// Clock and order statistics
// ---------------------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Metrics, printed in insertion order
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// ---------------------------------------------------------------------------
// Per-wedge records
// ---------------------------------------------------------------------------

/// Timestamps and output verdict of one offered wedge, indexed by its global
/// submission index.  The producer writes the submit stamps, the tracing
/// codec the transform stamps and the sink the rest; every field has one
/// writer, and all are read only after the pipeline or service is joined.
struct Record {
  std::int64_t t_sched = 0;  ///< when the wedge was due to be sent
  std::int64_t t_call = 0;   ///< submit call entered
  std::int64_t t_ret = 0;    ///< submit call returned
  std::int64_t t_tx0 = 0;    ///< codec batch call that carried it started
  std::int64_t t_tx1 = 0;    ///< ... and ended
  std::int64_t t_sink = 0;   ///< delivered to the sink
  std::int32_t pool_idx = -1;
  std::int32_t stream = 0;   ///< session index (0 for a pipeline)
  std::uint64_t seq = 0;     ///< pipeline or session sequence number
  double ratio = 0.0;        ///< compression ratio of the delivered envelope
  const char* problem = nullptr;  ///< what the sink found wrong with the output
};

/// One ordered output stream: a pipeline, or one service session.
struct Stream {
  std::vector<std::size_t> g_of_seq;     ///< seq -> global submission index
  std::vector<std::uint64_t> sink_order; ///< seqs in the order the sink saw them
  std::atomic<std::size_t> n_sunk{0};
  std::uint64_t next_seq = 0;            ///< producer only
  std::vector<std::uint64_t> accepted;   ///< seqs that must be delivered
};

// ---------------------------------------------------------------------------
// Tracing: a pass-through WedgeCodec decorator recording one span per call
// ---------------------------------------------------------------------------

struct CodecTotals {
  double busy_s = 0.0;
  std::int64_t wedges = 0;
};

/// Span store for the traced run.  The producer registers each wedge's
/// buffer address before submitting it; a batch call looks its inputs up
/// and stamps their records with the call's start and end.
class SpanLog {
 public:
  explicit SpanLog(std::vector<Record>* records) : records_(records) {}

  void expect(const void* key, std::size_t g) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_[key] = g;
  }

  void record(const std::string& span_name, std::int64_t t0, std::int64_t t1,
              const std::vector<const void*>& keys) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& tot = totals_[span_name];
    tot.busy_s += static_cast<double>(t1 - t0) * 1e-9;
    tot.wedges += static_cast<std::int64_t>(keys.size());
    calls_ += 1;
    for (const void* key : keys) {
      const auto it = pending_.find(key);
      if (it == pending_.end()) {
        ++unmatched_;
        continue;
      }
      auto& r = (*records_)[it->second];
      r.t_tx0 = t0;
      r.t_tx1 = t1;
      pending_.erase(it);
    }
  }

  // Read after the traced system has been joined.
  const std::map<std::string, CodecTotals>& totals() const { return totals_; }
  std::int64_t calls() const { return calls_; }
  std::int64_t unmatched() const { return unmatched_; }

 private:
  std::vector<Record>* records_;
  std::mutex mutex_;
  std::unordered_map<const void*, std::size_t> pending_;
  std::map<std::string, CodecTotals> totals_;
  std::int64_t calls_ = 0;
  std::int64_t unmatched_ = 0;
};

/// Pass-through decorator: forwards every call to `inner` unchanged and
/// records the call's span.  It must never alter an output; the self-test
/// checks that envelopes and tensors are identical with and without it.
class TracingCodec final : public codec::WedgeCodec {
 public:
  TracingCodec(const codec::WedgeCodec& inner, SpanLog& log)
      : inner_(inner), log_(log), name_(inner.name()) {}

  std::uint8_t codec_id() const override { return inner_.codec_id(); }
  std::string name() const override { return name_; }

  std::vector<codec::WedgeEnvelope> compress_batch(
      const std::vector<core::Tensor>& wedges) const override {
    const std::int64_t t0 = now_ns();
    auto out = inner_.compress_batch(wedges);
    const std::int64_t t1 = now_ns();
    std::vector<const void*> keys;
    keys.reserve(wedges.size());
    for (const auto& w : wedges) keys.push_back(w.data());
    log_.record(name_ + ".compress", t0, t1, keys);
    return out;
  }

  std::vector<core::Tensor> decompress_batch(
      const std::vector<codec::WedgeEnvelope>& envelopes) const override {
    const std::int64_t t0 = now_ns();
    auto out = inner_.decompress_batch(envelopes);
    const std::int64_t t1 = now_ns();
    std::vector<const void*> keys;
    keys.reserve(envelopes.size());
    for (const auto& e : envelopes) keys.push_back(e.payload.data());
    log_.record(name_ + ".decompress", t0, t1, keys);
    return out;
  }

 private:
  const codec::WedgeCodec& inner_;
  SpanLog& log_;
  std::string name_;
};

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

class Violations {
 public:
  void add(const std::string& what) {
    if (messages_.size() < kMaxMessages) messages_.push_back(what);
    ++count_;
  }
  std::int64_t count() const { return count_; }
  bool any() const { return count_ > 0; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  static constexpr std::size_t kMaxMessages = 20;
  std::vector<std::string> messages_;
  std::int64_t count_ = 0;
};

/// Every accepted seq of `stream` reached the sink exactly once, and the
/// sink saw them in increasing order.
inline void check_sequence(const std::string& stream, const Stream& s,
                           Violations& v) {
  const std::size_t n = s.n_sunk.load();
  std::map<std::uint64_t, int> seen;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seq = s.sink_order[i];
    if (i > 0 && seq <= s.sink_order[i - 1]) {
      v.add(stream + ": seq " + std::to_string(seq) + " delivered out of order");
    }
    ++seen[seq];
  }
  for (const std::uint64_t seq : s.accepted) {
    const auto it = seen.find(seq);
    if (it == seen.end()) {
      v.add(stream + ": seq " + std::to_string(seq) + " never delivered");
      continue;
    }
    if (it->second > 1) {
      v.add(stream + ": seq " + std::to_string(seq) + " delivered " +
            std::to_string(it->second) + " times");
    }
    seen.erase(it);
  }
  for (const auto& [seq, times] : seen) {
    v.add(stream + ": seq " + std::to_string(seq) +
          " delivered but never accepted");
  }
}

inline bool all_finite(const core::Tensor& t) {
  const float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

/// A delivered envelope must equal, byte for byte, the direct single-wedge
/// compress of the same wedge by the codec that stamped it.  Returns what is
/// wrong, or nullptr.
inline const char* envelope_problem(const codec::WedgeEnvelope& got,
                                    const codec::WedgeEnvelope& want) {
  if (got.codec_id != want.codec_id || !(got.wedge_shape == want.wedge_shape) ||
      got.payload != want.payload) {
    return "envelope differs from a direct compress";
  }
  return nullptr;
}

/// A decoded wedge must be correctly shaped, finite and bit-identical to a
/// direct single-envelope decompress.  Returns what is wrong, or nullptr.
inline const char* decoded_problem(const core::Tensor& got, const core::Tensor& want) {
  if (got.shape() != want.shape()) return "decoded wedge has the wrong shape";
  if (!all_finite(got)) return "decoded wedge is not finite";
  if (std::memcmp(got.data(), want.data(),
                  static_cast<std::size_t>(got.numel()) * sizeof(float)) != 0) {
    return "decoded wedge differs from a direct decompress";
  }
  return nullptr;
}

}  // namespace daqbench
