/// \file main.cpp
/// \brief DAQ benchmark: drives StreamCompressor and CompressionService over
///        registry WedgeCodecs with wedges generated
///        from the workload seed, checks every output, and prints one JSON
///        result line.  See daqbench/README.md for the workloads and metrics.
///
///   daq_bench --workload NAME --seed N --seconds S --trace 0|1 [--commit SHA]
///   daq_bench --selftest
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "bcae/model.hpp"
#include "bench.hpp"
#include "codec/service.hpp"
#include "codec/stream.hpp"
#include "core/simd_dispatch.hpp"
#include "sweep.hpp"
#include "tpc/dataset.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/topology.hpp"

#ifndef DAQBENCH_BUILD_TYPE
#define DAQBENCH_BUILD_TYPE "unknown"
#endif

namespace daqbench {
namespace {

namespace bcae = nc::bcae;
namespace tpc = nc::tpc;
using codec::WedgeEnvelope;
using core::Tensor;

// ---------------------------------------------------------------------------
// Workloads.  The constants are part of the workload definition and are
// never calibrated at run time.
// ---------------------------------------------------------------------------

enum class Kind { kEncode, kService };

struct Spec {
  const char* name;
  Kind kind;
  const char* codec;  ///< registry codec of the pipeline (encode workload)
};

constexpr Spec kSpecs[] = {
    {"encode-2d-int8", Kind::kEncode, "bcae-int8"},
    {"service-lite", Kind::kService, nullptr},
};

constexpr std::uint64_t kModelSeed = 2023;  // untrained, seeded weights
constexpr std::size_t kBatch = 8;
// The pool is spread over several events so that one seed's pile-up does not
// set the whole run's data: the lite codecs' cost and ratio follow it.
constexpr std::int64_t kEvents = 8;
constexpr std::size_t kPoolWedges = 64;
constexpr int kSetupReps = 25;  // setup_s is the median of this many set-ups
// About a quarter of what two workers sustain on a 4-core host.  At half
// (1000/s) queueing magnified the host's own speed drift: the p50 and p99
// latency spread by 30% between runs, against 6% and 17% here.
constexpr double kServiceRateWps = 500.0;
constexpr std::size_t kServiceWorkers = 2;
constexpr const char* kSessionCodecs[] = {"zfp", "zfp", "sz", "mgard"};
constexpr std::size_t kSessions = 4;
// Share of the arrivals per session.  Each codec puts its own mode into the
// latency distribution; with an even split half the wedges are zfp and the
// median sits on the gap between the zfp and sz modes, where it swings by a
// third from run to run.  With 70% zfp it sits inside the zfp mode.
constexpr double kSessionShare[] = {0.35, 0.35, 0.15, 0.15};
constexpr float kSzBound = 0.25f;  // the registry's sz error bound
constexpr double kStageClosureTolerance = 0.05;
constexpr std::int64_t kLatencyWindowNs = 250'000'000;  // ~125 wedges each
constexpr std::size_t kMinWindowWedges = 60;  // a partial last window is skipped

// ---------------------------------------------------------------------------
// Load generation (excluded from set-up time)
// ---------------------------------------------------------------------------

struct Load {
  tpc::WedgeDataset dataset;
  std::vector<Tensor> wedges;  ///< unpadded (radial, azim, horiz)
  std::vector<Tensor> padded;  ///< as stored by the dataset
  std::unique_ptr<bcae::BcaeModel> model;  ///< see make_load
};

std::unique_ptr<bcae::BcaeModel> make_model() {
  return std::make_unique<bcae::BcaeModel>(
      bcae::make_bcae_2d(bcae::Bcae2dConfig{}, kModelSeed));
}

std::unique_ptr<Load> make_load(std::uint64_t seed) {
  tpc::DatasetConfig cfg;
  cfg.seed = seed;
  cfg.n_events = kEvents;
  auto load = std::make_unique<Load>(Load{tpc::WedgeDataset::generate(cfg), {}, {}, {}});
  const auto& ds = load->dataset;
  std::vector<Tensor> all = ds.train();
  all.insert(all.end(), ds.test().begin(), ds.test().end());
  for (std::size_t i = 0; i < kPoolWedges; ++i) {
    const Tensor& w = all[i * all.size() / kPoolWedges];
    load->padded.push_back(w);
    load->wedges.push_back(tpc::clip_horizontal(w, ds.valid_horiz()));
  }
  // The registry needs a model for BCAE entries even when a workload uses
  // only baselines, so every workload keeps one here, outside set-up.
  load->model = make_model();
  return load;
}

// ---------------------------------------------------------------------------
// References: direct single-wedge calls, made outside the timed window
// ---------------------------------------------------------------------------

using Codecs = std::map<std::string, std::unique_ptr<codec::WedgeCodec>>;
/// Reference envelopes by codec id, one per pool wedge.
using Refs = std::map<std::uint8_t, std::vector<WedgeEnvelope>>;

/// Direct single-wedge calls on the rig's own (undecorated) codecs.
Refs make_refs(const Load& load, const Codecs& codecs, Violations& v) {
  Refs refs;
  for (const auto& [name, c] : codecs) {
    auto& out = refs[c->codec_id()];
    for (const auto& w : load.wedges) out.push_back(c->compress(w));
    if (name == "sz") {
      // sz promises an L-infinity bound on its reconstructions.
      for (std::size_t i = 0; i < load.wedges.size(); ++i) {
        const Tensor rec = c->decompress(out[i]);
        const Tensor& src = load.wedges[i];
        float worst = 0.f;
        for (std::int64_t k = 0; k < src.numel(); ++k) {
          worst = std::max(worst, std::abs(rec.data()[k] - src.data()[k]));
        }
        if (!all_finite(rec) || !(worst <= kSzBound)) {
          v.add("sz wedge " + std::to_string(i) + " error " + std::to_string(worst) +
                " exceeds its bound");
        }
      }
    }
  }
  return refs;
}

// ---------------------------------------------------------------------------
// One measured window: records, outputs and streams
// ---------------------------------------------------------------------------

struct Window {
  Window(std::size_t cap, std::size_t n_streams, bool traced)
      : rec(cap), streams(n_streams) {
    for (auto& s : streams) {
      s.g_of_seq.assign(cap, 0);
      s.sink_order.assign(cap, 0);
    }
    if (traced) spans = std::make_unique<SpanLog>(&rec);
  }

  /// Stamps the delivery and judges the output against its reference, so
  /// that no output has to be kept: the verdicts are read after the window.
  void on_sink(std::size_t s, std::uint64_t seq, const WedgeEnvelope& env) {
    const std::int64_t now = now_ns();
    auto& st = streams[s];
    if (seq >= st.g_of_seq.size()) {
      overflow.fetch_add(1);
      return;
    }
    auto& r = rec[st.g_of_seq[seq]];
    r.t_sink = now;
    r.ratio = env.compression_ratio();
    const auto it = refs->find(env.codec_id);
    r.problem = it == refs->end()
                    ? "envelope from an unexpected codec"
                    : envelope_problem(env, it->second[static_cast<std::size_t>(r.pool_idx)]);
    const std::size_t i = st.n_sunk.fetch_add(1);
    if (i < st.sink_order.size()) {
      st.sink_order[i] = seq;
    } else {
      overflow.fetch_add(1);
    }
  }

  std::vector<Record> rec;  ///< by global submission index
  std::vector<Stream> streams;
  const Refs* refs = nullptr;
  std::unique_ptr<SpanLog> spans;
  std::atomic<std::int64_t> overflow{0};

  std::size_t offered = 0;
  std::int64_t t_first = 0;
  std::int64_t t_stop = 0;  ///< the producer offered its last wedge
  double cpu_s = 0.0;  ///< process user+sys over the window, less the producer's
  codec::StreamStats stats;
  std::vector<codec::SessionStats> sessions;
  std::size_t workers = 0;
};

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------------

/// Members are declared so that the pipeline or service is destroyed (and
/// its threads joined) before the codecs and model it borrows.
struct Rig {
  std::unique_ptr<bcae::BcaeModel> model;
  Codecs codecs;
  std::vector<std::unique_ptr<TracingCodec>> tracers;
  std::unique_ptr<codec::StreamCompressor> comp;
  std::unique_ptr<codec::CompressionService> service;
  std::vector<codec::SessionId> sessions;
};

/// Set-up as a user pays it: model build, codec construction, one call
/// through each codec (it warms the lazy int8 weight cache), and pipeline or
/// service construction.
std::unique_ptr<Rig> make_rig(const Spec& spec, const Load& load, Window& w) {
  auto rig = std::make_unique<Rig>();
  const auto wrap = [&](const codec::WedgeCodec& c) -> const codec::WedgeCodec& {
    if (!w.spans) return c;
    rig->tracers.push_back(std::make_unique<TracingCodec>(c, *w.spans));
    return *rig->tracers.back();
  };
  Window* win = &w;
  if (spec.kind == Kind::kService) {
    for (const char* name : kSessionCodecs) {
      if (rig->codecs.count(name) == 0) {
        rig->codecs[name] = codec::make_wedge_codec(name, *load.model);
        (void)rig->codecs[name]->compress(load.wedges[0]);
      }
    }
    codec::ServiceOptions so;
    so.pipeline.n_workers = kServiceWorkers;
    so.pipeline.batch_size = kBatch;
    w.workers = kServiceWorkers;
    rig->service = std::make_unique<codec::CompressionService>(so);
    for (std::size_t s = 0; s < kSessions; ++s) {
      codec::SessionOptions opt;
      opt.ladder = {&wrap(*rig->codecs[kSessionCodecs[s]])};
      opt.sink = [win, s](std::uint64_t seq, WedgeEnvelope&& env) {
        win->on_sink(s, seq, env);
      };
      rig->sessions.push_back(rig->service->open_session(std::move(opt)));
    }
    return rig;
  }
  rig->model = make_model();
  auto& c = rig->codecs[spec.codec];
  c = codec::make_wedge_codec(spec.codec, *rig->model);
  codec::StreamOptions opt;
  opt.n_workers = nc::util::hardware_threads();
  opt.batch_size = kBatch;
  opt.ordered = true;
  w.workers = opt.n_workers;
  (void)c->compress(load.wedges[0]);
  rig->comp = std::make_unique<codec::StreamCompressor>(
      wrap(*c), opt,
      [win](std::uint64_t seq, WedgeEnvelope&& env) { win->on_sink(0, seq, env); });
  return rig;
}

// ---------------------------------------------------------------------------
// Producers
// ---------------------------------------------------------------------------

/// Closed loop: one producer submits as fast as backpressure lets it.  A
/// wedge's scheduled send time is when the producer is ready to send it.
void drive_closed(Window& w, Rig& rig, const std::vector<Tensor>& pool, double seconds) {
  auto& st = w.streams[0];
  w.t_first = now_ns();
  const auto t_end = w.t_first + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t g = 0;
  for (; g < w.rec.size(); ++g) {
    const std::size_t idx = g % pool.size();
    Tensor item = pool[idx].clone();  // a fresh readout buffer
    const std::int64_t t = now_ns();
    if (t >= t_end) break;
    auto& r = w.rec[g];
    r.pool_idx = static_cast<std::int32_t>(idx);
    r.t_sched = r.t_call = t;
    r.seq = g;
    st.g_of_seq[g] = g;
    if (w.spans) w.spans->expect(item.data(), g);
    rig.comp->submit(std::move(item));
    r.t_ret = now_ns();
    st.accepted.push_back(g);
  }
  w.offered = g;
  w.t_stop = now_ns();
}

/// Busy-waits: a sleeping thread lets its virtual CPU halt, and waking a
/// halted virtual CPU can take milliseconds, which would make the generator
/// late by more than the latency it measures.
void wait_until(std::int64_t target) {
  while (now_ns() < target) {
  }
}

/// Open loop: seeded Poisson arrivals at a fixed aggregate rate, each to a
/// seeded random session, sent on schedule whatever the service does.
void drive_open(Window& w, Rig& rig, const Load& load, double seconds,
                std::uint64_t seed) {
  nc::util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5e55);
  w.t_first = now_ns() + 2'000'000;
  double offset_s = 0.0;
  std::size_t g = 0;
  for (; g < w.rec.size(); ++g) {
    offset_s += rng.exponential(1.0 / kServiceRateWps);
    if (offset_s >= seconds) break;
    std::size_t s = 0;
    for (double u = rng.uniform(); s + 1 < kSessions && u >= kSessionShare[s]; ++s) {
      u -= kSessionShare[s];
    }
    const std::size_t idx = rng.next_u64() % load.wedges.size();
    Tensor item = load.wedges[idx].clone();
    const std::int64_t target = w.t_first + static_cast<std::int64_t>(offset_s * 1e9);
    wait_until(target);
    auto& st = w.streams[s];
    auto& r = w.rec[g];
    r.pool_idx = static_cast<std::int32_t>(idx);
    r.stream = static_cast<std::int32_t>(s);
    r.t_sched = target;
    st.g_of_seq[st.next_seq] = g;
    if (w.spans) w.spans->expect(item.data(), g);
    r.t_call = now_ns();
    const auto res = rig.service->try_submit(rig.sessions[s], std::move(item));
    r.t_ret = now_ns();
    // A shed wedge consumes its seq and leaves a gap; a full staging queue
    // or a closed session rejects it without one.
    if (res == codec::SubmitResult::kAccepted || res == codec::SubmitResult::kShed) {
      r.seq = st.next_seq++;
      if (res == codec::SubmitResult::kAccepted) st.accepted.push_back(r.seq);
    }
  }
  w.offered = g;
  w.t_stop = now_ns();
}

std::size_t window_capacity(const Spec& spec, double seconds) {
  const double peak_wps = spec.kind == Kind::kService ? 2 * kServiceRateWps : 3000.0;
  return static_cast<std::size_t>(peak_wps * seconds) + 1024;
}

/// Runs one measured window on `rig` and joins it.
void run_window(const Spec& spec, const Load& load, Rig& rig, Window& w,
                double seconds, std::uint64_t seed) {
  // The producer thread is load generation (and spins on the open loop), so
  // its CPU time is not the system's.
  const double cpu0 = process_cpu_s(), producer0 = thread_cpu_s();
  if (spec.kind == Kind::kEncode) {
    drive_closed(w, rig, load.wedges, seconds);
    w.stats = rig.comp->finish();
  } else {
    drive_open(w, rig, load, seconds, seed);
    for (const auto id : rig.sessions) w.sessions.push_back(rig.service->close_session(id));
    w.stats = rig.service->finish().pipeline;
  }
  w.cpu_s = (process_cpu_s() - cpu0) - (thread_cpu_s() - producer0);
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

void check_window(const Window& w, Violations& v) {
  for (std::size_t s = 0; s < w.streams.size(); ++s) {
    check_sequence("stream " + std::to_string(s), w.streams[s], v);
  }
  if (w.overflow.load() != 0) v.add("sink saw a seq beyond the window capacity");
  for (std::size_t g = 0; g < w.offered; ++g) {
    const auto& r = w.rec[g];
    if (r.t_sink != 0 && r.problem != nullptr) {
      v.add("stream " + std::to_string(r.stream) + " seq " + std::to_string(r.seq) + ": " +
            r.problem);
    }
  }
}

/// References first (outside the timed window), then the window, then the
/// verdicts.
void measure(const Spec& spec, const Load& load, Rig& rig, Window& w, double seconds,
             std::uint64_t seed, Violations& v) {
  const Refs refs = make_refs(load, rig.codecs, v);
  w.refs = &refs;
  run_window(spec, load, rig, w, seconds, seed);
  w.refs = nullptr;
  check_window(w, v);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Counts and timings of one window.  The steady span runs from the first
/// delivery to the last delivery before the producer stopped: the fill
/// before the first batch completes and the final drain, each about one
/// batch time long, stay out of throughput and closed-loop latency.
/// (Counting the drain made throughput swing with how the last batches
/// happened to line up.)
struct Summary {
  std::int64_t offered = 0, delivered = 0, failed = 0;
  std::int64_t t_first_sink = 0, t_last_sink = 0;
  double wall_s = 0.0;  ///< first submit to last sink
  std::int64_t steady_delivered = 0;
  double steady_s = 0.0;
  std::vector<double> latency_ms;         ///< every delivered wedge
  std::vector<double> steady_latency_ms;  ///< delivered in the steady span
};

Summary summarize(const Window& w) {
  Summary s;
  s.offered = static_cast<std::int64_t>(w.offered);
  std::int64_t t_steady_end = 0;
  for (std::size_t g = 0; g < w.offered; ++g) {
    const auto& r = w.rec[g];
    if (r.t_sink == 0) continue;
    ++s.delivered;
    s.t_first_sink = s.t_first_sink == 0 ? r.t_sink : std::min(s.t_first_sink, r.t_sink);
    s.t_last_sink = std::max(s.t_last_sink, r.t_sink);
    if (r.t_sink <= w.t_stop) t_steady_end = std::max(t_steady_end, r.t_sink);
    s.latency_ms.push_back(ns_to_ms(r.t_sink - r.t_sched));
  }
  for (std::size_t g = 0; g < w.offered; ++g) {
    const auto& r = w.rec[g];
    if (r.t_sink > s.t_first_sink && r.t_sink <= t_steady_end) {
      ++s.steady_delivered;
      s.steady_latency_ms.push_back(ns_to_ms(r.t_sink - r.t_sched));
    }
  }
  s.failed = s.offered - s.delivered;  // dropped, failed, shed or rejected
  s.wall_s = static_cast<double>(s.t_last_sink - w.t_first) * 1e-9;
  s.steady_s = static_cast<double>(t_steady_end - s.t_first_sink) * 1e-9;
  return s;
}

/// Latency percentile as reported.  The open loop takes the median over
/// quarter-second windows (by scheduled send time) of each window's
/// percentile.  A stall of a few milliseconds (a worker whose virtual CPU
/// wakes late) lands every second or two on this kind of host; it then
/// moves the p99 of the one window it falls in, not of the run.  With
/// two-second windows most windows held one and the p99 spread by 45% from
/// seed to seed, against 9% here.  Each window holds about 125 wedges, so
/// its p99 lies between its second and third largest.  Closed loops report
/// the percentile over the steady span.
double latency_percentile(const Spec& spec, const Window& w, const Summary& s, double q) {
  if (spec.kind != Kind::kService) {
    return percentile(s.steady_latency_ms.empty() ? s.latency_ms : s.steady_latency_ms, q);
  }
  std::map<std::int64_t, std::vector<double>> bins;
  for (std::size_t g = 0; g < w.offered; ++g) {
    const auto& r = w.rec[g];
    if (r.t_sink != 0) bins[(r.t_sched - w.t_first) / kLatencyWindowNs].push_back(ns_to_ms(r.t_sink - r.t_sched));
  }
  std::vector<double> per_window;
  for (const auto& [second, lat] : bins) {
    if (lat.size() >= kMinWindowWedges) per_window.push_back(percentile(lat, q));
  }
  return per_window.empty() ? percentile(s.latency_ms, q) : percentile(per_window, 0.5);
}

double throughput(const Summary& s) {
  if (s.steady_s > 0) return static_cast<double>(s.steady_delivered) / s.steady_s;
  return s.wall_s > 0 ? static_cast<double>(s.delivered) / s.wall_s : 0.0;
}

void end_to_end_metrics(const Spec& spec, const Window& w,
                        double setup_s, MetricList& out) {
  const Summary s = summarize(w);
  double ratio = 0.0;
  for (std::size_t g = 0; g < w.offered; ++g) {
    const auto& r = w.rec[g];
    if (r.t_sink == 0) continue;
    ratio += r.ratio;
  }
  const double delivered = static_cast<double>(std::max<std::int64_t>(1, s.delivered));
  out.add("setup_s", setup_s, "s");
  out.add("throughput_wps", throughput(s), "1/s");
  out.add("latency_p50_ms", latency_percentile(spec, w, s, 0.50), "ms");
  out.add("latency_p99_ms", latency_percentile(spec, w, s, 0.99), "ms");
  out.add("cpu_ms_per_wedge", w.cpu_s * 1e3 / delivered, "ms");
  out.add("compression_ratio", ratio / delivered, "ratio");
  out.add("delivered_frac",
          static_cast<double>(s.delivered) / static_cast<double>(std::max<std::int64_t>(1, s.offered)),
          "fraction");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Per-wedge stages of the traced window, and the layer metrics built on them.
void trace_metrics(const Spec& spec, const Window& w, double untraced_value,
                   MetricList& out, Violations& v) {
  const Summary s = summarize(w);
  const bool service = spec.kind == Kind::kService;
  std::vector<double> queue_ms, emit_ms, submit_ms, late_ms, closure;
  std::int64_t untraced_wedges = 0;
  for (std::size_t g = 0; g < w.offered; ++g) {
    const auto& r = w.rec[g];
    submit_ms.push_back(ns_to_ms(r.t_ret - r.t_call));
    late_ms.push_back(ns_to_ms(r.t_call - r.t_sched));
    if (r.t_sink == 0) continue;
    if (r.t_tx0 == 0) {
      ++untraced_wedges;
      continue;
    }
    const std::int64_t queue = std::max<std::int64_t>(0, r.t_tx0 - r.t_ret);
    const std::int64_t stages = (r.t_call - r.t_sched) + (r.t_ret - r.t_call) + queue +
                                (r.t_tx1 - r.t_tx0) + (r.t_sink - r.t_tx1);
    const std::int64_t e2e = r.t_sink - r.t_sched;
    queue_ms.push_back(ns_to_ms(queue));
    emit_ms.push_back(ns_to_ms(r.t_sink - r.t_tx1));
    closure.push_back(e2e > 0 ? std::abs(static_cast<double>(stages - e2e)) /
                                    static_cast<double>(e2e)
                              : 0.0);
  }
  const double closure_p99 = percentile(closure, 0.99);
  if (closure_p99 > kStageClosureTolerance) {
    v.add("traced stages do not add up to the end-to-end latency (p99 error " +
          std::to_string(closure_p99) + ")");
  }
  const std::int64_t unmatched = w.spans->unmatched() + untraced_wedges;
  if (unmatched != 0) {
    v.add(std::to_string(unmatched) + " delivered wedges have no codec span");
  }

  const auto& totals = w.spans->totals();
  const auto per_wedge_ms = [&](const std::string& key) {
    const auto it = totals.find(key);
    return it == totals.end() || it->second.wedges == 0
               ? 0.0
               : it->second.busy_s * 1e3 / static_cast<double>(it->second.wedges);
  };
  double busy_s = 0.0;
  for (const auto& [k, t] : totals) busy_s += t.busy_s;
  std::int64_t batches = 0, in_batches = 0;
  for (const auto& pw : w.stats.per_worker) {
    batches += pw.batches;
    in_batches += pw.wedges_compressed;
  }
  out.add("codec.wedge.bcae-int8.compress_ms", per_wedge_ms("bcae-int8.compress"), "ms");
  for (const char* name : {"zfp", "sz", "mgard"}) {
    out.add(std::string("codec.wedge.") + name + ".compress_ms",
            per_wedge_ms(std::string(name) + ".compress"), "ms");
  }
  out.add("codec.wedge.calls_per_batch",
          batches > 0 ? static_cast<double>(w.spans->calls()) / static_cast<double>(batches) : 0.0,
          "calls");

  out.add("codec.pipeline.queue_wait_ms_p50", percentile(queue_ms, 0.50), "ms");
  out.add("codec.pipeline.queue_wait_ms_p99", percentile(queue_ms, 0.99), "ms");
  out.add("codec.pipeline.emit_wait_ms_p50", percentile(emit_ms, 0.50), "ms");
  out.add("codec.pipeline.emit_wait_ms_p99", percentile(emit_ms, 0.99), "ms");
  out.add("codec.pipeline.batch_size_mean",
          batches > 0 ? static_cast<double>(in_batches) / static_cast<double>(batches) : 0.0,
          "wedges");
  out.add("codec.pipeline.submit_block_ms_mean", mean_of(submit_ms), "ms");
  out.add("codec.pipeline.worker_busy_frac",
          s.wall_s > 0 ? busy_s / (s.wall_s * static_cast<double>(w.workers)) : 0.0,
          "fraction");
  out.add("codec.pipeline.queue_depth_hwm", static_cast<double>(w.stats.queue_depth_hwm), "count");
  out.add("codec.pipeline.batches_stolen", static_cast<double>(w.stats.batches_stolen), "count");
  out.add("codec.pipeline.cpu_per_wall",
          w.stats.elapsed_s > 0 ? w.stats.cpu_s / w.stats.elapsed_s : 0.0, "ratio");

  std::int64_t shed = 0, degradations = 0, hwm = 0;
  for (const auto& ss : w.sessions) {
    shed += ss.shed;
    degradations += ss.degradations;
    hwm = std::max(hwm, ss.queue_depth_hwm);
  }
  const auto svc = [&](double x) { return service ? x : 0.0; };
  out.add("codec.service.staging_wait_ms_p50", svc(percentile(queue_ms, 0.50)), "ms");
  out.add("codec.service.staging_wait_ms_p99", svc(percentile(queue_ms, 0.99)), "ms");
  out.add("codec.service.emit_wait_ms_p99", svc(percentile(emit_ms, 0.99)), "ms");
  out.add("codec.service.submit_call_us_p99", svc(percentile(submit_ms, 0.99) * 1e3), "us");
  out.add("codec.service.shed", static_cast<double>(shed), "count");
  out.add("codec.service.degradations", static_cast<double>(degradations), "count");
  out.add("codec.service.queue_depth_hwm", static_cast<double>(hwm), "count");

  const double late_p99 = percentile(late_ms, 0.99);
  const double late_max = late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end());
  const double p50 = latency_percentile(spec, w, s, 0.50);
  out.add("gen.late_ms_p99", late_p99, "ms");
  out.add("gen.late_ms_max", late_max, "ms");
  out.add("gen.late_flag", late_p99 > p50 ? 1.0 : 0.0, "flag");

  // Overhead of tracing: the untraced window of this run against the
  // traced one, on the workload's headline metric.
  const double traced_value = service ? p50 : throughput(s);
  const double overhead =
      untraced_value > 0
          ? (service ? (traced_value - untraced_value) : (untraced_value - traced_value)) /
                untraced_value
          : 0.0;
  out.add("trace.overhead_frac", overhead, "fraction");
  out.add("trace.stage_closure_err_p99", closure_p99, "fraction");
}

// ---------------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------------

std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string l3_size() {
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    if (read_first_line(dir + "/level") == "3") return read_first_line(dir + "/size");
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string fingerprint_json(const std::string& commit) {
  namespace simd = nc::core::simd;
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"hardware_threads\": " << nc::util::hardware_threads()
     << ", \"omp_max_threads\": " << nc::util::num_threads()
     << ", \"isa\": " << json_string(simd::isa_name(simd::active_isa()))
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"l3\": " << json_string(l3_size())
     << ", \"build_type\": " << json_string(DAQBENCH_BUILD_TYPE)
     << ", \"commit\": " << json_string(commit) << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const MetricList& m) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& x : m.items()) {
    os << (first ? "" : ", ") << json_string(x.name) << ": {\"value\": " << number(x.value)
       << ", \"unit\": " << json_string(x.unit) << "}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void report_violations(const Violations& v) {
  for (const auto& msg : v.messages()) std::cerr << "daq_bench: CHECK FAILED: " << msg << "\n";
  if (v.count() > static_cast<std::int64_t>(v.messages().size())) {
    std::cerr << "daq_bench: ... " << v.count() << " violations in total\n";
  }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string commit = "unknown";
};

const Spec* find_spec(const std::string& name) {
  for (const auto& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::size_t n_streams(const Spec& spec) { return spec.kind == Kind::kService ? kSessions : 1; }

int run(const Args& a) {
  const Spec* spec = find_spec(a.workload);
  if (spec == nullptr) {
    std::cerr << "daq_bench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  std::cout << "{\"fingerprint\": " << fingerprint_json(a.commit) << "}" << std::endl;
  const auto load = make_load(a.seed);
  std::cerr << "daq_bench: " << spec->name << " seed " << a.seed << ", "
            << load->wedges.size() << " wedges "
            << load->dataset.wedge_shape().to_string() << ", occupancy "
            << load->dataset.occupancy() << "\n";

  Violations v;
  MetricList metrics;
  std::int64_t attempted = 0, failed = 0;
  const auto account = [&](const Window& w) {
    const Summary s = summarize(w);
    attempted += s.offered;
    failed += s.failed;
  };

  if (!a.trace) {
    Window w(window_capacity(*spec, a.seconds), n_streams(*spec), false);
    std::unique_ptr<Rig> rig;
    std::vector<double> setup;
    for (int r = 0; r < kSetupReps; ++r) {
      rig.reset();
      const std::int64_t t0 = now_ns();
      rig = make_rig(*spec, *load, w);
      setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    measure(*spec, *load, *rig, w, a.seconds, a.seed, v);
    end_to_end_metrics(*spec, w, percentile(setup, 0.5), metrics);
    account(w);
    if (spec->kind == Kind::kService) {
      const Summary s = summarize(w);
      std::vector<double> late;
      for (std::size_t g = 0; g < w.offered; ++g) late.push_back(ns_to_ms(w.rec[g].t_call - w.rec[g].t_sched));
      const double late_p99 = percentile(late, 0.99), p50 = latency_percentile(*spec, w, s, 0.5);
      std::cout << "generator: late p99 " << late_p99 << " ms, max "
                << (late.empty() ? 0.0 : *std::max_element(late.begin(), late.end())) << " ms"
                << (late_p99 > p50 ? "  FLAG: generator lateness exceeds the p50 latency" : "")
                << std::endl;
    }
  } else {
    // Untraced then traced window of half the run each; the difference is
    // the tracing overhead.
    const double half = a.seconds / 2;
    double untraced_value = 0.0;
    {
      Window w(window_capacity(*spec, half), n_streams(*spec), false);
      auto rig = make_rig(*spec, *load, w);
      measure(*spec, *load, *rig, w, half, a.seed, v);
      const Summary s = summarize(w);
      untraced_value = spec->kind == Kind::kService ? latency_percentile(*spec, w, s, 0.5) : throughput(s);
      account(w);
    }
    {
      Window w(window_capacity(*spec, half), n_streams(*spec), true);
      auto rig = make_rig(*spec, *load, w);
      measure(*spec, *load, *rig, w, half, a.seed, v);
      trace_metrics(*spec, w, untraced_value, metrics, v);
      account(w);
    }
    SweepInput in;
    in.dataset = &load->dataset;
    in.padded = &load->padded;
    in.raw = &load->wedges;
    in.model_seed = kModelSeed;
    layer_sweep(in, metrics, v);
  }
  report_violations(v);
  print_result(!v.any(), attempted, failed, metrics);
  return v.any() ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Self-test: the checks catch injected faults, and tracing is a pass-through
// ---------------------------------------------------------------------------

bool expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << std::endl;
  return ok;
}

bool mentions(const Violations& v, const std::string& needle) {
  for (const auto& m : v.messages()) {
    if (m.find(needle) != std::string::npos) return true;
  }
  return false;
}

int selftest() {
  const Spec& spec = *find_spec("encode-2d-int8");
  const auto load = make_load(7);
  bool ok = true;

  // 1. The decorator changes no output, batched or through a pipeline.
  {
    auto model = make_model();
    const auto inner = codec::make_wedge_codec("bcae-int8", *model);
    std::vector<Record> recs(1);
    SpanLog log(&recs);
    const TracingCodec traced(*inner, log);
    const std::vector<Tensor> batch(load->wedges.begin(), load->wedges.begin() + kBatch);
    const auto a = inner->compress_batch(batch);
    const auto b = traced.compress_batch(batch);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].codec_id == b[i].codec_id && a[i].payload == b[i].payload &&
             a[i].wedge_shape == b[i].wedge_shape;
    }
    ok &= expect(same, "tracing codec: compress_batch output identical");
    const auto da = inner->decompress_batch(a);
    const auto db = traced.decompress_batch(a);
    same = da.size() == db.size();
    for (std::size_t i = 0; same && i < da.size(); ++i) {
      same = da[i].shape() == db[i].shape() &&
             std::memcmp(da[i].data(), db[i].data(),
                         static_cast<std::size_t>(da[i].numel()) * sizeof(float)) == 0;
    }
    ok &= expect(same, "tracing codec: decompress_batch output identical");
    ok &= expect(log.calls() == 2, "tracing codec: one span per batch call");
  }
  {
    Window w(window_capacity(spec, 0.5), 1, true);
    auto rig = make_rig(spec, *load, w);
    Violations v;
    measure(spec, *load, *rig, w, 0.5, 7, v);
    MetricList m;
    trace_metrics(spec, w, 1.0, m, v);
    report_violations(v);
    ok &= expect(!v.any() && w.offered > 0, "traced pipeline: every envelope matches a direct compress");
  }

  // 2. One flipped payload byte and one missing seq are both caught.  A
  // clean run passes first; then a stream is delivered by hand, with the
  // direct compress of each wedge standing in for the pipeline's output.
  {
    Window w(window_capacity(spec, 0.5), 1, false);
    auto rig = make_rig(spec, *load, w);
    Violations clean;
    measure(spec, *load, *rig, w, 0.5, 7, clean);
    ok &= expect(!clean.any() && w.offered > 8, "clean run passes the checks");

    const Refs refs = make_refs(*load, rig->codecs, clean);
    const auto& want = refs.begin()->second;
    Window f(64, 1, false);
    f.refs = &refs;
    auto& st = f.streams[0];
    f.offered = 16;
    for (std::size_t g = 0; g < f.offered; ++g) {
      f.rec[g].pool_idx = static_cast<std::int32_t>(g % want.size());
      f.rec[g].seq = g;
      st.g_of_seq[g] = g;
      st.accepted.push_back(g);
    }
    for (std::size_t g = 0; g < f.offered; ++g) {
      if (g == 5) continue;
      WedgeEnvelope env = want[g % want.size()];
      if (g == 3) env.payload[env.payload.size() / 2] ^= 0x01;
      f.on_sink(0, g, env);
    }
    Violations v;
    check_window(f, v);
    report_violations(v);
    ok &= expect(mentions(v, "seq 3: envelope differs"), "flipped payload byte is caught");
    ok &= expect(mentions(v, "seq 5 never delivered"), "missing seq is caught");
    ok &= expect(v.count() == 2, "exactly the two injected faults are reported");
  }
  std::cout << (ok ? "selftest: PASS" : "selftest: FAIL") << std::endl;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace daqbench

int main(int argc, char** argv) {
  daqbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "daq_bench: " << k << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--commit") {
      a.commit = value();
    } else if (k == "--selftest") {
      a.selftest = true;
    } else {
      std::cerr << "daq_bench: unknown argument " << k << "\n";
      return 2;
    }
  }
  try {
    return a.selftest ? daqbench::selftest() : daqbench::run(a);
  } catch (const std::exception& e) {
    std::cerr << "daq_bench: " << e.what() << "\n";
    return 1;
  }
}
