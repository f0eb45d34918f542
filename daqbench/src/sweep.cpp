#include "sweep.hpp"

#include <map>
#include <string>

#include "bcae/model.hpp"
#include "codec/wedge_codec.hpp"
#include "core/gemm.hpp"
#include "core/im2col.hpp"
#include "core/profiler.hpp"
#include "core/quantize.hpp"
#include "util/half.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace daqbench {

namespace {

using core::Mode;
using core::Tensor;
using nc::bcae::BcaeModel;

constexpr std::int64_t kSweepBatch = 8;
constexpr int kEncReps = 3;
constexpr int kDecReps = 2;

// ---------------------------------------------------------------------------
// Conv plans: every convolution of a network as its kernels see it.  The
// plan is derived from the model configuration and cross-checked against the
// GEMM shapes the library's own profiler records, so a change to the
// builders fails the run instead of sweeping stale shapes.
// ---------------------------------------------------------------------------

struct ConvPlan {
  std::string label;   ///< layer label, as the profiler records it
  std::string feeder;  ///< top-level layer whose input is this conv's input
  bool is3d = false;
  core::Conv2dGeom g2;
  core::Conv3dGeom g3;
  std::int64_t out_c = 0;

  std::int64_t rows() const { return is3d ? g3.rows() : g2.rows(); }
  std::int64_t cols() const { return is3d ? g3.cols() : g2.cols(); }
  std::int64_t in_elems() const {
    return is3d ? g3.c * g3.d * g3.h * g3.w : g2.c * g2.h * g2.w;
  }
};

ConvPlan conv2(const std::string& label, const std::string& feeder,
               std::int64_t c, std::int64_t h, std::int64_t w, std::int64_t k,
               std::int64_t pad, std::int64_t out_c) {
  ConvPlan p;
  p.label = label;
  p.feeder = feeder;
  p.g2.c = c;
  p.g2.h = h;
  p.g2.w = w;
  p.g2.kh = p.g2.kw = k;
  p.g2.ph = p.g2.pw = pad;
  p.out_c = out_c;
  return p;
}

void add_resblock_2d(std::vector<ConvPlan>& plan, const std::string& tag,
                     std::int64_t c, std::int64_t h, std::int64_t w) {
  plan.push_back(conv2(tag + ".conv1", tag, c, h, w, 3, 1, c));
  plan.push_back(conv2(tag + ".conv2", tag, c, h, w, 3, 1, c));
}

std::vector<ConvPlan> plan_encoder_2d(const nc::bcae::Bcae2dConfig& cfg,
                                      std::int64_t h, std::int64_t w) {
  std::vector<ConvPlan> plan;
  plan.push_back(conv2("enc.in", "enc.in", cfg.input_channels, h, w, 7, 3,
                       cfg.width));
  for (std::int64_t i = 1; i <= cfg.m; ++i) {
    if (i <= cfg.d) {
      h /= 2;
      w /= 2;
    }
    const std::string tag = "enc.b" + std::to_string(i);
    add_resblock_2d(plan, tag + ".res1", cfg.width, h, w);
    add_resblock_2d(plan, tag + ".res2", cfg.width, h, w);
  }
  plan.push_back(conv2("enc.out", "enc.out", cfg.width, h, w, 1, 0,
                       cfg.code_channels));
  return plan;
}

std::vector<ConvPlan> plan_decoder_2d(const nc::bcae::Bcae2dConfig& cfg,
                                      const std::string& head, std::int64_t h,
                                      std::int64_t w) {
  std::vector<ConvPlan> plan;
  plan.push_back(conv2(head + ".in", head + ".in", cfg.code_channels, h, w, 1,
                       0, cfg.width));
  for (std::int64_t i = 1; i <= cfg.n; ++i) {
    if (i <= cfg.d) {
      h *= 2;
      w *= 2;
    }
    const std::string tag = head + ".b" + std::to_string(i);
    add_resblock_2d(plan, tag + ".res1", cfg.width, h, w);
    add_resblock_2d(plan, tag + ".res2", cfg.width, h, w);
  }
  plan.push_back(conv2(head + ".out", head + ".out", cfg.width, h, w, 1, 0,
                       cfg.input_channels));
  return plan;
}

ConvPlan conv3(const std::string& label, const std::string& feeder,
               std::int64_t c, std::int64_t d, std::int64_t h, std::int64_t w,
               bool down, std::int64_t out_c) {
  ConvPlan p;
  p.label = label;
  p.feeder = feeder;
  p.is3d = true;
  p.g3.c = c;
  p.g3.d = d;
  p.g3.h = h;
  p.g3.w = w;
  p.g3.kd = 3;
  p.g3.kh = p.g3.kw = down ? 4 : 3;
  p.g3.sh = p.g3.sw = down ? 2 : 1;
  p.g3.pd = p.g3.ph = p.g3.pw = 1;
  p.out_c = out_c;
  return p;
}

std::vector<ConvPlan> plan_encoder_3d(const nc::bcae::Bcae3dConfig& cfg,
                                      std::int64_t d, std::int64_t h,
                                      std::int64_t w) {
  std::vector<ConvPlan> plan;
  std::int64_t c = 1;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string tag = "enc.s" + std::to_string(i);
    const std::int64_t f = cfg.features[i];
    plan.push_back(conv3(tag + ".down", tag + ".down", c, d, h, w, true, f));
    h = plan.back().g3.out_h();
    w = plan.back().g3.out_w();
    plan.push_back(conv3(tag + ".res.conv1", tag + ".res", f, d, h, w, false, f));
    plan.push_back(conv3(tag + ".res.conv2", tag + ".res", f, d, h, w, false, f));
    c = f;
  }
  plan.push_back(
      conv3("enc.out", "enc.out", c, d, h, w, false, cfg.code_channels));
  return plan;
}

/// The profiler's per-label GEMM shapes from one forward must match the plan
/// one to one.
void check_plan(const std::vector<ConvPlan>& plan, core::Layer& net,
                const Tensor& x, Mode mode, const std::string& what,
                Violations& v) {
  auto& prof = core::Profiler::instance();
  prof.clear();
  prof.set_enabled(true);
  net.forward(x, mode);
  prof.set_enabled(false);
  std::map<std::string, core::ProfileEntry> seen;
  for (const auto& [label, entry] : prof.entries()) seen[label] = entry;
  prof.clear();
  if (seen.size() != plan.size()) {
    v.add(what + ": conv plan has " + std::to_string(plan.size()) +
          " convs, the model ran " + std::to_string(seen.size()));
  }
  for (const auto& p : plan) {
    const auto it = seen.find(p.label);
    if (it == seen.end()) {
      v.add(what + ": planned conv " + p.label + " did not run");
    } else if (it->second.gemm_m != p.out_c || it->second.gemm_n != p.cols() ||
               it->second.gemm_k != p.rows()) {
      v.add(what + ": conv " + p.label + " GEMM shape differs from the plan");
    }
  }
}

// ---------------------------------------------------------------------------
// Layer-by-layer timing through Sequential::layer(i).forward
// ---------------------------------------------------------------------------

struct LayerTimes {
  std::vector<std::string> names;
  std::vector<std::vector<double>> seconds;  ///< [layer][rep]
  std::map<std::string, Tensor> inputs;      ///< top-level layer -> its input
};

LayerTimes time_layers(core::Sequential& net, const Tensor& x, Mode mode,
                       int reps) {
  LayerTimes t;
  t.seconds.resize(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) t.names.push_back(net.layer(i).name());
  for (int r = 0; r < reps; ++r) {
    Tensor h = x;
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (r == 0) t.inputs[t.names[i]] = h;
      const std::int64_t t0 = now_ns();
      h = net.layer(i).forward(h, mode);
      t.seconds[i].push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }
  return t;
}

double ms_per_wedge(const std::vector<double>& rep_seconds) {
  return percentile(rep_seconds, 0.5) * 1e3 / static_cast<double>(kSweepBatch);
}

/// Decoder top-level layers grouped into blocks: `<head>.in` (+act),
/// `<head>.bK` (upsample + both residual blocks), `<head>.out` (+transform).
std::string decoder_block(const std::string& head, const std::string& layer) {
  const std::string rest = layer.substr(head.size() + 1);
  if (rest.rfind("in", 0) == 0) return "in";
  if (rest.rfind("b", 0) == 0) return rest.substr(0, rest.find('.'));
  return "out";
}

// ---------------------------------------------------------------------------
// Kernel phases, called the way Conv2d/Conv3d::forward calls them in eval
// mode: samples in an OpenMP loop, serial kernels inside.
// ---------------------------------------------------------------------------

struct Phase {
  double seconds = 0.0;  ///< summed thread-time
  double ops = 0.0;
  double bytes = 0.0;
};

struct PhaseClock {
  explicit PhaseClock(std::size_t n_phases)
      : per_thread(static_cast<std::size_t>(nc::util::num_threads()),
                   std::vector<double>(n_phases, 0.0)) {}
  void add(std::size_t phase, double s) {
    per_thread[static_cast<std::size_t>(nc::util::thread_index())][phase] += s;
  }
  double total(std::size_t phase) const {
    double s = 0.0;
    for (const auto& t : per_thread) s += t[phase];
    return s;
  }
  std::vector<std::vector<double>> per_thread;
};

std::vector<float> synthetic_weights(std::int64_t n, std::uint64_t seed) {
  nc::util::Rng rng(seed);
  std::vector<float> w(static_cast<std::size_t>(n));
  for (auto& x : w) x = static_cast<float>(rng.normal(0.0, 0.1));
  return w;
}

bool feeder_ok(const ConvPlan& p, const std::map<std::string, Tensor>& inputs,
               Violations& v) {
  const auto it = inputs.find(p.feeder);
  if (it == inputs.end()) {
    v.add("kernel sweep: no captured input for " + p.label);
    return false;
  }
  if (it->second.numel() != kSweepBatch * p.in_elems()) {
    v.add("kernel sweep: captured input of " + p.label + " has shape " +
          core::shape_to_string(it->second.shape()));
    return false;
  }
  return true;
}

/// `qgemm` covers every conv; `qgemm_small_m` the ones with M <= 8 output
/// channels, where the packed panel is amortised over few rows.
struct Int8Phases {
  Phase im2col, quantize, qgemm, qgemm_small_m;
};

void sweep_int8(const std::vector<ConvPlan>& plan,
                const std::map<std::string, Tensor>& inputs, Int8Phases& out,
                Violations& v) {
  for (const auto& p : plan) {
    if (!feeder_ok(p, inputs, v)) continue;
    const Tensor& x = inputs.at(p.feeder);
    const std::int64_t rows = p.rows(), cols = p.cols(), m = p.out_c;
    const auto w = synthetic_weights(m * rows, 17);
    const auto wq = core::quantize_rows(w.data(), m, rows);
    PhaseClock clock(3);
    for (int r = 0; r < kEncReps; ++r) {
      nc::util::parallel_for(0, kSweepBatch, [&](std::int64_t s) {
        thread_local std::vector<float> colbuf, outbuf;
        thread_local std::vector<std::int8_t> q;
        colbuf.resize(static_cast<std::size_t>(rows * cols));
        q.resize(colbuf.size());
        outbuf.resize(static_cast<std::size_t>(m * cols));
        const float* in = x.data() + s * p.in_elems();
        const std::int64_t t0 = now_ns();
        if (p.is3d) {
          core::vol2col_3d(in, p.g3, colbuf.data());
        } else {
          core::im2col_2d(in, p.g2, colbuf.data());
        }
        const std::int64_t t1 = now_ns();
        const float scale = core::quantize_tensor(colbuf.data(), rows * cols, q.data());
        const std::int64_t t2 = now_ns();
        core::qgemm(m, cols, rows, wq.values.data(), wq.scales.data(), q.data(),
                    scale, outbuf.data(), cols);
        const std::int64_t t3 = now_ns();
        clock.add(0, static_cast<double>(t1 - t0) * 1e-9);
        clock.add(1, static_cast<double>(t2 - t1) * 1e-9);
        clock.add(2, static_cast<double>(t3 - t2) * 1e-9);
      });
    }
    const double calls = static_cast<double>(kEncReps * kSweepBatch);
    const double n = static_cast<double>(rows * cols);
    const double in_elems = static_cast<double>(p.in_elems());
    out.im2col.seconds += clock.total(0);
    out.im2col.ops += calls * n;  // element copies
    out.im2col.bytes += calls * (in_elems * 4 + n * 4);
    out.quantize.seconds += clock.total(1);
    out.quantize.ops += calls * 2 * n;  // max-abs pass + scale pass
    out.quantize.bytes += calls * (n * 4 * 2 + n);
    const double gemm_ops = 2.0 * static_cast<double>(m) * n;
    const double gemm_bytes = static_cast<double>(m * rows + rows * cols) +
                              static_cast<double>(m * cols) * 4 +
                              static_cast<double>(m) * 4;
    for (Phase* g : {&out.qgemm, m <= 8 ? &out.qgemm_small_m : nullptr}) {
      if (g == nullptr) continue;
      g->seconds += clock.total(2);
      g->ops += calls * gemm_ops;
      g->bytes += calls * gemm_bytes;
    }
  }
}

struct Fp16Phases {
  Phase im2col, hgemm;
};

void sweep_fp16(const std::vector<ConvPlan>& plan,
                const std::map<std::string, Tensor>& inputs, Fp16Phases& out,
                Violations& v) {
  for (const auto& p : plan) {
    if (!feeder_ok(p, inputs, v)) continue;
    const Tensor& x = inputs.at(p.feeder);
    const std::int64_t rows = p.rows(), cols = p.cols(), m = p.out_c;
    const std::int64_t in_elems = p.in_elems();
    const auto w = synthetic_weights(m * rows, 19);
    std::vector<nc::util::half> wh(w.size());
    nc::util::float_to_half_n(w.data(), wh.data(), m * rows);
    PhaseClock clock(2);
    for (int r = 0; r < kDecReps; ++r) {
      nc::util::parallel_for(0, kSweepBatch, [&](std::int64_t s) {
        thread_local std::vector<nc::util::half> inh, colbuf;
        thread_local std::vector<float> outbuf;
        inh.resize(static_cast<std::size_t>(in_elems));
        colbuf.resize(static_cast<std::size_t>(rows * cols));
        outbuf.resize(static_cast<std::size_t>(m * cols));
        const std::int64_t t0 = now_ns();
        nc::util::float_to_half_sat_n(x.data() + s * in_elems, inh.data(), in_elems);
        core::im2col_2d(inh.data(), p.g2, colbuf.data());
        const std::int64_t t1 = now_ns();
        core::hgemm(m, cols, rows, wh.data(), rows, colbuf.data(), cols,
                    outbuf.data(), cols);
        const std::int64_t t2 = now_ns();
        clock.add(0, static_cast<double>(t1 - t0) * 1e-9);
        clock.add(1, static_cast<double>(t2 - t1) * 1e-9);
      });
    }
    const double calls = static_cast<double>(kDecReps * kSweepBatch);
    const double n = static_cast<double>(rows * cols);
    const double in_n = static_cast<double>(in_elems);
    out.im2col.seconds += clock.total(0);
    out.im2col.ops += calls * (in_n + n);  // conversions + element copies
    out.im2col.bytes += calls * (in_n * (4 + 2 + 2) + n * 2);
    out.hgemm.seconds += clock.total(1);
    out.hgemm.ops += calls * 2.0 * static_cast<double>(m) * n;
    out.hgemm.bytes += calls * (static_cast<double>(m * rows + rows * cols) * 2 +
                                static_cast<double>(m * cols) * 4);
  }
}

void emit_phase(MetricList& out, const std::string& name, const Phase& p,
                double wedges) {
  out.add(name + "_ms", p.seconds * 1e3 / wedges, "ms");
  out.add(name + "_mops", p.ops * 1e-6 / wedges, "Mop");
  out.add(name + "_mb", p.bytes * 1e-6 / wedges, "MB");
  out.add(name + "_ops_per_byte", p.bytes > 0 ? p.ops / p.bytes : 0.0, "op/B");
}

double rate_g(const Phase& p) { return p.seconds > 0 ? p.ops / p.seconds * 1e-9 : 0.0; }

}  // namespace

void layer_sweep(const SweepInput& in, MetricList& out, Violations& v) {
  const auto& ds = *in.dataset;
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < kSweepBatch; ++i) {
    idx.push_back(i % static_cast<std::int64_t>(in.padded->size()));
  }
  const Tensor x2d = ds.batch_2d(*in.padded, idx);
  const Tensor x3d = ds.batch_3d(*in.padded, idx);
  const Tensor x2d_one = ds.batch_2d(*in.padded, {0});
  const Tensor x3d_one = ds.batch_3d(*in.padded, {0});
  const std::int64_t radial = x2d.dim(1), azim = x2d.dim(2), horiz = x2d.dim(3);

  const nc::bcae::Bcae2dConfig cfg2d;
  const auto cfg_ht = nc::bcae::Bcae3dConfig::bcae_ht();
  BcaeModel m2d = nc::bcae::make_bcae_2d(cfg2d, in.model_seed);
  BcaeModel mht = nc::bcae::make_bcae_ht(in.model_seed);

  // Conv plans, checked against the layers the model actually runs.
  const auto plan_enc2d = plan_encoder_2d(cfg2d, azim, horiz);
  const auto plan_encht = plan_encoder_3d(cfg_ht, radial, azim, horiz);
  const std::int64_t code_h = azim >> cfg2d.d, code_w = horiz >> cfg2d.d;
  std::vector<ConvPlan> plan_dec2d = plan_decoder_2d(cfg2d, "dseg", code_h, code_w);
  for (auto& p : plan_decoder_2d(cfg2d, "dreg", code_h, code_w)) plan_dec2d.push_back(p);
  check_plan(plan_enc2d, m2d.encoder(), x2d_one, Mode::kEvalInt8, "enc2d", v);
  check_plan(plan_encht, mht.encoder(), x3d_one, Mode::kEvalInt8, "encht", v);
  {
    const Tensor code_one = m2d.encode(x2d_one, Mode::kEvalHalf);
    std::vector<ConvPlan> seg, reg;
    for (const auto& p : plan_dec2d) (p.label.rfind("dseg", 0) == 0 ? seg : reg).push_back(p);
    check_plan(seg, m2d.decoder_seg(), code_one, Mode::kEvalHalf, "dec2d.dseg", v);
    check_plan(reg, m2d.decoder_reg(), code_one, Mode::kEvalHalf, "dec2d.dreg", v);
  }

  // Per top-level layer times.  The encoders run int8 (the write path), the
  // decoder heads fp16 (the read path).
  const LayerTimes enc2d = time_layers(m2d.encoder(), x2d, Mode::kEvalInt8, kEncReps);
  for (std::size_t i = 0; i < enc2d.names.size(); ++i) {
    out.add("core.enc2d." + enc2d.names[i] + ".ms", ms_per_wedge(enc2d.seconds[i]), "ms");
  }
  const LayerTimes encht = time_layers(mht.encoder(), x3d, Mode::kEvalInt8, kEncReps);
  for (std::size_t i = 0; i < encht.names.size(); ++i) {
    out.add("core.encht." + encht.names[i] + ".ms", ms_per_wedge(encht.seconds[i]), "ms");
  }
  const Tensor code2d = m2d.encode(x2d, Mode::kEvalHalf);
  std::map<std::string, Tensor> dec_inputs;
  for (auto* head : {&m2d.decoder_seg(), &m2d.decoder_reg()}) {
    const std::string hname = head->name();
    const LayerTimes t = time_layers(*head, code2d, Mode::kEvalHalf, kDecReps);
    std::vector<std::string> blocks;
    std::map<std::string, std::vector<double>> block_s;
    for (std::size_t i = 0; i < t.names.size(); ++i) {
      const std::string b = decoder_block(hname, t.names[i]);
      auto& acc = block_s[b];
      if (acc.empty()) {
        blocks.push_back(b);
        acc.assign(t.seconds[i].size(), 0.0);
      }
      for (std::size_t r = 0; r < acc.size(); ++r) acc[r] += t.seconds[i][r];
    }
    for (const auto& b : blocks) {
      out.add("core.dec2d." + hname + "." + b + ".ms", ms_per_wedge(block_s[b]), "ms");
    }
    dec_inputs.insert(t.inputs.begin(), t.inputs.end());
  }

  // Kernel phases summed over conv layers: int8 over both encoders (BCAE-2D's
  // im2col and BCAE-HT's vol2col and M <= 8 GEMMs), fp16 over both BCAE-2D
  // decoder heads.
  const double wedges_int8 = static_cast<double>(kEncReps * kSweepBatch);
  const double wedges_fp16 = static_cast<double>(kDecReps * kSweepBatch);
  Int8Phases i8;
  sweep_int8(plan_enc2d, enc2d.inputs, i8, v);
  sweep_int8(plan_encht, encht.inputs, i8, v);
  emit_phase(out, "core.int8.im2col", i8.im2col, wedges_int8);
  emit_phase(out, "core.int8.quantize", i8.quantize, wedges_int8);
  emit_phase(out, "core.int8.qgemm", i8.qgemm, wedges_int8);
  out.add("core.int8.qgemm_gops", rate_g(i8.qgemm), "Gop/s");
  emit_phase(out, "core.int8.qgemm_small_m", i8.qgemm_small_m, wedges_int8);
  out.add("core.int8.qgemm_small_m_gops", rate_g(i8.qgemm_small_m), "Gop/s");
  Fp16Phases f16;
  sweep_fp16(plan_dec2d, dec_inputs, f16, v);
  emit_phase(out, "core.fp16.im2col", f16.im2col, wedges_fp16);
  emit_phase(out, "core.fp16.hgemm", f16.hgemm, wedges_fp16);
  out.add("core.fp16.hgemm_gflops", rate_g(f16.hgemm), "GFLOP/s");

  // Whole-model BCAE-2D encode/decode on the padded batch: int8 for encode
  // (the write path) and fp16 for decode (the read path).
  BcaeModel& model = m2d;
  const Tensor& xb = x2d;
  std::vector<double> enc_s, dec_s;
  for (int r = 0; r < kEncReps; ++r) {
    const std::int64_t t0 = now_ns();
    (void)model.encode(xb, Mode::kEvalInt8);
    enc_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const Tensor code_fp16 = model.encode(xb, Mode::kEvalHalf);
  for (int r = 0; r < kDecReps; ++r) {
    const std::int64_t t0 = now_ns();
    const auto heads = model.decode(code_fp16, Mode::kEvalHalf);
    dec_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  out.add("bcae.encode_ms", ms_per_wedge(enc_s), "ms");
  out.add("bcae.decode_ms", ms_per_wedge(dec_s), "ms");

  // The read side through the registry codec: BCAE-2D bcae-fp16
  // decompress_batch timed by the tracing codec, and every decoded wedge
  // checked against a direct single-envelope decompress.
  {
    const auto fp16 = codec::make_wedge_codec("bcae-fp16", m2d);
    std::vector<codec::WedgeEnvelope> envs;
    for (std::int64_t i = 0; i < kSweepBatch; ++i) {
      envs.push_back(fp16->compress((*in.raw)[static_cast<std::size_t>(i) % in.raw->size()]));
    }
    std::vector<Record> no_records;
    SpanLog log(&no_records);
    const TracingCodec traced(*fp16, log);
    std::vector<Tensor> decoded;
    for (int r = 0; r < kDecReps; ++r) decoded = traced.decompress_batch(envs);
    for (std::size_t i = 0; i < envs.size(); ++i) {
      if (const char* problem = decoded_problem(decoded[i], fp16->decompress(envs[i]))) {
        v.add("read side, wedge " + std::to_string(i) + ": " + problem);
      }
    }
    const auto& t = log.totals().at(fp16->name() + ".decompress");
    out.add("codec.wedge.bcae-fp16.decompress_ms",
            t.busy_s * 1e3 / static_cast<double>(t.wedges), "ms");
  }

  // Learning-free baselines through direct LossyCodec calls.
  for (const char* name : {"zfp", "sz", "mgard"}) {
    const auto wc = codec::make_wedge_codec(name, m2d);
    const auto* base = dynamic_cast<const codec::BaselineWedgeCodec*>(wc.get());
    if (base == nullptr) {
      v.add(std::string("baseline sweep: ") + name + " is not a LossyCodec");
      continue;
    }
    std::vector<double> pass_s;
    for (int r = 0; r < kEncReps; ++r) {
      const std::int64_t t0 = now_ns();
      for (const auto& w : *in.raw) {
        const auto bytes = base->impl().compress(w);
        if (bytes.empty()) v.add(std::string("baseline sweep: empty ") + name + " stream");
      }
      pass_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    out.add(std::string("baselines.") + name + ".compress_ms",
            percentile(pass_s, 0.5) * 1e3 / static_cast<double>(in.raw->size()), "ms");
  }
}

}  // namespace daqbench
