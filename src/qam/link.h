// End-to-end link harness for the Figure 3 system: PRBS data -> 64-QAM
// mapper (the paper's two's-complement bit mapping) -> T/2 multipath
// channel with AWGN -> decoder under test -> SER/MSE metrics.
//
// Training strategy (the paper leaves training out of scope): the float
// reference decoder trains with known symbols; its converged coefficients
// are quantized and downloaded into the device under test, which then runs
// decision-directed. The same quantized input stream is fed to every model
// so fixed, IR and RTL runs are bit-comparable.
#pragma once

#include <complex>
#include <vector>

#include "dsp/channel.h"
#include "dsp/prbs.h"
#include "fixpt/complex_fixed.h"
#include "hls/interp.h"
#include "hls/ir.h"
#include "qam/decoder_float.h"

namespace hlsw::qam {

// The paper's data word is ARITHMETIC: data = r*64 + i*8 evaluated in
// fixed-point and wrapped to 6 bits, with r = ri/8, i = ii/8 and
// ri, ii in [-4, 3]. Because the sum is arithmetic, a negative ii borrows
// from the ri field — this is NOT a bit-field concatenation (a genuine
// subtlety of Figure 4; see EXPERIMENTS.md finding F4-word). paper_map is
// the exact inverse: word -> (ri, ii) -> constellation point at levels
// (2*ri + 1)/16.
inline std::complex<double> paper_map(int data, int bits = 3) {
  const int levels = 1 << bits;
  const int half = levels / 2;
  const int mask = levels - 1;
  const int ii = ((data + half) & mask) - half;   // low field, re-centered
  const int rf = ((data - ii) >> bits) & mask;    // undo the borrow
  const int ri = ((rf + half) & mask) - half;     // sign-extend
  return {(2.0 * ri + 1) / (2 * levels), (2.0 * ii + 1) / (2 * levels)};
}

// Forward direction of the same convention: the word Figure 4's decoder
// emits for axis indices ri, ii in [-L/2, L/2 - 1].
inline int paper_word(int ri, int ii, int bits = 3) {
  const int levels = 1 << bits;
  return (ri * levels + ii) & (levels * levels - 1);
}

// Quantizes a channel sample into the decoder's X_W-bit input raw values
// (round-to-nearest, saturating — the ADC in front of the decoder).
inline hls::FxValue quantize_sample(std::complex<double> s, int x_w = 10) {
  const hls::FxType t{x_w, 0, true, true, fixpt::Quant::kRnd,
                      fixpt::Ovf::kSat};
  hls::FxValue v;
  v.fw = x_w;
  v.cplx = true;
  const double scale = std::ldexp(1.0, x_w);
  // Round half toward +inf (Quant::kRnd) so this agrees bit-for-bit with
  // fixpt::fixed<..., kRnd, kSat> construction from double.
  auto q = [&](double c) -> __int128 {
    double r = std::floor(c * scale + 0.5);
    const double hi = scale / 2 - 1, lo = -scale / 2;
    if (r > hi) r = hi;
    if (r < lo) r = lo;
    return static_cast<__int128>(static_cast<long long>(r));
  };
  v.re = q(s.real());
  v.im = q(s.imag());
  (void)t;
  return v;
}

struct LinkConfig {
  dsp::ChannelConfig channel = default_channel();
  int x_w = 10;          // decoder input width
  int decision_delay = 2;  // symbols between input and its decision
  int qam_bits = 3;        // bits per axis: 3 = the paper's 64-QAM
  uint32_t prbs_seed = 0x2A5;

  // A channel an 8-tap T/2 FFE + 16-tap DFE comfortably equalizes while
  // keeping the converged coefficients inside the paper's sc_fixed<10,0>
  // range (|c| < 0.5). That feasibility constraint is tight: the slicer
  // grid spans nearly the full input range, so the two main T/2 taps carry
  // a front-end gain slightly above 1 (an AGC choice) — otherwise unit
  // equalizer gain would need |c| > 0.5. The small complex third tap is
  // the ISI the DFE exists for. Verified empirically: max converged
  // |coefficient component| ~ 0.46 (see tests/qam/link_test.cpp).
  static dsp::ChannelConfig default_channel() {
    dsp::ChannelConfig c;
    c.taps = {{1.10, 0.0}, {1.06, 0.0}, {0.08, 0.05}, {-0.04, 0.02}};
    c.snr_db = 36.0;
    c.symbol_energy = 0.1641;  // 64-QAM at (2k-7)/16 levels: E = 2*168/(8*256)
    return c;
  }
};

// One symbol period of stimulus: the transmitted word, the exact channel
// samples, and their quantized raw versions.
struct LinkSample {
  int sent = 0;                      // 6-bit data word
  std::complex<double> point;        // transmitted constellation point
  std::complex<double> s0, s1;       // received T/2 samples (double)
  hls::FxValue q0, q1;               // quantized to X_W bits
};

// Deterministic stimulus generator.
class LinkStimulus {
 public:
  explicit LinkStimulus(const LinkConfig& cfg)
      : cfg_(cfg), ch_(cfg.channel), prbs_(dsp::Prbs::kPrbs15, cfg.prbs_seed) {}

  LinkSample next() {
    LinkSample s;
    s.sent = prbs_.next_word(2 * cfg_.qam_bits);
    s.point = paper_map(s.sent, cfg_.qam_bits);
    const auto pair = ch_.send(s.point);
    s.s0 = pair.s0;
    s.s1 = pair.s1;
    s.q0 = quantize_sample(s.s0, cfg_.x_w);
    s.q1 = quantize_sample(s.s1, cfg_.x_w);
    history_.push_back(s.sent);
    return s;
  }

  // Transmitted word `delay` symbols ago (for SER against decisions).
  int sent_delayed(int delay) const {
    const int n = static_cast<int>(history_.size());
    return n > delay ? history_[static_cast<size_t>(n - 1 - delay)] : -1;
  }

  const LinkConfig& config() const { return cfg_; }

 private:
  LinkConfig cfg_;
  dsp::MultipathChannel ch_;
  dsp::Prbs prbs_;
  std::vector<int> history_;
};

// Batches `n` symbols of stimulus into per-symbol PortIo maps for the
// decoder's "x_in" port (the {T/2-early, T/2-late} sample pair) — the
// input format of Interpreter/Simulator run_stream(vector<PortIo>).
inline std::vector<hls::PortIo> link_input_batch(LinkStimulus* stim, int n) {
  std::vector<hls::PortIo> ins;
  ins.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const LinkSample s = stim->next();
    hls::PortIo io;
    io.arrays["x_in"] = {s.q0, s.q1};
    ins.push_back(std::move(io));
  }
  return ins;
}

// Trains the float reference over `n` symbols and returns it (coefficients
// converged for decision delay cfg.decision_delay).
inline QamDecoderFloat train_float_reference(LinkStimulus* stim, int n) {
  QamDecoderFloat dec(stim->config().qam_bits);
  std::vector<std::complex<double>> sent_points;
  for (int i = 0; i < n; ++i) {
    const LinkSample s = stim->next();
    sent_points.push_back(s.point);
    const int d = stim->config().decision_delay;
    if (static_cast<int>(sent_points.size()) > d) {
      const auto target =
          sent_points[sent_points.size() - 1 - static_cast<size_t>(d)];
      dec.decode(s.s0, s.s1, &target);
    } else {
      dec.decode(s.s0, s.s1);
    }
  }
  return dec;
}

// Quantizes a double coefficient into a W-bit, 0-integer-bit complex value.
template <int W>
fixpt::complex_fixed<W, 0> quantize_coeff(std::complex<double> c) {
  using S = fixpt::fixed<W, 0, fixpt::Quant::kRnd, fixpt::Ovf::kSat>;
  return fixpt::complex_fixed<W, 0>(S(c.real()), S(c.imag()));
}

// Coefficients as IR FxValues for Interpreter/Simulator preload.
inline std::vector<hls::FxValue> coeffs_to_fxvalues(
    const QamDecoderFloat& dec, bool ffe, int w) {
  const int n = ffe ? QamDecoderFloat::kNffe : QamDecoderFloat::kNdfe;
  std::vector<hls::FxValue> out;
  const double scale = std::ldexp(1.0, w);
  const double hi = scale / 2 - 1, lo = -scale / 2;
  // Same kRnd/kSat rule as quantize_coeff.
  auto q = [&](double v) {
    double r = std::floor(v * scale + 0.5);
    if (r > hi) r = hi;
    if (r < lo) r = lo;
    return static_cast<__int128>(static_cast<long long>(r));
  };
  for (int k = 0; k < n; ++k) {
    const auto c = ffe ? dec.ffe_coeff(k) : dec.dfe_coeff(k);
    hls::FxValue v;
    v.fw = w;
    v.cplx = true;
    v.re = q(c.real());
    v.im = q(c.imag());
    out.push_back(v);
  }
  return out;
}

}  // namespace hlsw::qam
