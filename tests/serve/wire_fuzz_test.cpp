// Robustness of the socket's untrusted input. The corpus is valid request
// frames for every job op (synth, dse, cosim, verify, profile) whose
// directives and vectors come from the codec's own encoders; each trial
// mutates one of them with byte flips, truncation, spliced tokens or a
// number swapped for an edge spelling (-nan, 1e400, 1e30, 2^31, 2^63, 2.5,
// -0, 0x10), then pushes the bytes through the frame reader and the
// decoder. Every input must either fail Json::parse with a message, be
// refused by the wire codec with a message, or decode inside the bounds
// documented in serve/wire.h, with every decoded integer equal to the
// number that was sent. Under the .asan variant a crash, an out-of-bounds
// access or an overflowing float-to-int cast also fails.
//
// Labeled `fuzz`: HLSW_FUZZ_ITERS=20000 ctest -L fuzz scales the trials.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "../fuzz_iters.h"
#include "obs/json.h"
#include "serve/proto.h"
#include "serve/wire.h"

namespace hlsw::serve {
namespace {

using obs::Json;

hls::FxValue fx(long long re, int fw, long long im = 0, bool cplx = false) {
  hls::FxValue v;
  v.re = re;
  v.im = im;
  v.fw = fw;
  v.cplx = cplx;
  return v;
}

std::vector<std::string> seed_frames() {
  hls::Directives dir;
  dir.clock_period_ns = 4.5;
  dir.loops["ffe"].unroll = 2;
  dir.loops["dfe"].pipeline_ii = 1;
  dir.merge_groups = {{"ffe", "dfe"}};
  dir.arrays["coef"].mapping = hls::ArrayMapping::kMemory;
  dir.arrays["coef"].mem_read_ports = 2;
  dir.interfaces["x_in"] = hls::InterfaceKind::kHandshake;
  dir.max_real_multipliers = 4;
  const Json directives = directives_to_json(dir);

  std::vector<hls::PortIo> vectors(3);
  vectors[0].arrays["x_in"] = {fx(-2048, 11), fx(2047, 11)};
  vectors[1].arrays["x_in"] = {fx(5, 3, -7, true), fx(0, 0)};
  vectors[2].vars["gain"] = {fx(9007199254740993LL, 15)};
  const Json vecs = vectors_to_json(vectors);

  const auto req = [](const char* op, long long id) {
    return Json::object().set("op", op).set("id", id).set("design",
                                                          "qam_decoder");
  };
  std::vector<std::string> frames;
  frames.push_back(req("synth", 1)
                       .set("directives", directives)
                       .set("tech", "fpga_lut4")
                       .dump());
  frames.push_back(
      req("dse", 2)
          .set("options",
               Json::object()
                   .set("clock_period_ns", 3.0)
                   .set("unroll_factors", Json::array().push(1).push(2).push(4))
                   .set("pipeline_iis", Json::array().push(0).push(1))
                   .set("try_merge", true)
                   .set("prune", true)
                   .set("max_configs", 64))
          .dump());
  frames.push_back(req("cosim", 3)
                       .set("directives", directives)
                       .set("vectors", vecs)
                       .set("options", Json::object()
                                           .set("block_size", 2)
                                           .set("mismatch_limit", 4))
                       .dump());
  frames.push_back(
      req("verify", 4).set("directives", directives).set("vectors", vecs).dump());
  frames.push_back(req("profile", 5)
                       .set("vectors", vecs)
                       .set("options", Json::object()
                                           .set("lanes", 2)
                                           .set("run_rtl_sim", true))
                       .dump());
  return frames;
}

const char* const kEdgeNumbers[] = {"-nan", "1e400",
                                    "1e30", "2147483648",
                                    "9223372036854775808", "2.5",
                                    "-0",   "0x10"};
const char* const kTokens[] = {"{", "}", "[", "]", ",", ":", "\"", "null",
                               "true", "\"fw\"", "\"unroll\"", "-", "e",
                               "1e30", "\\u0000"};

std::string mutate(std::string s, const std::vector<std::string>& corpus,
                   std::mt19937_64* rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>((*rng)() % (n == 0 ? 1 : n));
  };
  const int edits = 1 + static_cast<int>(pick(3));
  for (int e = 0; e < edits; ++e) {
    switch (pick(5)) {
      case 0:  // byte flip
        if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1 << pick(8));
        break;
      case 1:  // truncation
        s.resize(pick(s.size() + 1));
        break;
      case 2: {  // spliced token or a run of another seed
        std::string ins;
        if (pick(2) == 0) {
          ins = kTokens[pick(std::size(kTokens))];
        } else {
          const std::string& o = corpus[pick(corpus.size())];
          const std::size_t at = pick(o.size());
          ins = o.substr(at, 1 + pick(24));
        }
        s.insert(pick(s.size() + 1), ins);
        break;
      }
      default: {  // swap one number for an edge spelling
        std::vector<std::pair<std::size_t, std::size_t>> nums;
        for (std::size_t i = 0; i < s.size();) {
          const bool starts = (s[i] >= '0' && s[i] <= '9') ||
                              (s[i] == '-' && i + 1 < s.size() &&
                               s[i + 1] >= '0' && s[i + 1] <= '9');
          if (!starts || (i > 0 && (s[i - 1] == '"' ||
                                    (s[i - 1] >= '0' && s[i - 1] <= '9')))) {
            ++i;
            continue;
          }
          std::size_t j = i + 1;
          while (j < s.size() && std::string_view("0123456789.eE+-")
                                         .find(s[j]) != std::string::npos)
            ++j;
          nums.emplace_back(i, j - i);
          i = j;
        }
        if (nums.empty()) break;
        const auto [at, len] = nums[pick(nums.size())];
        s.replace(at, len, kEdgeNumbers[pick(std::size(kEdgeNumbers))]);
        break;
      }
    }
  }
  return s;
}

// Sends `payload` as one frame with a possibly corrupted length prefix
// through a socketpair whose write side is then shut, and reads it back.
// The reader must answer with a typed status, and return the payload
// intact whenever the prefix was honest.
void check_frame(const std::string& payload, std::mt19937_64* rng) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int mode = static_cast<int>((*rng)() % 4);
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  if (mode == 1) len = static_cast<std::uint32_t>((*rng)());
  if (mode == 2) len += 1 + static_cast<std::uint32_t>((*rng)() % 64);
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(len >> 24), static_cast<unsigned char>(len >> 16),
      static_cast<unsigned char>(len >> 8), static_cast<unsigned char>(len)};
  std::string bytes(reinterpret_cast<const char*>(prefix), 4);
  bytes += payload;
  if (mode == 3) bytes.resize(static_cast<std::size_t>((*rng)() % 4));
  ASSERT_EQ(::send(sv[0], bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(sv[0], SHUT_WR);
  std::string got;
  const FrameStatus st = read_frame(sv[1], &got, 1u << 20);
  close_fd(sv[0]);
  close_fd(sv[1]);
  if (mode == 0) {
    ASSERT_EQ(st, FrameStatus::kOk);
    EXPECT_EQ(got, payload);
  } else if (mode == 3) {
    EXPECT_TRUE(st == FrameStatus::kClosed || st == FrameStatus::kTruncated)
        << to_string(st);
  } else {
    EXPECT_TRUE(st == FrameStatus::kOk || st == FrameStatus::kTruncated ||
                st == FrameStatus::kOversized)
        << to_string(st);
  }
}

// A decoded integer must equal the number that was sent.
void expect_exact(const Json* sent, long long got, const std::string& what) {
  ASSERT_NE(sent, nullptr) << what;
  EXPECT_EQ(sent->as_double(), static_cast<double>(got)) << what;
}

// Runs the wire codec on every part of `req` a job handler decodes.
// Returns false (with *err) at the first refusal; otherwise checks the
// decoded values against the documented bounds.
bool decode(const Json& req, std::string* err) {
  if (!req.is_object()) {
    *err = "request root must be a JSON object";
    return false;
  }
  long long id = 0;
  if (const Json* j = req.find("id")) {
    if (!int_from_json(*j, "id", -kMaxJsonInt, kMaxJsonInt, &id, err))
      return false;
    expect_exact(j, id, "id");
  }
  const Json* opj = req.find("op");
  const std::string op = opj != nullptr && opj->is_string() ? opj->as_string()
                                                            : "";
  hls::TechLibrary tech;
  if (!tech_from_json(req.find("tech"), &tech, err)) return false;
  if (const Json* d = req.find("directives")) {
    hls::Directives dir;
    if (!directives_from_json(*d, &dir, err)) return false;
    EXPECT_TRUE(std::isfinite(dir.clock_period_ns) &&
                dir.clock_period_ns > 0);
    for (const auto& [label, ld] : dir.loops) {
      const Json& sent = *d->find("loops")->find(label);
      EXPECT_LE(ld.pipeline_ii, kMaxPipelineIi) << label;
      if (const Json* u = sent.find("unroll"))
        expect_exact(u, ld.unroll, label + ".unroll");
      if (const Json* ii = sent.find("pipeline_ii"))
        expect_exact(ii, ld.pipeline_ii, label + ".pipeline_ii");
    }
    if (const Json* m = d->find("max_real_multipliers"))
      expect_exact(m, dir.max_real_multipliers, "max_real_multipliers");
  }
  if (const Json* v = req.find("vectors")) {
    std::vector<hls::PortIo> vecs;
    if (!vectors_from_json(*v, &vecs, err)) return false;
    for (const hls::PortIo& io : vecs) {
      for (const auto& [name, fxv] : io.vars)
        EXPECT_LE(std::abs(fxv.fw), kMaxFracWidth) << name;
      for (const auto& [name, vals] : io.arrays)
        for (const hls::FxValue& fxv : vals)
          EXPECT_LE(std::abs(fxv.fw), kMaxFracWidth) << name;
    }
  }
  const Json* opts = req.find("options");
  if (op == "dse") {
    hls::DseOptions o;
    if (!dse_options_from_json(opts, &o, err)) return false;
    EXPECT_LE(o.unroll_factors.size(), kMaxDseAxis);
    EXPECT_LE(o.pipeline_iis.size(), kMaxDseAxis);
    for (const int ii : o.pipeline_iis) EXPECT_LE(ii, kMaxPipelineIi);
    if (const Json* mc = opts != nullptr ? opts->find("max_configs") : nullptr)
      expect_exact(mc, o.max_configs, "max_configs");
  } else if (op == "cosim" || op == "verify") {
    hls::CosimOptions o;
    if (!cosim_options_from_json(opts, &o, err)) return false;
    EXPECT_GE(o.block_size, 1u);
  } else if (op == "profile" && opts != nullptr && opts->is_object()) {
    if (const Json* l = opts->find("lanes")) {
      long long lanes = 0;
      if (!int_from_json(*l, "options.lanes", INT32_MIN, INT32_MAX, &lanes,
                         err))
        return false;
      expect_exact(l, lanes, "options.lanes");
    }
  }
  return true;
}

TEST(WireFuzz, MutatedFramesAreParsedRefusedOrDecodedInBounds) {
  const std::vector<std::string> corpus = seed_frames();
  for (const std::string& f : corpus) {
    Json j;
    std::string err;
    ASSERT_TRUE(Json::parse(f, &j, &err)) << err;
    ASSERT_TRUE(decode(j, &err)) << err << "\n" << f;
  }

  std::mt19937_64 rng(20261017);
  const int trials = fuzz_iters(400);
  int parse_errors = 0, refused = 0, decoded = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string text =
        mutate(corpus[static_cast<std::size_t>(trial) % corpus.size()],
               corpus, &rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + text);
    check_frame(text, &rng);
    Json req;
    std::string err;
    if (!Json::parse(text, &req, &err)) {
      EXPECT_FALSE(err.empty());
      ++parse_errors;
    } else if (!decode(req, &err)) {
      EXPECT_FALSE(err.empty());
      ++refused;
    } else {
      ++decoded;
    }
    if (HasFailure()) return;
  }
  std::printf("wire fuzz: %d trials, %d parse errors, %d refused, %d decoded\n",
              trials, parse_errors, refused, decoded);
  EXPECT_GT(parse_errors, 0);
  EXPECT_GT(refused, 0);
  EXPECT_GT(decoded, 0);
}

}  // namespace
}  // namespace hlsw::serve
