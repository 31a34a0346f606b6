// serve_mixed: one in-process hlsw::serve daemon with nproc workers on a
// per-run unix socket, loaded by nproc client connections in a closed loop
// (each sends its next request only after its previous reply). Each client
// draws from a seeded deck with fixed shares of
//   synth   directives from the DSE space: a hot set (cache hits after
//           first use) and a pool of fresh configurations (misses),
//   verify  16 symbols on one of 16 directive sets — more than the 8-entry
//           vsim design LRU, so parse, elaborate and lint recur,
//   cosim   256 symbols, golden against rtl::Simulator.
// Every response must equal the document of the direct library call,
// computed in set-up (the order-dependent synth `cached` flag aside).
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "hls/interp.h"
#include "hls/report.h"
#include "hls/verify.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "vsim/harness.h"
#include "workloads.h"

namespace pb {
namespace {

using namespace hlsw;
using obs::Json;

constexpr int kWorkingSet = 16;
constexpr int kFresh = 960;
constexpr int kVerifySymbols = 16;
constexpr int kCosimSymbols = 256;
constexpr int kSetupPasses = 3;

enum Kind : std::size_t { kSynthHot, kSynthFresh, kVerify, kCosim };
// Per-client deck: the request mix, in fixed shares. Sorted by latency
// the classes run synth (30%) < cosim (40%) < verify (30%), so the median
// lands mid-cosim and p95 inside verify — never on the jump between two
// classes, where it would flip with the seed.
const std::vector<std::size_t> kMix = {kSynthHot, kSynthHot, kSynthFresh,
                                       kCosim,    kCosim,    kCosim,
                                       kCosim,    kVerify,   kVerify,
                                       kVerify};

// The verify/cosim working set: merge x unroll x clock = 16 designs.
hls::Directives working_set(int i) {
  hls::Directives d;
  d.auto_merge = (i & 1) != 0;
  const int u = 1 << ((i >> 1) & 3);
  if (u > 1) {
    d.loops["ffe"].unroll = std::min(u, 4);
    d.loops["dfe"].unroll = u;
  }
  d.clock_period_ns = (i >> 3) ? 5.0 : 10.0;
  return d;
}

// Fresh synth configurations: distinct clocks make every key distinct.
hls::Directives fresh(int k) {
  hls::Directives d;
  d.auto_merge = (k & 1) != 0;
  k >>= 1;
  const int ffe[] = {1, 2, 4}, dfe[] = {1, 2, 4, 8};
  if (ffe[k % 3] > 1) d.loops["ffe"].unroll = ffe[k % 3];
  k /= 3;
  if (dfe[k % 4] > 1) d.loops["dfe"].unroll = dfe[k % 4];
  k /= 4;
  d.clock_period_ns = 3.0 + 0.25 * k;
  return d;
}

Json synth_doc(const hls::SynthesisResult& r) {
  return Json::object()
      .set("latency_cycles", r.latency_cycles())
      .set("latency_ns", r.latency_ns())
      .set("area", r.area.total);
}

// The daemon's result without the order-dependent `cached` flag.
std::string comparable(const Json& result) {
  Json out = Json::object();
  for (const auto& [k, v] : result.items())
    if (k != "cached") out.set(k, v);
  return out.dump();
}

// What handle_cosim computes: one sequential block, one golden context.
Json cosim_doc(const hls::SynthesisResult& r,
               const std::vector<hls::PortIo>& v) {
  hls::CosimOptions o;
  o.block_size = v.size();
  auto golden_interp = std::make_shared<hls::Interpreter>(r.transformed);
  auto golden = [golden_interp] {
    return [golden_interp](const std::vector<hls::PortIo>& in) {
      return golden_interp->run_stream(in);
    };
  };
  auto dut = [&r] {
    auto sim = std::make_shared<rtl::Simulator>(r.transformed, r.schedule);
    return [sim](const std::vector<hls::PortIo>& in) {
      return sim->run_stream(in);
    };
  };
  return serve::cosim_result_to_json(hls::cosim_sweep(golden, dut, v, o));
}

// What handle_verify computes.
Json verify_doc(const hls::SynthesisResult& r,
                const std::vector<hls::PortIo>& v) {
  hls::CosimOptions o;
  o.block_size = v.size();
  const vsim::VerifyEmittedResult ve =
      vsim::verify_emitted(r.transformed, r.schedule, v, o);
  Json lint = Json::array();
  for (const vsim::LintIssue& li : ve.lint_issues)
    lint.push(Json::object()
                  .set("rule", li.rule)
                  .set("signal", li.signal)
                  .set("detail", li.detail));
  return Json::object()
      .set("ok", ve.ok())
      .set("cosim", serve::cosim_result_to_json(ve.cosim))
      .set("lint_issues", std::move(lint))
      .set("testbench", Json::object()
                            .set("passed", ve.testbench.passed)
                            .set("finished", ve.testbench.finished));
}

struct State {
  std::vector<hls::Directives> ws, fresh;
  std::vector<std::string> ws_synth, fresh_synth, verify_ref, cosim_ref;
  std::vector<hls::PortIo> verify_in, cosim_in;  // what the daemon is sent
  std::string socket;
  std::unique_ptr<serve::Server> server;
};

std::unique_ptr<State> set_up(const Args& a) {
  auto s = std::make_unique<State>();
  const hls::Function ir = qam::build_qam_decoder_ir();
  const hls::TechLibrary tech = hls::TechLibrary::asic90();
  std::mt19937_64 rng(a.seed);
  qam::LinkConfig cfg;
  cfg.prbs_seed = 1 + static_cast<std::uint32_t>(rng() % 0x7ffe);
  qam::LinkStimulus stim(cfg);
  s->verify_in = qam::link_input_batch(&stim, kVerifySymbols);
  s->cosim_in = qam::link_input_batch(&stim, kCosimSymbols);
  std::vector<hls::PortIo> verify_ref_in = s->verify_in;
  // Self-test: the verify references are computed on a stimulus that lost
  // its last vector, while the daemon gets all of them. (A changed sample
  // value leaves the documents alike: they report mismatch counts, not
  // output values.)
  if (a.fault == "corrupt_vector") verify_ref_in.pop_back();

  for (int i = 0; i < kWorkingSet; ++i) {
    s->ws.push_back(working_set(i));
    const hls::SynthesisResult r = hls::run_synthesis(ir, s->ws.back(), tech);
    s->ws_synth.push_back(synth_doc(r).dump());
    s->verify_ref.push_back(verify_doc(r, verify_ref_in).dump());
    s->cosim_ref.push_back(cosim_doc(r, s->cosim_in).dump());
  }
  std::vector<int> order(kFresh);
  for (int k = 0; k < kFresh; ++k) order[static_cast<std::size_t>(k)] = k;
  std::shuffle(order.begin(), order.end(), rng);
  for (const int k : order) {
    s->fresh.push_back(fresh(k));
    s->fresh_synth.push_back(
        synth_doc(hls::run_synthesis(ir, s->fresh.back(), tech)).dump());
  }
  s->socket = a.run_dir + "/d.sock";
  serve::ServerOptions so;
  so.unix_path = s->socket;
  so.workers = a.threads;
  s->server = std::make_unique<serve::Server>(so);
  std::string err;
  if (!s->server->start(&err))
    throw std::runtime_error("daemon failed to start: " + err);
  serve::Client c;
  Json resp;
  if (!c.connect_unix(s->socket, &err) || !c.call("ping", Json(), &resp, &err))
    throw std::runtime_error("daemon does not answer: " + err);
  return s;
}

// One client connection's closed loop.
class Client {
 public:
  Client(const State& s, int id, std::uint64_t seed)
      : s_(s),
        tenant_("c" + std::to_string(id)),
        deck_(kMix, seed),
        ws_deck_(indices(kWorkingSet), seed ^ 0x9e3779b97f4a7c15ull) {}

  bool connect() { return cl_.connect_unix(s_.socket); }

  // One request; `fresh_next` hands out fresh configurations across
  // clients.
  bool request(std::atomic<std::size_t>* fresh_next, double* ms,
               Json* params_out, Json* resp_out, double* encode_ms) {
    const std::size_t kind = deck_.next();
    const std::size_t ws = ws_deck_.next();
    const auto t0 = Clock::now();
    Json params = Json::object().set("design", "qam_decoder");
    const std::string* want = nullptr;
    std::string op = "synth";
    if (kind == kSynthFresh) {
      const std::size_t k = fresh_next->fetch_add(1) % s_.fresh.size();
      params.set("directives", serve::directives_to_json(s_.fresh[k]));
      want = &s_.fresh_synth[k];
    } else {
      params.set("directives", serve::directives_to_json(s_.ws[ws]));
      if (kind == kSynthHot) {
        want = &s_.ws_synth[ws];
      } else if (kind == kVerify) {
        op = "verify";
        params.set("vectors", serve::vectors_to_json(s_.verify_in));
        want = &s_.verify_ref[ws];
      } else {
        op = "cosim";
        params.set("vectors", serve::vectors_to_json(s_.cosim_in));
        want = &s_.cosim_ref[ws];
      }
    }
    *encode_ms = ms_since(t0);
    Json resp;
    const bool transport = cl_.call(op, params, &resp, nullptr, tenant_);
    *ms = ms_since(t0);
    const Json* ok = resp.find("ok");
    const Json* result = resp.find("result");
    const bool good = transport && ok && ok->is_bool() && ok->as_bool() &&
                      result && comparable(*result) == *want;
    if (params_out) *params_out = std::move(params);
    if (resp_out) *resp_out = std::move(resp);
    return good;
  }

 private:
  const State& s_;
  std::string tenant_;
  Deck deck_;
  Deck ws_deck_;
  serve::Client cl_;
};

// Runs nproc clients for `seconds`; merges their samples. With `layers`,
// each request's encode, round trip and replayed codec are timed.
Samples load(const Args& a, const State& s, std::uint64_t seed,
             double seconds, std::atomic<std::size_t>* fresh_next,
             LayerTable* layers) {
  std::vector<Samples> per(a.threads);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < a.threads; ++c)
    threads.emplace_back([&, c] {
      Client cl(s, static_cast<int>(c), seed * 1000003u + c);
      if (!cl.connect()) {
        per[c].record(false, 0, 0);
        return;
      }
      per[c] = closed_loop(seconds, [&](double* ms) {
        if (!layers) {
          double enc = 0;
          return cl.request(fresh_next, ms, nullptr, nullptr, &enc);
        }
        Json params, resp;
        double enc = 0;
        const bool ok = cl.request(fresh_next, ms, &params, &resp, &enc);
        // Replay the codec the frames went through: request dump and
        // parse, the daemon's vector decode, response dump and parse.
        const auto t = Clock::now();
        Json back;
        Json::parse(params.dump(), &back);
        if (const Json* v = params.find("vectors")) {
          std::vector<hls::PortIo> decoded;
          serve::vectors_from_json(*v, &decoded, nullptr);
        }
        Json::parse(resp.dump(), &back);
        layers->add("serve.codec.ms", enc + ms_since(t));
        layers->add("serve.encode.ms", enc);
        layers->add("serve.roundtrip_ms", *ms - enc);
        layers->add("op_wall_ms", *ms);
        return ok;
      });
    });
  for (std::thread& t : threads) t.join();
  Samples all;
  double wall_s = 0;
  for (const Samples& p : per) {
    merge_into(&all, p);
    wall_s = std::max(wall_s, p.wall_s);
  }
  all.wall_s = wall_s;  // the clients ran side by side
  return all;
}

// The daemon's serve.job_ms histogram through the metrics op: {count, sum}.
std::pair<double, double> job_histogram(serve::Client* c) {
  Json resp;
  if (!c->call("metrics", Json(), &resp)) return {0, 0};
  const Json* j = resp.find("result");
  for (const char* k : {"registry", "histograms", "serve.job_ms"})
    j = j ? j->find(k) : nullptr;
  if (j == nullptr) return {0, 0};
  const double count = j->find("count")->as_double();
  return {count, count * j->find("mean")->as_double()};
}

Report traced(const Args& a, const State& s) {
  Report rep;
  std::atomic<std::size_t> fresh_next{0};
  serve::Client ctl;
  if (!ctl.connect_unix(s.socket))
    throw std::runtime_error("control connection failed");

  // Phases A (untraced, the overhead base) and B (the library's spans on)
  // alternate in slices so drift hits both alike. Job time, spans and
  // counters are differenced across each B slice.
  constexpr int kSlices = 6;
  Samples base, tr;
  LayerTable layers;
  std::map<std::string, double> spans, delta;
  double job_n = 0, job_sum = 0;
  for (int slice = 0; slice < kSlices; ++slice) {
    const double secs = a.seconds / kSlices;
    const std::uint64_t seed = a.seed * 31 + static_cast<std::uint64_t>(slice);
    if (slice % 2 == 0) {
      merge_into(&base, load(a, s, seed, secs, &fresh_next, nullptr));
      continue;
    }
    const auto [n0, sum0] = job_histogram(&ctl);
    drain_spans();
    const auto before = counter_snapshot();
    obs::set_enabled(true);
    merge_into(&tr, load(a, s, seed, secs, &fresh_next, &layers));
    obs::set_enabled(false);
    const auto after = counter_snapshot();
    for (const auto& [k, ms] : drain_spans()) spans[k] += ms;
    for (const auto& [k, v] : after) delta[k] += v - value_or_zero(before, k);
    const auto [n1, sum1] = job_histogram(&ctl);
    job_n += n1 - n0;
    job_sum += sum1 - sum0;
  }
  std::vector<double> ping;
  Json resp;
  for (int i = 0; i < 200; ++i) {
    const auto t = Clock::now();
    if (ctl.call("ping", Json(), &resp)) ping.push_back(ms_since(t));
  }
  const double job_mean = job_n > 0 ? job_sum / job_n : 0;
  const auto& after = delta;
  const std::map<std::string, double> before;

  const double n = std::max<double>(1, static_cast<double>(tr.attempted));
  const auto span = [&](const char* k) { return value_or_zero(spans, k) / n; };
  std::map<std::string, double> v;
  for (const auto& [k, total] : layers.totals()) v[k] = total / n;
  add_phase_totals(&rep, &v, base, tr);
  v["serve.job_ms"] = job_mean;
  v["serve.wait_ms"] = v["serve.roundtrip_ms"] - job_mean;
  v["serve.ping_ms"] = ping.empty() ? 0 : median(ping);
  v["serve.busy_rejections"] = value_or_zero(after, "serve.busy_rejections");
  const double t = span("hls/transforms"), sc = span("hls/schedule"),
               b = span("hls/bind"), syn = span("hls/synthesis");
  v["hls.transforms.ms"] = t;
  v["hls.schedule.ms"] = sc;
  v["hls.bind.ms"] = b;
  v["hls.area.ms"] = syn - t - sc - b;
  v["vsim.parse.ms"] = span("vsim/vsim.parse");
  v["vsim.elaborate.ms"] = span("vsim/vsim.elaborate");
  v["vsim.compile_plan.ms"] = span("vsim/vsim.compile");
  v["vsim.testbench.ms"] = span("vsim/vsim.run");
  v["rtl.sim.ms"] = span("rtl.sim/run_stream") + span("rtl.sim/run");
  // The job's own remainder: everything inside a job no span covers
  // (emit, lint, the vsim DUT and golden legs, result documents).
  double inner = syn;
  for (const char* k : {"vsim.parse.ms", "vsim.elaborate.ms",
                        "vsim.compile_plan.ms", "vsim.testbench.ms",
                        "rtl.sim.ms"})
    inner += v[k];
  v["unattributed_ms"] = job_mean - inner;
  const double hits = value_or_zero(after, "serve.synth_cache.hits"),
               misses = value_or_zero(after, "serve.synth_cache.misses");
  v["hls.synth_cache.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  const double dh = value_or_zero(after, "vsim.design_cache.hits"),
               dm = value_or_zero(after, "vsim.design_cache.misses");
  v["vsim.design_cache.hit_ratio"] = dh + dm > 0 ? dh / (dh + dm) : 0;
  v["util.pool.efficiency"] = job_sum / (a.threads * tr.wall_s * 1000.0);
  const double encode = v["serve.encode.ms"];
  v.erase("serve.encode.ms");
  rep.line(fmt("traced phase: %u clients, %lld requests; untraced p50 %.4f "
               "ms, traced p50 %.4f ms",
               a.threads, tr.attempted, quantile_ms(base, 0.5),
               quantile_ms(tr, 0.5)));
  rep.line(fmt("request = encode %.4f + wait %.4f + job %.4f ms (op_wall "
               "%.4f); unattributed_ms is the job's remainder after its "
               "spans",
               encode, v["serve.wait_ms"], job_mean, v["op_wall_ms"]));
  add_layer_metrics(&rep, v);
  rep.line("registry counters over the traced slices:");
  for (const std::string& l :
       counter_diff(before, after, {"serve.", "vsim.", "hls.", "dse."}))
    rep.line("  " + l);
  return rep;
}

}  // namespace

Report run_serve_mixed(const Args& a) {
  std::vector<double> setup_s;
  std::unique_ptr<State> s;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    s.reset();  // stops the previous pass's daemon
    const auto t0 = pass == 0 ? process_start() : Clock::now();
    s = set_up(a);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  Report rep;
  if (a.trace) {
    rep = traced(a, *s);
  } else {
    std::atomic<std::size_t> fresh_next{0};
    const Samples samples =
        load(a, *s, a.seed, a.seconds, &fresh_next, nullptr);
    add_end_to_end(&rep, samples, median(setup_s));
  }
  s->server->stop();
  return rep;
}

}  // namespace pb
