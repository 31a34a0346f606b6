// End-to-end daemon tests over a real unix socket: protocol hardening
// (every malformed input maps to a typed error and leaves the daemon
// healthy), worker-side failure isolation (a throwing tenant design fails
// only its own job), deterministic backpressure, and graceful shutdown.
#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <sys/socket.h>
#include <unistd.h>

#include "hls/builder.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/proto.h"
#include "serve/server.h"

namespace hlsw::serve {
namespace {

using obs::Json;

std::string test_socket(const std::string& name) {
  return "/tmp/hlsw_serve_test_" + std::to_string(::getpid()) + "_" + name +
         ".sock";
}

// A deliberately small design so job bodies are cheap; the tests here
// exercise the daemon, not the scheduler math.
hls::Function build_tiny() {
  hls::FunctionBuilder fb("tiny");
  const int a = fb.add_array("a", 4, hls::fx(12, 0), false, hls::PortDir::kIn);
  const int b = fb.add_array("b", 4, hls::fx(24, 2), false, hls::PortDir::kOut);
  {
    auto l = fb.loop("scale", 4);
    const int p = l.mul(l.array_read(a, {1, 0}), l.array_read(a, {1, 0}));
    l.array_write(b, {1, 0}, l.cast(hls::fx(24, 2), p));
  }
  return fb.build();
}

const Json* error_code(const Json& resp) {
  const Json* e = resp.find("error");
  return e ? e->find("code") : nullptr;
}

void expect_error(const Json& resp, const std::string& code, long long id) {
  ASSERT_NE(resp.find("ok"), nullptr) << resp.dump();
  EXPECT_FALSE(resp.find("ok")->as_bool()) << resp.dump();
  EXPECT_EQ(resp.find("id")->as_int(), id) << resp.dump();
  ASSERT_NE(error_code(resp), nullptr) << resp.dump();
  EXPECT_EQ(error_code(resp)->as_string(), code) << resp.dump();
}

TEST(Server, PingEchoesIdsAndSynthHitsTheSharedCache) {
  ServerOptions opts;
  opts.unix_path = test_socket("ping");
  opts.workers = 2;
  Server server(opts);
  server.register_design("tiny", build_tiny);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client client;
  ASSERT_TRUE(client.connect_unix(opts.unix_path, &err)) << err;

  Json resp;
  ASSERT_TRUE(client.call("ping", Json(), &resp, &err));
  EXPECT_TRUE(resp.find("ok")->as_bool());
  EXPECT_EQ(resp.find("id")->as_int(), 1);
  EXPECT_TRUE(resp.find("result")->find("pong")->as_bool());

  const Json params = Json::object().set("design", "tiny");
  ASSERT_TRUE(client.call("synth", params, &resp, &err));
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  const Json* first = resp.find("result");
  EXPECT_FALSE(first->find("cached")->as_bool());
  const long long cycles = first->find("latency_cycles")->as_int();
  const double area = first->find("area")->as_double();
  EXPECT_GT(cycles, 0);
  EXPECT_GT(area, 0.0);

  // Second identical request: served from the process-wide cache with the
  // same metrics, and flagged as such.
  ASSERT_TRUE(client.call("synth", params, &resp, &err));
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  EXPECT_TRUE(resp.find("result")->find("cached")->as_bool());
  EXPECT_EQ(resp.find("result")->find("latency_cycles")->as_int(), cycles);
  EXPECT_EQ(resp.find("result")->find("area")->as_double(), area);

  // metrics reflects the traffic: job counters, cache hit rate, and the
  // latency histogram with p50/p95/p99 (the registry is process-global so
  // assertions are lower bounds, not exact counts).
  ASSERT_TRUE(client.call("metrics", Json(), &resp, &err));
  const Json* m = resp.find("result");
  ASSERT_NE(m, nullptr);
  EXPECT_GE(m->find("server")->find("jobs")->find("ok")->as_int(), 2);
  EXPECT_EQ(m->find("server")->find("jobs")->find("failed")->as_int(), 0);
  EXPECT_GT(
      m->find("server")->find("synth_cache")->find("hit_rate")->as_double(),
      0.0);
  const Json* hist = m->find("registry")->find("histograms");
  ASSERT_NE(hist, nullptr);
  const Json* job_ms = hist->find("serve.job_ms");
  ASSERT_NE(job_ms, nullptr) << m->dump(2);
  EXPECT_GE(job_ms->find("count")->as_int(), 2);
  EXPECT_NE(job_ms->find("p50"), nullptr);
  EXPECT_NE(job_ms->find("p95"), nullptr);
  EXPECT_NE(job_ms->find("p99"), nullptr);

  server.stop();
}

// Satellite: protocol hardening. Every malformed payload earns a typed
// error on the SAME connection, which must remain usable afterwards.
TEST(Server, PayloadErrorsAreTypedAndLeaveTheConnectionUsable) {
  ServerOptions opts;
  opts.unix_path = test_socket("proto_errors");
  opts.workers = 1;
  Server server(opts);
  server.register_design("tiny", build_tiny);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const int fd = connect_unix(opts.unix_path, &err);
  ASSERT_GE(fd, 0) << err;

  auto roundtrip = [&](const std::string& payload) {
    EXPECT_TRUE(write_frame(fd, payload));
    std::string raw;
    EXPECT_EQ(read_frame(fd, &raw), FrameStatus::kOk);
    Json resp;
    std::string perr;
    EXPECT_TRUE(Json::parse(raw, &resp, &perr)) << perr;
    return resp;
  };

  expect_error(roundtrip("{nope"), "bad_json", 0);
  expect_error(roundtrip("[1, 2, 3]"), "not_object", 0);
  expect_error(roundtrip("\"ping\""), "not_object", 0);
  expect_error(roundtrip("{\"op\": \"ping\", \"id\": \"seven\"}"),
               "bad_params", 0);
  expect_error(roundtrip("{\"id\": 3}"), "bad_params", 3);
  expect_error(roundtrip("{\"op\": 12, \"id\": 4}"), "bad_params", 4);
  expect_error(roundtrip("{\"op\": \"ping\", \"id\": 5, \"tenant\": 9}"),
               "bad_params", 5);
  expect_error(roundtrip("{\"op\": \"frobnicate\", \"id\": 7}"), "unknown_op",
               7);
  // Directive payloads go through the strict wire codec: unknown keys are
  // a bad_params, not silently ignored.
  expect_error(
      roundtrip("{\"op\": \"synth\", \"id\": 8, \"design\": \"qam_decoder\","
                " \"directives\": {\"warp_factor\": 9}}"),
      "bad_params", 8);
  // cosim without vectors is a typed parameter error.
  expect_error(
      roundtrip("{\"op\": \"cosim\", \"id\": 9, \"design\": \"qam_decoder\"}"),
      "bad_params", 9);

  // Integers are checked reads: a fractional or out-of-range number, or a
  // value past the bounds in serve/wire.h, is a bad_params, never a cast.
  expect_error(roundtrip("{\"op\": \"ping\", \"id\": 1e30}"), "bad_params",
               0);
  expect_error(roundtrip("{\"op\": \"ping\", \"id\": 2.5}"), "bad_params",
               0);
  const std::string synth = "{\"op\": \"synth\", \"design\": \"tiny\", ";
  const auto loop = [](const char* key, const char* v) {
    return std::string("\"directives\": {\"loops\": {\"scale\": {\"") + key +
           "\": " + v + "}}}}";
  };
  expect_error(roundtrip(synth + "\"id\": 11, " + loop("unroll", "1e30")),
               "bad_params", 11);
  expect_error(
      roundtrip(synth + "\"id\": 12, " + loop("unroll", "4294967298")),
      "bad_params", 12);
  expect_error(roundtrip(synth + "\"id\": 13, " + loop("unroll", "2.7")),
               "bad_params", 13);
  expect_error(
      roundtrip(synth + "\"id\": 14, " + loop("pipeline_ii", "2147483647")),
      "bad_params", 14);
  const auto vectors = [](const char* fw) {
    std::string v = "[{\"arrays\": {\"a\": [";
    for (int i = 0; i < 4; ++i)
      v += std::string(i ? ", " : "") + "{\"re\": \"1\", \"fw\": " +
           (i == 3 ? fw : "0") + "}";
    return v + "]}}]";
  };
  expect_error(roundtrip("{\"op\": \"cosim\", \"id\": 15, \"design\": "
                         "\"tiny\", \"vectors\": " +
                         vectors("64") + "}"),
               "bad_params", 15);
  std::string axis = "[1";
  for (int i = 2; i <= 65; ++i) axis += ", " + std::to_string(i);
  expect_error(roundtrip("{\"op\": \"dse\", \"id\": 16, \"design\": "
                         "\"tiny\", \"options\": {\"unroll_factors\": " +
                         axis + "]}}"),
               "bad_params", 16);
  expect_error(roundtrip("{\"op\": \"profile\", \"id\": 17, \"design\": "
                         "\"tiny\", \"vectors\": " +
                         vectors("0") + ", \"options\": {\"lanes\": 1e30}}"),
               "bad_params", 17);

  // After nineteen straight protocol errors the connection still works.
  const Json pong = roundtrip("{\"op\": \"ping\", \"id\": 99}");
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_EQ(pong.find("id")->as_int(), 99);

  close_fd(fd);
  server.stop();
}

TEST(Server, TruncatedFrameGetsTypedReplyThenConnectionCloses) {
  ServerOptions opts;
  opts.unix_path = test_socket("truncated");
  opts.workers = 1;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const int fd = connect_unix(opts.unix_path, &err);
  ASSERT_GE(fd, 0) << err;
  // Two bytes of length prefix, then half-close: the server must answer
  // with a typed truncated_frame error (we can still read) and stop
  // processing the connection.
  const char partial[2] = {0, 0};
  ASSERT_EQ(::send(fd, partial, 2, 0), 2);
  ::shutdown(fd, SHUT_WR);

  std::string raw;
  ASSERT_EQ(read_frame(fd, &raw), FrameStatus::kOk);
  Json resp;
  std::string perr;
  ASSERT_TRUE(Json::parse(raw, &resp, &perr)) << perr;
  expect_error(resp, "truncated_frame", 0);

  server.stop();  // releases the connection: the next read sees EOF
  EXPECT_EQ(read_frame(fd, &raw), FrameStatus::kClosed);
  close_fd(fd);
}

TEST(Server, OversizedFrameGetsTypedReplyThenConnectionCloses) {
  ServerOptions opts;
  opts.unix_path = test_socket("oversized");
  opts.workers = 1;
  opts.max_frame_bytes = 256;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const int fd = connect_unix(opts.unix_path, &err);
  ASSERT_GE(fd, 0) << err;
  // Announce 64 KiB against a 256-byte limit; the refusal must come from
  // the prefix alone, before any payload bytes exist to read.
  const unsigned char prefix[4] = {0, 1, 0, 0};
  ASSERT_EQ(::send(fd, prefix, 4, 0), 4);

  std::string raw;
  ASSERT_EQ(read_frame(fd, &raw), FrameStatus::kOk);
  Json resp;
  std::string perr;
  ASSERT_TRUE(Json::parse(raw, &resp, &perr)) << perr;
  expect_error(resp, "oversized_frame", 0);

  server.stop();
  EXPECT_EQ(read_frame(fd, &raw), FrameStatus::kClosed);
  close_fd(fd);
}

// Satellite: a worker-side exception — here a design factory that throws —
// fails exactly that job with a structured payload. The daemon, the
// connection, and the next job are untouched.
TEST(Server, ThrowingDesignFactoryFailsTheJobNotTheDaemon) {
  ServerOptions opts;
  opts.unix_path = test_socket("job_failed");
  opts.workers = 2;
  Server server(opts);
  server.register_design("tiny", build_tiny);
  server.register_design("explodes", []() -> hls::Function {
    throw std::runtime_error("boom in tenant design factory");
  });
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client client;
  ASSERT_TRUE(client.connect_unix(opts.unix_path, &err)) << err;

  Json resp;
  ASSERT_TRUE(client.call("synth", Json::object().set("design", "explodes"),
                          &resp, &err));
  expect_error(resp, "job_failed", 1);
  EXPECT_NE(resp.find("error")->find("what")->as_string().find(
                "boom in tenant design factory"),
            std::string::npos)
      << resp.dump();
  EXPECT_EQ(resp.find("error")->find("where")->as_string(), "serve.synth");

  // An unregistered design is the same story with a more precise code.
  ASSERT_TRUE(client.call("synth", Json::object().set("design", "nope"),
                          &resp, &err));
  expect_error(resp, "unknown_design", 2);

  // The daemon shrugs it off: same connection, next job succeeds.
  ASSERT_TRUE(client.call("synth", Json::object().set("design", "tiny"),
                          &resp, &err));
  EXPECT_TRUE(resp.find("ok")->as_bool()) << resp.dump();

  ASSERT_TRUE(client.call("metrics", Json(), &resp, &err));
  EXPECT_GE(resp.find("result")
                ->find("server")
                ->find("jobs")
                ->find("failed")
                ->as_int(),
            2);

  server.stop();
}

// Deterministic backpressure: one worker wedged in a gated job, a queue
// depth of one — the third request MUST see `busy`, and nothing is lost.
TEST(Server, FullTenantQueueAnswersBusyWithoutDroppingAnything) {
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;
  };
  auto gate = std::make_shared<Gate>();

  ServerOptions opts;
  opts.unix_path = test_socket("busy");
  opts.workers = 1;
  opts.sched.max_queue_depth = 1;
  Server server(opts);
  server.register_design("tiny", build_tiny);
  server.register_design("gated", [gate] {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->entered = true;
    gate->cv.notify_all();
    gate->cv.wait(lock, [&] { return gate->release; });
    return build_tiny();
  });
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client client;
  ASSERT_TRUE(client.connect_unix(opts.unix_path, &err)) << err;

  // Job A occupies the only worker (the factory blocks on the gate).
  const long long a =
      client.submit("synth", Json::object().set("design", "gated"), "", &err);
  ASSERT_GT(a, 0) << err;
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->entered; });
  }
  // Job B fills the tenant queue (depth 1); job C must bounce.
  const long long b =
      client.submit("synth", Json::object().set("design", "tiny"), "", &err);
  ASSERT_GT(b, 0) << err;
  const long long c =
      client.submit("synth", Json::object().set("design", "tiny"), "", &err);
  ASSERT_GT(c, 0) << err;

  Json resp;
  ASSERT_TRUE(client.wait(c, &resp, &err)) << err;
  expect_error(resp, "busy", c);

  // Open the gate: A and B complete normally — backpressure rejected C
  // without corrupting the queued work.
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->release = true;
  }
  gate->cv.notify_all();
  ASSERT_TRUE(client.wait(a, &resp, &err)) << err;
  EXPECT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  ASSERT_TRUE(client.wait(b, &resp, &err)) << err;
  EXPECT_TRUE(resp.find("ok")->as_bool()) << resp.dump();

  ASSERT_TRUE(client.call("metrics", Json(), &resp, &err));
  EXPECT_GE(resp.find("result")
                ->find("server")
                ->find("jobs")
                ->find("busy_rejections")
                ->as_int(),
            1);

  server.stop();
}

TEST(Server, ShutdownOpIsForbiddenUnlessEnabled) {
  ServerOptions opts;
  opts.unix_path = test_socket("forbidden");
  opts.workers = 1;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client client;
  ASSERT_TRUE(client.connect_unix(opts.unix_path, &err)) << err;
  Json resp;
  ASSERT_TRUE(client.call("shutdown", Json(), &resp, &err));
  expect_error(resp, "forbidden", 1);
  // The refusal is advisory, not fatal: the connection still answers.
  ASSERT_TRUE(client.call("ping", Json(), &resp, &err));
  EXPECT_TRUE(resp.find("ok")->as_bool());
  server.stop();
}

TEST(Server, ShutdownOpDrainsInFlightWorkThenReleasesWait) {
  ServerOptions opts;
  opts.unix_path = test_socket("shutdown");
  opts.workers = 2;
  opts.allow_shutdown_op = true;
  Server server(opts);
  server.register_design("tiny", build_tiny);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client client;
  ASSERT_TRUE(client.connect_unix(opts.unix_path, &err)) << err;
  // Pipeline a real job and the shutdown: the job's response must still
  // arrive — graceful drain, not the axe.
  const long long job =
      client.submit("synth", Json::object().set("design", "tiny"), "", &err);
  ASSERT_GT(job, 0) << err;
  const long long down = client.submit("shutdown", Json(), "", &err);
  ASSERT_GT(down, 0) << err;

  Json resp;
  ASSERT_TRUE(client.wait(job, &resp, &err)) << err;
  EXPECT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  ASSERT_TRUE(client.wait(down, &resp, &err)) << err;
  EXPECT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  EXPECT_TRUE(resp.find("result")->find("draining")->as_bool());

  server.wait();  // released by the shutdown op
  server.stop();
}

TEST(Server, StartRequiresAListenerAndReportsBindFailures) {
  Server none{ServerOptions{}};
  std::string err;
  EXPECT_FALSE(none.start(&err));
  EXPECT_NE(err.find("no listener"), std::string::npos) << err;

  ServerOptions opts;
  opts.unix_path = "/nonexistent-dir/hlsw.sock";
  Server bad(opts);
  err.clear();
  EXPECT_FALSE(bad.start(&err));
  EXPECT_FALSE(err.empty());
}

TEST(Server, TcpListenerServesTheSameProtocol) {
  ServerOptions opts;
  opts.tcp_port = 0;  // ephemeral
  opts.workers = 1;
  Server server(opts);
  server.register_design("tiny", build_tiny);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_GT(server.tcp_port(), 0);

  Client client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.tcp_port(), &err)) << err;
  Json resp;
  ASSERT_TRUE(client.call("synth", Json::object().set("design", "tiny"),
                          &resp, &err));
  EXPECT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  server.stop();
}

}  // namespace
}  // namespace hlsw::serve
