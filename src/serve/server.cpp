#include "serve/server.h"

#include "hls/dse.h"
#include "hls/report.h"
#include "hls/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/decoder_ir.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"
#include "serve/wire.h"
#include "vsim/harness.h"
#include "vsim/lint.h"
#include "vsim/profile.h"

#include <sys/socket.h>
#include <unistd.h>

#include <climits>

namespace hlsw::serve {

using obs::Json;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Json make_ok(long long id, Json result) {
  return Json::object().set("id", id).set("ok", true).set("result",
                                                          std::move(result));
}

Json make_error(long long id, const std::string& code, const std::string& what,
                const std::string& where) {
  return Json::object().set("id", id).set("ok", false).set(
      "error", Json::object().set("code", code).set("what", what).set(
                   "where", where));
}

Server::Connection::~Connection() { close_fd(fd); }

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      synth_cache_(std::make_shared<hls::SynthesisCache>()),
      sched_(opts_.sched) {
  register_design("qam_decoder",
                  [] { return qam::build_qam_decoder_ir(); });
}

Server::~Server() { stop(); }

void Server::register_design(const std::string& name,
                             std::function<hls::Function()> factory) {
  std::lock_guard<std::mutex> lock(design_mu_);
  designs_[name] = std::move(factory);
}

bool Server::start(std::string* err) {
  if (opts_.unix_path.empty() && opts_.tcp_port < 0) {
    if (err) *err = "no listener configured (unix_path empty, tcp_port < 0)";
    return false;
  }
  if (opts_.enable_obs) obs::set_enabled(true);
  if (!opts_.unix_path.empty()) {
    unix_fd_ = listen_unix(opts_.unix_path, err);
    if (unix_fd_ < 0) return false;
  }
  if (opts_.tcp_port >= 0) {
    tcp_fd_ = listen_tcp(opts_.tcp_host, opts_.tcp_port, &bound_tcp_port_,
                         err);
    if (tcp_fd_ < 0) {
      close_fd(unix_fd_);
      unix_fd_ = -1;
      return false;
    }
  }
  start_time_ = std::chrono::steady_clock::now();
  const unsigned workers =
      opts_.workers ? opts_.workers : util::ThreadPool::default_thread_count();
  pool_ = std::make_unique<util::ThreadPool>(workers);
  // Each worker thread runs one long-lived scheduler loop; the loops end
  // when the scheduler reports drained-and-empty during stop().
  for (unsigned i = 0; i < workers; ++i)
    pool_->submit([this] { worker_loop(); });
  if (unix_fd_ >= 0)
    accept_threads_.emplace_back([this] { accept_loop(unix_fd_); });
  if (tcp_fd_ >= 0)
    accept_threads_.emplace_back([this] { accept_loop(tcp_fd_); });
  started_ = true;
  return true;
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [&] { return stop_requested_; });
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  request_stop();
  if (!started_) return;

  // 1. Stop accepting connections: closing the listeners pops the accept
  //    threads out of accept(2).
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
  unix_fd_ = tcp_fd_ = -1;
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();

  // 2. Stop reading requests: half-close every connection's read side so
  //    conn_loop sees EOF, then join the readers. Write sides stay open —
  //    queued jobs still owe these sockets their responses. With readers
  //    gone, no new jobs or coordinators can be created (this is what
  //    makes the coordinator join below race-free).
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& c : conns_)
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::thread& t : conn_threads_) t.join();
    conn_threads_.clear();
  }

  // 3. Drain: queued jobs finish, no new ones. Coordinators' outstanding
  //    sub-units are served by the still-live workers; late shards run
  //    inline on the coordinator (push_unbounded contract).
  sched_.drain();
  {
    std::lock_guard<std::mutex> lock(coord_mu_);
    for (std::thread& t : coordinators_) t.join();
    coordinators_.clear();
  }
  // 4. Destroying the pool joins the workers, which exit once the
  //    scheduler is empty — at which point every accepted job has run and
  //    every response frame has been written.
  pool_.reset();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns_.clear();  // Connection destructors close the fds
  }
  if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
  if (!opts_.trace_path.empty())
    obs::TraceSession::instance().write_chrome_trace(opts_.trace_path);
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = accept_fd(listen_fd);
    if (fd < 0) return;  // listener closed: server is stopping
    if (stopping_.load()) {
      close_fd(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { conn_loop(conn); });
  }
}

void Server::send_json(const std::shared_ptr<Connection>& c, const Json& doc) {
  const std::string payload = doc.dump();
  std::lock_guard<std::mutex> lock(c->write_mu);
  write_frame(c->fd, payload);  // a vanished peer is not the server's problem
}

void Server::conn_loop(std::shared_ptr<Connection> c) {
  std::string payload, err;
  for (;;) {
    const FrameStatus st =
        read_frame(c->fd, &payload, opts_.max_frame_bytes, &err);
    if (st == FrameStatus::kOk) {
      handle_frame(c, payload);
      continue;
    }
    if (st == FrameStatus::kTruncated) {
      // Best effort: the peer may have shutdown(WR) and still be reading.
      ++protocol_errors_;
      send_json(c, make_error(0, "truncated_frame", err, "serve.read_frame"));
    } else if (st == FrameStatus::kOversized) {
      ++protocol_errors_;
      send_json(c, make_error(0, "oversized_frame", err, "serve.read_frame"));
    }
    break;  // kClosed / kError / after a framing error: connection is done
  }
  // The fd stays open: queued jobs for this connection still write their
  // responses through the shared_ptr. The Connection destructor closes it
  // once the last job releases its reference.
}

void Server::handle_frame(const std::shared_ptr<Connection>& c,
                          const std::string& payload) {
  Json req;
  std::string perr;
  if (!Json::parse(payload, &req, &perr)) {
    ++protocol_errors_;
    send_json(c, make_error(0, "bad_json", perr, "serve.parse"));
    return;
  }
  if (!req.is_object()) {
    ++protocol_errors_;
    send_json(c, make_error(0, "not_object",
                            "request root must be a JSON object",
                            "serve.parse"));
    return;
  }
  long long id = 0;
  if (const Json* j = req.find("id")) {
    std::string ierr;
    if (!int_from_json(*j, "id", -kMaxJsonInt, kMaxJsonInt, &id, &ierr)) {
      ++protocol_errors_;
      send_json(c, make_error(0, "bad_params", ierr, "serve.parse"));
      return;
    }
  }
  const Json* opj = req.find("op");
  if (opj == nullptr || !opj->is_string()) {
    ++protocol_errors_;
    send_json(c, make_error(id, "bad_params", "op: expected string",
                            "serve.parse"));
    return;
  }
  const std::string op = opj->as_string();
  std::string tenant = "default";
  if (const Json* j = req.find("tenant")) {
    if (!j->is_string()) {
      ++protocol_errors_;
      send_json(c, make_error(id, "bad_params", "tenant: expected string",
                              "serve.parse"));
      return;
    }
    tenant = j->as_string();
  }

  // ---- Control ops: answered on the connection thread, never queued ----
  if (op == "ping") {
    send_json(c, make_ok(id, Json::object().set("pong", true)));
    return;
  }
  if (op == "metrics") {
    send_json(c, make_ok(id, metrics_json()));
    return;
  }
  if (op == "trace") {
    auto& ts = obs::TraceSession::instance();
    Json result = Json::object()
                      .set("events", static_cast<long long>(ts.event_count()))
                      .set("trace", ts.chrome_trace());
    if (const Json* j = req.find("clear"); j && j->is_bool() && j->as_bool())
      ts.clear();
    send_json(c, make_ok(id, std::move(result)));
    return;
  }
  if (op == "flush_caches") {
    const std::size_t n = synth_cache_->size();
    synth_cache_->clear();
    send_json(c, make_ok(id, Json::object().set(
                                 "synth_cache_evicted",
                                 static_cast<long long>(n))));
    return;
  }
  if (op == "shutdown") {
    if (!opts_.allow_shutdown_op) {
      send_json(c, make_error(id, "forbidden",
                              "shutdown op disabled by server options",
                              "serve.shutdown"));
      return;
    }
    send_json(c, make_ok(id, Json::object().set("draining", true)));
    request_stop();
    return;
  }
  if (op != "synth" && op != "dse" && op != "cosim" && op != "verify" &&
      op != "profile") {
    ++protocol_errors_;
    send_json(c, make_error(id, "unknown_op", "unknown op '" + op + "'",
                            "serve.dispatch"));
    return;
  }

  // ---- DSE: coordinator thread, not a worker slot ----
  // The coordinator BLOCKS on its sharded sub-units; were it a worker, W
  // concurrent dse jobs would occupy all W slots and deadlock against
  // their own shards. A bounded side thread keeps every worker free to
  // execute units.
  if (op == "dse") {
    int active = active_coordinators_.load();
    do {
      if (active >= opts_.max_dse_coordinators) {
        ++busy_rejections_;
        obs::MetricsRegistry::instance().add("serve.busy_rejections");
        send_json(c, make_error(id, "busy",
                                "all " +
                                    std::to_string(opts_.max_dse_coordinators) +
                                    " dse coordinators are in use",
                                "serve.dse"));
        return;
      }
    } while (!active_coordinators_.compare_exchange_weak(active, active + 1));
    if (stopping_.load() || sched_.draining()) {
      active_coordinators_.fetch_sub(1);
      send_json(c, make_error(id, "shutting_down", "daemon is draining",
                              "serve.dse"));
      return;
    }
    ++jobs_accepted_;
    std::lock_guard<std::mutex> lock(coord_mu_);
    coordinators_.emplace_back(
        [this, c, req = std::move(req), op, tenant, id]() mutable {
          execute_job(c, std::move(req), op, tenant, id);
          active_coordinators_.fetch_sub(1);
        });
    return;
  }

  // ---- Everything else: one work unit through the fair scheduler ----
  const PushStatus st = sched_.push(
      tenant, [this, c, req = std::move(req), op, tenant, id]() mutable {
        execute_job(c, std::move(req), op, tenant, id);
      });
  switch (st) {
    case PushStatus::kAccepted:
      ++jobs_accepted_;
      return;
    case PushStatus::kBusy:
      ++busy_rejections_;
      obs::MetricsRegistry::instance().add("serve.busy_rejections");
      send_json(c, make_error(id, "busy",
                              "tenant '" + tenant + "' queue is full (" +
                                  std::to_string(opts_.sched.max_queue_depth) +
                                  " jobs)",
                              "serve.schedule"));
      return;
    case PushStatus::kStopped:
      send_json(c, make_error(id, "shutting_down", "daemon is draining",
                              "serve.schedule"));
      return;
  }
}

void Server::execute_job(const std::shared_ptr<Connection>& c, Json req,
                         const std::string& op, const std::string& tenant,
                         long long id) {
  const auto t0 = std::chrono::steady_clock::now();
  Json resp;
  {
    obs::ScopedSpan span("serve.job", "serve");
    if (span.active()) {
      span.arg("op", op);
      span.arg("tenant", tenant);
      span.arg("id", id);
    }
    try {
      resp = make_ok(id, run_job(req, op, tenant));
      ++jobs_ok_;
    } catch (const JobError& e) {
      // Structured failure: the job is dead, the daemon is not.
      resp = make_error(id, e.code, e.what, e.where);
      ++jobs_failed_;
    } catch (const std::exception& e) {
      resp = make_error(id, "job_failed", e.what(), "serve." + op);
      ++jobs_failed_;
    } catch (...) {
      resp = make_error(id, "job_failed", "non-standard exception",
                        "serve." + op);
      ++jobs_failed_;
    }
  }
  // Latency histograms feed the metrics op's p50/p95/p99; recorded
  // unconditionally — a server without observability is flying blind.
  auto& m = obs::MetricsRegistry::instance();
  const double ms = ms_since(t0);
  m.observe("serve.job_ms", ms);
  m.observe("serve.job_ms." + op, ms);
  m.add("serve.jobs." + op);
  send_json(c, resp);
}

void Server::worker_loop() {
  std::function<void()> unit;
  while (sched_.pop(&unit)) {
    unit();
    unit = nullptr;  // release captured state before blocking in pop
  }
}

// ---- Job handlers (worker/coordinator side) ----

hls::Function Server::resolve_design(const Json& req) const {
  const Json* j = req.find("design");
  if (j == nullptr || !j->is_string())
    throw JobError{"bad_params", "design: expected string", "serve.params"};
  std::function<hls::Function()> factory;
  {
    std::lock_guard<std::mutex> lock(design_mu_);
    auto it = designs_.find(j->as_string());
    if (it == designs_.end())
      throw JobError{"unknown_design",
                     "no design registered under '" + j->as_string() + "'",
                     "serve.params"};
    factory = it->second;
  }
  return factory();  // may throw: becomes job_failed for this job only
}

namespace {

hls::Directives directives_of(const Json& req) {
  hls::Directives dir;
  if (const Json* j = req.find("directives")) {
    std::string err;
    if (!directives_from_json(*j, &dir, &err))
      throw Server::JobError{"bad_params", err, "serve.params"};
  }
  return dir;
}

hls::TechLibrary tech_of(const Json& req) {
  hls::TechLibrary tech = hls::TechLibrary::asic90();
  std::string err;
  if (!tech_from_json(req.find("tech"), &tech, &err))
    throw Server::JobError{"bad_params", err, "serve.params"};
  return tech;
}

std::vector<hls::PortIo> vectors_of(const Json& req) {
  const Json* j = req.find("vectors");
  if (j == nullptr)
    throw Server::JobError{"bad_params", "vectors: required", "serve.params"};
  std::vector<hls::PortIo> vectors;
  std::string err;
  if (!vectors_from_json(*j, &vectors, &err))
    throw Server::JobError{"bad_params", err, "serve.params"};
  if (vectors.empty())
    throw Server::JobError{"bad_params", "vectors: must be non-empty",
                           "serve.params"};
  return vectors;
}

}  // namespace

Json Server::run_job(const Json& req, const std::string& op,
                     const std::string& tenant) {
  if (op == "synth") return handle_synth(req);
  if (op == "dse") return handle_dse(req, tenant);
  if (op == "cosim") return handle_cosim(req);
  if (op == "verify") return handle_verify(req);
  if (op == "profile") return handle_profile(req);
  throw JobError{"unknown_op", "unknown op '" + op + "'", "serve.dispatch"};
}

Json Server::handle_synth(const Json& req) {
  const hls::Function f = resolve_design(req);
  const hls::Directives dir = directives_of(req);
  const hls::TechLibrary tech = tech_of(req);

  // Metrics come from the process-wide cache — the whole point of the
  // daemon: tenant B's synth of a configuration tenant A already explored
  // is a lookup, not a schedule. Keys canonicalize semantics-equal
  // directive spellings, so results are bit-identical to a direct
  // run_synthesis either way.
  const std::string key =
      hls::dse_cache_key(hls::function_fingerprint(f), dir, tech);
  bool hit = false;
  const hls::SynthesisCache::Metrics metrics = synth_cache_->get_or_compute(
      key,
      [&] {
        const hls::SynthesisResult r = hls::run_synthesis(f, dir, tech);
        return hls::SynthesisCache::Metrics{r.latency_cycles(),
                                            r.latency_ns(), r.area.total};
      },
      &hit);
  obs::MetricsRegistry::instance().add(hit ? "serve.synth_cache.hits"
                                           : "serve.synth_cache.misses");
  Json result = Json::object()
                    .set("latency_cycles", metrics.latency_cycles)
                    .set("latency_ns", metrics.latency_ns)
                    .set("area", metrics.area)
                    .set("cached", hit);
  if (const Json* j = req.find("emit_verilog");
      j && j->is_bool() && j->as_bool()) {
    const hls::SynthesisResult r = hls::run_synthesis(f, dir, tech);
    result.set("verilog", rtl::emit_verilog(r.transformed, r.schedule));
  }
  return result;
}

Json Server::handle_dse(const Json& req, const std::string& tenant) {
  const hls::Function f = resolve_design(req);
  const hls::TechLibrary tech = tech_of(req);
  hls::DseOptions o;
  std::string err;
  if (!dse_options_from_json(req.find("options"), &o, &err))
    throw JobError{"bad_params", err, "serve.params"};
  o.cache = synth_cache_;
  // Shard the sweep: every candidate-synthesis closure becomes one fair-
  // scheduled unit under this job's tenant, interleaving with other
  // tenants' work. Once draining begins push_unbounded refuses and the
  // closure runs right here on the coordinator — explore() only requires
  // that each closure run exactly once, somewhere.
  o.executor = [this, tenant](std::function<void()> unit) {
    if (!sched_.push_unbounded(tenant, unit)) unit();
  };
  const auto t0 = std::chrono::steady_clock::now();
  hls::DseResult result;
  try {
    result = hls::explore(f, o, tech);
  } catch (const std::invalid_argument& e) {
    throw JobError{"bad_params", e.what(), "serve.dse.options"};
  }
  return hls::dse_run_json(result, o, ms_since(t0));
}

Json Server::handle_cosim(const Json& req) {
  const hls::Function f = resolve_design(req);
  const hls::Directives dir = directives_of(req);
  const hls::TechLibrary tech = tech_of(req);
  const std::vector<hls::PortIo> vectors = vectors_of(req);
  hls::CosimOptions o;
  std::string err;
  if (!cosim_options_from_json(req.find("options"), &o, &err))
    throw JobError{"bad_params", err, "serve.params"};
  // The job is the unit of parallelism, so its blocks run inline (no
  // pool). Default to one sequential block: the registered designs are
  // stateful (adaptive equalizers), so replay-from-reset blocks need
  // deliberate, client-chosen stimulus splits.
  const Json* copt = req.find("options");
  if (copt == nullptr || copt->find("block_size") == nullptr)
    o.block_size = vectors.size();

  const hls::SynthesisResult r = hls::run_synthesis(f, dir, tech);
  const hls::CosimFactory golden = hls::interpreter_factory(r.transformed);
  auto dut = [&r] {
    auto sim = std::make_shared<rtl::Simulator>(r.transformed, r.schedule);
    return [sim](const std::vector<hls::PortIo>& v) {
      return sim->run_stream(v);
    };
  };
  return cosim_result_to_json(hls::cosim_sweep(golden, dut, vectors, o));
}

Json Server::handle_verify(const Json& req) {
  const hls::Function f = resolve_design(req);
  const hls::Directives dir = directives_of(req);
  const hls::TechLibrary tech = tech_of(req);
  const std::vector<hls::PortIo> vectors = vectors_of(req);
  hls::CosimOptions o;
  std::string err;
  if (!cosim_options_from_json(req.find("options"), &o, &err))
    throw JobError{"bad_params", err, "serve.params"};
  const Json* vopt = req.find("options");
  if (vopt == nullptr || vopt->find("block_size") == nullptr)
    o.block_size = vectors.size();

  const hls::SynthesisResult r = hls::run_synthesis(f, dir, tech);
  const vsim::VerifyEmittedResult v =
      vsim::verify_emitted(r.transformed, r.schedule, vectors, o);
  Json lint = Json::array();
  for (const vsim::LintIssue& li : v.lint_issues)
    lint.push(Json::object()
                  .set("rule", li.rule)
                  .set("signal", li.signal)
                  .set("detail", li.detail));
  return Json::object()
      .set("ok", v.ok())
      .set("cosim", cosim_result_to_json(v.cosim))
      .set("lint_issues", std::move(lint))
      .set("testbench", Json::object()
                            .set("passed", v.testbench.passed)
                            .set("finished", v.testbench.finished));
}

Json Server::handle_profile(const Json& req) {
  const hls::Function f = resolve_design(req);
  const hls::Directives dir = directives_of(req);
  const hls::TechLibrary tech = tech_of(req);
  const std::vector<hls::PortIo> vectors = vectors_of(req);
  vsim::ProfileRunOptions o;
  if (const Json* opt = req.find("options")) {
    if (!opt->is_object())
      throw JobError{"bad_params", "options: expected object", "serve.params"};
    for (const auto& [key, value] : opt->items()) {
      if (key == "lanes" && value.is_number()) {
        long long lanes = 0;
        std::string lerr;
        if (!int_from_json(value, "options.lanes", INT_MIN, INT_MAX, &lanes,
                           &lerr))
          throw JobError{"bad_params", lerr, "serve.params"};
        o.lanes = static_cast<int>(lanes);
      } else if (key == "run_rtl_sim" && value.is_bool())
        o.run_rtl_sim = value.as_bool();
      else if (key == "run_vsim_event" && value.is_bool())
        o.run_vsim_event = value.as_bool();
      else if (key == "run_vsim_compiled" && value.is_bool())
        o.run_vsim_compiled = value.as_bool();
      else if (key == "run_vsim_codegen" && value.is_bool())
        o.run_vsim_codegen = value.as_bool();
      else
        throw JobError{"bad_params",
                       "options." + key + ": unknown key or wrong type",
                       "serve.params"};
    }
  }
  return vsim::profile_run(f, dir, tech, vectors, o).to_json();
}

Json Server::metrics_json() const {
  auto& m = obs::MetricsRegistry::instance();
  const double hits = m.counter_value("serve.synth_cache.hits");
  const double misses = m.counter_value("serve.synth_cache.misses");
  const double lookups = hits + misses;
  Json depths = Json::object();
  for (const auto& [tenant, depth] : sched_.queue_depths())
    depths.set(tenant, static_cast<long long>(depth));
  Json server =
      Json::object()
          .set("uptime_ms", ms_since(start_time_))
          .set("jobs", Json::object()
                           .set("accepted", jobs_accepted_.load())
                           .set("ok", jobs_ok_.load())
                           .set("failed", jobs_failed_.load())
                           .set("busy_rejections", busy_rejections_.load())
                           .set("protocol_errors", protocol_errors_.load()))
          .set("queue_depths", std::move(depths))
          .set("synth_cache",
               Json::object()
                   .set("size", static_cast<long long>(synth_cache_->size()))
                   .set("hits", hits)
                   .set("misses", misses)
                   .set("hit_rate", lookups > 0 ? hits / lookups : 0.0));
  return Json::object()
      .set("server", std::move(server))
      .set("registry", m.to_json());
}

}  // namespace hlsw::serve
