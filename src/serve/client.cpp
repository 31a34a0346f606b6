#include "serve/client.h"

#include "serve/wire.h"

namespace hlsw::serve {

using obs::Json;

bool Client::connect_unix(const std::string& path, std::string* err) {
  close();
  fd_ = hlsw::serve::connect_unix(path, err);
  return fd_ >= 0;
}

bool Client::connect_tcp(const std::string& host, int port, std::string* err) {
  close();
  fd_ = hlsw::serve::connect_tcp(host, port, err);
  return fd_ >= 0;
}

void Client::close() {
  close_fd(fd_);
  fd_ = -1;
  parked_.clear();
}

long long Client::submit(const std::string& op, Json params,
                         const std::string& tenant, std::string* err) {
  if (fd_ < 0) {
    if (err) *err = "not connected";
    return -1;
  }
  const long long id = next_id_++;
  Json req = Json::object().set("op", op).set("id", id);
  if (!tenant.empty()) req.set("tenant", tenant);
  if (params.is_object())
    for (const auto& [key, value] : params.items()) req.set(key, value);
  if (!write_frame(fd_, req.dump(), err)) return -1;
  return id;
}

bool Client::wait(long long id, Json* response, std::string* err) {
  auto it = parked_.find(id);
  if (it != parked_.end()) {
    *response = std::move(it->second);
    parked_.erase(it);
    return true;
  }
  std::string payload;
  for (;;) {
    const FrameStatus st = read_frame(fd_, &payload, kDefaultMaxFrameBytes,
                                      err);
    if (st != FrameStatus::kOk) {
      if (st == FrameStatus::kClosed && err)
        *err = "connection closed before response " + std::to_string(id);
      return false;
    }
    Json resp;
    std::string perr;
    if (!Json::parse(payload, &resp, &perr)) {
      if (err) *err = "unparseable response frame: " + perr;
      return false;
    }
    // A missing or malformed id parks the response under 0.
    const Json* rid = resp.find("id");
    long long got = 0;
    if (rid != nullptr)
      int_from_json(*rid, "id", -kMaxJsonInt, kMaxJsonInt, &got, nullptr);
    if (got == id) {
      *response = std::move(resp);
      return true;
    }
    parked_[got] = std::move(resp);
  }
}

bool Client::call(const std::string& op, Json params, Json* response,
                  std::string* err, const std::string& tenant) {
  const long long id = submit(op, std::move(params), tenant, err);
  if (id < 0) return false;
  return wait(id, response, err);
}

}  // namespace hlsw::serve
