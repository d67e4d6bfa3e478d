#include "live/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "util/logging.hpp"

namespace hw::live {
namespace {
constexpr std::string_view kLog = "live-server";
constexpr std::size_t kMaxDatagram = 65536;
}  // namespace

// ---------------------------------------------------------------------------
// LiveServer

LiveServer::LiveServer(LiveFleet& fleet, SendFn send,
                       telemetry::MetricRegistry& metrics)
    : fleet_(fleet), send_(std::move(send)), metrics_(metrics) {}

bool LiveServer::series_matches(const std::string& pattern,
                                const std::string& name) {
  if (pattern.empty() || pattern == "*") return true;
  if (pattern.back() == '*') {
    const std::string prefix = pattern.substr(0, pattern.size() - 1);
    return name.compare(0, prefix.size(), prefix) == 0;
  }
  return name == pattern;
}

void LiveServer::handle_datagram(ClientAddress from,
                                 std::span<const std::uint8_t> datagram) {
  auto decoded = hwdb::rpc::decode(datagram, /*from_server=*/false);
  if (!decoded) {
    metrics_.errors.inc();
    HW_LOG_WARN(kLog, "bad request datagram: %s",
                decoded.error().message.c_str());
    return;
  }
  const auto* req = std::get_if<hwdb::rpc::Request>(&decoded.value());
  if (req == nullptr) {
    metrics_.errors.inc();
    return;
  }
  metrics_.requests.inc();

  // Same idempotency contract as the hwdb endpoint: a retransmitted request
  // replays the cached response. Without this a retried SubscribeSeries
  // would mint a second subscription streaming duplicate frames, and a
  // retried Mutate would land the mutation twice.
  if (const Bytes* cached = dedup_.find(from, req->request_id)) {
    metrics_.dup_suppressed.inc();
    send_(from, *cached);
    return;
  }

  Bytes encoded_resp = encode(process(from, *req));
  dedup_.remember(from, req->request_id, encoded_resp);
  send_(from, encoded_resp);
}

hwdb::rpc::Response LiveServer::process(ClientAddress from,
                                        const hwdb::rpc::Request& req) {
  hwdb::rpc::Response resp;
  resp.request_id = req.request_id;

  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, hwdb::rpc::SubscribeSeriesRequest>) {
          Subscription sub;
          sub.id = next_sub_id_++;
          sub.client = from;
          sub.pattern = body.pattern;
          sub.home = body.home;
          sub.every = std::max<std::uint32_t>(1, body.every);
          sub.max_queue = std::max<std::uint32_t>(1, body.max_queue);
          resp.sub_id = sub.id;
          // An operator watching one home is an external stimulus: page it
          // back in at the next barrier (docs/residency.md).
          if (body.home != hwdb::rpc::kAllHomes) fleet_.touch(body.home);
          subs_.emplace(sub.id, std::move(sub));
          metrics_.subs.set(static_cast<std::int64_t>(subs_.size()));
        } else if constexpr (std::is_same_v<T, hwdb::rpc::UnsubscribeRequest>) {
          subs_.erase(body.sub_id);
          metrics_.subs.set(static_cast<std::int64_t>(subs_.size()));
        } else if constexpr (std::is_same_v<T, hwdb::rpc::MutateRequest>) {
          metrics_.mutations.inc();
          switch (body.kind) {
            case MutateKind::Pause:
              paused_ = true;
              resp.applied_at = fleet_.submit(from_request(body)).applied_at;
              break;
            case MutateKind::Resume:
              paused_ = false;
              pending_steps_ = 0;
              resp.applied_at = fleet_.submit(from_request(body)).applied_at;
              break;
            case MutateKind::Step:
              pending_steps_ += std::max<std::uint64_t>(1, body.arg0);
              resp.applied_at = fleet_.submit(from_request(body)).applied_at;
              break;
            case MutateKind::Replay: {
              // Synchronous verification of the time-travel contract: resume
              // the last checkpoint on a single-threaded replica, re-apply
              // the logged mutation tail, and compare fingerprints.
              if (fleet_.checkpoints().empty()) {
                resp.ok = false;
                resp.error = "live: no checkpoint to replay from";
                break;
              }
              // Hibernated homes serve stale frozen scalars; page them
              // through so both fingerprints speak for the current barrier.
              fleet_.refresh_telemetry();
              auto replayed = LiveFleet::replay_fingerprint(
                  fleet_.config(), fleet_.checkpoints().back(), fleet_.log(),
                  fleet_.now(), /*threads=*/1);
              if (!replayed) {
                resp.ok = false;
                resp.error = replayed.error().message;
              } else if (replayed.value() != fleet_.fingerprint()) {
                resp.ok = false;
                resp.error = "live: replay fingerprint mismatch";
              } else {
                resp.applied_at = fleet_.now();
              }
              break;
            }
            default:
              resp.applied_at = fleet_.submit(from_request(body)).applied_at;
              break;
          }
        } else if constexpr (std::is_same_v<T, hwdb::rpc::PingRequest>) {
          // Empty ok response.
        } else {
          // Insert / Query / Subscribe belong to the measurement plane.
          resp.ok = false;
          resp.error = "RPC: hwdb verb on a live endpoint";
        }
      },
      req.body);
  if (!resp.ok) metrics_.errors.inc();
  return resp;
}

Timestamp LiveServer::pump() {
  const bool advance = !paused_ || pending_steps_ > 0;
  if (advance) {
    fleet_.step();
    if (pending_steps_ > 0) --pending_steps_;
    BarrierScalars scalars;
    for (auto& [id, sub] : subs_) sample(sub, scalars);
  }
  flush();
  return fleet_.now();
}

telemetry::ScalarMap LiveServer::collect(const std::string& pattern,
                                         const telemetry::ScalarMap& all) {
  telemetry::ScalarMap out;
  if (!pattern.empty() && pattern.back() != '*') {
    if (const auto it = all.find(pattern); it != all.end()) out.insert(*it);
    return out;
  }
  // A prefix pattern's matches are one contiguous run of the sorted map.
  const std::string prefix =
      pattern.empty() ? pattern : pattern.substr(0, pattern.size() - 1);
  for (auto it = all.lower_bound(prefix);
       it != all.end() && it->first.starts_with(prefix); ++it) {
    out.emplace_hint(out.end(), *it);
  }
  return out;
}

void LiveServer::sample(Subscription& sub, BarrierScalars& scalars) {
  if (++sub.barriers % sub.every != 0) return;
  auto home = scalars.find(sub.home);
  if (home == scalars.end()) {
    home = scalars.emplace(sub.home, fleet_.scalars(sub.home)).first;
  }
  telemetry::ScalarMap cur = collect(sub.pattern, home->second);

  hwdb::rpc::DeltaPush frame;
  frame.sub_id = sub.id;
  frame.vtime = fleet_.now();
  frame.home = sub.home;
  if (!sub.synced) {
    // First frame of the subscription, or resync after drops: a full
    // snapshot carrying the accumulated dropped count.
    frame.snapshot = true;
    frame.dropped = sub.dropped_pending;
    sub.dropped_pending = 0;
    frame.values.assign(cur.begin(), cur.end());
    sub.synced = true;
  } else {
    telemetry::ScalarMap delta = telemetry::scalar_delta(sub.prev, cur);
    if (delta.empty()) {
      sub.prev = std::move(cur);
      return;  // nothing changed; no frame
    }
    frame.values.assign(delta.begin(), delta.end());
  }
  sub.prev = std::move(cur);
  frame.seq = sub.next_seq++;
  enqueue(sub, std::move(frame));
}

void LiveServer::enqueue(Subscription& sub, hwdb::rpc::DeltaPush frame) {
  sub.queue.push_back(std::move(frame));
  while (sub.queue.size() > sub.max_queue) {
    // Drop-oldest backpressure: the client detects the seq gap; the next
    // generated frame will be a snapshot so it can resynchronize.
    sub.queue.pop_front();
    ++sub.dropped_pending;
    metrics_.dropped.inc();
    sub.synced = false;
  }
}

void LiveServer::flush() {
  std::size_t budget = flush_budget_;
  for (auto& [id, sub] : subs_) {
    while (!sub.queue.empty() && budget > 0) {
      send_(sub.client, encode(sub.queue.front()));
      sub.queue.pop_front();
      metrics_.frames.inc();
      --budget;
    }
  }
}

void LiveServer::drop_client(ClientAddress addr) {
  dedup_.drop_client(addr);
  for (auto it = subs_.begin(); it != subs_.end();) {
    if (it->second.client == addr) {
      it = subs_.erase(it);
    } else {
      ++it;
    }
  }
  metrics_.subs.set(static_cast<std::int64_t>(subs_.size()));
}

// ---------------------------------------------------------------------------
// InProcLiveLink

InProcLiveLink::InProcLiveLink(sim::EventLoop& loop, LiveFleet& fleet,
                               Config config,
                               telemetry::MetricRegistry& metrics)
    : loop_(loop), config_(config), registry_(metrics) {
  server_ = std::make_unique<LiveServer>(
      fleet,
      [this](ClientAddress to, const Bytes& datagram) {
        transmit(datagram, [this, to](Bytes d) {
          const std::size_t idx = static_cast<std::size_t>(to);
          if (idx < clients_.size()) clients_[idx]->handle_datagram(d);
        });
      },
      registry_);
}

InProcLiveLink::~InProcLiveLink() = default;

hwdb::rpc::RpcClient& InProcLiveLink::make_client(
    hwdb::rpc::RetryPolicy policy) {
  const ClientAddress addr = clients_.size();
  clients_.push_back(std::make_unique<hwdb::rpc::RpcClient>(
      [this, addr](const Bytes& d) {
        transmit(d,
                 [this, addr](Bytes dg) { server_->handle_datagram(addr, dg); });
      },
      loop_, policy, registry_));
  return *clients_.back();
}

void InProcLiveLink::set_fault(const sim::DatagramFault& fault, Rng* rng) {
  fault_ = fault;
  fault_rng_ = rng;
}

void InProcLiveLink::transmit(const Bytes& datagram,
                              std::function<void(Bytes)> deliver) {
  Duration latency = config_.latency;
  std::size_t copies = 1;
  if (fault_rng_ != nullptr) {
    if (fault_.drop > 0 && fault_rng_->chance(fault_.drop)) return;
    if (fault_.duplicate > 0 && fault_rng_->chance(fault_.duplicate)) {
      copies = 2;
    }
    if (fault_.extra_delay > 0) latency += fault_.extra_delay;
  }
  for (std::size_t i = 0; i < copies; ++i) {
    // Duplicates trail the original by one extra latency (same reordering
    // exposure as the hwdb link).
    loop_.schedule(latency + static_cast<Duration>(i) * config_.latency,
                   [datagram, deliver]() { deliver(datagram); });
  }
}

// ---------------------------------------------------------------------------
// LiveUdpServer

LiveUdpServer::LiveUdpServer(LiveFleet& fleet, std::uint16_t port,
                             telemetry::MetricRegistry& metrics) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) {
    HW_LOG_ERROR(kLog, "socket() failed: %s", std::strerror(errno));
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    HW_LOG_ERROR(kLog, "bind() failed: %s", std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  server_ = std::make_unique<LiveServer>(
      fleet,
      [this](ClientAddress to, const Bytes& datagram) {
        sockaddr_in peer{};
        peer.sin_family = AF_INET;
        peer.sin_addr.s_addr = htonl(static_cast<std::uint32_t>(to >> 16));
        peer.sin_port = htons(static_cast<std::uint16_t>(to & 0xffff));
        ::sendto(fd_, datagram.data(), datagram.size(), 0,
                 reinterpret_cast<sockaddr*>(&peer), sizeof peer);
      },
      metrics);
}

LiveUdpServer::~LiveUdpServer() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t LiveUdpServer::poll() {
  if (fd_ < 0) return 0;
  std::size_t handled = 0;
  Bytes buf(kMaxDatagram);
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                                 reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (n < 0) break;  // EWOULDBLOCK: drained
    const ClientAddress from =
        (static_cast<ClientAddress>(ntohl(peer.sin_addr.s_addr)) << 16) |
        ntohs(peer.sin_port);
    server_->handle_datagram(
        from, std::span(buf.data(), static_cast<std::size_t>(n)));
    ++handled;
  }
  return handled;
}

}  // namespace hw::live
