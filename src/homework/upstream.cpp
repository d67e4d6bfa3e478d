#include "homework/upstream.hpp"

#include "util/strings.hpp"

namespace hw::homework {

Upstream::Upstream(sim::EventLoop& loop, Config config)
    : loop_(loop), config_(std::move(config)) {}

void Upstream::add_zone_entry(const std::string& name, Ipv4Address ip) {
  zone_[to_lower(name)] = ip;
  reverse_zone_[ip.value()] = to_lower(name);
}

std::optional<Ipv4Address> Upstream::lookup(const std::string& name) const {
  auto it = zone_.find(to_lower(name));
  return it == zone_.end() ? std::nullopt : std::optional<Ipv4Address>(it->second);
}

void Upstream::send(Bytes frame) {
  if (to_router_ == nullptr) return;
  metrics_.frames_out.inc();
  loop_.schedule(config_.rtt, [this, frame = std::move(frame)] {
    to_router_->deliver(frame);
  });
}

void Upstream::deliver(const Bytes& frame) {
  metrics_.frames_in.inc();
  auto parsed = net::PacketHeaders::parse(frame);
  if (!parsed || !parsed.value().ip) return;
  const auto& p = parsed.value();

  if (p.is_dns() && p.udp->dst_port == net::kDnsPort) {
    handle_dns(p, p.payload(frame));
    return;
  }
  if (p.tcp) {
    handle_tcp(p);
    return;
  }
  if (p.icmp && p.icmp->type == net::IcmpType::EchoRequest) {
    handle_icmp(p);
    return;
  }
  // Other UDP etc.: swallowed, as most of the Internet does.
}

void Upstream::handle_dns(const net::PacketHeaders& p,
                          std::span<const std::uint8_t> payload) {
  metrics_.dns_queries.inc();
  auto msg = net::DnsMessage::parse(payload);
  if (!msg || msg.value().questions.empty()) return;
  const auto& query = msg.value();
  const auto& q = query.questions.front();

  auto resp = query.make_response();
  resp.authoritative = true;

  if (q.qtype == net::DnsType::A) {
    if (auto ip = lookup(q.name)) {
      resp.answers.push_back(net::DnsRecord::a(q.name, *ip));
    } else {
      resp.rcode = net::DnsRcode::NxDomain;
      metrics_.dns_nxdomain.inc();
    }
  } else if (q.qtype == net::DnsType::Ptr) {
    // "d.c.b.a.in-addr.arpa" → a.b.c.d
    const auto labels = split(q.name, '.');
    if (labels.size() == 6 && labels[4] == "in-addr" && labels[5] == "arpa") {
      const std::string quad =
          labels[3] + "." + labels[2] + "." + labels[1] + "." + labels[0];
      if (auto addr = Ipv4Address::parse(quad)) {
        auto it = reverse_zone_.find(addr.value().value());
        if (it != reverse_zone_.end()) {
          resp.answers.push_back(net::DnsRecord::ptr(q.name, it->second));
        } else {
          resp.rcode = net::DnsRcode::NxDomain;
          metrics_.dns_nxdomain.inc();
        }
      } else {
        resp.rcode = net::DnsRcode::FormErr;
      }
    } else {
      resp.rcode = net::DnsRcode::NxDomain;
      metrics_.dns_nxdomain.inc();
    }
  } else {
    resp.rcode = net::DnsRcode::NxDomain;
  }

  send(net::build_udp(config_.gw_mac, p.eth.src, p.ip->dst, p.ip->src,
                      net::kDnsPort, p.udp->src_port, resp.serialize()));
}

void Upstream::handle_tcp(const net::PacketHeaders& p) {
  const auto& tcp = *p.tcp;
  if (tcp.rst()) return;

  if (tcp.syn() && !tcp.ack_set()) {
    metrics_.tcp_syns.inc();
    net::TcpHeader synack;
    synack.src_port = tcp.dst_port;
    synack.dst_port = tcp.src_port;
    synack.seq = tcp_seq_++;
    synack.ack = tcp.seq + 1;
    synack.flags = net::TcpFlags::kSyn | net::TcpFlags::kAck;
    send(net::build_tcp(config_.gw_mac, p.eth.src, p.ip->dst, p.ip->src, synack,
                        {}));
    return;
  }
  if (tcp.fin()) {
    net::TcpHeader finack;
    finack.src_port = tcp.dst_port;
    finack.dst_port = tcp.src_port;
    finack.seq = tcp_seq_++;
    finack.ack = tcp.seq + 1;
    finack.flags = net::TcpFlags::kFin | net::TcpFlags::kAck;
    send(net::build_tcp(config_.gw_mac, p.eth.src, p.ip->dst, p.ip->src, finack,
                        {}));
    return;
  }
  if (p.payload_size != 0) {
    metrics_.tcp_data_segments.inc();
    // Serve the download: N response bytes split into MTU-sized segments.
    auto it = config_.response_bytes.find(tcp.dst_port);
    std::size_t remaining = it == config_.response_bytes.end() ? 0 : it->second;
    std::uint32_t seq = tcp_seq_;
    const std::uint32_t ack = tcp.seq + static_cast<std::uint32_t>(p.payload_size);
    do {
      const std::size_t chunk = std::min(remaining, config_.mtu_payload);
      net::TcpHeader data;
      data.src_port = tcp.dst_port;
      data.dst_port = tcp.src_port;
      data.seq = seq;
      data.ack = ack;
      data.flags = net::TcpFlags::kAck | (chunk > 0 ? net::TcpFlags::kPsh : 0);
      send(net::build_tcp(config_.gw_mac, p.eth.src, p.ip->dst, p.ip->src, data,
                          Bytes(chunk, 0x5a)));
      metrics_.bytes_served.inc(chunk);
      seq += static_cast<std::uint32_t>(chunk);
      remaining -= chunk;
    } while (remaining > 0);
    tcp_seq_ = seq;
  }
}

void Upstream::handle_icmp(const net::PacketHeaders& p) {
  metrics_.pings.inc();
  send(net::build_icmp_echo(config_.gw_mac, p.eth.src, p.ip->dst, p.ip->src,
                            net::IcmpType::EchoReply, p.icmp->identifier,
                            p.icmp->sequence));
}

}  // namespace hw::homework
