// two_node: the north-star path, HTTP ingest to external output across
// two partitions. The catalog word count with three senders runs as two
// in-process NetHosts on loopback TCP (as bench_migration sets them up):
// partition A hosts the senders in durable mode (log dir, group commit,
// a durable checkpoint every kCheckpointMs), partition B hosts the merger.
// Three keep-alive connections POST /inject/senderN to A on a seeded
// Poisson schedule at a fixed total rate (an open loop of independent
// producers); a fourth long-polls GET /outputs/total on B. Gateway, log
// writes with fsync, checkpoints and net are all on the blocking path;
// core does little work.
//
// Requests are pipelined: one thread writes each request when it is due,
// another reads the acks, so a slow ack never delays the next send and
// every latency is timed from the request's scheduled time.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "gateway/http_client.h"
#include "net/host.h"
#include "net/socket.h"
#include "trace/lineage.h"
#include "trace/trace_file.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tart::net::HostOptions;
using tart::net::NetHost;

constexpr double kRatePerS = 1000;      // offered load, all producers together
constexpr std::uint32_t kProducers = 3;  // POST connections, one per sender
constexpr int kCheckpointMs = 100;       // durable checkpoint interval on A
constexpr int kSetups = 3;
constexpr int kRestarts = 9;
constexpr std::size_t kPool = 1 << 13;
/// Generator honesty: a run whose sends were this late at p99 measured the
/// generator, not the system, and is reported invalid.
constexpr double kMaxLateP99Ms = 10.0;
constexpr std::uint64_t kMsgsPerInput = 2;  // sender on A, merger on B
constexpr auto kGatewaySettle = std::chrono::milliseconds(100);
/// Latency percentiles are taken per run of kChunk consecutive samples
/// (about 1 s of load) and the median across chunks is reported.
constexpr std::size_t kChunk = 1000;

std::string free_addr() {
  std::string err;
  const tart::net::Fd fd =
      tart::net::listen_tcp(*tart::net::SockAddr::parse("127.0.0.1:0"), &err);
  return "127.0.0.1:" + std::to_string(tart::net::local_port(fd.get()));
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Splits pipelined HTTP/1.1 responses (status line, headers,
/// Content-Length body) out of a byte stream.
class ResponseReader {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  /// Pops the next complete response's status; nullopt when incomplete.
  /// Sets *bad on a malformed response.
  std::optional<int> next(bool* bad) {
    const auto end = buf_.find("\r\n\r\n");
    if (end == std::string::npos) return std::nullopt;
    if (buf_.size() < 12 || buf_.compare(0, 5, "HTTP/") != 0) {
      *bad = true;
      return std::nullopt;
    }
    const int status = std::atoi(buf_.c_str() + 9);
    std::size_t length = 0;
    std::string head = buf_.substr(0, end);
    std::transform(head.begin(), head.end(), head.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (const auto cl = head.find("\r\ncontent-length:"); cl != std::string::npos)
      length = std::strtoull(head.c_str() + cl + 17, nullptr, 10);
    if (buf_.size() < end + 4 + length) return std::nullopt;
    buf_.erase(0, end + 4 + length);
    return status;
  }

 private:
  std::string buf_;
};

/// The seeded inputs: the arrival schedule and each arrival's request.
struct Inputs {
  std::vector<Arrival> schedule;
  std::vector<std::uint32_t> sentence;  // pool index per arrival
  std::vector<std::string> request;     // full HTTP request per arrival
  std::vector<std::vector<std::string>> pool;

  Inputs(std::uint64_t seed, double seconds) {
    SentenceGenerator gen(seed);
    for (std::size_t i = 0; i < kPool; ++i) pool.push_back(gen.next());
    schedule = poisson_schedule(seed ^ 0xA11CEull, kRatePerS, seconds,
                                kProducers);
    Rng pick(seed ^ 0xB0Bull);
    for (const Arrival& a : schedule) {
      const auto s = static_cast<std::uint32_t>(pick.below(kPool));
      sentence.push_back(s);
      std::string body;
      for (const auto& w : pool[s]) body += (body.empty() ? "" : " ") + w;
      request.push_back("POST /inject/sender" + std::to_string(a.stream + 1) +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: text/plain\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body);
    }
  }
};

/// Both partitions plus the four client connections.
class Cluster {
 public:
  Cluster(const std::string& dir, bool traced) : dir_(dir), traced_(traced) {
    std::string text = "topology = wordcount\nparam senders = 3\n";
    for (const char* n : {"A", "B"}) {
      text += std::string("partition ") + n + " = " + free_addr() + "\n";
      text += std::string("control ") + n + " = " + free_addr() + "\n";
    }
    text +=
        "place sender1 = A\nplace sender2 = A\nplace sender3 = A\n"
        "place merger = B\n";
    deploy_ = tart::net::DeploymentConfig::parse(text);
    std::filesystem::create_directories(dir + "/A");
    a_ = std::make_unique<NetHost>(deploy_, "A", options_a());
    b_ = std::make_unique<NetHost>(deploy_, "B", options_b());
    a_->start();
    b_->start();
    started_ = Clock::now();
    for (int& fd : post_) fd = connect_to(a_->http_port());
    poll_ = tart::gateway::BlockingHttpClient::connect(
        "127.0.0.1:" + std::to_string(b_->http_port()));
  }
  ~Cluster() {
    close_clients();
    shutdown();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] bool clients_ok() const {
    return poll_.has_value() &&
           std::all_of(std::begin(post_), std::end(post_),
                       [](int fd) { return fd >= 0; });
  }
  void close_clients() {
    for (int& fd : post_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    poll_.reset();
  }
  /// Stops both hosts; traces (when on) are written here.
  void shutdown() {
    // Gateway::shutdown sets its stop flag and notifies the committer
    // without holding the committer's mutex, so a committer that has just
    // started (or just finished a round) can miss the wake-up and the join
    // hangs. Give freshly started gateways time to park their committer.
    std::this_thread::sleep_until(started_ + kGatewaySettle);
    for (auto* h : {&a_, &b_}) {
      if (!*h) continue;
      (*h)->request_shutdown();
      (void)(*h)->run_until_shutdown();
      h->reset();
    }
  }
  /// Cold-restarts partition A alone from its log dir (durable checkpoint
  /// plus log suffix); returns construct-to-caught-up ms and the recovery.
  double restart_a(tart::core::RecoveryInfo* info) {
    // Without its gateway: a gateway stopped right after it started can
    // hang in shutdown (see shutdown()).
    HostOptions options = options_a();
    options.http_addr.clear();
    const std::int64_t t0 = now_ns();
    NetHost a(deploy_, "A", options);
    a.start();  // replays the suffix to quiescence before serving
    const std::int64_t t1 = now_ns();
    *info = a.runtime().recovery_info();
    a.request_shutdown();
    (void)a.run_until_shutdown();
    return static_cast<double>(t1 - t0) / 1e6;
  }

  NetHost& a() { return *a_; }
  NetHost& b() { return *b_; }
  int post_fd(std::uint32_t i) const { return post_[i]; }
  tart::gateway::BlockingHttpClient& poller() { return *poll_; }
  [[nodiscard]] std::vector<std::string> trace_paths() const {
    return {dir_ + "/A.trc", dir_ + "/B.trc"};
  }

 private:
  HostOptions options_a() const {
    HostOptions o;
    o.log_dir = dir_ + "/A";
    o.http_addr = "127.0.0.1:0";
    o.durability.enabled = true;
    o.durability.interval_ms = kCheckpointMs;
    if (traced_) o.trace_path = dir_ + "/A.trc";
    return o;
  }
  HostOptions options_b() const {
    HostOptions o;
    o.http_addr = "127.0.0.1:0";
    if (traced_) o.trace_path = dir_ + "/B.trc";
    return o;
  }

  std::string dir_;
  bool traced_;
  tart::net::DeploymentConfig deploy_;
  std::unique_ptr<NetHost> a_, b_;
  Clock::time_point started_;
  int post_[kProducers] = {-1, -1, -1};
  std::optional<tart::gateway::BlockingHttpClient> poll_;
};

struct Pass {
  std::vector<double> ack_ms, e2e_ms, late_ms, poll_rtt_ms;
  std::size_t polls = 0;
  std::size_t matched = 0;  // outputs matched to acked inputs
  std::uint64_t acked = 0;
  double window_s = 0;
  tart::core::MetricsSnapshot a, b;  // window deltas per partition
  ProfTotals prof;
  std::size_t retained_end = 0;
  std::uint64_t processed = 0;
};

struct Seen {
  ObservedOutput out;
  std::int64_t recv_ns = 0;
};

/// Parses one GET /outputs body: "vt \t stutter \t WIRE:SEQ \t payload".
void parse_outputs(const std::string& body, std::int64_t recv_ns,
                   std::vector<Seen>* seen) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t eol = body.find('\n', pos);
    const std::string line =
        body.substr(pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? body.size() : eol + 1;
    const auto t1 = line.find('\t');
    const auto t2 = line.find('\t', t1 + 1);
    const auto t3 = line.find('\t', t2 + 1);
    if (t3 == std::string::npos) continue;
    Seen s;
    s.recv_ns = recv_ns;
    s.out.vt = std::strtoll(line.c_str(), nullptr, 10);
    s.out.stutter = line[t1 + 1] == '1';
    const std::string origin = line.substr(t2 + 1, t3 - t2 - 1);
    if (const auto colon = origin.find(':'); colon != std::string::npos) {
      s.out.has_origin = true;
      s.out.origin_wire = static_cast<std::uint32_t>(std::stoul(origin));
      s.out.origin_seq = std::stoull(origin.substr(colon + 1));
    }
    s.out.total = std::strtoll(line.c_str() + t3 + 1, nullptr, 10);
    seen->push_back(s);
  }
}

/// One measured window: sends the schedule, reads every ack and output,
/// then checks them.
void run_window(Cluster& c, const Inputs& in, double seconds, SpanLog& spans,
                Pass& pass, Result& result) {
  const std::size_t n = in.schedule.size();
  std::vector<std::int64_t> sent_ns(n, 0), ack_ns(n, 0);
  std::vector<int> status(n, 0);
  std::vector<std::uint64_t> seq(n, 0);
  std::vector<std::vector<std::uint32_t>> order(kProducers,
                                                std::vector<std::uint32_t>(n));
  std::atomic<std::size_t> sent_count[kProducers] = {0, 0, 0};
  std::atomic<bool> sender_done{false}, stop_poll{false};
  std::atomic<std::size_t> acked{0}, outputs_seen{0};
  std::vector<Seen> seen;

  std::vector<std::uint32_t> wire_of;
  for (std::uint32_t p = 0; p < kProducers; ++p)
    wire_of.push_back(
        c.a().built().inputs.at("sender" + std::to_string(p + 1)).value());

  const auto before_a = c.a().metrics();
  const auto before_b = c.b().metrics();
  const ProfTotals prof_before = ProfTotals::now();
  const std::uint64_t root = spans.open();
  const std::int64_t w0 = now_ns() + 20'000'000;  // let the threads start
  const std::int64_t w1 = w0 + static_cast<std::int64_t>(seconds * 1e9);
  const auto clock_at = [](std::int64_t ns) {
    return Clock::time_point(std::chrono::nanoseconds(ns));
  };

  std::thread sender([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(clock_at(w0 + in.schedule[i].due_ns));
      const std::uint32_t p = in.schedule[i].stream;
      const std::size_t k = sent_count[p].load(std::memory_order_relaxed);
      order[p][k] = static_cast<std::uint32_t>(i);
      sent_ns[i] = now_ns();
      // Published before the bytes leave, so the reader can always pair
      // the response with its request.
      sent_count[p].store(k + 1, std::memory_order_release);
      if (!send_all(c.post_fd(p), in.request[i])) status[i] = -1;
    }
    sender_done = true;
  });

  std::thread reader([&] {
    ResponseReader readers[kProducers];
    std::size_t got[kProducers] = {0, 0, 0};
    std::uint64_t acked_on[kProducers] = {0, 0, 0};
    std::size_t received = 0;
    pollfd fds[kProducers];
    for (std::uint32_t p = 0; p < kProducers; ++p)
      fds[p] = pollfd{c.post_fd(p), POLLIN, 0};
    const std::int64_t deadline = w1 + 15'000'000'000;
    char buf[1 << 16];
    bool bad = false;
    while (!bad && now_ns() < deadline &&
           !(sender_done.load() && received == n)) {
      if (::poll(fds, kProducers, 50) <= 0) continue;
      for (std::uint32_t p = 0; p < kProducers; ++p) {
        if ((fds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t r = ::recv(fds[p].fd, buf, sizeof(buf), 0);
        if (r <= 0) {
          bad = true;
          break;
        }
        const std::int64_t t = now_ns();
        readers[p].feed(buf, static_cast<std::size_t>(r));
        while (const auto st = readers[p].next(&bad)) {
          if (got[p] >= sent_count[p].load(std::memory_order_acquire)) {
            bad = true;
            break;
          }
          const std::uint32_t i = order[p][got[p]++];
          ack_ns[i] = t;
          status[i] = *st;
          ++received;
          if (*st == 200) {
            seq[i] = acked_on[p]++;
            acked.fetch_add(1);
          }
          spans.record(root, "POST", "gateway", sent_ns[i], t, wire_of[p],
                       seq[i]);
        }
      }
    }
  });

  std::thread poller([&] {
    std::size_t after = 0;
    while (!stop_poll.load()) {
      const std::int64_t p0 = now_ns();
      tart::gateway::HttpResponse resp;
      try {
        resp = c.poller().get("/outputs/total?after=" + std::to_string(after) +
                              "&wait_ms=200");
      } catch (const std::exception&) {
        break;
      }
      const std::int64_t p1 = now_ns();
      spans.record(root, "poll", "gateway", p0, p1);
      if (p0 < w1) {  // the idle polls after the window say nothing
        pass.poll_rtt_ms.push_back(static_cast<double>(p1 - p0) / 1e6);
        ++pass.polls;
      }
      if (resp.status != 200) break;
      parse_outputs(resp.body, p1, &seen);
      if (const std::string* next = resp.header("X-Tart-Next"))
        after = std::stoull(*next);
      outputs_seen.store(seen.size(), std::memory_order_release);
    }
  });

  sender.join();
  reader.join();
  const std::int64_t out_deadline = now_ns() + 20'000'000'000;
  while (outputs_seen.load(std::memory_order_acquire) < acked.load() &&
         now_ns() < out_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop_poll = true;
  poller.join();
  spans.close(root, 0, "two_node.window", "bench", w0, now_ns());

  pass.window_s = static_cast<double>(w1 - w0) / 1e9;
  pass.a = delta(c.a().metrics(), before_a);
  pass.b = delta(c.b().metrics(), before_b);
  pass.prof = ProfTotals::now().minus(prof_before);
  for (const auto& [name, id] : c.a().built().components) {
    if (c.a().runtime().component_is_local(id))
      pass.retained_end += c.a().runtime().retained_messages(id);
    if (c.b().runtime().component_is_local(id))
      pass.retained_end += c.b().runtime().retained_messages(id);
  }
  pass.processed = c.a().runtime().total_metrics().messages_processed +
                   c.b().runtime().total_metrics().messages_processed;

  // Acks and the generator's own lateness.
  std::vector<std::vector<std::int64_t>> ref(kProducers);
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> arrival_of;
  ReferenceModel model(kProducers);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = w0 + in.schedule[i].due_ns;
    pass.late_ms.push_back(static_cast<double>(sent_ns[i] - due) / 1e6);
    if (status[i] != 200) {
      ++failed;
      continue;
    }
    const std::uint32_t p = in.schedule[i].stream;
    ++pass.acked;
    pass.ack_ms.push_back(static_cast<double>(ack_ns[i] - due) / 1e6);
    arrival_of[{wire_of[p], seq[i]}] = i;
    ref[p].push_back(model.count(p, in.pool[in.sentence[i]]));
  }
  result.attempted += n;
  if (failed > 0)
    result.fail(failed, "two_node: " + std::to_string(failed) +
                            " requests were not acked 200");

  // Outputs: by origin tag, timed from the input's scheduled send.
  std::vector<ObservedOutput> observed;
  observed.reserve(seen.size());
  for (const Seen& s : seen) {
    observed.push_back(s.out);
    const auto it = arrival_of.find({s.out.origin_wire, s.out.origin_seq});
    if (!s.out.has_origin || it == arrival_of.end()) continue;
    ++pass.matched;
    pass.e2e_ms.push_back(
        static_cast<double>(s.recv_ns - (w0 + in.schedule[it->second].due_ns)) /
        1e6);
  }
  std::vector<std::string> problems;
  const std::uint64_t bad = check_outputs(wire_of, ref, observed, &problems);
  if (bad > 0) {
    result.failed += bad;
    for (const auto& p : problems) result.problems.push_back("two_node: " + p);
  }
  if (pass.processed != kMsgsPerInput * pass.acked)
    result.fail(1, "two_node: " + std::to_string(pass.processed) +
                       " messages processed, expected " +
                       std::to_string(kMsgsPerInput * pass.acked));
  if (pass.a.gw_acked != pass.acked)
    result.fail(1, "two_node: gateway counted " +
                       std::to_string(pass.a.gw_acked) + " acks, client saw " +
                       std::to_string(pass.acked));

  // GET /metrics is the operator's view of the same counter.
  try {
    auto client = tart::gateway::BlockingHttpClient::connect(
        "127.0.0.1:" + std::to_string(c.a().http_port()));
    const auto resp = client->get("/metrics");
    const auto at = resp.body.find("\ntart_gw_acked_total ");
    if (at == std::string::npos ||
        std::strtoull(resp.body.c_str() + at + 21, nullptr, 10) != pass.acked)
      result.fail(1, "two_node: GET /metrics disagrees on acked requests");
  } catch (const std::exception& e) {
    result.fail(1, std::string("two_node: GET /metrics failed: ") + e.what());
  }
}

/// Generates the inputs and brings up a cluster; returns seconds taken.
double set_up(std::unique_ptr<Inputs>* in, std::unique_ptr<Cluster>* c,
              const RunArgs& args, const std::string& dir, bool traced,
              SpanLog& spans) {
  const std::int64_t t0 = now_ns();
  *in = std::make_unique<Inputs>(args.seed, args.seconds);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  *c = std::make_unique<Cluster>(dir, traced);
  const std::int64_t t1 = now_ns();
  spans.record(0, "NetHost+connect", "bench", t0, t1);
  return static_cast<double>(t1 - t0) / 1e9;
}

double p50_ms(std::vector<double> ns) { return median(std::move(ns)) / 1e6; }

}  // namespace

Result run_two_node(const RunArgs& args) {
  Result result;
  SpanLog off(false);
  const std::string dir = args.work_dir + "/cluster";
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Cluster> c;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.traced ? 1 : kSetups); ++i) {
    c.reset();
    setup_s.push_back(set_up(&in, &c, args, dir, false, off));
  }
  if (!c->clients_ok()) {
    result.fail(1, "two_node: could not connect the clients");
    return result;
  }
  Pass base;
  run_window(*c, *in, args.seconds, off, base, result);
  const double late_p99 = percentile(base.late_ms, 99);
  result.notes["gen_late_p99_ms"] = std::to_string(late_p99);
  if (late_p99 > kMaxLateP99Ms) result.invalid = true;

  // Time back to service for the durable partition: cold restarts of A
  // from its log dir (newest durable checkpoint plus the log suffix).
  c->close_clients();
  c->shutdown();
  std::vector<double> rto;
  for (int r = 0; r < (args.traced ? 0 : kRestarts); ++r) {
    tart::core::RecoveryInfo info;
    rto.push_back(c->restart_a(&info));
    result.attempted += 1;
    if (info.covered_records + info.suffix_records != base.acked)
      result.fail(1, "two_node: restart of A recovered " +
                         std::to_string(info.covered_records) + " + " +
                         std::to_string(info.suffix_records) +
                         " records, expected " + std::to_string(base.acked));
  }
  c.reset();

  result.set("setup_s", median(setup_s));
  result.set("throughput_rps",
             per(static_cast<double>(base.matched), base.window_s));
  result.set("ack_p50_ms", chunked_percentile(base.ack_ms, kChunk, 50));
  result.set("ack_p99_ms", chunked_percentile(base.ack_ms, kChunk, 99));
  result.set("e2e_p50_ms", chunked_percentile(base.e2e_ms, kChunk, 50));
  result.set("e2e_p99_ms", chunked_percentile(base.e2e_ms, kChunk, 99));
  result.set("rto_ms", median(rto));
  result.set("rss_mb", peak_rss_mb());
  result.notes["ack_samples"] = std::to_string(base.ack_ms.size());
  result.notes["e2e_samples"] = std::to_string(base.e2e_ms.size());
  if (!args.traced) return result;

  // Traced run: the untraced window above is the overhead baseline; this
  // one records spans and the flight recorder's lineage category.
  SpanLog spans(true);
  (void)set_up(&in, &c, args, dir, true, spans);
  if (!c->clients_ok()) {
    result.fail(1, "two_node: could not connect the clients");
    return result;
  }
  Pass p;
  run_window(*c, *in, args.seconds, spans, p, result);
  const auto traces = c->trace_paths();
  c->close_clients();
  c->shutdown();  // writes the trace files
  c.reset();

  std::vector<double> durability_wait, stall_wait, processing, network,
      output_lag;
  try {
    std::vector<tart::trace::Trace> loaded;
    for (const auto& path : traces)
      loaded.push_back(tart::trace::TraceReader::read_file(path));
    for (const auto& l : tart::trace::analyze_lineage(loaded).inputs) {
      if (!l.acked || !l.complete) continue;
      durability_wait.push_back(static_cast<double>(l.breakdown.durability_wait_ns));
      stall_wait.push_back(static_cast<double>(l.breakdown.stall_wait_ns));
      processing.push_back(static_cast<double>(l.breakdown.processing_ns));
      network.push_back(static_cast<double>(l.breakdown.network_ns));
      output_lag.push_back(static_cast<double>(l.breakdown.output_lag_ns));
    }
  } catch (const std::exception& e) {
    result.fail(1, std::string("two_node: lineage: ") + e.what());
  }
  if (durability_wait.size() != p.acked)
    result.notes["lineage_resolved"] = std::to_string(durability_wait.size()) +
                                       " of " + std::to_string(p.acked);

  tart::core::MetricsSnapshot m = p.a;
  m += p.b;
  const double msgs = static_cast<double>(m.messages_processed);
  const double inputs = static_cast<double>(p.acked);
  const double requests = static_cast<double>(m.gw_requests);
  result.set("gateway.commit_batch_avg",
             per(static_cast<double>(m.gw_commit_records),
                 static_cast<double>(m.gw_commit_batches)));
  result.set("gateway.group_commit_us_mean", p.prof.mean_ns("gw.group_commit") / 1e3);
  result.set("gateway.parse_us_mean", p.prof.mean_ns("gw.parse") / 1e3);
  result.set("gateway.http_in_bytes_per_req",
             per(static_cast<double>(p.prof.site("gw.http_in").total), requests));
  result.set("gateway.poll_rtt_ms_p50", percentile(p.poll_rtt_ms, 50));
  result.set("gateway.polls_per_output",
             per(static_cast<double>(p.polls), static_cast<double>(p.matched)));
  result.set("gateway.rejected_frac",
             per(static_cast<double>(p.a.gw_rejected),
                 static_cast<double>(p.a.gw_requests)));
  result.set("gateway.output_lag_ms_p50", p50_ms(output_lag));
  result.set("log.fsyncs_per_ack", per(static_cast<double>(p.a.store_flushes), inputs));
  result.set("log.durability_wait_ms_p50", p50_ms(durability_wait));
  result.set("checkpoint.write_ms_mean", p.prof.mean_ns("ckpt.write") / 1e6);
  result.set("core.dispatch_ns_mean", p.prof.mean_ns("runner.dispatch"));
  result.set("core.pessimism_wait_us_per_msg",
             per(static_cast<double>(m.pessimism_wait_ns) / 1e3, msgs));
  result.set("core.stalls_per_msg", per(static_cast<double>(m.pessimism_events), msgs));
  result.set("core.probes_per_msg", per(static_cast<double>(m.probes_sent), msgs));
  result.set("core.msgs_per_input", per(static_cast<double>(p.processed), inputs));
  result.set("core.stall_wait_ms_p50", p50_ms(stall_wait));
  result.set("core.processing_ms_p50", p50_ms(processing));
  result.set("estimator.underestimate_frac",
             per(static_cast<double>(m.estimator_underestimates), msgs));
  result.set("estimator.out_of_order_frac",
             per(static_cast<double>(m.out_of_order_arrivals), msgs));
  result.set("wire.retention_bytes_per_msg",
             per(static_cast<double>(p.prof.site("runner.retention").total), msgs));
  result.set("wire.retained_msgs_end", static_cast<double>(p.retained_end));
  result.set("serde.archive_bytes_per_msg",
             per(static_cast<double>(p.prof.site("serde.archive").total), msgs));
  result.set("net.frames_per_input",
             per(static_cast<double>(m.net_frames_out), inputs));
  result.set("net.bytes_per_input", per(static_cast<double>(m.net_bytes_out), inputs));
  result.set("net.envelope_copy_bytes_per_input",
             per(static_cast<double>(p.prof.site("net.envelope_in").total +
                                     p.prof.site("net.envelope_out").total),
                 inputs));
  result.set("net.decode_us_mean", p.prof.mean_ns("net.decode") / 1e3);
  result.set("net.send_flush_us_mean", p.prof.mean_ns("net.send_flush") / 1e3);
  result.set("net.loop_busy_pct", p.prof.loop_busy_pct());
  result.set("net.frames_refused", static_cast<double>(m.net_frames_refused));
  result.set("net.network_ms_p50", p50_ms(network));
  result.set("bench.gen_late_p99_ms", percentile(p.late_ms, 99));
  const double base_e2e = percentile(base.e2e_ms, 50);
  result.set("bench.trace_overhead_pct",
             per(percentile(p.e2e_ms, 50) - base_e2e, base_e2e) * 100.0);
  result.set("bench.ack_samples", static_cast<double>(p.ack_ms.size()));
  result.set("bench.e2e_samples", static_cast<double>(p.e2e_ms.size()));
  result.set("failed_frac", per(static_cast<double>(result.failed),
                                static_cast<double>(result.attempted)));
  if (percentile(p.late_ms, 99) > kMaxLateP99Ms) result.invalid = true;
  report_self_times(spans, result);
  if (!spans.write(args.out_dir + "/spans-two_node.tsv"))
    result.fail(1, "two_node: could not write spans");
  return result;
}

}  // namespace perfbench
