// Minimal blocking HTTP/1.1 client for tart-obs, tests and benches.
//
// Deliberately simple: one connection, keep-alive, synchronous
// request/response, reusing HttpParser-style incremental response reading.
// Not part of the production surface — external clients speak ordinary
// HTTP; this exists so tart-obs, the test suite and the benches need no
// third-party HTTP library.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/socket.h"

namespace tart::gateway {

struct HttpResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  [[nodiscard]] const std::string* header(std::string_view name) const;
};

class BlockingHttpClient {
 public:
  /// Connects (blocking, retrying until `timeout` — servers take a moment
  /// to come up). nullopt on failure.
  [[nodiscard]] static std::optional<BlockingHttpClient> connect(
      const std::string& addr,
      std::chrono::milliseconds timeout = std::chrono::seconds(5));

  BlockingHttpClient(BlockingHttpClient&&) = default;
  BlockingHttpClient& operator=(BlockingHttpClient&&) = default;

  /// One round-trip on the kept-alive connection. Throws std::runtime_error
  /// on transport failure or unparsable response.
  HttpResponse request(std::string_view method, std::string_view target,
                       std::string_view body = {},
                       std::string_view content_type = {});

  [[nodiscard]] HttpResponse get(std::string_view target) {
    return request("GET", target);
  }
  [[nodiscard]] HttpResponse post(std::string_view target,
                                  std::string_view body,
                                  std::string_view content_type = {}) {
    return request("POST", target, body, content_type);
  }

  /// Sends raw bytes verbatim (malformed-input tests).
  void send_raw(std::string_view bytes);
  /// Reads until the peer closes or `timeout`, returning everything seen.
  [[nodiscard]] std::string read_until_close(
      std::chrono::milliseconds timeout = std::chrono::seconds(5));

 private:
  explicit BlockingHttpClient(net::Fd fd) : fd_(std::move(fd)) {}

  net::Fd fd_;
  std::string inbuf_;
};

}  // namespace tart::gateway
