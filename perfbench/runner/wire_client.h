// A child ssjoin_server process and a blocking client for its wire
// protocol. The client decodes the response framing itself ("OK <n>\n"
// plus n payload bytes, or "ERR <message>\n") rather than reusing the
// program's decoder.
#ifndef PERFBENCH_RUNNER_WIRE_CLIENT_H_
#define PERFBENCH_RUNNER_WIRE_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/similarity_service.h"

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary args...` with stderr appended to `log_path`, and waits
  /// for its "PORT <n>" handshake line on stdout.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);

  /// SIGTERM, then waits for the exit (SIGKILL after 20 s). Returns true
  /// when the server exited with status 0. Idempotent.
  bool Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool Connect(int port, std::string* error);

  /// Sends one request line and reads its response. Returns false on a
  /// transport or framing error; `ok` tells OK from ERR.
  bool Call(const std::string& line, bool* ok, std::string* payload);

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  bool ReadMore();

  int fd_ = -1;
  std::string buffer_;
  size_t offset_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

/// Parses a query payload ("id\tscore\n" per match).
bool ParseMatches(const std::string& payload,
                  std::vector<ssjoin::QueryMatch>* matches);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WIRE_CLIENT_H_
