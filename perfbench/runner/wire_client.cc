#include "wire_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util.h"

namespace perfbench {

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path, std::string* error) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    close(log_fd);
    return false;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(pipe_fds[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    close(log_fd);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  close(log_fd);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];

  // Handshake: one "PORT <n>\n" line within 60 s.
  std::string line;
  Clock::time_point start = Clock::now();
  while (line.find('\n') == std::string::npos) {
    if (SecondsSince(start) > 60) {
      *error = "no PORT line from the server";
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 1000) <= 0) continue;
    char buf[64];
    ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "server exited before its PORT line (see " + log_path + ")";
      return false;
    }
    line.append(buf, static_cast<size_t>(n));
  }
  if (line.rfind("PORT ", 0) != 0) {
    *error = "unexpected handshake: " + line;
    return false;
  }
  port_ = std::atoi(line.c_str() + 5);
  if (port_ <= 0) *error = "bad handshake: " + line;
  return port_ > 0;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return true;
  kill(pid_, SIGTERM);
  int status = 0;
  Clock::time_point start = Clock::now();
  bool exited = false;
  while (!exited) {
    pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) {
      exited = true;
      break;
    }
    if (SecondsSince(start) > 20) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      status = -1;
      exited = true;
      break;
    }
    usleep(2000);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  return status == 0;
}

WireClient::~WireClient() {
  if (fd_ >= 0) close(fd_);
}

bool WireClient::Connect(int port, std::string* error) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool WireClient::ReadMore() {
  if (offset_ > 0 && offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  char buf[65536];
  for (;;) {
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
      bytes_received_ += static_cast<uint64_t>(n);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool WireClient::Call(const std::string& line, bool* ok,
                      std::string* payload) {
  std::string request = line + "\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = send(fd_, request.data() + sent, request.size() - sent,
                     MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  bytes_sent_ += request.size();

  size_t newline;
  while ((newline = buffer_.find('\n', offset_)) == std::string::npos) {
    if (!ReadMore()) return false;
  }
  std::string header = buffer_.substr(offset_, newline - offset_);
  offset_ = newline + 1;
  if (header.rfind("ERR ", 0) == 0) {
    *ok = false;
    *payload = header.substr(4);
    return true;
  }
  if (header.rfind("OK ", 0) != 0) return false;
  char* end = nullptr;
  unsigned long long length = std::strtoull(header.c_str() + 3, &end, 10);
  if (end == header.c_str() + 3 || *end != '\0') return false;
  while (buffer_.size() - offset_ < length) {
    if (!ReadMore()) return false;
  }
  *ok = true;
  payload->assign(buffer_, offset_, length);
  offset_ += length;
  return true;
}

bool ParseMatches(const std::string& payload,
                  std::vector<ssjoin::QueryMatch>* matches) {
  matches->clear();
  size_t at = 0;
  while (at < payload.size()) {
    size_t newline = payload.find('\n', at);
    if (newline == std::string::npos) return false;
    std::string line = payload.substr(at, newline - at);
    size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    char* end = nullptr;
    unsigned long id = std::strtoul(line.c_str(), &end, 10);
    if (end != line.c_str() + tab) return false;
    double score = std::strtod(line.c_str() + tab + 1, &end);
    if (*end != '\0') return false;
    matches->push_back({static_cast<ssjoin::RecordId>(id), score});
    at = newline + 1;
  }
  return true;
}

}  // namespace perfbench
