#include "util.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> RoundSamples::Typical() const {
  std::vector<double> typical;
  typical.reserve(by_op_.size());
  for (const std::vector<double>& samples : by_op_) {
    if (!samples.empty()) typical.push_back(Median(samples));
  }
  return typical;
}

double RoundSamples::Throughput() const {
  std::vector<double> typical = Typical();
  double micros = 0;
  for (double t : typical) micros += t;
  return micros > 0 ? static_cast<double>(typical.size()) * 1e6 / micros : 0;
}

namespace {

/// A "<field>: <n> kB" line of /proc/<pid>/status, in MB; 0 when absent.
double StatusMb(int pid, const std::string& field) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb(int pid) { return StatusMb(pid, "VmHWM:"); }

double ResidentMb() { return StatusMb(0, "VmRSS:"); }

uint64_t WrittenChars() {
  std::ifstream in("/proc/self/io");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("wchar:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

size_t CountFilesWithSuffix(const std::string& dir,
                            const std::string& suffix) {
  namespace fs = std::filesystem;
  size_t count = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++count;
    }
  }
  return count;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    items_[it->second].second = Metric{value, unit};
    return;
  }
  index_[name] = items_.size();
  items_.push_back({name, Metric{value, unit}});
}

const Metric* Metrics::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &items_[it->second].second;
}

std::string Metrics::ToJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    char number[64];
    double value = std::isfinite(items_[i].second.value)
                       ? items_[i].second.value
                       : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    out << (i ? ", " : "") << '"' << items_[i].first << "\": {\"value\": "
        << number << ", \"unit\": \"" << items_[i].second.unit << "\"}";
  }
  out << "}";
  return out.str();
}

const std::vector<double>& Trace::Samples(const std::string& span) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(span);
  return it == samples_.end() ? kEmpty : it->second;
}

double JsonNumber(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\": ";
  size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

}  // namespace perfbench
