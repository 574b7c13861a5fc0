#include "driver/report.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/stopwatch.h"
#include "driver/trace.h"

namespace cloudjoin::perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumberMap(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    if (out.size() > 1) out += ",";
    out += Quote(name) + ":" + Number(v);
  }
  return out + "}";
}

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  return out + "]";
}

}  // namespace

void BenchRun::Note(const std::string& note) {
  std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  notes.push_back(note);
}

bool BenchRun::WriteJson(const std::string& path) const {
  std::ostringstream out;
  out << "{\"workload\":" << Quote(workload) << ",\"seed\":" << seed
      << ",\"scale\":" << Number(scale)
      << ",\"setup_s\":" << NumberList(setup_s) << ",\"setup_parts\":{";
  bool first = true;
  for (const auto& [name, list] : setup_parts) {
    out << (first ? "" : ",") << Quote(name) << ":" << NumberList(list);
    first = false;
  }
  out << "},\"values\":" << NumberMap(values)
      << ",\"check_failures\":" << check_failures << ",\"notes\":[";
  for (size_t i = 0; i < notes.size(); ++i) {
    out << (i > 0 ? "," : "") << Quote(notes[i]);
  }
  out << "],\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundRecord& r = rounds[i];
    out << (i > 0 ? "," : "") << "{\"traced\":" << (r.traced ? 1 : 0)
        << ",\"wall_s\":" << Number(r.wall_s) << ",\"rows\":" << r.rows
        << "}";
  }
  out << "],\"ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    out << (i > 0 ? ",\n" : "") << "{\"kind\":" << Quote(op.kind)
        << ",\"round\":" << op.round << ",\"traced\":" << (op.traced ? 1 : 0)
        << ",\"ok\":" << (op.ok ? 1 : 0) << ",\"rows\":" << op.rows
        << ",\"latency_s\":" << Number(op.latency_s)
        << ",\"values\":" << NumberMap(op.values) << "}";
  }
  out << "]}\n";
  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

void PairDigest::Add(int64_t left, int64_t right) {
  uint64_t x = static_cast<uint64_t>(left) * 0x9E3779B97F4A7C15ULL;
  x ^= static_cast<uint64_t>(right) + 0x9E3779B97F4A7C15ULL + (x << 6) +
       (x >> 2);
  x *= 0xBF58476D1CE4E5B9ULL;
  sum_ += x ^ (x >> 31);
  ++count_;
}

bool RunTimedRounds(const RunConfig& config, BenchRun* run, bool rotate_cpu,
                    const std::function<bool(int64_t, bool)>& round) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (rotate_cpu && sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  // Untraced runs move to the next CPU every round; traced runs every two
  // rounds, so a traced round and its untraced twin share a CPU. A run
  // ends only on a whole number of turns over the CPUs, so each gets the
  // same number of rounds.
  const int64_t per_cpu = config.trace ? 2 : 1;
  const int64_t turn = per_cpu * std::max<int64_t>(1, cpus.size());
  Stopwatch total;
  bool ok = true;
  for (int64_t i = 0;
       ok && (i < per_cpu || i % turn != 0 ||
              total.ElapsedSeconds() < config.seconds ||
              run->ops.size() < kMinOps);
       ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<size_t>(i / per_cpu) % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const bool traced = config.trace && i % 2 == 0;
    Tracer::Get().set_enabled(traced);
    ok = round(i, traced);
    Tracer::Get().set_enabled(false);
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
  return ok;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace cloudjoin::perfbench
