#include "harness/bench_json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/json.hpp"

namespace wrht::harness {

namespace {

std::string sanitize_name(std::string name) {
  if (name.empty()) name = "unnamed";
  for (char& c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return name;
}

std::string number(double value) {
  // JSON has no NaN/Inf; a bench recording one has a bug worth seeing in
  // the artifact rather than a parser error hiding it.
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

BenchJson::BenchJson(std::string name) : name_(sanitize_name(std::move(name))) {}

void BenchJson::metric(const std::string& key, double value) {
  for (auto& [k, v] : metrics_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(key, value);
}

void BenchJson::note(const std::string& key, std::string value) {
  for (auto& [k, v] : notes_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  notes_.emplace_back(key, std::move(value));
}

std::string BenchJson::to_json() const {
  using obs::json_escape;
  std::string out = "{\n  \"bench\": \"" + json_escape(name_) + "\"";
  for (const auto& [key, value] : notes_) {
    out += ",\n  \"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
  }
  for (const auto& [key, value] : metrics_) {
    out += ",\n  \"" + json_escape(key) + "\": " + number(value);
  }
  out += "\n}\n";
  return out;
}

bool BenchJson::write(const std::string& dir) const {
  std::string target = dir;
  if (target.empty()) {
    const char* env = std::getenv("BENCH_JSON_DIR");
    if (env != nullptr && env[0] != '\0') target = env;
  }
  std::string path = "BENCH_" + name_ + ".json";
  if (!target.empty()) path = target + "/" + path;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
    return false;
  }
  out << to_json();
  return out.good();
}

}  // namespace wrht::harness
