// Tracer, statistics and process helpers of the confbench harness.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"

extern char** environ;

namespace confbench {

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

int Tracer::begin(const std::string& layer, const std::string& name) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = current_;
  s.startNs = nowNs();
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].endNs = nowNs();
  current_ = spans_[static_cast<std::size_t>(id)].parent;
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  // Spans nest strictly (one thread, RAII scopes), so children never
  // overlap each other and the covered part is the sum of their durations.
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += static_cast<double>(s.endNs - s.startNs - childNs[i]) / 1e9;
  }
  return out;
}

std::string Tracer::toJson() const {
  confail::obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "confbench.spans.v1");
  w.key("spans");
  w.beginArray();
  for (const Span& s : spans_) {
    w.beginObject();
    w.field("layer", s.layer);
    w.field("name", s.name);
    w.field("start_ns", s.startNs);
    w.field("end_ns", s.endNs);
    w.field("parent", s.parent);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

bool readFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

confail::obs::JsonValue loadExpect(const std::string& path) {
  std::string text;
  if (!readFile(path, text)) {
    throw std::runtime_error("cannot read known answers " + path);
  }
  return confail::obs::parseJson(text);
}

confail::obs::JsonValue flippedExpect(const RunContext& ctx,
                                      const std::string& section,
                                      const std::string& key) {
  std::string text;
  if (!readFile(ctx.expectPath, text)) {
    throw std::runtime_error("cannot read known answers " + ctx.expectPath);
  }
  const std::size_t from = text.find("\"" + section + "\"");
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = from == std::string::npos ? from : text.find(needle, from);
  if (at == std::string::npos) {
    throw std::runtime_error("known answers: no " + section + "." + key);
  }
  const std::size_t v = at + needle.size();
  if (text.compare(v, 4, "true") == 0) {
    text.replace(v, 4, "false");
  } else if (text.compare(v, 5, "false") == 0) {
    text.replace(v, 5, "true");
  } else {
    throw std::runtime_error("known answers: " + key + " is not a boolean");
  }
  const std::string path = ctx.workDir + "/expect-flipped.json";
  if (!writeFile(path, text)) {
    throw std::runtime_error("cannot write " + path);
  }
  return loadExpect(path);
}

int runProcess(const std::vector<std::string>& argv,
               const std::string& stdoutPath) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(
      &fa, STDOUT_FILENO, stdoutPath.empty() ? "/dev/null" : stdoutPath.c_str(),
      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY,
                                   0);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

void countTree(const std::string& dir, std::uint64_t& files,
               std::uint64_t& bytes) {
  files = 0;
  bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      ++files;
      bytes += it->file_size(ec);
    }
  }
}

}  // namespace confbench
