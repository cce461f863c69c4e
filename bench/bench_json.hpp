// Tiny JSON bench emitter: every bench writes a machine-readable
// BENCH_<name>.json next to its stdout report, so the perf trajectory can
// be tracked across PRs (CI uploads these as artifacts).
//
// Usage:
//   BenchJson j("t1_threshold_sweep");
//   j.set("config.n", 16);
//   j.set("parallel.trials_per_sec", 1.2e4);
//   j.set("reports_bit_identical", true);
//   j.write();                       // → BENCH_t1_threshold_sweep.json
//
// Dotted keys nest ("config.n" → {"config": {"n": ...}}). Insertion order
// is preserved. No external dependencies, header-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace aa::bench {

class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void set(const std::string& dotted_key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    put(dotted_key, buf);
  }
  void set(const std::string& dotted_key, std::int64_t v) {
    put(dotted_key, std::to_string(v));
  }
  void set(const std::string& dotted_key, int v) {
    put(dotted_key, std::to_string(v));
  }
  void set(const std::string& dotted_key, std::size_t v) {
    put(dotted_key, std::to_string(v));
  }
  void set(const std::string& dotted_key, bool v) {
    put(dotted_key, v ? "true" : "false");
  }
  void set(const std::string& dotted_key, const std::string& v) {
    put(dotted_key, quote(v));
  }
  void set(const std::string& dotted_key, const char* v) {
    put(dotted_key, quote(v));
  }

  /// Serialize the whole object.
  [[nodiscard]] std::string dump() const {
    std::string out;
    root_.dump(out, 0);
    out += "\n";
    return out;
  }

  /// Write BENCH_<name>.json into the current directory (or `dir`),
  /// atomically: the full document goes to BENCH_<name>.json.tmp first and
  /// is renamed into place only after a clean flush, so a bench killed
  /// mid-write never leaves a truncated artifact at the final path.
  /// Returns the path written, or empty on I/O failure (benches should not
  /// fail because a filesystem is read-only).
  std::string write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    const std::string tmp = path + ".tmp";
    // aa-lint: write-ok(the bench atomic-write primitive itself)
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return {};
    const std::string text = dump();
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fflush(f) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) std::remove(tmp.c_str());
    return ok ? path : std::string{};
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  struct Node {
    // Leaf when value non-empty; object otherwise.
    std::string value;
    std::vector<std::pair<std::string, std::unique_ptr<Node>>> children;

    Node* child(const std::string& key) {
      for (auto& [k, v] : children) {
        if (k == key) return v.get();
      }
      children.emplace_back(key, std::make_unique<Node>());
      return children.back().second.get();
    }

    void dump(std::string& out, int depth) const {
      if (!value.empty()) {
        out += value;
        return;
      }
      out += "{";
      for (std::size_t i = 0; i < children.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out.append(static_cast<std::size_t>(depth + 1) * 2, ' ');
        out += quote(children[i].first);
        out += ": ";
        children[i].second->dump(out, depth + 1);
      }
      out += "\n";
      out.append(static_cast<std::size_t>(depth) * 2, ' ');
      out += "}";
    }
  };

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += "\"";
    return out;
  }

  void put(const std::string& dotted_key, std::string rendered) {
    Node* node = &root_;
    std::size_t start = 0;
    while (true) {
      const std::size_t dot = dotted_key.find('.', start);
      if (dot == std::string::npos) {
        node = node->child(dotted_key.substr(start));
        break;
      }
      node = node->child(dotted_key.substr(start, dot - start));
      start = dot + 1;
    }
    node->value = std::move(rendered);
  }

  std::string name_;
  Node root_;
};

}  // namespace aa::bench
