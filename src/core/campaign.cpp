#include "core/campaign.hpp"

#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "adversary/async_adversaries.hpp"
#include "adversary/censor.hpp"
#include "adversary/chaos.hpp"
#include "adversary/window_adversaries.hpp"
#include "lens/accountability.hpp"
#include "util/check.hpp"

namespace aa::core {

namespace {

// ---------------------------------------------------------------- parsing

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::string item;
  std::stringstream ss(value);
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// `where` argument of parse_campaign_int for config line `line`.
std::string at_line(int line) {
  return "campaign config line " + std::to_string(line);
}

double parse_double(const std::string& value, int line) {
  std::size_t pos = 0;
  double v = 0.0;
  bool ok = true;
  try {
    v = std::stod(value, &pos);
  } catch (...) {
    ok = false;
  }
  AA_REQUIRE(ok && pos == value.size(),
             "campaign config line " + std::to_string(line) +
                 ": expected a number, got '" + value + "'");
  return v;
}

bool parse_bool(const std::string& value, int line) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  AA_REQUIRE(false, "campaign config line " + std::to_string(line) +
                        ": expected true or false, got '" + value + "'");
  return false;
}

std::vector<int> parse_int_list(const std::string& value, int line) {
  std::vector<int> out;
  for (const std::string& item : split_list(value)) {
    out.push_back(static_cast<int>(parse_campaign_int(item, at_line(line))));
  }
  AA_REQUIRE(!out.empty(), "campaign config line " + std::to_string(line) +
                               ": empty list");
  return out;
}

// ------------------------------------------------- axis-value resolution

protocols::ProtocolKind protocol_kind(const std::string& name) {
  if (name == "reset" || name == "reset-agreement") {
    return protocols::ProtocolKind::Reset;
  }
  if (name == "forgetful") return protocols::ProtocolKind::Forgetful;
  if (name == "benor" || name == "ben-or") return protocols::ProtocolKind::BenOr;
  if (name == "bracha") return protocols::ProtocolKind::Bracha;
  AA_REQUIRE(false, "campaign: unknown protocol '" + name +
                        "' (want reset|forgetful|benor|bracha)");
  return protocols::ProtocolKind::Reset;
}

std::optional<protocols::Thresholds> threshold_preset(const std::string& name,
                                                      int n, int t) {
  if (name == "default") return std::nullopt;
  if (name == "canonical") return protocols::canonical_thresholds(n, t);
  if (name == "relaxed") {
    return protocols::Thresholds{n - 2 * t, n / 2 + 1 + t, n / 2 + 1};
  }
  AA_REQUIRE(false, "campaign: unknown thresholds preset '" + name +
                        "' (want default|canonical|relaxed)");
  return std::nullopt;
}

/// Chaos presets for the `chaos_plan` sweep axis. "none" resolves to the
/// config's own chaos knobs — the default axis value is exactly the
/// pre-axis behavior — and the named presets inherit the config's censor
/// target and chaos seed so `chaos_censor_target` / `chaos_seed` still
/// steer them.
sim::FaultPlan chaos_plan_preset(const CampaignConfig& config,
                                 const std::string& name) {
  if (name == "none") return config.chaos;
  sim::FaultPlan fp;
  fp.censor_target = config.chaos.censor_target;
  fp.chaos_seed = config.chaos.chaos_seed;
  if (name == "censor-light") {
    fp.censor_prob = 0.25;
  } else if (name == "censor-heavy") {
    fp.censor_prob = 0.9;
  } else if (name == "resets") {
    fp.reset_prob = 0.5;
  } else if (name == "crashy") {
    fp.crash_prob = 0.2;
    fp.crash_budget = 1;
  } else {
    AA_REQUIRE(false,
               "campaign: unknown chaos_plan preset '" + name +
                   "' (want none|censor-light|censor-heavy|resets|crashy)");
  }
  return fp;
}

/// The async censor's fairness bound: how many consecutive times the
/// starving scheduler may defer the target before it must let the inner
/// adversary's choice stand. Small enough that censored campaigns still
/// terminate, large enough that the target is demonstrably starved.
constexpr int kCampaignStarveBound = 8;

/// Cell factories with the chaos layer and (outermost) the targeted
/// censor applied. A disabled plan and no censor target return the plain
/// factory object itself — the zero-drift guarantee is structural, not
/// behavioral.
WindowAdversaryFactory cell_window_factory(const CampaignConfig& config,
                                           const sim::FaultPlan& fp,
                                           const std::string& name, int t) {
  WindowAdversaryFactory f = window_adversary_factory(name, t);
  if (fp.enabled()) {
    f = [inner = std::move(f),
         fp](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<adversary::ChaosWindowAdversary>(inner(seed),
                                                               fp, seed);
    };
  }
  if (config.censor_target >= 0) {
    const sim::ProcId target = config.censor_target;
    f = [inner = std::move(f),
         target](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<adversary::TargetedCensorAdversary>(inner(seed),
                                                                  target);
    };
  }
  return f;
}

AsyncAdversaryFactory cell_async_factory(const CampaignConfig& config,
                                         const sim::FaultPlan& fp,
                                         const std::string& name, int t) {
  AsyncAdversaryFactory f = async_adversary_factory(name, t);
  if (fp.enabled()) {
    f = [inner = std::move(f),
         fp](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
      return std::make_unique<adversary::ChaosAsyncScheduler>(inner(seed), fp,
                                                              seed);
    };
  }
  if (config.censor_target >= 0) {
    const sim::ProcId target = config.censor_target;
    f = [inner = std::move(f),
         target](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
      return std::make_unique<adversary::StarvingAsyncScheduler>(
          inner(seed), target, kCampaignStarveBound);
    };
  }
  return f;
}

// ------------------------------------------------------------- JSON bits

void json_kv(std::string& out, const char* key, const std::string& value,
             bool last = false) {
  out += "  \"";
  out += key;
  out += "\": \"";
  out += value;
  out += last ? "\"\n" : "\",\n";
}

void json_kv_int(std::string& out, const char* key, long long value,
                 bool last = false) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%lld", value);
  out += "  \"";
  out += key;
  out += "\": ";
  out += buf;
  out += last ? "\n" : ",\n";
}

void json_kv_double(std::string& out, const char* key, double value,
                    bool last = false) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += "  \"";
  out += key;
  out += "\": ";
  out += buf;
  out += last ? "\n" : ",\n";
}

void json_report_fields(std::string& out, const MeasureOneReport& rep) {
  json_kv_int(out, "trials", rep.trials);
  json_kv_int(out, "agreement_violations", rep.agreement_violations);
  json_kv_int(out, "validity_violations", rep.validity_violations);
  json_kv_int(out, "decided_runs", rep.decided_runs);
  json_kv_int(out, "all_decided_runs", rep.all_decided_runs);
  json_kv_double(out, "mean_windows_to_first", rep.mean_windows_to_first);
  json_kv_double(out, "mean_chain_at_decision", rep.mean_chain_at_decision);
  out += "  \"violating_seeds\": [";
  for (std::size_t i = 0; i < rep.violating_seeds.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%" PRIu64, i ? "," : "",
                  rep.violating_seeds[i]);
    out += buf;
  }
  out += "]\n";
}

// ---------------------------------------------------------------- resume

/// Locate `"key":` in a JSON artifact and parse the integer after it.
/// Returns false on a missing key or malformed number — the caller treats
/// the artifact as invalid and recomputes the cell.
bool json_find_int(const std::string& text, const char* key, long long& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  const char* begin = text.c_str() + pos + needle.size();
  char* end = nullptr;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin) return false;
  out = v;
  return true;
}

/// Parse the `violating_seeds` array. Returns false if the array is absent
/// or the file is truncated before the closing bracket.
bool json_find_seeds(const std::string& text, std::vector<std::uint64_t>& out) {
  static constexpr const char kNeedle[] = "\"violating_seeds\": [";
  const std::size_t pos = text.find(kNeedle);
  if (pos == std::string::npos) return false;
  const char* p = text.c_str() + pos + (sizeof kNeedle - 1);
  out.clear();
  while (*p != ']') {
    if (*p == '\0') return false;  // truncated artifact
    if (*p == ',') ++p;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) return false;
    out.push_back(static_cast<std::uint64_t>(v));
    p = end;
  }
  return true;
}

/// Cursor over an artifact's bytes for the strict sidecar reader. Every
/// step consumes exactly what the writer emits at that point or marks the
/// text malformed; after the first mismatch nothing more is consumed.
class StrictReader {
 public:
  explicit StrictReader(const std::string& text) : text_(text) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return ok_ && pos_ == text_.size(); }

  /// Consume `lit` verbatim.
  void expect(std::string_view lit) {
    if (!accept(lit)) ok_ = false;
  }
  /// Consume `lit` if it comes next; reports whether it did.
  bool accept(std::string_view lit) {
    if (!ok_ || text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }
  [[nodiscard]] bool next_is(char c) const {
    return ok_ && pos_ < text_.size() && text_[pos_] == c;
  }
  /// Consume a number with std::from_chars (no whitespace, no '+'); the
  /// caller's canonical re-serialization rejects any other spelling.
  template <typename T>
  T number() {
    T v{};
    if (!ok_) return v;
    const char* begin = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(begin, text_.data() + text_.size(), v);
    if (ec != std::errc{}) {
      ok_ = false;
      return T{};
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Read latency_report_json's exact layout for an `n`-processor cell: the
/// identity header, n sender rows numbered 0..n−1 in order (every field,
/// both histograms at full width), both blamed_* lists, and the closing
/// "}\n". Returns false on any deviation.
bool read_latency_report(const std::string& text, int n,
                         lens::LatencyReport& rep) {
  StrictReader in(text);
  in.expect("{\n  \"n\": ");
  rep.n = in.number<int>();
  if (!in.ok() || rep.n != n) return false;
  in.expect(",\n  \"t\": ");
  rep.t = in.number<int>();
  in.expect(",\n  \"trials\": ");
  rep.trials = in.number<std::int64_t>();
  in.expect(",\n  \"deciders\": ");
  rep.deciders = in.number<std::int64_t>();
  in.expect(",\n  \"blame_threshold\": ");
  rep.blame_threshold = in.number<double>();
  in.expect(",\n  \"senders\": [\n");
  const auto hist = [&](std::span<std::int64_t> bins) {
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (b != 0) in.expect(", ");
      bins[b] = in.number<std::int64_t>();
    }
  };
  rep.senders.assign(static_cast<std::size_t>(n), lens::SenderLatency{});
  for (int s = 0; s < n && in.ok(); ++s) {
    lens::SenderLatency& row = rep.senders[static_cast<std::size_t>(s)];
    in.expect("    {\"sender\": ");
    if (in.number<int>() != s) return false;
    in.expect(", \"sent\": ");
    row.sent = in.number<std::int64_t>();
    in.expect(", \"equivocations\": ");
    row.equivocations = in.number<std::int64_t>();
    in.expect(", \"delivered\": ");
    row.delivered = in.number<std::int64_t>();
    in.expect(", \"suppressed\": ");
    row.suppressed = in.number<std::int64_t>();
    in.expect(", \"confirm_count\": ");
    row.confirm_count = in.number<std::int64_t>();
    in.expect(", \"mean_confirm_windows\": ");
    row.mean_confirm_windows = in.number<double>();
    in.expect(", \"mean_confirm_steps\": ");
    row.mean_confirm_steps = in.number<double>();
    in.expect(", \"delivered_share\": ");
    row.delivered_share = in.number<double>();
    in.expect(", \"confirmed_share\": ");
    row.confirmed_share = in.number<double>();
    in.expect(", \"censorship_score\": ");
    row.censorship_score = in.number<double>();
    in.expect(", \"delivery_hist\": [");
    hist(row.delivery_hist);
    in.expect("], \"confirm_hist\": [");
    hist(row.confirm_hist);
    in.expect(s + 1 != n ? "]},\n" : "]}\n");
  }
  const auto procs = [&](std::vector<sim::ProcId>& out) {
    out.clear();
    if (in.next_is(']')) return;
    do {
      out.push_back(in.number<sim::ProcId>());
    } while (in.ok() && in.accept(", "));
  };
  in.expect("  ],\n  \"blamed_equivocators\": [");
  procs(rep.blamed_equivocators);
  in.expect("],\n  \"blamed_censored\": [");
  procs(rep.blamed_censored);
  in.expect("]\n}\n");
  return in.at_end();
}

/// Validity check for a cell's lens sidecar. The lens report is not
/// resumable from its artifact (LatencyAccumulator has no restore), so
/// resume can only accept a cell whose sidecar is already complete and
/// belongs to THIS cell: the file must read back through
/// read_latency_report (the writer's exact shape, so a truncated, hollow
/// or reordered file fails), match the cell's (n, t) and the config's
/// trial count, and re-serialize to the same bytes. Anything else forces
/// a recompute, which rewrites the sidecar before the cell artifact.
bool lens_sidecar_valid(const CampaignConfig& config, const CampaignCell& cell,
                        const std::string& lens_path) {
  std::ifstream in(lens_path, std::ios::binary);
  if (!in.good()) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  lens::LatencyReport rep;
  if (!read_latency_report(text, cell.n, rep)) return false;
  return rep.t == cell.t &&
         rep.trials == static_cast<std::int64_t>(config.trials) &&
         latency_report_json(rep) == text;
}

/// Restore `cell` from an existing artifact at `path`. The artifact is
/// accepted iff it parses, claims exactly config.trials trials, and — after
/// rebuilding the accumulator from its exact integer tallies — the cell
/// re-serializes to the SAME bytes (this cross-checks every identity field
/// against the current config, so stale or foreign artifacts are rejected
/// and recomputed). With the lens armed (`lens_path` non-empty) the cell's
/// lens sidecar must additionally pass lens_sidecar_valid — a byte-perfect
/// cell artifact with a missing, truncated, or foreign sidecar is NOT
/// resumable, because the lens numbers cannot be rebuilt from the cell
/// tallies alone. On success the tallies land in `acc_out` (the cell's
/// slot in the end-of-sweep index-order summary merge), making the resumed
/// summary byte-identical to an uninterrupted run's.
bool try_resume_cell(const CampaignConfig& config, CampaignCell& cell,
                     const std::string& path, const std::string& lens_path,
                     MeasureOneAccumulator& acc_out) {
  if (!lens_path.empty() && !lens_sidecar_valid(config, cell, lens_path)) {
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  long long trials = 0;
  long long agreement = 0;
  long long validity = 0;
  long long decided = 0;
  long long all_decided = 0;
  long long metric_sum = 0;
  std::vector<std::uint64_t> seeds;
  if (!json_find_int(text, "trials", trials) ||
      !json_find_int(text, "agreement_violations", agreement) ||
      !json_find_int(text, "validity_violations", validity) ||
      !json_find_int(text, "decided_runs", decided) ||
      !json_find_int(text, "all_decided_runs", all_decided) ||
      !json_find_int(text, "metric_sum", metric_sum) ||
      !json_find_seeds(text, seeds)) {
    return false;
  }
  if (trials != static_cast<long long>(config.trials)) return false;

  MeasureOneAccumulator acc;
  acc.restore(trials, agreement, validity, decided, all_decided, metric_sum,
              seeds);
  cell.metric_sum = metric_sum;
  cell.report = acc.finalize(config.model == CampaignModel::kAsync);
  if (campaign_cell_json(config, cell) != text) {
    cell.report = MeasureOneReport{};
    cell.metric_sum = 0;
    return false;
  }
  acc_out = std::move(acc);
  cell.resumed = true;
  return true;
}

std::string cell_file_path(const CampaignConfig& config, int index) {
  namespace fs = std::filesystem;
  return (fs::path(config.output_dir) /
          (config.name + "_cell_" + std::to_string(index) + ".json"))
      .string();
}

std::string lens_file_path(const CampaignConfig& config, int index) {
  namespace fs = std::filesystem;
  return (fs::path(config.output_dir) /
          (config.name + "_cell_" + std::to_string(index) + "_lens.json"))
      .string();
}

}  // namespace

WindowAdversaryFactory window_adversary_factory(const std::string& name,
                                                int t) {
  AA_REQUIRE(name == "fair" || name == "silencer" || name == "split-keeper" ||
                 name == "reset-storm" || name == "random",
             "campaign: unknown window adversary '" + name +
                 "' (want fair|silencer|split-keeper|reset-storm|random)");
  return [name, t](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
    if (name == "fair") {
      return std::make_unique<adversary::FairWindowAdversary>();
    }
    if (name == "silencer") {
      std::vector<sim::ProcId> silenced;
      for (int i = 0; i < t; ++i) silenced.push_back(i);
      return std::make_unique<adversary::SilencerWindowAdversary>(silenced);
    }
    if (name == "split-keeper") {
      return std::make_unique<adversary::SplitKeeperAdversary>();
    }
    if (name == "reset-storm") {
      return std::make_unique<adversary::ResetStormAdversary>(
          t, Rng(seed * 7 + 1));
    }
    return std::make_unique<adversary::RandomWindowAdversary>(
        t, 0.1, Rng(seed * 9 + 2));
  };
}

AsyncAdversaryFactory async_adversary_factory(const std::string& name, int t) {
  AA_REQUIRE(name == "random-async" || name == "fixed-crash" ||
                 name == "async-split",
             "campaign: unknown async adversary '" + name +
                 "' (want random-async|fixed-crash|async-split)");
  return [name, t](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
    if (name == "random-async") {
      return std::make_unique<adversary::RandomAsyncScheduler>(
          Rng(seed * 3 + 1));
    }
    if (name == "fixed-crash") {
      std::vector<sim::ProcId> crash;
      for (int i = 0; i < t; ++i) crash.push_back(i);
      return std::make_unique<adversary::FixedCrashScheduler>(
          crash, Rng(seed * 5 + 3));
    }
    return std::make_unique<adversary::AsyncSplitKeeper>();
  };
}

long long parse_campaign_int(const std::string& value,
                             const std::string& where, long long lo,
                             long long hi) {
  std::size_t pos = 0;
  long long v = 0;
  bool ok = true;
  try {
    v = std::stoll(value, &pos);
  } catch (...) {
    ok = false;
  }
  AA_REQUIRE(ok && pos == value.size(),
             where + ": expected an integer, got '" + value + "'");
  AA_REQUIRE(v >= lo && v <= hi,
             where + ": " + value + " is out of range [" +
                 std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return v;
}

CampaignConfig parse_campaign_config(const std::string& text) {
  CampaignConfig cfg;
  std::stringstream ss(text);
  std::string raw;
  int line = 0;
  std::map<std::string, int> seen;  // key -> first line, for duplicate errors
  while (std::getline(ss, raw)) {
    ++line;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string stripped = trim(raw);
    if (stripped.empty()) continue;
    const std::size_t eq = stripped.find('=');
    AA_REQUIRE(eq != std::string::npos,
               "campaign config line " + std::to_string(line) +
                   ": expected 'key = value', got '" + stripped + "'");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    AA_REQUIRE(!key.empty() && !value.empty(),
               "campaign config line " + std::to_string(line) +
                   ": empty key or value");
    const auto [it, inserted] = seen.emplace(key, line);
    AA_REQUIRE(inserted, "campaign config line " + std::to_string(line) +
                             ": duplicate key '" + key + "' (first set on line " +
                             std::to_string(it->second) + ")");
    // Scalar integer keys: int-typed ones must fit in int, the int64 ones
    // (budget, seeds, timeout) in long long — never silently narrowed.
    const auto int_value = [&] {
      return parse_campaign_int(value, at_line(line));
    };
    const auto int64_value = [&] {
      return parse_campaign_int(value, at_line(line),
                                std::numeric_limits<long long>::min(),
                                std::numeric_limits<long long>::max());
    };

    if (key == "name") {
      cfg.name = value;
    } else if (key == "model") {
      if (value == "window") cfg.model = CampaignModel::kWindow;
      else if (value == "async") cfg.model = CampaignModel::kAsync;
      else
        AA_REQUIRE(false, "campaign config line " + std::to_string(line) +
                              ": model must be window or async");
    } else if (key == "n") {
      cfg.n = parse_int_list(value, line);
    } else if (key == "t") {
      cfg.t = parse_int_list(value, line);
    } else if (key == "protocols") {
      cfg.protocols = split_list(value);
    } else if (key == "thresholds") {
      cfg.thresholds = split_list(value);
    } else if (key == "memory_k") {
      cfg.memory_k = parse_int_list(value, line);
    } else if (key == "adversaries") {
      cfg.adversaries = split_list(value);
    } else if (key == "chaos_plan") {
      cfg.chaos_plan = split_list(value);
    } else if (key == "lens") {
      cfg.lens = parse_bool(value, line);
    } else if (key == "censor_target") {
      cfg.censor_target = static_cast<int>(int_value());
    } else if (key == "split") {
      cfg.split = parse_double(value, line);
    } else if (key == "trials") {
      cfg.trials = static_cast<int>(int_value());
    } else if (key == "budget") {
      cfg.budget = int64_value();
    } else if (key == "seed") {
      cfg.seed = static_cast<std::uint64_t>(int64_value());
    } else if (key == "threads") {
      cfg.threads = static_cast<int>(int_value());
    } else if (key == "chunk_size") {
      cfg.chunk_size = static_cast<int>(int_value());
    } else if (key == "output_dir") {
      cfg.output_dir = value;
    } else if (key == "audit") {
      cfg.audit = parse_bool(value, line);
    } else if (key == "audit_every") {
      cfg.audit_every = static_cast<int>(int_value());
    } else if (key == "resume") {
      cfg.resume = parse_bool(value, line);
    } else if (key == "cell_timeout_ms") {
      cfg.cell_timeout_ms = int64_value();
    } else if (key == "chaos_crash_prob") {
      cfg.chaos.crash_prob = parse_double(value, line);
    } else if (key == "chaos_crash_budget") {
      cfg.chaos.crash_budget = static_cast<int>(int_value());
    } else if (key == "chaos_reset_prob") {
      cfg.chaos.reset_prob = parse_double(value, line);
    } else if (key == "chaos_censor_prob") {
      cfg.chaos.censor_prob = parse_double(value, line);
    } else if (key == "chaos_censor_target") {
      cfg.chaos.censor_target = static_cast<sim::ProcId>(int_value());
    } else if (key == "chaos_duplicate_prob") {
      cfg.chaos.duplicate_row_prob = parse_double(value, line);
    } else if (key == "chaos_degenerate_prob") {
      cfg.chaos.degenerate_prob = parse_double(value, line);
    } else if (key == "chaos_seed") {
      cfg.chaos.chaos_seed = static_cast<std::uint64_t>(int64_value());
    } else {
      AA_REQUIRE(false, "campaign config line " + std::to_string(line) +
                            ": unknown key '" + key + "'");
    }
  }
  validate_campaign_config(cfg);
  return cfg;
}

void validate_campaign_config(const CampaignConfig& cfg) {
  AA_REQUIRE(cfg.trials > 0, "campaign config: trials must be positive");
  AA_REQUIRE(cfg.budget > 0, "campaign config: budget must be positive");
  AA_REQUIRE(cfg.cell_timeout_ms >= 0 &&
                 cfg.cell_timeout_ms <= kMaxCellTimeoutMs,
             "campaign config: cell_timeout_ms must be in [0, " +
                 std::to_string(kMaxCellTimeoutMs) + "]");
  AA_REQUIRE(cfg.audit_every >= 0,
             "campaign config: audit_every must be non-negative");
  AA_REQUIRE(cfg.chunk_size >= 1, "campaign config: chunk_size must be >= 1");
  AA_REQUIRE(cfg.threads >= 0,
             "campaign config: threads must be non-negative (0 = hardware)");
  AA_REQUIRE(!cfg.n.empty() && !cfg.t.empty() && !cfg.protocols.empty() &&
                 !cfg.adversaries.empty() && !cfg.thresholds.empty() &&
                 !cfg.memory_k.empty() && !cfg.chaos_plan.empty(),
             "campaign config: every sweep axis needs at least one value");
  for (const int n : cfg.n) {
    AA_REQUIRE(n >= 1, "campaign config: n must be >= 1 (got " +
                           std::to_string(n) + ")");
  }
  for (const int t : cfg.t) {
    AA_REQUIRE(t >= 0, "campaign config: t must be non-negative (got " +
                           std::to_string(t) + ")");
  }
  for (const int k : cfg.memory_k) {
    AA_REQUIRE(k >= 0, "campaign config: memory_k must be non-negative (got " +
                           std::to_string(k) + ")");
  }
  // Written so that NaN fails too.
  AA_REQUIRE(cfg.split >= 0.0 && cfg.split <= 1.0,
             "campaign config: split must be in [0, 1]");
  AA_REQUIRE(cfg.censor_target >= -1,
             "campaign config: censor_target must be >= -1 (-1 = off)");
  sim::validate_fault_plan(cfg.chaos);
  const bool default_plan =
      cfg.chaos_plan.size() == 1 && cfg.chaos_plan[0] == "none";
  AA_REQUIRE(default_plan || !cfg.chaos.enabled(),
             "campaign config: a chaos_plan axis and enabled chaos_* knobs "
             "are mutually exclusive (the presets would silently override "
             "the knobs)");
  for (const std::string& plan : cfg.chaos_plan) {
    // Rejects unknown preset names and validates each resolved plan.
    sim::validate_fault_plan(chaos_plan_preset(cfg, plan));
  }
  if (cfg.censor_target >= 0) {
    for (const int n : cfg.n) {
      AA_REQUIRE(cfg.censor_target < n,
                 "campaign config: censor_target must be < every swept n");
    }
  }
}

CampaignConfig load_campaign_config(const std::string& path) {
  std::ifstream in(path);
  AA_REQUIRE(in.good(), "campaign: cannot read config file '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_campaign_config(ss.str());
}

namespace {

using Clock = std::chrono::steady_clock;

/// The campaign's one clock read: per-cell deadlines and the timing
/// sidecar. Neither ever feeds a cell or summary artifact.
Clock::time_point now() {
  // aa-lint: clock-ok(per-cell deadlines and sidecar-only throughput)
  return std::chrono::steady_clock::now();
}

double elapsed_ms(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One enumerated sweep cell awaiting compute (or restored by resume):
/// the cell's coordinates and spec, its resolved chaos preset, its output
/// paths, and its private accumulator slot for the index-order summary
/// merge. Slots make the merge order a function of the config alone, so
/// the summary bytes do not depend on the order in which cells land.
struct CellWork {
  CampaignCell cell;
  Experiment spec;
  sim::FaultPlan chaos;
  std::string path;       ///< cell artifact ("" = not writing)
  std::string lens_path;  ///< lens artifact ("" = not writing or no lens)
  MeasureOneAccumulator acc;
  bool done = false;
  /// Throughput for the timing sidecar, from the cell's wall_ms.
  void set_wall_ms(double ms, int trials) {
    cell.wall_ms = ms;
    if (done && ms > 0.0) {
      cell.trials_per_s = static_cast<double>(trials) * 1000.0 / ms;
    }
  }
};

/// One pending cell's state for one compute round. The first of its
/// chunks to start builds the check, sizes the chunk tallies and starts
/// the clock; the last to finish lands the cell. Chunks share nothing
/// else: each writes only its own tally.
struct CellRound {
  std::once_flag started;
  std::unique_ptr<MeasureOneCheck> check;
  std::vector<TrialTally> parts;  ///< one per chunk, merged in chunk order
  Clock::time_point t0;
  std::atomic<bool> expired{false};
  std::atomic<int> finished{0};  ///< chunks done (run or skipped)
};

/// Land a cell whose last chunk just finished: merge its chunk tallies in
/// chunk order, release the round's check and tallies, then write the
/// lens sidecar and THEN the cell artifact (resume keys on the cell
/// artifact, so one on disk implies its sidecar landed too). An expired
/// round lands nothing: the cell stays pending.
void land_cell(const CampaignConfig& config, CellWork& w, CellRound& r) {
  TrialTally total;
  for (const TrialTally& p : r.parts) total.merge(p);
  r.check.reset();
  r.parts = std::vector<TrialTally>();  // frees the buffer; `= {}` keeps it
  if (!r.expired.load(std::memory_order_relaxed)) {
    w.cell.report = total.acc.finalize(config.model == CampaignModel::kAsync);
    // Persist the exact integer metric sum so --resume rebuilds the same
    // report (the mean is that sum's single exact division).
    w.cell.metric_sum = total.acc.metric_sum();
    w.acc = std::move(total.acc);
    if (config.lens) {
      w.cell.lens_report = total.lat.finalize(w.cell.t);
      if (!w.lens_path.empty()) {
        write_file_atomic(w.lens_path,
                          latency_report_json(w.cell.lens_report));
      }
    }
    if (!w.path.empty()) {
      write_file_atomic(w.path, campaign_cell_json(config, w.cell));
    }
    w.done = true;
  }
  w.set_wall_ms(elapsed_ms(r.t0, now()), config.trials);
}

/// The one campaign job: chunk `ci` of cell `w` in round `r`. The deadline
/// is checked when the chunk starts — a chunk that starts in time runs to
/// its end, one that starts late is skipped and expires the round.
void run_cell_chunk(const CampaignConfig& config, CampaignContext& ctx,
                    CellWork& w, CellRound& r, int ci, int chunks,
                    std::chrono::milliseconds timeout) {
  std::call_once(r.started, [&] {
    r.t0 = now();
    if (config.model == CampaignModel::kWindow) {
      r.check = std::make_unique<MeasureOneCheck>(
          w.spec,
          cell_window_factory(config, w.chaos, w.cell.adversary, w.cell.t),
          w.cell.seed0, config.lens);
    } else {
      r.check = std::make_unique<MeasureOneCheck>(
          w.spec,
          cell_async_factory(config, w.chaos, w.cell.adversary, w.cell.t),
          w.cell.seed0, config.lens);
    }
    r.parts.resize(static_cast<std::size_t>(chunks));
  });
  if (timeout.count() > 0 && !r.expired.load(std::memory_order_relaxed) &&
      now() - r.t0 > timeout) {
    r.expired.store(true, std::memory_order_relaxed);
  }
  if (!r.expired.load(std::memory_order_relaxed)) {
    const ChunkRange range = chunk_range(ci, config.trials, ctx.parallel());
    r.check->run_trials(range.begin, range.end, ctx.worker_scratch(),
                        r.parts[static_cast<std::size_t>(ci)]);
  }
  // acq_rel: the last chunk sees every other chunk's tally and expiry.
  if (r.finished.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
    land_cell(config, w, r);
  }
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config,
                            CampaignContext& ctx) {
  namespace fs = std::filesystem;
  // Programmatic configs never pass through the parser.
  validate_campaign_config(config);
  CampaignResult result;
  result.config = config;

  const bool writing = !config.output_dir.empty();

  // Phase 1 — enumerate the sweep serially into canonical-order slots:
  // outermost n, innermost chaos_plan. The per-cell seed block
  // [seed + index*trials, ...) depends only on the config, so cell
  // identities — and every report — are thread-count-independent. Each
  // (n, t, protocol, thresholds, memory_k) combination builds its
  // processes once here, so a combination the protocol rejects fails
  // with its coordinates before output_dir is touched.
  std::vector<CellWork> work;
  int index = 0;
  for (const int n : config.n) {
    for (const int t : config.t) {
      for (const std::string& proto : config.protocols) {
        const protocols::ProtocolKind kind = protocol_kind(proto);
        for (const std::string& th_name : config.thresholds) {
          // memory_k is Forgetful's knob; other protocols run one cell.
          const std::size_t k_count =
              kind == protocols::ProtocolKind::Forgetful
                  ? config.memory_k.size()
                  : 1;
          for (std::size_t ki = 0; ki < k_count; ++ki) {
            const int memory_k = config.memory_k[ki];
            Experiment spec;
            try {
              spec.kind = kind;
              spec.inputs = protocols::split_inputs(n, config.split);
              spec.t = t;
              spec.budget = config.budget;
              spec.thresholds = threshold_preset(th_name, n, t);
              spec.memory_k = memory_k;
              spec.audit = config.audit;
              spec.audit_every = config.audit_every;
              (void)protocols::make_processes(kind, t, spec.inputs,
                                              spec.thresholds, memory_k);
            } catch (const std::invalid_argument& e) {
              throw std::invalid_argument(
                  "campaign: cannot build cell (n=" + std::to_string(n) +
                  ", t=" + std::to_string(t) + ", protocol=" + proto +
                  ", thresholds=" + th_name +
                  ", memory_k=" + std::to_string(memory_k) + "): " +
                  e.what());
            }
            for (const std::string& adv : config.adversaries) {
              for (const std::string& plan_name : config.chaos_plan) {
                CellWork w;
                w.cell.index = index;
                w.cell.n = n;
                w.cell.t = t;
                w.cell.protocol = proto;
                w.cell.thresholds = th_name;
                w.cell.memory_k = memory_k;
                w.cell.adversary = adv;
                w.cell.chaos_plan = plan_name;
                w.cell.seed0 =
                    config.seed + static_cast<std::uint64_t>(index) *
                                      static_cast<std::uint64_t>(
                                          config.trials);

                w.spec = spec;
                w.chaos = chaos_plan_preset(config, plan_name);
                if (writing) {
                  w.path = cell_file_path(config, index);
                  if (config.lens) w.lens_path = lens_file_path(config, index);
                }
                work.push_back(std::move(w));
                ++index;
              }
            }
          }
        }
      }
    }
  }

  if (writing) fs::create_directories(config.output_dir);

  // Phase 2 — serial resume: restore whole cells from validated artifacts
  // into their slots before any compute is scheduled.
  if (config.resume && writing) {
    for (CellWork& w : work) {
      const Clock::time_point t0 = now();
      w.done = try_resume_cell(config, w.cell, w.path, w.lens_path, w.acc);
      if (w.done) w.set_wall_ms(elapsed_ms(t0, now()), config.trials);
    }
  }

  // Phase 3 — compute the pending cells. Every (cell, chunk) pair is one
  // job of ONE job list, cell-major, so a sweep of many small cells keeps
  // the pool as busy as a sweep of a few large ones. Without a pool the
  // jobs run inline in list order: cell by cell, each landing right after
  // its last chunk. With cell_timeout_ms set, the cells that expired are
  // recomputed in a second round at twice the timeout (validation bounds
  // it, so the doubling cannot overflow) and fail if that expires too.
  const int chunks = chunk_count(config.trials, ctx.parallel());
  ParallelConfig jobs = ctx.parallel();
  jobs.chunk_size = 1;
  const int rounds = config.cell_timeout_ms > 0 ? 2 : 1;
  for (int round = 0; round < rounds; ++round) {
    std::vector<CellWork*> pending;
    for (CellWork& w : work) {
      if (!w.done) pending.push_back(&w);
    }
    if (pending.empty()) break;
    const std::chrono::milliseconds timeout(config.cell_timeout_ms *
                                            (round + 1));
    std::vector<CellRound> state(pending.size());
    parallel_for_chunks(
        static_cast<std::int64_t>(pending.size()) * chunks, jobs,
        [&](int job, std::int64_t, std::int64_t) {
          const auto c = static_cast<std::size_t>(job / chunks);
          run_cell_chunk(config, ctx, *pending[c], state[c], job % chunks,
                         chunks, timeout);
        },
        ctx.pool());
  }

  // Phase 4 — merge the summary in canonical index order (the accumulator
  // is exactly associative, but fixing the order anyway keeps every
  // schedule byte-identical by construction). Failed cells are excluded.
  MeasureOneAccumulator summary;
  for (CellWork& w : work) {
    w.cell.failed = !w.done;
    if (w.done) summary.merge(w.acc);
    result.cells.push_back(std::move(w.cell));
  }
  result.summary =
      summary.finalize(config.model == CampaignModel::kAsync);
  if (writing) {
    write_file_atomic((fs::path(config.output_dir) /
                       (config.name + "_summary.json"))
                          .string(),
                      campaign_summary_json(result));
    write_file_atomic((fs::path(config.output_dir) /
                       (config.name + "_timing.json"))
                          .string(),
                      campaign_timing_json(result));
  }
  return result;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  ParallelConfig par;
  par.threads = config.threads;
  par.chunk_size = config.chunk_size;
  CampaignContext ctx(par);
  return run_campaign(config, ctx);
}

std::string campaign_cell_json(const CampaignConfig& config,
                               const CampaignCell& cell) {
  std::string out = "{\n";
  json_kv(out, "campaign", config.name);
  json_kv(out, "model",
          config.model == CampaignModel::kWindow ? "window" : "async");
  json_kv_int(out, "cell", cell.index);
  json_kv_int(out, "n", cell.n);
  json_kv_int(out, "t", cell.t);
  json_kv(out, "protocol", cell.protocol);
  json_kv(out, "thresholds", cell.thresholds);
  json_kv_int(out, "memory_k", cell.memory_k);
  json_kv(out, "adversary", cell.adversary);
  // Lens-era axes appear ONLY when non-default, so pre-axis configs keep
  // byte-identical artifacts (and resume's re-serialization check keeps
  // accepting them).
  if (cell.chaos_plan != "none") json_kv(out, "chaos_plan", cell.chaos_plan);
  if (config.censor_target >= 0) {
    json_kv_int(out, "censor_target", config.censor_target);
  }
  json_kv_int(out, "seed0", static_cast<long long>(cell.seed0));
  json_kv_int(out, "budget", config.budget);
  json_kv_int(out, "metric_sum", cell.metric_sum);
  json_report_fields(out, cell.report);
  out += "}\n";
  return out;
}

std::string campaign_summary_json(const CampaignResult& result) {
  const CampaignConfig& config = result.config;
  std::string out = "{\n";
  json_kv(out, "campaign", config.name);
  json_kv(out, "model",
          config.model == CampaignModel::kWindow ? "window" : "async");
  json_kv_int(out, "cells", static_cast<long long>(result.cells.size()));
  json_kv_int(out, "trials_per_cell", config.trials);
  json_kv_int(out, "budget", config.budget);
  json_kv_int(out, "seed", static_cast<long long>(config.seed));
  out += "  \"cells_failed\": [";
  bool first = true;
  for (const CampaignCell& cell : result.cells) {
    if (!cell.failed) continue;
    if (!first) out += ",";
    out += std::to_string(cell.index);
    first = false;
  }
  out += "],\n";
  json_report_fields(out, result.summary);
  out += "}\n";
  return out;
}

std::string campaign_timing_json(const CampaignResult& result) {
  // Deliberately a SEPARATE document from the summary/cell artifacts:
  // wall-clock differs run to run and thread count to thread count, and
  // folding it into the identity surface would break the byte-identical
  // contract (threads 1 vs N diffs, resume's canonical re-serialization
  // check). CI diffs exclude *_timing.json for the same reason.
  const CampaignConfig& config = result.config;
  std::string out = "{\n";
  json_kv(out, "campaign", config.name);
  json_kv_int(out, "trials_per_cell", config.trials);
  double total_ms = 0.0;
  for (const CampaignCell& cell : result.cells) total_ms += cell.wall_ms;
  json_kv_double(out, "wall_ms_total", total_ms);
  out += "  \"cells\": [";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CampaignCell& cell = result.cells[i];
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"cell\": %d, \"wall_ms\": %.3f, "
                  "\"trials_per_s\": %.1f, \"resumed\": %s, \"failed\": %s}",
                  i ? "," : "", cell.index, cell.wall_ms, cell.trials_per_s,
                  cell.resumed ? "true" : "false",
                  cell.failed ? "true" : "false");
    out += buf;
  }
  out += result.cells.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void write_file_atomic(const std::string& path, const std::string& body) {
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  bool ok = false;
  {
    // aa-lint: write-ok(the atomic-write primitive itself)
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out.good()) {
      out << body;
      out.flush();
      ok = out.good();
    }
  }
  if (ok) {
    std::error_code ec;
    fs::rename(tmp, path, ec);
    ok = !ec;
  }
  if (!ok) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    AA_REQUIRE(false, "write_file_atomic: cannot write " + path);
  }
}

}  // namespace aa::core
