#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "adversary/async_adversaries.hpp"
#include "adversary/censor.hpp"
#include "adversary/chaos.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/json_io.hpp"
#include "lens/accountability.hpp"
#include "util/annotations.hpp"
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

/// `where` argument of parse_campaign_int for config line `line`.
std::string at_line(int line) {
  return "campaign config line " + std::to_string(line);
}

/// The comma-separated items of a list value, trimmed. An empty item (a
/// stray, leading or trailing comma) is an error, not silently skipped.
std::vector<std::string> split_list(const std::string& value, int line) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = value.find(',', begin);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    out.push_back(trim(value.substr(begin, end - begin)));
    AA_REQUIRE(!out.back().empty(),
               at_line(line) + ": empty item in list '" + value + "'");
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
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
  for (const std::string& item : split_list(value, line)) {
    out.push_back(static_cast<int>(parse_campaign_int(item, at_line(line))));
  }
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

// ------------------------------------------------------------- layouts

const char* model_name(CampaignModel model) {
  return model == CampaignModel::kWindow ? "window" : "async";
}

/// The report fields every cell artifact and the summary end with. The
/// seed list is the document's last line and has no spaces.
template <class Io, class Report>
void report_fields(Io& io, Report& rep) {
  io.field("trials", rep.trials);
  io.field("agreement_violations", rep.agreement_violations);
  io.field("validity_violations", rep.validity_violations);
  io.field("decided_runs", rep.decided_runs);
  io.field("all_decided_runs", rep.all_decided_runs);
  io.field("mean_windows_to_first", rep.mean_windows_to_first);
  io.field("mean_chain_at_decision", rep.mean_chain_at_decision);
  io.key("violating_seeds");
  io.list(rep.violating_seeds, ",");
  io.lit("\n");
}

/// The cell artifact's one layout (see core/json_io.hpp): the identity
/// fields come from the config and `cell`'s coordinates, the data from
/// `metric_sum` and `rep`. The lens-era axes appear ONLY when non-default,
/// so pre-axis configs keep byte-identical artifacts. seed0 prints signed,
/// as it always has.
template <class Io, class MetricSum, class Report>
void cell_layout(Io& io, const CampaignConfig& config, const CampaignCell& cell,
                 MetricSum& metric_sum, Report& rep) {
  io.lit("{\n");
  io.fixed_field("campaign", config.name);
  io.fixed_field("model", model_name(config.model));
  io.fixed_field("cell", cell.index);
  io.fixed_field("n", cell.n);
  io.fixed_field("t", cell.t);
  io.fixed_field("protocol", cell.protocol);
  io.fixed_field("thresholds", cell.thresholds);
  io.fixed_field("memory_k", cell.memory_k);
  io.fixed_field("adversary", cell.adversary);
  if (cell.chaos_plan != "none") io.fixed_field("chaos_plan", cell.chaos_plan);
  if (config.censor_target >= 0) {
    io.fixed_field("censor_target", config.censor_target);
  }
  io.fixed_field("seed0", static_cast<long long>(cell.seed0));
  io.fixed_field("budget", config.budget);
  io.field("metric_sum", metric_sum);
  report_fields(io, rep);
  io.lit("}\n");
}

// ---------------------------------------------------------------- resume

bool read_text(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  text = ss.str();
  return true;
}

/// Restore `cell` from its existing artifacts. The cell artifact must read
/// back through cell_layout, whose identity fields pin it to THIS cell of
/// THIS config, claim exactly config.trials trials, and — after the
/// accumulator is rebuilt from its exact integer tallies — re-serialize to
/// the same bytes. With the lens armed (`lens_path` non-empty) the lens
/// sidecar must likewise read back for this cell's (n, t) and trial count
/// and re-serialize to the same bytes: the lens numbers cannot be rebuilt
/// from the cell tallies, so a byte-perfect cell artifact with a missing,
/// truncated or foreign sidecar is NOT resumable. Anything else forces a
/// recompute, which rewrites the sidecar before the cell artifact. On
/// success the tallies land in `acc_out` (the cell's slot in the
/// end-of-sweep index-order summary merge), making the resumed summary
/// byte-identical to an uninterrupted run's.
bool try_resume_cell(const CampaignConfig& config, CampaignCell& cell,
                     const std::string& path, const std::string& lens_path,
                     MeasureOneAccumulator& acc_out) {
  std::string text;
  lens::LatencyReport lens_report;
  if (!lens_path.empty() &&
      !(read_text(lens_path, text) &&
        latency_report_from_json(text, cell.n, cell.t, config.trials,
                                 lens_report) &&
        latency_report_json(lens_report) == text)) {
    return false;
  }
  if (!read_text(path, text)) return false;
  std::int64_t metric_sum = 0;
  MeasureOneReport read;
  JsonIn in(text);
  cell_layout(in, config, cell, metric_sum, read);
  if (!in.done() || read.trials != config.trials) return false;

  MeasureOneAccumulator acc;
  acc.restore(read.trials, read.agreement_violations, read.validity_violations,
              read.decided_runs, read.all_decided_runs, metric_sum,
              read.violating_seeds);
  const MeasureOneReport report =
      acc.finalize(config.model == CampaignModel::kAsync);
  JsonOut canonical;
  cell_layout(canonical, config, cell, metric_sum, report);
  if (canonical.take() != text) return false;
  cell.metric_sum = metric_sum;
  cell.report = report;
  cell.lens_report = std::move(lens_report);
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
      cfg.protocols = split_list(value, line);
    } else if (key == "thresholds") {
      cfg.thresholds = split_list(value, line);
    } else if (key == "memory_k") {
      cfg.memory_k = parse_int_list(value, line);
    } else if (key == "adversaries") {
      cfg.adversaries = split_list(value, line);
    } else if (key == "chaos_plan") {
      cfg.chaos_plan = split_list(value, line);
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
  // The name reaches file names and JSON strings verbatim: no separators,
  // quotes or escapes.
  const auto name_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
           c == '_' || c == '-';
  };
  const bool name_ok = !cfg.name.empty() &&
                       std::all_of(cfg.name.begin(), cfg.name.end(), name_char);
  AA_REQUIRE(name_ok, "campaign config: name must match [A-Za-z0-9._-]+ (got '" +
                          cfg.name + "')");
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
    AA_REQUIRE(n <= kMaxCampaignN,
               "campaign config: n = " + std::to_string(n) +
                   " exceeds the limit of " + std::to_string(kMaxCampaignN) +
                   " processors");
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
  try {
    sim::validate_fault_plan(cfg.chaos);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("campaign config: chaos_* keys: ") +
                                e.what());
  }
  const bool default_plan =
      cfg.chaos_plan.size() == 1 && cfg.chaos_plan[0] == "none";
  AA_REQUIRE(default_plan || !cfg.chaos.enabled(),
             "campaign config: a chaos_plan axis and enabled chaos_* knobs "
             "are mutually exclusive (the presets would silently override "
             "the knobs)");
  for (const std::string& plan : cfg.chaos_plan) {
    // Rejects unknown preset names and validates each resolved plan.
    const sim::FaultPlan fp = chaos_plan_preset(cfg, plan);
    sim::validate_fault_plan(fp);
    // A target outside the ring would silently censor nobody.
    if (fp.censor_prob > 0.0) {
      for (const int n : cfg.n) {
        AA_REQUIRE(fp.censor_target < n,
                   "campaign config: chaos_censor_target must be < every "
                   "swept n (chaos_plan " + plan + ")");
      }
    }
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

/// The campaign's one artifact writer: a thread that writes the landed
/// cells' documents through write_file_atomic, one at a time and in
/// landing order, so the next cells compute while files are created. A
/// queue entry names a landed cell and which of its documents to write;
/// the writer serialises that document just before writing it. The cell
/// stays untouched in its slot until finish() returns, so the queue costs
/// a few words per document and grows without bound instead of making a
/// landing chunk wait. The first failed write is kept and every later
/// document skipped; submit() and finish() rethrow that error.
class ArtifactWriter {
 public:
  enum class Doc { kLensSidecar, kCell };

  explicit ArtifactWriter(const CampaignConfig& config) : config_(config) {
    thread_ = std::thread([this] { drain(); });
  }
  ArtifactWriter(const ArtifactWriter&) = delete;
  ArtifactWriter& operator=(const ArtifactWriter&) = delete;
  /// The unwinding path: write what is queued, join, never throw.
  ~ArtifactWriter() { close(); }

  /// Queue landed cell `w`'s `doc`. `w` must not change until finish().
  void submit(const CellWork& w, Doc doc) {
    MutexLock lock(mu_);
    if (error_) std::rethrow_exception(error_);
    queue_.push_back({&w, doc});
    not_empty_.notify_one();
  }

  /// Returns once the last submitted document is renamed into place;
  /// throws the first write error instead if there was one.
  void finish() {
    close();
    MutexLock lock(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  struct Entry {
    const CellWork* w;
    Doc doc;
  };

  void close() {
    {
      MutexLock lock(mu_);
      closing_ = true;
    }
    not_empty_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  void drain() {
    for (;;) {
      Entry e{};
      {
        MutexLock lock(mu_);
        while (queue_.empty() && !closing_) not_empty_.wait(lock);
        if (queue_.empty()) return;
        e = queue_.front();
        queue_.pop_front();
        if (error_) continue;
      }
      try {
        if (e.doc == Doc::kLensSidecar) {
          write_file_atomic(e.w->lens_path,
                            latency_report_json(e.w->cell.lens_report));
        } else {
          write_file_atomic(e.w->path, campaign_cell_json(config_, e.w->cell));
        }
      } catch (...) {
        MutexLock lock(mu_);
        error_ = std::current_exception();
      }
    }
  }

  const CampaignConfig& config_;
  Mutex mu_;
  CondVar not_empty_;  ///< the writer waits for an entry or close()
  std::deque<Entry> queue_ AA_GUARDED_BY(mu_);
  bool closing_ AA_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ AA_GUARDED_BY(mu_);
  std::thread thread_;
};

/// Land a cell whose last chunk just finished: merge its chunk tallies in
/// chunk order, release the round's check and tallies, then hand the
/// writer the lens sidecar and THEN the cell artifact (resume keys on the
/// cell artifact, and the writer keeps submission order, so one on disk
/// implies its sidecar landed too). An expired round lands nothing: the
/// cell stays pending. wall_ms stops before the writes.
void land_cell(const CampaignConfig& config, ArtifactWriter* writer,
               CellWork& w, CellRound& r) {
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
    if (config.lens) w.cell.lens_report = total.lat.finalize(w.cell.t);
    w.done = true;
  }
  w.cell.windows = total.windows;
  w.cell.settled = total.settled;
  w.set_wall_ms(elapsed_ms(r.t0, now()), config.trials);
  if (w.done && writer != nullptr) {
    if (config.lens) writer->submit(w, ArtifactWriter::Doc::kLensSidecar);
    writer->submit(w, ArtifactWriter::Doc::kCell);
  }
}

/// The one campaign job: chunk `ci` of cell `w` in round `r`. The deadline
/// is checked when the chunk starts — a chunk that starts in time runs to
/// its end, one that starts late is skipped and expires the round.
void run_cell_chunk(const CampaignConfig& config, CampaignContext& ctx,
                    ArtifactWriter* writer, CellWork& w, CellRound& r,
                    int ci, int chunks, std::chrono::milliseconds timeout) {
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
    land_cell(config, writer, w, r);
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
  // With output_dir set, the cells' artifacts go through one background
  // writer (ArtifactWriter), which reads each landed cell in `work` when
  // it writes it. `work` is declared before `writer`, so on the unwinding
  // path the writer's destructor finishes the queue while `work` lives.
  std::unique_ptr<ArtifactWriter> writer;
  if (writing) writer = std::make_unique<ArtifactWriter>(config);
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
          run_cell_chunk(config, ctx, writer.get(), *pending[c], state[c],
                         job % chunks, chunks, timeout);
        },
        ctx.pool());
  }

  // The cells move out of `work` below, so the writer finishes first.
  if (writer) writer->finish();

  // Phase 4 — merge the summary in canonical index order (the accumulator
  // is exactly associative, but fixing the order anyway keeps every
  // schedule byte-identical by construction). Failed cells are excluded.
  // The summary and the timing sidecar are written last, after every cell.
  MeasureOneAccumulator summary;
  for (CellWork& w : work) {
    w.cell.failed = !w.done;
    if (w.done) summary.merge(w.acc);
    result.cells.push_back(std::move(w.cell));
  }
  result.summary =
      summary.finalize(config.model == CampaignModel::kAsync);
  if (writing) {
    const fs::path dir(config.output_dir);
    write_file_atomic((dir / (config.name + "_summary.json")).string(),
                      campaign_summary_json(result));
    write_file_atomic((dir / (config.name + "_timing.json")).string(),
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
  JsonOut out;
  cell_layout(out, config, cell, cell.metric_sum, cell.report);
  return out.take();
}

std::string campaign_summary_json(const CampaignResult& result) {
  const CampaignConfig& config = result.config;
  std::vector<int> failed;
  for (const CampaignCell& cell : result.cells) {
    if (cell.failed) failed.push_back(cell.index);
  }
  JsonOut out;
  out.lit("{\n");
  out.fixed_field("campaign", config.name);
  out.fixed_field("model", model_name(config.model));
  out.fixed_field("cells", result.cells.size());
  out.fixed_field("trials_per_cell", config.trials);
  out.fixed_field("budget", config.budget);
  out.fixed_field("seed", static_cast<long long>(config.seed));
  out.list_field("cells_failed", failed, ",");
  report_fields(out, result.summary);
  out.lit("}\n");
  return out.take();
}

std::string campaign_timing_json(const CampaignResult& result) {
  // Deliberately a SEPARATE document from the summary/cell artifacts:
  // wall-clock differs run to run and thread count to thread count, and
  // folding it into the identity surface would break the byte-identical
  // contract (threads 1 vs N diffs, resume's canonical re-serialization
  // check). CI diffs exclude *_timing.json for the same reason.
  const CampaignConfig& config = result.config;
  double total_ms = 0.0;
  for (const CampaignCell& cell : result.cells) total_ms += cell.wall_ms;
  JsonOut out;
  out.lit("{\n");
  out.fixed_field("campaign", config.name);
  out.fixed_field("trials_per_cell", config.trials);
  out.fixed_field("wall_ms_total", total_ms);
  out.key("cells");
  out.lit("[");
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CampaignCell& cell = result.cells[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"cell\": %d, \"wall_ms\": %.3f, "
                  "\"trials_per_s\": %.1f, \"windows\": %lld, "
                  "\"settled\": %lld, \"resumed\": %s, \"failed\": %s}",
                  i ? "," : "", cell.index, cell.wall_ms, cell.trials_per_s,
                  static_cast<long long>(cell.windows),
                  static_cast<long long>(cell.settled),
                  cell.resumed ? "true" : "false",
                  cell.failed ? "true" : "false");
    out.lit(buf);
  }
  out.lit(result.cells.empty() ? "]\n" : "\n  ]\n");
  out.lit("}\n");
  return out.take();
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
      // close() flushes; a failed flush or close leaves a short file,
      // which must not be renamed into place.
      out.close();
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
