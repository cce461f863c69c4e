#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/window_adversaries.hpp"
#include "core/campaign.hpp"
#include "core/checker.hpp"
#include "protocols/factory.hpp"
#include "util/rng.hpp"

namespace aa::core {
namespace {

// ---- config parsing --------------------------------------------------------

TEST(CampaignConfig, ParsesEveryKeyWithCommentsAndLists) {
  const std::string text = R"(# a comment line
name = sweep1
model = async   # trailing comment

n = 8, 12, 16
t = 1,2
protocols = reset, forgetful
thresholds = default, canonical
memory_k = 0, 4
adversaries = random-async, fixed-crash

split = 0.25
trials = 10
budget = 1234
seed = 99

threads = 4
chunk_size = 8
output_dir = out/sweep1
)";
  const CampaignConfig cfg = parse_campaign_config(text);
  EXPECT_EQ(cfg.name, "sweep1");
  EXPECT_EQ(cfg.model, CampaignModel::kAsync);
  EXPECT_EQ(cfg.n, (std::vector<int>{8, 12, 16}));
  EXPECT_EQ(cfg.t, (std::vector<int>{1, 2}));
  EXPECT_EQ(cfg.protocols, (std::vector<std::string>{"reset", "forgetful"}));
  EXPECT_EQ(cfg.thresholds,
            (std::vector<std::string>{"default", "canonical"}));
  EXPECT_EQ(cfg.memory_k, (std::vector<int>{0, 4}));
  EXPECT_EQ(cfg.adversaries,
            (std::vector<std::string>{"random-async", "fixed-crash"}));
  EXPECT_DOUBLE_EQ(cfg.split, 0.25);
  EXPECT_EQ(cfg.trials, 10);
  EXPECT_EQ(cfg.budget, 1234);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.threads, 4);
  EXPECT_EQ(cfg.chunk_size, 8);
  EXPECT_EQ(cfg.output_dir, "out/sweep1");
}

TEST(CampaignConfig, EmptyTextYieldsDefaults) {
  const CampaignConfig cfg = parse_campaign_config("");
  const CampaignConfig def;
  EXPECT_EQ(cfg.name, def.name);
  EXPECT_EQ(cfg.model, CampaignModel::kWindow);
  EXPECT_EQ(cfg.n, def.n);
  EXPECT_EQ(cfg.trials, def.trials);
}

TEST(CampaignConfig, ParsesRobustnessKeys) {
  const std::string text = R"(audit = true
audit_every = 16
resume = true
cell_timeout_ms = 250
chaos_crash_prob = 0.5
chaos_crash_budget = 2
chaos_reset_prob = 0.25
chaos_censor_prob = 1
chaos_censor_target = 3
chaos_duplicate_prob = 0.125
chaos_degenerate_prob = 0.0625
chaos_seed = 77
)";
  const CampaignConfig cfg = parse_campaign_config(text);
  EXPECT_TRUE(cfg.audit);
  EXPECT_EQ(cfg.audit_every, 16);
  EXPECT_TRUE(cfg.resume);
  EXPECT_EQ(cfg.cell_timeout_ms, 250);
  EXPECT_DOUBLE_EQ(cfg.chaos.crash_prob, 0.5);
  EXPECT_EQ(cfg.chaos.crash_budget, 2);
  EXPECT_DOUBLE_EQ(cfg.chaos.reset_prob, 0.25);
  EXPECT_DOUBLE_EQ(cfg.chaos.censor_prob, 1.0);
  EXPECT_EQ(cfg.chaos.censor_target, 3);
  EXPECT_DOUBLE_EQ(cfg.chaos.duplicate_row_prob, 0.125);
  EXPECT_DOUBLE_EQ(cfg.chaos.degenerate_prob, 0.0625);
  EXPECT_EQ(cfg.chaos.chaos_seed, 77u);
  EXPECT_TRUE(cfg.chaos.enabled());
  // Robustness knobs are all off by default — chaos never rides along
  // uninvited.
  const CampaignConfig def = parse_campaign_config("");
  EXPECT_FALSE(def.audit);
  EXPECT_EQ(def.audit_every, 0);
  EXPECT_FALSE(def.resume);
  EXPECT_EQ(def.cell_timeout_ms, 0);
  EXPECT_FALSE(def.chaos.enabled());
}

TEST(CampaignConfig, RejectsDuplicateKeysWithLineNumbers) {
  try {
    (void)parse_campaign_config("trials = 4\ntrials = 8\n");
    FAIL() << "duplicate key accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trials"), std::string::npos) << msg;
  }
  // Comments and blank lines don't count as key occurrences.
  EXPECT_NO_THROW((void)parse_campaign_config("# trials = 4\n\ntrials = 8\n"));
}

TEST(CampaignConfig, RejectsEmptyListItemsWithLineNumbers) {
  // An empty item (stray, leading or trailing comma) is an error naming
  // its line, for every list key.
  for (const char* bad :
       {"n = 8,", "n = ,8", "n = 8,,12", "t = 1, ,2", "protocols = reset,,benor",
        "thresholds = default,", "memory_k = ,0", "adversaries = fair,",
        "chaos_plan = none,"}) {
    try {
      (void)parse_campaign_config(std::string("# header\n") + bad + "\n");
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("empty item"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(parse_campaign_config("protocols = reset , benor").protocols,
            (std::vector<std::string>{"reset", "benor"}));
}

TEST(CampaignConfig, RejectsNAboveTheLimit) {
  // An n above the limit is refused before any cell runs, naming n and
  // the limit.
  try {
    (void)parse_campaign_config("n = 100000\nbudget = 1\n");
    ADD_FAILURE() << "n = 100000 accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("n = 100000"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(kMaxCampaignN)), std::string::npos)
        << msg;
  }
  EXPECT_THROW(parse_campaign_config(
                   "n = 8, " + std::to_string(kMaxCampaignN + 1)),
               std::invalid_argument);
  EXPECT_NO_THROW(
      parse_campaign_config("n = " + std::to_string(kMaxCampaignN)));
  // The largest n the repository runs fits.
  EXPECT_GE(kMaxCampaignN, 512);
  CampaignConfig edited = parse_campaign_config("n = 8");
  edited.n = {kMaxCampaignN + 1};
  EXPECT_THROW(validate_campaign_config(edited), std::invalid_argument);
}

TEST(CampaignConfig, RejectsMalformedInput) {
  EXPECT_THROW(parse_campaign_config("frobnicate = 3"),
               std::invalid_argument);  // unknown key
  EXPECT_THROW(parse_campaign_config("model = turbo"),
               std::invalid_argument);  // unknown model
  EXPECT_THROW(parse_campaign_config("trials = many"),
               std::invalid_argument);  // non-integer
  EXPECT_THROW(parse_campaign_config("n ="), std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("just some words"),
               std::invalid_argument);  // no '='
  EXPECT_THROW(parse_campaign_config("chaos_crash_prob = 1.5"),
               std::invalid_argument);  // probability out of [0, 1]
  EXPECT_THROW(parse_campaign_config("audit = maybe"),
               std::invalid_argument);  // non-boolean
  EXPECT_THROW(parse_campaign_config("cell_timeout_ms = -5"),
               std::invalid_argument);  // negative timeout
  // Timeouts whose doubled deadline would overflow int64 nanoseconds.
  EXPECT_THROW(parse_campaign_config("cell_timeout_ms = 9223372036854775807"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("cell_timeout_ms = 1000000000001"),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_campaign_config("cell_timeout_ms = 1000000000000"));
  EXPECT_THROW(parse_campaign_config("audit_every = -3"),
               std::invalid_argument);  // negative sampling period
  // Integers must fit their field: no silent wrap through int.
  EXPECT_THROW(parse_campaign_config("trials = 4294967297"),
               std::invalid_argument);  // would wrap to 1 trial
  EXPECT_THROW(parse_campaign_config("n = 4294967309"),
               std::invalid_argument);  // list item, would wrap to 13
  EXPECT_THROW(parse_campaign_config("n = 8, 4294967309"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("censor_target = -4294967295"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("budget = 99999999999999999999"),
               std::invalid_argument);  // beyond int64
  EXPECT_THROW(parse_campaign_config("chunk_size = 0"),
               std::invalid_argument);  // used to become 1 silently
  EXPECT_THROW(parse_campaign_config("threads = -1"),
               std::invalid_argument);  // used to become 1 silently
  // Axis values no cell can be built from, rejected by key before any run.
  EXPECT_THROW(parse_campaign_config("n = 8, 0"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("t = -1"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("memory_k = 0, -2"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("split = 1.5"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("split = -0.1"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("split = nan"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("censor_target = -2"),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_campaign_config("censor_target = -1"));
  try {
    (void)parse_campaign_config("t = 1, -3");
    ADD_FAILURE() << "negative t accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("t must be"), std::string::npos)
        << e.what();
  }
  // The strict parser the CLI flags share names where the value came from.
  EXPECT_THROW((void)parse_campaign_int("abc", "--trials"),
               std::invalid_argument);
  try {
    (void)parse_campaign_int("4294967297", "--trials");
    ADD_FAILURE() << "out-of-range flag value accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--trials"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse_campaign_int("-7", "--x"), -7);
  // Validation is callable on its own (the CLI reruns it after overrides).
  CampaignConfig edited = parse_campaign_config("n = 8");
  edited.censor_target = 99;
  EXPECT_THROW(validate_campaign_config(edited), std::invalid_argument);
  edited.censor_target = 3;
  EXPECT_NO_THROW(validate_campaign_config(edited));
  // run_campaign validates too: programmatic configs skip the parser.
  CampaignConfig programmatic;
  programmatic.cell_timeout_ms = kMaxCellTimeoutMs + 1;
  EXPECT_THROW((void)run_campaign(programmatic), std::invalid_argument);
  programmatic.cell_timeout_ms = 0;
  programmatic.trials = 0;
  EXPECT_THROW((void)run_campaign(programmatic), std::invalid_argument);
}

TEST(CampaignConfig, RejectsNamesThatEscapeTheOutputDirOrBreakJson) {
  // The name reaches file names (<output_dir>/<name>_cell_<i>.json) and
  // JSON strings verbatim, so only [A-Za-z0-9._-]+ is accepted: no path
  // separator can move an artifact out of output_dir, and no quote or
  // backslash can break the JSON.
  CampaignConfig cfg = parse_campaign_config("n = 8");
  for (const char* bad :
       {"../escaped", "a/b", "a\"b", "a\\b", "a b", "", "caf\xc3\xa9"}) {
    cfg.name = bad;
    try {
      validate_campaign_config(cfg);
      ADD_FAILURE() << "name accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("name must match"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_campaign_config("name = a\"b"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("name = ../escaped"),
               std::invalid_argument);
  for (const char* good : {"smoke", "campaign-sweep", "golden_window", "v1.2"}) {
    cfg.name = good;
    EXPECT_NO_THROW(validate_campaign_config(cfg)) << good;
  }
}

TEST(CampaignConfig, RejectsChaosCensorTargetOutsideEverySweptN) {
  // A chaos censor target at or above n would censor nobody (the chaos
  // layer skips it), so a config that asks for censorship must aim inside
  // every swept ring — for the chaos_* knobs and for the censor presets,
  // which inherit the knob's target.
  EXPECT_THROW(parse_campaign_config("n = 7\nchaos_censor_prob = 0.9\n"
                                     "chaos_censor_target = 40"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("n = 7, 12\nchaos_censor_prob = 0.5\n"
                                     "chaos_censor_target = 8"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_config("n = 8\nchaos_plan = none, censor-light\n"
                                     "chaos_censor_target = 9"),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_campaign_config(
      "n = 7, 12\nchaos_censor_prob = 0.5\nchaos_censor_target = 6"));
  // No censorship asked for: the target is inert and not checked.
  EXPECT_NO_THROW(parse_campaign_config(
      "n = 7\nchaos_reset_prob = 0.5\nchaos_censor_target = 40"));
  EXPECT_NO_THROW(parse_campaign_config(
      "n = 8\nchaos_plan = resets, crashy\nchaos_censor_target = 9"));
}

/// The reason an invalid_argument carries: the text after AA_REQUIRE's
/// "failed: (<expr>) at <file>:<line> — " prefix, or all of it.
std::string reason(const std::invalid_argument& e) {
  const std::string what = e.what();
  const std::string dash = " \xe2\x80\x94 ";  // " — "
  const std::size_t at = what.find(dash);
  return what.rfind("AA_REQUIRE failed", 0) == 0 && at != std::string::npos
             ? what.substr(at + dash.size())
             : what;
}

TEST(CampaignConfig, MutatedConfigFilesParseOrFailWithACampaignError) {
  // The shipped example configs, truncated at a fixed stride of offsets and
  // with one high bit flipped at a fixed stride (the artifact mutation test
  // in test_campaign_resume.cpp does the same to resume artifacts). Each
  // case must parse to a config that passes validation, or throw
  // std::invalid_argument whose reason starts with "campaign". No other
  // exception may escape.
  int parsed = 0;
  int rejected = 0;
  const auto check = [&](const std::string& text, const std::string& what) {
    try {
      const CampaignConfig cfg = parse_campaign_config(text);
      validate_campaign_config(cfg);
      ++parsed;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(reason(e).rfind("campaign", 0), 0u) << what << ": " << e.what();
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": escaped " << e.what();
    }
  };
  for (const char* file : {"campaign_smoke.cfg", "campaign_chaos.cfg"}) {
    std::ifstream in(std::string(AA_SOURCE_DIR) + "/examples/" + file,
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << file;
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    check(text, std::string(file) + " intact");
    for (std::size_t len = 0; len < text.size(); len += 5) {
      check(text.substr(0, len),
            std::string(file) + " truncated to " + std::to_string(len));
    }
    for (std::size_t i = 0; i < text.size(); i += 3) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (0x10 << (i % 4)));
      check(flipped, std::string(file) + " flipped at " + std::to_string(i));
    }
  }
  // Both outcomes occur: the stride reaches values, keys and comments.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Campaign, UnbuildableCellFailsBeforeAnyArtifact) {
  // n = 8, t = 3 gives canonical thresholds the reset protocol rejects. The
  // n = 20 cell before it is fine, and used to land its artifact before
  // the sweep died on the second cell with a message naming no cell.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "aa_campaign_unbuildable";
  fs::remove_all(dir);
  const CampaignConfig cfg = parse_campaign_config(
      "name = h\nn = 20, 8\nt = 3\ntrials = 2\nbudget = 5\n"
      "adversaries = fair\noutput_dir = " +
      dir.string() + "\n");
  try {
    (void)run_campaign(cfg);
    ADD_FAILURE() << "unbuildable cell accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("n=8, t=3, protocol=reset, thresholds=default, "
                        "memory_k=0"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("ResetProcess"), std::string::npos) << what;
  }
  EXPECT_FALSE(fs::exists(dir));
  fs::remove_all(dir);
}

// ---- sweep structure -------------------------------------------------------

CampaignConfig tiny_config() {
  CampaignConfig cfg;
  cfg.name = "tiny";
  cfg.model = CampaignModel::kWindow;
  cfg.n = {8};
  cfg.t = {1};
  cfg.protocols = {"reset", "forgetful"};
  cfg.thresholds = {"default"};
  cfg.memory_k = {0, 3};
  cfg.adversaries = {"fair", "random"};
  cfg.trials = 8;
  cfg.budget = 300;
  cfg.seed = 5000;
  cfg.threads = 1;
  cfg.chunk_size = 4;
  return cfg;
}

TEST(Campaign, MemoryKAxisOnlySweepsForgetful) {
  const CampaignConfig cfg = tiny_config();
  const CampaignResult result = run_campaign(cfg);
  // reset runs memory_k={0} only; forgetful sweeps {0, 3}: (1+2)*2 advs.
  ASSERT_EQ(result.cells.size(), 6u);
  int forgetful_cells = 0;
  for (const CampaignCell& cell : result.cells) {
    EXPECT_EQ(cell.seed0,
              cfg.seed + static_cast<std::uint64_t>(cell.index) *
                             static_cast<std::uint64_t>(cfg.trials));
    EXPECT_EQ(cell.report.trials, cfg.trials);
    if (cell.protocol == "forgetful") ++forgetful_cells;
    else EXPECT_EQ(cell.memory_k, 0);
  }
  EXPECT_EQ(forgetful_cells, 4);
  EXPECT_EQ(result.summary.trials,
            cfg.trials * static_cast<int>(result.cells.size()));
}

TEST(Campaign, SummaryAndCellsByteIdenticalAcrossThreadCounts) {
  CampaignConfig cfg = tiny_config();
  const CampaignResult serial = run_campaign(cfg);
  const std::string serial_summary = campaign_summary_json(serial);
  for (const int threads : {2, 8}) {
    cfg.threads = threads;
    const CampaignResult par = run_campaign(cfg);
    EXPECT_EQ(campaign_summary_json(par), serial_summary)
        << "summary diverged at threads=" << threads;
    ASSERT_EQ(par.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < par.cells.size(); ++i) {
      EXPECT_EQ(campaign_cell_json(cfg, par.cells[i]),
                campaign_cell_json(cfg, serial.cells[i]))
          << "cell " << i << " diverged at threads=" << threads;
    }
  }
}

// ---- sampled auditing ------------------------------------------------------

TEST(Campaign, AuditEveryNeverChangesReports) {
  // The sampled auditor (audit_every = N) only THROWS on corruption; the
  // sampled boundaries are a function of the window index alone. Summary
  // and every cell must therefore stay byte-identical with it on.
  CampaignConfig cfg = tiny_config();
  const CampaignResult plain = run_campaign(cfg);
  cfg.audit_every = 3;
  const CampaignResult audited = run_campaign(cfg);
  // The config echoes differ (audit_every), so compare via the plain
  // config's serialization on both runs' cells.
  cfg.audit_every = 0;
  EXPECT_EQ(campaign_summary_json({cfg, audited.cells, audited.summary}),
            campaign_summary_json({cfg, plain.cells, plain.summary}));
  ASSERT_EQ(audited.cells.size(), plain.cells.size());
  for (std::size_t i = 0; i < plain.cells.size(); ++i) {
    EXPECT_EQ(campaign_cell_json(cfg, audited.cells[i]),
              campaign_cell_json(cfg, plain.cells[i]))
        << "cell " << i;
  }
}

// ---- per-cell timing (sidecar-only) ----------------------------------------

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Campaign, TimingSidecarCoversEveryCellAndStaysOutOfReports) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "aa_campaign_timing";
  fs::remove_all(dir);

  CampaignConfig cfg = tiny_config();
  cfg.name = "timing";
  cfg.output_dir = dir.string();
  const CampaignResult result = run_campaign(cfg);

  // In-memory: every computed cell carries a positive wall clock and the
  // derived throughput.
  for (const CampaignCell& cell : result.cells) {
    EXPECT_GT(cell.wall_ms, 0.0) << "cell " << cell.index;
    EXPECT_GT(cell.trials_per_s, 0.0) << "cell " << cell.index;
  }

  // Sidecar document: one row per cell plus the total.
  const std::string timing = campaign_timing_json(result);
  for (const CampaignCell& cell : result.cells) {
    EXPECT_NE(timing.find("\"cell\": " + std::to_string(cell.index)),
              std::string::npos)
        << timing;
  }
  EXPECT_NE(timing.find("\"wall_ms_total\""), std::string::npos);
  EXPECT_NE(timing.find("\"trials_per_s\""), std::string::npos);

  // Work counters: every trial runs at least one window and at most the
  // budget, and the random-adversary trials freeze and settle early.
  std::int64_t settled = 0;
  for (const CampaignCell& cell : result.cells) {
    EXPECT_GE(cell.windows, cfg.trials) << "cell " << cell.index;
    EXPECT_LE(cell.windows, std::int64_t{cfg.trials} * cfg.budget)
        << "cell " << cell.index;
    EXPECT_LE(cell.settled, cfg.trials) << "cell " << cell.index;
    EXPECT_NE(timing.find("\"windows\": " + std::to_string(cell.windows) +
                          ", \"settled\": " + std::to_string(cell.settled)),
              std::string::npos)
        << timing;
    settled += cell.settled;
  }
  EXPECT_GT(settled, 0);

  // On disk: the sidecar exists; the byte-identity surface (summary +
  // cells) must NOT mention timing — it is nondeterministic and would
  // break the threads-1-vs-N and fresh-vs-resumed byte diffs.
  EXPECT_TRUE(fs::exists(dir / "timing_timing.json"));
  EXPECT_EQ(slurp(dir / "timing_timing.json"), timing);
  const std::string summary = slurp(dir / "timing_summary.json");
  EXPECT_FALSE(summary.empty());
  EXPECT_EQ(summary.find("wall_ms"), std::string::npos);
  EXPECT_EQ(summary.find("trials_per_s"), std::string::npos);
  const std::string cell0 = slurp(dir / "timing_cell_0.json");
  EXPECT_FALSE(cell0.empty());
  EXPECT_EQ(cell0.find("wall_ms"), std::string::npos);

  fs::remove_all(dir);
}

// ---- the background artifact writer ---------------------------------------

/// run_campaign on another thread. A call still running after a minute is
/// taken for a hang, and the test binary exits instead of waiting on it.
CampaignResult run_campaign_or_exit_on_hang(const CampaignConfig& cfg) {
  std::future<CampaignResult> done =
      std::async(std::launch::async, [&cfg] { return run_campaign(cfg); });
  if (done.wait_for(std::chrono::minutes(1)) != std::future_status::ready) {
    std::fprintf(stderr, "run_campaign did not return within a minute\n");
    std::_Exit(1);
  }
  return done.get();
}

TEST(Campaign, EveryArtifactIsInPlaceWhenRunCampaignReturns) {
  // The writer trails the sweep; run_campaign must wait for its last
  // rename. Every file is then at its final path with its final bytes,
  // and no temp file is left behind.
  namespace fs = std::filesystem;
  for (const int threads : {1, 4}) {
    const fs::path dir = fs::temp_directory_path() /
                         ("aa_campaign_writer_" + std::to_string(threads));
    fs::remove_all(dir);
    CampaignConfig cfg = tiny_config();
    cfg.name = "w";
    cfg.lens = true;
    cfg.threads = threads;
    cfg.output_dir = dir.string();
    const CampaignResult result = run_campaign_or_exit_on_hang(cfg);

    std::size_t files = 0;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      ++files;
      EXPECT_NE(e.path().extension(), ".tmp") << e.path();
    }
    EXPECT_EQ(files, 2 * result.cells.size() + 2) << "threads " << threads;
    for (const CampaignCell& cell : result.cells) {
      const std::string stem = "w_cell_" + std::to_string(cell.index);
      EXPECT_EQ(slurp(dir / (stem + ".json")), campaign_cell_json(cfg, cell))
          << stem << " at threads " << threads;
      EXPECT_EQ(slurp(dir / (stem + "_lens.json")),
                latency_report_json(cell.lens_report))
          << stem << " at threads " << threads;
    }
    EXPECT_EQ(slurp(dir / "w_summary.json"), campaign_summary_json(result));
    EXPECT_EQ(slurp(dir / "w_timing.json"), campaign_timing_json(result));
    fs::remove_all(dir);
  }
}

TEST(Campaign, FailedArtifactWriteSurfacesFromRunCampaign) {
  // A directory where cell 2's artifact belongs makes its rename fail.
  // The writer keeps that error and skips every later document, so the
  // sweep fails with write_file_atomic's message and no summary lands.
  namespace fs = std::filesystem;
  for (const int threads : {1, 4}) {
    const fs::path dir = fs::temp_directory_path() /
                         ("aa_campaign_write_error_" + std::to_string(threads));
    fs::remove_all(dir);
    const fs::path blocked = dir / "f_cell_2.json";
    fs::create_directories(blocked);
    CampaignConfig cfg = tiny_config();
    cfg.name = "f";
    cfg.threads = threads;
    cfg.output_dir = dir.string();
    try {
      (void)run_campaign_or_exit_on_hang(cfg);
      ADD_FAILURE() << "failed write not reported at threads " << threads;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("write_file_atomic: cannot write " +
                          blocked.string()),
                std::string::npos)
          << what;
    }
    EXPECT_TRUE(fs::is_directory(blocked));
    EXPECT_FALSE(fs::exists(dir / "f_summary.json")) << "threads " << threads;
    EXPECT_FALSE(fs::exists(dir / "f_timing.json")) << "threads " << threads;
    fs::remove_all(dir);
  }
}

// ---- seed-block sharding through the checker -------------------------------

TEST(Campaign, SeedShardedCheckerAccumulatorsMergeToWholeRun) {
  // Split one cell's trial block into contiguous seed shards, run each
  // through the checker with its own accumulator, merge — the finalized
  // summary must be bit-identical to the single whole-block run's.
  Experiment spec;
  spec.kind = protocols::ProtocolKind::Reset;
  spec.inputs = protocols::split_inputs(9, 0.5);
  spec.t = 1;
  spec.budget = 300;
  const WindowAdversaryFactory factory = [](std::uint64_t seed) {
    return std::make_unique<adversary::RandomWindowAdversary>(1, 0.1,
                                                             Rng(seed * 9 + 2));
  };
  const int trials = 32;
  const std::uint64_t seed0 = 600;
  const ParallelConfig par{.threads = 1, .chunk_size = 4};

  CampaignContext whole_ctx(par);
  MeasureOneAccumulator whole;
  (void)check_measure_one_window(spec, factory, trials, seed0, whole_ctx,
                                 &whole);
  const MeasureOneReport whole_rep = whole.finalize();

  for (const int shards : {4, 16}) {
    CampaignContext ctx(par);
    MeasureOneAccumulator merged;
    const int per = trials / shards;
    for (int s = 0; s < shards; ++s) {
      MeasureOneAccumulator part;
      (void)check_measure_one_window(
          spec, factory, per,
          seed0 + static_cast<std::uint64_t>(s) *
                      static_cast<std::uint64_t>(per),
          ctx, &part);
      merged.merge(part);
    }
    const MeasureOneReport rep = merged.finalize();
    EXPECT_EQ(rep.trials, whole_rep.trials);
    EXPECT_EQ(rep.agreement_violations, whole_rep.agreement_violations);
    EXPECT_EQ(rep.validity_violations, whole_rep.validity_violations);
    EXPECT_EQ(rep.decided_runs, whole_rep.decided_runs);
    EXPECT_EQ(rep.all_decided_runs, whole_rep.all_decided_runs);
    EXPECT_EQ(rep.mean_windows_to_first, whole_rep.mean_windows_to_first);
    EXPECT_EQ(rep.violating_seeds, whole_rep.violating_seeds);
  }
}

}  // namespace
}  // namespace aa::core
