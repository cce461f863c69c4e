// Campaign-level tests for the latency & accountability lens: the new
// config keys (lens, censor_target, chaos_plan), the lens artifacts, and
// their byte identity across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace aa::core {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("aa_lens_" + name);
  fs::remove_all(dir);
  return dir;
}

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.name = "lens";
  cfg.n = {6, 8};
  cfg.t = {1};
  cfg.protocols = {"reset"};
  cfg.adversaries = {"fair", "random"};
  cfg.trials = 8;
  cfg.budget = 300;
  cfg.seed = 500;
  cfg.chunk_size = 4;
  return cfg;
}

// ---- config parsing --------------------------------------------------------

TEST(CampaignLensConfig, ParsesTheNewKeys) {
  const CampaignConfig cfg = parse_campaign_config(R"(lens = true
censor_target = 3
chaos_plan = none, censor-heavy
)");
  EXPECT_TRUE(cfg.lens);
  EXPECT_EQ(cfg.censor_target, 3);
  EXPECT_EQ(cfg.chaos_plan,
            (std::vector<std::string>{"none", "censor-heavy"}));
}

TEST(CampaignLensConfig, DefaultsAreOff) {
  const CampaignConfig cfg = parse_campaign_config("");
  EXPECT_FALSE(cfg.lens);
  EXPECT_EQ(cfg.censor_target, -1);
  EXPECT_EQ(cfg.chaos_plan, (std::vector<std::string>{"none"}));
}

TEST(CampaignLensConfig, RejectsUnknownChaosPreset) {
  EXPECT_THROW((void)parse_campaign_config("chaos_plan = tempest\n"),
               std::invalid_argument);
}

TEST(CampaignLensConfig, RejectsChaosPlanAxisWithChaosKnobs) {
  EXPECT_THROW((void)parse_campaign_config(R"(chaos_plan = censor-light
chaos_reset_prob = 0.5
)"),
               std::invalid_argument);
  // The default axis value composes with knobs fine.
  EXPECT_NO_THROW((void)parse_campaign_config(R"(chaos_plan = none
chaos_reset_prob = 0.5
)"));
}

TEST(CampaignLensConfig, RejectsCensorTargetOutsideEverySweptN) {
  EXPECT_THROW((void)parse_campaign_config(R"(n = 6, 8
censor_target = 6
)"),
               std::invalid_argument);
  EXPECT_NO_THROW((void)parse_campaign_config(R"(n = 6, 8
censor_target = 5
)"));
}

// ---- thread counts: byte identity -----------------------------------------

TEST(CampaignThreads, ArtifactsByteIdenticalToSequential) {
  // One job list of (cell, chunk) pairs: at 8 threads the cells' chunks
  // interleave and cells land in any order, yet every cell artifact, lens
  // sidecar and the summary match the threads = 1 run byte for byte.
  CampaignConfig cfg = small_config();
  cfg.lens = true;

  CampaignConfig seq = cfg;
  seq.threads = 1;
  seq.output_dir = fresh_dir("seq").string();
  const CampaignResult rs = run_campaign(seq);

  CampaignConfig par = cfg;
  par.threads = 8;
  par.output_dir = fresh_dir("par").string();
  const CampaignResult rp = run_campaign(par);

  ASSERT_EQ(rs.cells.size(), rp.cells.size());
  ASSERT_EQ(rs.cells.size(), 4u);  // 2 n × 2 adversaries
  EXPECT_EQ(slurp(fs::path(seq.output_dir) / "lens_summary.json"),
            slurp(fs::path(par.output_dir) / "lens_summary.json"));

  for (const CampaignCell& cell : rs.cells) {
    const std::string cell_name =
        "lens_cell_" + std::to_string(cell.index) + ".json";
    EXPECT_EQ(slurp(fs::path(seq.output_dir) / cell_name),
              slurp(fs::path(par.output_dir) / cell_name))
        << cell_name;
    const std::string lens_name =
        "lens_cell_" + std::to_string(cell.index) + "_lens.json";
    EXPECT_EQ(slurp(fs::path(seq.output_dir) / lens_name),
              slurp(fs::path(par.output_dir) / lens_name))
        << lens_name;
  }
  fs::remove_all(seq.output_dir);
  fs::remove_all(par.output_dir);
}

// ---- chaos_plan axis + lens cross-validation --------------------------------

TEST(CampaignChaosPlan, CensorPresetRaisesTheTargetsCensorshipScore) {
  CampaignConfig cfg;
  cfg.name = "plans";
  cfg.n = {8};
  cfg.t = {1};
  cfg.protocols = {"reset"};
  cfg.adversaries = {"fair"};
  cfg.chaos_plan = {"none", "censor-heavy"};
  cfg.chaos.censor_target = 2;  // inherited by the presets
  cfg.trials = 8;
  cfg.budget = 300;
  cfg.lens = true;
  const CampaignResult result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 2u);
  ASSERT_EQ(result.cells[0].chaos_plan, "none");
  ASSERT_EQ(result.cells[1].chaos_plan, "censor-heavy");
  const lens::LatencyReport& clean = result.cells[0].lens_report;
  const lens::LatencyReport& censored = result.cells[1].lens_report;
  ASSERT_EQ(clean.n, 8);
  ASSERT_EQ(censored.n, 8);
  // Fair scheduling, no chaos: nobody scores. Under censor-heavy the
  // injected target (and only it) crosses the blame threshold — the lens
  // cross-validates the injected fault probabilities.
  EXPECT_TRUE(clean.blamed_censored.empty());
  EXPECT_EQ(clean.senders[2].censorship_score, 0.0);
  EXPECT_EQ(censored.blamed_censored, (std::vector<sim::ProcId>{2}));
  EXPECT_GT(censored.senders[2].censorship_score,
            clean.senders[2].censorship_score);
  // The summary only aggregates verdicts; chaos censorship must not break
  // agreement (it stays inside Definition 1).
  EXPECT_EQ(result.summary.agreement_violations, 0);
}

TEST(CampaignChaosPlan, PlanKeyAppearsOnlyWhenNonDefault) {
  CampaignConfig cfg = small_config();
  const CampaignCell def;
  CampaignCell cell = def;
  cell.protocol = "reset";
  cell.thresholds = "default";
  cell.adversary = "fair";
  EXPECT_EQ(campaign_cell_json(cfg, cell).find("chaos_plan"),
            std::string::npos);
  EXPECT_EQ(campaign_cell_json(cfg, cell).find("censor_target"),
            std::string::npos);
  cell.chaos_plan = "resets";
  cfg.censor_target = 1;
  const std::string json = campaign_cell_json(cfg, cell);
  EXPECT_NE(json.find("\"chaos_plan\": \"resets\""), std::string::npos);
  EXPECT_NE(json.find("\"censor_target\": 1"), std::string::npos);
}

// ---- censor_target end to end ----------------------------------------------

TEST(CampaignCensorTarget, BlamedInEveryCellLensReport) {
  CampaignConfig cfg;
  cfg.name = "censor";
  cfg.n = {8};
  cfg.t = {1};
  cfg.protocols = {"reset"};
  cfg.adversaries = {"fair"};
  cfg.censor_target = 4;
  cfg.lens = true;
  cfg.trials = 6;
  cfg.budget = 300;
  const CampaignResult result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 1u);
  const lens::LatencyReport& rep = result.cells[0].lens_report;
  EXPECT_EQ(rep.blamed_censored, (std::vector<sim::ProcId>{4}));
  EXPECT_TRUE(rep.blamed_equivocators.empty());
  // Censorship stays inside the acceptable-window contract: the checker
  // verdicts are clean even though the target was starved.
  EXPECT_EQ(result.summary.agreement_violations, 0);
  EXPECT_EQ(result.summary.validity_violations, 0);
}

// ---- lens artifacts + resume ------------------------------------------------

TEST(CampaignLens, ResumeKeepsSummaryBytesAndLensSidecars) {
  CampaignConfig cfg = small_config();
  cfg.lens = true;
  cfg.output_dir = fresh_dir("resume").string();
  const CampaignResult fresh = run_campaign(cfg);
  const std::string summary_path =
      (fs::path(cfg.output_dir) / "lens_summary.json").string();
  const std::string fresh_summary = slurp(summary_path);

  // Delete one cell artifact (but not its lens sidecar) and resume: the
  // missing cell recomputes, rewrites both files, and the summary bytes
  // are unchanged.
  fs::remove(fs::path(cfg.output_dir) / "lens_cell_1.json");
  CampaignConfig again = cfg;
  again.resume = true;
  const CampaignResult resumed = run_campaign(again);
  int recomputed = 0;
  for (const CampaignCell& cell : resumed.cells) {
    if (!cell.resumed) ++recomputed;
  }
  EXPECT_EQ(recomputed, 1);
  EXPECT_EQ(slurp(summary_path), fresh_summary);
  for (const CampaignCell& cell : fresh.cells) {
    EXPECT_TRUE(fs::exists(
        fs::path(cfg.output_dir) /
        ("lens_cell_" + std::to_string(cell.index) + "_lens.json")))
        << cell.index;
  }
  fs::remove_all(cfg.output_dir);
}

}  // namespace
}  // namespace aa::core
