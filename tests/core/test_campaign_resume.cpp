#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/campaign.hpp"

namespace aa::core {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> tmp_leftovers(const fs::path& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") out.push_back(entry.path().string());
  }
  return out;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("aa_campaign_" + name);
  fs::remove_all(dir);
  return dir;
}

CampaignConfig two_cell_config(const std::string& out_dir) {
  CampaignConfig cfg;
  cfg.name = "resume";
  cfg.model = CampaignModel::kWindow;
  cfg.n = {8};
  cfg.t = {1};
  cfg.protocols = {"reset"};
  cfg.thresholds = {"default"};
  cfg.memory_k = {0};
  cfg.adversaries = {"fair", "random"};
  cfg.trials = 6;
  cfg.budget = 300;
  cfg.seed = 4242;
  cfg.threads = 1;
  cfg.chunk_size = 2;
  cfg.output_dir = out_dir;
  return cfg;
}

TEST(CampaignResume, WritesArtifactsAtomicallyWithNoTmpLeftovers) {
  const fs::path dir = fresh_dir("atomic");
  const CampaignConfig cfg = two_cell_config(dir.string());
  const CampaignResult result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const CampaignCell& cell : result.cells) {
    const fs::path p =
        dir / ("resume_cell_" + std::to_string(cell.index) + ".json");
    ASSERT_TRUE(fs::is_regular_file(p)) << p;
    EXPECT_EQ(read_file(p), campaign_cell_json(cfg, cell));
  }
  EXPECT_EQ(read_file(dir / "resume_summary.json"),
            campaign_summary_json(result));
  EXPECT_TRUE(tmp_leftovers(dir).empty());
  fs::remove_all(dir);
}

TEST(CampaignResume, ResumedSummaryByteIdenticalAfterPartialKill) {
  // Simulate a SIGKILL mid-sweep: keep half the cell artifacts, lose the
  // other half and the summary. The resumed run must restore the kept
  // cells (no recompute) and produce byte-identical cells and summary — at
  // 1, 4 and 8 threads, where the recomputed cells' chunks interleave.
  const fs::path dir = fresh_dir("kill");
  CampaignConfig cfg = two_cell_config(dir.string());
  cfg.adversaries = {"fair", "random", "reset-storm", "split-keeper"};
  (void)run_campaign(cfg);
  const std::string want_summary = read_file(dir / "resume_summary.json");
  std::vector<std::string> want_cells;
  for (int i = 0; i < 4; ++i) {
    want_cells.push_back(
        read_file(dir / ("resume_cell_" + std::to_string(i) + ".json")));
  }

  for (const int threads : {1, 4, 8}) {
    fs::remove(dir / "resume_cell_1.json");
    fs::remove(dir / "resume_cell_3.json");
    fs::remove(dir / "resume_summary.json");
    cfg.threads = threads;
    cfg.resume = true;
    const CampaignResult resumed = run_campaign(cfg);
    ASSERT_EQ(resumed.cells.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(resumed.cells[static_cast<std::size_t>(i)].resumed, i % 2 == 0)
          << "threads " << threads << " cell " << i;
      // A restored cell simulated nothing.
      EXPECT_EQ(resumed.cells[static_cast<std::size_t>(i)].windows == 0,
                i % 2 == 0)
          << "threads " << threads << " cell " << i;
      EXPECT_EQ(
          read_file(dir / ("resume_cell_" + std::to_string(i) + ".json")),
          want_cells[static_cast<std::size_t>(i)])
          << "threads " << threads << " cell " << i;
    }
    EXPECT_EQ(read_file(dir / "resume_summary.json"), want_summary)
        << "threads " << threads;
    EXPECT_EQ(campaign_summary_json(resumed), want_summary);
  }
  EXPECT_TRUE(tmp_leftovers(dir).empty());
  fs::remove_all(dir);
}

TEST(CampaignResume, CorruptOrTruncatedArtifactIsRecomputed) {
  const fs::path dir = fresh_dir("corrupt");
  CampaignConfig cfg = two_cell_config(dir.string());
  (void)run_campaign(cfg);
  const std::string want_summary = read_file(dir / "resume_summary.json");
  const std::string want_cell0 = read_file(dir / "resume_cell_0.json");

  // Truncate cell 0 mid-array and scribble over cell 1 entirely.
  {
    std::ofstream out(dir / "resume_cell_0.json", std::ios::binary);
    out << want_cell0.substr(0, want_cell0.find("\"decided_runs\""));
  }
  {
    std::ofstream out(dir / "resume_cell_1.json", std::ios::binary);
    out << "not json at all";
  }
  fs::remove(dir / "resume_summary.json");

  cfg.resume = true;
  const CampaignResult resumed = run_campaign(cfg);
  EXPECT_FALSE(resumed.cells[0].resumed);
  EXPECT_FALSE(resumed.cells[1].resumed);
  EXPECT_EQ(read_file(dir / "resume_summary.json"), want_summary);
  EXPECT_EQ(read_file(dir / "resume_cell_0.json"), want_cell0);
  fs::remove_all(dir);
}

TEST(CampaignResume, StaleArtifactFromOtherConfigIsRejected) {
  // A valid artifact computed under a DIFFERENT seed must not be resumed:
  // its identity fields no longer re-serialize to the same bytes.
  const fs::path dir = fresh_dir("stale");
  CampaignConfig cfg = two_cell_config(dir.string());
  (void)run_campaign(cfg);
  const std::string fresh_summary = read_file(dir / "resume_summary.json");

  cfg.seed = 777;  // artifacts on disk are for seed 4242
  cfg.resume = true;
  const CampaignResult resumed = run_campaign(cfg);
  EXPECT_FALSE(resumed.cells[0].resumed);
  EXPECT_FALSE(resumed.cells[1].resumed);
  EXPECT_NE(read_file(dir / "resume_summary.json"), fresh_summary);
  fs::remove_all(dir);
}

TEST(CampaignResume, LensSidecarValidatedOnResume) {
  // With the lens armed, a cell artifact that restores byte-identically is
  // NOT enough: the lens numbers live only in the <name>_cell_<i>_lens.json
  // sidecar and cannot be rebuilt from the cell tallies. A missing,
  // truncated, or stale sidecar must force a recompute (which rewrites the
  // sidecar), never a silent resume with wrong lens numbers.
  const fs::path dir = fresh_dir("lens");
  CampaignConfig cfg = two_cell_config(dir.string());
  cfg.lens = true;
  (void)run_campaign(cfg);
  const std::string want_summary = read_file(dir / "resume_summary.json");
  const std::string want_lens0 = read_file(dir / "resume_cell_0_lens.json");
  const std::string want_lens1 = read_file(dir / "resume_cell_1_lens.json");

  // Control: intact sidecars resume both cells, everything byte-identical,
  // and each resumed cell carries the lens report its sidecar holds.
  cfg.resume = true;
  {
    fs::remove(dir / "resume_summary.json");
    const CampaignResult resumed = run_campaign(cfg);
    EXPECT_TRUE(resumed.cells[0].resumed);
    EXPECT_TRUE(resumed.cells[1].resumed);
    EXPECT_EQ(read_file(dir / "resume_summary.json"), want_summary);
    EXPECT_EQ(read_file(dir / "resume_cell_0_lens.json"), want_lens0);
    EXPECT_EQ(latency_report_json(resumed.cells[0].lens_report), want_lens0);
    EXPECT_EQ(latency_report_json(resumed.cells[1].lens_report), want_lens1);
  }

  // Missing sidecar for cell 0, truncated sidecar for cell 1 (SIGKILL
  // between the two atomic writes / a torn copy): both recompute, both
  // sidecars come back byte-identical.
  {
    fs::remove(dir / "resume_cell_0_lens.json");
    std::ofstream out(dir / "resume_cell_1_lens.json", std::ios::binary);
    out << want_lens1.substr(0, want_lens1.find("\"senders\""));
  }
  {
    const CampaignResult resumed = run_campaign(cfg);
    EXPECT_FALSE(resumed.cells[0].resumed);
    EXPECT_FALSE(resumed.cells[1].resumed);
    EXPECT_EQ(read_file(dir / "resume_cell_0_lens.json"), want_lens0);
    EXPECT_EQ(read_file(dir / "resume_cell_1_lens.json"), want_lens1);
    EXPECT_EQ(read_file(dir / "resume_summary.json"), want_summary);
  }

  // Stale sidecar: structurally complete JSON from a foreign run whose
  // identity fields (n, trials) don't match this cell. Must recompute.
  {
    std::ofstream out(dir / "resume_cell_0_lens.json", std::ios::binary);
    out << "{\n  \"n\": 4,\n  \"t\": 1,\n  \"trials\": 99,\n"
           "  \"senders\": [\n  ]\n}\n";
  }
  {
    const CampaignResult resumed = run_campaign(cfg);
    EXPECT_FALSE(resumed.cells[0].resumed);
    EXPECT_TRUE(resumed.cells[1].resumed);
    EXPECT_EQ(read_file(dir / "resume_cell_0_lens.json"), want_lens0);
  }

  // Hollow sidecars: the identity keys match this cell, "senders" is
  // present and the file ends in a brace, but the sender rows and blamed_*
  // lists are missing — or one sender's row is. Must recompute.
  const std::string row3 = "    {\"sender\": 3,";
  const std::size_t row3_at = want_lens0.find(row3);
  ASSERT_NE(row3_at, std::string::npos);
  const std::string missing_row =
      want_lens0.substr(0, row3_at) +
      want_lens0.substr(want_lens0.find('\n', row3_at) + 1);
  for (const std::string& hollow :
       {std::string("{\"n\": 8, \"t\": 1, \"trials\": 6, \"senders\": [ ]}"),
        missing_row}) {
    {
      std::ofstream out(dir / "resume_cell_0_lens.json", std::ios::binary);
      out << hollow;
    }
    const CampaignResult resumed = run_campaign(cfg);
    EXPECT_FALSE(resumed.cells[0].resumed);
    EXPECT_TRUE(resumed.cells[1].resumed);
    EXPECT_EQ(read_file(dir / "resume_cell_0_lens.json"), want_lens0);
    EXPECT_EQ(read_file(dir / "resume_summary.json"), want_summary);
  }
  EXPECT_TRUE(tmp_leftovers(dir).empty());
  fs::remove_all(dir);
}

TEST(CampaignResume, MutatedArtifactsRecomputeOrResumeByteIdentical) {
  // Deterministic mutations of one cell artifact and of its lens sidecar:
  // truncation at a fixed stride of offsets, single-byte flips at a fixed
  // stride, one duplicated key line, and two swapped key lines. Every case
  // must end with the uninterrupted run's cell, sidecar and summary bytes:
  // a mutation the readers miss would resume the mutated file and fail.
  // The flips toggle one of the high four bits (0x10..0x80, in turn), so a
  // digit never turns into another digit: changing one digit of a value
  // keeps the text well formed, and only a checksum, which the artifact
  // format does not carry, could tell it apart.
  const fs::path dir = fresh_dir("mutate");
  CampaignConfig cfg = two_cell_config(dir.string());
  cfg.adversaries = {"fair"};
  cfg.trials = 2;
  cfg.lens = true;
  (void)run_campaign(cfg);
  const fs::path cell = dir / "resume_cell_0.json";
  const fs::path lens = dir / "resume_cell_0_lens.json";
  const fs::path summary = dir / "resume_summary.json";
  const std::string want_cell = read_file(cell);
  const std::string want_lens = read_file(lens);
  const std::string want_summary = read_file(summary);
  cfg.resume = true;

  const auto write = [](const fs::path& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  };
  int cases = 0;
  int recomputed = 0;
  const auto run = [&](const fs::path& target, const std::string& text,
                       const std::string& what) {
    write(cell, want_cell);
    write(lens, want_lens);
    write(target, text);
    fs::remove(summary);
    const CampaignResult result = run_campaign(cfg);
    ASSERT_EQ(result.cells.size(), 1u);
    ++cases;
    if (!result.cells[0].resumed) ++recomputed;
    EXPECT_EQ(read_file(cell), want_cell) << what;
    EXPECT_EQ(read_file(lens), want_lens) << what;
    EXPECT_EQ(read_file(summary), want_summary) << what;
  };

  // Control: the intact pair resumes.
  run(cell, want_cell, "intact");
  ASSERT_EQ(recomputed, 0);

  for (const auto& [target, want, stride] :
       {std::make_tuple(cell, want_cell, std::size_t{7}),
        std::make_tuple(lens, want_lens, std::size_t{31})}) {
    const std::string name = target.filename().string();
    for (std::size_t len = 0; len < want.size(); len += stride) {
      run(target, want.substr(0, len),
          name + " truncated to " + std::to_string(len));
    }
    for (std::size_t i = 0; i < want.size(); i += stride / 2) {
      std::string flipped = want;
      flipped[i] = static_cast<char>(flipped[i] ^ (0x10 << (i % 4)));
      run(target, flipped, name + " flipped at " + std::to_string(i));
    }
    // Key lines: the top-level `  "key": value` lines.
    std::vector<std::string> lines;
    std::vector<std::size_t> keys;
    std::istringstream split(want);
    for (std::string line; std::getline(split, line);) {
      if (line.rfind("  \"", 0) == 0) keys.push_back(lines.size());
      lines.push_back(line + "\n");
    }
    ASSERT_GE(keys.size(), 3u) << name;
    const auto join = [](const std::vector<std::string>& parts) {
      std::string out;
      for (const std::string& p : parts) out += p;
      return out;
    };
    std::vector<std::string> dup = lines;
    dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(keys[1]),
               lines[keys[1]]);
    run(target, join(dup), name + " duplicated key line");
    std::vector<std::string> swapped = lines;
    std::swap(swapped[keys[1]], swapped[keys[2]]);
    run(target, join(swapped), name + " swapped key lines");
  }
  EXPECT_EQ(recomputed, cases - 1);  // every mutation recomputed
  EXPECT_TRUE(tmp_leftovers(dir).empty());
  fs::remove_all(dir);
}

TEST(CampaignResume, LensOffResumeIgnoresSidecars) {
  // Without the lens there is no sidecar contract: resume must not demand
  // one (and must not be confused by a stray lens file from an older
  // lens-armed run of the same name).
  const fs::path dir = fresh_dir("lensoff");
  CampaignConfig cfg = two_cell_config(dir.string());
  (void)run_campaign(cfg);
  {
    std::ofstream out(dir / "resume_cell_0_lens.json", std::ios::binary);
    out << "stray";
  }
  fs::remove(dir / "resume_summary.json");
  cfg.resume = true;
  const CampaignResult resumed = run_campaign(cfg);
  EXPECT_TRUE(resumed.cells[0].resumed);
  EXPECT_TRUE(resumed.cells[1].resumed);
  fs::remove_all(dir);
}

TEST(CampaignResume, CellTimeoutMarksFailedAndSummarySkipsIt) {
  // A fast cell beside one whose chunks cannot all start inside the
  // deadline. Cell 0 (benor) decides every trial within a few windows.
  // Cell 1 (reset against split-keeper at n = 28) leaves most trials
  // undecided, so they burn the 10000-window budget: a quarter second
  // each, far past twice the 50 ms timeout. Its first chunks run; the
  // chunks that start after the deadline are skipped, in both rounds.
  // A few of its trials decide within tens of milliseconds, so the cell
  // has 16 chunks: at 4 threads, 12 of them would have to finish inside
  // the deadline for the last one to start in time.
  const auto run = [](int threads) {
    const fs::path dir = fresh_dir("timeout" + std::to_string(threads));
    CampaignConfig cfg;
    cfg.name = "slow";
    cfg.model = CampaignModel::kWindow;
    cfg.n = {28};
    cfg.t = {3};
    cfg.protocols = {"benor", "reset"};
    cfg.thresholds = {"default"};
    cfg.memory_k = {0};
    cfg.adversaries = {"split-keeper"};
    cfg.trials = 16;
    cfg.budget = 10000;
    cfg.seed = 1;
    cfg.threads = threads;
    cfg.chunk_size = 1;
    cfg.output_dir = dir.string();
    cfg.cell_timeout_ms = 50;
    const CampaignResult result = run_campaign(cfg);
    return std::make_pair(dir, result);
  };

  const auto [dir1, ref] = run(1);
  const std::string fast_cell = read_file(dir1 / "slow_cell_0.json");
  for (const int threads : {1, 4}) {
    const auto [dir, result] = threads == 1 ? std::make_pair(dir1, ref)
                                            : run(threads);
    ASSERT_EQ(result.cells.size(), 2u);
    EXPECT_FALSE(result.cells[0].failed) << "threads " << threads;
    EXPECT_TRUE(result.cells[1].failed) << "threads " << threads;
    // The fast cell landed with the same bytes at any thread count; the
    // failed cell is excluded from the merge and gets no artifact.
    EXPECT_EQ(read_file(dir / "slow_cell_0.json"), fast_cell);
    EXPECT_EQ(result.summary.trials, 16);
    EXPECT_FALSE(fs::exists(dir / "slow_cell_1.json"));
    const std::string summary = read_file(dir / "slow_summary.json");
    EXPECT_NE(summary.find("\"cells_failed\": [1]"), std::string::npos)
        << summary;
    EXPECT_TRUE(tmp_leftovers(dir).empty());
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace aa::core
