// Campaign engine: config-file-driven sweeps over the measure-one
// checkers, sharing ONE CampaignContext (worker pool + per-worker
// Execution scratch) across every cell. There is one schedule: every
// pending cell's trial chunks go to the pool as one job list (in order,
// inline, without a pool), and a cell lands — its artifacts handed to the
// campaign's one background writer — the moment its last chunk finishes.
//
// A campaign is a cross product of sweep axes — n × t × protocol ×
// thresholds-preset × memory-K × adversary × chaos-plan — where each cell
// runs `trials`
// seeded checker trials under one model (window or async). Cell order,
// per-cell seed blocks, and the merged summary are functions of the config
// ALONE: the same config produces byte-identical per-cell reports and
// summary JSON at --threads 1 and --threads 8 (both folded by the
// exactly-associative MeasureOneAccumulator — core/report.hpp).
//
// Config files are flat `key = value` text: one key per line, lists
// comma-separated, `#` starts a comment. See CampaignConfig for the keys
// and examples/campaign_smoke.cfg for a worked example.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "sim/fault.hpp"

namespace aa::core {

/// Which checker a campaign's cells run.
enum class CampaignModel {
  kWindow,  ///< window model (§2–§4): check_measure_one_window
  kAsync,   ///< async crash model (§5): check_measure_one_async
};

/// Named-field campaign specification; field = config-file key.
/// Vector-valued fields are sweep axes (the campaign runs their cross
/// product), scalar fields apply to every cell.
struct CampaignConfig {
  /// Label used in output file names and artifacts: [A-Za-z0-9._-]+.
  std::string name = "campaign";
  CampaignModel model = CampaignModel::kWindow;  ///< `model = window|async`

  // ---- sweep axes ----
  std::vector<int> n = {8};                         ///< ring sizes
  std::vector<int> t = {1};                         ///< fault budgets
  std::vector<std::string> protocols = {"reset"};   ///< reset|forgetful|benor|bracha
  /// Threshold presets per cell: `default` (the protocol's own defaults),
  /// `canonical` (Theorem 4's canonical_thresholds(n, t)), `relaxed`
  /// (the bench T1 relaxed-T2 preset {n−2t, n/2+1+t, n/2+1}).
  std::vector<std::string> thresholds = {"default"};
  /// Forgetful's bounded-memory horizon values. Only ProtocolKind::
  /// Forgetful sweeps this axis; other protocols run its FIRST value only
  /// (no duplicate cells for a knob they ignore).
  std::vector<int> memory_k = {0};
  /// Adversary menu, by model: window — fair, silencer, split-keeper,
  /// reset-storm, random; async — random-async, fixed-crash, async-split.
  std::vector<std::string> adversaries = {"random"};
  /// Chaos-preset sweep axis (`chaos_plan = none, censor-heavy`), the
  /// INNERMOST axis (inside adversary). Presets: `none` (the config's own
  /// chaos_* knobs — the default axis value is therefore exactly the
  /// pre-axis behavior), `censor-light` / `censor-heavy` (probabilistic
  /// censorship of chaos_censor_target at 0.25 / 0.9 per row), `resets`
  /// (reset storms at 0.5 per window), `crashy` (one crash at 0.2 per
  /// window). A non-default axis is mutually exclusive with enabled
  /// chaos_* knobs — the presets would silently override them.
  std::vector<std::string> chaos_plan = {"none"};

  // ---- per-cell scalars ----
  double split = 0.5;        ///< input pattern: fraction of 1-inputs
  int trials = 40;           ///< trials per cell
  std::int64_t budget = 600; ///< max windows (window) / deliveries (async)
  std::uint64_t seed = 1000; ///< cell c uses seeds seed + c*trials ...

  // ---- execution / output ----
  int threads = 1;        ///< pool width (0 = hardware concurrency)
  int chunk_size = 16;    ///< trials per work chunk (fixed merge grain)
  std::string output_dir; ///< JSON output directory ("" = don't write)

  // ---- robustness (chaos harness) ----
  /// Run the engine invariant auditor at every window boundary (window
  /// model) or after every delivery (async model) of every trial
  /// (`audit = true`). Opt-in: O(arena) per audit.
  bool audit = false;
  /// Sampled auditing (`audit_every = N`): audit every Nth window boundary
  /// or every Nth async delivery (0 = off). The cheap always-on variant for
  /// Release campaigns — the auditor only throws on corruption, never
  /// changes a report, and the sampled points are a function of the window
  /// index or delivery count alone (so the determinism contract is
  /// untouched). `audit = true` overrides.
  int audit_every = 0;
  /// Fault-injection knobs (`chaos_crash_prob`, `chaos_crash_budget`,
  /// `chaos_reset_prob`, `chaos_censor_prob`, `chaos_censor_target`,
  /// `chaos_duplicate_prob`, `chaos_degenerate_prob`, `chaos_seed`). When
  /// enabled() the cell adversaries are wrapped in the chaos layer; when
  /// disabled (the default) the factories are untouched — zero drift.
  sim::FaultPlan chaos;
  /// Per-cell wall-clock timeout in milliseconds (0 = none; at most
  /// kMaxCellTimeoutMs). The clock starts when the cell's first chunk
  /// starts, and every chunk checks the deadline when it starts: a chunk
  /// that starts late is skipped, and so is the cell's result. Expired
  /// cells are recomputed in a second round at twice the timeout and
  /// marked failed if that round expires too. Failed cells are skipped by
  /// the summary merge and listed in its `cells_failed` array.
  std::int64_t cell_timeout_ms = 0;
  /// Resume a killed sweep (`resume = true` or --resume): a cell whose
  /// output JSON reads back through the artifact's layout for THIS cell
  /// (core/json_io.hpp), holds tallies some run of the cell could produce
  /// and byte-matches its canonical re-serialization is restored (exact
  /// tallies) instead of recomputed, so the resumed summary is
  /// byte-identical to an uninterrupted run's. With the lens armed the
  /// cell's lens sidecar must pass the same test for the cell's (n, t) and
  /// trial count, with its shares, scores and blame lists derived again
  /// from its tallies — the lens numbers are not rebuildable from the cell
  /// tallies, so a cell with a missing/truncated/stale sidecar is
  /// recomputed even when its own artifact byte-matches.
  bool resume = false;

  // ---- latency & accountability lens ----
  /// Capture the per-message lens (Experiment::lens) for every cell and
  /// fold each trial's WindowTrace into a per-cell LatencyAccumulator.
  /// With output_dir set, each cell writes <name>_cell_<i>_lens.json
  /// (core::latency_report_json) BEFORE its cell artifact, so a cell
  /// artifact on disk implies its lens sidecar landed too. The lens never
  /// changes the cell/summary byte-identity surface.
  bool lens = false;
  /// Wrap every cell adversary in the targeted-censorship layer
  /// (adversary/censor.hpp): window model — TargetedCensorAdversary
  /// suppressing this sender wherever Definition 1 leaves slack; async —
  /// StarvingAsyncScheduler deferring its deliveries within a fairness
  /// bound. −1 (the default) disables. The wrapper is OUTERMOST (it
  /// censors whatever the chaos layer planned).
  int censor_target = -1;
};

/// Largest accepted cell_timeout_ms (10^12 ms, about 31 years): twice it
/// in nanoseconds still fits in int64, so the retry round's deadline
/// cannot overflow.
inline constexpr std::int64_t kMaxCellTimeoutMs = 1'000'000'000'000;

/// Largest accepted n. A window-model worker holds an n·(n+1) int32 pair
/// index and the lens n² tallies, and one window moves n² messages, so an
/// unbounded n would exhaust memory (or run for hours) before any message
/// said why. 1024 keeps every in-repo use (up to n = 512) with headroom:
/// about 4 MiB of pair index and 1M messages per window.
inline constexpr int kMaxCampaignN = 1024;

/// Parse config text (`key = value` lines, `#` comments). Unknown keys and
/// malformed values throw with a line-numbered message; the result has
/// passed validate_campaign_config.
[[nodiscard]] CampaignConfig parse_campaign_config(const std::string& text);

/// The one strict integer parser behind every integer config key, list
/// item and CLI flag: the whole of `value` must be a base-10 integer in
/// [lo, hi] (default: the int range), so nothing is silently truncated or
/// wrapped. Throws std::invalid_argument prefixed with `where` (a config
/// line or a flag name).
[[nodiscard]] long long parse_campaign_int(
    const std::string& value, const std::string& where,
    long long lo = std::numeric_limits<int>::min(),
    long long hi = std::numeric_limits<int>::max());

/// The cross-field checks every config must pass (a name matching
/// [A-Za-z0-9._-]+, every n in [1, kMaxCampaignN], positive trials and
/// budget, chunk_size >= 1, threads >= 0, cell_timeout_ms in
/// [0, kMaxCellTimeoutMs], non-empty axes, chaos and censor targets inside
/// every swept n, ...). parse_campaign_config and run_campaign run it; a
/// caller that edits a parsed config (the CLI's flag overrides) should run
/// it again to fail before anything runs.
void validate_campaign_config(const CampaignConfig& cfg);

/// Read and parse a config file.
[[nodiscard]] CampaignConfig load_campaign_config(const std::string& path);

/// The campaign's named window-adversary menu (the `adversaries` values of
/// a window-model config): fair, silencer (silences ids 0..t-1),
/// split-keeper, reset-storm (Rng(seed*7+1)) and random (reset probability
/// 0.1, Rng(seed*9+2)). Throws std::invalid_argument for any other name.
[[nodiscard]] WindowAdversaryFactory window_adversary_factory(
    const std::string& name, int t);

/// The async menu: random-async (Rng(seed*3+1)), fixed-crash (crashes ids
/// 0..t-1, Rng(seed*5+3)) and async-split. Throws for any other name.
[[nodiscard]] AsyncAdversaryFactory async_adversary_factory(
    const std::string& name, int t);

/// One finished sweep cell: its axis coordinates plus the checker report.
struct CampaignCell {
  int index = 0;  ///< position in canonical sweep order
  int n = 0;
  int t = 0;
  std::string protocol;
  std::string thresholds;
  int memory_k = 0;
  std::string adversary;
  /// Chaos preset this cell ran under (the `chaos_plan` axis; "none" means
  /// the config's own chaos_* knobs). Serialized into the cell JSON only
  /// when not "none", so default-axis configs keep their pre-axis bytes.
  std::string chaos_plan = "none";
  std::uint64_t seed0 = 0;  ///< first trial seed of this cell's block
  MeasureOneReport report;
  /// Exact integer decision-metric sum (MeasureOneAccumulator::metric_sum)
  /// — serialized so --resume restores the summary to identical bytes.
  std::int64_t metric_sum = 0;
  bool failed = false;   ///< timed out twice; excluded from the summary
  bool resumed = false;  ///< restored from an existing artifact
  /// Wall-clock from the start of the cell's first chunk to the end of its
  /// last, in the round that landed it (a failed cell: its last round),
  /// or the time spent restoring it; plus the derived trials/second. It
  /// excludes the cell's file writes, which the background writer does
  /// while later cells compute (see run_campaign). On a
  /// pool the cells' chunks interleave, so this span also covers the
  /// neighbours' chunks that ran meanwhile: it is the cell's latency, not
  /// its CPU time, and the cells' spans overlap (their sum can exceed the
  /// sweep's wall clock). Timing is intrinsically nondeterministic, so it
  /// is NEVER part of the cell/summary JSON (the byte-identity surface) —
  /// it is reported in the separate <name>_timing.json sidecar
  /// (campaign_timing_json), which resume and the cross-thread-count
  /// diffs deliberately ignore.
  double wall_ms = 0.0;
  double trials_per_s = 0.0;
  /// Work the cell's trials did in that same round, for the timing
  /// sidecar too: windows simulated (window model; the checkers end a
  /// trial once it settles, see StopCondition::kSettled) and trials that
  /// settled before the budget. 0 for a resumed cell and in the async
  /// model.
  std::int64_t windows = 0;
  std::int64_t settled = 0;
  /// Finalized lens report for this cell (CampaignConfig::lens): per-sender
  /// confirmation latency, censorship scores, blame lists. A resumed cell
  /// carries the report read back from its <name>_cell_<i>_lens.json.
  lens::LatencyReport lens_report;
};

struct CampaignResult {
  CampaignConfig config;
  std::vector<CampaignCell> cells;  ///< canonical sweep order
  /// Accumulator-merged totals over every cell (finalized: seeds sorted,
  /// one exact division for the mean) — the byte-identity surface.
  MeasureOneReport summary;
};

/// Run every cell of `config`'s sweep on the shared context (config is
/// validated first: validate_campaign_config). Cells are enumerated in
/// canonical order (n, t, protocol, thresholds, memory_k, adversary,
/// chaos_plan nesting, outermost first). Every pending (cell, chunk) pair
/// goes to ctx's pool in one job list, cell-major; without a pool the
/// chunks run inline in exactly that order, cell by cell. The last chunk
/// of a cell to finish merges the cell's chunk tallies in chunk order, so
/// every cell report, lens artifact, and the summary are byte-identical
/// at any thread count. With config.output_dir set, run_campaign starts
/// one background writer thread, and that chunk queues the cell's lens
/// sidecar and then its JSON for it. The queue holds references to the
/// landed cells, not their bytes, so it has no bound and a landing chunk
/// never waits: the writer serialises each document and writes it through
/// write_file_atomic, in landing order, while the next cells compute.
/// Once every cell has landed and the writer has renamed the last of them
/// into place, the summary and then the timing sidecar are written, and
/// run_campaign returns. A SIGKILL mid-sweep loses at most the in-flight
/// cells and the writer's unwritten backlog; it leaves only whole-cell
/// artifacts, and config.resume recomputes whatever is missing on the
/// next run. The first failed write is kept, every later document skipped
/// (no summary is written), and its error is rethrown from the next
/// hand-off or from run_campaign; on any other exception the writer
/// finishes what is queued before it unwinds.
/// config.cell_timeout_ms bounds each cell's wall clock (see there).
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config,
                                          CampaignContext& ctx);

/// Convenience: build a context from config.threads / config.chunk_size.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

/// The merged-summary JSON document (stable key order, %.17g doubles) —
/// what `campaign` writes to <output_dir>/<name>_summary.json. It ends with
/// the same report fields as the cell artifact.
[[nodiscard]] std::string campaign_summary_json(const CampaignResult& result);

/// One cell's JSON document (same conventions).
[[nodiscard]] std::string campaign_cell_json(const CampaignConfig& config,
                                             const CampaignCell& cell);

/// The timing sidecar document (<output_dir>/<name>_timing.json): one row
/// per cell with wall_ms, trials_per_s, windows and settled, plus the
/// sweep's total wall-clock. Kept OUT of the cell/summary artifacts so
/// the byte-identity surface (threads 1 vs N, fresh vs resumed) stays
/// timing-free.
[[nodiscard]] std::string campaign_timing_json(const CampaignResult& result);

/// Crash-safe text-file write: stream `body` to `<path>.tmp`, flush, then
/// rename over `path`. Readers never observe a torn file — they see the
/// old content or the new content, nothing in between. Throws on I/O
/// errors, including a failed close, so a short file is never renamed
/// into place (the temp file is removed on failure). run_campaign's
/// background writer calls it for every cell artifact, one at a time, in
/// landing order; the summary and timing sidecar follow from the calling
/// thread.
void write_file_atomic(const std::string& path, const std::string& body);

}  // namespace aa::core
