// campaign: config-file-driven campaign runner.
//
//   ./build/tools/campaign <config-file> [overrides]
//
//   --threads N          override the config's pool width (0 = hardware)
//   --trials N           override trials per cell
//   --seed S             override the base seed
//   --output-dir DIR     override (or enable) JSON output
//   --resume             skip cells whose output JSON exists and validates
//   --cell-timeout-ms N  per-cell wall-clock deadline, checked at chunk
//                        start; an expired cell is retried once at 2N,
//                        then marked failed (N <= 10^12)
//   --audit              run the engine invariant auditor every window
//                        (async: every delivery)
//   --audit-every N      sampled auditor: every Nth window boundary
//                        (async: every Nth delivery)
//   --lens               capture the latency & accountability lens per cell
//                        (writes <name>_cell_<i>_lens.json sidecars)
//   --censor-target K    wrap every cell adversary in the targeted censor
//                        aimed at processor K
//   --print-summary      print the merged-summary JSON to stdout
//   --print-cells        print one line per finished cell
//
// The config file is flat `key = value` text (lists comma-separated, `#`
// comments); see src/core/campaign.hpp for every key and
// examples/campaign_smoke.cfg for a worked example. One CampaignContext —
// worker pool plus per-worker Execution scratch — is shared across
// every cell: all cells' trial chunks run on it as one job list. Every
// artifact but the timing sidecar is byte-identical at any --threads
// value (the determinism contract core/report.hpp documents).
//
// Crash safety: with an output dir set, each finished cell is queued for
// the campaign's background writer the moment it completes, and every
// file is written atomically, so a SIGKILL mid-sweep loses at most the
// in-flight cells and the writer's unwritten backlog. Re-running with
// --resume restores the cells whose artifacts landed, recomputes the rest
// and produces a summary byte-identical to an uninterrupted run's.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/campaign.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <config-file> [--threads N] [--trials N] "
               "[--seed S] [--output-dir DIR] [--resume] "
               "[--cell-timeout-ms N] [--audit] [--audit-every N] "
               "[--lens] [--censor-target K] "
               "[--print-summary] [--print-cells]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aa;

  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }

  bool print_summary = false;
  bool print_cells = false;
  try {
    core::CampaignConfig cfg = core::load_campaign_config(argv[1]);

    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          usage(argv[0]);
          std::exit(2);
        }
        return argv[++i];
      };
      // Integer flags go through the config's strict parser, so a bad
      // value fails with the flag's name instead of becoming 0.
      const auto int_flag = [&] {
        return static_cast<int>(core::parse_campaign_int(next(), arg));
      };
      const auto int64_flag = [&] {
        return core::parse_campaign_int(
            next(), arg, std::numeric_limits<long long>::min(),
            std::numeric_limits<long long>::max());
      };
      if (arg == "--threads") cfg.threads = int_flag();
      else if (arg == "--trials") cfg.trials = int_flag();
      else if (arg == "--seed")
        cfg.seed = static_cast<std::uint64_t>(int64_flag());
      else if (arg == "--output-dir") cfg.output_dir = next();
      else if (arg == "--resume") cfg.resume = true;
      else if (arg == "--cell-timeout-ms") cfg.cell_timeout_ms = int64_flag();
      else if (arg == "--audit") cfg.audit = true;
      else if (arg == "--audit-every") cfg.audit_every = int_flag();
      else if (arg == "--lens") cfg.lens = true;
      else if (arg == "--censor-target") cfg.censor_target = int_flag();
      else if (arg == "--print-summary") print_summary = true;
      else if (arg == "--print-cells") print_cells = true;
      else {
        usage(argv[0]);
        return 2;
      }
      // Overrides get the same checks the config file got (it already
      // passed them), so a failure here is this flag's: name it.
      try {
        core::validate_campaign_config(cfg);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(arg + ": " + e.what());
      }
    }

    // run_campaign writes per-cell artifacts (atomically, on a background
    // writer, as cells finish) and the summary itself when cfg.output_dir
    // is set, and returns after the last of them is in place.
    const core::CampaignResult result = core::run_campaign(cfg);

    if (print_cells) {
      for (const core::CampaignCell& c : result.cells) {
        std::printf("cell %d n=%d t=%d proto=%s th=%s k=%d adv=%s plan=%s "
                    "seed0=%" PRIu64 " trials=%d viol=%d decided=%d "
                    "all=%d mean=%.17g%s%s\n",
                    c.index, c.n, c.t, c.protocol.c_str(),
                    c.thresholds.c_str(), c.memory_k, c.adversary.c_str(),
                    c.chaos_plan.c_str(), c.seed0, c.report.trials,
                    c.report.agreement_violations +
                        c.report.validity_violations,
                    c.report.decided_runs, c.report.all_decided_runs,
                    c.report.mean_windows_to_first,
                    c.resumed ? " [resumed]" : "",
                    c.failed ? " [FAILED: timeout]" : "");
      }
    }

    std::size_t resumed = 0;
    std::size_t failed = 0;
    for (const core::CampaignCell& c : result.cells) {
      if (c.resumed) ++resumed;
      if (c.failed) ++failed;
    }
    if (!cfg.output_dir.empty()) {
      std::fprintf(stderr,
                   "campaign '%s': wrote %zu cell files + summary to %s"
                   " (%zu resumed, %zu failed)\n",
                   cfg.name.c_str(), result.cells.size() - failed,
                   cfg.output_dir.c_str(), resumed, failed);
    }

    if (print_summary) {
      std::fputs(core::campaign_summary_json(result).c_str(), stdout);
    } else {
      const core::MeasureOneReport& s = result.summary;
      std::fprintf(stderr,
                   "campaign '%s': %zu cells, %d trials, %d violations "
                   "(%d agreement, %d validity), %d decided, mean metric "
                   "%.6g\n",
                   cfg.name.c_str(), result.cells.size(), s.trials,
                   s.agreement_violations + s.validity_violations,
                   s.agreement_violations, s.validity_violations,
                   s.decided_runs, s.mean_windows_to_first);
    }
    return (result.summary.clean() && failed == 0) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign: %s\n", e.what());
    return 2;
  }
}
