// Umbrella header: the library's public API.
//
// #include "core/api.hpp" pulls in everything a downstream user needs:
//   * the §3 reset-tolerant agreement protocol and the baselines,
//   * the acceptable-window and async simulation engines,
//   * the adversary suite,
//   * the Experiment + Runner API, the measure-one and exhaustive checkers,
//     and the campaign engine,
//   * the lower-bound machinery (Talagrand, Z-sets, Theorem 5 constants).
#pragma once

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/campaign.hpp"
#include "core/checker.hpp"
#include "core/exhaustive.hpp"
#include "core/experiment.hpp"
#include "core/lowerbound.hpp"
#include "core/report.hpp"
#include "core/zsets.hpp"
#include "prob/binomial.hpp"
#include "prob/hybrid.hpp"
#include "prob/talagrand.hpp"
#include "protocols/byzantine.hpp"
#include "protocols/committee.hpp"
#include "protocols/factory.hpp"
#include "sim/async.hpp"
#include "sim/execution.hpp"
#include "sim/window.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
