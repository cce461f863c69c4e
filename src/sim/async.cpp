#include "sim/async.hpp"

#include "util/check.hpp"

namespace aa::sim {

AsyncRunResult run_async(Execution& exec, AsyncAdversary& adv, int t,
                         std::int64_t max_deliveries,
                         bool until_all_decided) {
  const int n = exec.n();
  adv.prepare(n, t);
  // Publish every processor's initial staged messages.
  for (ProcId p = 0; p < n; ++p) exec.sending_step(p);

  AsyncRunResult result;
  auto done = [&]() {
    return until_all_decided ? exec.all_live_decided()
                             : exec.decided_count() > 0;
  };

  while (!done() && result.deliveries < max_deliveries) {
    const AsyncAction action = adv.next(exec);
    if (std::holds_alternative<StopAction>(action)) {
      result.stopped_by_adversary = true;
      return result;
    }
    if (const auto* c = std::get_if<CrashAction>(&action)) {
      AA_REQUIRE(exec.crashed_count() < t,
                 "async adversary exceeded its crash budget t");
      exec.crash(c->p);
      ++result.crashes;
      continue;
    }
    const auto& d = std::get<DeliverAction>(action);
    AA_REQUIRE(exec.buffer().is_pending(d.id),
               "async adversary delivered a non-pending message");
    const ProcId receiver = exec.buffer().get(d.id).receiver;
    AA_REQUIRE(!exec.crashed(receiver),
               "async adversary delivered to a crashed processor");
    exec.receiving_step(d.id);
    ++result.deliveries;
    // Atomic receive+send: publish the receiver's staged response now.
    exec.sending_step(receiver);
    exec.audit_if_due(result.deliveries);
  }
  result.hit_step_limit = !done();
  return result;
}

}  // namespace aa::sim
