// ServeFrontend: the live open-loop serving engine — a dynamic fleet of
// worker threads over per-shard bounded MPSC inboxes, fed by an
// arrival-timed dispatcher, with cross-shard requests handed over between
// workers through per-shard mailboxes (the RPC/handover split of
// disaggregated stores like DiStore, replacing the batch pipeline's epoch
// barrier).
//
// Topology of one run:
//
//   caller thread (dispatcher)            worker threads, one per shard
//   ─────────────────────────             ──────────────────────────────
//   wait until arrival[i]                 drain inbox (mailbox first,
//   admission control: token              then main queue, ≤ 64 per
//     bucket, deadline, queue             wakeup = batched admission)
//     policy (block/shed)                 re-resolve shard through the
//   route r_i via the shard-route         route table per batch
//     table                   ──push──►   intra: shard.serve(u, v)
//   observe into rebalancer               cross 1st leg: shard.access(u),
//   every epoch: quiesce, plan,             mailbox-push to dst worker
//     migrate, split/merge,                 (bounded retry + breaker)
//     reshape the worker fleet            cross 2nd leg: shard.access(v)
//                                           + top-tree legs, complete
//
// Dynamic worker lifecycle: workers are not pinned to a shard at
// construction. A shard-route table (shard id -> worker slot) is
// consulted per admitted batch and per handover, so the whole shard
// lifecycle runs mid-flight under live traffic: watermark splits spawn a
// fresh worker for the new shard, merges retire and join the vacated worker,
// replica promotion and snapshot-restore recovery rebuild a killed
// shard — all at the existing quiesce barrier (completed == dispatched),
// where no request is in flight and the route can change shape safely.
// What changes at a barrier is not decided here: the frontend calls the
// batch pipeline's FleetController and RecoveryLog (sim/fleet.hpp), so
// both drivers plan, reshape and recover the fleet the same way, and only
// maps the returned FleetDelta onto its workers and route table.
// Route/fleet mutations are published to workers through the inbox
// mutexes (every item a worker pops was pushed after the mutation); each
// worker re-reads its shard from the table once per admitted batch.
//
// Cost accounting is identical to the batched pipeline (and hence to
// per-request ShardedNetwork::serve): intra requests are exact Section 2
// accounting, a cross-shard request pays both root ascents plus the
// static top-tree route. At S = 1 with FIFO admission the single inbox
// preserves trace order, so the total cost bit-matches closed-loop batch
// replay for any arrival process (locked by tests/test_frontend.cpp). At
// S > 1 the per-shard interleaving of direct and handed-over ops depends
// on real-time scheduling, so costs are statistically but not bit
// reproducible — the price of measuring actual latency.
//
// Overload control: the admission plane is explicit instead of an
// implicit infinite queue. The full-queue policy picks what happens when
// a shard's main inbox is full — kBlock (backpressure the dispatcher;
// the pre-overload-control behavior, still the default and still
// lossless) or kShed (drop the request, count it, record its age in the
// shed histogram). kDeadline gives every request an absolute deadline
// (arrival + deadline_ms): dead requests are shed at admission and again
// at dequeue — a request that expired while queued is dropped before it
// can touch a tree, so deadline-expired requests never mutate state. An
// optional token bucket (admit_rate, 64 tokens deep, refilled from the
// *intended* arrival clock, so its admit/shed pattern is a deterministic
// function of the schedule) throttles admission upstream of the queues.
// Every drop lands in SimResult's shed counters and the shed-age
// histogram; a run with no drops is bit-identical to the pre-overload
// engine.
//
// Cross-shard resilience (kShed/kDeadline only; kBlock keeps the
// lossless unbounded-mailbox semantics): handover mailboxes are bounded
// at 4 x queue_capacity, a full push is retried up to 3 times with
// deterministic seeded backoff, and each shard has a circuit breaker —
// tripped by 8 consecutive retry exhaustions (half-opens on a probe
// cadence) or forced open by the dispatcher while the shard is
// mid-recovery — that sheds cross-shard legs instead of stalling the
// sender behind a struggling shard.
//
// Latency: each request carries its intended arrival timestamp; sojourn
// (queue wait + service, including both legs and every mailbox hop of a
// cross-shard request) is recorded into per-worker LatencyHistograms and
// merged after the run — the mergeable-summary path to global p50/p99/p999.
// Shed requests are recorded in the separate shed histogram (age at drop)
// and never in sojourn: served latency stays honest under degradation.
#pragma once

#include <cstdint>
#include <span>

#include "sim/sharded_network.hpp"
#include "sim/simulator.hpp"
#include "stats/latency_histogram.hpp"
#include "workload/arrival.hpp"

namespace san {

/// What the dispatcher does when a shard's main inbox is full — and, for
/// kDeadline, what a request's deadline means. See the file comment.
enum class QueuePolicy : std::uint8_t {
  kBlock = 0,  ///< wait for space: lossless backpressure (the default; the
               ///< pre-overload-control behavior bit for bit, with the
               ///< wait now counted in SimResult::queue_full_blocks)
  kShed = 1,   ///< drop the request at a full queue, count + histogram it
  kDeadline = 2,  ///< block at a full queue, but shed requests whose
                  ///< absolute deadline (arrival + deadline_ms) has passed
                  ///< — at admission and again at dequeue
};

const char* queue_policy_name(QueuePolicy policy);

struct FrontendOptions {
  /// Bound of each shard's main request queue. What happens when it fills
  /// is queue_policy's call; under kBlock the dispatcher blocks while the
  /// target queue is full (arrival timestamps keep counting, so the
  /// backpressure is charged to latency, not hidden). Under kShed and
  /// kDeadline each handover mailbox is bounded at 4 x this.
  std::size_t queue_capacity = 1024;
  /// Full-queue / deadline semantics (see QueuePolicy). kBlock is
  /// lossless; kShed and kDeadline are the degradation modes that also
  /// bound the handover mailboxes and arm the circuit breakers.
  QueuePolicy queue_policy = QueuePolicy::kBlock;
  /// kDeadline: per-request budget in milliseconds from intended arrival.
  /// Must be > 0 under kDeadline and 0 otherwise (validated).
  double deadline_ms = 0.0;
  /// > 0 arms the token-bucket admission throttle (64 tokens deep) at this
  /// many requests/s. The bucket refills from the intended-arrival clock,
  /// so which requests it sheds is a deterministic function of the arrival
  /// schedule (under a saturation schedule the clock never advances: only
  /// the initial 64 are admitted). Works under every queue policy.
  double admit_rate = 0.0;
  /// Non-null + enabled() turns on online rebalancing epochs (see file
  /// comment); lifecycle knobs (split/merge watermarks, planned replicas)
  /// are honored mid-flight: splits spawn workers, merges retire them,
  /// replicas are reconciled — all at quiesce barriers, exactly like the
  /// batch pipeline's drain barriers. Statically replicated shards
  /// (ShardedNetwork::add_replica before the run) work too — workers
  /// mirror into them and serve intra-shard requests from them.
  const RebalanceConfig* rebalance = nullptr;
  /// Non-null + enabled() injects scripted faults (sim/fault.hpp): each
  /// event fires once at_request requests have been offered — checked
  /// before each dispatch and once after the last, so an event at m
  /// fires and one at m + 1 does not.
  /// kShardKill quiesces the pipeline, then recovers the shard — replica
  /// promotion when one exists, else a checksummed snapshot restore plus
  /// a dispatch-order replay of the killed shard's ops since the
  /// snapshot. At S = 1 under FIFO the rebuild is bit-identical to the
  /// lost state; at S > 1 it is dispatch-order-consistent (the racy
  /// mailbox interleaving that produced the lost state is not recorded).
  /// kWorkerKill retires and respawns the shard's worker thread (data
  /// intact); kQueuePressure collapses the shard's inbox bound until the
  /// next barrier. Recovery wall time lands in
  /// SimResult::recovery_total_ms/_max_ms and every pause is charged to
  /// arrivals like any other stall.
  const FaultPlan* faults = nullptr;
  /// Serve order within each admitted batch (sim/schedule.hpp). FIFO keeps
  /// the inbox order (and hence the S = 1 bit-match with batch replay);
  /// kLocality reorders each batch by LCA cluster against the worker's own
  /// shard tree before serving — fleet changes only land at quiesce
  /// barriers, so the map is stable for the whole batch. Validated at
  /// construction.
  ScheduleConfig schedule{};
};

struct FrontendResult {
  /// Serve-path totals in the batch pipeline's conventions; latency lives
  /// in the histograms below. cross_shard counts requests that were
  /// cross-shard under the map at dispatch time; sim.requests counts every
  /// request the schedule offered (admitted or shed), so sojourn.count() +
  /// sim.shed_requests == sim.requests.
  SimResult sim;
  /// Queue wait + service time per served request, nanoseconds, measured
  /// from the intended arrival, so a backlogged server cannot hide its
  /// stalls (no coordinated omission).
  LatencyHistogram sojourn;
  /// Arrival-to-first-admission wait per served request, nanoseconds.
  LatencyHistogram queue_wait;
  /// Age (now - intended arrival) at the moment a request was dropped,
  /// nanoseconds — the "how stale was what we refused" histogram. Empty
  /// when nothing was shed.
  LatencyHistogram shed;
  double elapsed_seconds = 0.0;  ///< first dispatch to last completion
  double offered_rate = 0.0;     ///< requests/s of the arrival schedule
                                 ///< (0 for saturation)
  double achieved_rate = 0.0;    ///< served requests / elapsed
  std::size_t handovers = 0;     ///< first-leg mailbox handovers performed
  std::size_t forwards = 0;      ///< ops re-routed after losing a race
                                 ///< with a migration or a fleet change
  std::uint64_t route_epochs = 0;  ///< shard-route-table versions published
                                   ///< (fleet/map changes during the run)
};

class ServeFrontend {
 public:
  /// The frontend serves through `net`, which must outlive it. Worker
  /// threads are spawned per run() (one per live shard, plus one per
  /// mid-run split) and joined before it returns.
  explicit ServeFrontend(ShardedNetwork& net, FrontendOptions opt = {});

  /// Serves `trace` open-loop: request i is dispatched at `arrivals[i]`
  /// nanoseconds after the run starts (gen_arrival_times produces the
  /// schedule; all-zero = saturation). Blocks until every request has
  /// completed or been shed. Throws TreeError when the sizes disagree or
  /// the options are invalid. Thin adapter over run_stream (TraceStream +
  /// FixedArrivalSchedule), plus a final-map post_intra_fraction re-scan
  /// when migrations or splits/merges occurred — the only thing a
  /// single-pass stream cannot reproduce.
  FrontendResult run(const Trace& trace,
                     std::span<const std::uint64_t> arrivals);

  /// Streaming engine: pulls requests from `stream` in O(chunk) memory and
  /// one arrival timestamp per request from `schedule`, so an m = 10^8
  /// open-loop run needs neither the materialized trace nor the 800 MB
  /// arrival vector. Identical serving machinery to run() — workers,
  /// mailboxes, quiesce barriers, epoch placement — the only divergence is
  /// post_intra_fraction, computed from dispatch-time counters.
  FrontendResult run_stream(RequestStream& stream, ArrivalSchedule& schedule);

 private:
  ShardedNetwork& net_;
  FrontendOptions opt_;
};

}  // namespace san
