#include "sim/simulator.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "sim/fleet.hpp"

namespace san {

SimResult& SimResult::operator+=(const SimResult& o) {
  routing_cost += o.routing_cost;
  rotation_count += o.rotation_count;
  edge_changes += o.edge_changes;
  cross_shard += o.cross_shard;
  requests += o.requests;
  rebalance_epochs += o.rebalance_epochs;
  migrations += o.migrations;
  migration_cost += o.migration_cost;
  shard_splits += o.shard_splits;
  shard_merges += o.shard_merges;
  lifecycle_cost += o.lifecycle_cost;
  replica_reads += o.replica_reads;
  faults_injected += o.faults_injected;
  replica_promotions += o.replica_promotions;
  recovery_replayed += o.recovery_replayed;
  recovery_cost += o.recovery_cost;
  recovery_total_ms += o.recovery_total_ms;
  recovery_max_ms = std::max(recovery_max_ms, o.recovery_max_ms);
  worker_kills += o.worker_kills;
  queue_pressure_events += o.queue_pressure_events;
  shed_requests += o.shed_requests;
  shed_queue_full += o.shed_queue_full;
  shed_throttled += o.shed_throttled;
  deadline_expired += o.deadline_expired;
  cross_shed += o.cross_shed;
  queue_full_blocks += o.queue_full_blocks;
  breaker_trips += o.breaker_trips;
  reordered_requests += o.reordered_requests;
  return *this;
}

SimResult run_trace(AnyNetwork& net, const Trace& trace,
                    const ScheduleConfig& sched) {
  return net.visit([&](auto& n) { return run_trace(n, trace, sched); });
}

SimResult run_trace_stream(AnyNetwork& net, RequestStream& stream,
                           const ScheduleConfig& sched) {
  return net.visit([&](auto& n) { return run_trace_stream(n, stream, sched); });
}

SimResult run_trace_static(const KAryTree& tree, const Trace& trace,
                           const ScheduleConfig& sched) {
  sched.validate();
  SimResult res;
  res.schedule = sched.policy;
  if (!sched.reorders()) {
    for (const Request& r : trace.requests) {
      res.routing_cost += serve_on_static_tree(tree, r.src, r.dst).routing_cost;
      ++res.requests;
    }
    return res;
  }
  // A static tree never rotates, so total routing cost is invariant under
  // any permutation — locality scheduling here is purely a cache/MLP play
  // (tests assert the cost tie).
  std::vector<Request> buf = trace.requests;
  LocalityScheduler scheduler(sched);
  scheduler.run(
      tree, std::span<Request>(buf),
      [](const Request& r) { return ScheduleEndpoints{r.src, r.dst}; },
      [&](const Request& r) {
        res.routing_cost +=
            serve_on_static_tree(tree, r.src, r.dst).routing_cost;
        ++res.requests;
      });
  res.reordered_requests = scheduler.reordered();
  return res;
}

namespace {

/// Serves one contiguous slice of the trace through the batched pipeline
/// and accumulates its costs into `res`; returns the slice's cross/intra
/// split for the fleet controller.
CostSplit drain_chunk(ShardedNetwork& net, std::span<const Request> chunk,
                      const ShardedRunOptions& opt, SimResult& res) {
  PartitionedTrace pt = partition_trace(chunk, net.map());
  const int S = net.num_shards();

  // One result slot and one queue per shard: workers share nothing, so the
  // drain is deterministic regardless of scheduling (locality reordering
  // included — it permutes each shard's own queue deterministically).
  std::vector<ShardDrain> partial(static_cast<std::size_t>(S));
  if (opt.sequential) {
    for (int s = 0; s < S; ++s)
      partial[static_cast<std::size_t>(s)] =
          drain_shard(net.shard(s), net.replica_mut(s),
                      pt.ops[static_cast<std::size_t>(s)], opt.schedule);
  } else {
    parallel_for(0, S, opt.threads, [&](long s) {
      partial[static_cast<std::size_t>(s)] =
          drain_shard(net.shard(static_cast<int>(s)),
                      net.replica_mut(static_cast<int>(s)),
                      pt.ops[static_cast<std::size_t>(s)], opt.schedule);
    });
  }

  // Combine in shard index order (fixed, mode-independent): per-shard sums
  // plus the static top-level legs of every cross-shard request.
  CostSplit split;
  Cost total = 0, ascents = 0;
  for (int s = 0; s < S; ++s) {
    const ShardDrain& p = partial[static_cast<std::size_t>(s)];
    res += p.sim;
    total += p.sim.total_cost();
    ascents += p.ascent_cost;
  }
  split.cross_cost = ascents;
  for (int a = 0; a < S; ++a)
    for (int b = 0; b < S; ++b) {
      const std::size_t pairs =
          pt.cross_pairs[static_cast<std::size_t>(a) *
                             static_cast<std::size_t>(S) +
                         static_cast<std::size_t>(b)];
      if (pairs != 0) {
        const Cost legs = static_cast<Cost>(pairs) * net.top_distance(a, b);
        res.routing_cost += legs;
        split.cross_cost += legs;
      }
    }
  split.intra_cost = total - ascents;
  split.cross_requests = pt.cross_requests;
  split.intra_requests = pt.total_requests - pt.cross_requests;
  res.cross_shard += static_cast<Cost>(pt.cross_requests);
  net.note_cross_served(static_cast<Cost>(pt.cross_requests));
  return split;
}

/// Drains one chunk, split at the scripted events due inside it;
/// `served_before` is the global index of chunk[0]. Each event fires
/// between the sub-chunks, and every event is a resume point, so a kill's
/// tail is exactly the sub-chunk served since the last snapshot. Sub-chunk
/// drains concatenate to the unsplit drain (additive counters, per-shard
/// op order preserved), so sequential == concurrent still holds with
/// faults active, and under FIFO the serve counters bit-match the
/// unfaulted run (locality windows legitimately re-seat at the split).
CostSplit drain_faulted(ShardedNetwork& net, std::span<const Request> chunk,
                        std::size_t served_before, RecoveryLog& log,
                        const ShardedRunOptions& opt, SimResult& res) {
  CostSplit split;
  std::size_t done = 0;
  while (const FaultEvent* due = log.next_due(served_before + chunk.size())) {
    const std::size_t at = due->at_request - served_before;
    const std::span<const Request> tail = chunk.subspan(done, at - done);
    if (!tail.empty()) split += drain_chunk(net, tail, opt, res);
    const FaultEvent ev = log.take(net);
    switch (ev.kind) {
      case FaultKind::kShardKill:
        log.recover(net, ev.shard, tail, opt.schedule, res);
        break;
      case FaultKind::kWorkerKill:
        // Batch drains spawn workers per chunk; there is no persistent
        // thread to kill, so the event only counts (the frontend is
        // where it bites).
        ++res.worker_kills;
        break;
      case FaultKind::kQueuePressure:
        ++res.queue_pressure_events;  // no queues in the batch pipeline
        break;
    }
    log.snapshot(net);
    done = at;
  }
  if (done < chunk.size())
    split += drain_chunk(net, chunk.subspan(done), opt, res);
  return split;
}

/// Pulls from `stream` until `out` is full or the stream ends; returns how
/// many requests landed. A single fill() may legally return short, but the
/// epoch machinery needs exact epoch-sized chunks so the streamed and
/// materialized paths place every barrier identically.
std::size_t fill_exact(RequestStream& stream, std::span<Request> out) {
  std::size_t have = 0;
  while (have < out.size()) {
    const std::size_t got = stream.fill(out.subspan(have));
    if (got == 0) break;
    have += got;
  }
  return have;
}

}  // namespace

SimResult run_trace_sharded_stream(ShardedNetwork& net, RequestStream& stream,
                                   const ShardedRunOptions& opt) {
  opt.schedule.validate();
  SimResult res;
  res.schedule = opt.schedule.policy;
  const std::size_t total = stream.size();
  FleetController fleet(opt.rebalance, net);
  RecoveryLog log(opt.faults);

  // Drain a chunk, then — when the controller is active — account it into
  // the planning window and run the epoch barrier before the next one.
  // Chunking is cost-invariant (additive counters, per-shard order
  // preserved across boundaries), so an inactive controller streams in
  // fixed chunks and still matches the one-big-chunk materialized drain
  // bit for bit. The final chunk skips the barrier: there is nothing left
  // to serve, so a rebalance there would be pure cost.
  const std::size_t chunk_requests =
      fleet.active() ? fleet.epoch_requests() : kStreamChunkRequests;
  std::vector<Request> buf(std::min(total, chunk_requests));
  while (true) {
    // Chunk start is a resume point — taken before the fill so an empty
    // run (or a stream that ends early) still has one for the post-loop
    // events below.
    log.snapshot(net);
    const std::size_t got = fill_exact(stream, buf);
    if (got == 0) break;
    const std::span<const Request> chunk(buf.data(), got);
    const CostSplit split =
        drain_faulted(net, chunk, res.requests, log, opt, res);
    res.requests += got;
    if (res.requests >= total || got < chunk_requests) break;
    if (!fleet.active()) continue;
    for (const Request& r : chunk) fleet.observe(r, net.map());
    fleet.barrier(net, split, res);
  }
  // Events due at the very end of an empty run (every other due event fired
  // inside its chunk).
  drain_faulted(net, {}, res.requests, log, opt, res);
  res.final_shards = net.num_shards();

  // Dispatch-time intra fraction from the drain counters. When nodes
  // migrated this reflects the maps requests were actually served under;
  // the Trace& adapter upgrades it to a final-map re-scan, which a
  // single-pass stream cannot do.
  res.post_intra_fraction =
      res.requests == 0
          ? 0.0
          : 1.0 - static_cast<double>(res.cross_shard) /
                      static_cast<double>(res.requests);
  return res;
}

SimResult run_trace_sharded(ShardedNetwork& net, const Trace& trace,
                            const ShardedRunOptions& opt) {
  TraceStream stream(trace);
  SimResult res = run_trace_sharded_stream(net, stream, opt);
  rescan_post_intra_fraction(trace, net.map(), res);
  return res;
}

}  // namespace san
