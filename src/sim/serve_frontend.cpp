#include "sim/serve_frontend.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/fleet.hpp"

namespace san {
namespace {

using Clock = std::chrono::steady_clock;

/// Max requests a worker admits per wakeup (the B of batched admission).
constexpr std::size_t kAdmissionBatch = 64;
/// Depth of the admission token bucket (armed by admit_rate > 0).
constexpr double kAdmitBurst = 64.0;
/// Handover mailbox bound under kShed/kDeadline, in units of
/// queue_capacity. Under kBlock mailboxes stay unbounded: handover traffic
/// is already bounded by the main queues, and a bounded worker-to-worker
/// push could deadlock a cycle of full shards — the degradation modes
/// break that cycle by shedding after bounded retries instead.
constexpr std::size_t kMailboxPerQueue = 4;
/// Retries of a full handover push before the leg is shed.
constexpr int kHandoverRetries = 3;
/// Consecutive retry exhaustions against one shard that trip its breaker.
constexpr int kBreakerThreshold = 8;

/// Seeds the per-worker deterministic backoff schedule between handover
/// retries.
constexpr std::uint64_t kBackoffSeed = 0x5EED;

/// splitmix64, the deterministic stream behind handover-retry backoff
/// jitter. Stable across platforms so a backoff schedule is a pure
/// function of (kBackoffSeed, worker slot).
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Circuit-breaker states, one per shard. kRecovery is dispatcher-owned
/// (set around a shard kill's recovery window); kOpen is worker-owned
/// (tripped by handover-retry exhaustion, half-opened by a probe).
constexpr int kBreakerClosed = 0;
constexpr int kBreakerOpen = 1;
constexpr int kBreakerRecovery = 2;

struct Breaker {
  std::atomic<int> state{kBreakerClosed};
  std::atomic<int> failures{0};
};

/// One queued operation, in global ids (local ids are resolved on
/// admission so queued items survive migrations).
struct QueueItem {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;          ///< kNoNode marks a handover second leg
  std::uint64_t arrival_ns = 0;  ///< intended arrival (latency origin)
  std::uint64_t deadline_ns = 0;  ///< absolute deadline; 0 = none. Only
                                  ///< fresh items carry one: a handover
                                  ///< second leg always completes (its
                                  ///< first leg already mutated a tree).
  Cost pending_top = 0;           ///< top-tree legs accumulated so far

  bool is_handover() const { return dst == kNoNode; }
};

/// Per-shard inbox: a bounded main queue (dispatcher -> worker) plus a
/// mailbox (worker -> worker handovers) that is unbounded under kBlock
/// and bounded under the degradation modes. MPSC; one mutex and one
/// wakeup per admitted *batch*, not per request.
class ShardInbox {
 public:
  ShardInbox(std::size_t capacity, std::size_t mail_capacity)
      : capacity_(capacity), mail_capacity_(mail_capacity) {}

  /// Dispatcher push onto the main queue. Returns false when the queue was
  /// full on arrival (the queue_full_blocks signal): with `wait` the call
  /// then blocks until there is room and pushes anyway, without it the
  /// item is not pushed.
  bool push(const QueueItem& item, bool wait) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool room = main_.size() < capacity_;
    if (!room) {
      if (!wait) return false;
      not_full_.wait(lock, [&] { return main_.size() < capacity_; });
    }
    const bool was_empty = main_.empty() && mail_.empty();
    main_.push_back(item);
    if (was_empty) not_empty_.notify_one();
    return room;
  }

  /// Worker-to-worker handover push; never blocks. False when the mailbox
  /// is bounded (degradation modes) and full — callers retry or shed.
  bool push_mail(const QueueItem& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (mail_capacity_ != 0 && mail_.size() >= mail_capacity_) return false;
    const bool was_empty = main_.empty() && mail_.empty();
    mail_.push_back(item);
    if (was_empty) not_empty_.notify_one();
    return true;
  }

  /// Admits up to `max_items` into `out`, mailbox first (handover ops are
  /// half-served; finishing them first bounds cross-shard sojourn).
  /// Blocks while empty; returns 0 only when closed and fully drained.
  std::size_t pop_batch(std::vector<QueueItem>& out, std::size_t max_items) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock,
                    [&] { return closed_ || !mail_.empty() || !main_.empty(); });
    std::size_t n = 0;
    while (n < max_items && !mail_.empty()) {
      out.push_back(mail_.front());
      mail_.pop_front();
      ++n;
    }
    bool popped_main = false;
    while (n < max_items && !main_.empty()) {
      out.push_back(main_.front());
      main_.pop_front();
      popped_main = true;
      ++n;
    }
    if (popped_main) not_full_.notify_one();  // single dispatcher waits here
    return n;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Re-arms a closed, drained inbox so a respawned worker (worker-kill
  /// recovery) or a slot-reusing split can serve from it again.
  void reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
  }

  /// Dispatcher-only (same thread as push): the kQueuePressure fault
  /// collapses the bound, the next quiesce barrier restores it.
  void set_capacity(std::size_t capacity) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      capacity_ = capacity;
    }
    not_full_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<QueueItem> mail_;
  std::deque<QueueItem> main_;
  std::size_t capacity_;
  std::size_t mail_capacity_;  ///< 0 = unbounded (kBlock compat mode)
  bool closed_ = false;
};

/// One worker slot. Written only by the slot's worker thread, except
/// `rng`, which the dispatcher reseeds before each thread start on the
/// slot. A slot keeps its accumulators across worker-kill respawns and
/// shard reassignments, so counters only ever accumulate; the dispatcher
/// reads them at quiesce barriers (ordered by the acquire load of
/// `completed` against the workers' release increments) and after join.
/// The trailing histograms make the struct large enough that neighbouring
/// workers' hot fields do not share a cache line.
struct WorkerState {
  explicit WorkerState(const ScheduleConfig& schedule) : scheduler(schedule) {}

  std::uint64_t rng = 0;  ///< handover-retry backoff jitter stream
  std::vector<QueueItem> batch;
  LocalityScheduler scheduler;
  /// Serve counters plus this worker's replica reads and dequeue/handover
  /// sheds (deadline_expired, cross_shed, breaker_trips).
  SimResult sim;
  /// Measured cross/intra split feeding the fleet controller's cost
  /// model (ascents + top legs vs local serves; cross_requests counts
  /// completed second legs), same convention as the batch pipeline.
  CostSplit split;
  std::size_t handovers = 0;
  std::size_t forwards = 0;
  std::uint64_t probe_clock = 0;  ///< half-open probe cadence counter
  LatencyHistogram sojourn;
  LatencyHistogram queue_wait;
  LatencyHistogram shed;  ///< age at drop of dequeue/handover sheds
};

/// One run_stream call. Each worker thread runs `while (step(w))` on its
/// slot; everything else — arrival pacing, admission control, the epoch
/// and fault barriers, reshaping the worker fleet — runs on the caller
/// thread, the dispatcher.
class FrontendRun {
 public:
  FrontendRun(ShardedNetwork& net, const FrontendOptions& opt);
  /// Workers hold `this`: the run neither copies nor moves.
  FrontendRun(const FrontendRun&) = delete;
  FrontendRun& operator=(const FrontendRun&) = delete;
  /// Joins the workers on every path out of serve(), exceptions included.
  ~FrontendRun() { stop_workers(); }

  FrontendResult serve(RequestStream& stream, ArrivalSchedule& schedule);

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }
  ShardInbox& inbox_of(int shard) {
    return *inboxes_[route_[static_cast<std::size_t>(shard)]];
  }

  // ---- worker side ---------------------------------------------------------
  bool step(std::size_t w);
  void hand_over(WorkerState& ws, int target, const QueueItem& leg);
  /// Records `item`'s age into `hist` and counts it done, so the quiesce
  /// accounting sees every admitted request exactly once.
  void finish(LatencyHistogram& hist, const QueueItem& item) {
    hist.record(now_ns() - item.arrival_ns);
    completed_.fetch_add(1, std::memory_order_release);
  }

  // ---- fleet (dispatcher, at barriers) -------------------------------------
  void start_worker(std::size_t w);
  void stop_workers();
  void spawn_worker(int shard_id);
  void retire_shard(int shard_id);
  void quiesce();
  void set_breaker(int shard, int state);
  void epoch_barrier();
  void resume_point();
  void fire_due(std::size_t offered);

  // ---- admission (dispatcher) ----------------------------------------------
  bool admit(const Request& r, std::uint64_t due);
  void shed_admission(std::uint64_t arrival_ns) {
    res_.shed.record(now_ns() - arrival_ns);
  }

  ShardedNetwork& net_;
  const FrontendOptions& opt_;
  const bool degrade_;  ///< kShed/kDeadline: bounded mailboxes + breakers
  Clock::time_point start_;
  FrontendResult res_;

  // Worker slots, preallocated to the lifecycle ceiling so the fleet can
  // grow without reallocating any array a live worker reads: splits claim
  // a fresh (or previously retired) slot, merges retire one.
  std::vector<std::unique_ptr<ShardInbox>> inboxes_;  // mutexes don't move
  std::vector<WorkerState> workers_;
  // The shard-route table: shard id -> worker slot (`route_`) and its
  // inverse (`owned_`, -1 = slot free/retired). Mutated by the dispatcher
  // only at quiesce barriers — the pipeline is empty, every worker is
  // parked in pop_batch — and published through the inbox mutexes (any
  // item a worker pops was pushed after the mutation).
  std::vector<std::size_t> route_;
  std::vector<int> owned_;
  std::vector<Breaker> breakers_;  ///< per shard; degradation modes only
  std::atomic<std::size_t> completed_{0};
  std::vector<std::thread> threads_;  // after everything the workers use

  std::size_t dispatched_ = 0;  ///< admitted into a queue
  std::size_t cross_dispatched_ = 0;
  FleetController fleet_;
  CostSplit measured_;  ///< the workers' summed split at the last barrier
  bool pressured_ = false;  ///< a queue-pressure window is open
  RecoveryLog log_;
  std::vector<Request> fault_tail_;  ///< admitted since the snapshots
  double tokens_ = kAdmitBurst;
  std::uint64_t bucket_clock_ = 0;  ///< last intended-arrival refill instant
};

FrontendRun::FrontendRun(ShardedNetwork& net, const FrontendOptions& opt)
    : net_(net),
      opt_(opt),
      degrade_(opt.queue_policy != QueuePolicy::kBlock),
      fleet_(opt.rebalance, net),
      log_(opt.faults) {
  const int s0 = net.num_shards();
  const bool lifecycle =
      opt.rebalance != nullptr && opt.rebalance->lifecycle_enabled();
  const auto slots = static_cast<std::size_t>(
      lifecycle ? std::max(s0, opt.rebalance->max_shards) : s0);
  inboxes_.resize(slots);
  workers_.assign(slots, WorkerState(opt.schedule));
  route_.assign(slots, 0);
  owned_.assign(slots, -1);
  breakers_ = std::vector<Breaker>(slots);
  threads_.resize(slots);
}

// ---- worker side -----------------------------------------------------------

// The worker step: admits one batch from the slot's inbox, resolves the
// slot's shard, orders the batch, and serves each item. Returns false once
// the inbox is closed and drained.
bool FrontendRun::step(std::size_t w) {
  WorkerState& ws = workers_[w];
  ws.batch.clear();
  if (inboxes_[w]->pop_batch(ws.batch, kAdmissionBatch) == 0) return false;
  // The route table, the shard vector and the map change only at quiesce
  // barriers, so they are stable for the whole batch. Reading them only
  // after a pop keeps every read between an inbox pop (which follows the
  // barrier's mutation through the inbox mutex) and this worker's own
  // `completed` release (which the next barrier acquires).
  const int me = owned_[w];
  KArySplayNet& shard = net_.shard(me);
  const ShardMap& map = net_.map();
  // Resolves an item into this shard's local ids for the scheduler: items
  // for other shards (forwards) key as foreign ops, handovers and first
  // legs as root ascents.
  auto resolve = [&](const QueueItem& item) -> ScheduleEndpoints {
    if (map.shard_of(item.src) != me) return {kNoNode, kNoNode};
    const NodeId u = map.local_of(item.src);
    if (item.is_handover() || map.shard_of(item.dst) != me)
      return {u, kNoNode};
    return {u, map.local_of(item.dst)};
  };
  auto serve = [&](const QueueItem& item) {
    const int home = map.shard_of(item.src);
    if (home != me) {
      // Lost a race with a migration: forward to the node's new shard (a
      // handover leg prices in the extra top-tree hop).
      QueueItem fwd = item;
      if (item.is_handover()) fwd.pending_top += net_.top_distance(me, home);
      ++ws.forwards;
      hand_over(ws, home, fwd);
      return;
    }
    int b = me;  // a handover's second leg ends here
    if (!item.is_handover()) {
      // Deadline shed at dequeue, before any tree mutation: a request
      // that expired while queued never touches state.
      if (item.deadline_ns != 0 && now_ns() > item.deadline_ns) {
        ++ws.sim.deadline_expired;
        finish(ws.shed, item);
        return;
      }
      ws.queue_wait.record(now_ns() - item.arrival_ns);
      b = map.shard_of(item.dst);
    }
    const bool intra = !item.is_handover() && b == me;
    const ServeResult sr = serve_shard_op(
        shard, net_.replica_mut(me),
        {map.local_of(item.src), intra ? map.local_of(item.dst) : kNoNode},
        ws.sim.replica_reads);
    ws.sim.charge(sr);
    if (intra) {
      ws.split.intra_cost += sr.total_cost();
      ++ws.split.intra_requests;
      finish(ws.sojourn, item);
    } else if (item.is_handover()) {
      // Second leg of a cross-shard request: v ascended; charge the
      // accumulated top-tree legs and complete.
      ws.sim.routing_cost += item.pending_top;
      ws.split.cross_cost += sr.total_cost() + item.pending_top;
      ++ws.split.cross_requests;
      finish(ws.sojourn, item);
    } else {
      // First leg: u ascended to this shard's root; hand the request over
      // to v's shard with the top-tree route priced in.
      ws.split.cross_cost += sr.total_cost();
      ++ws.handovers;
      hand_over(ws, b, {.src = item.dst,
                        .arrival_ns = item.arrival_ns,
                        .pending_top = net_.top_distance(me, b)});
    }
  };
  ws.scheduler.run(shard.tree(), std::span<QueueItem>(ws.batch), resolve,
                   serve);
  return true;
}

// Delivers a mailbox leg to `target`'s worker, or sheds it. kBlock:
// unbounded push, always delivered. Degradation modes: the target's
// breaker may shed outright (open or mid-recovery), a full mailbox is
// retried with deterministic backoff, and exhaustion feeds the breaker.
void FrontendRun::hand_over(WorkerState& ws, int target,
                            const QueueItem& leg) {
  ShardInbox& box = inbox_of(target);
  if (!degrade_) {
    box.push_mail(leg);
    return;
  }
  Breaker& br = breakers_[static_cast<std::size_t>(target)];
  const int state = br.state.load(std::memory_order_acquire);
  if (state == kBreakerOpen) {
    // Half-open: every 16th leg probes the mailbox; one success closes the
    // breaker again.
    if (++ws.probe_clock % 16 == 0 && box.push_mail(leg)) {
      br.state.store(kBreakerClosed, std::memory_order_release);
      br.failures.store(0, std::memory_order_relaxed);
      return;
    }
  } else if (state == kBreakerClosed) {
    for (int attempt = 0;; ++attempt) {
      if (box.push_mail(leg)) {
        br.failures.store(0, std::memory_order_relaxed);
        return;
      }
      if (attempt >= kHandoverRetries) break;
      // Exponential base plus seeded jitter, microseconds-scale so retry
      // exhaustion resolves well under any realistic deadline.
      const std::uint64_t base = 2'000ull << attempt;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          base + splitmix64(ws.rng) % (base / 2 + 1)));
    }
    if (br.failures.fetch_add(1, std::memory_order_relaxed) + 1 >=
        kBreakerThreshold) {
      int expect = kBreakerClosed;
      if (br.state.compare_exchange_strong(expect, kBreakerOpen))
        ++ws.sim.breaker_trips;
    }
  }
  ++ws.sim.cross_shed;
  finish(ws.shed, leg);
}

// ---- fleet -----------------------------------------------------------------

// Starts a worker thread on slot `w`, with a fresh backoff stream.
void FrontendRun::start_worker(std::size_t w) {
  workers_[w].rng = kBackoffSeed ^ (0x9E3779B97F4A7C15ull * (w + 1));
  threads_[w] = std::thread([this, w] {
    while (step(w)) {
    }
  });
}

// Closes every inbox; each worker drains what it holds, then exits.
void FrontendRun::stop_workers() {
  for (auto& inbox : inboxes_)
    if (inbox != nullptr) inbox->close();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

// Every shard gets a worker of its own on the first free slot: at run
// start, and for the new shard of a split. A free slot always exists: the
// slots cover max(S0, max_shards) and the planner never splits a fleet at
// max_shards.
void FrontendRun::spawn_worker(int shard_id) {
  std::size_t w = 0;
  while (owned_[w] != -1 || threads_[w].joinable()) ++w;
  if (inboxes_[w] == nullptr)
    inboxes_[w] = std::make_unique<ShardInbox>(
        opt_.queue_capacity,
        degrade_ ? kMailboxPerQueue * opt_.queue_capacity : 0);
  else
    inboxes_[w]->reopen();  // reclaimed after an earlier merge retired it
  owned_[w] = shard_id;
  route_[static_cast<std::size_t>(shard_id)] = w;
  start_worker(w);
}

// A merge retires the vacated shard's worker, then renumbers: every shard
// id above it shifted down by one.
void FrontendRun::retire_shard(int shard_id) {
  const std::size_t w = route_[static_cast<std::size_t>(shard_id)];
  inboxes_[w]->close();
  threads_[w].join();
  owned_[w] = -1;
  for (std::size_t v = 0; v < owned_.size(); ++v) {
    int& o = owned_[v];
    if (o > shard_id) --o;
    if (o >= 0) route_[static_cast<std::size_t>(o)] = v;
  }
}

// The quiesce barrier: every dispatched request (handovers included) has
// completed or been shed, so the fleet is at rest; pressure windows end.
void FrontendRun::quiesce() {
  while (completed_.load(std::memory_order_acquire) < dispatched_)
    std::this_thread::yield();
  if (!pressured_) return;
  for (auto& inbox : inboxes_)
    if (inbox != nullptr) inbox->set_capacity(opt_.queue_capacity);
  pressured_ = false;
}

void FrontendRun::set_breaker(int shard, int state) {
  Breaker& br = breakers_[static_cast<std::size_t>(shard)];
  br.state.store(state, std::memory_order_release);
  br.failures.store(0, std::memory_order_relaxed);
}

// The epoch barrier: drain the pipeline, then plan and apply through the
// fleet controller, and reshape the workers to match. The dispatcher keeps
// the arrival clock running, so this pause is charged to every request
// that arrives during it. Breakers reset: the fleet just proved it can
// drain (and merge renumbering would stale per-shard state anyway).
void FrontendRun::epoch_barrier() {
  quiesce();
  if (degrade_)
    for (std::size_t s = 0; s < breakers_.size(); ++s)
      set_breaker(static_cast<int>(s), kBreakerClosed);
  CostSplit served;
  for (const WorkerState& ws : workers_) served += ws.split;
  const FleetDelta delta = fleet_.barrier(net_, served - measured_, res_.sim);
  measured_ = served;
  if (delta.spawned_shard >= 0) spawn_worker(delta.spawned_shard);
  if (delta.retired_shard >= 0) retire_shard(delta.retired_shard);
  if (delta.changed) ++res_.route_epochs;
  // The barrier may have rewritten the map or fleet: re-anchor the crash
  // tail so a later replay never spans it.
  resume_point();
}

// ---- scripted fault injection (sim/fault.hpp) ------------------------------
// While events are pending the dispatcher keeps the tail of requests
// admitted since the RecoveryLog's snapshots; resume points are run start,
// post-recovery and post-epoch-barrier instants, so the tail never spans a
// map change. A shard kill quiesces the pipeline, then recovers through the
// log with a FIFO replay of the tail in dispatch order: at S = 1 under FIFO
// admission that is bit-identical to the lost state; at S > 1 it is
// dispatch-order-consistent (the racy mailbox interleaving that produced
// the lost state was never recorded).
void FrontendRun::resume_point() {
  log_.snapshot(net_);
  fault_tail_.clear();
}

void FrontendRun::fire_due(std::size_t offered) {
  while (log_.next_due(offered) != nullptr) {
    const FaultEvent ev = log_.take(net_);
    const std::size_t w = route_[static_cast<std::size_t>(ev.shard)];
    switch (ev.kind) {
      case FaultKind::kShardKill:
        // Open the recovery breaker first so in-flight cross legs shed
        // instead of serving into the doomed shard (degradation modes;
        // kBlock stays lossless and drains them).
        if (degrade_) set_breaker(ev.shard, kBreakerRecovery);
        quiesce();
        log_.recover(net_, ev.shard, fault_tail_, ScheduleConfig{}, res_.sim);
        if (degrade_) set_breaker(ev.shard, kBreakerClosed);
        resume_point();
        break;
      case FaultKind::kWorkerKill: {
        // The thread dies, the shard's data survives: retire the worker at
        // the quiesce barrier and respawn a fresh one on the same slot
        // (same inbox, same accumulated counters).
        quiesce();
        const Clock::time_point t0 = Clock::now();
        ++res_.sim.worker_kills;
        inboxes_[w]->close();
        threads_[w].join();
        inboxes_[w]->reopen();
        start_worker(w);
        book_recovery_time(res_.sim, t0);
        resume_point();
        break;
      }
      case FaultKind::kQueuePressure:
        // No barrier: the shard's inbox bound collapses mid-flight and the
        // admission policy has to cope until the next barrier restores it.
        // The crash tail keeps accumulating (no tree or map change to
        // re-anchor against).
        pressured_ = true;
        inboxes_[w]->set_capacity(
            std::max<std::size_t>(1, opt_.queue_capacity / 8));
        ++res_.sim.queue_pressure_events;
        break;
    }
  }
}

// ---- admission control -----------------------------------------------------

// Admits one offered request through the token bucket, the admission
// deadline and the queue policy. Returns whether it was dispatched; a
// refused request is shed here, by the dispatcher itself.
bool FrontendRun::admit(const Request& r, std::uint64_t due) {
  // Token bucket, refilled from the intended-arrival clock: the admit/shed
  // pattern is a deterministic function of the schedule, not of wall-clock
  // jitter.
  if (opt_.admit_rate > 0.0) {
    tokens_ = std::min(kAdmitBurst,
                       tokens_ + static_cast<double>(due - bucket_clock_) *
                                     1e-9 * opt_.admit_rate);
    bucket_clock_ = due;
    if (tokens_ < 1.0) {
      ++res_.sim.shed_throttled;
      shed_admission(due);
      return false;
    }
    tokens_ -= 1.0;
  }
  QueueItem item{.src = r.src, .dst = r.dst, .arrival_ns = due};
  // deadline_ms is 0 unless the policy is kDeadline (validated).
  const auto budget_ns = static_cast<std::uint64_t>(opt_.deadline_ms * 1e6);
  if (budget_ns != 0) {
    item.deadline_ns = due + budget_ns;
    if (now_ns() > item.deadline_ns) {  // dead on arrival (backpressure)
      ++res_.sim.deadline_expired;
      shed_admission(due);
      return false;
    }
  }
  const int a = net_.map().shard_of(r.src);
  const bool wait = opt_.queue_policy != QueuePolicy::kShed;
  if (!inbox_of(a).push(item, wait)) {
    ++res_.sim.queue_full_blocks;
    if (!wait) {
      ++res_.sim.shed_queue_full;
      shed_admission(due);
      return false;
    }
  }
  if (net_.map().shard_of(r.dst) != a) ++cross_dispatched_;
  ++dispatched_;
  if (log_.pending()) fault_tail_.push_back(r);
  return true;
}

// ---- the run ---------------------------------------------------------------

FrontendResult FrontendRun::serve(RequestStream& stream,
                                  ArrivalSchedule& schedule) {
  start_ = Clock::now();
  for (int s = 0; s < net_.num_shards(); ++s) spawn_worker(s);
  resume_point();

  const std::size_t total = stream.size();
  std::size_t offered = 0;  // pulled from the schedule (admitted + shed)
  std::uint64_t last_arrival_ns = 0;
  std::vector<Request> chunk(std::min(total, kStreamChunkRequests));
  while (const std::size_t got = stream.fill(chunk)) {
    for (std::size_t i = 0; i < got; ++i) {
      fire_due(offered);
      // Pace to the arrival schedule: sleep for coarse gaps, spin out the
      // last stretch (sleep_until wakes late by scheduler quanta, which
      // would throttle multi-million-req/s schedules).
      const std::uint64_t due = schedule.next();
      last_arrival_ns = due;
      if (due > 0) {
        constexpr std::uint64_t kSpinWindowNs = 50'000;
        const std::uint64_t now = now_ns();
        if (due > now + kSpinWindowNs)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - kSpinWindowNs));
        while (now_ns() < due) {
          // busy-wait: the dispatcher is the clock of the experiment
        }
      }
      ++offered;
      const Request& r = chunk[i];
      if (!admit(r, due) || !fleet_.active()) continue;
      fleet_.observe(r, net_.map());
      if (dispatched_ % fleet_.epoch_requests() == 0 && dispatched_ < total)
        epoch_barrier();
    }
  }
  fire_due(offered);  // events due once the last request is in

  res_.sim.requests = offered;
  if (offered > 0 && last_arrival_ns > 0)
    res_.offered_rate = static_cast<double>(offered) /
                        (static_cast<double>(last_arrival_ns) / 1e9);

  quiesce();
  res_.elapsed_seconds = static_cast<double>(now_ns()) / 1e9;
  stop_workers();

  // ---- aggregation ---------------------------------------------------------
  for (const WorkerState& ws : workers_) {
    res_.sim += ws.sim;
    res_.sim.reordered_requests += ws.scheduler.reordered();
    res_.handovers += ws.handovers;
    res_.forwards += ws.forwards;
    res_.sojourn.merge(ws.sojourn);
    res_.queue_wait.merge(ws.queue_wait);
    res_.shed.merge(ws.shed);
  }
  res_.sim.shed_requests = res_.sim.shed_queue_full +
                           res_.sim.shed_throttled +
                           res_.sim.deadline_expired + res_.sim.cross_shed;
  res_.sim.schedule = opt_.schedule.policy;
  res_.sim.final_shards = net_.num_shards();
  res_.sim.cross_shard = static_cast<Cost>(cross_dispatched_);
  net_.note_cross_served(static_cast<Cost>(cross_dispatched_));
  res_.achieved_rate =
      res_.elapsed_seconds > 0.0
          ? static_cast<double>(res_.sojourn.count()) / res_.elapsed_seconds
          : 0.0;
  // Dispatch-time intra fraction: the fraction of admitted requests that
  // were intra-shard under the map they were routed by. The Trace& adapter
  // upgrades this to a final-map re-scan when the map changed.
  res_.sim.post_intra_fraction =
      dispatched_ == 0 ? 0.0
                       : 1.0 - static_cast<double>(cross_dispatched_) /
                                   static_cast<double>(dispatched_);
  return std::move(res_);
}

}  // namespace

const char* queue_policy_name(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kBlock:
      return "block";
    case QueuePolicy::kShed:
      return "shed";
    case QueuePolicy::kDeadline:
      return "deadline";
  }
  return "?";
}

ServeFrontend::ServeFrontend(ShardedNetwork& net, FrontendOptions opt)
    : net_(net), opt_(opt) {
  if (opt_.queue_capacity < 1)
    throw TreeError("ServeFrontend: queue_capacity must be >= 1");
  opt_.schedule.validate();
  if (opt_.queue_policy == QueuePolicy::kDeadline && opt_.deadline_ms <= 0.0)
    throw TreeError("ServeFrontend: kDeadline needs deadline_ms > 0");
  if (opt_.queue_policy != QueuePolicy::kDeadline && opt_.deadline_ms != 0.0)
    throw TreeError(
        "ServeFrontend: deadline_ms requires the kDeadline queue policy");
  if (opt_.admit_rate < 0.0)
    throw TreeError("ServeFrontend: admit_rate must be >= 0");
  if (opt_.faults != nullptr) opt_.faults->validate();
}

FrontendResult ServeFrontend::run(const Trace& trace,
                                  std::span<const std::uint64_t> arrivals) {
  if (arrivals.size() != trace.size())
    throw TreeError("ServeFrontend::run: one arrival time per request");
  TraceStream stream(trace);
  FixedArrivalSchedule schedule(arrivals);
  FrontendResult res = run_stream(stream, schedule);
  rescan_post_intra_fraction(trace, net_.map(), res.sim);
  return res;
}

FrontendResult ServeFrontend::run_stream(RequestStream& stream,
                                         ArrivalSchedule& schedule) {
  return FrontendRun(net_, opt_).serve(stream, schedule);
}

}  // namespace san
