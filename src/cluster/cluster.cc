#include "src/cluster/cluster.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <queue>
#include <sstream>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/sim/simulation.h"

namespace pdpa {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kMostFreeCpus:
      return "most-free";
    case PlacementPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "?";
}

const char* PlacementPolicyShortName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "rr";
    case PlacementPolicy::kMostFreeCpus:
      return "mf";
    case PlacementPolicy::kLeastLoaded:
      return "ll";
  }
  return "?";
}

bool ParsePlacementPolicy(std::string_view text, PlacementPolicy* out) {
  if (text == "round-robin" || text == "rr") {
    *out = PlacementPolicy::kRoundRobin;
    return true;
  }
  if (text == "most-free" || text == "mf") {
    *out = PlacementPolicy::kMostFreeCpus;
    return true;
  }
  if (text == "least-loaded" || text == "ll") {
    *out = PlacementPolicy::kLeastLoaded;
    return true;
  }
  return false;
}

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

// Rounds a waiting shard thread polls before it blocks on its condition
// variable: long enough to bridge the few microseconds between two
// saturated completions, short enough not to burn a core through an idle
// phase.
constexpr int kSpinRounds = 1 << 12;

// Rounds a thread spins on try_lock before it blocks on the engine mutex:
// controller sections last a few microseconds, less than a futex sleep and
// wake-up.
constexpr int kLockSpins = 256;

// Blocked nodes a shard lets wait for their drain before it holds back work
// no drain waits on: the owner drains its own nodes, and one stepped just
// ahead of its drain still has its state in the owner's cache. Blocking
// takes no lock, so a deeper lead costs little and keeps the shards busy
// (16 ran ~12% faster than 4 on cluster-drain-sharded, 4-CPU host).
constexpr int kMaxLead = 16;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Takes `lock`'s mutex, spinning on try_lock first.
void SpinLock(std::unique_lock<Mutex>& lock) {
  for (int i = 0; i < kLockSpins; ++i) {
    if (lock.try_lock()) {
      return;
    }
    CpuRelax();
  }
  lock.lock();
}

// The RM reports "nothing pending" as kHorizonNever; the engine as kNever.
SimTime FromHorizon(SimTime t) { return t >= kHorizonNever ? kNever : t; }

// An event at `t` must run before the controller passes `barrier`.
bool Due(SimTime t, SimTime barrier) { return t != kNever && t <= barrier; }

// Node indices as a bitset: membership changes allocate nothing, and scans
// run by word with countr_zero, in ascending index order.
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(int size) : words_(static_cast<std::size_t>((size + 63) / 64), 0) {}

  bool empty() const { return count_ == 0; }

  void Assign(int k, bool member) {
    std::uint64_t& word = words_[static_cast<std::size_t>(k / 64)];
    const std::uint64_t bit = std::uint64_t{1} << (k % 64);
    if (((word & bit) != 0) == member) {
      return;
    }
    word ^= bit;
    count_ += member ? 1 : -1;
  }

  // Lowest member >= k, or -1.
  int NextFrom(int k) const {
    std::size_t w = static_cast<std::size_t>(k / 64);
    if (w >= words_.size()) {
      return -1;
    }
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (k % 64));
    for (;;) {
      if (word != 0) {
        return static_cast<int>(w) * 64 + std::countr_zero(word);
      }
      if (++w == words_.size()) {
        return -1;
      }
      word = words_[w];
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  int count_ = 0;
};

// One SMP node: a private Simulation plus its NANOS RM and flight-recorder
// sinks. A node has one owner at a time: its shard's thread while it sits
// in the shard's heaps or pending list, the controller (whichever thread
// holds the engine mutex) once it is registered as blocked on visible
// activity or waits in the shard's inbox. Ownership moves under the engine
// mutex, which provides the happens-before edge; audit builds also verify
// log-sink confinement via the Handoff protocol.
struct Node {
  // `profiler` is shared with the controller, so it must be null unless the
  // node runs on the controller's thread (Profiler is single-writer).
  Node(int k, const ClusterOptions& options, Profiler* profiler)
      : index(k),
        event_log(options.capture_events ? std::make_unique<EventLog>(&events_sink) : nullptr),
        timeseries(options.capture_timeseries ? std::make_unique<TimeSeriesSampler>() : nullptr),
        sim(Simulation::Sinks{.event_log = event_log.get(),
                              .timeseries = timeseries.get(),
                              .profiler = profiler}) {
    if (event_log != nullptr) {
      event_log->set_node_tag(k);
    }
  }

  int index;
  std::ostringstream events_sink;
  std::unique_ptr<EventLog> event_log;            // null unless capturing
  std::unique_ptr<TimeSeriesSampler> timeseries;  // null unless capturing
  Simulation sim;
  std::unique_ptr<ResourceManager> rm;

  // Completions since the controller last drained this node, in callback
  // order, as *local* job ids (dense per node, so the RM's JobId-indexed
  // tables stay small no matter how many global jobs the cluster runs).
  std::vector<JobId> finished_local;
  // Controller's last synced view of rm->CanStartJob(), and whether any
  // flip (in either direction) happened since — a flip-and-back still
  // blocks the node, and the controller deterministically re-syncs to the
  // (unchanged) final value in both the sharded and the serial run.
  bool admit_shadow = false;
  bool admit_changed = false;

  // rm->Start() active. A started node with zero jobs is parked again at
  // the completion batch that emptied it, which keeps idle node event
  // queues empty — the engine's termination argument (and AdvanceTo's
  // no-skipped-events contract) depends on that.
  bool started = false;

  // Local id -> workload entry / start time.
  std::vector<const JobSpec*> local_spec;
  std::vector<SimTime> local_start;

  // Keys of this node's freshest entries in its shard's event and bound
  // heaps; kNever when it has none. Entries are invalidated lazily: an
  // entry is live iff its key still equals the field.
  SimTime queued_at = kNever;
  SimTime bound_at = kNever;
  // Lower bound on the node's next visible instant: the RM's
  // NextVisibleBound, raised monotonically between visible events (a step
  // without visible activity cannot invalidate an earlier bound).
  SimTime bound = kNever;
  bool in_inbox = false;  // guarded by the engine mutex

  SimTime NextEventTime() { return sim.events().empty() ? kNever : sim.events().NextTime(); }
  bool HasVisible() const { return !finished_local.empty() || admit_changed; }
  void HandoffSinks() {
    if (event_log != nullptr) {
      event_log->HandoffConfinement();
    }
    if (timeseries != nullptr) {
      timeseries->HandoffConfinement();
    }
  }
};

struct HeapEntry {
  SimTime t = 0;
  Node* node = nullptr;
};

struct HeapEntryAfter {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.t != b.t) {
      return a.t > b.t;
    }
    return a.node->index > b.node->index;
  }
};

// Min-heap in canonical (time, node-index) order.
class NodeHeap : public std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapEntryAfter> {
 public:
  // Drops the lazily invalidated entries (key no longer equal to the node's
  // `field`) once the heap holds more than twice its `live` nodes. A shard
  // steps the node holding its promise down first, so the stale entries of
  // its event heap need not surface at the top for a long time.
  void PruneIfBloated(SimTime Node::*field, std::size_t live) {
    if (c.size() <= 2 * live + 64) {
      return;
    }
    std::erase_if(c, [field](const HeapEntry& e) { return e.t != e.node->*field; });
    std::make_heap(c.begin(), c.end(), comp);
  }
};

// One event loop over a subset of the nodes (node k lives on shard
// k % shards). While active, the shard's thread owns its heaps and steps
// its nodes without the engine mutex; while idle it touches neither, and
// the controller may read them under the mutex.
struct Shard {
  std::size_t nodes = 0;  // nodes living on this shard
  // Unblocked nodes keyed by next event time (stepping order) and by
  // visible bound (the promise).
  NodeHeap events;
  NodeHeap bounds;
  // Nodes the owner blocked but has not registered with the controller yet,
  // and their earliest instant. Owner-only, so blocking takes no lock; moved
  // into the controller's blocked heap whenever the owner holds the engine
  // mutex, and as soon as the armed instant reaches `pending_min`. Empty
  // while the shard is idle.
  std::vector<HeapEntry> pending;
  SimTime pending_min = kNever;
  // The shard's lookahead: no node in its heaps or pending list has visible
  // activity before `promise`, the minimum of `bounds`' live top and
  // `pending_min`. Raised by the owner without the mutex after every step
  // or block (a blocking node's instant is at or past its bound); lowered
  // only under it (inbox absorption).
  std::atomic<SimTime> promise{kNever};
  SimTime published = kNever;  // owner's copy of `promise`
  // Guarded by the engine mutex.
  bool idle = true;
  std::vector<Node*> inbox;      // nodes the controller handed back
  // Set when the inbox fills or the controller leaves this shard a drain of
  // its own nodes; the stepping owner polls it without the mutex.
  std::atomic<bool> attention{false};
  SimTime inbox_bound = kNever;  // lower bound over the inbox's bounds
  // This shard's blocked nodes, pending or registered, still waiting for
  // their drain (raised by the owner, lowered by the drain; polled by the
  // owner for pacing).
  std::atomic<int> lead{0};
  bool sleeping = false;
  // Bumped under the mutex whenever the shard may have new work or the run
  // ended; a waiting thread spins on it before blocking on `cv`.
  std::atomic<std::uint64_t> wakes{0};
  std::condition_variable_any cv;
  std::thread thread;
};

// The cluster controller and its shard loops, run by `shards` threads: the
// calling thread runs shard 0, shards 1.. get a thread each, and there is
// no dedicated controller thread. Every shard steps its nodes up to the
// barrier (the next arrival not yet queued, capped by the cutoff) and
// blocks a node at its first visible instant; whichever thread then finds a
// controller action safe runs it under the engine mutex, except that a
// drain goes to the thread owning the drained node (see
// ControllerStepLocked). With shards == 1 the same loop runs inline on the
// calling thread: the serial reference the byte-identity contract is
// stated against.
class ClusterEngine {
 public:
  ClusterEngine(const std::vector<JobSpec>& workload, const ClusterOptions& options)
      : workload_(workload), options_(options) {
    PDPA_CHECK_GE(options.num_nodes, 1);
    PDPA_CHECK_GE(options.cpus_per_node, 1);
    PDPA_CHECK(options.make_policy != nullptr) << "ClusterOptions::make_policy is required";
    for (std::size_t i = 1; i < workload.size(); ++i) {
      PDPA_CHECK_GE(workload[i].submit, workload[i - 1].submit)
          << "cluster workload must be submit-sorted";
    }
    total_ = static_cast<int>(workload.size());
    cutoff_ = options.max_sim_time > 0 ? options.max_sim_time : kNever;
    const int shard_count = std::min(std::max(options.shards, 1), options.num_nodes);
    threaded_ = shard_count > 1;
    batch_ = options.arrival_batch;
    profiler_ = options.profiler;
    profile_source_ = options.profile_source
                          ? options.profile_source
                          : [](AppClass app_class) -> const AppProfile& {
                              return CachedProfile(app_class);
                            };

    arrivals_ = controller_registry_.counter("cluster.arrivals");
    arrival_batches_ = controller_registry_.counter("cluster.arrival_batches");
    batched_arrivals_ = controller_registry_.counter("cluster.batched_arrivals");
    placements_ = controller_registry_.counter("cluster.placements");
    completions_ = controller_registry_.counter("cluster.completions");
    completion_batches_ = controller_registry_.counter("cluster.completion_batches");
    parks_ = controller_registry_.counter("cluster.parks");
    wakes_ = controller_registry_.counter("cluster.wakes");
    if (options.capture_events) {
      controller_log_ = std::make_unique<EventLog>(&controller_sink_);
    }

    queue_.reserve(workload.size());
    outcomes_.reserve(workload.size());
    outcome_nodes_.reserve(workload.size());
    admitting_ = NodeSet(options.num_nodes);
    Rng rng(options.seed);
    ResourceManager::Params rm_params = options.rm_params;
    rm_params.num_cpus = options.cpus_per_node;
    nodes_.reserve(static_cast<std::size_t>(options.num_nodes));
    for (int k = 0; k < options.num_nodes; ++k) {
      // Serial inline loop: node code runs on the one thread, so the
      // sim/rm/obs spans can share the controller's profiler. With worker
      // threads they must stay dark.
      auto node = std::make_unique<Node>(k, options, threaded_ ? nullptr : profiler_);
      Node* raw = node.get();
      raw->rm = std::make_unique<ResourceManager>(rm_params, options.make_policy(), &raw->sim,
                                                  rng.Fork());
      raw->rm->set_job_finish_callback(
          [raw](JobId local, SimTime) { raw->finished_local.push_back(local); });
      raw->rm->set_state_change_callback([raw](SimTime) {
        const bool admit = raw->rm->CanStartJob();
        if (admit != raw->admit_shadow) {
          raw->admit_shadow = admit;
          raw->admit_changed = true;
        }
      });
      raw->admit_shadow = raw->rm->CanStartJob();
      admitting_.Assign(k, raw->admit_shadow);
      nodes_.push_back(std::move(node));
    }

    shards_.reserve(static_cast<std::size_t>(shard_count));
    for (int s = 0; s < shard_count; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
    shard_of_.reserve(nodes_.size());
    for (int k = 0; k < options.num_nodes; ++k) {
      shard_of_.push_back(shards_[static_cast<std::size_t>(k % shard_count)].get());
      ++shard_of_.back()->nodes;
    }
  }

  ClusterResult Run() {
    {
      const MutexLock lock(&engine_mutex_);
      UpdateBarrierLocked();
      if (profiler_ != nullptr) {
        idle_since_ns_ = prof::NowNanos();
      }
    }
    for (std::size_t i = 1; i < shards_.size(); ++i) {
      Shard* s = shards_[i].get();
      s->thread = std::thread([this, s] { ShardMain(*s); });
    }
    ShardMain(*shards_[0]);
    for (std::size_t i = 1; i < shards_.size(); ++i) {
      shards_[i]->thread.join();
    }
    return Finalize();
  }

 private:
  // --- shard side ---------------------------------------------------------

  Shard& ShardOf(const Node& node) { return *shard_of_[static_cast<std::size_t>(node.index)]; }

  // (Re)queues `node` in its shard's event heap if its next event moved.
  static void PushNode(Shard& s, Node& node) {
    const SimTime t = node.NextEventTime();
    if (t == kNever) {
      node.queued_at = kNever;
      return;
    }
    if (node.queued_at == t) {
      return;
    }
    node.queued_at = t;
    s.events.push(HeapEntry{t, &node});
    s.events.PruneIfBloated(&Node::queued_at, s.nodes);
  }

  // (Re)queues `node` in its shard's bound heap at node.bound.
  static void PushBound(Shard& s, Node& node) {
    if (node.bound == kNever) {
      node.bound_at = kNever;
      return;
    }
    if (node.bound_at == node.bound) {
      return;
    }
    node.bound_at = node.bound;
    s.bounds.push(HeapEntry{node.bound, &node});
    s.bounds.PruneIfBloated(&Node::bound_at, s.nodes);
  }

  // Owner (or controller, shard idle): prunes stale entries, returns the
  // next live event time.
  static SimTime ValidTop(Shard& s) {
    while (!s.events.empty() && s.events.top().t != s.events.top().node->queued_at) {
      s.events.pop();
    }
    return s.events.empty() ? kNever : s.events.top().t;
  }

  // Owner: prunes stale entries, returns the node with the lowest bound.
  static Node* BoundTopNode(Shard& s) {
    while (!s.bounds.empty() && s.bounds.top().t != s.bounds.top().node->bound_at) {
      s.bounds.pop();
    }
    return s.bounds.empty() ? nullptr : s.bounds.top().node;
  }

  // Owner: recomputes and stores the shard's promise, returning the
  // previous value.
  static SimTime RefreshPromise(Shard& s) {
    const SimTime old = s.published;
    const Node* top = BoundTopNode(s);
    s.published = std::min(top == nullptr ? kNever : top->bound_at, s.pending_min);
    if (s.published != old) {
      s.promise.store(s.published);
    }
    return old;
  }

  std::unique_lock<Mutex> LockEngine() {
    std::unique_lock<Mutex> lock(engine_mutex_, std::defer_lock);
    SpinLock(lock);
    return lock;
  }

  void ShardMain(Shard& s) {
    std::unique_lock<Mutex> lock = LockEngine();
    while (!done_) {
      SettleLocked(s);
      if (Due(ValidTop(s), barrier_.load())) {
        s.idle = false;
        lock.unlock();
        {
          // Serial runs time the stepping phase here, node spans nested;
          // threaded runs account the controller's gaps instead (see
          // BeginControllerAction).
          ProfScope step_scope(threaded_ ? nullptr : profiler_, SpanId::kClusterBarrierWait);
          AdvanceShard(s);
        }
        SpinLock(lock);
        continue;
      }
      s.idle = true;
      ControllerStepLocked(s);
      if (done_ || !s.inbox.empty() || Due(ValidTop(s), barrier_.load())) {
        continue;
      }
      WaitLocked(s, lock);
    }
  }

  // Steps the shard's nodes one event at a time until nothing is left at or
  // before the barrier. The node holding the promise down goes first, since
  // the controller may be waiting on it; the rest follow in (time, node)
  // order. Nodes are independent, so the order changes no output. A node
  // with visible activity first runs its remaining events at the same
  // instant, then blocks; the other nodes keep going.
  void AdvanceShard(Shard& s) {
    for (;;) {
      if (s.attention.load(std::memory_order_relaxed) ||
          s.pending_min <= armed_.load(std::memory_order_relaxed)) {
        const std::unique_lock<Mutex> lock = LockEngine();
        SettleLocked(s);
      }
      const SimTime barrier = barrier_.load(std::memory_order_acquire);
      Node* next = BoundTopNode(s);
      if (next != nullptr && !Due(next->queued_at, barrier)) {
        next = nullptr;
      }
      const SimTime top = ValidTop(s);  // also prunes stale entries
      if (next == nullptr) {
        if (!Due(top, barrier)) {
          return;
        }
        next = s.events.top().node;
      }
      if (threaded_ && WaitWhilePaced(s, *next)) {
        continue;
      }
      Node& node = *next;
      const SimTime t = node.queued_at;
      node.queued_at = kNever;
      node.sim.Step();
      if (node.HasVisible()) {
        while (node.NextEventTime() == t) {
          node.sim.Step();
        }
        BlockNode(s, node, t);
        continue;
      }
      PushNode(s, node);
      node.bound = std::max(node.bound, FromHorizon(node.rm->NextVisibleBound()));
      PushBound(s, node);
      SettleIfWaitedOn(s, RefreshPromise(s));
    }
  }

  // Owner, after its promise moved from `old`: takes the engine mutex only
  // when the controller may be waiting on this shard. Either the armed
  // instant has reached a pending node, which must be registered to drain,
  // or the promise just passed the armed instant, and this shard may have
  // been the last one holding it back. The seq_cst promise store before and
  // armed load here pair with ControllerStepLocked's arm-then-read, so one
  // side always sees the other.
  void SettleIfWaitedOn(Shard& s, SimTime old) {
    const SimTime armed = armed_.load();
    if (s.pending_min <= armed || (old <= armed && s.published > armed)) {
      const std::unique_lock<Mutex> lock = LockEngine();
      SettleLocked(s);
    }
  }

  // Threaded runs hold back work no drain waits on (a node whose bound lies
  // past the armed instant) while kMaxLead of the shard's nodes already wait
  // for their drain. Pacing stops as soon as the armed instant moves or
  // reaches a pending node (which AdvanceShard then registers). Spins until
  // that changes and returns true to re-pick, or returns false to step
  // `next` anyway.
  bool WaitWhilePaced(Shard& s, const Node& next) {
    const SimTime armed = armed_.load(std::memory_order_relaxed);
    const auto paced = [&] {
      return !s.attention.load(std::memory_order_relaxed) &&
             armed_.load(std::memory_order_relaxed) == armed && s.pending_min > armed &&
             s.lead.load(std::memory_order_relaxed) >= kMaxLead;
    };
    if (next.bound <= armed || !paced()) {
      return false;
    }
    for (int i = 0; i < kSpinRounds; ++i) {
      if (!paced()) {
        return true;
      }
      CpuRelax();
    }
    return false;
  }

  // Blocks a node with visible activity at `t`: it joins the shard's
  // pending list without the engine mutex, and the promise covers it until
  // it is registered with the controller.
  void BlockNode(Shard& s, Node& node, SimTime t) {
#ifdef PDPA_AUDIT
    PDPA_CHECK_GE(t, node.bound) << "node " << node.index << " acted at " << t
                                 << " before its published bound " << node.bound;
#endif
    node.bound_at = kNever;
    s.pending.push_back(HeapEntry{t, &node});
    s.pending_min = std::min(s.pending_min, t);
    s.lead.fetch_add(1, std::memory_order_relaxed);
    SettleIfWaitedOn(s, RefreshPromise(s));
  }

  // Owner: hands the pending nodes to the controller's blocked heap.
  void RegisterPendingLocked(Shard& s) {
    if (s.pending.empty()) {
      return;
    }
    for (const HeapEntry& entry : s.pending) {
      blocked_.push(entry);
    }
    s.pending.clear();
    s.pending_min = kNever;
    RefreshPromise(s);
  }

  // Takes back the nodes the controller returned to this shard.
  static bool AbsorbInboxLocked(Shard& s) {
    if (s.inbox.empty()) {
      return false;
    }
    for (Node* node : s.inbox) {
      node->in_inbox = false;
      PushNode(s, *node);
      PushBound(s, *node);
    }
    s.inbox.clear();
    RefreshPromise(s);
    s.inbox_bound = kNever;
    return true;
  }

  // Owner: registers the pending nodes, then runs the controller and takes
  // back what it returned, until neither has anything left: absorbing can
  // raise the effective promise (a node handed back twice keeps its older,
  // lower inbox bound until absorbed).
  void SettleLocked(Shard& s) {
    s.attention.store(false, std::memory_order_relaxed);
    RegisterPendingLocked(s);
    do {
      ControllerStepLocked(s);
    } while (AbsorbInboxLocked(s));
  }

  void WaitLocked(Shard& s, std::unique_lock<Mutex>& lock) {
    PDPA_CHECK(threaded_) << "serial cluster loop has nothing left to run";
    const std::uint64_t seen = s.wakes.load(std::memory_order_relaxed);
    lock.unlock();
    for (int i = 0; i < kSpinRounds && s.wakes.load(std::memory_order_acquire) == seen; ++i) {
      CpuRelax();
    }
    SpinLock(lock);
    while (s.wakes.load(std::memory_order_relaxed) == seen) {
      s.sleeping = true;
      s.cv.wait(lock);
      s.sleeping = false;
    }
  }

  static void WakeLocked(Shard& s) {
    s.wakes.fetch_add(1, std::memory_order_release);
    if (s.sleeping) {
      s.cv.notify_one();
    }
  }

  // --- controller side (engine mutex held) --------------------------------

  // Runs every controller action the shards' published progress makes
  // safe, in canonical order, and arms `armed_` with the instant it then
  // waits on. Any thread that may have enabled an action calls it: a shard
  // registering pending nodes, a promise passing the armed instant, a shard
  // going idle. The controller sees only registered blocked nodes; pending
  // ones hold their shard's promise down until registered.
  //
  // Actions, earliest first:
  //   * While no node admits (and batching is on), an arrival is a pure
  //     queue push that reads no node state: every arrival strictly before
  //     the earliest possible visible instant (the blocked minimum and every
  //     shard's promise) is queued at once.
  //   * A drain at the earliest blocked instant C, once every shard's
  //     promise lies past C: no node can still produce visible activity at
  //     or before C, so the batch is complete. It runs on the thread whose
  //     shard owns the batch's first node; any other thread wakes it.
  //   * Otherwise, once every shard is idle with nothing left at or before
  //     the barrier: the arrival at the barrier (placements), or the end of
  //     the run.
  void ControllerStepLocked(Shard& self) {
    bool acted = false;
    while (!done_) {
      if (completed_ == total_) {
        FinishLocked();
        break;
      }
      const SimTime c = blocked_.empty() ? kNever : blocked_.top().t;
      const SimTime arrival = NextArrival();
      if (batch_ && admitting_.empty() && arrival < c) {
        armed_.store(arrival);
        const SimTime promise = MinPromiseLocked();
        if (arrival >= promise) {
          break;
        }
        BeginControllerAction(&acted);
        QueueArrivalsBefore(std::min(promise, c));
        UpdateBarrierLocked();
        continue;
      }
      if (c != kNever) {
        armed_.store(c);
        if (c >= MinPromiseLocked()) {
          break;
        }
        Shard& owner = ShardOf(*blocked_.top().node);
        if (&owner != &self) {
          // The owner drains its own node: placement and the steps that
          // follow then run on the core that holds the node's state.
          owner.attention.store(true, std::memory_order_relaxed);
          WakeLocked(owner);
          break;
        }
        BeginControllerAction(&acted);
        DrainLocked(c);
        UpdateBarrierLocked();
        continue;
      }
      armed_.store(kNever);
      if (!AllQuiescedLocked()) {
        break;
      }
      BeginControllerAction(&acted);
      if (arrival != kNever) {
        HandleArrivals(arrival);
        UpdateBarrierLocked();
        continue;
      }
      // No arrival at or before the cutoff is left and every node has run
      // everything up to the barrier. With an unbounded cutoff that means
      // nothing can ever finish the queued jobs.
      PDPA_CHECK(cutoff_ != kNever)
          << "cluster stuck: " << queue_.size() - queue_head_
          << " queued jobs, no arrivals, no running work";
      if (pending_arrivals_ > 0) {
        // The reference protocol queues these in one final arrival cycle,
        // whose first group is not a batched one.
        arrival_batches_->Increment();
        batched_arrivals_->Increment(pending_arrivals_ - pending_first_group_);
        pending_arrivals_ = 0;
      }
      end_time_ = cutoff_;
      FinishLocked();
    }
    if (acted) {
      EndControllerAction();
    }
  }

  // Threaded runs account cluster.barrier_wait as the controller's idle gap
  // between actions (wherever they run); serial runs time the stepping
  // phase in ShardMain instead.
  void BeginControllerAction(bool* acted) {
    if (*acted) {
      return;
    }
    *acted = true;
    if (threaded_ && profiler_ != nullptr) {
      const long long gap = prof::NowNanos() - idle_since_ns_;
      SpanStats& stats = profiler_->stats(SpanId::kClusterBarrierWait);
      stats.hits += 1;
      stats.total_ns += gap;
      stats.self_ns += gap;
    }
  }

  void EndControllerAction() {
    if (controller_log_ != nullptr) {
      controller_log_->HandoffConfinement();  // the next action may run elsewhere
    }
    if (threaded_ && profiler_ != nullptr) {
      idle_since_ns_ = prof::NowNanos();
    }
  }

  void FinishLocked() {
    done_ = true;
    for (auto& shard : shards_) {
      WakeLocked(*shard);
    }
  }

  // Next arrival not yet queued, if it lies at or before the cutoff.
  SimTime NextArrival() const {
    if (arrival_ix_ >= total_) {
      return kNever;
    }
    const SimTime t = workload_[static_cast<std::size_t>(arrival_ix_)].submit;
    return t <= cutoff_ ? t : kNever;
  }

  // The barrier only rises: arrivals are queued in submit order.
  void UpdateBarrierLocked() {
    const SimTime next = arrival_ix_ < total_
                             ? workload_[static_cast<std::size_t>(arrival_ix_)].submit
                             : kNever;
    const SimTime barrier = std::min(next, cutoff_);
    if (barrier == barrier_.load(std::memory_order_relaxed)) {
      return;
    }
    barrier_.store(barrier, std::memory_order_release);
    for (auto& shard : shards_) {
      if (shard->idle && Due(ValidTop(*shard), barrier)) {
        WakeLocked(*shard);
      }
    }
  }

  SimTime MinPromiseLocked() const {
    SimTime p = kNever;
    for (const auto& shard : shards_) {
      p = std::min({p, shard->promise.load(), shard->inbox_bound});
    }
    return p;
  }

  // Next event time over a shard's nodes, its inbox included. Shard idle.
  static SimTime FrontierLocked(Shard& s) {
    SimTime t = ValidTop(s);
    for (Node* node : s.inbox) {
      t = std::min(t, node->NextEventTime());
    }
    return t;
  }

  bool AllQuiescedLocked() {
    const SimTime barrier = barrier_.load(std::memory_order_relaxed);
    for (auto& shard : shards_) {
      if (!shard->idle || Due(FrontierLocked(*shard), barrier)) {
        return false;
      }
    }
    return true;
  }

  // Earliest instant any node could produce an event. Every shard is idle
  // and has run everything up to the barrier, so every node's clock stands
  // exactly at the controller's: this is the serial loop's next heap entry.
  SimTime EarliestClusterEventLocked() {
    SimTime e = kNever;
    for (auto& shard : shards_) {
      e = std::min(e, FrontierLocked(*shard));
    }
    return e;
  }

  // Regime-B feeder: queues every arrival strictly before `limit`, logged
  // and counted as its own arrival cycle would have done. The batch is
  // closed at the next drain (every queued arrival precedes it) or at the
  // end of the run.
  void QueueArrivalsBefore(SimTime limit) {
    while (arrival_ix_ < total_) {
      const JobSpec& spec = workload_[static_cast<std::size_t>(arrival_ix_)];
      if (spec.submit >= limit || spec.submit > cutoff_) {
        return;
      }
      ++arrival_ix_;
      arrivals_->Increment();
      if (pending_arrivals_ == 0) {
        pending_first_submit_ = spec.submit;
        pending_first_group_ = 0;
      }
      if (spec.submit == pending_first_submit_) {
        ++pending_first_group_;
      }
      ++pending_arrivals_;
      if (controller_log_ != nullptr) {
        controller_log_->JobSubmit(spec.submit, spec.id, AppClassName(spec.app_class),
                                   spec.request, spec.rigid);
      }
      queue_.push_back(&spec);
    }
  }

  // Drains every node blocked at exactly `t`: records completions, syncs
  // admission, places queued jobs, parks emptied nodes — all in canonical
  // (time, node-index) order — then hands the nodes back to their shards.
  // Arrivals queued since the previous drain all precede `t` and count as
  // one arrival batch (submits before t precede finishes at t; arrivals at
  // t itself wait until after the batch, the reference finish-before-submit
  // tie order).
  void DrainLocked(SimTime t) {
    if (pending_arrivals_ > 0) {
      arrival_batches_->Increment();
      batched_arrivals_->Increment(pending_arrivals_);
      pending_arrivals_ = 0;
    }
    ProfScope drain_scope(profiler_, SpanId::kClusterDrain);
    completion_batches_->Increment();
    batch_nodes_.clear();
    while (!blocked_.empty() && blocked_.top().t == t) {
      Node* node = blocked_.top().node;
      blocked_.pop();
      batch_nodes_.push_back(node);
      ShardOf(*node).lead.fetch_sub(1, std::memory_order_relaxed);
    }
    for (Node* node : batch_nodes_) {
      if (!node->finished_local.empty()) {
        end_time_ = t;
      }
      for (const JobId local : node->finished_local) {
        const JobSpec& spec = *node->local_spec[static_cast<std::size_t>(local)];
        JobOutcome outcome;
        outcome.id = spec.id;
        outcome.app_class = spec.app_class;
        outcome.request = spec.request;
        outcome.submit = spec.submit;
        outcome.start = node->local_start[static_cast<std::size_t>(local)];
        outcome.finish = t;
        outcomes_.push_back(outcome);
        outcome_nodes_.push_back(node->index);
        ++completed_;
        completions_->Increment();
        if (controller_log_ != nullptr) {
          controller_log_->JobFinish(t, spec.id, spec.submit, outcome.start);
        }
      }
      node->finished_local.clear();
      node->admit_changed = false;
      admitting_.Assign(node->index, node->admit_shadow);
    }

    TryStartJobs(t);
    for (Node* node : batch_nodes_) {
      MaybePark(*node);
    }
    ReleaseTouchedNodes();
    for (Node* node : batch_nodes_) {
      ReturnNode(*node);
    }
  }

  // Every shard has run everything up to the barrier and the arrival at t
  // is due: queue every arrival at t (workload order), place, and — with
  // batching on — keep consuming later arrival groups while each strictly
  // precedes the earliest possible node event E (recomputed after every
  // group's placements). Inside the window no node can produce any event,
  // so the controller state each rr/mf/ll decision reads is exactly the
  // state the one-arrival-per-barrier protocol would read at that group's
  // own barrier cycle — placements are byte-identical.
  void HandleArrivals(SimTime t) {
    arrival_batches_->Increment();
    bool first_group = true;
    for (;;) {
      while (arrival_ix_ < total_ &&
             workload_[static_cast<std::size_t>(arrival_ix_)].submit == t) {
        const JobSpec& spec = workload_[static_cast<std::size_t>(arrival_ix_)];
        ++arrival_ix_;
        arrivals_->Increment();
        if (!first_group) {
          batched_arrivals_->Increment();
        }
        if (controller_log_ != nullptr) {
          controller_log_->JobSubmit(t, spec.id, AppClassName(spec.app_class), spec.request,
                                     spec.rigid);
        }
        queue_.push_back(&spec);
      }
      TryStartJobs(t);
      ReleaseTouchedNodes();
      if (!batch_ || arrival_ix_ >= total_) {
        return;
      }
      first_group = false;
      const SimTime next_t = workload_[static_cast<std::size_t>(arrival_ix_)].submit;
      if (next_t > cutoff_ || next_t >= EarliestClusterEventLocked()) {
        return;
      }
      t = next_t;
    }
  }

  void TryStartJobs(SimTime now) {
    while (queue_head_ < queue_.size()) {
      const int k = ChooseNode();
      if (k < 0) {
        return;
      }
      PlaceJob(*queue_[queue_head_++], k, now);
    }
  }

  // Picks the node for the head job from the admitting set (kept exact at
  // every decision point), ties always to the lowest index.
  int ChooseNode() {
    if (admitting_.empty()) {
      return -1;
    }
    switch (options_.placement) {
      case PlacementPolicy::kRoundRobin: {
        int k = admitting_.NextFrom(rr_next_);
        if (k < 0) {
          k = admitting_.NextFrom(0);
        }
        rr_next_ = (k + 1) % options_.num_nodes;
        return k;
      }
      case PlacementPolicy::kMostFreeCpus: {
        int best = -1;
        int best_free = -1;
        for (int k = admitting_.NextFrom(0); k >= 0; k = admitting_.NextFrom(k + 1)) {
          const int free = nodes_[static_cast<std::size_t>(k)]->rm->machine().FreeCpus();
          if (free > best_free) {
            best_free = free;
            best = k;
            if (free == options_.cpus_per_node) {
              break;  // an empty node cannot be beaten
            }
          }
        }
        return best;
      }
      case PlacementPolicy::kLeastLoaded: {
        int best = -1;
        int best_running = 0;
        for (int k = admitting_.NextFrom(0); k >= 0; k = admitting_.NextFrom(k + 1)) {
          const int running = nodes_[static_cast<std::size_t>(k)]->rm->running_jobs();
          if (best < 0 || running < best_running) {
            best_running = running;
            best = k;
            if (running == 0) {
              break;
            }
          }
        }
        return best;
      }
    }
    return -1;
  }

  void PlaceJob(const JobSpec& spec, int k, SimTime now) {
    ProfScope place_scope(profiler_, SpanId::kClusterPlace);
    Node& node = *nodes_[static_cast<std::size_t>(k)];
    TouchNode(node);
    if (!node.started) {
      WakeNode(node, now);
    } else if (node.sim.now() < now) {
      // Idle-but-started node lagging the controller clock; nothing can be
      // pending before `now` (its shard ran everything up to the barrier),
      // so the warp is safe.
      node.sim.AdvanceTo(now);
    }
    const JobId local = static_cast<JobId>(node.local_spec.size());
    node.local_spec.push_back(&spec);
    node.local_start.push_back(now);
    node.rm->StartJob(local, profile_source_(spec.app_class), spec.request, now, spec.rigid);
    placements_->Increment();
    max_node_running_ = std::max(max_node_running_, node.rm->running_jobs());
    if (controller_log_ != nullptr) {
      place_scratch_.clear();
      JsonObjectWriter writer(&place_scratch_);
      writer.Field("type", "place");
      writer.Field("t_us", static_cast<long long>(now));
      writer.Field("job", static_cast<long long>(spec.id));
      writer.Field("node", k);
      writer.Field("local", static_cast<long long>(local));
      writer.Finish();
      controller_log_->Emit(place_scratch_);
    }
    node.admit_shadow = node.rm->CanStartJob();
    node.admit_changed = false;
    admitting_.Assign(k, node.admit_shadow);
  }

  void WakeNode(Node& node, SimTime t) {
    PDPA_CHECK(node.sim.events().empty()) << "parked node " << node.index << " has events";
    node.sim.AdvanceTo(t);
    node.rm->Start();
    node.started = true;
    wakes_->Increment();
  }

  void MaybePark(Node& node) {
    if (!node.started || node.rm->running_jobs() != 0) {
      return;
    }
    TouchNode(node);
    node.rm->Stop();
    PDPA_CHECK(node.sim.events().empty())
        << "node " << node.index << " still has events after Stop()";
    node.started = false;
    parks_->Increment();
  }

  // Claims a node's log sinks for this thread (audit builds) and remembers
  // to release them before the node goes back to its shard.
  void TouchNode(Node& node) {
    node.HandoffSinks();
    touched_nodes_.push_back(&node);
  }

  void ReleaseTouchedNodes() {
    for (Node* node : touched_nodes_) {
      node->HandoffSinks();
      ReturnNode(*node);
    }
    touched_nodes_.clear();
  }

  // Hands a node the controller changed back to its shard's inbox with a
  // fresh bound. A parked node has nothing to run and stays out.
  void ReturnNode(Node& node) {
    Shard& s = ShardOf(node);
    if (node.queued_at != kNever || node.bound_at != kNever) {
      // Still in the heaps: an arrival placement, made while every shard
      // is idle. A blocked node has no live entries.
      PDPA_CHECK(s.idle) << "controller touched node " << node.index << " of a running shard";
      node.queued_at = kNever;
      node.bound_at = kNever;
    }
    node.bound = FromHorizon(node.rm->NextVisibleBound());
    if (!node.in_inbox) {
      if (node.NextEventTime() == kNever) {
        return;
      }
      node.in_inbox = true;
      s.inbox.push_back(&node);
      s.attention.store(true, std::memory_order_relaxed);
      WakeLocked(s);
    }
    s.inbox_bound = std::min(s.inbox_bound, node.bound);
  }

  ClusterResult Finalize() {
    // Cutoff path: nodes may still be running jobs. Advance each to the
    // cutoff (its remaining events are all beyond it) and flush.
    for (auto& node_ptr : nodes_) {
      Node& node = *node_ptr;
      if (!node.started) {
        continue;
      }
      node.HandoffSinks();
      if (node.sim.now() < end_time_) {
        node.sim.AdvanceTo(end_time_);
      }
      node.rm->Stop();
      node.started = false;
    }
    if (controller_log_ != nullptr) {
      controller_log_->RunEnd(end_time_, total_, completed_ == total_);
    }

    ClusterResult result;
    result.outcomes = std::move(outcomes_);
    result.outcome_nodes = std::move(outcome_nodes_);
    result.completed = completed_ == total_;
    result.end_time = end_time_;
    result.shards_used = static_cast<int>(shards_.size());
    result.max_node_running = max_node_running_;
    for (auto& node_ptr : nodes_) {
      Node& node = *node_ptr;
      result.total_reallocations += node.rm->total_reallocations();
      for (const auto& [local, integral] : node.rm->alloc_integral_us()) {
        result.alloc_integral_us[node.local_spec[static_cast<std::size_t>(local)]->id] +=
            integral;
      }
    }
    if (options_.capture_events) {
      controller_log_->Flush();
      std::vector<std::string> streams;
      streams.reserve(nodes_.size() + 1);
      streams.push_back(controller_sink_.str());
      for (auto& node_ptr : nodes_) {
        node_ptr->event_log->Flush();
        streams.push_back(node_ptr->events_sink.str());
      }
      result.events_jsonl = MergeEventStreams(streams);
    }
    if (options_.capture_timeseries) {
      std::vector<const TimeSeriesSampler*> samplers;
      samplers.reserve(nodes_.size());
      for (auto& node_ptr : nodes_) {
        samplers.push_back(node_ptr->timeseries.get());
      }
      // The cursor writer leaves spare capacity; the result keeps an
      // exact-size copy.
      std::string csv;
      WriteClusterTimeSeriesCsv(samplers, &csv);
      result.timeseries_csv = std::string(csv);
    }
    std::vector<RegistrySnapshot> parts;
    parts.reserve(nodes_.size() + 1);
    parts.push_back(controller_registry_.Snapshot());
    for (auto& node_ptr : nodes_) {
      parts.push_back(node_ptr->sim.registry().Snapshot());
    }
    std::vector<const RegistrySnapshot*> part_ptrs;
    part_ptrs.reserve(parts.size());
    for (const RegistrySnapshot& part : parts) {
      part_ptrs.push_back(&part);
    }
    result.counters = MergeRegistrySnapshots(part_ptrs);
    return result;
  }

  const std::vector<JobSpec>& workload_;
  const ClusterOptions& options_;
  int total_ = 0;
  SimTime cutoff_ = kNever;
  bool threaded_ = false;
  // Epoch batching enabled (ClusterOptions::arrival_batch). Off restores the
  // historical one-arrival-per-barrier protocol bit for bit.
  bool batch_ = true;
  // Controller profiler; null when profiling is off.
  Profiler* profiler_ = nullptr;
  std::function<const AppProfile&(AppClass)> profile_source_;

  Registry controller_registry_;
  Counter* arrivals_ = nullptr;
  Counter* arrival_batches_ = nullptr;
  Counter* batched_arrivals_ = nullptr;
  Counter* placements_ = nullptr;
  Counter* completions_ = nullptr;
  Counter* completion_batches_ = nullptr;
  Counter* parks_ = nullptr;
  Counter* wakes_ = nullptr;
  std::ostringstream controller_sink_;
  std::unique_ptr<EventLog> controller_log_;
  std::string place_scratch_;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Shard*> shard_of_;

  // Controller state. Everything from here to the mutex is guarded by the
  // engine mutex (uncontended when shards == 1).
  NodeSet admitting_;
  // FIFO of submitted, unplaced jobs: queue_[queue_head_..]. Jobs are
  // queued in workload order, so the whole run fits the capacity reserved
  // up front — the controller allocates nothing per job, whichever thread
  // runs it.
  std::vector<const JobSpec*> queue_;
  std::size_t queue_head_ = 0;
  int rr_next_ = 0;
  int arrival_ix_ = 0;
  int completed_ = 0;
  SimTime end_time_ = 0;
  int max_node_running_ = 0;
  std::vector<JobOutcome> outcomes_;
  std::vector<int> outcome_nodes_;
  std::vector<Node*> batch_nodes_;
  std::vector<Node*> touched_nodes_;
  // Registered nodes blocked on visible activity, awaiting their drain.
  NodeHeap blocked_;
  // Regime-B arrivals queued since the last drain, and how many of them
  // share the first one's submit time.
  long long pending_arrivals_ = 0;
  long long pending_first_group_ = 0;
  SimTime pending_first_submit_ = 0;
  bool done_ = false;
  long long idle_since_ns_ = 0;

  // Ranked above the fork group lock (a shard thread may enter the engine
  // while its sweep cell holds no other lock) and below the Registry: the
  // engine never holds this across counter registration (DESIGN.md §8).
  // std::unique_lock via the BasicLockable aliases, because the shard wait
  // loop needs condition_variable_any.
  Mutex engine_mutex_{PDPA_LOCK_RANK(30)};
  // Stepping limit: the next arrival not yet queued, capped by the cutoff.
  // Written under the mutex, read by stepping shards; it only rises.
  std::atomic<SimTime> barrier_{0};
  // The instant the controller waits for every promise to pass (a blocked
  // batch, or a regime-B arrival); kNever when it waits on idleness. A
  // shard registers its pending nodes once this reaches their minimum.
  std::atomic<SimTime> armed_{kNever};
};

}  // namespace

ClusterResult RunCluster(const std::vector<JobSpec>& workload, const ClusterOptions& options) {
  ClusterEngine engine(workload, options);
  return engine.Run();
}

}  // namespace pdpa
