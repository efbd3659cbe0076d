#include "sched/controller.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "memsim/sharded.hpp"
#include "telemetry/telemetry.hpp"
#include "util/ring.hpp"

namespace comet::sched {

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kFcfs: return "fcfs";
    case Policy::kFrFcfs: return "frfcfs";
    case Policy::kReadFirst: return "read-first";
    case Policy::kTokenBudget: return "token-budget";
    case Policy::kFrFcfsCap: return "frfcfs-cap";
  }
  return "fcfs";
}

Policy policy_from_name(const std::string& name) {
  if (name == "fcfs") return Policy::kFcfs;
  if (name == "frfcfs") return Policy::kFrFcfs;
  if (name == "read-first") return Policy::kReadFirst;
  if (name == "token-budget") return Policy::kTokenBudget;
  if (name == "frfcfs-cap") return Policy::kFrFcfsCap;
  throw std::invalid_argument(
      "unknown scheduling policy '" + name +
      "'; expected fcfs, frfcfs, read-first, token-budget or frfcfs-cap");
}

const std::vector<PolicyInfo>& known_policies() {
  static const std::vector<PolicyInfo> policies = {
      {Policy::kFcfs, "fcfs",
       "in-order immediate handoff (the legacy arrival-order replay)"},
      {Policy::kFrFcfs, "frfcfs",
       "first-ready FCFS: oldest ready transaction first, preferring "
       "open-row / open-region hits"},
      {Policy::kReadFirst, "read-first",
       "reads issue ahead of writes, with write-drain hysteresis"},
      {Policy::kTokenBudget, "token-budget",
       "FR-FCFS limited to tenants with scheduling tokens left; buckets "
       "refill when every queued tenant is spent"},
      {Policy::kFrFcfsCap, "frfcfs-cap",
       "FR-FCFS with a per-tenant starvation cap: tenants passed over "
       "too often outrank row hits until they issue"},
  };
  return policies;
}

void ControllerConfig::validate() const {
  if (read_queue_depth < 0 || write_queue_depth < 0) {
    throw std::invalid_argument(
        "ControllerConfig: queue depths must be >= 0 (0 = unbounded)");
  }
  if (drain_high_watermark < 1) {
    throw std::invalid_argument(
        "ControllerConfig: drain_high_watermark must be >= 1");
  }
  if (drain_low_watermark < 0 ||
      drain_low_watermark > drain_high_watermark) {
    throw std::invalid_argument(
        "ControllerConfig: need 0 <= drain_low_watermark <= "
        "drain_high_watermark");
  }
  if (write_queue_depth > 0 && drain_high_watermark > write_queue_depth) {
    throw std::invalid_argument(
        "ControllerConfig: drain_high_watermark " +
        std::to_string(drain_high_watermark) + " exceeds write_queue_depth " +
        std::to_string(write_queue_depth) +
        "; the write queue can never fill that far");
  }
  if (tenant_tokens < 1) {
    throw std::invalid_argument(
        "ControllerConfig: tenant_tokens must be >= 1");
  }
  if (starvation_cap < 1) {
    throw std::invalid_argument(
        "ControllerConfig: starvation_cap must be >= 1");
  }
}

ControllerConfig ControllerConfig::with_depths(Policy policy,
                                               int read_queue_depth,
                                               int write_queue_depth) {
  ControllerConfig config;
  config.policy = policy;
  config.read_queue_depth = read_queue_depth;
  config.write_queue_depth = write_queue_depth;
  if (write_queue_depth > 0) {
    config.drain_high_watermark = std::max(1, write_queue_depth * 7 / 8);
    config.drain_low_watermark = write_queue_depth * 3 / 8;
  }
  config.validate();
  return config;
}

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// Policies consider only the 256 oldest entries of each queue — the
/// finite scheduling window of a real controller. It binds only for
/// unbounded (depth-0) queues deeper than any built-in configuration;
/// entries past it wait, in order, until issues inside it make room.
constexpr std::size_t kScanWindow = 256;

/// Queue kinds, indexing every per-queue array below.
constexpr std::size_t kReads = 0;
constexpr std::size_t kWrites = 1;

/// An admitted transaction waiting outside the scheduling window, or an
/// arrival waiting for a queue slot (admission overflow).
struct QueuedTx {
  std::uint64_t seq = 0;
  memsim::Request request;
  std::uint64_t admit_ps = 0;  ///< When it entered the transaction queue.
  memsim::RequestPlacement placement;
};

/// A schedulable transaction as arbitration sees it: everything its
/// rank depends on, plus the bank that completes its placement for
/// issue, so the per-bank scans stay dense. The Request itself rides in
/// a parallel array (BankQueue::requests) that only issue touches.
struct Candidate {
  std::uint64_t seq = 0;
  std::uint64_t admit_ps = 0;
  std::uint64_t row = 0;
  std::uint64_t region = 0;
  std::uint16_t tenant = 0;
  int bank = 0;  ///< The placement's bank (not the lead bank if striped).
};

}  // namespace

struct Controller::Impl {
  const memsim::MemorySystem& system;
  const ControllerConfig config;
  telemetry::Recorder* const telemetry;  ///< Null = no observability cost.
  memsim::ReplaySession session;
  /// The session's banks: the busy windows and open rows/regions every
  /// rank reads. Striped devices rank on bank 0, which the session
  /// keeps equal to every other bank.
  const std::span<const memsim::BankState> bank_state;

  // Policy traits and the timing inputs of every rank, hoisted out of
  // the scans.
  const bool striped;
  const bool has_row_buffer;
  const bool has_regions;
  const bool prefer_hits;
  const bool use_tokens;
  const bool use_starvation;
  const std::uint64_t cap;  ///< frfcfs-cap: config.starvation_cap.

  /// A candidate's arbitration rank, packed so that one unsigned
  /// compare orders two candidates and the smaller issues first, from
  /// the most significant field down:
  ///   bit 127      tenant rank — 0 when frfcfs-cap boosts a tenant at
  ///                its starvation cap (every other policy leaves all
  ///                candidates at 0, so the field never decides);
  ///   bits 63-126  issue instant in ps;
  ///   bit 62       hit rank — 0 for an open-row/-region hit;
  ///   bits 0-61    admission seq, unique, so ranks never tie (a run
  ///                would need 2^62 requests to overflow it).
  using Rank = unsigned __int128;
  static constexpr Rank kNoRank = ~Rank{0};  ///< Nothing to issue.
  static constexpr std::uint64_t kSeqMask = (1ull << 62) - 1;

  struct Pick {
    Rank rank = kNoRank;
    std::uint32_t bank = 0;  ///< Lead bank the candidate is filed under.
    bool from_writes = false;

    bool valid() const { return rank != kNoRank; }
    std::uint64_t issue_ps() const {
      return static_cast<std::uint64_t>(rank >> 63);
    }
    std::uint64_t seq() const {
      return static_cast<std::uint64_t>(rank) & kSeqMask;
    }
    bool beats(const Pick& other) const { return rank < other.rank; }
  };

  /// One queue's schedulable candidates on one bank, unordered (a
  /// pick's rank ends in its seq, so scan order never matters), with
  /// the best of them cached until something it depends on changes.
  struct BankQueue {
    std::vector<Candidate> candidates;
    std::vector<memsim::Request> requests;  ///< Parallel to candidates.
    Pick pick;
    bool dirty = false;
  };

  /// The candidates filed under one bank. Striped devices occupy every
  /// bank of the channel at once, so they file every candidate under
  /// lead bank 0.
  struct Bank {
    BankQueue queues[2];  ///< Indexed by kReads / kWrites.
  };

  /// One transaction queue: the oldest (up to kScanWindow) admitted
  /// entries are candidates filed under their banks; younger admitted
  /// entries wait in `beyond`, oldest first, and slide in one per
  /// in-window issue. `stalled` is the admission overflow: arrivals
  /// that found the (bounded) queue full, entering FIFO when an issue
  /// frees a slot.
  struct TxQueue {
    std::size_t in_window = 0;
    util::RingQueue<QueuedTx> beyond;
    util::RingQueue<QueuedTx> stalled;

    std::size_t size() const { return in_window + beyond.size(); }
  };

  // The state of the one channel served. None of it depends on another
  // channel's traffic, which is what makes the channel the unit of
  // replay.
  int channel = 0;  ///< The channel served: the first request's.
  TxQueue queues[2];  ///< Indexed by kReads / kWrites.
  std::vector<Bank> banks;
  bool draining = false;
  // Fairness-policy state, indexed by Request::tenant (0, the untagged
  // stream, included) and grown on demand — untagged legacy runs under
  // legacy policies never allocate.
  std::vector<int> tokens;  ///< token-budget: issues left this epoch.
  std::vector<std::uint64_t> starved;  ///< frfcfs-cap: passes endured.
  std::vector<std::uint64_t> queued_per_tenant;  ///< frfcfs-cap.
  // The channel pick: the best of the banks' cached picks over the
  // queue(s) the policy currently counts, invalid while nothing is
  // queued. An issue marks it dirty, and recomputing it rescans only
  // the dirty bank queues, then takes the minimum over the banks. An
  // admit folds its one new candidate in instead, except under
  // read-first (the counted queue may switch) and when that leaves no
  // valid pick (token-budget may have to refill).
  Pick cached_pick;
  bool pick_dirty = false;
  /// The issue clock: only ever moves forward. A deferred transaction
  /// (a write held behind reads, say) whose bank has long been idle
  /// still issues when the scheduler turns to it, not retroactively.
  std::uint64_t last_issue = 0;
  /// Scheduler statistics (the sched_* / queue / drain fields of its
  /// SimStats), merged into the session's slice at finish.
  memsim::ReplaySlice totals;

  std::uint64_t admitted = 0;  ///< Requests fed; the next one's seq.
  std::uint64_t prev_arrival = 0;
  bool finished = false;

  Impl(const memsim::MemorySystem& sys, const ControllerConfig& cfg,
       std::string workload_name, telemetry::Recorder* recorder)
      : system(sys),
        config(cfg),
        telemetry(recorder),
        session(sys, std::move(workload_name), recorder),
        bank_state(session.banks()),
        striped(sys.model().timing.line_striped_across_banks),
        has_row_buffer(sys.model().timing.has_row_buffer),
        has_regions(sys.model().timing.region_size_bytes != 0),
        prefer_hits(cfg.policy != Policy::kReadFirst),
        use_tokens(cfg.policy == Policy::kTokenBudget),
        use_starvation(cfg.policy == Policy::kFrFcfsCap),
        cap(static_cast<std::uint64_t>(cfg.starvation_cap)),
        banks(striped ? 1
                      : static_cast<std::size_t>(
                            sys.model().timing.banks_per_channel)) {}

  std::size_t lead_bank(const memsim::RequestPlacement& placement) const {
    return striped ? 0 : static_cast<std::size_t>(placement.bank);
  }

  /// Candidate `c`'s rank on lead bank `b`, or kNoRank if it may not
  /// issue. The rank reads only the session's bank state and the tenant
  /// state: ready once the bank frees (never before admission),
  /// preferring FR-FCFS open-row / open-region hits (a photonic GST
  /// region's switch penalty behaves like a row miss). token-budget skips tenants with
  /// an empty bucket (one the controller has not seen yet is full);
  /// frfcfs-cap boosts tenants at the starvation cap.
  Rank rank_of(std::size_t b, const Candidate& c) const {
    const memsim::BankState& bank = bank_state[b];
    const std::size_t tenant = c.tenant;
    if (use_tokens && tenant < tokens.size() && tokens[tenant] <= 0) {
      return kNoRank;
    }
    const bool hit = (has_row_buffer && bank.open_row == c.row) ||
                     (has_regions && bank.open_region == c.region);
    const bool miss = !prefer_hits || !hit;
    const bool unboosted = use_starvation && starved[tenant] < cap;
    const Rank issue_ps = std::max(c.admit_ps, bank.free_ps);
    return Rank{unboosted} << 127 | issue_ps << 63 | Rank{miss} << 62 | c.seq;
  }

  /// Bank `b`'s best `kind` candidate, rescanning only if stale.
  const Pick& bank_pick(std::size_t b, std::size_t kind) {
    BankQueue& bq = banks[b].queues[kind];
    if (bq.dirty) {
      Rank best = kNoRank;
      for (const Candidate& c : bq.candidates) {
        best = std::min(best, rank_of(b, c));
      }
      bq.pick = Pick{best, static_cast<std::uint32_t>(b), kind == kWrites};
      bq.dirty = false;
    }
    return bq.pick;
  }

  void invalidate_bank(Bank& bank) {
    bank.queues[kReads].dirty = true;
    bank.queues[kWrites].dirty = true;
  }

  /// A rank flipped for a whole tenant (token bucket emptied or
  /// refilled, starvation cap crossed or reset): every bank may hold
  /// its candidates.
  void invalidate_banks() {
    for (Bank& bank : banks) invalidate_bank(bank);
  }

  /// The better of `best` and every bank's `kind` pick.
  const Pick* best_of_banks(std::size_t kind, const Pick* best) {
    for (std::size_t b = 0; b < banks.size(); ++b) {
      const Pick& p = bank_pick(b, kind);
      if (p.beats(*best)) best = &p;
    }
    return best;
  }

  /// The transaction the policy would issue next (and when), or an
  /// invalid pick when nothing is queued. fcfs never holds
  /// transactions, so it never has picks. Non-const because
  /// token-budget refills the buckets when every queued tenant is spent.
  Pick next_issue() {
    static constexpr Pick kNone{};
    if (config.policy == Policy::kReadFirst) {
      // Strict read priority: writes issue only while draining or when
      // no read is pending (opportunistic background writes).
      const bool writes_first = draining || queues[kReads].size() == 0;
      const std::size_t preferred = writes_first ? kWrites : kReads;
      const std::size_t counted =
          queues[preferred].size() != 0 ? preferred : 1 - preferred;
      return *best_of_banks(counted, &kNone);
    }
    const Pick* best = best_of_banks(kWrites, best_of_banks(kReads, &kNone));
    if (use_tokens && !best->valid() &&
        queues[kReads].size() + queues[kWrites].size() != 0) {
      // Every in-window candidate is out of tokens: refill the buckets
      // and open the next epoch. The rescan is guaranteed a pick, so a
      // non-empty channel never deadlocks.
      std::fill(tokens.begin(), tokens.end(), config.tenant_tokens);
      invalidate_banks();
      best = best_of_banks(kWrites, best_of_banks(kReads, &kNone));
    }
    return *best;
  }

  void update_drain(std::uint64_t at_ps) {
    if (config.policy != Policy::kReadFirst) return;
    const auto writes = static_cast<int>(queues[kWrites].size());
    if (!draining) {
      if (writes >= config.drain_high_watermark) {
        draining = true;
        ++totals.stats.write_drains;
        if (telemetry) {
          telemetry->record_mark(channel, telemetry::MarkKind::kDrainBegin,
                                 at_ps);
        }
      }
    } else if (writes <= config.drain_low_watermark) {
      draining = false;
      if (telemetry) {
        telemetry->record_mark(channel, telemetry::MarkKind::kDrainEnd, at_ps);
      }
    }
  }

  /// Files `tx` as a candidate under its lead bank and returns its pick
  /// (invalid if its tenant has no tokens). A new candidate can only
  /// improve its bank's cached pick, so a clean pick absorbs it without
  /// a rescan.
  Pick file_candidate(std::size_t kind, const QueuedTx& tx) {
    const std::size_t b = lead_bank(tx.placement);
    BankQueue& bq = banks[b].queues[kind];
    Candidate c{tx.seq, tx.admit_ps, tx.placement.row, tx.placement.region,
                tx.request.tenant};
    c.bank = tx.placement.bank;
    bq.candidates.push_back(c);
    bq.requests.push_back(tx.request);
    ++queues[kind].in_window;
    const Pick p{rank_of(b, c), static_cast<std::uint32_t>(b),
                 kind == kWrites};
    if (!bq.dirty && p.beats(bq.pick)) bq.pick = p;
    return p;
  }

  /// Admits `tx` into its queue: a candidate while the window has room,
  /// else behind the window in arrival order. Returns the pick of the
  /// new candidate, invalid if there is none.
  Pick enqueue(std::size_t kind, QueuedTx&& tx) {
    if (config.policy == Policy::kFrFcfsCap) {
      // Stalled arrivals count only once admitted — starvation boosts
      // are pointless while nothing can be picked.
      const std::size_t tenant = tx.request.tenant;
      if (queued_per_tenant.size() <= tenant) {
        queued_per_tenant.resize(tenant + 1, 0);
        starved.resize(tenant + 1, 0);
      }
      ++queued_per_tenant[tenant];
    }
    TxQueue& q = queues[kind];
    if (q.beyond.empty() && q.in_window < kScanWindow) {
      return file_candidate(kind, tx);
    }
    q.beyond.push_back(std::move(tx));
    return Pick{};
  }

  /// Moves stalled arrivals into the queue a just-freed slot belongs
  /// to; they entered the controller at `at_ps` (the freeing issue).
  void admit_overflow(std::size_t kind, std::uint64_t at_ps) {
    TxQueue& q = queues[kind];
    const int depth =
        kind == kWrites ? config.write_queue_depth : config.read_queue_depth;
    while (!q.stalled.empty() &&
           (depth == 0 || static_cast<int>(q.size()) < depth)) {
      QueuedTx tx = std::move(q.stalled.front());
      q.stalled.pop_front();
      tx.admit_ps = std::max(tx.request.arrival_ps, at_ps);
      enqueue(kind, std::move(tx));
    }
  }

  /// Hands the placed `request` to the device at the next issue instant
  /// (no earlier than `ready_ps`); its bank's picks go stale, since the
  /// session just moved the bank's busy window and open row/region.
  void dispatch(const memsim::Request& request,
                const memsim::RequestPlacement& placement,
                std::uint64_t ready_ps) {
    const std::uint64_t issue_ps = std::max(ready_ps, last_issue);
    last_issue = issue_ps;
    const std::uint64_t completion_ps =
        session.feed_issued(request, placement, issue_ps);
    totals.stats.sched_queue_delay_ns.add(
        static_cast<double>(issue_ps - request.arrival_ps) * 1e-3);
    totals.stats.service_latency_ns.add(
        static_cast<double>(completion_ps - issue_ps) * 1e-3);
    invalidate_bank(banks[lead_bank(placement)]);
  }

  /// Issues the candidate `pick` names (found by seq in its bank
  /// queue), then updates the fairness state — invalidating every bank
  /// only when a tenant's rank flips — refills the window and the
  /// queue from behind, and re-evaluates write-drain hysteresis.
  void issue(Pick pick) {
    const std::size_t kind = pick.from_writes ? kWrites : kReads;
    BankQueue& bq = banks[pick.bank].queues[kind];
    std::size_t i = 0;
    while (bq.candidates[i].seq != pick.seq()) ++i;
    const Candidate c = bq.candidates[i];
    const memsim::Request request = bq.requests[i];
    bq.candidates[i] = bq.candidates.back();
    bq.candidates.pop_back();
    bq.requests[i] = bq.requests.back();
    bq.requests.pop_back();
    TxQueue& q = queues[kind];
    --q.in_window;

    const std::size_t tenant = c.tenant;
    if (config.policy == Policy::kTokenBudget) {
      if (tokens.size() <= tenant) {
        tokens.resize(tenant + 1, config.tenant_tokens);
      }
      --tokens[tenant];
      if (tokens[tenant] == 0) invalidate_banks();
    } else if (config.policy == Policy::kFrFcfsCap) {
      // The issuer's patience resets; every other tenant still holding
      // schedulable work was passed over once more.
      bool flipped = starved[tenant] >= cap;
      --queued_per_tenant[tenant];
      starved[tenant] = 0;
      for (std::size_t t = 0; t < queued_per_tenant.size(); ++t) {
        if (t == tenant || queued_per_tenant[t] == 0) continue;
        ++starved[t];
        if (starved[t] == cap) flipped = true;
      }
      if (flipped) invalidate_banks();
    }

    dispatch(request, {channel, c.bank, c.row, c.region}, pick.issue_ps());

    if (pick.from_writes && draining) {
      ++totals.stats.drained_writes;
      if (telemetry) telemetry->record_drained_write(channel, last_issue);
      if (queues[kReads].size() != 0) ++totals.stats.drain_stalls;
    }
    if (!q.beyond.empty()) {
      // The oldest entry behind the window slides into the freed slot.
      file_candidate(kind, q.beyond.front());
      q.beyond.pop_front();
    }
    admit_overflow(kind, last_issue);
    update_drain(last_issue);
    if (queues[kReads].size() == 0 && queues[kWrites].size() == 0) {
      // Nothing left to pick: skip the recompute a light load would
      // otherwise pay on every request.
      cached_pick = Pick{};
      pick_dirty = false;
    } else {
      pick_dirty = true;
    }
  }

  /// Issues, in (time, age) order, every transaction whose issue
  /// instant is <= limit. Issue instants only move forward (bank
  /// states monotonically advance, overflow admits at the freeing
  /// issue), so the session's issue-sorted contract holds.
  void advance_until(std::uint64_t limit) {
    for (;;) {
      if (pick_dirty) {
        cached_pick = next_issue();
        pick_dirty = false;
      }
      if (!cached_pick.valid() || cached_pick.issue_ps() > limit) return;
      issue(cached_pick);
    }
  }

  void feed(const memsim::Request& req) {
    if (admitted > 0) {
      memsim::check_arrival_order(admitted, prev_arrival, req.arrival_ps);
    }
    const memsim::RequestPlacement placement =
        system.address_map().place(req);
    if (admitted == 0) channel = placement.channel;
    if (placement.channel != channel) {
      throw std::logic_error("sched::Controller: request for another channel");
    }
    prev_arrival = req.arrival_ps;

    // Bring the controller up to this arrival instant.
    advance_until(req.arrival_ps);

    QueuedTx tx;
    tx.seq = admitted++;
    tx.request = req;
    tx.admit_ps = req.arrival_ps;
    tx.placement = placement;

    const std::size_t kind = req.op == memsim::Op::kWrite ? kWrites : kReads;
    const std::size_t reads = queues[kReads].size();
    const std::size_t writes = queues[kWrites].size();
    // The queue state each arrival observes (before joining it).
    totals.stats.read_queue_occupancy.add(static_cast<double>(reads));
    totals.stats.write_queue_occupancy.add(static_cast<double>(writes));
    if (telemetry) {
      telemetry->record_queue_sample(channel, req.arrival_ps, reads, writes);
    }

    if (config.policy == Policy::kFcfs) {
      // In-order immediate handoff: the device's own outstanding window
      // does all buffering — exactly the legacy arrival-order replay,
      // so unbounded-queue fcfs is bit-identical to no controller.
      dispatch(req, tx.placement, req.arrival_ps);
      return;
    }

    TxQueue& q = queues[kind];
    const int depth =
        kind == kWrites ? config.write_queue_depth : config.read_queue_depth;
    if (depth > 0 &&
        (static_cast<int>(q.size()) >= depth || !q.stalled.empty())) {
      ++totals.stats.admit_stalls;
      if (telemetry) {
        telemetry->record_mark(channel, telemetry::MarkKind::kAdmitStall,
                               req.arrival_ps);
      }
      q.stalled.push_back(std::move(tx));
    } else {
      const Pick p = enqueue(kind, std::move(tx));
      update_drain(req.arrival_ps);
      // Under the FR-FCFS ranks an admit only adds a candidate, so a
      // clean pick absorbs it. read-first may switch the queue it
      // counts, and a token-starved controller may need a refill: those
      // recompute.
      if (config.policy != Policy::kReadFirst && !pick_dirty && p.valid()) {
        if (p.beats(cached_pick)) cached_pick = p;
      } else {
        pick_dirty = true;
      }
    }
  }

  memsim::ReplaySlice finish_slice() {
    finished = true;
    advance_until(kNever);  // Drain every queue, stalled arrivals included.
    memsim::ReplaySlice slice = session.finish_slice();
    slice.stats.scheduled = true;
    slice.stats.sched_policy = policy_name(config.policy);
    memsim::merge_slice(slice, totals);
    return slice;
  }
};

Controller::Controller(const memsim::MemorySystem& system,
                       ControllerConfig config, std::string workload_name,
                       telemetry::Recorder* telemetry) {
  config.validate();
  impl_ = std::make_unique<Impl>(system, config, std::move(workload_name),
                                 telemetry);
}

Controller::Controller(Controller&&) noexcept = default;
Controller& Controller::operator=(Controller&&) noexcept = default;
Controller::~Controller() = default;

void Controller::feed(const memsim::Request& request) {
  if (impl_->finished) {
    throw std::logic_error("sched::Controller: feed() after finish()");
  }
  impl_->feed(request);
}

memsim::SimStats Controller::finish() {
  return memsim::finalize_slice(finish_slice(), impl_->system.model());
}

memsim::ReplaySlice Controller::finish_slice() {
  if (impl_->finished) {
    throw std::logic_error("sched::Controller: finish() called twice");
  }
  return impl_->finish_slice();
}

std::vector<std::unique_ptr<memsim::ShardLane>> make_lanes(
    const memsim::MemorySystem& system,
    const std::optional<ControllerConfig>& controller,
    const std::string& workload_name, telemetry::Recorder* telemetry) {
  std::vector<std::unique_ptr<memsim::ShardLane>> lanes;
  for (int c = 0; c < system.model().timing.channels; ++c) {
    if (controller) {
      lanes.push_back(std::make_unique<Controller>(system, *controller,
                                                   workload_name, telemetry));
    } else {
      lanes.push_back(std::make_unique<memsim::ReplaySession>(
          system, workload_name, telemetry));
    }
  }
  return lanes;
}

FlatSystem::FlatSystem(memsim::DeviceModel model,
                       std::optional<ControllerConfig> controller,
                       int run_threads)
    : system_(std::move(model)),
      controller_(std::move(controller)),
      run_threads_(memsim::resolve_run_threads(run_threads)) {
  if (controller_) controller_->validate();
}

memsim::SimStats FlatSystem::run(memsim::RequestSource& source,
                                 const std::string& workload_name) const {
  telemetry::Recorder* recorder = telemetry_stage(system_.model());
  if (!controller_ && run_threads_ == 1) {
    return memsim::run_sessions(system_, source, workload_name, recorder,
                                profiler());
  }
  return memsim::run_sharded(
      system_, make_lanes(system_, controller_, workload_name, recorder),
      run_threads_, source, profiler());
}

}  // namespace comet::sched
