// Reliable delivery over an unreliable wire: the sublayer that restores
// exactly-once, in-order batch delivery on top of FaultyFabric (or any
// Fabric), the way the paper's MPI transport would over a lossy link.
//
// Wire format: every batch ReliableFabric ships is prefixed with one
// kControl NetMessage —
//
//   word  | data batch                   | standalone ACK
//   ------+------------------------------+-------------------------------
//   cmd   | kControl | kData<<8          | kControl | kAck<<8
//         | | era<<16 | ackEra<<32       | | ackEra<<32
//   dest  | destination node             | destination node (the sender
//         |                              | being acknowledged)
//   addr  | seq: per-(src,dst) batch     | 0
//         | sequence number, from 1      |
//   value | cumAck: highest contiguously | cumAck, same
//         | *resolved* seq of the        |
//         | reverse link (piggyback)     |
//
// Sender side (per directed link): batches get consecutive seqs and are kept
// until cumulatively acknowledged; a timeout retransmits the oldest unacked
// batch with exponential backoff. What happens when the retry budget
// exhausts depends on the FailurePolicy:
//
//   fail_fast (default) — latch a structured LinkFailureInfo; quiet()
//     surfaces it as LinkFailureError. Exactly the pre-degradation behavior.
//
//   degrade — the link's circuit breaker trips (closed -> open): the link is
//     re-synced under a new era (seq state reset on both ends, stale-era
//     frames and ACKs rejected), unacked batches past the receiver's
//     settlement level are drained to the DeadLetterQueue with full
//     accounting, and the attached Membership is told. A suspect node whose
//     link trips is declared dead and excised whole. While the breaker is
//     open, sends to a dead endpoint dead-letter immediately (the GPU queues
//     keep draining); otherwise, after breaker_cooldown the next send rides
//     through as a half-open probe — an ACK closes the breaker and confirms
//     the node alive, another exhaustion re-trips it.
//
// Receiver side: batches at seq <= delivered are duplicates (dropped,
// re-ACKed if already resolved); gaps park in a bounded reorder window;
// in-order batches are handed to the network thread, and the cumulative ACK
// advances only once markResolved() says the payload was applied — so a
// duplicate can never convince quiet() that unresolved work is done.
//
// ACKs travel on the same hostile wire (piggybacked on reverse data and as
// standalone ACK batches); a lost ACK just means one more retransmission and
// one more receiver-side dup-drop. Cumulative ACKs are idempotent — and
// era-tagged, so an ACK from before a re-sync can never erase batches of the
// link's new incarnation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic.hpp"
#include "net/dead_letter.hpp"
#include "net/fabric.hpp"
#include "runtime/membership.hpp"

namespace gravel::net {

/// What an exhausted retry budget means (DESIGN.md §11).
enum class FailurePolicy : std::uint8_t {
  kFailFast = 0,  ///< latch LinkFailureInfo; quiet() throws (the default)
  kDegrade = 1,   ///< trip the breaker, excise dead nodes, keep going
};

/// Per-link circuit breaker state (degrade policy only).
enum class BreakerState : std::uint8_t {
  kClosed = 0,    ///< normal operation
  kOpen = 1,      ///< excised: sends dead-letter (or probe after cooldown)
  kHalfOpen = 2,  ///< one probe in flight; an ACK closes, a trip re-opens
};

inline const char* breakerStateName(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

struct ReliabilityConfig {
  bool enabled = false;

  /// Initial retransmit timeout; doubles per retry up to rto_max.
  std::chrono::microseconds rto_base{2000};
  std::chrono::microseconds rto_max{50000};

  /// Consecutive retransmissions of one batch without ACK progress before
  /// the link is declared failed (fail_fast) or its breaker trips (degrade).
  std::uint32_t max_retries = 40;

  /// Receiver-side reorder buffer capacity (batches) per link; batches
  /// beyond a gap wider than this are dropped and later retransmitted.
  std::uint32_t reorder_window = 64;

  /// Failure policy for exhausted retry budgets.
  FailurePolicy policy = FailurePolicy::kFailFast;

  /// degrade: how long an open breaker refuses traffic before the next send
  /// is allowed through as a half-open probe (dead endpoints never probe).
  std::chrono::milliseconds breaker_cooldown{20};

  /// degrade: per-destination dead-letter store bound (messages). The
  /// Cluster sizes its DeadLetterQueue from this; overflow is counted, not
  /// stored, and enqueue-side admission control pushes back.
  std::uint64_t dlq_capacity = 65536;
};

/// Sequence/ACK/retransmit/dedup sublayer. Owns per-link protocol state;
/// the wrapped `wire` does the actual (possibly faulty) transport.
class ReliableFabric : public Fabric {
 public:
  ReliableFabric(Fabric& wire, const ReliabilityConfig& config)
      : wire_(wire),
        config_(config),
        nodes_(wire.nodes()),
        sendLinks_(std::size_t{nodes_} * nodes_),
        recvLinks_(std::size_t{nodes_} * nodes_),
        ready_(nodes_),
        eras_(std::size_t{nodes_} * nodes_),
        links_(std::size_t{nodes_} * nodes_) {}

  std::uint32_t nodes() const noexcept override { return nodes_; }

  /// Enables the degrade policy's collaborators. Both must outlive this
  /// fabric; without them (or under fail_fast) the breaker logic is inert
  /// and behavior is bit-identical to the pre-degradation layer.
  void attachDegrade(rt::Membership* membership, DeadLetterQueue* dlq) {
    membership_ = membership;
    dlq_ = dlq;
  }

  void send(std::uint32_t src, std::uint32_t dst,
            std::vector<rt::NetMessage>&& batch) override {
    GRAVEL_CHECK_MSG(src < nodes_ && dst < nodes_, "bad fabric endpoint");
    if (batch.empty()) return;
    {
      // Counted before any breaker decision: `sent` includes dead-lettered
      // messages, which is what makes delivered + dead_lettered == sent the
      // conservation invariant of a degraded run.
      gravel::lock_guard lk(statsMutex_);
      LinkStats& link = links_[linkIndex(src, dst)];
      ++link.batches;
      link.messages += batch.size();
      link.bytes += batch.size() * sizeof(rt::NetMessage);
      batchBytes_.add(double(batch.size() * sizeof(rt::NetMessage)));
    }
    SendLink& L = sendLinks_[linkIndex(src, dst)];
    std::uint64_t seq = 0;
    std::uint32_t era = 0;
    bool toDeadLetter = false;
    bool probed = false;
    {
      gravel::lock_guard lk(L.mutex);
      if (degrade() && L.breaker == BreakerState::kOpen) {
        const bool endpointDead =
            membership_->dead(src) || membership_->dead(dst);
        const bool cooled = std::chrono::steady_clock::now() - L.openedAt >=
                            config_.breaker_cooldown;
        if (endpointDead || !cooled) {
          toDeadLetter = true;
        } else {
          L.breaker = BreakerState::kHalfOpen;  // this batch is the probe
          probed = true;
        }
      }
      if (!toDeadLetter) {
        seq = L.nextSeq++;
        // Era read under L.mutex: resyncLink bumps it under the same lock,
        // so a frame enqueued as unacked always carries the era its entry
        // was created under — a concurrent re-sync leaves it stale, and the
        // receiver rejects it instead of double-counting.
        era = eras_[linkIndex(src, dst)].load(std::memory_order_relaxed);
        L.unacked.emplace(seq, batch);  // keep a copy for retransmission
        if (L.unacked.size() == 1) {
          L.rto = config_.rto_base;
          L.retries = 0;
          const auto now = std::chrono::steady_clock::now();
          L.nextRetryAt = now + L.rto;
          L.oldestSince = now;  // this batch just became the oldest unacked
        }
      }
    }
    if (toDeadLetter) {
      dlq_->push(src, dst, std::move(batch));
      return;
    }
    if (probed) {
      gravel::lock_guard lk(statsMutex_);
      ++relStats_.probes;
    }
    outstanding_.fetch_add(1, std::memory_order_release);  // pairs-with: reliable.outstanding
    ship(src, dst, seq, era, std::move(batch));
  }

  bool tryReceive(std::uint32_t dst, Delivery& out) override {
    // Drain the wire first: ACKs are absorbed here, data batches pass
    // through dedup/reorder into the ready queue.
    Delivery raw;
    while (wire_.tryReceive(dst, raw)) {
      wire_.markResolved(dst, raw);  // wire-level accounting only
      GRAVEL_CHECK_MSG(!raw.messages.empty() &&
                           raw.messages.front().command() ==
                               rt::Command::kControl,
                       "reliable fabric received an unframed batch");
      const rt::NetMessage header = raw.messages.front();
      applyAck(dst, raw.src, header.cumAck(), header.ackEra());
      if (header.controlKind() == rt::ControlKind::kData)
        admitData(raw.src, dst, header.seq(), header.era(),
                  std::move(raw.messages));
    }
    ReadyQueue& rq = ready_[dst];
    {
      gravel::lock_guard lk(rq.mutex);
      if (rq.pending.empty()) return false;
      out = std::move(rq.pending.front());
      rq.pending.pop_front();
    }
    // Decrement outside the critical section (keeps the lock hold short).
    // Ordering vs quiescent(): the count was incremented before the batch
    // became poppable, so this sub can never drive the count below the
    // number of still-pending batches.
    readyCount_.fetch_sub(1, std::memory_order_release);  // pairs-with: reliable.ready-count
    return true;
  }

  /// Resolution is what advances the cumulative ACK: the network thread has
  /// applied every message of `d`, so tell the sender. A delivery admitted
  /// under a stale era (the link was re-synced after admission) is never
  /// acknowledged — its sender-side copy was already settled or
  /// dead-lettered, and a stale seq must not corrupt the new incarnation's
  /// resolution level.
  void markResolved(std::uint32_t self, const Delivery& d) override {
    RecvLink& R = recvLinks_[linkIndex(d.src, self)];
    std::uint32_t ackEra = 0;
    {
      gravel::lock_guard lk(R.mutex);
      const std::uint32_t era =
          eras_[linkIndex(d.src, self)].load(std::memory_order_relaxed) &
          kEraWireMask;
      if (era != (d.era & kEraWireMask)) return;
      // Per-link deliveries reach the (single) network thread in seq order,
      // so a plain store keeps `resolved` monotonic within an era.
      R.resolved.store(d.seq, std::memory_order_release);  // pairs-with: reliable.resolved
      ackEra = era;
    }
    {
      gravel::lock_guard lk(statsMutex_);
      ++relStats_.acks_sent;
    }
    wire_.send(self, d.src,
               {rt::NetMessage::control(d.src, rt::ControlKind::kAck, 0, d.seq,
                                        0, ackEra)});
  }

  /// Retransmit scan, driven by node `self`'s network thread.
  void poll(std::uint32_t self) override {
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::uint32_t> exhausted;
    for (std::uint32_t dst = 0; dst < nodes_; ++dst) {
      SendLink& L = sendLinks_[linkIndex(self, dst)];
      std::vector<rt::NetMessage> frame;
      std::uint64_t seq = 0;
      std::uint32_t era = 0;
      {
        gravel::lock_guard lk(L.mutex);
        if (L.unacked.empty() || now < L.nextRetryAt) continue;
        const auto oldest = L.unacked.begin();
        if (L.retries >= config_.max_retries) {
          L.nextRetryAt = now + L.rto;  // stop hot-looping a dead link
          if (!degrade()) {
            latchFailure(
                LinkFailureInfo{self, dst, oldest->first, L.retries});
            continue;
          }
          exhausted.push_back(dst);  // trip outside the link lock
          continue;
        }
        ++L.retries;
        L.rto = std::min(L.rto * 2, config_.rto_max);
        L.nextRetryAt = now + L.rto;
        seq = oldest->first;
        frame = oldest->second;  // copy; the original stays until ACKed
        era = eras_[linkIndex(self, dst)].load(std::memory_order_relaxed);
      }
      {
        gravel::lock_guard lk(statsMutex_);
        ++links_[linkIndex(self, dst)].retransmits;
      }
      ship(self, dst, seq, era, std::move(frame));
    }
    for (std::uint32_t dst : exhausted) tripLink(self, dst);
  }

  /// Quiescence is ACK-based, deliberately ignoring the wire's own in-flight
  /// count: on a lossy wire that count includes batches the adversary
  /// discarded (they will never resolve — that is how a naive quiet() wedges).
  /// outstanding_ == 0 means every data batch was resolved at its destination
  /// and acknowledged back — or settled/dead-lettered by a breaker trip;
  /// whatever still sits in wire inboxes can only be duplicates, stale
  /// retransmissions or ACKs, all idempotent (stale eras are rejected).
  bool quiescent() const override {
    // pairs-with: reliable.outstanding, reliable.ready-count
    return outstanding_.load(std::memory_order_acquire) == 0 &&
           readyCount_.load(std::memory_order_acquire) == 0;
  }

  std::optional<LinkFailureInfo> failure() const override {
    gravel::lock_guard lk(failureMutex_);
    return failure_;
  }

  std::string describePending() const override {
    std::ostringstream os;
    os << "reliability: " << outstanding_.load(std::memory_order_acquire)
       << " unacked batch(es)";
    for (std::uint32_t s = 0; s < nodes_; ++s) {
      for (std::uint32_t d = 0; d < nodes_; ++d) {
        const SendLink& L = sendLinks_[linkIndex(s, d)];
        gravel::lock_guard lk(L.mutex);
        if (L.unacked.empty()) continue;
        os << "; link " << s << "->" << d << ": " << L.unacked.size()
           << " unacked (oldest seq " << L.unacked.begin()->first
           << ", next seq " << L.nextSeq << ", retries " << L.retries << ")";
      }
    }
    for (std::uint32_t s = 0; s < nodes_; ++s) {
      for (std::uint32_t d = 0; d < nodes_; ++d) {
        const RecvLink& R = recvLinks_[linkIndex(s, d)];
        gravel::lock_guard lk(R.mutex);
        if (R.reorder.empty()) continue;
        os << "; reorder " << s << "->" << d << ": " << R.reorder.size()
           << " parked (delivered " << R.delivered << ")";
      }
    }
    for (std::uint32_t n = 0; n < nodes_; ++n) {
      const ReadyQueue& rq = ready_[n];
      gravel::lock_guard lk(rq.mutex);
      if (!rq.pending.empty())
        os << "; ready[" << n << "]: " << rq.pending.size()
           << " undelivered batch(es)";
    }
    if (degrade()) {
      for (const LinkBreakerSnapshot& b : breakerStates())
        if (b.state != BreakerState::kClosed)
          os << "; link " << b.src << "->" << b.dst
             << " excised by failure policy (breaker "
             << breakerStateName(b.state) << ", era " << b.era << ")";
      const DeadLetterStats d = dlq_->stats();
      if (d.dead_lettered != 0)
        os << "; dead-letter: " << d.dead_lettered << " message(s) ("
           << d.stored << " stored, " << d.redelivered << " redelivered, "
           << d.evicted << " evicted)";
    }
    os << "; " << wire_.describePending();
    return os.str();
  }

  LinkStats link(std::uint32_t src, std::uint32_t dst) const override {
    gravel::lock_guard lk(statsMutex_);
    return links_[linkIndex(src, dst)];
  }

  LinkStats total() const override {
    gravel::lock_guard lk(statsMutex_);
    LinkStats t;
    for (const auto& l : links_) {
      t.batches += l.batches;
      t.messages += l.messages;
      t.bytes += l.bytes;
      t.retransmits += l.retransmits;
      t.dup_drops += l.dup_drops;
      t.acks += l.acks;
    }
    return t;
  }

  RunningStat batchSizeBytes() const override {
    gravel::lock_guard lk(statsMutex_);
    return batchBytes_;
  }

  FaultStats faultStats() const override { return wire_.faultStats(); }

  ReliabilityStats reliabilityStats() const override {
    gravel::lock_guard lk(statsMutex_);
    return relStats_;
  }

  /// The tracer also reaches the wrapped wire, so kWireSend events fire at
  /// the real transport boundary (retransmissions included).
  void setTracer(obs::Tracer* tracer) override {
    Fabric::setTracer(tracer);
    wire_.setTracer(tracer);
  }

  /// Unacked data batches — the ACK-based quiescence depth.
  std::uint64_t pendingCount() const override {
    return outstanding_.load(std::memory_order_acquire);  // pairs-with: reliable.outstanding
  }

  /// Snapshot of one directed link's sender-side protocol state, for the
  /// metrics registry and the quiet-deadline post-mortem. Only links with
  /// unacked traffic are reported.
  struct LinkSendState {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t unacked = 0;     ///< batches awaiting cumulative ACK
    std::uint64_t oldest_seq = 0;  ///< lowest unacknowledged sequence
    std::uint64_t next_seq = 0;    ///< next sequence the sender will assign
    std::uint32_t retries = 0;     ///< consecutive retransmits w/o progress
    std::uint64_t stalled_ns = 0;  ///< time since the last cumulative-ACK
                                   ///< advance (watchdog stalled-link input)
    BreakerState breaker = BreakerState::kClosed;
    std::uint32_t era = 0;  ///< current link era (re-sync count)
  };

  std::vector<LinkSendState> sendStates() const {
    const auto now = std::chrono::steady_clock::now();
    std::vector<LinkSendState> out;
    for (std::uint32_t s = 0; s < nodes_; ++s) {
      for (std::uint32_t d = 0; d < nodes_; ++d) {
        const SendLink& L = sendLinks_[linkIndex(s, d)];
        gravel::lock_guard lk(L.mutex);
        if (L.unacked.empty()) continue;
        const auto stalled =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - L.oldestSince)
                .count();
        out.push_back(LinkSendState{
            s, d, L.unacked.size(), L.unacked.begin()->first, L.nextSeq,
            L.retries, stalled > 0 ? std::uint64_t(stalled) : 0, L.breaker,
            // pairs-with: reliable.era
            eras_[linkIndex(s, d)].load(std::memory_order_acquire)});
      }
    }
    return out;
  }

  /// Breaker/era view of every link that has ever tripped or re-synced —
  /// the DegradedRunReport's tripped_links and the post-mortem's excision
  /// lines come from here.
  struct LinkBreakerSnapshot {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    BreakerState state = BreakerState::kClosed;
    std::uint32_t era = 0;
  };

  std::vector<LinkBreakerSnapshot> breakerStates() const {
    std::vector<LinkBreakerSnapshot> out;
    for (std::uint32_t s = 0; s < nodes_; ++s) {
      for (std::uint32_t d = 0; d < nodes_; ++d) {
        const std::uint32_t era =
            eras_[linkIndex(s, d)].load(std::memory_order_acquire);
        const SendLink& L = sendLinks_[linkIndex(s, d)];
        gravel::lock_guard lk(L.mutex);
        if (L.breaker == BreakerState::kClosed && era == 0) continue;
        out.push_back(LinkBreakerSnapshot{s, d, L.breaker, era});
      }
    }
    return out;
  }

  /// Batches currently parked in receiver reorder buffers, cluster-wide.
  /// Gauge-cadence only: walks every link under its lock.
  std::uint64_t reorderDepth() const {
    std::uint64_t depth = 0;
    for (const RecvLink& R : recvLinks_) {
      gravel::lock_guard lk(R.mutex);
      depth += R.reorder.size();
    }
    return depth;
  }

  // --- crash/restart injection (degrade policy; Cluster::crashNode) -------

  /// Excises every link touching `n`: breakers open, eras bump, unacked
  /// traffic settles against the receiver's truth and the remainder is
  /// dead-lettered. `receiverStopped` says node n's network unit has been
  /// parked (crashNode): its ready queue is discarded and
  /// settlement uses the *resolved* level; a merely unreachable node (trip
  /// path) still runs its network thread, which will drain what was already
  /// admitted, so settlement uses the *delivered* level.
  void exciseNode(std::uint32_t n, bool receiverStopped) {
    GRAVEL_CHECK_MSG(degrade(), "exciseNode requires the degrade policy");
    for (std::uint32_t peer = 0; peer < nodes_; ++peer) {
      resyncLink(peer, n, receiverStopped, BreakerState::kOpen);
      if (peer != n)
        resyncLink(n, peer, /*receiverStopped=*/false, BreakerState::kOpen);
    }
    if (receiverStopped) clearReady(n);
  }

  /// Re-syncs every link touching `n` for a restart: seq state back to 1 on
  /// both ends, another era bump (so frames from the dead incarnation stay
  /// rejected), breakers closed. Call after Membership::restart(n) and
  /// before the node's network thread is started again.
  void resetNode(std::uint32_t n) {
    GRAVEL_CHECK_MSG(degrade(), "resetNode requires the degrade policy");
    for (std::uint32_t peer = 0; peer < nodes_; ++peer) {
      resyncLink(peer, n, /*receiverStopped=*/true, BreakerState::kClosed);
      if (peer != n)
        resyncLink(n, peer, /*receiverStopped=*/true, BreakerState::kClosed);
    }
  }

  /// Redelivers dead-lettered traffic involving `n` through the normal send
  /// path (fresh seqs under the new era). Entries whose counterpart is
  /// still dead are re-parked without recounting. Redelivered messages
  /// count as sent again, keeping delivered + dead_lettered == sent exact.
  void redeliver(std::uint32_t n) {
    GRAVEL_CHECK_MSG(degrade(), "redeliver requires the degrade policy");
    for (DeadLetterQueue::Entry& e : dlq_->drainFor(n)) {
      if (membership_->dead(e.src) || membership_->dead(e.dst)) {
        dlq_->restore(std::move(e));
        continue;
      }
      const std::uint64_t count = e.msgs.size();
      send(e.src, e.dst, std::move(e.msgs));
      dlq_->noteRedelivered(count);
    }
  }

  /// The wrapped transport (wire-level counters include retransmissions,
  /// duplicates and ACK traffic; this layer's counters are app-level).
  Fabric& wire() noexcept { return wire_; }

 private:
  static constexpr std::uint32_t kEraWireMask =
      std::uint32_t(rt::NetMessage::kEraFieldMask);

  struct SendLink {
    mutable gravel::mutex mutex{"ReliableFabric::SendLink::mutex"};
    std::uint64_t nextSeq GRAVEL_GUARDED_BY(mutex) = 1;
    std::map<std::uint64_t, std::vector<rt::NetMessage>> unacked
        GRAVEL_GUARDED_BY(mutex);
    std::chrono::steady_clock::time_point nextRetryAt
        GRAVEL_GUARDED_BY(mutex){};
    std::chrono::microseconds rto GRAVEL_GUARDED_BY(mutex){0};
    std::uint32_t retries GRAVEL_GUARDED_BY(mutex) = 0;
    /// When the current oldest unacked seq became the oldest — reset on
    /// every cumulative-ACK advance, so (now - oldestSince) is how long the
    /// link has made zero forward progress. The stall watchdog's
    /// stalled-link signal.
    std::chrono::steady_clock::time_point oldestSince
        GRAVEL_GUARDED_BY(mutex){};
    // Circuit breaker (degrade policy; untouched under fail_fast).
    BreakerState breaker GRAVEL_GUARDED_BY(mutex) = BreakerState::kClosed;
    std::chrono::steady_clock::time_point openedAt GRAVEL_GUARDED_BY(mutex){};
  };
  struct RecvLink {
    mutable gravel::mutex mutex{"ReliableFabric::RecvLink::mutex"};
    /// Highest seq handed upward (contiguous).
    std::uint64_t delivered GRAVEL_GUARDED_BY(mutex) = 0;
    std::map<std::uint64_t, std::vector<rt::NetMessage>> reorder
        GRAVEL_GUARDED_BY(mutex);
    /// Cumulative ACK level. Atomic, not guarded: written under mutex but
    /// read lock-free by ship()'s piggyback path (era-fenced; see ship()).
    atomic<std::uint64_t> resolved{0};
  };
  struct ReadyQueue {
    mutable gravel::mutex mutex{"ReliableFabric::ReadyQueue::mutex"};
    std::deque<Delivery> pending GRAVEL_GUARDED_BY(mutex);
  };

  std::size_t linkIndex(std::uint32_t src, std::uint32_t dst) const noexcept {
    return std::size_t{src} * nodes_ + dst;
  }

  bool degrade() const noexcept {
    return config_.policy == FailurePolicy::kDegrade &&
           membership_ != nullptr && dlq_ != nullptr;
  }

  /// Frames `payload` with a kData header (fresh piggybacked ACK each time,
  /// retransmissions included) and puts it on the wire. `era` is the link
  /// era the batch's unacked entry was created under (read under L.mutex).
  void ship(std::uint32_t src, std::uint32_t dst, std::uint64_t seq,
            std::uint32_t era, std::vector<rt::NetMessage>&& payload) {
    // Piggyback the reverse link's resolution level: dst's traffic into src.
    // Era first, then the level — resyncLink zeroes `resolved` before the
    // era bump (release), so reading the new era (acquire) guarantees the
    // level read next is not a stale pre-resync value: a new-era frame can
    // never piggyback an ACK from the old incarnation.
    const std::uint32_t ackEra =
        eras_[linkIndex(dst, src)].load(std::memory_order_acquire) &
        kEraWireMask;
    const std::uint64_t piggy =
        recvLinks_[linkIndex(dst, src)].resolved.load(
            std::memory_order_acquire);
    std::vector<rt::NetMessage> frame;
    frame.reserve(payload.size() + 1);
    frame.push_back(rt::NetMessage::control(
        dst, rt::ControlKind::kData, seq, piggy, era & kEraWireMask, ackEra));
    frame.insert(frame.end(), payload.begin(), payload.end());
    wire_.send(src, dst, std::move(frame));
  }

  void applyAck(std::uint32_t self, std::uint32_t from, std::uint64_t ack,
                std::uint32_t ackEra) {
    if (ack == 0) return;
    SendLink& L = sendLinks_[linkIndex(self, from)];
    std::uint64_t erased = 0;
    bool stale = false;
    bool probeClosed = false;
    {
      gravel::lock_guard lk(L.mutex);
      if ((eras_[linkIndex(self, from)].load(std::memory_order_relaxed) &
           kEraWireMask) != (ackEra & kEraWireMask)) {
        // An ACK from before a re-sync: its seqs belong to the old
        // incarnation and must not erase the new one's unacked batches.
        stale = true;
      } else {
        auto end = L.unacked.upper_bound(ack);
        for (auto it = L.unacked.begin(); it != end;) {
          it = L.unacked.erase(it);
          ++erased;
        }
        if (erased > 0) {
          L.retries = 0;
          L.rto = config_.rto_base;
          const auto now = std::chrono::steady_clock::now();
          L.nextRetryAt = now + L.rto;
          L.oldestSince = now;  // cumulative ACK advanced: progress was made
          if (L.breaker == BreakerState::kHalfOpen) {
            L.breaker = BreakerState::kClosed;  // the probe got through
            probeClosed = true;
          }
        }
      }
    }
    if (stale) {
      gravel::lock_guard lk(statsMutex_);
      ++relStats_.stale_ack_drops;
      return;
    }
    if (erased > 0) {
      // pairs-with: reliable.outstanding
      outstanding_.fetch_sub(erased, std::memory_order_release);
      gravel::lock_guard lk(statsMutex_);
      ++links_[linkIndex(self, from)].acks;
    }
    if (erased > 0 && membership_ != nullptr) {
      // ACK progress is proof of life: it clears a stall-raised suspicion
      // (or reconfirms a restarted node). health() is lock-free, so the
      // common all-alive case costs one relaxed-ish load here.
      const rt::NodeHealth h = membership_->health(from);
      if (probeClosed || h == rt::NodeHealth::kSuspect ||
          h == rt::NodeHealth::kRecovered)
        membership_->confirmAlive(
            from, probeClosed ? "half-open probe acknowledged"
                              : "cumulative ACK progress resumed");
    }
  }

  /// `frame` includes the header at index 0; it is stripped before delivery.
  void admitData(std::uint32_t src, std::uint32_t self, std::uint64_t seq,
                 std::uint32_t era, std::vector<rt::NetMessage>&& frame) {
    frame.erase(frame.begin());
    RecvLink& R = recvLinks_[linkIndex(src, self)];
    bool reack = false;
    bool stale = false;
    std::uint64_t level = 0;
    std::uint32_t ackEra = 0;
    {
      gravel::lock_guard lk(R.mutex);
      const std::uint32_t current =
          eras_[linkIndex(src, self)].load(std::memory_order_relaxed) &
          kEraWireMask;
      if ((era & kEraWireMask) != current) {
        // Stale incarnation: the link was excised/re-synced after this
        // frame was shipped. Its payload was settled or dead-lettered on
        // the sender side — applying it here would double-count.
        stale = true;
      } else if (seq <= R.delivered) {
        // Duplicate (wire dup, or retransmit after a lost ACK). If already
        // resolved, the sender clearly missed the ACK: send it again.
        bumpDupDrop(src, self);
        // pairs-with: reliable.resolved
        reack = seq <= R.resolved.load(std::memory_order_acquire);
        level = R.resolved.load(std::memory_order_acquire);
        ackEra = current;
      } else if (seq == R.delivered + 1) {
        pushReady(self, Delivery{src, seq, std::move(frame), era});
        R.delivered = seq;
        // Drain whatever the gap was hiding.
        for (auto it = R.reorder.begin();
             it != R.reorder.end() && it->first == R.delivered + 1;
             it = R.reorder.erase(it)) {
          pushReady(self, Delivery{src, it->first, std::move(it->second), era});
          R.delivered = it->first;
        }
      } else if (R.reorder.count(seq)) {
        bumpDupDrop(src, self);
      } else if (R.reorder.size() >= config_.reorder_window) {
        // Out of window: drop; the sender's retransmit closes the gap first.
        gravel::lock_guard slk(statsMutex_);
        ++relStats_.reorder_drops;
      } else {
        R.reorder.emplace(seq, std::move(frame));
        gravel::lock_guard slk(statsMutex_);
        relStats_.reorder_peak =
            std::max(relStats_.reorder_peak,
                     std::uint64_t(R.reorder.size()));
      }
    }
    if (stale) {
      gravel::lock_guard lk(statsMutex_);
      ++relStats_.stale_data_drops;
      return;
    }
    if (reack) {
      wire_.send(self, src,
                 {rt::NetMessage::control(src, rt::ControlKind::kAck, 0, level,
                                          0, ackEra)});
    }
  }

  void bumpDupDrop(std::uint32_t src, std::uint32_t self) {
    gravel::lock_guard lk(statsMutex_);
    ++links_[linkIndex(src, self)].dup_drops;
  }

  void pushReady(std::uint32_t self, Delivery&& d) {
    ReadyQueue& rq = ready_[self];
    // Increment before the push becomes visible: quiescent() may over-count
    // briefly (conservative) but never under-counts a pending batch.
    readyCount_.fetch_add(1, std::memory_order_release);  // pairs-with: reliable.ready-count
    gravel::lock_guard lk(rq.mutex);
    rq.pending.push_back(std::move(d));
  }

  void latchFailure(const LinkFailureInfo& info) {
    gravel::lock_guard lk(failureMutex_);
    if (!failure_) failure_ = info;
  }

  /// An exhausted retry budget under the degrade policy: excise this link;
  /// when the failure detector already suspected the destination, the
  /// exhaustion corroborates the suspicion and the whole node is excised.
  void tripLink(std::uint32_t src, std::uint32_t dst) {
    // A dead source does not vote: a fully isolated node's own outgoing
    // links exhaust too, and letting it declare every peer dead would turn
    // one failure into eight.
    if (membership_->dead(src)) return;
    const std::string link =
        std::to_string(src) + "->" + std::to_string(dst);
    const rt::NodeHealth before = membership_->health(dst);
    resyncLink(src, dst, /*receiverStopped=*/false, BreakerState::kOpen);
    if (membership_->dead(dst)) return;  // raced with another excision
    if (before == rt::NodeHealth::kSuspect) {
      if (membership_->declareDead(
              dst, "retry budget exhausted on link " + link +
                       " while suspect"))
        exciseNode(dst, /*receiverStopped=*/false);
    } else {
      membership_->suspect(dst, "retry budget exhausted on link " + link);
    }
  }

  /// Re-syncs one directed link under a new era: settle what the receiver
  /// already has, dead-letter the rest, reset seq state on both ends, leave
  /// the breaker in `endState` (open for excision, closed for restart).
  void resyncLink(std::uint32_t s, std::uint32_t d, bool receiverStopped,
                  BreakerState endState) {
    SendLink& L = sendLinks_[linkIndex(s, d)];
    RecvLink& R = recvLinks_[linkIndex(s, d)];
    std::vector<std::vector<rt::NetMessage>> dead;
    std::uint64_t erased = 0;
    bool tripped = false;
    {
      // Fixed L-then-R order (gravel::mutex has no try_lock, so no
      // std::lock deadlock-avoidance): safe because every other path in
      // this class holds at most one of the two link mutexes at a time.
      gravel::lock_guard lkL(L.mutex);
      gravel::lock_guard lkR(R.mutex);
      // Settlement: batches the receiver has resolved (stopped receiver) or
      // admitted in order (running receiver — its network thread will still
      // resolve everything already in the ready queue) count as delivered;
      // everything past that level is owed and goes to the dead-letter
      // queue. Each batch lands in exactly one bucket.
      const std::uint64_t settle =
          receiverStopped ? R.resolved.load(std::memory_order_acquire)
                          : R.delivered;
      for (auto& [seq, batch] : L.unacked) {
        ++erased;
        if (seq > settle) dead.push_back(std::move(batch));
      }
      L.unacked.clear();
      L.nextSeq = 1;
      L.retries = 0;
      L.rto = config_.rto_base;
      if (endState == BreakerState::kOpen &&
          L.breaker != BreakerState::kOpen)
        tripped = true;
      L.breaker = endState;
      L.openedAt = std::chrono::steady_clock::now();
      R.delivered = 0;
      R.reorder.clear();
      // `resolved` before the era bump: ship()'s lock-free piggyback reads
      // era (acquire) first, so a new era implies it sees this reset.
      R.resolved.store(0, std::memory_order_release);  // pairs-with: reliable.resolved
      // pairs-with: reliable.era
      eras_[linkIndex(s, d)].fetch_add(1, std::memory_order_release);
    }
    if (erased > 0)
      // pairs-with: reliable.outstanding
      outstanding_.fetch_sub(erased, std::memory_order_release);
    if (tripped) {
      gravel::lock_guard lk(statsMutex_);
      ++relStats_.breaker_trips;
    }
    for (std::vector<rt::NetMessage>& batch : dead)
      dlq_->push(s, d, std::move(batch));
  }

  /// Discards node n's ready queue (crashNode: its network unit is parked;
  /// the sender-side copies of these batches were just dead-lettered).
  void clearReady(std::uint32_t n) {
    ReadyQueue& rq = ready_[n];
    std::size_t dropped = 0;
    {
      gravel::lock_guard lk(rq.mutex);
      dropped = rq.pending.size();
      rq.pending.clear();
    }
    if (dropped > 0)
      // pairs-with: reliable.ready-count
      readyCount_.fetch_sub(dropped, std::memory_order_release);
  }

  Fabric& wire_;
  ReliabilityConfig config_;
  std::uint32_t nodes_;

  rt::Membership* membership_ = nullptr;  ///< degrade policy collaborators
  DeadLetterQueue* dlq_ = nullptr;

  std::vector<SendLink> sendLinks_;
  std::vector<RecvLink> recvLinks_;
  std::vector<ReadyQueue> ready_;
  /// Per-link incarnation counters, shared by the sender and receiver ends
  /// (in-process). Bumped under both link mutexes by resyncLink; the low 16
  /// bits travel on the wire.
  std::vector<atomic<std::uint32_t>> eras_;
  atomic<std::uint64_t> outstanding_{0};
  atomic<std::uint64_t> readyCount_{0};

  mutable gravel::mutex statsMutex_{"ReliableFabric::statsMutex_"};
  std::vector<LinkStats> links_ GRAVEL_GUARDED_BY(statsMutex_);
  RunningStat batchBytes_ GRAVEL_GUARDED_BY(statsMutex_);
  ReliabilityStats relStats_ GRAVEL_GUARDED_BY(statsMutex_);

  mutable gravel::mutex failureMutex_{"ReliableFabric::failureMutex_"};
  std::optional<LinkFailureInfo> failure_ GRAVEL_GUARDED_BY(failureMutex_);
};

}  // namespace gravel::net
