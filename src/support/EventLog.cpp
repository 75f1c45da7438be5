//===- EventLog.cpp - Framework event tracing ----------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "support/OrderingFence.h"
#include "support/Timer.h"
#include "support/Topology.h"

#include <algorithm>

using namespace cswitch;

const char *cswitch::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::ContextCreated:
    return "context-created";
  case EventKind::MonitoringRound:
    return "monitoring-round";
  case EventKind::Evaluation:
    return "evaluation";
  case EventKind::Transition:
    return "transition";
  case EventKind::AdaptiveMigration:
    return "adaptive-migration";
  case EventKind::WarmStart:
    return "warm-start";
  case EventKind::Store:
    return "store";
  }
  return "unknown";
}

EventLog &EventLog::global() {
  static EventLog Instance;
  return Instance;
}

namespace {

size_t roundUpPow2(size_t Value) {
  size_t Pow = 1;
  while (Pow < Value)
    Pow <<= 1;
  return Pow;
}

} // namespace

EventLog::EventLog(size_t Capacity, unsigned Nodes)
    : Nodes(Nodes ? Nodes : Topology::system().nodeCount()) {
  // Split the slot budget over the rings: each ring gets the per-node
  // share rounded up to a power of two, so a single-node log has the
  // exact pre-sharding capacity.
  size_t PerRing = (std::max<size_t>(Capacity, 2) + this->Nodes - 1) /
                   this->Nodes;
  RingCap = roundUpPow2(std::max<size_t>(PerRing, 2));
  Mask = RingCap - 1;
  Rings = std::make_unique<Ring[]>(this->Nodes);
  for (unsigned N = 0; N != this->Nodes; ++N)
    Rings[N].Slots = std::make_unique<Slot[]>(RingCap);
  // Id 0 is reserved for the empty string so that "no detail" needs no
  // interning.
  InternedText.emplace_back();
  InternedIds.emplace("", 0);
}

uint32_t EventLog::intern(std::string_view Text) {
  if (Text.empty())
    return 0;
  std::lock_guard<std::mutex> Lock(InternMutex);
  auto It = InternedIds.find(std::string(Text));
  if (It != InternedIds.end())
    return It->second;
  auto Id = static_cast<uint32_t>(InternedText.size());
  InternedText.emplace_back(Text);
  InternedIds.emplace(InternedText.back(), Id);
  return Id;
}

std::string EventLog::textOf(uint32_t Id) const {
  std::lock_guard<std::mutex> Lock(InternMutex);
  if (Id >= InternedText.size())
    return {};
  return InternedText[Id];
}

void EventLog::recordOnRing(unsigned Node, EventKind Kind,
                            uint32_t ContextId, uint32_t DetailId) {
  Ring &R = Rings[Node];
  uint64_t Ticket = R.Next.fetch_add(1, std::memory_order_relaxed);
  Slot &S = R.Slots[Ticket & Mask];
  // Seqlock write protocol: odd version opens the write, the release
  // fence orders it before the payload stores, the release store of the
  // even version publishes the payload. Two writers racing on a wrapped
  // slot leave one of their versions behind; readers reject the slot
  // unless both version loads agree on the ticket they expect.
  S.Ver.store(2 * Ticket + 1, std::memory_order_relaxed);
  orderingFence(std::memory_order_release);
  S.Ts.store(monotonicNanos(), std::memory_order_relaxed);
  S.Context.store(ContextId, std::memory_order_relaxed);
  S.Detail.store(DetailId, std::memory_order_relaxed);
  S.Kind.store(static_cast<uint32_t>(Kind), std::memory_order_relaxed);
  S.Ver.store(2 * Ticket + 2, std::memory_order_release);
}

void EventLog::record(EventKind Kind, uint32_t ContextId,
                      uint32_t DetailId) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  recordOnRing(currentStripe(Nodes), Kind, ContextId, DetailId);
}

void EventLog::recordOnNode(unsigned Node, EventKind Kind,
                            uint32_t ContextId, uint32_t DetailId) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  recordOnRing(Node % Nodes, Kind, ContextId, DetailId);
}

void EventLog::record(EventKind Kind, std::string_view Context,
                      std::string_view Detail) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  record(Kind, intern(Context), intern(Detail));
}

std::vector<EventLog::RawEvent>
EventLog::collect(unsigned Node, uint64_t Lo, uint64_t Hi) const {
  std::vector<RawEvent> Out;
  if (Lo >= Hi)
    return Out;
  const Ring &R = Rings[Node];
  Out.reserve(static_cast<size_t>(Hi - Lo));
  for (uint64_t Ticket = Lo; Ticket != Hi; ++Ticket) {
    const Slot &S = R.Slots[Ticket & Mask];
    uint64_t Expected = 2 * Ticket + 2;
    uint64_t V1 = S.Ver.load(std::memory_order_acquire);
    if (V1 != Expected)
      continue; // mid-write, overwritten, or never published
    RawEvent Raw;
    Raw.Ticket = Ticket;
    Raw.Ts = S.Ts.load(std::memory_order_relaxed);
    Raw.Context = S.Context.load(std::memory_order_relaxed);
    Raw.Detail = S.Detail.load(std::memory_order_relaxed);
    Raw.Kind = S.Kind.load(std::memory_order_relaxed);
    Raw.Node = Node;
    orderingFence(std::memory_order_acquire);
    if (S.Ver.load(std::memory_order_relaxed) != Expected)
      continue; // overwritten while reading
    Out.push_back(Raw);
  }
  return Out;
}

std::vector<EventLog::RawEvent>
EventLog::merge(std::vector<std::vector<RawEvent>> PerRing) {
  if (PerRing.size() == 1)
    return std::move(PerRing.front());
  size_t Total = 0;
  for (const auto &Ring : PerRing)
    Total += Ring.size();
  std::vector<RawEvent> Out;
  Out.reserve(Total);
  // K-way merge popping ring heads by (timestamp, node). Comparing by
  // head timestamp — not by ticket — keeps each ring's ticket order
  // intact by construction (a ring's heads are consumed front to back)
  // while interleaving rings on the shared steady clock.
  std::vector<size_t> Heads(PerRing.size(), 0);
  while (Out.size() != Total) {
    size_t Best = PerRing.size();
    for (size_t R = 0; R != PerRing.size(); ++R) {
      if (Heads[R] == PerRing[R].size())
        continue;
      if (Best == PerRing.size() ||
          PerRing[R][Heads[R]].Ts < PerRing[Best][Heads[Best]].Ts)
        Best = R;
    }
    Out.push_back(PerRing[Best][Heads[Best]++]);
  }
  return Out;
}

std::vector<Event> EventLog::resolve(
    const std::vector<RawEvent> &Raw) const {
  std::vector<Event> Out;
  Out.reserve(Raw.size());
  std::lock_guard<std::mutex> Lock(InternMutex);
  for (const RawEvent &R : Raw) {
    Event E;
    E.Kind = static_cast<EventKind>(R.Kind);
    // Ring index in the high bits keeps sequence numbers unique across
    // rings; a single-node log yields the plain ticket.
    E.SequenceNumber = (static_cast<uint64_t>(R.Node) << 48) | R.Ticket;
    E.TimestampNanos = R.Ts;
    E.ContextId = R.Context;
    E.DetailId = R.Detail;
    E.Node = R.Node;
    if (R.Context < InternedText.size())
      E.Context = InternedText[R.Context];
    if (R.Detail < InternedText.size())
      E.Detail = InternedText[R.Detail];
    Out.push_back(std::move(E));
  }
  return Out;
}

std::vector<Event> EventLog::snapshot() const {
  std::lock_guard<std::mutex> Lock(ConsumerMutex);
  std::vector<std::vector<RawEvent>> PerRing(Nodes);
  for (unsigned N = 0; N != Nodes; ++N) {
    const Ring &R = Rings[N];
    uint64_t Hi = R.Next.load(std::memory_order_acquire);
    PerRing[N] = collect(N, windowStart(R, Hi), Hi);
  }
  return resolve(merge(std::move(PerRing)));
}

std::vector<Event> EventLog::snapshotOfKind(EventKind Kind) const {
  std::vector<Event> All = snapshot();
  std::vector<Event> Out;
  for (Event &E : All)
    if (E.Kind == Kind)
      Out.push_back(std::move(E));
  return Out;
}

std::vector<Event> EventLog::drain() {
  std::lock_guard<std::mutex> Lock(ConsumerMutex);
  std::vector<std::vector<RawEvent>> PerRing(Nodes);
  for (unsigned N = 0; N != Nodes; ++N) {
    Ring &R = Rings[N];
    uint64_t Hi = R.Next.load(std::memory_order_acquire);
    uint64_t Lo = std::max(R.DrainCursor, windowStart(R, Hi));
    std::vector<RawEvent> &Raw = PerRing[N];
    uint64_t Ticket = Lo;
    for (; Ticket != Hi; ++Ticket) {
      const Slot &S = R.Slots[Ticket & Mask];
      uint64_t Expected = 2 * Ticket + 2;
      uint64_t V1 = S.Ver.load(std::memory_order_acquire);
      if (V1 < Expected)
        break; // writer still mid-publication: stop, next drain resumes
      if (V1 != Expected)
        continue; // overwritten by a later ticket
      RawEvent Re;
      Re.Ticket = Ticket;
      Re.Ts = S.Ts.load(std::memory_order_relaxed);
      Re.Context = S.Context.load(std::memory_order_relaxed);
      Re.Detail = S.Detail.load(std::memory_order_relaxed);
      Re.Kind = S.Kind.load(std::memory_order_relaxed);
      Re.Node = N;
      orderingFence(std::memory_order_acquire);
      if (S.Ver.load(std::memory_order_relaxed) != Expected)
        continue; // overwritten while reading
      Raw.push_back(Re);
    }
    R.DrainCursor = Ticket;
  }
  return resolve(merge(std::move(PerRing)));
}

void EventLog::clear() {
  std::lock_guard<std::mutex> Lock(ConsumerMutex);
  for (unsigned N = 0; N != Nodes; ++N) {
    Ring &R = Rings[N];
    uint64_t Hi = R.Next.load(std::memory_order_acquire);
    R.Base.store(Hi, std::memory_order_relaxed);
    R.DrainCursor = Hi;
  }
}

uint64_t EventLog::droppedCount() const {
  uint64_t Dropped = 0;
  for (unsigned N = 0; N != Nodes; ++N) {
    const Ring &R = Rings[N];
    uint64_t Hi = R.Next.load(std::memory_order_acquire);
    uint64_t Total = Hi - R.Base.load(std::memory_order_relaxed);
    Dropped += Total > RingCap ? Total - RingCap : 0;
  }
  return Dropped;
}

std::vector<uint64_t> EventLog::nodeDroppedCounts() const {
  std::vector<uint64_t> Out(Nodes, 0);
  for (unsigned N = 0; N != Nodes; ++N) {
    const Ring &R = Rings[N];
    uint64_t Hi = R.Next.load(std::memory_order_acquire);
    uint64_t Total = Hi - R.Base.load(std::memory_order_relaxed);
    Out[N] = Total > RingCap ? Total - RingCap : 0;
  }
  return Out;
}

uint64_t EventLog::totalRecorded() const {
  uint64_t Total = 0;
  for (unsigned N = 0; N != Nodes; ++N) {
    const Ring &R = Rings[N];
    Total += R.Next.load(std::memory_order_acquire) -
             R.Base.load(std::memory_order_relaxed);
  }
  return Total;
}
