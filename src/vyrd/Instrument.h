//===- Instrument.h - Hooks the implementation code calls -------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation side of VYRD (Sec. 6.1): small helper objects the
/// implementation code calls to record call/return/commit/write actions
/// into the log. Hooks are cheap no-ops when logging is disabled, and the
/// logging level controls whether write records (needed only for view
/// refinement) are emitted, so the Table 2 "I/O vs view logging overhead"
/// distinction falls out of one switch.
///
/// A hook must be invoked atomically with the action it records; in
/// practice the data structures call hooks while still holding the lock
/// that protects the recorded update, exactly as the paper prescribes.
///
/// This file also provides the chaos scheduler: seeded random short
/// sleeps at hook and race points. On the paper's hardware, preemption
/// provided the interleaving diversity; the chaos points restore it so
/// the seeded races actually fire.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_INSTRUMENT_H
#define VYRD_INSTRUMENT_H

#include "vyrd/Action.h"
#include "vyrd/Log.h"
#include "vyrd/Telemetry.h"

#include <atomic>
#include <cstdint>

namespace vyrd {

/// How much the hooks record.
enum class LogLevel : uint8_t {
  /// Record nothing (measures the bare program).
  LL_None,
  /// Calls, returns, commits, commit-block brackets: enough for I/O
  /// refinement.
  LL_IO,
  /// Additionally record shared-variable writes and replay ops: enough for
  /// view refinement.
  LL_View,
};

/// Returns the calling thread's dense VYRD thread id (assigned on first
/// use, starting at 0). Ids are recycled: when a thread exits, its id
/// returns to a free-list and the next new thread adopts it, so everything
/// indexed by ThreadId (checker open-exec tables, BufferedLog shards)
/// stays bounded by the peak live-thread count under thread churn.
ThreadId currentTid();

/// Seeded random-preemption injector. Global, cheap when disabled (the
/// default).
class Chaos {
public:
  /// Enables chaos with preemption probability 1/\p Inverse at every
  /// chaos point. \p Seed makes runs reproducible per thread: every
  /// enable() starts a fresh session, and each thread's decision stream
  /// is a pure function of (Seed, its ThreadId) from the session start.
  static void enable(uint32_t Inverse, uint64_t Seed);
  static void disable();

  /// A potential preemption point; implementations sprinkle these inside
  /// critical regions and races. A chosen point sleeps briefly (a real
  /// deschedule, also on a multi-core host). \returns whether this point
  /// was chosen, so tests can pin the decision sequence.
  static bool point();

private:
  static std::atomic<uint32_t> InverseProb;
  static std::atomic<uint64_t> BaseSeed;
  static std::atomic<uint64_t> Session;
};

/// The hook object shared by all threads operating on one verified data
/// structure instance. Copies are cheap (pointer + level).
///
/// Records are appended through the log's per-thread writer handle
/// (Log::writer), not Log::append: for BufferedLog the handle is the
/// calling thread's own lock-free shard, so the hot path performs no
/// locking.
class Hooks {
public:
  Hooks() : L(nullptr), Level(LogLevel::LL_None) {}
  Hooks(Log *L, LogLevel Level, Telemetry *T = nullptr, ObjectId Obj = 0)
      : L(L), Level(Level), Telem(T), Obj(Obj) {}

  LogLevel level() const { return Level; }
  bool enabled() const { return L && Level != LogLevel::LL_None; }
  /// Whether write/replay records are being collected.
  bool viewLevel() const { return L && Level == LogLevel::LL_View; }
  Log *log() const { return L; }
  /// The verified object every record emitted through this hook is stamped
  /// with (Verifier::registerObject hands out one Hooks per object).
  ObjectId object() const { return Obj; }

  void call(Name Method, ValueList Args) const {
    if (enabled())
      emit(Action::call(currentTid(), Method, std::move(Args)));
    Chaos::point();
  }
  void ret(Name Method, Value V) const {
    if (enabled())
      emit(Action::ret(currentTid(), Method, std::move(V)));
    Chaos::point();
  }
  void commit() const {
    if (enabled())
      emit(Action::commit(currentTid()));
  }
  void write(Name Var, Value V) const {
    if (viewLevel())
      emit(Action::write(currentTid(), Var, std::move(V)));
  }
  void replayOp(Name Op, ValueList Payload) const {
    if (viewLevel())
      emit(Action::replayOp(currentTid(), Op, std::move(Payload)));
  }
  void blockBegin() const {
    if (viewLevel())
      emit(Action::blockBegin(currentTid()));
  }
  void blockEnd() const {
    if (viewLevel())
      emit(Action::blockEnd(currentTid()));
  }

private:
  /// Appends via the calling thread's writer handle. The handle lookup is
  /// a thread-local cache hit, so it stays on the fast path (as is the
  /// telemetry cell lookup when a hub is attached).
  void emit(Action A) const {
    if (Telem)
      Telem->count(Counter::C_HookRecords);
    A.Obj = Obj;
    L->writer().append(std::move(A));
  }

  Log *L;
  LogLevel Level;
  Telemetry *Telem = nullptr;
  ObjectId Obj = 0;
};

/// RAII bracket logging the call on construction and the return on
/// destruction (with the value set via setReturn).
class MethodScope {
public:
  MethodScope(const Hooks &H, Name Method, ValueList Args)
      : H(H), Method(Method) {
    H.call(Method, std::move(Args));
  }
  ~MethodScope() { H.ret(Method, Ret); }

  MethodScope(const MethodScope &) = delete;
  MethodScope &operator=(const MethodScope &) = delete;

  /// Records the value the method is about to return.
  void setReturn(Value V) { Ret = std::move(V); }

private:
  const Hooks &H;
  Name Method;
  Value Ret;
};

/// RAII commit block bracket (Sec. 5.2).
class CommitBlock {
public:
  explicit CommitBlock(const Hooks &H) : H(H) { H.blockBegin(); }
  ~CommitBlock() { H.blockEnd(); }

  CommitBlock(const CommitBlock &) = delete;
  CommitBlock &operator=(const CommitBlock &) = delete;

private:
  const Hooks &H;
};

} // namespace vyrd

#endif // VYRD_INSTRUMENT_H
