//===- Action.h - Log records describing execution events ------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Action is one record in the execution log (Sec. 4.2 of the paper).
/// Instrumented implementation threads append Actions as they run; the
/// verification thread consumes them to reconstruct the witness interleaving
/// and, for view refinement, the shadow implementation state.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_ACTION_H
#define VYRD_ACTION_H

#include "vyrd/Names.h"
#include "vyrd/Value.h"

#include <cstdint>
#include <string>

namespace vyrd {

/// Identifier of the thread that performed an action. The harness assigns
/// dense small ids; 0 is valid.
using ThreadId = uint32_t;

/// Identifier of the verified object an action belongs to (Sec. 6.2: the
/// log is demultiplexed per object and refinement is checked object by
/// object). The Verifier assigns dense ids in registration order; 0 is the
/// first registered object, so single-object programs never see a non-zero
/// id and pay one varint byte per record.
using ObjectId = uint32_t;

/// The kinds of events recorded in the log.
enum class ActionKind : uint8_t {
  /// A public method invocation: Method + Args.
  AK_Call = 0,
  /// The matching method return: Method + Ret.
  AK_Return = 1,
  /// The commit action of the current method execution of this thread
  /// (Sec. 4.1). Mutators log exactly one commit per execution path;
  /// observers log none.
  AK_Commit = 2,
  /// A shared-variable write: Var := Val. Fine-grained logging (Sec. 6.2).
  AK_Write = 3,
  /// Start of a commit block (Sec. 5.2): subsequent writes of this thread
  /// are replayed atomically at the enclosing commit action.
  AK_BlockBegin = 4,
  /// End of a commit block.
  AK_BlockEnd = 5,
  /// A coarse-grained, data-structure-specific replay record (Sec. 6.2):
  /// Var names the replay opcode, Args carries its payload.
  AK_ReplayOp = 6,
};

/// Returns a short printable name for \p K (for diagnostics).
const char *actionKindName(ActionKind K);

/// One log record. Field order packs the five small scalars ahead of the
/// payloads, and Return/Write share one Value slot (no record kind uses
/// both): records travel by move/copy through every pipeline stage, so
/// sizeof(Action) is itself a hot-path quantity. With 16-byte Values it is
/// 96 bytes: 32 of scalars and Seq, 48 of Args (two inline Values) and 16
/// of Ret. A copy shares string and byte payloads instead of allocating.
struct Action {
  ActionKind Kind = ActionKind::AK_Call;
  ThreadId Tid = 0;
  /// The verified object this record belongs to; stamped by the emitting
  /// Hooks (each registered object gets its own Hooks bound to its id).
  ObjectId Obj = 0;
  /// Method name for Call/Return/Commit; unused otherwise.
  Name Method;
  /// Written variable (Write) or replay opcode (ReplayOp).
  Name Var;
  /// Position in the log; assigned by the log on append and therefore a
  /// total order consistent with real-time occurrence (each hooked action is
  /// performed atomically with its log append).
  uint64_t Seq = 0;
  /// Call arguments, or ReplayOp payload.
  ValueList Args;
  /// Return value (Return), or written value (Write) — the kinds are
  /// mutually exclusive, so they share the slot.
  Value Ret;

  // Records travel by move through the whole pipeline (shard ring ->
  // reorder ring -> consumer batch -> demux route -> checker event
  // queue). The defaulted moves are member-wise and noexcept (`= default`
  // would fail to compile otherwise), so vector growth relocates records
  // instead of copying them; a move copies 96 bytes and nulls the
  // source's payload words, with no branch on the value kinds.
  Action() = default;
  Action(const Action &) = default;
  Action(Action &&) noexcept = default;
  Action &operator=(const Action &) = default;
  Action &operator=(Action &&) noexcept = default;

  /// Renders the record for diagnostics.
  std::string str() const;

  static Action call(ThreadId T, Name M, ValueList Args) {
    Action A;
    A.Kind = ActionKind::AK_Call;
    A.Tid = T;
    A.Method = M;
    A.Args = std::move(Args);
    return A;
  }
  static Action ret(ThreadId T, Name M, Value V) {
    Action A;
    A.Kind = ActionKind::AK_Return;
    A.Tid = T;
    A.Method = M;
    A.Ret = std::move(V);
    return A;
  }
  static Action commit(ThreadId T) {
    Action A;
    A.Kind = ActionKind::AK_Commit;
    A.Tid = T;
    return A;
  }
  static Action write(ThreadId T, Name Var, Value V) {
    Action A;
    A.Kind = ActionKind::AK_Write;
    A.Tid = T;
    A.Var = Var;
    A.Ret = std::move(V);
    return A;
  }
  static Action blockBegin(ThreadId T) {
    Action A;
    A.Kind = ActionKind::AK_BlockBegin;
    A.Tid = T;
    return A;
  }
  static Action blockEnd(ThreadId T) {
    Action A;
    A.Kind = ActionKind::AK_BlockEnd;
    A.Tid = T;
    return A;
  }
  static Action replayOp(ThreadId T, Name Op, ValueList Payload) {
    Action A;
    A.Kind = ActionKind::AK_ReplayOp;
    A.Tid = T;
    A.Var = Op;
    A.Args = std::move(Payload);
    return A;
  }
};

static_assert(sizeof(Action) <= 96, "Action must stay a 96-byte record");

} // namespace vyrd

#endif // VYRD_ACTION_H
