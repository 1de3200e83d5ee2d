//===- Spec.h - Executable method-atomic specifications ---------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Spec is the method-atomic, deterministic state transition system of
/// Sec. 3.2 against which refinement is checked. The checker drives the Spec
/// one method execution at a time in witness (commit) order: mutators via
/// applyMutator (which may fail, signaling an I/O refinement violation),
/// observers via returnAllowed, evaluated at every state in their
/// call-to-return window (Sec. 4.3).
///
/// Determinism in the paper's sense is "given the signature (including the
/// return value), the successor state is unique" — which is exactly the
/// applyMutator contract; nondeterministic return values (e.g. Insert may
/// fail under contention) are naturally allowed.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_SPEC_H
#define VYRD_SPEC_H

#include "vyrd/Names.h"
#include "vyrd/Value.h"
#include "vyrd/View.h"

namespace vyrd {

class ByteWriter;
class ByteReader;

/// Interface implemented once per verified data structure.
class Spec {
public:
  virtual ~Spec();

  /// Serializes the abstract state into \p W so a later checker run can
  /// resume from it (snapshot sidecars, docs/SNAPSHOTS.md). The encoding
  /// must be canonical — the same state always produces the same bytes —
  /// and must not contain process-local interned name ids. \returns false
  /// when the spec does not support snapshots (the default).
  virtual bool saveState(ByteWriter &W) const;

  /// Restores the abstract state from bytes produced by saveState,
  /// replacing the current state entirely. \returns false on malformed
  /// input or when snapshots are unsupported (the default).
  virtual bool loadState(ByteReader &R);

  /// Whether \p Method is an observer (never modifies abstract state).
  virtual bool isObserver(Name Method) const = 0;

  /// Atomically executes mutator `Method(Args) -> Ret` from the current
  /// state. \returns false (leaving the state unchanged) when the
  /// specification has no such transition — an I/O refinement violation.
  ///
  /// Implementations must keep \p ViewS up to date incrementally: apply the
  /// entry adds/removes this transition causes. ViewS is the checker's
  /// digest-only view: remove only an entry you added; it cannot tell.
  /// Hold each view value as the Value you add, so that removing it and
  /// returnAllowed share its payload instead of rebuilding it.
  virtual bool applyMutator(Name Method, const ValueList &Args,
                            const Value &Ret, View &ViewS) = 0;

  /// Whether observer `Method(Args)` may return \p Ret in the current state.
  virtual bool returnAllowed(Name Method, const ValueList &Args,
                             const Value &Ret) const = 0;

  /// Rebuilds the canonical view of the current state from scratch into
  /// \p Out, materialised or digest-only (clear it first).
  virtual void buildView(View &Out) const = 0;
};

} // namespace vyrd

#endif // VYRD_SPEC_H
