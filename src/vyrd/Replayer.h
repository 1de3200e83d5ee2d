//===- Replayer.h - Shadow-state reconstruction from the log ----*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// View refinement needs the value of viewI — the canonical contents of the
/// *implementation* state — at every commit action. The implementation is
/// not modified to compute it (Sec. 5.1); instead the verification thread
/// replays the logged shared-variable writes (or coarse-grained replay
/// records, Sec. 6.2) into a shadow state and maintains viewI incrementally
/// from it. A Replayer encapsulates that shadow state for one data
/// structure.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_REPLAYER_H
#define VYRD_REPLAYER_H

#include "vyrd/Action.h"
#include "vyrd/View.h"

#include <string>

namespace vyrd {

class ByteWriter;
class ByteReader;

/// Interface implemented once per verified data structure (only needed for
/// view refinement; I/O refinement runs without one).
class Replayer {
public:
  virtual ~Replayer();

  /// Serializes the shadow state into \p W (snapshot sidecars,
  /// docs/SNAPSHOTS.md). Canonical encoding, no interned name ids —
  /// name-keyed lookup caches are rebuilt lazily after loadState instead
  /// of being persisted. \returns false when unsupported (the default).
  virtual bool saveState(ByteWriter &W) const;

  /// Restores the shadow state from bytes produced by saveState,
  /// replacing the current state entirely. \returns false on malformed
  /// input or when snapshots are unsupported (the default).
  virtual bool loadState(ByteReader &R);

  /// Applies one logged Write or ReplayOp record to the shadow state,
  /// incrementally updating the checker's digest-only \p ViewI with the
  /// entry adds/removes the update causes: remove only an entry you added;
  /// the checker's view cannot tell. Hold each view value as the Value
  /// you add, so that removing it shares its payload instead of
  /// rebuilding it. Writes inside a commit block are delivered
  /// back-to-back at the enclosing commit (Sec. 5.2).
  virtual void applyUpdate(const Action &A, View &ViewI) = 0;

  /// Rebuilds the canonical view of the shadow state from scratch into
  /// \p Out, materialised or digest-only (clear it first).
  virtual void buildView(View &Out) const = 0;

  /// Evaluates data-structure invariants over the shadow state at a commit
  /// (Sec. 7.2.1 used two such invariants for the Boxwood Cache). On
  /// failure, fills \p Message and returns false. Default: no invariants.
  virtual bool checkInvariants(std::string &Message) const;
};

} // namespace vyrd

#endif // VYRD_REPLAYER_H
