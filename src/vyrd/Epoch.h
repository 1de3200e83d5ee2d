//===- Epoch.h - Epoch-parallel offline verification ------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-parallel checking of a recorded log chain. Snapshot sidecars
/// (LOGFORMAT v5, see Snapshot.h) cut one object's record stream into
/// *epochs*: a sidecar at segment N serializes every checker's state as of
/// the segment's first record, so the chain splits at each sidecar into
/// independently checkable slices — restore the checker from the sidecar,
/// feed the slice, and the verdict composes with the neighboring slices
/// because refinement is preserved under sequential splits of the trace
/// (docs/SNAPSHOTS.md, "Why epoch stitching is sound").
///
/// epochCheck() checks the epochs on a small thread pool, one task per
/// epoch. A task is one CheckerService over every object — the consumer
/// the Verifier and ShipServer share — seeded from the epoch's sidecar
/// and fed its slice by CheckerService::feedLog, in batches from one pass
/// of a LogFileReader, so each record is decoded once. Epochs parallelize
/// *within* one object — the dimension the online pool's object-affine
/// scheduling cannot touch — so a chain dominated by a single hot object
/// still checks on all cores. Stitching is per object and pessimistic
/// where it must be: a violation (or a baseline-audit mismatch) in epoch
/// k invalidates the snapshots later epochs restored from, so the
/// object is re-checked serially from epoch k's snapshot through the end
/// of the chain before anything is reported.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_EPOCH_H
#define VYRD_EPOCH_H

#include "vyrd/Verifier.h"

#include <string>

namespace vyrd {

/// Options for epochCheck().
struct EpochCheckOptions {
  /// Checker settings for every task (AllowIncompleteTail is forced on
  /// for non-final epochs: their executions legitimately straddle the
  /// epoch boundary and are completed by the successor slice).
  CheckerConfig Checker;
  /// Size of the epoch task pool. 1 = serial (still epoch by epoch when
  /// UseSnapshots, useful for testing the stitching).
  unsigned Threads = 1;
  /// When false, ignore sidecars and run one from-zero epoch — the serial
  /// offline baseline the speedup is measured against.
  bool UseSnapshots = true;
  /// Cold-restart mode (`vyrd-check --resume`): only the front segment's
  /// sidecar seeds the check; later sidecars are ignored, so the chain
  /// runs as one epoch from the oldest live record to its end.
  bool ResumeOnly = false;
};

/// Result of an epochCheck run: the familiar report plus the epoch
/// bookkeeping the tests and benchmarks assert on.
struct EpochReport {
  /// Aggregated verdict, same shape as a Verifier run's report.
  VerifierReport Report;
  /// Epochs the chain split into (1 when UseSnapshots is false or no
  /// usable sidecar exists).
  uint64_t Epochs = 0;
  /// (object, epoch) pairs checked — objects × epochs, excluding serial
  /// re-checks.
  uint64_t Tasks = 0;
  /// Sidecar blobs restored into checkers.
  uint64_t SnapshotLoads = 0;
  /// Objects re-checked serially because an epoch found a violation or
  /// failed its baseline audit.
  uint64_t SerialRechecks = 0;
  /// Non-empty when the chain was unusable (no files, reclaimed prefix
  /// without a sidecar, malformed front segment) or the factory does not
  /// know an object id; Report is empty then.
  std::string Error;

  bool ok() const { return Error.empty() && Report.ok(); }
};

/// Checks the recorded chain rooted at \p LogPath (a plain log file or a
/// segment chain base) for the \p NumObjects objects the recording run
/// registered, splitting the stream into snapshot-delimited epochs and
/// checking them on \p Opts.Threads workers. \p Factory builds object
/// ids 0 .. \p NumObjects - 1 (see PipelineFactory); an id it does not
/// know is an error. Records of ids at or above \p NumObjects surface as
/// one VK_Instrumentation violation, as in a Verifier run. See the file
/// comment for the stitching rule.
EpochReport epochCheck(const std::string &LogPath, size_t NumObjects,
                       const PipelineFactory &Factory,
                       const EpochCheckOptions &Opts);

} // namespace vyrd

#endif // VYRD_EPOCH_H
