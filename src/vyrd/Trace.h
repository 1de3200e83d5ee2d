//===- Trace.h - Chrome/Perfetto trace_event recorder -----------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts the logged witness interleaving into Chrome trace_event JSON
/// (the format Perfetto and chrome://tracing load natively), so the
/// execution the checker reasons about becomes visually inspectable: one
/// track per implementation thread showing method spans with commit/write
/// instants inside them, plus one track for the verification thread
/// showing check-batch spans (online) or witness-order commit processing
/// (offline, via tools/vyrd-trace).
///
/// Actions carry no wall-clock time — only their log sequence number,
/// which IS the witness order the paper's refinement argument is built on.
/// The recorder therefore uses virtual time: one log record = one
/// microsecond of trace time. Spans show relative order and log distance,
/// not wall duration (docs/OBSERVABILITY.md, "Trace mapping").
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_TRACE_H
#define VYRD_TRACE_H

#include "vyrd/Action.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace vyrd {

/// One trace_event record (subset of the Chrome trace format we emit).
struct TraceEvent {
  char Ph = 'i';     ///< 'B' begin, 'E' end, 'i' instant, 'M' metadata
  uint32_t Pid = 1;  ///< trace process (= track group): ObjectId + 1
  uint32_t Tid = 0;  ///< trace track (ThreadId, or VerifierTrackTid)
  uint64_t Ts = 0;   ///< virtual microseconds (= log sequence number)
  std::string Name;
  std::string Args;  ///< pre-rendered JSON for "args" (may be empty)
};

/// Accumulates trace events and renders the complete JSON document.
/// Thread-safe (the online verifier records check spans from the
/// verification thread while str()/writeFile() may run at shutdown); the
/// common uses — pump loop online, vyrd-trace offline — are effectively
/// single-threaded.
class TraceRecorder {
public:
  /// Track id of the verification thread. Implementation ThreadIds are
  /// dense and small, so this cannot collide.
  static constexpr uint32_t VerifierTrackTid = 1000000;

  /// Names a verified object: its track group ("process" pid ObjectId+1)
  /// is labeled with the name in the rendered document. Object 0 without a
  /// name keeps the legacy single-object label ("vyrd pipeline").
  void setObjectName(ObjectId Obj, std::string ObjName);

  /// Records one logged action on the track of its thread *within its
  /// object's track group* (one Chrome "process" per verified object, so
  /// multi-object traces group per object):
  ///  call/return  -> span begin/end named after the method
  ///  commit       -> instant "commit <method>" inside the open span
  ///  write        -> instant "<var> := <value>"
  ///  block begin/end -> "commit-block" span
  ///  replay op    -> instant "replay <op>"
  void noteAction(const Action &A);

  /// Records a verifier check span covering log records
  /// [\p FirstSeq, \p LastSeq] (\p NumActions of them).
  void noteCheckSpan(uint64_t FirstSeq, uint64_t LastSeq,
                     uint64_t NumActions);

  /// Records an instant on the verifier track at \p Seq (e.g. a commit
  /// being processed in witness order, or a detected violation).
  void noteVerifierInstant(uint64_t Seq, std::string Name);

  /// Records a Chrome counter-track sample at \p Seq: viewers render the
  /// series as a filled area chart. Used for the backpressure gauges
  /// (pending records, live segments) so a trace shows the pipeline
  /// level next to the spans that moved it.
  void noteGauge(uint64_t Seq, std::string Name, uint64_t Value);

  /// Number of events recorded so far (excludes the metadata events that
  /// json() synthesizes).
  size_t eventCount() const;

  /// Renders the complete JSON document: metadata (process/thread names),
  /// every recorded event, and synthesized end events for any call spans
  /// still open (so truncated logs still load cleanly).
  std::string json() const;

  /// Writes json() to \p Path. \returns false on I/O error.
  bool writeFile(const std::string &Path) const;

private:
  mutable std::mutex M;
  std::vector<TraceEvent> Events;
  /// Open call spans per (object, thread) — a thread may interleave calls
  /// on different objects, and each object's track group nests its own
  /// spans — so commits can be named after the enclosing method and
  /// unbalanced spans closed at render time. Key: ObjectId << 32 | Tid.
  std::unordered_map<uint64_t, std::vector<Name>> OpenCalls;
  /// Track-group labels (setObjectName).
  std::unordered_map<uint32_t, std::string> ObjectNames;
  uint64_t MaxTs = 0;
  bool SawVerifierEvent = false;
};

} // namespace vyrd

#endif // VYRD_TRACE_H
