//===- Violation.h - Refinement violation reports ---------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef VYRD_VIOLATION_H
#define VYRD_VIOLATION_H

#include "vyrd/Action.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vyrd {

/// Classification of a detected problem.
enum class ViolationKind : uint8_t {
  /// A mutator committed with a signature the specification cannot execute
  /// (I/O refinement violation).
  VK_MutatorMismatch,
  /// An observer returned a value inconsistent with every specification
  /// state in its call-to-return window (I/O refinement violation, Fig. 7).
  VK_ObserverMismatch,
  /// viewI != viewS at a mutator commit (view refinement violation).
  VK_ViewMismatch,
  /// A registered shadow-state invariant failed at a commit.
  VK_InvariantFailed,
  /// The log itself is ill-formed (e.g. a mutator returned without a commit,
  /// nested calls, commit outside a method). Usually an annotation bug; the
  /// paper's iterative commit-point debugging loop (Sec. 4.1) surfaces here.
  VK_Instrumentation,
  /// Coverage was degraded, not violated: shipping left a suffix of the
  /// log unverified when the checker fleet stayed unreachable and the
  /// partially reclaimed chain could not be re-checked locally. Emitted
  /// as a report *note* (VerifierReport::Notes), never as a violation —
  /// verdicts on the checked prefix stand.
  VK_Degraded,
};

/// Returns a short printable name for \p K.
const char *violationKindName(ViolationKind K);

/// One detected violation.
struct Violation {
  ViolationKind Kind = ViolationKind::VK_Instrumentation;
  /// Log position at which the violation was established.
  uint64_t Seq = 0;
  /// Thread whose execution triggered it (if applicable).
  ThreadId Tid = 0;
  /// The verified object the violation is attributed to; stamped by the
  /// Verifier when it aggregates per-object checker results.
  ObjectId Obj = 0;
  /// Name of that object (invalid for the anonymous single-object case,
  /// in which str() omits the attribution tag).
  Name Object;
  /// Method involved (if applicable).
  Name Method;
  /// Human-readable description with the mismatching values / view diff.
  std::string Message;
  /// Number of method executions fully checked before this violation —
  /// the "time to detection" metric of Table 1.
  uint64_t MethodsChecked = 0;
  /// The last few log records fed before the violation (rendered), when
  /// CheckerConfig::ContextRecords is enabled. Debugging aid only.
  std::string Context;

  std::string str() const;
};

/// Sorts \p Vs into witness order (ascending Seq), keeping the relative
/// order of equal-Seq entries. Equivalent to std::stable_sort, but uses a
/// decorated std::sort so no temporary buffer is allocated (stable_sort's
/// buffer takes an allocation path that ASan flags as an alloc/dealloc
/// mismatch when the process mixes C++ runtimes).
void sortViolationsBySeq(std::vector<Violation> &Vs);

} // namespace vyrd

#endif // VYRD_VIOLATION_H
