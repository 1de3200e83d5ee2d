//===- Checker.cpp - I/O and view refinement checking ---------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Checker.h"

#include "vyrd/Serialize.h"
#include "vyrd/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

using namespace vyrd;

namespace {

/// Entry timestamp for a phase-timing region, or 0 when timing is off.
uint64_t tickIf(bool On) { return On ? telemetryNowNanos() : 0; }

} // namespace

const char *vyrd::violationKindName(ViolationKind K) {
  switch (K) {
  case ViolationKind::VK_MutatorMismatch:
    return "mutator-mismatch";
  case ViolationKind::VK_ObserverMismatch:
    return "observer-mismatch";
  case ViolationKind::VK_ViewMismatch:
    return "view-mismatch";
  case ViolationKind::VK_InvariantFailed:
    return "invariant-failed";
  case ViolationKind::VK_Instrumentation:
    return "instrumentation";
  case ViolationKind::VK_Degraded:
    return "degraded";
  }
  assert(false && "unknown ViolationKind");
  return "?";
}

void vyrd::sortViolationsBySeq(std::vector<Violation> &Vs) {
  std::vector<size_t> Order(Vs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&Vs](size_t A, size_t B) {
    return Vs[A].Seq != Vs[B].Seq ? Vs[A].Seq < Vs[B].Seq : A < B;
  });
  std::vector<Violation> Sorted;
  Sorted.reserve(Vs.size());
  for (size_t I : Order)
    Sorted.push_back(std::move(Vs[I]));
  Vs = std::move(Sorted);
}

std::string Violation::str() const {
  std::string Out = std::string(violationKindName(Kind)) + " at #" +
                    std::to_string(Seq) + " t" + std::to_string(Tid);
  if (Object.valid()) {
    Out += " [";
    Out += Object.str();
    Out += "]";
  }
  if (Method.valid()) {
    Out += " ";
    Out += Method.str();
  }
  Out += ": " + Message +
         " [methods checked: " + std::to_string(MethodsChecked) + "]";
  return Out;
}

void CheckerStats::merge(const CheckerStats &Other) {
  ActionsFed += Other.ActionsFed;
  MethodsChecked += Other.MethodsChecked;
  CommitsProcessed += Other.CommitsProcessed;
  ObserversChecked += Other.ObserversChecked;
  ViewComparisons += Other.ViewComparisons;
  Audits += Other.Audits;
  MaxQueueDepth = std::max(MaxQueueDepth, Other.MaxQueueDepth);
  ReplayNanos += Other.ReplayNanos;
  SpecNanos += Other.SpecNanos;
  ViewCompareNanos += Other.ViewCompareNanos;
}

RefinementChecker::RefinementChecker(Spec &S, Replayer *R,
                                     CheckerConfig Config)
    : TheSpec(S), TheReplayer(R), Config(Config),
      RecentActions(std::max(Config.ContextRecords,
                             Config.FlightRecorderDepth)) {
  assert((Config.Mode == CheckMode::CM_IORefinement || R) &&
         "view refinement requires a Replayer");
  // viewI and viewS are initialized to the same value (Sec. 5.1): both
  // sides must agree on the initial state.
  if (Config.Mode == CheckMode::CM_ViewRefinement)
    rebuildViews(ViolationKind::VK_Instrumentation, 0, 0, Name(),
                 "initial viewI != initial viewS: ");
}

RefinementChecker::~RefinementChecker() = default;

void RefinementChecker::report(ViolationKind K, uint64_t Seq, ThreadId Tid,
                               Name Method, std::string Message) {
  if (Violations.size() >= Config.MaxViolations)
    return;
  if (Config.StopAtFirstViolation && !Violations.empty())
    return;
  Violation V;
  V.Kind = K;
  V.Seq = Seq;
  V.Tid = Tid;
  V.Method = Method;
  V.Message = std::move(Message);
  V.MethodsChecked = Stats.MethodsChecked;
  // The window may be flight-recorder sized; the rendered context stays
  // bounded by ContextRecords.
  size_t N = RecentHeld;
  size_t First = N - std::min<size_t>(N, Config.ContextRecords);
  for (size_t I = First; I != N; ++I)
    V.Context += recentAction(I).str() + "\n";
  Violations.push_back(std::move(V));
  // Keep the bundle list parallel to Violations so forensics()[i] always
  // pairs with violations()[i].
  ForensicBundles.push_back(
      Config.FlightRecorderDepth ? captureForensic(Violations.back())
                                 : std::string());
}

namespace {

/// FNV-1a over a byte buffer: a stable fingerprint for the serialized
/// spec state inside a forensic bundle (equal states -> equal hashes).
uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string actionJson(const Action &A) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf),
                "{\"seq\":%" PRIu64 ",\"tid\":%u,\"kind\":\"%s\"", A.Seq,
                A.Tid, actionKindName(A.Kind));
  std::string Out = Buf;
  if (A.Method.valid())
    Out += ",\"method\":\"" + jsonEscape(std::string(A.Method.str())) +
           "\"";
  if (A.Var.valid())
    Out += ",\"var\":\"" + jsonEscape(std::string(A.Var.str())) + "\"";
  if (!A.Args.empty()) {
    Out += ",\"args\":[";
    for (size_t I = 0; I < A.Args.size(); ++I) {
      Out += I ? ",\"" : "\"";
      Out += jsonEscape(A.Args[I].str()) + "\"";
    }
    Out += "]";
  }
  if (!A.Ret.isNull())
    Out += ",\"ret\":\"" + jsonEscape(A.Ret.str()) + "\"";
  Out += "}";
  return Out;
}

} // namespace

std::string RefinementChecker::captureForensic(const Violation &V) const {
  char Buf[160];
  std::string Out = "{\"schema\":\"vyrd-forensic-v1\"";

  Out += ",\"violation\":{\"kind\":\"";
  Out += violationKindName(V.Kind);
  std::snprintf(Buf, sizeof(Buf),
                "\",\"seq\":%" PRIu64 ",\"tid\":%u,\"methods_checked\":%"
                PRIu64,
                V.Seq, V.Tid, V.MethodsChecked);
  Out += Buf;
  if (V.Method.valid())
    Out += ",\"method\":\"" + jsonEscape(std::string(V.Method.str())) +
           "\"";
  Out += ",\"message\":\"" + jsonEscape(V.Message) + "\"}";

  // The flight-recorder tail: the last FlightRecorderDepth records fed
  // before (and including) the one that established the violation.
  size_t N = RecentHeld;
  size_t First = N - std::min<size_t>(N, Config.FlightRecorderDepth);
  Out += ",\"recent_actions\":[";
  for (size_t I = First; I != N; ++I) {
    if (I != First)
      Out += ",";
    Out += actionJson(recentAction(I));
  }
  Out += "]";

  // Every method execution still open: what each thread was doing when
  // the violation was established.
  Out += ",\"open_execs\":[";
  bool FirstExec = true;
  auto AddExec = [&](const Exec &X) {
    if (!FirstExec)
      Out += ",";
    FirstExec = false;
    std::snprintf(Buf, sizeof(Buf),
                  "{\"tid\":%u,\"call_seq\":%" PRIu64
                  ",\"observer\":%s,\"has_ret\":%s,\"has_commit\":%s,"
                  "\"in_block\":%s,\"satisfied\":%s",
                  X.Tid, X.CallSeq, X.IsObserver ? "true" : "false",
                  X.HasRet ? "true" : "false",
                  X.HasCommit ? "true" : "false",
                  X.InBlock ? "true" : "false",
                  X.Satisfied ? "true" : "false");
    Out += Buf;
    Out += ",\"method\":\"" + jsonEscape(std::string(X.Method.str())) +
           "\",\"args\":[";
    for (size_t I = 0; I < X.Args.size(); ++I) {
      Out += I ? ",\"" : "\"";
      Out += jsonEscape(X.Args[I].str()) + "\"";
    }
    Out += "]";
    if (X.HasRet)
      Out += ",\"ret\":\"" + jsonEscape(X.Ret.str()) + "\"";
    Out += "}";
  };
  for (const ExecPtr &E : OpenExecsDense)
    if (E)
      AddExec(*E);
  for (const auto &KV : OpenExecsSparse)
    AddExec(*KV.second);
  Out += "]";

  // Spec-state digest: the view digests pin down what each side believed
  // the abstract state to be; the serialized-spec fingerprint lets two
  // bundles be compared for state equality without replaying anything.
  ByteWriter W;
  if (TheSpec.saveState(W)) {
    std::snprintf(Buf, sizeof(Buf),
                  ",\"spec_state\":{\"spec_blob_bytes\":%zu,"
                  "\"spec_blob_fnv1a\":\"%016" PRIx64 "\"",
                  W.size(), fnv1a(W.buffer()));
    Out += Buf;
  } else {
    Out += ",\"spec_state\":{\"spec_blob_bytes\":null,"
           "\"spec_blob_fnv1a\":null";
  }
  if (Config.Mode == CheckMode::CM_ViewRefinement) {
    auto DI = ViewI.digest(), DS = ViewS.digest();
    std::snprintf(Buf, sizeof(Buf),
                  ",\"view_i\":{\"size\":%zu,\"digest\":[%" PRIu64
                  ",%" PRIu64 "]},\"view_s\":{\"size\":%zu,\"digest\":[%"
                  PRIu64 ",%" PRIu64 "]}",
                  ViewI.size(), DI.first, DI.second, ViewS.size(),
                  DS.first, DS.second);
    Out += Buf;
  }
  Out += "}";

  std::snprintf(Buf, sizeof(Buf),
                ",\"stats\":{\"actions_fed\":%" PRIu64
                ",\"methods_checked\":%" PRIu64 ",\"commits\":%" PRIu64
                ",\"observers\":%" PRIu64 ",\"open_execs\":%zu}}",
                Stats.ActionsFed, Stats.MethodsChecked,
                Stats.CommitsProcessed, Stats.ObserversChecked,
                OpenExecCount);
  Out += Buf;
  return Out;
}

void RefinementChecker::feed(const Action &A) {
  assert(!Finished && "feed after finish");
  ++Stats.ActionsFed;
  if (Config.StopAtFirstViolation && hasViolation())
    return;
  if (!RecentActions.empty()) {
    RecentActions[RecentNext] = A;
    if (++RecentNext == RecentActions.size())
      RecentNext = 0;
    RecentHeld = std::min(RecentHeld + 1, RecentActions.size());
  }

  ExecPtr *Slot = findOpenExec(A.Tid);
  Exec *X = Slot ? Slot->get() : nullptr;

  switch (A.Kind) {
  case ActionKind::AK_Call: {
    if (X) {
      report(ViolationKind::VK_Instrumentation, A.Seq, A.Tid, A.Method,
             "nested method call while " + std::string(X->Method.str()) +
                 " is still executing");
      break;
    }
    ExecPtr E = acquireExec();
    E->Tid = A.Tid;
    E->Method = A.Method;
    E->Args = A.Args;
    E->CallSeq = A.Seq;
    E->IsObserver = TheSpec.isObserver(A.Method);
    insertOpenExec(A.Tid, E);
    if (E->IsObserver)
      Events.push_back(Event{EventKind::EK_ObsBegin, A, E});
    break;
  }
  case ActionKind::AK_Return: {
    if (!X) {
      report(ViolationKind::VK_Instrumentation, A.Seq, A.Tid, A.Method,
             "return with no open method execution");
      break;
    }
    X->Ret = A.Ret;
    X->HasRet = true;
    if (X->InBlock)
      report(ViolationKind::VK_Instrumentation, A.Seq, A.Tid, X->Method,
             "method returned inside an open commit block");
    Events.push_back(Event{X->IsObserver ? EventKind::EK_ObsEnd
                                         : EventKind::EK_MutEnd,
                           A, std::move(*Slot)});
    eraseOpenExec(A.Tid, Slot);
    break;
  }
  case ActionKind::AK_Commit: {
    if (!X) {
      report(ViolationKind::VK_Instrumentation, A.Seq, A.Tid, Name(),
             "commit with no open method execution");
      break;
    }
    if (X->IsObserver) {
      report(ViolationKind::VK_Instrumentation, A.Seq, A.Tid, X->Method,
             "observer methods must not commit");
      break;
    }
    if (X->HasCommit) {
      report(ViolationKind::VK_Instrumentation, A.Seq, A.Tid, X->Method,
             "second commit in one method execution (exactly one commit "
             "action per execution path is required)");
      break;
    }
    X->HasCommit = true;
    X->CommitInBlock = X->InBlock;
    X->OpenAtCommit = OpenExecCount;
    Events.push_back(Event{EventKind::EK_Commit, A, *Slot});
    break;
  }
  case ActionKind::AK_Write:
  case ActionKind::AK_ReplayOp: {
    if (X && X->InBlock) {
      X->BlockWrites.push_back(A);
      break;
    }
    Events.push_back(Event{EventKind::EK_Write, A, nullptr});
    break;
  }
  case ActionKind::AK_BlockBegin: {
    if (!X) {
      report(ViolationKind::VK_Instrumentation, A.Seq, A.Tid, Name(),
             "commit block outside a method execution");
      break;
    }
    if (X->InBlock) {
      report(ViolationKind::VK_Instrumentation, A.Seq, A.Tid, X->Method,
             "nested commit blocks are not supported");
      break;
    }
    X->InBlock = true;
    break;
  }
  case ActionKind::AK_BlockEnd: {
    if (!X || !X->InBlock) {
      report(ViolationKind::VK_Instrumentation, A.Seq, A.Tid,
             X ? X->Method : Name(), "unmatched commit block end");
      break;
    }
    X->InBlock = false;
    if (X->HasCommit && X->CommitInBlock && !X->BlockDone) {
      // This block contained the commit: seal its writes; they are applied
      // atomically at the commit event, which may now proceed. A swap, not
      // a move, so BlockWrites keeps the emptied buffer's capacity.
      std::swap(X->CommitBlockWrites, X->BlockWrites);
      X->BlockWrites.clear();
      X->BlockDone = true;
      break;
    }
    // A block with no commit inside (e.g. a preparatory atomic region):
    // apply its writes atomically at the block end position.
    for (Action &W : X->BlockWrites)
      Events.push_back(Event{EventKind::EK_Write, std::move(W), nullptr});
    X->BlockWrites.clear();
    break;
  }
  }

  drain();
}

void RefinementChecker::drain() {
  if (Events.size() > Stats.MaxQueueDepth)
    Stats.MaxQueueDepth = Events.size();
  while (!Events.empty()) {
    if (!processHead())
      return;
    // The queue keeps popped slots alive to recycle their storage; drop
    // the Exec reference now so a retired slot cannot pin a pooled Exec
    // (acquireExec reuses an Exec only at use_count == 1).
    Events.front().E = nullptr;
    Events.pop_front();
  }
}

bool RefinementChecker::processHead() {
  Event &Ev = Events.front();
  switch (Ev.Kind) {
  case EventKind::EK_Write:
    applyUpdate(Ev.A);
    return true;

  case EventKind::EK_Commit: {
    Exec &X = *Ev.E;
    // Return-value lookahead: stall until the execution's return is fed.
    if (!X.HasRet)
      return false;
    // Commit inside a block: stall until the block closes so the block's
    // writes (including those logged after the commit) apply atomically.
    if (X.CommitInBlock && !X.BlockDone)
      return false;
    processCommit(Ev);
    return true;
  }

  case EventKind::EK_ObsBegin: {
    Exec &X = *Ev.E;
    // The observer's return value is needed to evaluate the window states;
    // stall until it is known (Sec. 4.3).
    if (!X.HasRet)
      return false;
    uint64_t T0 = tickIf(Config.CollectTimings);
    X.Satisfied = TheSpec.returnAllowed(X.Method, X.Args, X.Ret);
    if (T0)
      Stats.SpecNanos += telemetryNowNanos() - T0;
    OpenObservers.push_back(Ev.E);
    return true;
  }

  case EventKind::EK_ObsEnd: {
    Exec &X = *Ev.E;
    // Swap-and-pop: the open-observer set is unordered (every member is
    // (re)evaluated at each commit and returnAllowed is const, so the
    // iteration order cannot be observed).
    for (size_t I = 0; I < OpenObservers.size(); ++I) {
      if (OpenObservers[I].get() != &X)
        continue;
      OpenObservers[I] = std::move(OpenObservers.back());
      OpenObservers.pop_back();
      break;
    }
    if (!X.Satisfied) {
      std::string Msg = std::string(X.Method.str()) + "(";
      for (size_t I = 0; I < X.Args.size(); ++I) {
        if (I)
          Msg += ", ";
        Msg += X.Args[I].str();
      }
      Msg += ") -> " + X.Ret.str() +
             " is inconsistent with every specification state in its "
             "call-to-return window";
      report(ViolationKind::VK_ObserverMismatch, Ev.A.Seq, X.Tid, X.Method,
             std::move(Msg));
    }
    ++Stats.ObserversChecked;
    ++Stats.MethodsChecked;
    recycleExec(std::move(Ev.E));
    return true;
  }

  case EventKind::EK_MutEnd: {
    Exec &X = *Ev.E;
    if (!X.HasCommit)
      report(ViolationKind::VK_Instrumentation, Ev.A.Seq, X.Tid, X.Method,
             "mutator execution returned without a commit action");
    // Close the diagnosis window: a signature that never became enabled
    // anywhere between commit and return is unlikely to be a misplaced
    // annotation. Swap-and-pop: each entry is retried independently, so
    // like OpenObservers the set's order is not semantically relevant.
    for (size_t I = 0; I < FailedMutators.size(); ++I) {
      if (FailedMutators[I].first.get() != &X)
        continue;
      Violations[FailedMutators[I].second].Message +=
          "; diagnosis: the signature never became enabled in the "
          "method's window — likely a genuine refinement violation "
          "(Sec. 4.1)";
      FailedMutators[I] = std::move(FailedMutators.back());
      FailedMutators.pop_back();
      break;
    }
    recycleExec(std::move(Ev.E));
    return true;
  }
  }
  assert(false && "unknown EventKind");
  return true;
}

void RefinementChecker::applyUpdate(const Action &A) {
  if (Config.Mode != CheckMode::CM_ViewRefinement)
    return;
  assert(TheReplayer && "view mode requires a replayer");
  uint64_t T0 = tickIf(Config.CollectTimings);
  TheReplayer->applyUpdate(A, ViewI);
  if (T0)
    Stats.ReplayNanos += telemetryNowNanos() - T0;
}

void RefinementChecker::processCommit(Event &Ev) {
  Exec &X = *Ev.E;
  bool ViewMode = Config.Mode == CheckMode::CM_ViewRefinement;

  // Apply the commit block's writes atomically at this point (Sec. 5.2's
  // tau -> tau' conversion).
  if (ViewMode && !X.CommitBlockWrites.empty()) {
    uint64_t T0 = tickIf(Config.CollectTimings);
    for (const Action &W : X.CommitBlockWrites)
      TheReplayer->applyUpdate(W, ViewI);
    if (T0)
      Stats.ReplayNanos += telemetryNowNanos() - T0;
  }
  X.CommitBlockWrites.clear();

  // Drive the specification with the execution's signature.
  uint64_t SpecT0 = tickIf(Config.CollectTimings);
  bool SpecOk = TheSpec.applyMutator(X.Method, X.Args, X.Ret, ViewS);
  if (SpecT0)
    Stats.SpecNanos += telemetryNowNanos() - SpecT0;
  if (!SpecOk) {
    std::string Msg = "specification cannot execute " +
                      std::string(X.Method.str()) + "(";
    for (size_t I = 0; I < X.Args.size(); ++I) {
      if (I)
        Msg += ", ";
      Msg += X.Args[I].str();
    }
    Msg += ") -> " + X.Ret.str() + " at this point in the witness";
    size_t ViolationIdx = Violations.size();
    report(ViolationKind::VK_MutatorMismatch, Ev.A.Seq, X.Tid, X.Method,
           Msg);
    // Sec. 4.1: distinguish a misplaced commit annotation from a genuine
    // violation by retrying the signature at later window states.
    if (ViolationIdx < Violations.size())
      FailedMutators.emplace_back(Ev.E, ViolationIdx);
  }
  ++Stats.CommitsProcessed;

  // The Sec. 8 ablation restricts state comparison to quiescent commits
  // (commit-atomicity style); the default compares at every commit.
  bool Compare = !Config.QuiescentOnly || X.OpenAtCommit <= 1;
  if (ViewMode && Compare &&
      !(Config.StopAtFirstViolation && hasViolation())) {
    uint64_t T0 = tickIf(Config.CollectTimings || Telem);
    compareViews(X, Ev.A.Seq);
    std::string InvMsg;
    if (!TheReplayer->checkInvariants(InvMsg))
      report(ViolationKind::VK_InvariantFailed, Ev.A.Seq, X.Tid, X.Method,
             std::move(InvMsg));
    if (T0) {
      uint64_t Ns = telemetryNowNanos() - T0;
      if (Config.CollectTimings)
        Stats.ViewCompareNanos += Ns;
      if (Telem)
        Telem->record(Histo::H_ViewCompareNs, Ns);
    }
  }

  // Retry failed mutators *after* this commit's own comparison: the late
  // application models the failed method taking effect at (or after) this
  // point, which is also when its implementation-side writes land.
  if (!FailedMutators.empty())
    retryFailedMutators(Ev.A.Seq);

  // Every open observer's window includes this commit: evaluate the new
  // specification state against each still-unsatisfied return value.
  evalOpenObservers();

  ++Stats.MethodsChecked;
}

void RefinementChecker::retryFailedMutators(uint64_t Seq) {
  uint64_t T0 = tickIf(Config.CollectTimings);
  for (size_t I = 0; I < FailedMutators.size();) {
    auto &[E, ViolationIdx] = FailedMutators[I];
    if (!TheSpec.applyMutator(E->Method, E->Args, E->Ret, ViewS)) {
      ++I;
      continue;
    }
    // The signature is enabled here: apply it (recovering the spec state)
    // and annotate the original violation.
    Violations[ViolationIdx].Message +=
        "; diagnosis: the signature became enabled after the commit at #" +
        std::to_string(Seq) +
        " — the commit-point annotation is likely too early (Sec. 4.1)";
    FailedMutators[I] = std::move(FailedMutators.back());
    FailedMutators.pop_back();
  }
  if (T0)
    Stats.SpecNanos += telemetryNowNanos() - T0;
}

void RefinementChecker::evalOpenObservers() {
  if (OpenObservers.empty())
    return;
  uint64_t T0 = tickIf(Config.CollectTimings);
  for (ExecPtr &ObsP : OpenObservers) {
    Exec &Obs = *ObsP;
    if (!Obs.Satisfied)
      Obs.Satisfied = TheSpec.returnAllowed(Obs.Method, Obs.Args, Obs.Ret);
  }
  if (T0)
    Stats.SpecNanos += telemetryNowNanos() - T0;
}

RefinementChecker::ExecPtr *RefinementChecker::findOpenExec(ThreadId Tid) {
  if (Tid < DenseTidLimit) {
    if (Tid < OpenExecsDense.size() && OpenExecsDense[Tid])
      return &OpenExecsDense[Tid];
    return nullptr;
  }
  auto It = OpenExecsSparse.find(Tid);
  return It == OpenExecsSparse.end() ? nullptr : &It->second;
}

void RefinementChecker::insertOpenExec(ThreadId Tid, ExecPtr E) {
  if (Tid < DenseTidLimit) {
    if (OpenExecsDense.size() <= Tid)
      OpenExecsDense.resize(std::min<size_t>(
          DenseTidLimit,
          std::max<size_t>(Tid + 1, OpenExecsDense.empty()
                                        ? 16
                                        : OpenExecsDense.size() * 2)));
    OpenExecsDense[Tid] = std::move(E);
  } else {
    OpenExecsSparse[Tid] = std::move(E);
  }
  ++OpenExecCount;
}

void RefinementChecker::eraseOpenExec(ThreadId Tid, ExecPtr *Slot) {
  if (Tid < DenseTidLimit)
    Slot->reset();
  else
    OpenExecsSparse.erase(Tid);
  --OpenExecCount;
}

RefinementChecker::ExecPtr RefinementChecker::acquireExec() {
  while (!ExecPool.empty()) {
    ExecPtr E = std::move(ExecPool.back());
    ExecPool.pop_back();
    // A retired Exec can still be referenced by a stalled event deep in
    // the queue (its window closed out of order); skip those.
    if (E.use_count() != 1)
      continue;
    Exec &X = *E;
    X.Tid = 0;
    X.Method = Name();
    X.Args.clear();
    X.Ret = Value();
    X.CallSeq = 0;
    X.IsObserver = false;
    X.HasRet = false;
    X.HasCommit = false;
    X.CommitInBlock = false;
    X.BlockDone = false;
    X.InBlock = false;
    X.Satisfied = false;
    X.OpenAtCommit = 0;
    X.BlockWrites.clear();        // clear() keeps the buffer capacity —
    X.CommitBlockWrites.clear();  // that is the point of pooling Execs
    return E;
  }
  return std::make_shared<Exec>();
}

void RefinementChecker::recycleExec(ExecPtr E) {
  if (ExecPool.size() < 256)
    ExecPool.push_back(std::move(E));
}

void RefinementChecker::compareViews(const Exec &X, uint64_t Seq) {
  ++Stats.ViewComparisons;

  if (Config.AuditPeriod && ++CommitsSinceAudit >= Config.AuditPeriod) {
    CommitsSinceAudit = 0;
    runAudit(Seq);
  }

  // Equal digests settle the common case in O(1). Otherwise (always under
  // the full-recompute ablation) compare rebuilt views exactly, unless
  // report() would drop the result: equal ones mean a digest drifted.
  if ((ViewI == ViewS && !Config.FullViewRecompute) ||
      Violations.size() >= Config.MaxViolations)
    return;
  View OldI = ViewI, OldS = ViewS;
  if (rebuildViews(ViolationKind::VK_ViewMismatch, Seq, X.Tid, X.Method,
                   "viewI != viewS after commit: ") &&
      OldI != OldS)
    report(ViolationKind::VK_Instrumentation, Seq, X.Tid, X.Method,
           "digests differ but the rebuilt views are equal: " +
               describeDrift(OldI, OldS));
}

bool RefinementChecker::rebuildViews(ViolationKind K, uint64_t Seq,
                                     ThreadId Tid, Name Method,
                                     const char *Prefix) {
  View FreshI, FreshS;
  TheReplayer->buildView(FreshI);
  TheSpec.buildView(FreshS);
  // Seed first: a forensic bundle captured by report() shows the digests.
  ViewI = View::digestOnly(FreshI);
  ViewS = View::digestOnly(FreshS);
  bool Equal = FreshI.deepEquals(FreshS);
  if (!Equal)
    report(K, Seq, Tid, Method, Prefix + View::diff(FreshI, FreshS));
  return Equal;
}

void RefinementChecker::runAudit(uint64_t Seq) {
  ++Stats.Audits;
  View OldI = ViewI, OldS = ViewS;
  TheReplayer->buildView(ViewI);
  TheSpec.buildView(ViewS);
  if (OldI != ViewI || OldS != ViewS)
    report(ViolationKind::VK_Instrumentation, Seq, 0, Name(),
           "audit: " + describeDrift(OldI, OldS));
}

std::string RefinementChecker::describeDrift(const View &OldI,
                                             const View &OldS) const {
  bool DriftI = OldI != ViewI, DriftS = OldS != ViewS;
  return std::string("incrementally maintained ") + (DriftI ? "viewI" : "") +
         (DriftI && DriftS ? " and " : "") + (DriftS ? "viewS" : "") +
         " diverged from the rebuilt view";
}

//===----------------------------------------------------------------------===//
// Snapshot support (docs/SNAPSHOTS.md)
//===----------------------------------------------------------------------===//

// Blob layout: [varint blob version][varint len][stats][varint len][core].
// The stats section carries the cumulative counters, so a resumed run's
// final totals equal a from-zero run's. The core section carries the
// resumable state proper and is *canonical*: execs enumerate in a
// deterministic order, names travel as strings interned in first-use order
// (no process-local ids leak into the bytes), and unordered containers in
// spec/replayer blobs serialize sorted — equivalent checker states produce
// byte-identical cores, which is what lets the epoch baseline audit
// byte-compare a re-derived core against the next sidecar's.
static constexpr uint64_t CheckerBlobVersion = 2;

namespace {

// Exec flag bits (core section, one byte per exec).
enum : uint8_t {
  XF_IsObserver = 1 << 0,
  XF_HasRet = 1 << 1,
  XF_HasCommit = 1 << 2,
  XF_CommitInBlock = 1 << 3,
  XF_BlockDone = 1 << 4,
  XF_InBlock = 1 << 5,
  XF_Satisfied = 1 << 6,
  XF_IsOpen = 1 << 7, // member of the open-exec table at snapshot time
};

void writeStats(ByteWriter &W, const CheckerStats &S) {
  W.varint(S.ActionsFed);
  W.varint(S.MethodsChecked);
  W.varint(S.CommitsProcessed);
  W.varint(S.ObserversChecked);
  W.varint(S.ViewComparisons);
  W.varint(S.Audits);
  W.varint(S.MaxQueueDepth);
  W.varint(S.ReplayNanos);
  W.varint(S.SpecNanos);
  W.varint(S.ViewCompareNanos);
}

bool readStats(ByteReader &R, CheckerStats &S) {
  S.ActionsFed = R.varint();
  S.MethodsChecked = R.varint();
  S.CommitsProcessed = R.varint();
  S.ObserversChecked = R.varint();
  S.ViewComparisons = R.varint();
  S.Audits = R.varint();
  S.MaxQueueDepth = R.varint();
  S.ReplayNanos = R.varint();
  S.SpecNanos = R.varint();
  S.ViewCompareNanos = R.varint();
  return R.ok() && R.atEnd();
}

} // namespace

bool RefinementChecker::saveState(ByteWriter &W) const {
  // Only a clean checker snapshots: a recorded violation (or a pending
  // diagnosis retry, which implies one) must surface through the normal
  // reporting path, and a finished checker has already flushed its
  // pipeline.
  if (Finished || !Violations.empty() || !FailedMutators.empty())
    return false;

  ByteWriter Core;
  Core.u8(static_cast<uint8_t>(Config.Mode));
  Core.varint(CommitsSinceAudit);

  {
    ByteWriter SpecW;
    if (!TheSpec.saveState(SpecW))
      return false; // spec does not support snapshots
    Core.varint(SpecW.size());
    Core.bytes(SpecW.buffer().data(), SpecW.size());
  }

  bool ViewMode = Config.Mode == CheckMode::CM_ViewRefinement;
  Core.u8(ViewMode ? 1 : 0);
  if (ViewMode) {
    ByteWriter RepW;
    if (!TheReplayer || !TheReplayer->saveState(RepW))
      return false;
    Core.varint(RepW.size());
    Core.bytes(RepW.buffer().data(), RepW.size());
  }

  // Canonical exec enumeration: open executions by ascending Tid (dense
  // slots first, then the sorted sparse ones), then execs reachable only
  // through the event queue in queue order, then open observers. Every
  // ordering step is a function of the checker state alone, so equivalent
  // states enumerate identically.
  std::vector<const Exec *> Table;
  std::unordered_map<const Exec *, size_t> Index;
  auto Add = [&](const ExecPtr &E) {
    if (!E || Index.count(E.get()))
      return;
    Index.emplace(E.get(), Table.size());
    Table.push_back(E.get());
  };
  for (const ExecPtr &E : OpenExecsDense)
    Add(E);
  {
    std::vector<ThreadId> SparseTids;
    SparseTids.reserve(OpenExecsSparse.size());
    for (const auto &KV : OpenExecsSparse)
      SparseTids.push_back(KV.first);
    std::sort(SparseTids.begin(), SparseTids.end());
    for (ThreadId Tid : SparseTids)
      Add(OpenExecsSparse.at(Tid));
  }
  Events.forEach([&](const Event &Ev) { Add(Ev.E); });
  for (const ExecPtr &E : OpenObservers)
    Add(E);

  auto IsOpenExec = [&](const Exec &X) {
    if (X.Tid < DenseTidLimit)
      return X.Tid < OpenExecsDense.size() &&
             OpenExecsDense[X.Tid].get() == &X;
    auto It = OpenExecsSparse.find(X.Tid);
    return It != OpenExecsSparse.end() && It->second.get() == &X;
  };

  // One encoder for the whole core: name definitions interleave with the
  // records exactly as in a log file, in first-use order.
  ActionEncoder Enc;
  auto WriteActions = [&](const std::vector<Action> &As) {
    Core.varint(As.size());
    for (const Action &A : As)
      Enc.encode(A, Core);
  };

  Core.varint(Table.size());
  for (const Exec *XP : Table) {
    const Exec &X = *XP;
    Core.varint(X.Tid);
    Core.u8(X.Method.valid() ? 1 : 0);
    if (X.Method.valid())
      Core.str(X.Method.str());
    Core.varint(X.Args.size());
    for (const Value &V : X.Args)
      writeValue(Core, V);
    writeValue(Core, X.Ret);
    Core.varint(X.CallSeq);
    uint8_t Flags = 0;
    if (X.IsObserver)
      Flags |= XF_IsObserver;
    if (X.HasRet)
      Flags |= XF_HasRet;
    if (X.HasCommit)
      Flags |= XF_HasCommit;
    if (X.CommitInBlock)
      Flags |= XF_CommitInBlock;
    if (X.BlockDone)
      Flags |= XF_BlockDone;
    if (X.InBlock)
      Flags |= XF_InBlock;
    if (X.Satisfied)
      Flags |= XF_Satisfied;
    if (IsOpenExec(X))
      Flags |= XF_IsOpen;
    Core.u8(Flags);
    Core.varint(X.OpenAtCommit);
    WriteActions(X.BlockWrites);
    WriteActions(X.CommitBlockWrites);
  }

  Core.varint(Events.size());
  Events.forEach([&](const Event &Ev) {
    Core.u8(static_cast<uint8_t>(Ev.Kind));
    Enc.encode(Ev.A, Core);
    Core.svarint(Ev.E ? static_cast<int64_t>(Index.at(Ev.E.get())) : -1);
  });

  Core.varint(OpenObservers.size());
  for (const ExecPtr &E : OpenObservers)
    Core.varint(Index.at(E.get()));

  ByteWriter StatsW;
  writeStats(StatsW, Stats);

  W.varint(CheckerBlobVersion);
  W.varint(StatsW.size());
  W.bytes(StatsW.buffer().data(), StatsW.size());
  W.varint(Core.size());
  W.bytes(Core.buffer().data(), Core.size());
  return true;
}

bool RefinementChecker::restoreState(ByteReader &R) {
  if (R.varint() != CheckerBlobVersion || !R.ok())
    return false;
  uint64_t StatsLen = R.varint();
  if (!R.ok() || StatsLen > (1u << 20))
    return false;
  std::vector<uint8_t> StatsBytes(StatsLen);
  if (StatsLen && !R.bytes(StatsBytes.data(), StatsLen))
    return false;
  uint64_t CoreLen = R.varint();
  if (!R.ok() || CoreLen > (uint64_t(1) << 32))
    return false;
  std::vector<uint8_t> CoreBytes(CoreLen);
  if (CoreLen && !R.bytes(CoreBytes.data(), CoreLen))
    return false;

  CheckerStats NewStats;
  {
    ByteReader SR(StatsBytes.data(), StatsBytes.size());
    if (!readStats(SR, NewStats))
      return false;
  }

  ByteReader C(CoreBytes.data(), CoreBytes.size());
  if (static_cast<CheckMode>(C.u8()) != Config.Mode || !C.ok())
    return false; // snapshot taken under a different check mode
  uint64_t NewCommitsSinceAudit = C.varint();
  if (!C.ok())
    return false;

  {
    uint64_t Len = C.varint();
    if (!C.ok() || Len > CoreBytes.size())
      return false;
    std::vector<uint8_t> Blob(Len);
    if (Len && !C.bytes(Blob.data(), Len))
      return false;
    ByteReader SpecR(Blob.data(), Blob.size());
    if (!TheSpec.loadState(SpecR) || !SpecR.ok())
      return false;
  }

  bool ViewMode = Config.Mode == CheckMode::CM_ViewRefinement;
  uint8_t HasRep = C.u8();
  if (!C.ok() || (HasRep != 0) != ViewMode)
    return false;
  if (HasRep) {
    uint64_t Len = C.varint();
    if (!C.ok() || Len > CoreBytes.size())
      return false;
    std::vector<uint8_t> Blob(Len);
    if (Len && !C.bytes(Blob.data(), Len))
      return false;
    ByteReader RepR(Blob.data(), Blob.size());
    if (!TheReplayer || !TheReplayer->loadState(RepR) || !RepR.ok())
      return false;
  }

  uint64_t NExecs = C.varint();
  if (!C.ok() || NExecs > (1u << 20))
    return false;
  ActionDecoder Dec; // records use the current (v3-style) layout
  auto ReadActions = [&](std::vector<Action> &Out) -> bool {
    uint64_t N = C.varint();
    if (!C.ok() || N > (1u << 20))
      return false;
    Out.clear();
    for (uint64_t I = 0; I < N; ++I) {
      Action A;
      if (!Dec.decode(C, A))
        return false;
      Out.push_back(std::move(A));
    }
    return true;
  };
  std::vector<ExecPtr> Table;
  std::vector<bool> OpenFlags;
  Table.reserve(NExecs);
  OpenFlags.reserve(NExecs);
  for (uint64_t I = 0; I < NExecs; ++I) {
    ExecPtr E = std::make_shared<Exec>();
    Exec &X = *E;
    X.Tid = static_cast<ThreadId>(C.varint());
    if (C.u8())
      X.Method = internName(C.str());
    uint64_t NArgs = C.varint();
    if (!C.ok() || NArgs > (1u << 20))
      return false;
    for (uint64_t J = 0; J < NArgs; ++J)
      X.Args.push_back(readValue(C));
    X.Ret = readValue(C);
    X.CallSeq = C.varint();
    uint8_t Flags = C.u8();
    X.OpenAtCommit = C.varint();
    if (!C.ok())
      return false;
    X.IsObserver = Flags & XF_IsObserver;
    X.HasRet = Flags & XF_HasRet;
    X.HasCommit = Flags & XF_HasCommit;
    X.CommitInBlock = Flags & XF_CommitInBlock;
    X.BlockDone = Flags & XF_BlockDone;
    X.InBlock = Flags & XF_InBlock;
    X.Satisfied = Flags & XF_Satisfied;
    if (!ReadActions(X.BlockWrites) || !ReadActions(X.CommitBlockWrites))
      return false;
    OpenFlags.push_back((Flags & XF_IsOpen) != 0);
    Table.push_back(std::move(E));
  }

  uint64_t NEvents = C.varint();
  if (!C.ok() || NEvents > (1u << 24))
    return false;
  // From here on the live state is replaced; a failure below leaves the
  // checker unusable, as documented. Drop Exec references before popping
  // (queue slots survive pop and would otherwise pin pooled Execs).
  while (!Events.empty()) {
    Events.front().E = nullptr;
    Events.pop_front();
  }
  for (uint64_t I = 0; I < NEvents; ++I) {
    uint8_t Kind = C.u8();
    if (!C.ok() || Kind > static_cast<uint8_t>(EventKind::EK_MutEnd))
      return false;
    Event Ev;
    Ev.Kind = static_cast<EventKind>(Kind);
    if (!Dec.decode(C, Ev.A))
      return false;
    int64_t Idx = C.svarint();
    if (!C.ok() || Idx < -1 || Idx >= static_cast<int64_t>(Table.size()))
      return false;
    Ev.E = Idx < 0 ? nullptr : Table[static_cast<size_t>(Idx)];
    Events.push_back(std::move(Ev));
  }

  uint64_t NObs = C.varint();
  if (!C.ok() || NObs > Table.size())
    return false;
  OpenObservers.clear();
  for (uint64_t I = 0; I < NObs; ++I) {
    uint64_t Idx = C.varint();
    if (!C.ok() || Idx >= Table.size())
      return false;
    OpenObservers.push_back(Table[Idx]);
  }
  if (!C.ok() || !C.atEnd())
    return false; // trailing garbage: reject, the blob is suspect

  OpenExecsDense.clear();
  OpenExecsSparse.clear();
  OpenExecCount = 0;
  for (size_t I = 0; I < Table.size(); ++I)
    if (OpenFlags[I])
      insertOpenExec(Table[I]->Tid, Table[I]);

  // Diagnostics reset rather than restore: the recent-actions window loses
  // pre-snapshot context (bounded diagnostic loss, see docs/SNAPSHOTS.md).
  FailedMutators.clear();
  Violations.clear();
  ForensicBundles.clear();
  RecentNext = 0;
  RecentHeld = 0;
  ExecPool.clear();
  Finished = false;
  CommitsSinceAudit = NewCommitsSinceAudit;
  Stats = NewStats;

  if (ViewMode) {
    // Rebuild both digests from the restored state. No cross-check here:
    // between commits viewI legitimately leads viewS (implementation
    // writes land at write events, the spec moves at commits), so
    // inequality at a snapshot point is not an error.
    TheReplayer->buildView(ViewI);
    TheSpec.buildView(ViewS);
  }
  return true;
}

bool RefinementChecker::coreSection(const uint8_t *Data, size_t Size,
                                    size_t &Off, size_t &Len) {
  ByteReader R(Data, Size);
  if (R.varint() != CheckerBlobVersion || !R.ok())
    return false;
  uint64_t StatsLen = R.varint();
  if (!R.ok() || StatsLen > Size - R.position())
    return false;
  size_t P = R.position() + static_cast<size_t>(StatsLen);
  ByteReader R2(Data + P, Size - P);
  uint64_t CoreLen = R2.varint();
  if (!R2.ok() || CoreLen > (Size - P) - R2.position())
    return false;
  Off = P + R2.position();
  Len = static_cast<size_t>(CoreLen);
  return true;
}

void RefinementChecker::finish() {
  if (Finished)
    return;
  Finished = true;
  if (Config.AllowIncompleteTail)
    return;
  if (!Events.empty()) {
    const Event &Ev = Events.front();
    report(ViolationKind::VK_Instrumentation, Ev.A.Seq, Ev.A.Tid,
           Ev.E ? Ev.E->Method : Name(),
           "log ended with " + std::to_string(Events.size()) +
               " unprocessed events (incomplete executions)");
  }
  for (size_t Tid = 0; Tid < OpenExecsDense.size(); ++Tid)
    if (const ExecPtr &E = OpenExecsDense[Tid])
      report(ViolationKind::VK_Instrumentation, E->CallSeq,
             static_cast<ThreadId>(Tid), E->Method,
             "method execution still open at end of log");
  for (auto &[Tid, E] : OpenExecsSparse)
    report(ViolationKind::VK_Instrumentation, E->CallSeq, Tid, E->Method,
           "method execution still open at end of log");
}
