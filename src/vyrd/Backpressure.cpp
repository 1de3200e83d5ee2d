//===- Backpressure.cpp - Bounded pipeline and segmented log --------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Backpressure.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

using namespace vyrd;

void BackpressureStats::merge(const BackpressureStats &O) {
  BlockedAppends += O.BlockedAppends;
  BlockedNanos += O.BlockedNanos;
  PendingRecordsHwm = std::max(PendingRecordsHwm, O.PendingRecordsHwm);
  SegmentsCreated += O.SegmentsCreated;
  SegmentsReclaimed += O.SegmentsReclaimed;
  SegmentsLiveHwm = std::max(SegmentsLiveHwm, O.SegmentsLiveHwm);
}

bool BackpressureStats::any() const {
  return BlockedAppends || PendingRecordsHwm || SegmentsCreated;
}

//===----------------------------------------------------------------------===//
// SegmentSink
//===----------------------------------------------------------------------===//

std::string vyrd::logSegmentPath(const std::string &Base, uint64_t Index) {
  char Suffix[16];
  std::snprintf(Suffix, sizeof(Suffix), ".%06" PRIu64, Index);
  return Base + Suffix;
}

bool vyrd::splitLogSegmentPath(const std::string &Path, std::string &Base,
                               uint64_t &Index) {
  if (Path.size() < 8 || Path[Path.size() - 7] != '.')
    return false;
  uint64_t N = 0;
  for (size_t I = Path.size() - 6; I < Path.size(); ++I) {
    char C = Path[I];
    if (C < '0' || C > '9')
      return false;
    N = N * 10 + static_cast<uint64_t>(C - '0');
  }
  if (N == 0)
    return false; // chain indices are 1-based
  Base = Path.substr(0, Path.size() - 7);
  Index = N;
  return true;
}

SegmentSink::~SegmentSink() { close(); }

std::string SegmentSink::segmentPathLocked(uint64_t Index) const {
  return SegmentBytes ? logSegmentPath(Path, Index) : Path;
}

bool SegmentSink::openSegmentLocked(uint64_t FirstSeq) {
  std::string P =
      SegmentBytes ? segmentPathLocked(NextIndex) : Path;
  File = std::fopen(P.c_str(), "wb");
  if (!File)
    return false;
  // Segments are self-contained: every rotation restarts the
  // name-interning table, so a segment decodes (and its predecessors
  // delete) independently.
  Encoder = ActionEncoder();
  ByteWriter HW;
  if (SegmentBytes)
    writeSegmentHeader(HW, NextIndex, FirstSeq);
  else
    writeLogHeader(HW);
  std::fwrite(HW.buffer().data(), 1, HW.size(), File);
  TotalBytes += HW.size();
  CurSegmentBytes = HW.size();
  Segment S;
  S.Index = SegmentBytes ? NextIndex : 0;
  S.FirstSeq = FirstSeq;
  Segments.push_back(S);
  ++NextIndex;
  ++SegmentsCreated;
  SegmentsLiveHwm = std::max<uint64_t>(SegmentsLiveHwm, Segments.size());
  return true;
}

bool SegmentSink::open(const std::string &OutPath, uint64_t SegBytes) {
  std::lock_guard Lock(M);
  Path = OutPath;
  SegmentBytes = SegBytes;
  Opened = openSegmentLocked(0);
  return Opened;
}

bool SegmentSink::valid() const {
  std::lock_guard Lock(M);
  return Opened;
}

void SegmentSink::flushPendingLocked() {
  if (Pending.size() == 0)
    return;
  if (File)
    std::fwrite(Pending.buffer().data(), 1, Pending.size(), File);
  Pending.clear();
}

void SegmentSink::rotateLocked(uint64_t NextFirstSeq) {
  flushPendingLocked();
  if (File) {
    // Flush and close the full segment *before* creating its successor:
    // chain readers take the successor's existence as proof the
    // predecessor is complete on disk.
    std::fflush(File);
    std::fclose(File);
    File = nullptr;
  }
  if (!Segments.empty())
    Segments.back().Closed = true;
  if (!openSegmentLocked(NextFirstSeq)) {
    std::fprintf(stderr, "vyrd: cannot open log segment %s\n",
                 segmentPathLocked(NextIndex).c_str());
    return;
  }
  // The successor exists: record the cut for the snapshot machinery
  // (Segments.back() is the segment openSegmentLocked just pushed).
  Cuts.push_back(SegmentCut{Segments.back().Index, NextFirstSeq});
}

void SegmentSink::write(const Action &A) {
  std::lock_guard Lock(M);
  if (!Opened || ClosedDown)
    return;
  if (SegmentBytes && CurSegmentBytes >= SegmentBytes &&
      !Segments.empty() && Segments.back().Records > 0)
    rotateLocked(A.Seq);
  size_t Before = Pending.size();
  Encoder.encode(A, Pending);
  size_t D = Pending.size() - Before;
  TotalBytes += D;
  CurSegmentBytes += D;
  if (!Segments.empty()) {
    Segment &S = Segments.back();
    if (S.Records == 0)
      S.FirstSeq = A.Seq;
    S.LastSeq = A.Seq;
    ++S.Records;
  }
  // Keep the pending buffer modest even if the owner forgets to flush.
  if (Pending.size() >= (1u << 18))
    flushPendingLocked();
}

void SegmentSink::flushPending() {
  std::lock_guard Lock(M);
  flushPendingLocked();
}

void SegmentSink::sync() {
  std::lock_guard Lock(M);
  flushPendingLocked();
  if (File)
    std::fflush(File);
}

void SegmentSink::close() {
  std::lock_guard Lock(M);
  if (ClosedDown)
    return;
  ClosedDown = true;
  flushPendingLocked();
  if (File) {
    std::fflush(File);
    std::fclose(File);
    File = nullptr;
  }
  if (!Segments.empty())
    Segments.back().Closed = true;
}

uint64_t SegmentSink::bytesWritten() const {
  std::lock_guard Lock(M);
  return TotalBytes;
}

void SegmentSink::reclaimThrough(uint64_t Watermark) {
  std::lock_guard Lock(M);
  if (!SegmentBytes)
    return;
  size_t N = 0;
  while (N < Segments.size()) {
    const Segment &S = Segments[N];
    if (!S.Closed || S.Records == 0 || S.LastSeq >= Watermark)
      break;
    std::remove(segmentPathLocked(S.Index).c_str());
    // A reclaimed segment's snapshot sidecar (if the Verifier wrote one)
    // goes with it: the sidecar encodes the state *before* this segment,
    // which is only useful while the segment's records still exist.
    std::remove((segmentPathLocked(S.Index) + ".snap").c_str());
    ++SegmentsReclaimed;
    ++N;
  }
  if (N)
    Segments.erase(Segments.begin(), Segments.begin() + N);
}

void SegmentSink::drainCuts(std::vector<SegmentCut> &Out) {
  std::lock_guard Lock(M);
  if (Cuts.empty())
    return;
  Out.insert(Out.end(), Cuts.begin(), Cuts.end());
  Cuts.clear();
}

BackpressureStats SegmentSink::stats() const {
  std::lock_guard Lock(M);
  BackpressureStats S;
  S.SegmentsCreated = SegmentsCreated;
  S.SegmentsReclaimed = SegmentsReclaimed;
  S.SegmentsLiveHwm = SegmentsLiveHwm;
  return S;
}
