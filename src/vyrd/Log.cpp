//===- Log.cpp - Execution logs connecting program and verifier ----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Log.h"

#include <cstring>

using namespace vyrd;

LogWriter::~LogWriter() = default;
Log::~Log() = default;

bool Log::nextBatch(std::vector<Action> &Out, size_t Max) {
  Out.clear();
  if (Max == 0)
    Max = 1;
  Action A;
  if (!next(A))
    return false;
  Out.push_back(std::move(A));
  bool End = false;
  while (Out.size() < Max && tryNext(A, End))
    Out.push_back(std::move(A));
  return true;
}

//===----------------------------------------------------------------------===//
// loadLogFile
//===----------------------------------------------------------------------===//

/// Read-window granularity: one fread and one decode sweep per megabyte
/// of log. Only a single record larger than the window forces growth.
static constexpr size_t ReaderChunk = 1 << 20;

/// How far the ctor probes `base.000001`, `base.000002`, ... for the
/// earliest live segment when the base path itself does not exist (the
/// front of the chain may have been reclaimed).
static constexpr uint64_t MaxSegmentProbe = 1 << 16;

LogFileReader::LogFileReader(const std::string &Path) {
  std::string Opened = Path;
  File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    // A segmented chain has no file at its base path — fall back to the
    // earliest segment still on disk (reclamation trims from the front).
    for (uint64_t I = 1; I <= MaxSegmentProbe && !File; ++I) {
      Opened = logSegmentPath(Path, I);
      File = std::fopen(Opened.c_str(), "rb");
    }
    if (!File)
      return;
  }
  Buf.resize(ReaderChunk);
  refill();
  ByteReader R(Buf.data(), End);
  LogSegmentInfo Seg;
  Version = readLogHeader(R, &Seg);
  if (Version == 0) {
    Malformed = true; // magic present but header malformed/unknown
    return;
  }
  if (Version == LogSegmentVersion) {
    // Chain walking needs the base path; a segment file renamed to
    // something else is still readable, just as a single segment.
    uint64_t PathIndex = 0;
    if (splitLogSegmentPath(Opened, ChainBase, PathIndex))
      ChainIndex = Seg.Index;
  }
  Decoder.setVersion(Version);
  Start = R.position(); // 0 for headerless v1 streams
  Consumed = R.position();
}

LogFileReader::~LogFileReader() {
  if (File)
    std::fclose(File);
}

void LogFileReader::refill() {
  // Compact the undecoded suffix to the front, then top the window up.
  if (Start > 0) {
    std::memmove(Buf.data(), Buf.data() + Start, End - Start);
    End -= Start;
    Start = 0;
  }
  if (End == Buf.size())
    Buf.resize(Buf.size() * 2); // one record larger than the window
  size_t N = std::fread(Buf.data() + End, 1, Buf.size() - End, File);
  End += N;
  if (N == 0) {
    Eof = true;
    if (Tailing)
      std::clearerr(File); // the writer may append more; re-probe later
  }
}

bool LogFileReader::advanceSegment() {
  if (ChainBase.empty())
    return false;
  std::string NextPath = logSegmentPath(ChainBase, ChainIndex + 1);
  std::FILE *NF = std::fopen(NextPath.c_str(), "rb");
  if (!NF)
    return false; // no successor (yet)
  // Peek the successor's header before committing to the switch: right
  // after rotation it may exist with its header still in the writer's
  // stdio buffer.
  uint8_t Hdr[32]; // magic + three varints is at most 25 bytes
  size_t HN = std::fread(Hdr, 1, sizeof(Hdr), NF);
  ByteReader R(Hdr, HN);
  LogSegmentInfo Seg;
  uint32_t V = readLogHeader(R, &Seg);
  if (V != LogSegmentVersion) {
    std::fclose(NF);
    if (Tailing || HN == 0)
      return false; // header not flushed yet / crashed mid-rotation
    Malformed = true;
    return false;
  }
  // A complete successor header proves the predecessor was flushed and
  // closed first (SegmentSink's rotation order), so leftover undecodable
  // bytes in it are real corruption.
  if (Start != End) {
    std::fclose(NF);
    Malformed = true;
    return false;
  }
  std::fclose(File);
  File = NF;
  std::fseek(File, static_cast<long>(R.position()), SEEK_SET);
  Eof = false;
  Start = End = 0;
  Consumed += R.position();
  // Segments are self-contained: fresh name-interning table per file.
  Decoder = ActionDecoder();
  Decoder.setVersion(V);
  ChainIndex = Seg.Index;
  return true;
}

bool LogFileReader::next(Action &Out) {
  if (!File || Malformed)
    return false;
  while (true) {
    if (Start < End) {
      // Speculative decode: on failure this may be a record truncated at
      // the window end, so roll the decoder's name table back and retry
      // with more data before declaring the stream malformed.
      size_t SavedNames = Decoder.nameCount();
      ByteReader R(Buf.data() + Start, End - Start);
      if (Decoder.decode(R, Out)) {
        Start += R.position();
        Consumed += R.position();
        return true;
      }
      Decoder.truncateNames(SavedNames);
    }
    Eof = false; // re-probe: tailed files grow, chains gain successors
    size_t Had = End - Start;
    refill();
    if (!Eof && End - Start != Had)
      continue; // new bytes: retry the decode
    // At the (current) end of this file: continue into the successor
    // segment if one exists.
    if (advanceSegment())
      continue;
    if (Malformed)
      return false;
    if (Tailing)
      return false; // no complete record *yet*; caller retries later
    if (Start != End)
      Malformed = true; // trailing undecodable bytes
    return false;
  }
}

bool vyrd::loadLogFile(const std::string &Path, std::vector<Action> &Out) {
  LogFileReader Reader(Path);
  if (!Reader.valid())
    return false;
  Action A;
  while (Reader.next(A))
    Out.push_back(std::move(A));
  return !Reader.malformed();
}
