//===- Serialize.h - Binary encoding of log records -------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compact binary serialization for Action records, used by the log file
/// (BufferedLog's sink, LogFileReader) and the shipping wire. Plays
/// the role the .NET binary object serializer played in the original tool
/// (Sec. 6.1): records are restored exactly as they were saved at runtime.
///
/// Format (v3): a 5-byte header — the magic bytes "VYRD" followed by a
/// varint format version — then a stream of records. Each record starts
/// with a tag byte: `0xFF` introduces a name definition (varint file-local
/// id + string); any other tag is an ActionKind and is followed by the
/// action fields. Integers are LEB128 varints; names are file-local ids
/// defined on first use, so method/variable strings are written once per
/// file.
///
/// Version history (see docs/LOGFORMAT.md):
///   v1 — no header, records start at byte 0, no ObjectId field.
///   v2 — "VYRD" header; each record carries a varint ObjectId after Tid.
///   v3 — one value slot per record instead of v1/v2's two (Ret, Val):
///        no record kind uses both, so the pair wasted a null byte per
///        record. The decoder maps a legacy pair onto the merged
///        Action::Ret by kind (Val for writes, Ret otherwise).
/// v1/v2 files remain readable: 'V' (0x56) is not a valid v1 tag byte, so
/// a reader can sniff the magic and fall back to the headerless v1
/// layout, and the header version selects the two-slot decode path.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_SERIALIZE_H
#define VYRD_SERIALIZE_H

#include "vyrd/Action.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace vyrd {

/// Current version of the on-disk log format (plain single-file logs).
constexpr uint32_t LogFormatVersion = 3;

/// Format version of one file in a rotated segment chain (SegmentSink):
/// the header additionally carries the segment's 1-based chain index and
/// the sequence number of its first record, and the record layout is
/// exactly v3. Each segment restarts the name-interning table, so a
/// segment decodes without its predecessors (they may be reclaimed).
constexpr uint32_t LogSegmentVersion = 4;

/// Magic bytes opening every log file from v2 on. The first byte, 'V'
/// (0x56), is neither the name-definition tag (0xFF) nor a valid
/// ActionKind, which is what makes headerless v1 files distinguishable.
constexpr uint8_t LogMagic[4] = {'V', 'Y', 'R', 'D'};

class ByteWriter;
class ByteReader;

/// Appends the file header (magic + current format version) to \p W.
/// Log backends call this once, before the first record.
void writeLogHeader(ByteWriter &W);

/// Appends a segment-file header (magic + LogSegmentVersion + varint
/// segment index + varint first sequence number) to \p W. SegmentSink
/// writes one at the front of every segment.
void writeSegmentHeader(ByteWriter &W, uint64_t Index, uint64_t FirstSeq);

/// The extra fields a LogSegmentVersion header carries.
struct LogSegmentInfo {
  uint64_t Index = 0;    ///< 1-based position in the segment chain
  uint64_t FirstSeq = 0; ///< sequence number of the segment's first record
};

/// Consumes the file header if one is present at the reader position and
/// returns the stream's format version: the header's version when the
/// magic matches, 1 for headerless legacy streams (the reader position is
/// left untouched), or 0 when the magic is present but the header is
/// malformed or the version is newer than this build understands. A
/// LogSegmentVersion header's index/first-seq fields are stored into
/// \p Seg when non-null (and consumed either way).
uint32_t readLogHeader(ByteReader &R, LogSegmentInfo *Seg = nullptr);

/// Appends the kind-tagged encoding of \p V to \p W. This is the same
/// wire form ActionEncoder uses for argument/return slots; snapshot blobs
/// (Snapshot.h) reuse it for spec and shadow state.
void writeValue(ByteWriter &W, const Value &V);

/// Decodes one kind-tagged value at the reader position. Returns a null
/// Value on malformed input (check \p R.ok()).
Value readValue(ByteReader &R);

/// Growable byte sink with varint helpers.
class ByteWriter {
public:
  void u8(uint8_t B) { Buf.push_back(B); }
  void varint(uint64_t V);
  void svarint(int64_t V);
  void bytes(const void *Data, size_t Size);
  void str(std::string_view S);

  const std::vector<uint8_t> &buffer() const { return Buf; }
  void clear() { Buf.clear(); }
  size_t size() const { return Buf.size(); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked byte source. All reads report failure through ok(); once a
/// read fails the reader stays failed.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size)
      : Data(Data), Size(Size), Pos(0), Ok(true) {}

  bool ok() const { return Ok; }
  bool atEnd() const { return Pos >= Size; }
  size_t position() const { return Pos; }

  uint8_t u8();
  uint64_t varint();
  int64_t svarint();
  bool bytes(void *Out, size_t N);
  std::string str();

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos;
  bool Ok;
};

/// Serializes Actions into a byte stream, emitting name definitions on first
/// use. One instance per output file; not thread-safe (callers lock).
class ActionEncoder {
public:
  /// Appends the encoding of \p A to \p W. Batch consumers (BufferedLog's
  /// flusher) fill one buffer with a whole flush epoch of encodings and
  /// write it with a single file write.
  void encode(const Action &A, ByteWriter &W);

private:
  void encodeName(Name N, ByteWriter &W);
  void encodeValue(const Value &V, ByteWriter &W);

  std::unordered_map<uint32_t, uint32_t> FileIds; // Name id -> file-local id
  uint32_t NextFileId = 1;
};

/// Decodes Actions from a byte stream produced by ActionEncoder.
class ActionDecoder {
public:
  /// Selects the record layout to decode. Callers obtain the stream's
  /// version from readLogHeader(); the default is the current version.
  void setVersion(uint32_t V) { Version = V; }
  uint32_t version() const { return Version; }

  /// Decodes one Action starting at the reader position. Consumes any name
  /// definitions that precede it. Returns false on malformed input or clean
  /// end of stream (distinguish via \p R.atEnd()).
  bool decode(ByteReader &R, Action &Out);

  /// Streaming-reader support. A decode() that fails because the record
  /// is truncated at the end of a read window may already have consumed
  /// name definitions; since definitions must arrive with strictly
  /// sequential file-local ids, retrying the same bytes against the grown
  /// table would be rejected. Callers snapshot nameCount() before a
  /// speculative decode and truncateNames() back before the retry
  /// (re-interning the same strings is idempotent). See LogFileReader.
  size_t nameCount() const { return Names.size(); }
  void truncateNames(size_t N) {
    if (N < Names.size())
      Names.resize(N);
  }

private:
  Name decodeName(ByteReader &R);
  Value decodeValue(ByteReader &R);

  std::vector<Name> Names; // file-local id - 1 -> interned Name
  uint32_t Version = LogFormatVersion;
};

} // namespace vyrd

#endif // VYRD_SERIALIZE_H
