//===- Serialize.cpp - Binary encoding of log records ---------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Serialize.h"

#include <cassert>
#include <cstring>

using namespace vyrd;

//===----------------------------------------------------------------------===//
// ByteWriter
//===----------------------------------------------------------------------===//

void ByteWriter::varint(uint64_t V) {
  while (V >= 0x80) {
    Buf.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Buf.push_back(static_cast<uint8_t>(V));
}

void ByteWriter::svarint(int64_t V) {
  // Zigzag encoding.
  varint((static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63));
}

void ByteWriter::bytes(const void *Data, size_t Size) {
  const auto *P = static_cast<const uint8_t *>(Data);
  Buf.insert(Buf.end(), P, P + Size);
}

void ByteWriter::str(std::string_view S) {
  varint(S.size());
  bytes(S.data(), S.size());
}

//===----------------------------------------------------------------------===//
// ByteReader
//===----------------------------------------------------------------------===//

uint8_t ByteReader::u8() {
  if (Pos >= Size) {
    Ok = false;
    return 0;
  }
  return Data[Pos++];
}

uint64_t ByteReader::varint() {
  uint64_t V = 0;
  unsigned Shift = 0;
  while (true) {
    if (Pos >= Size || Shift > 63) {
      Ok = false;
      return 0;
    }
    uint8_t B = Data[Pos++];
    V |= static_cast<uint64_t>(B & 0x7F) << Shift;
    if (!(B & 0x80))
      return V;
    Shift += 7;
  }
}

int64_t ByteReader::svarint() {
  uint64_t Z = varint();
  return static_cast<int64_t>((Z >> 1) ^ (~(Z & 1) + 1));
}

bool ByteReader::bytes(void *Out, size_t N) {
  if (Pos + N > Size) {
    Ok = false;
    return false;
  }
  std::memcpy(Out, Data + Pos, N);
  Pos += N;
  return true;
}

std::span<const uint8_t> ByteReader::take(uint64_t N) {
  if (!Ok || N > Size - Pos) {
    Ok = false;
    return {};
  }
  std::span<const uint8_t> S(Data + Pos, N);
  Pos += N;
  return S;
}

std::string ByteReader::str() {
  std::span<const uint8_t> S = take(varint());
  return std::string(reinterpret_cast<const char *>(S.data()), S.size());
}

//===----------------------------------------------------------------------===//
// File header
//===----------------------------------------------------------------------===//

void vyrd::writeLogHeader(ByteWriter &W) {
  W.bytes(LogMagic, sizeof(LogMagic));
  W.varint(LogFormatVersion);
}

void vyrd::writeSegmentHeader(ByteWriter &W, uint64_t Index,
                              uint64_t FirstSeq) {
  W.bytes(LogMagic, sizeof(LogMagic));
  W.varint(LogSegmentVersion);
  W.varint(Index);
  W.varint(FirstSeq);
}

uint32_t vyrd::readLogHeader(ByteReader &R, LogSegmentInfo *Seg) {
  uint8_t Magic[4];
  ByteReader Probe = R;
  if (!Probe.bytes(Magic, sizeof(Magic)) ||
      std::memcmp(Magic, LogMagic, sizeof(LogMagic)) != 0)
    return 1; // Headerless legacy stream; leave R untouched.
  uint64_t Version = Probe.varint();
  if (!Probe.ok() || Version < 2 || Version > LogSegmentVersion)
    return 0;
  if (Version == LogSegmentVersion) {
    uint64_t Index = Probe.varint();
    uint64_t FirstSeq = Probe.varint();
    if (!Probe.ok())
      return 0;
    if (Seg) {
      Seg->Index = Index;
      Seg->FirstSeq = FirstSeq;
    }
  }
  R = Probe;
  return static_cast<uint32_t>(Version);
}

//===----------------------------------------------------------------------===//
// ActionEncoder
//===----------------------------------------------------------------------===//

static constexpr uint8_t NameDefTag = 0xFF;

void ActionEncoder::encodeName(Name N, ByteWriter &W) {
  if (!N.valid()) {
    W.varint(0);
    return;
  }
  auto It = FileIds.find(N.id());
  if (It != FileIds.end()) {
    W.varint(It->second);
    return;
  }
  // Names must be defined before the record that references them; the
  // caller (encode) reserves this by emitting definitions first. We handle
  // that by patching here: definitions are emitted inline *before* the
  // current record via a separate path, so encodeName is only reached for
  // already-defined names.
  assert(false && "encodeName on undefined name");
}

void vyrd::writeValue(ByteWriter &W, const Value &V) {
  W.u8(static_cast<uint8_t>(V.kind()));
  switch (V.kind()) {
  case ValueKind::VK_Null:
    break;
  case ValueKind::VK_Bool:
    W.u8(V.asBool() ? 1 : 0);
    break;
  case ValueKind::VK_Int:
    W.svarint(V.asInt());
    break;
  case ValueKind::VK_Str:
    W.str(V.asStr());
    break;
  case ValueKind::VK_Bytes: {
    std::span<const uint8_t> B = V.asBytes();
    W.varint(B.size());
    W.bytes(B.data(), B.size());
    break;
  }
  }
}

Value vyrd::readValue(ByteReader &R) {
  uint8_t Kind = R.u8();
  if (!R.ok())
    return Value();
  switch (static_cast<ValueKind>(Kind)) {
  case ValueKind::VK_Null:
    return Value();
  case ValueKind::VK_Bool:
    return Value(R.u8() != 0);
  case ValueKind::VK_Int:
    return Value(R.svarint());
  case ValueKind::VK_Str:
  case ValueKind::VK_Bytes: {
    // The payload is copied once, from the input straight into the
    // Value's blob.
    std::span<const uint8_t> P = R.take(R.varint());
    if (!R.ok())
      return Value();
    if (Kind == static_cast<uint8_t>(ValueKind::VK_Bytes))
      return bytesValue(P.data(), P.size());
    return Value(std::string_view(reinterpret_cast<const char *>(P.data()),
                                  P.size()));
  }
  }
  return Value();
}

void ActionEncoder::encodeValue(const Value &V, ByteWriter &W) {
  writeValue(W, V);
}

void ActionEncoder::encode(const Action &A, ByteWriter &W) {
  // Emit definitions for any names this record uses for the first time.
  for (Name N : {A.Method, A.Var}) {
    if (!N.valid() || FileIds.count(N.id()))
      continue;
    uint32_t FileId = NextFileId++;
    FileIds.emplace(N.id(), FileId);
    W.u8(NameDefTag);
    W.varint(FileId);
    W.str(N.str());
  }

  W.u8(static_cast<uint8_t>(A.Kind));
  W.varint(A.Tid);
  W.varint(A.Obj);
  W.varint(A.Seq);
  encodeName(A.Method, W);
  encodeName(A.Var, W);
  W.varint(A.Args.size());
  for (const Value &V : A.Args)
    encodeValue(V, W);
  encodeValue(A.Ret, W);
}

//===----------------------------------------------------------------------===//
// ActionDecoder
//===----------------------------------------------------------------------===//

Name ActionDecoder::decodeName(ByteReader &R) {
  uint64_t FileId = R.varint();
  if (!R.ok() || FileId == 0)
    return Name();
  if (FileId > Names.size()) {
    // Reference to an undefined name: malformed stream.
    return Name();
  }
  return Names[FileId - 1];
}

Value ActionDecoder::decodeValue(ByteReader &R) { return readValue(R); }

bool ActionDecoder::decode(ByteReader &R, Action &Out) {
  // Consume name definitions.
  while (true) {
    if (R.atEnd())
      return false;
    uint8_t Tag = R.u8();
    if (!R.ok())
      return false;
    if (Tag != NameDefTag) {
      if (Tag > static_cast<uint8_t>(ActionKind::AK_ReplayOp))
        return false;
      Out.Kind = static_cast<ActionKind>(Tag);
      break;
    }
    uint64_t FileId = R.varint();
    std::string S = R.str();
    if (!R.ok() || FileId != Names.size() + 1)
      return false;
    Names.push_back(internName(S));
  }

  Out.Tid = static_cast<ThreadId>(R.varint());
  // v1 predates the multi-object engine: no ObjectId on the wire, every
  // record belongs to the (single) object 0.
  Out.Obj = Version >= 2 ? static_cast<ObjectId>(R.varint()) : 0;
  Out.Seq = R.varint();
  Out.Method = decodeName(R);
  Out.Var = decodeName(R);
  uint64_t NArgs = R.varint();
  if (!R.ok() || NArgs > (1u << 20))
    return false;
  Out.Args.clear();
  Out.Args.reserve(NArgs);
  for (uint64_t I = 0; I < NArgs; ++I)
    Out.Args.push_back(decodeValue(R));
  if (Version >= 3) {
    Out.Ret = decodeValue(R);
  } else {
    // v1/v2 carried two value slots, (Ret, Val): the return value in the
    // first, the written value in the second, at most one non-null. Map
    // the pair onto the merged Action::Ret by record kind.
    Value LegacyRet = decodeValue(R);
    Value LegacyVal = decodeValue(R);
    Out.Ret = Out.Kind == ActionKind::AK_Write ? std::move(LegacyVal)
                                               : std::move(LegacyRet);
  }
  return R.ok();
}
