//===- StringBufferSpec.cpp - Atomic spec + replayer for buffers ----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "javalib/StringBufferSpec.h"

#include "vyrd/Serialize.h"

#include <cassert>

using namespace vyrd;
using namespace vyrd::javalib;

//===----------------------------------------------------------------------===//
// StringBufferSpec
//===----------------------------------------------------------------------===//

namespace {

/// Replaces buffer \p Key's contents \p Buf with \p New, view included.
void setBuf(const Value &Key, Value &Buf, Value New, View &V) {
  V.remove(Key, Buf);
  Buf = std::move(New);
  V.add(Key, Buf);
}

} // namespace

StringBufferSpec::StringBufferSpec(size_t NumBuffers)
    : V(SbVocab::get()), S(NumBuffers, Value(std::string_view())) {}

bool StringBufferSpec::isObserver(Name Method) const {
  return Method == V.ToString || Method == V.Length;
}

bool StringBufferSpec::applyMutator(Name Method, const ValueList &Args,
                                    const Value &Ret, View &ViewS) {
  if (!Ret.isBool() || !Ret.asBool())
    return false; // all buffer mutators report success
  if (Args.empty() || !Args[0].isInt())
    return false;
  size_t I = static_cast<size_t>(Args[0].asInt());
  if (I >= S.size())
    return false;

  if (Method == V.Append) {
    if (Args.size() != 2 || !Args[1].isStr())
      return false;
    setBuf(Args[0], S[I],
           Value(std::string(S[I].asStr()).append(Args[1].asStr())), ViewS);
    return true;
  }

  if (Method == V.AppendBuffer) {
    if (Args.size() != 2 || !Args[1].isInt())
      return false;
    size_t Src = static_cast<size_t>(Args[1].asInt());
    if (Src >= S.size())
      return false;
    // Atomic semantics: append src's *current* abstract contents.
    setBuf(Args[0], S[I],
           Value(std::string(S[I].asStr()).append(S[Src].asStr())), ViewS);
    return true;
  }

  if (Method == V.SetLength) {
    if (Args.size() != 2 || !Args[1].isInt())
      return false;
    size_t N = static_cast<size_t>(Args[1].asInt());
    if (N < S[I].asStr().size())
      setBuf(Args[0], S[I], Value(S[I].asStr().substr(0, N)), ViewS);
    return true;
  }

  return false;
}

bool StringBufferSpec::returnAllowed(Name Method, const ValueList &Args,
                                     const Value &Ret) const {
  if (Args.size() != 1 || !Args[0].isInt())
    return false;
  size_t I = static_cast<size_t>(Args[0].asInt());
  if (I >= S.size())
    return false;

  if (Method == V.ToString)
    return Ret == S[I];
  if (Method == V.Length)
    return Ret.isInt() &&
           Ret.asInt() == static_cast<int64_t>(S[I].asStr().size());
  return false;
}

void StringBufferSpec::buildView(View &Out) const {
  Out.clear();
  for (size_t I = 0; I < S.size(); ++I)
    Out.add(Value(static_cast<int64_t>(I)), S[I]);
}

//===----------------------------------------------------------------------===//
// StringBufferReplayer
//===----------------------------------------------------------------------===//

StringBufferReplayer::StringBufferReplayer(size_t NumBuffers)
    : V(SbVocab::get()), Shadow(NumBuffers, Value(std::string_view())) {}

void StringBufferReplayer::applyUpdate(const Action &A, View &ViewI) {
  assert(A.Kind == ActionKind::AK_ReplayOp &&
         "string buffers log coarse-grained replay ops only");
  assert(A.Args.size() == 2 && A.Args[0].isInt());
  size_t I = static_cast<size_t>(A.Args[0].asInt());
  assert(I < Shadow.size());

  std::string_view Old = Shadow[I].asStr();
  if (A.Var == V.OpAppend) {
    setBuf(A.Args[0], Shadow[I],
           Value(std::string(Old).append(A.Args[1].asStr())), ViewI);
  } else if (A.Var == V.OpSetLen) {
    setBuf(A.Args[0], Shadow[I],
           Value(Old.substr(0, static_cast<size_t>(A.Args[1].asInt()))),
           ViewI);
  } else {
    assert(false && "unknown string-buffer replay op");
  }
}

void StringBufferReplayer::buildView(View &Out) const {
  Out.clear();
  for (size_t I = 0; I < Shadow.size(); ++I)
    Out.add(Value(static_cast<int64_t>(I)), Shadow[I]);
}

namespace {

bool saveStrings(ByteWriter &W, const std::vector<Value> &V) {
  W.varint(V.size());
  for (const Value &S : V)
    W.str(S.asStr());
  return true;
}

bool loadStrings(ByteReader &R, std::vector<Value> &V) {
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 20))
    return false;
  V.clear();
  for (uint64_t I = 0; I < N; ++I)
    V.push_back(Value(R.str()));
  return R.ok();
}

} // namespace

bool StringBufferSpec::saveState(ByteWriter &W) const {
  return saveStrings(W, S);
}

bool StringBufferSpec::loadState(ByteReader &R) { return loadStrings(R, S); }

bool StringBufferReplayer::saveState(ByteWriter &W) const {
  return saveStrings(W, Shadow);
}

bool StringBufferReplayer::loadState(ByteReader &R) {
  return loadStrings(R, Shadow);
}
