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

StringBufferSpec::StringBufferSpec(size_t NumBuffers)
    : V(SbVocab::get()), S(NumBuffers) {}

bool StringBufferSpec::isObserver(Name Method) const {
  return Method == V.ToString || Method == V.Length;
}

void StringBufferSpec::setBuf(size_t I, std::string NewVal, View &ViewS) {
  ViewS.remove(Value(static_cast<int64_t>(I)), Value(S[I]));
  S[I] = std::move(NewVal);
  ViewS.add(Value(static_cast<int64_t>(I)), Value(S[I]));
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
    setBuf(I, S[I] + std::string(Args[1].asStr()), ViewS);
    return true;
  }

  if (Method == V.AppendBuffer) {
    if (Args.size() != 2 || !Args[1].isInt())
      return false;
    size_t Src = static_cast<size_t>(Args[1].asInt());
    if (Src >= S.size())
      return false;
    // Atomic semantics: append src's *current* abstract contents.
    setBuf(I, S[I] + S[Src], ViewS);
    return true;
  }

  if (Method == V.SetLength) {
    if (Args.size() != 2 || !Args[1].isInt())
      return false;
    size_t N = static_cast<size_t>(Args[1].asInt());
    if (N < S[I].size())
      setBuf(I, S[I].substr(0, N), ViewS);
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
    return Ret.isStr() && Ret.asStr() == S[I];
  if (Method == V.Length)
    return Ret.isInt() && Ret.asInt() == static_cast<int64_t>(S[I].size());
  return false;
}

void StringBufferSpec::buildView(View &Out) const {
  Out.clear();
  for (size_t I = 0; I < S.size(); ++I)
    Out.add(Value(static_cast<int64_t>(I)), Value(S[I]));
}

//===----------------------------------------------------------------------===//
// StringBufferReplayer
//===----------------------------------------------------------------------===//

StringBufferReplayer::StringBufferReplayer(size_t NumBuffers)
    : V(SbVocab::get()), Shadow(NumBuffers) {}

void StringBufferReplayer::applyUpdate(const Action &A, View &ViewI) {
  assert(A.Kind == ActionKind::AK_ReplayOp &&
         "string buffers log coarse-grained replay ops only");
  assert(A.Args.size() == 2 && A.Args[0].isInt());
  size_t I = static_cast<size_t>(A.Args[0].asInt());
  assert(I < Shadow.size());

  std::string NewVal;
  if (A.Var == V.OpAppend) {
    NewVal = Shadow[I];
    NewVal += A.Args[1].asStr();
  } else if (A.Var == V.OpSetLen) {
    NewVal = Shadow[I].substr(
        0, static_cast<size_t>(A.Args[1].asInt()));
  } else {
    assert(false && "unknown string-buffer replay op");
    return;
  }
  ViewI.remove(Value(static_cast<int64_t>(I)), Value(Shadow[I]));
  Shadow[I] = std::move(NewVal);
  ViewI.add(Value(static_cast<int64_t>(I)), Value(Shadow[I]));
}

void StringBufferReplayer::buildView(View &Out) const {
  Out.clear();
  for (size_t I = 0; I < Shadow.size(); ++I)
    Out.add(Value(static_cast<int64_t>(I)), Value(Shadow[I]));
}

namespace {

bool saveStrings(ByteWriter &W, const std::vector<std::string> &V) {
  W.varint(V.size());
  for (const std::string &S : V)
    W.str(S);
  return true;
}

bool loadStrings(ByteReader &R, std::vector<std::string> &V) {
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 20))
    return false;
  V.assign(N, std::string());
  for (uint64_t I = 0; I < N; ++I)
    V[I] = R.str();
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
