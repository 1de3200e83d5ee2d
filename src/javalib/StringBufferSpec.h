//===- StringBufferSpec.h - Atomic spec + replayer for buffers --*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Specification (a family of atomic strings) and replayer (shadow strings
/// reconstructed from `sb.append` / `sb.setlen` replay records) for the
/// StringBufferSystem model. The view holds one (buffer index, contents)
/// entry per buffer.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_JAVALIB_STRINGBUFFERSPEC_H
#define VYRD_JAVALIB_STRINGBUFFERSPEC_H

#include "javalib/StringBufferSystem.h"
#include "vyrd/Replayer.h"
#include "vyrd/Spec.h"

namespace vyrd {
namespace javalib {

/// Specification state: one string per buffer.
class StringBufferSpec : public Spec {
public:
  explicit StringBufferSpec(size_t NumBuffers);

  bool isObserver(Name Method) const override;
  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &ViewS) override;
  bool returnAllowed(Name Method, const ValueList &Args,
                     const Value &Ret) const override;
  void buildView(View &Out) const override;
  bool saveState(ByteWriter &W) const override;
  bool loadState(ByteReader &R) override;

  std::string_view contents(size_t I) const { return S[I].asStr(); }

private:
  SbVocab V;
  std::vector<Value> S;
};

/// Shadow state: one string per buffer, from replay records.
class StringBufferReplayer : public Replayer {
public:
  explicit StringBufferReplayer(size_t NumBuffers);

  void applyUpdate(const Action &A, View &ViewI) override;
  void buildView(View &Out) const override;
  bool saveState(ByteWriter &W) const override;
  bool loadState(ByteReader &R) override;

private:
  SbVocab V;
  std::vector<Value> Shadow;
};

} // namespace javalib
} // namespace vyrd

#endif // VYRD_JAVALIB_STRINGBUFFERSPEC_H
