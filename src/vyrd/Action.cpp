//===- Action.cpp - Log records describing execution events --------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Action.h"

#include <cassert>

using namespace vyrd;

const char *vyrd::actionKindName(ActionKind K) {
  switch (K) {
  case ActionKind::AK_Call:
    return "call";
  case ActionKind::AK_Return:
    return "return";
  case ActionKind::AK_Commit:
    return "commit";
  case ActionKind::AK_Write:
    return "write";
  case ActionKind::AK_BlockBegin:
    return "block-begin";
  case ActionKind::AK_BlockEnd:
    return "block-end";
  case ActionKind::AK_ReplayOp:
    return "replay-op";
  }
  assert(false && "unknown ActionKind");
  return "?";
}

std::string Action::str() const {
  std::string Out = "#"; // not "#" + ...: a GCC 12 -Wrestrict false positive
  Out += std::to_string(Seq) + " t" + std::to_string(Tid);
  // Only multi-object logs carry non-zero ids; keep single-object output
  // (and the golden strings in tests) unchanged.
  if (Obj != 0)
    Out += " o" + std::to_string(Obj);
  Out += " ";
  Out += actionKindName(Kind);
  switch (Kind) {
  case ActionKind::AK_Call: {
    Out += " ";
    Out += Method.str();
    Out += "(";
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Args[I].str();
    }
    Out += ")";
    break;
  }
  case ActionKind::AK_Return:
    Out += " ";
    Out += Method.str();
    Out += " -> " + Ret.str();
    break;
  case ActionKind::AK_Commit:
  case ActionKind::AK_BlockBegin:
  case ActionKind::AK_BlockEnd:
    break;
  case ActionKind::AK_Write:
    Out += " ";
    Out += Var.str();
    Out += " := " + Ret.str();
    break;
  case ActionKind::AK_ReplayOp: {
    Out += " ";
    Out += Var.str();
    Out += "[";
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Args[I].str();
    }
    Out += "]";
    break;
  }
  }
  return Out;
}
