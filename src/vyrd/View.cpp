//===- View.cpp - Canonical abstract-state views --------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/View.h"

#include <cassert>

using namespace vyrd;

/// Second, independent mix so that the two accumulators do not cancel the
/// same way (splitmix64 finalizer with a different seed path).
static uint64_t remix(uint64_t X) {
  X ^= 0xc2b2ae3d27d4eb4fULL;
  X = (X ^ (X >> 29)) * 0xff51afd7ed558ccdULL;
  X = (X ^ (X >> 32)) * 0xc4ceb9fe1a85ec53ULL;
  return X ^ (X >> 29);
}

static uint64_t entryHash(const Value &Key, const Value &Val) {
  // Combine key and value hashes asymmetrically.
  return remix(Key.hash() * 0x9e3779b97f4a7c15ULL + Val.hash());
}

View View::digestOnly(const View &Seed) {
  View V;
  V.Total = Seed.Total;
  V.H1 = Seed.H1;
  V.H2 = Seed.H2;
  V.Materialised = false;
  return V;
}

void View::add(const Value &Key, const Value &Val) {
  if (Materialised)
    ++Entries[ViewEntry{Key, Val}];
  uint64_t H = entryHash(Key, Val);
  H1 += H;
  H2 += remix(H);
  ++Total;
}

bool View::remove(const Value &Key, const Value &Val) {
  if (Materialised) {
    auto It = Entries.find(ViewEntry{Key, Val});
    if (It == Entries.end())
      return false;
    if (--It->second == 0)
      Entries.erase(It);
  }
  uint64_t H = entryHash(Key, Val);
  H1 -= H;
  H2 -= remix(H);
  --Total;
  return true;
}

void View::clear() {
  Entries.clear();
  Total = 0;
  H1 = 0;
  H2 = 0;
}

std::string View::str(size_t MaxEntries) const {
  std::string Out = "{";
  size_t Shown = 0;
  for (const auto &[E, C] : Entries) {
    if (Shown == MaxEntries) {
      Out += ", ...";
      break;
    }
    if (Shown)
      Out += ", ";
    Out += E.Key.str() + "->" + E.Val.str();
    if (C > 1)
      Out += " x" + std::to_string(C);
    ++Shown;
  }
  Out += "} (" + std::to_string(Total) + " entries)";
  return Out;
}

std::string View::diff(const View &L, const View &R, size_t MaxEntries) {
  std::string OnlyL, OnlyR;
  size_t NL = 0, NR = 0;
  auto IL = L.Entries.begin(), EL = L.Entries.end();
  auto IR = R.Entries.begin(), ER = R.Entries.end();
  auto Note = [](std::string &S, size_t &N, const ViewEntry &E, size_t C,
                 size_t Max) {
    if (N < Max) {
      if (!S.empty())
        S += ", ";
      S += E.Key.str() + "->" + E.Val.str();
      if (C > 1)
        S += " x" + std::to_string(C);
    }
    ++N;
  };
  while (IL != EL || IR != ER) {
    if (IR == ER || (IL != EL && IL->first < IR->first)) {
      Note(OnlyL, NL, IL->first, IL->second, MaxEntries);
      ++IL;
    } else if (IL == EL || IR->first < IL->first) {
      Note(OnlyR, NR, IR->first, IR->second, MaxEntries);
      ++IR;
    } else {
      if (IL->second != IR->second) {
        Note(OnlyL, NL, IL->first, IL->second, MaxEntries);
        Note(OnlyR, NR, IR->first, IR->second, MaxEntries);
      }
      ++IL;
      ++IR;
    }
  }
  std::string Out;
  if (NL) {
    Out += "only-left(" + std::to_string(NL) + "): {" + OnlyL;
    if (NL > MaxEntries)
      Out += ", ...";
    Out += "}";
  }
  if (NR) {
    if (!Out.empty())
      Out += " ";
    Out += "only-right(" + std::to_string(NR) + "): {" + OnlyR;
    if (NR > MaxEntries)
      Out += ", ...";
    Out += "}";
  }
  if (Out.empty())
    Out = "views identical";
  return Out;
}
