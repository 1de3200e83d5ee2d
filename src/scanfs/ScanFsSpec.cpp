//===- ScanFsSpec.cpp - Atomic spec + replayer for MiniScan ---------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "scanfs/ScanFsSpec.h"

#include <cassert>

using namespace vyrd;
using namespace vyrd::scanfs;

//===----------------------------------------------------------------------===//
// ScanFsSpec
//===----------------------------------------------------------------------===//

ScanFsSpec::ScanFsSpec(uint32_t MaxFiles)
    : V(FsVocab::get()), MaxFiles(MaxFiles) {}

bool ScanFsSpec::isObserver(Name Method) const {
  return Method == V.Read || Method == V.List;
}

bool ScanFsSpec::applyMutator(Name Method, const ValueList &Args,
                              const Value &Ret, View &ViewS) {
  if (Method == V.Sync) {
    // Cache maintenance: no abstract change; any count is fine.
    return Ret.isInt();
  }
  if (!Ret.isBool())
    return false;
  bool Success = Ret.asBool();
  if (Args.empty() || !Args[0].isStr())
    return false;
  const Value &Name = Args[0];

  if (Method == V.Create) {
    if (Args.size() != 1)
      return false;
    if (!Success)
      return true; // exists or no free inode: always permitted
    if (Files.count(Name) || Files.size() >= MaxFiles)
      return false;
    auto It = Files.emplace(Name, bytesValue(nullptr, 0)).first;
    ViewS.add(Name, It->second);
    return true;
  }

  if (Method == V.Unlink) {
    if (Args.size() != 1)
      return false;
    auto It = Files.find(Name);
    if (!Success)
      return It == Files.end(); // unlink fails exactly when absent
    if (It == Files.end())
      return false;
    ViewS.remove(Name, It->second);
    Files.erase(It);
    return true;
  }

  if (Method == V.Write || Method == V.Append) {
    if (Args.size() != 2 || !Args[1].isBytes())
      return false;
    if (!Success)
      return true; // absent or over the size limit: permitted
    auto It = Files.find(Name);
    if (It == Files.end())
      return false;
    ViewS.remove(Name, It->second);
    if (Method == V.Write) {
      It->second = Args[1];
    } else {
      std::span<const uint8_t> Old = It->second.asBytes();
      std::span<const uint8_t> Arg = Args[1].asBytes();
      Bytes Joined(Old.begin(), Old.end());
      Joined.insert(Joined.end(), Arg.begin(), Arg.end());
      It->second = Value(Joined);
    }
    ViewS.add(Name, It->second);
    return true;
  }

  return false;
}

bool ScanFsSpec::returnAllowed(Name Method, const ValueList &Args,
                               const Value &Ret) const {
  if (Method == V.Read) {
    if (Args.size() != 1 || !Args[0].isStr())
      return false;
    auto It = Files.find(Args[0]);
    if (It == Files.end())
      return Ret.isNull();
    return Ret == It->second;
  }
  if (Method == V.List) {
    if (!Args.empty() || !Ret.isStr())
      return false;
    std::string Expect;
    for (const auto &[Name, Contents] : Files) {
      (void)Contents;
      if (!Expect.empty())
        Expect += '\n';
      Expect += Name.asStr();
    }
    return Ret.asStr() == Expect;
  }
  return false;
}

void ScanFsSpec::buildView(View &Out) const {
  Out.clear();
  for (const auto &[Name, Contents] : Files)
    Out.add(Name, Contents);
}

const Value *ScanFsSpec::contents(const std::string &Name) const {
  auto It = Files.find(Value(Name));
  return It == Files.end() ? nullptr : &It->second;
}

//===----------------------------------------------------------------------===//
// ScanFsReplayer
//===----------------------------------------------------------------------===//

ScanFsReplayer::ScanFsReplayer() : V(FsVocab::get()) {}

Value ScanFsReplayer::fileContents(uint32_t Idx) const {
  auto It = Inodes.find(Idx);
  if (It == Inodes.end() || !It->second.Used)
    return bytesValue(nullptr, 0);
  Bytes Buf;
  for (uint64_t BH : It->second.Blocks) {
    auto BIt = BlockData.find(BH);
    if (BIt != BlockData.end()) {
      std::span<const uint8_t> B = BIt->second.asBytes();
      Buf.insert(Buf.end(), B.begin(), B.end());
    }
  }
  Buf.resize(It->second.Size);
  return Value(Buf);
}

void ScanFsReplayer::showFile(const std::string &Name, uint32_t Idx,
                              View &ViewI) {
  auto [It, New] = Shown.try_emplace(Name);
  auto &[Key, Contents] = It->second;
  if (New)
    Key = Value(Name);
  else
    ViewI.remove(Key, Contents);
  Contents = fileContents(Idx);
  ViewI.add(Key, Contents);
}

void ScanFsReplayer::hideFile(const std::string &Name, View &ViewI) {
  if (auto It = Shown.find(Name); It != Shown.end()) {
    ViewI.remove(It->second.first, It->second.second);
    Shown.erase(It);
  }
}

void ScanFsReplayer::applyUpdate(const Action &A, View &ViewI) {
  assert(A.Kind == ActionKind::AK_ReplayOp &&
         "MiniScan logs coarse-grained replay ops only");

  if (A.Var == V.OpDir) {
    assert(A.Args.size() == 1 && A.Args[0].isBytes());
    Directory New;
    bool Ok = Directory::deserialize(A.Args[0].asBytes(), New);
    assert(Ok && "malformed directory record");
    (void)Ok;
    // Diff old vs new entries.
    for (const auto &[Name, Idx] : Dir.Entries) {
      auto It = New.Entries.find(Name);
      if (It == New.Entries.end()) {
        hideFile(Name, ViewI);
        InodeName.erase(Idx);
      }
    }
    for (const auto &[Name, Idx] : New.Entries) {
      auto It = Dir.Entries.find(Name);
      if (It == Dir.Entries.end() || It->second != Idx) {
        if (It != Dir.Entries.end())
          InodeName.erase(It->second);
        InodeName[Idx] = Name;
        showFile(Name, Idx, ViewI);
      }
    }
    Dir = std::move(New);
    return;
  }

  if (A.Var == V.OpInode) {
    assert(A.Args.size() == 2 && A.Args[0].isInt() && A.Args[1].isBytes());
    uint32_t Idx = static_cast<uint32_t>(A.Args[0].asInt());
    Inode New;
    bool Ok = Inode::deserialize(A.Args[1].asBytes(), New);
    assert(Ok && "malformed inode record");
    (void)Ok;
    auto It = Inodes.find(Idx);
    if (It != Inodes.end())
      for (uint64_t BH : It->second.Blocks)
        BlockOwner.erase(BH);
    for (uint64_t BH : New.Blocks)
      BlockOwner[BH] = Idx;
    Inodes[Idx] = std::move(New);
    auto NameIt = InodeName.find(Idx);
    if (NameIt != InodeName.end())
      showFile(NameIt->second, Idx, ViewI);
    return;
  }

  if (A.Var == V.OpBlock) {
    assert(A.Args.size() == 2 && A.Args[0].isInt() && A.Args[1].isBytes());
    uint64_t BH = static_cast<uint64_t>(A.Args[0].asInt());
    BlockData[BH] = A.Args[1];
    auto OwnerIt = BlockOwner.find(BH);
    if (OwnerIt != BlockOwner.end()) {
      auto NameIt = InodeName.find(OwnerIt->second);
      if (NameIt != InodeName.end())
        showFile(NameIt->second, OwnerIt->second, ViewI);
    }
    return;
  }

  assert(false && "unknown MiniScan replay op");
}

void ScanFsReplayer::buildView(View &Out) const {
  Out.clear();
  for (const auto &[Name, Idx] : Dir.Entries)
    Out.add(Value(Name), fileContents(Idx));
}

bool ScanFsReplayer::checkInvariants(std::string &Message) const {
  std::unordered_map<uint32_t, const std::string *> Seen;
  for (const auto &[Name, Idx] : Dir.Entries) {
    auto It = Inodes.find(Idx);
    if (It == Inodes.end() || !It->second.Used) {
      Message = "fs invariant violated: directory entry '" + Name +
                "' points to unused inode " + std::to_string(Idx);
      return false;
    }
    auto [SeenIt, Inserted] = Seen.emplace(Idx, &Name);
    if (!Inserted) {
      Message = "fs invariant violated: inode " + std::to_string(Idx) +
                " shared by '" + *SeenIt->second + "' and '" + Name + "'";
      return false;
    }
  }
  return true;
}
