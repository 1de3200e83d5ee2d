//===- ScanFsSpec.h - Atomic spec + replayer for MiniScan -------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Specification (an atomic map name -> contents) and replayer (shadow
/// directory / inodes / blocks reconstructed from `fs.*` replay records)
/// for the MiniScan file system. The view holds one (name, contents)
/// entry per file. The replayer additionally checks two file-system
/// invariants at every commit: every directory entry points to a used
/// inode, and no two entries share an inode.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_SCANFS_SCANFSSPEC_H
#define VYRD_SCANFS_SCANFSSPEC_H

#include "scanfs/ScanFs.h"
#include "vyrd/Replayer.h"
#include "vyrd/Spec.h"

#include <unordered_map>

namespace vyrd {
namespace scanfs {

/// Specification state: name -> file contents.
class ScanFsSpec : public Spec {
public:
  explicit ScanFsSpec(uint32_t MaxFiles);

  bool isObserver(Name Method) const override;
  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &ViewS) override;
  bool returnAllowed(Name Method, const ValueList &Args,
                     const Value &Ret) const override;
  void buildView(View &Out) const override;

  const Value *contents(const std::string &Name) const;

private:
  FsVocab V;
  uint32_t MaxFiles;
  /// Name -> contents, keyed by the string Values the calls carried: they
  /// are the view keys. Value orders strings as std::string does.
  std::map<Value, Value> Files;
};

/// Shadow state from fs.dir / fs.inode / fs.block records.
class ScanFsReplayer : public Replayer {
public:
  ScanFsReplayer();

  void applyUpdate(const Action &A, View &ViewI) override;
  void buildView(View &Out) const override;
  bool checkInvariants(std::string &Message) const override;

private:
  /// Current contents of the file stored in inode \p Idx.
  Value fileContents(uint32_t Idx) const;
  /// Replaces the view entry for the file named \p Name (inode \p Idx).
  void showFile(const std::string &Name, uint32_t Idx, View &ViewI);
  /// Removes the view entry last shown for \p Name, if any.
  void hideFile(const std::string &Name, View &ViewI);

  FsVocab V;
  Directory Dir;
  std::unordered_map<uint32_t, Inode> Inodes;
  std::unordered_map<uint64_t, Value> BlockData;
  /// Reverse index: inode -> name (unique by invariant).
  std::unordered_map<uint32_t, std::string> InodeName;
  /// Reverse index: block handle -> inode referencing it.
  std::unordered_map<uint64_t, uint32_t> BlockOwner;
  /// View entry (key, value) last added per name: what a removal must
  /// remove. The key is built once, when the name enters the view.
  std::unordered_map<std::string, std::pair<Value, Value>> Shown;
};

} // namespace scanfs
} // namespace vyrd

#endif // VYRD_SCANFS_SCANFSSPEC_H
