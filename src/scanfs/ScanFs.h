//===- ScanFs.h - A Scan-like write-optimized file system -------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniScan: a small write-optimized file system in the spirit of the
/// Scan file system the VYRD prototype was first applied to (Sec. 7.3,
/// [9,13]). A flat root directory maps names to inodes; inodes reference
/// data blocks; every structure lives in Chunk Manager blocks accessed
/// through the write-back cache. File rewrites always go to *fresh*
/// blocks (write-optimized, no in-place data overwrite); a Sync method
/// flushes the cache.
///
/// Locking: a directory lock orders name resolution; per-inode locks
/// protect file metadata and (in the correct variant) data-block writes;
/// lock order is directory -> inode. Readers take the same locks, so every
/// commit record is appended while the lock that makes it visible is
/// held. Both locks are `vyrd::Mutex` shims and the `ScanFs` facade
/// dispatches through `Instrumented<T>`; a dir -> inode hand-off is one
/// chained commit bracket. The coarse replay records (`fs.dir` /
/// `fs.inode` / `fs.block`) stay with the bespoke ScanFsReplayer, which
/// reconstructs files from the serialized images.
///
/// Injectable bug (the classic ordering bug of write-back file systems,
/// of the same family as the Scan cache bugs): WriteFile *publishes the
/// inode first* — new size and fresh block handles, commit — releases the
/// inode lock, and only then writes the data blocks, unlocked. A
/// concurrent read sees the new metadata with missing/stale data; view
/// refinement catches the divergence at the inode commit itself.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_SCANFS_SCANFS_H
#define VYRD_SCANFS_SCANFS_H

#include "cache/BoxCache.h"
#include "vyrd/Auto.h"

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace vyrd {
namespace scanfs {

using chunk::Bytes;

/// Interned method and replay-op names for MiniScan.
struct FsVocab {
  Name Create, Unlink, Write, Append, Read, List, Sync;
  Name OpDir, OpInode, OpBlock;
  static FsVocab get();
};

/// On-"disk" inode image.
struct Inode {
  bool Used = false;
  /// File size in bytes.
  uint64_t Size = 0;
  /// Data block handles, in order; together they cover Size bytes.
  std::vector<uint64_t> Blocks;

  Bytes serialize() const;
  static bool deserialize(std::span<const uint8_t> B, Inode &Out);
};

/// On-"disk" directory image: sorted name -> inode index.
struct Directory {
  std::map<std::string, uint32_t> Entries;

  Bytes serialize() const;
  static bool deserialize(std::span<const uint8_t> B, Directory &Out);
};

/// The uninstrumented file-system core (trailing-AutoContext protocol).
class ScanFsImpl {
public:
  struct Options {
    uint32_t MaxFiles = 32;
    uint32_t MaxBlocksPerFile = 8;
    uint32_t BlockSize = 64;
    /// Inject the metadata-before-data ordering bug in Write/Append.
    bool BuggyEagerInodePublish = false;
  };

  ScanFsImpl(cache::BoxCache &Cache, chunk::ChunkManager &CM,
             const Options &Opts, AutoContext &Ctx);

  ScanFsImpl(const ScanFsImpl &) = delete;
  ScanFsImpl &operator=(const ScanFsImpl &) = delete;

  /// Creates an empty file. \returns false when the name exists or no
  /// inode is free.
  bool create(const std::string &Name);

  /// Removes a file. \returns false when absent.
  bool unlink(const std::string &Name);

  /// Replaces a file's contents. \returns false when the file is absent
  /// or the data exceeds MaxBlocksPerFile * BlockSize.
  bool write(const std::string &Name, const Bytes &Data);

  /// Appends to a file (same failure conditions as write).
  bool append(const std::string &Name, const Bytes &Data);

  /// Observer: a file's contents, or null when absent.
  Value read(const std::string &Name);

  /// Observer: all file names, sorted, joined with '\n'.
  std::string list();

  /// Flushes the write-back cache to the chunk manager. \returns the
  /// number of blocks written back.
  int64_t sync();

  /// Handles of the directory and inode chunks, in layout order (the
  /// replayer is constructed from these).
  uint64_t dirHandle() const { return DirHandle; }
  std::vector<uint64_t> inodeHandles() const { return InodeHandles; }
  const Options &options() const { return Opts; }

private:
  Directory readDir();
  void writeDir(const Directory &D, bool CommitHere);
  Inode readInode(uint32_t Idx);
  void writeInode(uint32_t Idx, const Inode &Ino, bool CommitHere);
  Bytes readBlock(uint64_t Handle);
  void writeBlock(uint64_t Handle, const Bytes &B);
  /// Splits \p Data into fresh blocks and returns their handles.
  std::vector<uint64_t> allocBlocks(const Bytes &Data,
                                    std::vector<Bytes> &Chunks);
  /// Shared rewrite path for write/append.
  bool rewriteFile(const std::string &FileName, const Bytes &NewContents);

  cache::BoxCache &Cache;
  chunk::ChunkManager &CM;
  Options Opts;
  AutoContext &Ctx;
  FsVocab V;

  uint64_t DirHandle = 0;
  std::vector<uint64_t> InodeHandles;

  Mutex DirLock;
  std::vector<std::unique_ptr<Mutex>> InodeLocks;
};

} // namespace scanfs

template <> struct AutoMethods<scanfs::ScanFsImpl> {
  using F = scanfs::ScanFsImpl;
  static constexpr auto desc(MethodTag<&F::create>) {
    return method("FsCreate");
  }
  static constexpr auto desc(MethodTag<&F::unlink>) {
    return method("FsUnlink");
  }
  static constexpr auto desc(MethodTag<&F::write>) { return method("FsWrite"); }
  static constexpr auto desc(MethodTag<&F::append>) {
    return method("FsAppend");
  }
  static constexpr auto desc(MethodTag<&F::read>) { return observer("FsRead"); }
  static constexpr auto desc(MethodTag<&F::list>) { return observer("FsList"); }
  static constexpr auto desc(MethodTag<&F::sync>) { return method("FsSync"); }
};

namespace scanfs {

/// The instrumented file-system facade.
class ScanFs : public Instrumented<ScanFsImpl> {
public:
  using Options = ScanFsImpl::Options;

  ScanFs(cache::BoxCache &Cache, chunk::ChunkManager &CM, const Options &O,
         Hooks H)
      : Instrumented(H, Cache, CM, O) {}

  bool create(const std::string &Name) {
    return invoke<&ScanFsImpl::create>(Name);
  }
  bool unlink(const std::string &Name) {
    return invoke<&ScanFsImpl::unlink>(Name);
  }
  bool write(const std::string &Name, const Bytes &Data) {
    return invoke<&ScanFsImpl::write>(Name, Data);
  }
  bool append(const std::string &Name, const Bytes &Data) {
    return invoke<&ScanFsImpl::append>(Name, Data);
  }
  Value read(const std::string &Name) { return invoke<&ScanFsImpl::read>(Name); }
  std::string list() { return invoke<&ScanFsImpl::list>(); }
  int64_t sync() { return invoke<&ScanFsImpl::sync>(); }

  uint64_t dirHandle() const { return raw().dirHandle(); }
  std::vector<uint64_t> inodeHandles() const { return raw().inodeHandles(); }
  const Options &options() const { return raw().options(); }
};

} // namespace scanfs
} // namespace vyrd

#endif // VYRD_SCANFS_SCANFS_H
