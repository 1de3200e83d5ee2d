//===- ScanFs.cpp - A Scan-like write-optimized file system ---------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "scanfs/ScanFs.h"

#include "vyrd/Serialize.h"

#include <cassert>

using namespace vyrd;
using namespace vyrd::scanfs;

FsVocab FsVocab::get() {
  FsVocab V;
  V.Create = internName("FsCreate");
  V.Unlink = internName("FsUnlink");
  V.Write = internName("FsWrite");
  V.Append = internName("FsAppend");
  V.Read = internName("FsRead");
  V.List = internName("FsList");
  V.Sync = internName("FsSync");
  V.OpDir = internName("fs.dir");
  V.OpInode = internName("fs.inode");
  V.OpBlock = internName("fs.block");
  return V;
}

//===----------------------------------------------------------------------===//
// On-disk images
//===----------------------------------------------------------------------===//

Bytes Inode::serialize() const {
  ByteWriter W;
  W.u8(Used ? 1 : 0);
  W.varint(Size);
  W.varint(Blocks.size());
  for (uint64_t B : Blocks)
    W.varint(B);
  return W.buffer();
}

bool Inode::deserialize(std::span<const uint8_t> B, Inode &Out) {
  ByteReader R(B.data(), B.size());
  Out.Used = R.u8() != 0;
  Out.Size = R.varint();
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 16))
    return false;
  Out.Blocks.clear();
  for (uint64_t I = 0; I < N; ++I)
    Out.Blocks.push_back(R.varint());
  return R.ok();
}

Bytes Directory::serialize() const {
  ByteWriter W;
  W.varint(Entries.size());
  for (const auto &[Name, Idx] : Entries) {
    W.str(Name);
    W.varint(Idx);
  }
  return W.buffer();
}

bool Directory::deserialize(std::span<const uint8_t> B, Directory &Out) {
  ByteReader R(B.data(), B.size());
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 16))
    return false;
  Out.Entries.clear();
  for (uint64_t I = 0; I < N; ++I) {
    std::string Name = R.str();
    uint32_t Idx = static_cast<uint32_t>(R.varint());
    if (!R.ok())
      return false;
    Out.Entries.emplace(std::move(Name), Idx);
  }
  return R.ok();
}

//===----------------------------------------------------------------------===//
// ScanFsImpl
//===----------------------------------------------------------------------===//

ScanFsImpl::ScanFsImpl(cache::BoxCache &Cache, chunk::ChunkManager &CM,
                       const Options &Opts, AutoContext &Ctx)
    : Cache(Cache), CM(CM), Opts(Opts), Ctx(Ctx), V(FsVocab::get()),
      DirLock(Ctx) {
  // Lay out the volume: one directory chunk + MaxFiles inode chunks.
  DirHandle = CM.allocate();
  writeDir(Directory(), /*CommitHere=*/false);
  InodeHandles.reserve(Opts.MaxFiles);
  InodeLocks.reserve(Opts.MaxFiles);
  for (uint32_t I = 0; I < Opts.MaxFiles; ++I) {
    InodeHandles.push_back(CM.allocate());
    InodeLocks.push_back(std::make_unique<Mutex>(Ctx));
    writeInode(I, Inode(), /*CommitHere=*/false);
  }
}

Directory ScanFsImpl::readDir() {
  Bytes B;
  bool Ok = Cache.read(DirHandle, B);
  assert(Ok && "directory chunk missing");
  (void)Ok;
  Directory D;
  Ok = Directory::deserialize(B, D);
  assert(Ok && "malformed directory chunk");
  return D;
}

void ScanFsImpl::writeDir(const Directory &D, bool CommitHere) {
  Bytes B = D.serialize();
  Cache.write(DirHandle, B);
  Ctx.replayOp(V.OpDir, {Value(B)});
  if (CommitHere)
    Ctx.commit();
}

Inode ScanFsImpl::readInode(uint32_t Idx) {
  Bytes B;
  bool Ok = Cache.read(InodeHandles[Idx], B);
  assert(Ok && "inode chunk missing");
  (void)Ok;
  Inode Ino;
  Ok = Inode::deserialize(B, Ino);
  assert(Ok && "malformed inode chunk");
  return Ino;
}

void ScanFsImpl::writeInode(uint32_t Idx, const Inode &Ino, bool CommitHere) {
  Bytes B = Ino.serialize();
  Cache.write(InodeHandles[Idx], B);
  Ctx.replayOp(V.OpInode, {Value(Idx), Value(B)});
  if (CommitHere)
    Ctx.commit();
}

Bytes ScanFsImpl::readBlock(uint64_t Handle) {
  Bytes B;
  if (!Cache.read(Handle, B))
    return Bytes();
  return B;
}

void ScanFsImpl::writeBlock(uint64_t Handle, const Bytes &B) {
  Cache.write(Handle, B);
  Ctx.replayOp(V.OpBlock, {Value(static_cast<int64_t>(Handle)), Value(B)});
}

std::vector<uint64_t> ScanFsImpl::allocBlocks(const Bytes &Data,
                                              std::vector<Bytes> &Chunks) {
  std::vector<uint64_t> Handles;
  for (size_t Off = 0; Off < Data.size(); Off += Opts.BlockSize) {
    size_t Len = Data.size() - Off;
    if (Len > Opts.BlockSize)
      Len = Opts.BlockSize;
    Chunks.emplace_back(Data.begin() + Off, Data.begin() + Off + Len);
    Handles.push_back(CM.allocate());
  }
  return Handles;
}

bool ScanFsImpl::create(const std::string &Name) {
  LockGuard Dir(DirLock);
  Directory D = readDir();
  if (D.Entries.count(Name))
    return false; // name exists; always permitted, auto-commit
  // Find a free inode (the directory lock serializes allocation).
  uint32_t Idx = Opts.MaxFiles;
  for (uint32_t I = 0; I < Opts.MaxFiles; ++I) {
    if (!readInode(I).Used) {
      Idx = I;
      break;
    }
  }
  if (Idx == Opts.MaxFiles)
    return false; // no free inode; auto-commit
  LockGuard Ino(*InodeLocks[Idx]);
  Inode NewIno;
  NewIno.Used = true;
  writeInode(Idx, NewIno, /*CommitHere=*/false);
  D.Entries.emplace(Name, Idx);
  writeDir(D, /*CommitHere=*/true); // visibility: the directory entry
  return true;
}

bool ScanFsImpl::unlink(const std::string &Name) {
  LockGuard Dir(DirLock);
  Directory D = readDir();
  auto It = D.Entries.find(Name);
  if (It == D.Entries.end()) {
    // A false return is only legal while the name is actually absent, so
    // the failure commits under the directory lock.
    Ctx.commit();
    return false;
  }
  uint32_t Idx = It->second;
  LockGuard Ino(*InodeLocks[Idx]);
  D.Entries.erase(It);
  writeDir(D, /*CommitHere=*/true); // visibility: entry removal
  writeInode(Idx, Inode(), /*CommitHere=*/false); // free the inode
  // (Old data blocks are orphaned: write-optimized layouts reclaim them
  // with a background scan; we simply never reuse them.)
  return true;
}

bool ScanFsImpl::rewriteFile(const std::string &FileName,
                             const Bytes &NewContents) {
  if (NewContents.size() >
      static_cast<size_t>(Opts.MaxBlocksPerFile) * Opts.BlockSize)
    return false; // too large; always permitted, auto-commit

  // Resolve under the directory lock, then hold the inode lock
  // (dir -> inode order, shared with all paths).
  UniqueLock Dir(DirLock);
  Directory D = readDir();
  auto It = D.Entries.find(FileName);
  if (It == D.Entries.end())
    return false; // absent; always permitted, auto-commit
  uint32_t Idx = It->second;
  UniqueLock Ino(*InodeLocks[Idx]);
  Dir.unlock();

  std::vector<Bytes> Chunks;
  std::vector<uint64_t> Handles = allocBlocks(NewContents, Chunks);
  Inode NewIno;
  NewIno.Used = true;
  NewIno.Size = NewContents.size();
  NewIno.Blocks = Handles;

  if (Opts.BuggyEagerInodePublish) {
    // BUG: publish the metadata first, then write the data blocks after
    // releasing the inode lock. A concurrent read resolves the new inode
    // and finds the fresh blocks empty (or half-written).
    writeInode(Idx, NewIno, /*CommitHere=*/true);
    Ino.unlock();
    Chaos::point();
    for (size_t I = 0; I < Handles.size(); ++I) {
      writeBlock(Handles[I], Chunks[I]);
      Chaos::point();
    }
    return true;
  }

  // Correct order: data blocks first, inode last, all under the inode
  // lock in one commit bracket; the inode write is the commit point.
  for (size_t I = 0; I < Handles.size(); ++I)
    writeBlock(Handles[I], Chunks[I]);
  writeInode(Idx, NewIno, /*CommitHere=*/true);
  Ino.unlock();
  return true;
}

bool ScanFsImpl::write(const std::string &Name, const Bytes &Data) {
  return rewriteFile(Name, Data);
}

bool ScanFsImpl::append(const std::string &Name, const Bytes &Data) {
  // Snapshot the current contents under the locks, then rewrite.
  Bytes NewContents;
  bool Ok = false;
  {
    UniqueLock Dir(DirLock);
    Directory D = readDir();
    auto It = D.Entries.find(Name);
    if (It != D.Entries.end()) {
      uint32_t Idx = It->second;
      UniqueLock Ino(*InodeLocks[Idx]);
      Dir.unlock();
      Inode Cur = readInode(Idx);
      for (uint64_t BH : Cur.Blocks) {
        Bytes Chunk = readBlock(BH);
        NewContents.insert(NewContents.end(), Chunk.begin(), Chunk.end());
      }
      NewContents.resize(Cur.Size);
      NewContents.insert(NewContents.end(), Data.begin(), Data.end());
      if (NewContents.size() <=
          static_cast<size_t>(Opts.MaxBlocksPerFile) * Opts.BlockSize) {
        std::vector<Bytes> Chunks;
        std::vector<uint64_t> Handles = allocBlocks(NewContents, Chunks);
        Inode NewIno;
        NewIno.Used = true;
        NewIno.Size = NewContents.size();
        NewIno.Blocks = Handles;
        if (Opts.BuggyEagerInodePublish) {
          writeInode(Idx, NewIno, /*CommitHere=*/true);
          Ino.unlock();
          Chaos::point();
          for (size_t I = 0; I < Handles.size(); ++I) {
            writeBlock(Handles[I], Chunks[I]);
            Chaos::point();
          }
        } else {
          for (size_t I = 0; I < Handles.size(); ++I)
            writeBlock(Handles[I], Chunks[I]);
          writeInode(Idx, NewIno, /*CommitHere=*/true);
        }
        Ok = true;
      }
    }
  }
  // Failure paths leave the state unchanged and are always permitted;
  // the auto layer commits them.
  return Ok;
}

Value ScanFsImpl::read(const std::string &Name) {
  UniqueLock Dir(DirLock);
  Directory D = readDir();
  auto It = D.Entries.find(Name);
  if (It == D.Entries.end())
    return Value();
  uint32_t Idx = It->second;
  UniqueLock Ino(*InodeLocks[Idx]);
  Dir.unlock();
  Inode Cur = readInode(Idx);
  Bytes Contents;
  for (uint64_t BH : Cur.Blocks) {
    Bytes Chunk = readBlock(BH);
    Contents.insert(Contents.end(), Chunk.begin(), Chunk.end());
  }
  Contents.resize(Cur.Size);
  return Value(std::move(Contents));
}

std::string ScanFsImpl::list() {
  std::string Out;
  LockGuard Dir(DirLock);
  Directory D = readDir();
  for (const auto &[Name, Idx] : D.Entries) {
    (void)Idx;
    if (!Out.empty())
      Out += '\n';
    Out += Name;
  }
  return Out;
}

int64_t ScanFsImpl::sync() {
  // Cache maintenance: the spec accepts any count; auto-commit suffices.
  return static_cast<int64_t>(Cache.flush());
}
