//===- Scenarios.cpp - Canned verification scenarios ------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"

#include "blinktree/BLinkSpec.h"
#include "blinktree/BLinkTree.h"
#include "bst/BstMultiset.h"
#include "bst/BstReplayer.h"
#include "bst/BstSpec.h"
#include "cache/BoxCache.h"
#include "cache/CacheSpec.h"
#include "chunk/ChunkManager.h"
#include "javalib/StringBufferSpec.h"
#include "javalib/StringBufferSystem.h"
#include "javalib/SyncHashtable.h"
#include "javalib/HashtableSpec.h"
#include "javalib/SyncVector.h"
#include "javalib/VectorSpec.h"
#include "multiset/ArrayMultiset.h"
#include "multiset/MultisetSpec.h"
#include "queue/BoundedQueue.h"
#include "queue/QueueSpec.h"
#include "scanfs/ScanFs.h"
#include "scanfs/ScanFsSpec.h"

#include <cassert>
#include <iterator>

using namespace vyrd;
using namespace vyrd::harness;

bool vyrd::harness::modeChecks(RunMode M) {
  switch (M) {
  case RunMode::RM_OnlineIO:
  case RunMode::RM_OnlineView:
  case RunMode::RM_OfflineIO:
  case RunMode::RM_OfflineView:
    return true;
  case RunMode::RM_Bare:
  case RunMode::RM_LogOnlyIO:
  case RunMode::RM_LogOnlyView:
    return false;
  }
  return false;
}

bool vyrd::harness::modeLogs(RunMode M) { return M != RunMode::RM_Bare; }

const char *vyrd::harness::runModeName(RunMode M) {
  switch (M) {
  case RunMode::RM_Bare:
    return "bare";
  case RunMode::RM_LogOnlyIO:
    return "log-only-io";
  case RunMode::RM_LogOnlyView:
    return "log-only-view";
  case RunMode::RM_OnlineIO:
    return "online-io";
  case RunMode::RM_OnlineView:
    return "online-view";
  case RunMode::RM_OfflineIO:
    return "offline-io";
  case RunMode::RM_OfflineView:
    return "offline-view";
  }
  return "?";
}

const char *vyrd::harness::programName(Program P) {
  switch (P) {
  case Program::P_MultisetVector:
    return "Multiset-Vector";
  case Program::P_MultisetBst:
    return "Multiset-BinaryTree";
  case Program::P_Vector:
    return "java.util.Vector";
  case Program::P_StringBuffer:
    return "java.util.StringBuffer";
  case Program::P_BLinkTree:
    return "BLinkTree";
  case Program::P_Cache:
    return "Cache";
  case Program::P_ScanFs:
    return "MiniScan-FS";
  case Program::P_Hashtable:
    return "java.util.Hashtable";
  case Program::P_Queue:
    return "BoundedQueue";
  }
  return "?";
}

const char *vyrd::harness::programShipKey(Program P) {
  switch (P) {
  case Program::P_MultisetVector:
    return "multiset";
  case Program::P_MultisetBst:
    return "bst";
  case Program::P_Vector:
    return "vector";
  case Program::P_StringBuffer:
    return "stringbuffer";
  case Program::P_BLinkTree:
    return "blinktree";
  case Program::P_Cache:
    return "cache";
  case Program::P_ScanFs:
    return "scanfs";
  case Program::P_Hashtable:
    return "hashtable";
  case Program::P_Queue:
    return "queue";
  }
  return "?";
}

const char *vyrd::harness::programBugName(Program P) {
  switch (P) {
  case Program::P_MultisetVector:
    return "Moving acquire in FindSlot";
  case Program::P_MultisetBst:
    return "Unlocking parent before insertion";
  case Program::P_Vector:
    return "Taking length non-atomically in lastIndexOf()";
  case Program::P_StringBuffer:
    return "Copying from an unprotected StringBuffer";
  case Program::P_BLinkTree:
    return "Allowing duplicated data nodes";
  case Program::P_Cache:
    return "Writing an unprotected dirty cache entry";
  case Program::P_ScanFs:
    return "Publishing the inode before the data blocks";
  case Program::P_Hashtable:
    return "Check-then-act in putIfAbsent";
  case Program::P_Queue:
    return "Stale front snapshot across poll relock";
  }
  return "?";
}

std::vector<Program> vyrd::harness::allPrograms() {
  return {Program::P_MultisetVector, Program::P_MultisetBst,
          Program::P_Vector,         Program::P_StringBuffer,
          Program::P_BLinkTree,      Program::P_Cache};
}

std::vector<Program> vyrd::harness::extensionPrograms() {
  return {Program::P_ScanFs, Program::P_Hashtable, Program::P_Queue};
}

namespace {

// Sizes each structure is built with and its pipeline is built over: a
// spec or replayer sized differently from its structure misjudges the
// structure's state, and a snapshot sidecar restores only into a
// pipeline with the recording's parameters.
/// The cache's handles, allocated from a fresh ChunkManager, which hands
/// them out as 1..CacheHandles.
constexpr uint64_t CacheHandles = 24;
constexpr size_t QueueCapacity = 24;
constexpr uint32_t ScanFsMaxFiles = 24;
/// The StringBuffer scenario's family of buffers, and the length its
/// workload truncates a buffer to after every call that grows it.
constexpr size_t StringBufferBuffers = 3;
constexpr size_t StringBufferCap = 64;
/// The B-link tree's first leaf, which the tree allocates in its
/// constructor from a fresh ChunkManager; the replayer is anchored to it.
constexpr uint64_t BLinkAnchorLeaf = 1;

/// The composite scenario's objects in ObjectId order, and the program
/// whose pipeline checks each.
struct CompositeObject {
  const char *Name;
  Program Prog;
};
constexpr CompositeObject CompositeObjects[] = {
    {"multiset", Program::P_MultisetVector},
    {"cache", Program::P_Cache},
    {"blinktree", Program::P_BLinkTree},
    {"queue", Program::P_Queue},
};

/// Short deterministic payload bytes derived from a key.
chunk::Bytes keyBytes(int64_t K, size_t Len) {
  chunk::Bytes B(Len);
  uint64_t X = static_cast<uint64_t>(K) * 0x9e3779b97f4a7c15ULL + 0x1234;
  for (size_t I = 0; I < Len; ++I) {
    X ^= X >> 13;
    X *= 0xff51afd7ed558ccdULL;
    B[I] = static_cast<uint8_t>(X >> 32);
  }
  return B;
}

/// Short deterministic string payload derived from a key.
std::string keyString(int64_t K, size_t Len) {
  std::string S;
  S.reserve(Len);
  uint64_t X = static_cast<uint64_t>(K) * 0xc2b2ae3d27d4eb4fULL + 7;
  for (size_t I = 0; I < Len; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    S.push_back(static_cast<char>('a' + (X >> 24) % 26));
  }
  return S;
}

/// Allocates the cache's handles from the fresh \p CM.
std::shared_ptr<std::vector<uint64_t>>
allocateCacheHandles(chunk::ChunkManager &CM) {
  auto Handles = std::make_shared<std::vector<uint64_t>>();
  for (uint64_t I = 1; I <= CacheHandles; ++I) {
    Handles->push_back(CM.allocate());
    assert(Handles->back() == I && "cache pipeline built over other handles");
  }
  return Handles;
}

bool viewLevel(RunMode M) {
  return M == RunMode::RM_LogOnlyView || M == RunMode::RM_OnlineView ||
         M == RunMode::RM_OfflineView;
}

/// The wiring of every scenario: builds the log / verifier per run mode,
/// registers objects 0 .. NumObjects - 1 as \p Factory builds them, and
/// fills Scenario::V, L, Finish. \p ShipKey names the recording in a
/// shipping Hello. \returns each object's hooks, in ObjectId order, for
/// its data structure to use.
std::vector<Hooks> wireScenario(Scenario &S, const ScenarioOptions &O,
                                size_t NumObjects,
                                const PipelineFactory &Factory,
                                const char *ShipKey) {
  bool ViewLevel = viewLevel(O.Mode);
  std::vector<Hooks> H;

  if (!modeLogs(O.Mode)) {
    S.Finish = [] { return VerifierReport(); };
    H.resize(NumObjects);
    return H;
  }

  if (!modeChecks(O.Mode)) {
    // Logging only: a bare log with no consumer. Without a file it keeps
    // every record in memory, to be read back through Scenario::L after
    // finish; with a file it only writes the file. The hooks stamp the
    // object ids registerObject would assign.
    BufferedLog::Options BO;
    BO.FilePath = O.LogPath;
    BO.RetainRecords = O.LogPath.empty();
    auto L = std::make_shared<BufferedLog>(std::move(BO));
    assert(L->valid() && "cannot open log file");
    S.L = L.get();
    S.Owned.push_back(L);
    S.Finish = [L] {
      L->close();
      VerifierReport R;
      R.LogRecords = L->appendCount();
      R.LogBytes = L->byteCount();
      return R;
    };
    for (size_t Id = 0; Id < NumObjects; ++Id)
      H.emplace_back(L.get(), ViewLevel ? LogLevel::LL_View : LogLevel::LL_IO,
                     nullptr, static_cast<ObjectId>(Id));
    return H;
  }

  VerifierConfig VC;
  VC.Checker.Mode = ViewLevel ? CheckMode::CM_ViewRefinement
                              : CheckMode::CM_IORefinement;
  VC.Checker.StopAtFirstViolation = O.StopAtFirstViolation;
  VC.Checker.FullViewRecompute = O.FullViewRecompute;
  VC.Checker.QuiescentOnly = O.QuiescentOnly;
  VC.Checker.AuditPeriod = O.AuditPeriod;
  VC.Checker.ContextRecords = O.ContextRecords;
  VC.Checker.CollectTimings = O.CollectTimings;
  VC.Telemetry = O.Telemetry;
  VC.Online = O.Mode == RunMode::RM_OnlineIO ||
              O.Mode == RunMode::RM_OnlineView;
  // The pool only exists online; offline checking is a synchronous
  // replay, so silently dropping to 1 there is the meaningful mapping
  // (VerifierConfig::validate would reject the combination).
  VC.CheckerThreads = VC.Online ? O.CheckerThreads : 1;
  VC.LogFilePath = O.LogPath;
  VC.Backpressure = O.Backpressure;
  VC.Snapshots = O.Snapshots;
  VC.Monitor = O.Monitor;
  VC.ForensicPrefix = O.ForensicPrefix;
  VC.Shipping = O.Shipping;
  if (VC.Shipping.enabled()) {
    // The Hello must describe this recording: the remote resolver
    // rebuilds the same pipeline at the same check level.
    VC.Shipping.ViewLevel = ViewLevel;
    if (VC.Shipping.Program.empty())
      VC.Shipping.Program = ShipKey;
  }
  auto V = std::make_shared<Verifier>(VC);
  for (size_t Id = 0; Id < NumObjects; ++Id) {
    std::string Name;
    std::unique_ptr<Spec> Sp;
    std::unique_ptr<Replayer> R;
    bool Known = Factory(static_cast<ObjectId>(Id), Name, Sp, R);
    assert(Known && "pipeline factory does not know the object");
    (void)Known;
    H.push_back(V->registerObject(std::move(Name), std::move(Sp),
                                  std::move(R)));
  }
  V->start();
  S.V = V.get();
  S.L = &V->log();
  S.Owned.push_back(V);
  S.Finish = [V] { return V->finish(); };
  return H;
}

// The structures the single scenarios and the composite share.

multiset::ArrayMultiset::Options multisetOptions(bool Buggy) {
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 48;
  MO.BuggyFindSlot = Buggy;
  return MO;
}

cache::BoxCache::Options cacheOptions(bool Buggy) {
  cache::BoxCache::Options CO;
  CO.ChunkSize = 64;
  CO.BuggyUnprotectedCopy = Buggy;
  return CO;
}

/// The B-link tree over its own storage stack, which is assumed correct
/// and runs uninstrumented (Sec. 7.2.3's modular approach). A fresh Chunk
/// Manager keeps the first leaf at the handle the replayer is anchored
/// to. The stack and the tree are kept alive in \p S.
std::shared_ptr<blinktree::BLinkTree> makeBLinkTree(Scenario &S, bool Buggy,
                                                    Hooks H) {
  auto CM = std::make_shared<chunk::ChunkManager>();
  cache::BoxCache::Options CO;
  CO.ChunkSize = 512;
  auto C = std::make_shared<cache::BoxCache>(*CM, CO, Hooks());
  blinktree::BLinkTree::Options TO;
  TO.MaxLeafKeys = 8;
  TO.MaxInnerKeys = 8;
  TO.BuggyDuplicates = Buggy;
  auto T = std::make_shared<blinktree::BLinkTree>(*C, *CM, TO, H);
  assert(T->firstLeafHandle() == BLinkAnchorLeaf &&
         "replayer anchored to wrong leaf");
  S.Owned.push_back(CM);
  S.Owned.push_back(C);
  S.Owned.push_back(T);
  return T;
}

// Each program's structure and operation mix, over the hooks wireScenario
// handed out for its one object.

void buildMultiset(Scenario &S, const ScenarioOptions &O, Hooks H) {
  auto M = std::make_shared<multiset::ArrayMultiset>(multisetOptions(O.Buggy),
                                                     H);
  S.Owned.push_back(M);
  S.Op = [M](Rng &R, int64_t K1, int64_t K2, double) {
    unsigned Dice = static_cast<unsigned>(R.range(100));
    if (Dice < 30)
      M->insert(K1);
    else if (Dice < 50)
      M->insertPair(K1, K2);
    else if (Dice < 75)
      M->remove(K1);
    else
      M->lookUp(K1);
  };
}

void buildBst(Scenario &S, const ScenarioOptions &O, Hooks H) {
  bst::BstMultiset::Options BO;
  BO.BuggyInsert = O.Buggy;
  auto B = std::make_shared<bst::BstMultiset>(BO, H);
  S.Owned.push_back(B);
  S.Op = [B](Rng &R, int64_t K1, int64_t, double) {
    unsigned Dice = static_cast<unsigned>(R.range(100));
    if (Dice < 35)
      B->insert(K1);
    else if (Dice < 65)
      B->remove(K1);
    else
      B->lookUp(K1);
  };
  S.BackgroundOp = [B] { B->compress(); };
}

void buildVector(Scenario &S, const ScenarioOptions &O, Hooks H) {
  javalib::SyncVector::Options VO;
  VO.BuggyLastIndexOf = O.Buggy;
  auto Vec = std::make_shared<javalib::SyncVector>(VO, H);
  S.Owned.push_back(Vec);
  S.Op = [Vec](Rng &R, int64_t K1, int64_t, double) {
    unsigned Dice = static_cast<unsigned>(R.range(100));
    if (Dice < 40)
      Vec->add(K1 % 1000);
    else if (Dice < 60)
      Vec->removeLast();
    else if (Dice < 75)
      Vec->get(static_cast<int64_t>(R.range(64)));
    else if (Dice < 85)
      Vec->size();
    else
      Vec->lastIndexOf(K1 % 1000);
  };
}

void buildStringBuffer(Scenario &S, const ScenarioOptions &O, Hooks H) {
  javalib::StringBufferSystem::Options BO;
  BO.NumBuffers = StringBufferBuffers;
  BO.BuggyAppendBuffer = O.Buggy;
  auto SB = std::make_shared<javalib::StringBufferSystem>(BO, H);
  S.Owned.push_back(SB);
  size_t N = BO.NumBuffers;
  // Growth is hard-bounded under every interleaving (see
  // stringBufferLengthBound): appendBuffer copies only from a lower- into
  // a higher-indexed buffer, so copies cannot ping-pong a buffer's
  // contents between two buffers, and each growing call is followed by a
  // truncation of its buffer to StringBufferCap from the same thread.
  S.Op = [SB, N](Rng &R, int64_t K1, int64_t K2, double) {
    unsigned Dice = static_cast<unsigned>(R.range(100));
    size_t I = static_cast<size_t>(R.range(N));
    size_t J = (I + 1 + static_cast<size_t>(R.range(N - 1))) % N;
    if (Dice < 30) {
      SB->append(I, keyString(K1, 4 + K1 % 5));
      SB->setLength(I, StringBufferCap);
    } else if (Dice < 55) {
      SB->appendBuffer(std::max(I, J), std::min(I, J));
      SB->setLength(std::max(I, J), StringBufferCap);
    } else if (Dice < 75) {
      SB->setLength(I, static_cast<size_t>(K2 % 24));
    } else if (Dice < 90) {
      SB->toString(I);
    } else {
      SB->length(I);
    }
  };
}

void buildCache(Scenario &S, const ScenarioOptions &O, Hooks H) {
  auto CM = std::make_shared<chunk::ChunkManager>();
  auto HandleList = allocateCacheHandles(*CM);
  auto C = std::make_shared<cache::BoxCache>(*CM, cacheOptions(O.Buggy), H);
  S.Owned.push_back(CM);
  S.Owned.push_back(C);
  S.Owned.push_back(HandleList);
  S.Op = [C, HandleList](Rng &R, int64_t K1, int64_t K2, double) {
    uint64_t Hd = (*HandleList)[static_cast<size_t>(K1) %
                                HandleList->size()];
    unsigned Dice = static_cast<unsigned>(R.range(100));
    if (Dice < 45) {
      C->write(Hd, keyBytes(K2, 16 + K2 % 16));
    } else if (Dice < 70) {
      chunk::Bytes Out;
      C->read(Hd, Out);
    } else if (Dice < 80) {
      C->flush();
    } else if (Dice < 90) {
      C->revoke(Hd);
    } else {
      C->evict();
    }
  };
}

void buildBLink(Scenario &S, const ScenarioOptions &O, Hooks H) {
  auto T = makeBLinkTree(S, O.Buggy, H);
  S.Op = [T](Rng &R, int64_t K1, int64_t, double) {
    unsigned Dice = static_cast<unsigned>(R.range(100));
    if (Dice < 40)
      T->insert(K1, keyBytes(K1, 8 + K1 % 9));
    else if (Dice < 65)
      T->remove(K1);
    else
      T->lookup(K1);
  };
  S.BackgroundOp = [T] { T->compress(); };
}

void buildHashtable(Scenario &S, const ScenarioOptions &O, Hooks H) {
  javalib::SyncHashtable::Options HO;
  HO.BuggyPutIfAbsent = O.Buggy;
  auto T = std::make_shared<javalib::SyncHashtable>(HO, H);
  S.Owned.push_back(T);
  S.Op = [T](Rng &R, int64_t K1, int64_t K2, double) {
    unsigned Dice = static_cast<unsigned>(R.range(100));
    if (Dice < 25)
      T->put(K1, K2 % 1000);
    else if (Dice < 50)
      T->putIfAbsent(K1, K2 % 1000);
    else if (Dice < 65)
      T->remove(K1);
    else if (Dice < 90)
      T->get(K1);
    else
      T->size();
  };
}

void buildQueue(Scenario &S, const ScenarioOptions &O, Hooks H) {
  queue::BoundedQueue::Options QO;
  QO.Capacity = QueueCapacity;
  QO.BuggyPoll = O.Buggy;
  auto Q = std::make_shared<queue::BoundedQueue>(QO, H);
  S.Owned.push_back(Q);
  S.Op = [Q](Rng &R, int64_t K1, int64_t, double) {
    unsigned Dice = static_cast<unsigned>(R.range(100));
    if (Dice < 40)
      Q->offer(K1 % 1000);
    else if (Dice < 75)
      Q->poll();
    else if (Dice < 90)
      Q->peek();
    else
      Q->size();
  };
}

void buildScanFs(Scenario &S, const ScenarioOptions &O, Hooks H) {
  auto CM = std::make_shared<chunk::ChunkManager>();
  cache::BoxCache::Options CO;
  CO.ChunkSize = 768; // directory chunks grow with file count
  // As with the B-link tree, the storage stack below is assumed correct
  // and runs uninstrumented.
  auto C = std::make_shared<cache::BoxCache>(*CM, CO, Hooks());

  scanfs::ScanFs::Options FO;
  FO.MaxFiles = ScanFsMaxFiles;
  FO.MaxBlocksPerFile = 6;
  FO.BlockSize = 48;
  FO.BuggyEagerInodePublish = O.Buggy;
  auto F = std::make_shared<scanfs::ScanFs>(*C, *CM, FO, H);
  S.Owned.push_back(CM);
  S.Owned.push_back(C);
  S.Owned.push_back(F);
  S.Op = [F](Rng &R, int64_t K1, int64_t K2, double) {
    std::string Name = "f";
    Name += std::to_string(static_cast<uint64_t>(K1) % 20);
    unsigned Dice = static_cast<unsigned>(R.range(100));
    if (Dice < 15) {
      F->create(Name);
    } else if (Dice < 25) {
      F->unlink(Name);
    } else if (Dice < 50) {
      F->write(Name, keyBytes(K2, 8 + static_cast<size_t>(K2) % 80));
    } else if (Dice < 65) {
      F->append(Name, keyBytes(K2 + 1, 4 + static_cast<size_t>(K2) % 24));
    } else if (Dice < 90) {
      F->read(Name);
    } else {
      F->list();
    }
  };
  // The background "syncer" thread continuously flushes the cache.
  S.BackgroundOp = [F] { F->sync(); };
}

} // namespace

size_t vyrd::harness::stringBufferLengthBound(unsigned Threads) {
  // Bound for buffer k (B_k), by induction on k. After the last truncation
  // of buffer k to at most StringBufferCap (a setLength: the closing
  // one of some call, or the random one, at most 23), every growth of k
  // is by a thread whose closing truncation of k has not run yet, so by
  // distinct threads: at most Threads of them. A growth adds a literal of
  // at most 8 characters, or (appendBuffer) the length of a lower buffer
  // j < k, at most B_j <= B_{k-1}. Hence B_0 = Cap + 8 T and
  // B_k = Cap + T max(8, B_{k-1}) = Cap + T B_{k-1}.
  size_t B = StringBufferCap + 8 * static_cast<size_t>(Threads);
  for (size_t K = 1; K < StringBufferBuffers; ++K)
    B = StringBufferCap + Threads * B;
  return B;
}

Scenario vyrd::harness::makeCompositeScenario(const ScenarioOptions &O) {
  Scenario S;
  for (const CompositeObject &Obj : CompositeObjects)
    S.Objects.push_back(Obj.Name);
  std::vector<Hooks> H =
      wireScenario(S, O, std::size(CompositeObjects),
                   makeCompositePipeline(viewLevel(O.Mode)), "composite");

  // The single scenarios' structures, in CompositeObjects order (H's).
  // Only the multiset carries the injected bug: a violation must then be
  // attributed to it and to nothing else.
  auto CacheCM = std::make_shared<chunk::ChunkManager>();
  auto HandleList = allocateCacheHandles(*CacheCM);
  queue::BoundedQueue::Options QO;
  QO.Capacity = QueueCapacity;
  auto M =
      std::make_shared<multiset::ArrayMultiset>(multisetOptions(O.Buggy), H[0]);
  auto C = std::make_shared<cache::BoxCache>(*CacheCM, cacheOptions(false),
                                             H[1]);
  auto T = makeBLinkTree(S, /*Buggy=*/false, H[2]);
  auto Q = std::make_shared<queue::BoundedQueue>(QO, H[3]);
  S.Owned.push_back(CacheCM);
  S.Owned.push_back(M);
  S.Owned.push_back(C);
  S.Owned.push_back(Q);
  S.Owned.push_back(HandleList);

  // One thread interleaves operations on all four objects: the dice pick
  // the object, then the per-object mixes mirror the single scenarios.
  S.Op = [M, C, T, Q, HandleList](Rng &R, int64_t K1, int64_t K2, double) {
    switch (R.range(4)) {
    case 0: {
      unsigned Dice = static_cast<unsigned>(R.range(100));
      if (Dice < 30)
        M->insert(K1);
      else if (Dice < 50)
        M->insertPair(K1, K2);
      else if (Dice < 75)
        M->remove(K1);
      else
        M->lookUp(K1);
      break;
    }
    case 1: {
      uint64_t Hd =
          (*HandleList)[static_cast<size_t>(K1) % HandleList->size()];
      unsigned Dice = static_cast<unsigned>(R.range(100));
      if (Dice < 50) {
        C->write(Hd, keyBytes(K2, 16 + K2 % 16));
      } else if (Dice < 80) {
        chunk::Bytes Out;
        C->read(Hd, Out);
      } else if (Dice < 90) {
        C->flush();
      } else {
        C->evict();
      }
      break;
    }
    case 2: {
      unsigned Dice = static_cast<unsigned>(R.range(100));
      if (Dice < 40)
        T->insert(K1, keyBytes(K1, 8 + K1 % 9));
      else if (Dice < 65)
        T->remove(K1);
      else
        T->lookup(K1);
      break;
    }
    default: {
      unsigned Dice = static_cast<unsigned>(R.range(100));
      if (Dice < 40)
        Q->offer(K1 % 1000);
      else if (Dice < 75)
        Q->poll();
      else
        Q->peek();
      break;
    }
    }
  };
  S.BackgroundOp = [T] { T->compress(); };

  S.Name = std::string("Composite/") + runModeName(O.Mode) +
           (O.Buggy ? "/buggy" : "/correct");
  return S;
}

Scenario vyrd::harness::makeScenario(const ScenarioOptions &O) {
  Scenario S;
  Hooks H = wireScenario(S, O, 1,
                         makeProgramPipeline(O.Prog, viewLevel(O.Mode)),
                         programShipKey(O.Prog))
                .front();
  switch (O.Prog) {
  case Program::P_MultisetVector:
    buildMultiset(S, O, H);
    break;
  case Program::P_MultisetBst:
    buildBst(S, O, H);
    break;
  case Program::P_Vector:
    buildVector(S, O, H);
    break;
  case Program::P_StringBuffer:
    buildStringBuffer(S, O, H);
    break;
  case Program::P_BLinkTree:
    buildBLink(S, O, H);
    break;
  case Program::P_Cache:
    buildCache(S, O, H);
    break;
  case Program::P_ScanFs:
    buildScanFs(S, O, H);
    break;
  case Program::P_Hashtable:
    buildHashtable(S, O, H);
    break;
  case Program::P_Queue:
    buildQueue(S, O, H);
    break;
  }
  S.Name = std::string(programName(O.Prog)) + "/" + runModeName(O.Mode) +
           (O.Buggy ? "/buggy" : "/correct");
  return S;
}

namespace {

/// Builds the spec + replayer pair that checks \p P: the one place that
/// names a program's pipeline and its constructor parameters. Scenarios
/// register it, and epochs, resume and shipping rebuild it, so recorded
/// sidecar blobs restore cleanly. The replayer is built only for view
/// refinement.
void buildProgramPipeline(Program P, bool ViewLevel, std::unique_ptr<Spec> &S,
                          std::unique_ptr<Replayer> &R) {
  switch (P) {
  case Program::P_MultisetVector:
    S = std::make_unique<multiset::MultisetSpec>();
    if (ViewLevel)
      R = KeyValueReplayer::guardedBag("A");
    break;
  case Program::P_MultisetBst:
    S = std::make_unique<bst::BstSpec>();
    if (ViewLevel)
      R = std::make_unique<bst::BstReplayer>();
    break;
  case Program::P_Vector:
    S = std::make_unique<javalib::VectorSpec>();
    if (ViewLevel)
      R = KeyValueReplayer::prefixVec("vec");
    break;
  case Program::P_StringBuffer:
    S = std::make_unique<javalib::StringBufferSpec>(StringBufferBuffers);
    if (ViewLevel)
      R = std::make_unique<javalib::StringBufferReplayer>(StringBufferBuffers);
    break;
  case Program::P_BLinkTree:
    S = std::make_unique<blinktree::BLinkSpec>();
    if (ViewLevel)
      R = std::make_unique<blinktree::BLinkReplayer>(BLinkAnchorLeaf);
    break;
  case Program::P_Cache: {
    std::vector<uint64_t> Handles;
    for (uint64_t H = 1; H <= CacheHandles; ++H)
      Handles.push_back(H);
    S = std::make_unique<cache::CacheSpec>(Handles);
    if (ViewLevel)
      R = std::make_unique<cache::CacheReplayer>(Handles);
    break;
  }
  case Program::P_ScanFs:
    S = std::make_unique<scanfs::ScanFsSpec>(ScanFsMaxFiles);
    if (ViewLevel)
      R = std::make_unique<scanfs::ScanFsReplayer>();
    break;
  case Program::P_Hashtable:
    S = std::make_unique<javalib::HashtableSpec>();
    if (ViewLevel)
      R = KeyValueReplayer::map("ht");
    break;
  case Program::P_Queue:
    S = std::make_unique<queue::QueueSpec>(QueueCapacity);
    if (ViewLevel)
      R = KeyValueReplayer::map("q");
    break;
  }
}

} // namespace

PipelineFactory vyrd::harness::makeProgramPipeline(Program P,
                                                   bool ViewLevel) {
  return [P, ViewLevel](ObjectId Id, std::string &Name,
                        std::unique_ptr<Spec> &S,
                        std::unique_ptr<Replayer> &R) {
    if (Id != 0)
      return false;
    Name = ""; // the single scenario object is anonymous
    buildProgramPipeline(P, ViewLevel, S, R);
    return S != nullptr;
  };
}

PipelineFactory vyrd::harness::makeCompositePipeline(bool ViewLevel) {
  return [ViewLevel](ObjectId Id, std::string &Name,
                     std::unique_ptr<Spec> &S, std::unique_ptr<Replayer> &R) {
    if (Id >= std::size(CompositeObjects))
      return false;
    Name = CompositeObjects[Id].Name;
    buildProgramPipeline(CompositeObjects[Id].Prog, ViewLevel, S, R);
    return true;
  };
}

bool vyrd::harness::resolveProgramPipeline(const std::string &Key,
                                           bool ViewLevel,
                                           size_t &NumObjects,
                                           PipelineFactory &Factory) {
  if (Key == "composite") {
    NumObjects = std::size(CompositeObjects);
    Factory = makeCompositePipeline(ViewLevel);
    return true;
  }
  std::vector<Program> Ps = allPrograms();
  for (Program P : extensionPrograms())
    Ps.push_back(P);
  for (Program P : Ps)
    if (Key == programShipKey(P)) {
      NumObjects = 1;
      Factory = makeProgramPipeline(P, ViewLevel);
      return true;
    }
  return false;
}
