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

/// The log of the logging-only modes. Without a file it keeps every
/// record in memory, to be read back through Scenario::L after finish;
/// with a file it only writes the file (nothing consumes it online).
std::shared_ptr<Log> makeLogOnlyLog(const ScenarioOptions &O) {
  BufferedLog::Options BO;
  BO.FilePath = O.LogPath;
  BO.RetainRecords = O.LogPath.empty();
  auto BL = std::make_shared<BufferedLog>(std::move(BO));
  assert(BL->valid() && "cannot open log file");
  return BL;
}

/// Shared wiring: builds the log / verifier per run mode and fills
/// Scenario::V, L, Finish. \returns the Hooks the data structure should
/// use.
Hooks wireScenario(Scenario &S, const ScenarioOptions &O,
                   std::unique_ptr<Spec> Spec,
                   std::unique_ptr<Replayer> Replayer) {
  bool ViewLevel = O.Mode == RunMode::RM_LogOnlyView ||
                   O.Mode == RunMode::RM_OnlineView ||
                   O.Mode == RunMode::RM_OfflineView;

  if (!modeLogs(O.Mode)) {
    S.Finish = [] { return VerifierReport(); };
    return Hooks();
  }

  if (!modeChecks(O.Mode)) {
    // Logging only: a bare log with no consumer.
    std::shared_ptr<Log> L = makeLogOnlyLog(O);
    S.L = L.get();
    S.Owned.push_back(L);
    S.Finish = [L] {
      L->close();
      VerifierReport R;
      R.LogRecords = L->appendCount();
      R.LogBytes = L->byteCount();
      return R;
    };
    return Hooks(L.get(),
                 ViewLevel ? LogLevel::LL_View : LogLevel::LL_IO);
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
      VC.Shipping.Program = programShipKey(O.Prog);
  }
  auto V = std::make_shared<Verifier>(
      std::move(Spec), ViewLevel ? std::move(Replayer) : nullptr, VC);
  V->start();
  S.V = V.get();
  S.L = &V->log();
  S.Owned.push_back(V);
  S.Finish = [V] { return V->finish(); };
  return V->hooks();
}

Scenario makeMultisetScenario(const ScenarioOptions &O) {
  Scenario S;
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 48;
  MO.BuggyFindSlot = O.Buggy;
  Hooks H = wireScenario(S, O, std::make_unique<multiset::MultisetSpec>(),
                         KeyValueReplayer::guardedBag("A"));
  auto M = std::make_shared<multiset::ArrayMultiset>(MO, H);
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
  return S;
}

Scenario makeBstScenario(const ScenarioOptions &O) {
  Scenario S;
  bst::BstMultiset::Options BO;
  BO.BuggyInsert = O.Buggy;
  Hooks H = wireScenario(S, O, std::make_unique<bst::BstSpec>(),
                         std::make_unique<bst::BstReplayer>());
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
  return S;
}

Scenario makeVectorScenario(const ScenarioOptions &O) {
  Scenario S;
  javalib::SyncVector::Options VO;
  VO.BuggyLastIndexOf = O.Buggy;
  Hooks H = wireScenario(S, O, std::make_unique<javalib::VectorSpec>(),
                         KeyValueReplayer::prefixVec("vec"));
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
  return S;
}

/// The StringBuffer scenario's family of buffers, and the length its
/// workload truncates a buffer to after every call that grows it.
constexpr size_t StringBufferBuffers = 3;
constexpr size_t StringBufferCap = 64;

Scenario makeStringBufferScenario(const ScenarioOptions &O) {
  Scenario S;
  javalib::StringBufferSystem::Options BO;
  BO.NumBuffers = StringBufferBuffers;
  BO.BuggyAppendBuffer = O.Buggy;
  Hooks H = wireScenario(
      S, O, std::make_unique<javalib::StringBufferSpec>(BO.NumBuffers),
      std::make_unique<javalib::StringBufferReplayer>(BO.NumBuffers));
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
  return S;
}

Scenario makeCacheScenario(const ScenarioOptions &O) {
  Scenario S;
  auto CM = std::make_shared<chunk::ChunkManager>();
  constexpr size_t NumHandles = 24;
  std::vector<uint64_t> Handles;
  for (size_t I = 0; I < NumHandles; ++I)
    Handles.push_back(CM->allocate());

  cache::BoxCache::Options CO;
  CO.ChunkSize = 64;
  CO.BuggyUnprotectedCopy = O.Buggy;
  Hooks H =
      wireScenario(S, O, std::make_unique<cache::CacheSpec>(Handles),
                   std::make_unique<cache::CacheReplayer>(Handles));
  auto C = std::make_shared<cache::BoxCache>(*CM, CO, H);
  S.Owned.push_back(CM);
  S.Owned.push_back(C);
  auto HandleList = std::make_shared<std::vector<uint64_t>>(Handles);
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
  return S;
}

Scenario makeBLinkScenario(const ScenarioOptions &O) {
  Scenario S;
  auto CM = std::make_shared<chunk::ChunkManager>();
  cache::BoxCache::Options CO;
  CO.ChunkSize = 512;
  // The tree is verified assuming Cache + Chunk Manager are correct
  // (Sec. 7.2.3's modular approach): the cache runs uninstrumented.
  auto C = std::make_shared<cache::BoxCache>(*CM, CO, Hooks());

  blinktree::BLinkTree::Options TO;
  TO.MaxLeafKeys = 8;
  TO.MaxInnerKeys = 8;
  TO.BuggyDuplicates = O.Buggy;

  // The replayer needs the first leaf handle, which the tree allocates in
  // its constructor; the Chunk Manager hands out handles deterministically
  // starting at 1, so the first allocation is handle 1.
  Hooks H = wireScenario(S, O, std::make_unique<blinktree::BLinkSpec>(),
                         std::make_unique<blinktree::BLinkReplayer>(1));
  auto T = std::make_shared<blinktree::BLinkTree>(*C, *CM, TO, H);
  assert(T->firstLeafHandle() == 1 && "replayer anchored to wrong leaf");
  S.Owned.push_back(CM);
  S.Owned.push_back(C);
  S.Owned.push_back(T);
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
  return S;
}

Scenario makeHashtableScenario(const ScenarioOptions &O) {
  Scenario S;
  javalib::SyncHashtable::Options HO;
  HO.BuggyPutIfAbsent = O.Buggy;
  Hooks H = wireScenario(S, O, std::make_unique<javalib::HashtableSpec>(),
                         KeyValueReplayer::map("ht"));
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
  return S;
}

Scenario makeQueueScenario(const ScenarioOptions &O) {
  Scenario S;
  queue::BoundedQueue::Options QO;
  QO.Capacity = 24;
  QO.BuggyPoll = O.Buggy;
  Hooks H = wireScenario(S, O,
                         std::make_unique<queue::QueueSpec>(QO.Capacity),
                         KeyValueReplayer::map("q"));
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
  return S;
}

Scenario makeScanFsScenario(const ScenarioOptions &O) {
  Scenario S;
  auto CM = std::make_shared<chunk::ChunkManager>();
  cache::BoxCache::Options CO;
  CO.ChunkSize = 768; // directory chunks grow with file count
  // As with the B-link tree, the storage stack below is assumed correct
  // and runs uninstrumented.
  auto C = std::make_shared<cache::BoxCache>(*CM, CO, Hooks());

  scanfs::ScanFs::Options FO;
  FO.MaxFiles = 24;
  FO.MaxBlocksPerFile = 6;
  FO.BlockSize = 48;
  FO.BuggyEagerInodePublish = O.Buggy;

  Hooks H = wireScenario(
      S, O, std::make_unique<scanfs::ScanFsSpec>(FO.MaxFiles),
      std::make_unique<scanfs::ScanFsReplayer>());
  auto F = std::make_shared<scanfs::ScanFs>(*C, *CM, FO, H);
  S.Owned.push_back(CM);
  S.Owned.push_back(C);
  S.Owned.push_back(F);
  size_t MaxBytes =
      static_cast<size_t>(FO.MaxBlocksPerFile) * FO.BlockSize;
  S.Op = [F, MaxBytes](Rng &R, int64_t K1, int64_t K2, double) {
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
      (void)MaxBytes;
    } else if (Dice < 90) {
      F->read(Name);
    } else {
      F->list();
    }
  };
  // The background "syncer" thread continuously flushes the cache.
  S.BackgroundOp = [F] { F->sync(); };
  return S;
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
  S.Objects = {"multiset", "cache", "blinktree", "queue"};
  bool ViewLevel = O.Mode == RunMode::RM_LogOnlyView ||
                   O.Mode == RunMode::RM_OnlineView ||
                   O.Mode == RunMode::RM_OfflineView;
  LogLevel Level = ViewLevel ? LogLevel::LL_View : LogLevel::LL_IO;

  // Sub-structure configuration. Only the multiset carries the injected
  // bug: a violation must then be attributed to it and to nothing else.
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 48;
  MO.BuggyFindSlot = O.Buggy;

  auto CacheCM = std::make_shared<chunk::ChunkManager>();
  constexpr size_t NumHandles = 24;
  std::vector<uint64_t> Handles;
  for (size_t I = 0; I < NumHandles; ++I)
    Handles.push_back(CacheCM->allocate());
  cache::BoxCache::Options CO;
  CO.ChunkSize = 64;

  // The tree brings its own uninstrumented storage stack (the modular
  // assumption of makeBLinkScenario); a fresh Chunk Manager keeps its
  // first leaf at the deterministic handle 1 the replayer is anchored to.
  auto TreeCM = std::make_shared<chunk::ChunkManager>();
  cache::BoxCache::Options TreeCO;
  TreeCO.ChunkSize = 512;
  auto TreeCache =
      std::make_shared<cache::BoxCache>(*TreeCM, TreeCO, Hooks());
  blinktree::BLinkTree::Options TO;
  TO.MaxLeafKeys = 8;
  TO.MaxInnerKeys = 8;

  queue::BoundedQueue::Options QO;
  QO.Capacity = 24;

  Hooks HMul, HCache, HTree, HQueue;
  if (!modeLogs(O.Mode)) {
    S.Finish = [] { return VerifierReport(); };
  } else if (!modeChecks(O.Mode)) {
    // Logging only: a bare log, four hook sets stamping object ids in the
    // same order registerObject would assign them.
    std::shared_ptr<Log> L = makeLogOnlyLog(O);
    S.L = L.get();
    S.Owned.push_back(L);
    S.Finish = [L] {
      L->close();
      VerifierReport R;
      R.LogRecords = L->appendCount();
      R.LogBytes = L->byteCount();
      return R;
    };
    HMul = Hooks(L.get(), Level, nullptr, 0);
    HCache = Hooks(L.get(), Level, nullptr, 1);
    HTree = Hooks(L.get(), Level, nullptr, 2);
    HQueue = Hooks(L.get(), Level, nullptr, 3);
  } else {
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
    VC.CheckerThreads = VC.Online ? O.CheckerThreads : 1;
    VC.LogFilePath = O.LogPath;
    VC.Backpressure = O.Backpressure;
    VC.Snapshots = O.Snapshots;
    VC.Monitor = O.Monitor;
    VC.ForensicPrefix = O.ForensicPrefix;
    VC.Shipping = O.Shipping;
    if (VC.Shipping.enabled()) {
      VC.Shipping.ViewLevel = ViewLevel;
      if (VC.Shipping.Program.empty())
        VC.Shipping.Program = "composite";
    }
    auto V = std::make_shared<Verifier>(VC);
    HMul = V->registerObject(
        "multiset", std::make_unique<multiset::MultisetSpec>(),
        ViewLevel ? KeyValueReplayer::guardedBag("A") : nullptr);
    HCache = V->registerObject(
        "cache", std::make_unique<cache::CacheSpec>(Handles),
        ViewLevel ? std::make_unique<cache::CacheReplayer>(Handles)
                  : nullptr);
    HTree = V->registerObject(
        "blinktree", std::make_unique<blinktree::BLinkSpec>(),
        ViewLevel ? std::make_unique<blinktree::BLinkReplayer>(1) : nullptr);
    HQueue = V->registerObject(
        "queue", std::make_unique<queue::QueueSpec>(QO.Capacity),
        ViewLevel ? KeyValueReplayer::map("q") : nullptr);
    V->start();
    S.V = V.get();
    S.L = &V->log();
    S.Owned.push_back(V);
    S.Finish = [V] { return V->finish(); };
  }

  auto M = std::make_shared<multiset::ArrayMultiset>(MO, HMul);
  auto C = std::make_shared<cache::BoxCache>(*CacheCM, CO, HCache);
  auto T =
      std::make_shared<blinktree::BLinkTree>(*TreeCache, *TreeCM, TO, HTree);
  assert(T->firstLeafHandle() == 1 && "replayer anchored to wrong leaf");
  auto Q = std::make_shared<queue::BoundedQueue>(QO, HQueue);
  S.Owned.push_back(CacheCM);
  S.Owned.push_back(TreeCM);
  S.Owned.push_back(TreeCache);
  S.Owned.push_back(M);
  S.Owned.push_back(C);
  S.Owned.push_back(T);
  S.Owned.push_back(Q);
  auto HandleList = std::make_shared<std::vector<uint64_t>>(Handles);
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
  switch (O.Prog) {
  case Program::P_MultisetVector:
    S = makeMultisetScenario(O);
    break;
  case Program::P_MultisetBst:
    S = makeBstScenario(O);
    break;
  case Program::P_Vector:
    S = makeVectorScenario(O);
    break;
  case Program::P_StringBuffer:
    S = makeStringBufferScenario(O);
    break;
  case Program::P_BLinkTree:
    S = makeBLinkScenario(O);
    break;
  case Program::P_Cache:
    S = makeCacheScenario(O);
    break;
  case Program::P_ScanFs:
    S = makeScanFsScenario(O);
    break;
  case Program::P_Hashtable:
    S = makeHashtableScenario(O);
    break;
  case Program::P_Queue:
    S = makeQueueScenario(O);
    break;
  }
  S.Name = std::string(programName(O.Prog)) + "/" + runModeName(O.Mode) +
           (O.Buggy ? "/buggy" : "/correct");
  return S;
}

namespace {

/// Builds the spec + replayer pair for \p P with exactly the constructor
/// parameters the scenario factories above use — the contract that makes
/// recorded sidecar blobs restore cleanly. Kept in one place so a scenario
/// parameter change cannot silently diverge from the resume path.
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
    S = std::make_unique<javalib::StringBufferSpec>(3);
    if (ViewLevel)
      R = std::make_unique<javalib::StringBufferReplayer>(3);
    break;
  case Program::P_BLinkTree:
    S = std::make_unique<blinktree::BLinkSpec>();
    if (ViewLevel)
      R = std::make_unique<blinktree::BLinkReplayer>(1);
    break;
  case Program::P_Cache: {
    // The scenario allocates its handles from a fresh ChunkManager, which
    // hands them out deterministically starting at 1.
    std::vector<uint64_t> Handles;
    for (uint64_t H = 1; H <= 24; ++H)
      Handles.push_back(H);
    S = std::make_unique<cache::CacheSpec>(Handles);
    if (ViewLevel)
      R = std::make_unique<cache::CacheReplayer>(Handles);
    break;
  }
  case Program::P_ScanFs:
    S = std::make_unique<scanfs::ScanFsSpec>(24);
    if (ViewLevel)
      R = std::make_unique<scanfs::ScanFsReplayer>();
    break;
  case Program::P_Hashtable:
    S = std::make_unique<javalib::HashtableSpec>();
    if (ViewLevel)
      R = KeyValueReplayer::map("ht");
    break;
  case Program::P_Queue:
    S = std::make_unique<queue::QueueSpec>(24);
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
    switch (Id) {
    case 0:
      Name = "multiset";
      buildProgramPipeline(Program::P_MultisetVector, ViewLevel, S, R);
      return true;
    case 1:
      Name = "cache";
      buildProgramPipeline(Program::P_Cache, ViewLevel, S, R);
      return true;
    case 2:
      Name = "blinktree";
      buildProgramPipeline(Program::P_BLinkTree, ViewLevel, S, R);
      return true;
    case 3:
      Name = "queue";
      buildProgramPipeline(Program::P_Queue, ViewLevel, S, R);
      return true;
    default:
      return false;
    }
  };
}

bool vyrd::harness::resolveProgramPipeline(const std::string &Key,
                                           bool ViewLevel,
                                           size_t &NumObjects,
                                           PipelineFactory &Factory) {
  if (Key == "composite") {
    NumObjects = 4;
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
