// The serving session: one writer, many readers, epoch snapshots in
// between.
//
//   writer thread                      reader threads
//   -------------                      --------------
//   ApplyUpdate(batch)                 Pin() -> snapshot handle E
//     IncrementalSession::ApplyUpdate  Query(line):
//     CompactDeadRelations (periodic)    parse against E's frozen symbols
//     SnapshotRegistry::Publish(E+1)     cache lookup (key, E), after
//     QueryCache::Advance(deltas, E+1)     any sweep Advance deferred
//                                        miss: EvalServeQuery on E, insert
//
// The writer owns the live Database and the IncrementalSession; readers
// only ever touch sealed snapshots, the mutex-guarded cache and a few
// atomic counters, so the reader path is lock-free against the writer
// (and TSan-clean — tests/serving_test.cc runs exactly this pattern
// under the sanitizer).
//
// Update coalescing (`ServingTuning::update_batch > 1`): Enqueue buffers
// update lines and flushes them as ONE UpdateBatch once the window
// fills. The merged window follows UpdateBatch's netting rule — deletes
// apply first, inserts win — so `+E(1,2)` followed by `-E(1,2)` in one
// window leaves the tuple present (the insert wins), unlike two separate
// batches. That is the documented semantics of the knob, not an
// accident; callers that need sequential semantics keep update_batch=1.

#ifndef INFLOG_SERVE_SERVING_H_
#define INFLOG_SERVE_SERVING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/base/result.h"
#include "src/eval/incremental.h"
#include "src/serve/cache.h"
#include "src/serve/query.h"
#include "src/serve/snapshot.h"

namespace inflog {
namespace serve {

/// Serving knobs (the CLI flags map onto these).
struct ServingTuning {
  /// Query-result cache on/off (--serve-cache).
  bool cache = true;
  /// Dead-row share above which a relation is compacted after an update
  /// (--compact-threshold); <= 0 disables the periodic schedule.
  double compact_threshold = 0.3;
  /// Update lines coalesced into one ApplyUpdate (--update-batch).
  size_t update_batch = 1;
};

/// One evaluated query with its provenance.
struct QueryOutcome {
  uint64_t epoch = 0;    ///< Epoch the answer is valid at.
  bool cache_hit = false;
  ServeAnswer answer;
};

/// A maintained evaluation published as epoch snapshots, serving
/// concurrent readers while one writer applies updates.
class ServingSession {
 public:
  /// Evaluates (program, *database) via an IncrementalSession and
  /// publishes epoch 0. Same lifetime contract as IncrementalSession:
  /// `program` and `database` must outlive the session and only the
  /// session may mutate *database* afterwards.
  static Result<std::unique_ptr<ServingSession>> Create(
      const Program& program, Database* database,
      const IncrementalOptions& options = {},
      const ServingTuning& tuning = {});

  // --- Reader side: safe from any thread, concurrently with the writer.

  /// Pins the current epoch. The handle stays valid (and the epoch
  /// alive) for as long as the caller holds it.
  SnapshotHandle Pin() const;

  /// Parses and evaluates one `?...` query line against `snap`,
  /// consulting the cache when enabled. Deterministic per epoch.
  Result<QueryOutcome> Query(std::string_view line,
                             const SnapshotHandle& snap) const;

  /// Convenience: pins the current epoch and queries it.
  Result<QueryOutcome> Query(std::string_view line) const;

  // --- Writer side: one thread at a time.

  /// Applies one batch through the incremental session, runs the
  /// periodic compaction schedule, publishes the next epoch and advances
  /// the cache from the net deltas. Counts as `lines` update lines in
  /// the stats (a coalesced window passes its line count).
  Result<UpdateResult> ApplyUpdate(const UpdateBatch& batch,
                                   size_t lines = 1);

  /// Coalesces `batch` into the pending window; flushes (one merged
  /// ApplyUpdate) when the window reaches `tuning.update_batch` lines.
  /// Returns the UpdateResult when a flush happened, nullopt otherwise.
  Result<std::optional<UpdateResult>> Enqueue(const UpdateBatch& batch);

  /// Flushes a partially filled window, if any.
  Result<std::optional<UpdateResult>> Flush();

  /// Current epoch (0 after Create).
  uint64_t epoch() const { return registry_.epoch(); }

  /// Composite counters: the incremental session's cumulative stats plus
  /// the serve_*/cache_* block.
  EvalStats stats() const;

  const Program& program() const { return session_->program(); }
  bool incremental_capable() const {
    return session_->incremental_capable();
  }
  const IncrementalSession& incremental() const { return *session_; }
  const SnapshotRegistry& registry() const { return registry_; }
  const ServingTuning& tuning() const { return tuning_; }

 private:
  ServingSession(std::unique_ptr<IncrementalSession> session,
                 Database* database, ServingTuning tuning)
      : session_(std::move(session)), database_(database),
        tuning_(tuning) {}

  std::unique_ptr<IncrementalSession> session_;
  Database* database_;  ///< The live database (writer-side only).
  ServingTuning tuning_;
  SnapshotRegistry registry_;
  mutable QueryCache cache_;

  mutable std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> batched_{0};
  std::atomic<uint64_t> compactions_{0};

  /// Pending coalescing window (writer-side only).
  UpdateBatch pending_;
  size_t pending_lines_ = 0;
};

}  // namespace serve
}  // namespace inflog

#endif  // INFLOG_SERVE_SERVING_H_
