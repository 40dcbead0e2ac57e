// serve: reads beside writes on a serving session.
//
// The program is stratified TC plus N(X) :- V(X), !T(X,X) (the vertices on
// no cycle) over 64 seeded 32-vertex components. BeginServing,
// with its initial materialization and the epoch-0 seal, is set-up.
//
//   op1  reader query: 1 reader thread in a closed loop, issuing a
//        Zipf-skewed mix of a point query ?T(c,X), a join ?E(c,X), T(X,Y)
//        and a join written in a poor order, ?N(X), E(X,c); timed as
//        Open + Query;
//   op2  update: 1 writer thread in an open loop at a fixed rate, each
//        update deleting or re-inserting one edge; timed from when it was
//        due, so a stall also delays the updates queued behind it.
//
// Incremental maintenance, the snapshot seal/publish step, the query
// evaluator and the cache do the work. After the run every recorded
// (epoch, query, answer) is re-derived by BFS over that epoch's edges.

#include <algorithm>
#include <latch>
#include <map>
#include <set>
#include <thread>

#include "inputs.h"
#include "oracles.h"
#include "src/serve/query.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr char kServeProgram[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Y) :- T(X,Z), E(Z,Y).\n"
    "N(X) :- V(X), !T(X,X).\n";

// One reader: more readers contend for the query cache's mutex and for
// the machine's 4 cores with the writer, and then time the scheduler.
constexpr size_t kReaders = 1;
constexpr size_t kRecordEvery = 8;  // at first 1 reader query in 8 is checked
constexpr size_t kMaxRecordsPerReader = 20'000;
constexpr size_t kLatencySamples = 200'000;  // reservoir size per reader

enum Shape : uint8_t { kPoint = 0, kJoin = 1, kMisordered = 2 };
constexpr const char* kShapeNames[] = {"point", "join", "misordered"};

struct QuerySpec {
  Shape shape;
  uint32_t vertex;
};

std::string QueryText(const QuerySpec& q) {
  const std::string c = VertexName(q.vertex);
  switch (q.shape) {
    case kPoint:
      return "?T(" + c + ",X)";
    case kJoin:
      return "?E(" + c + ",X), T(X,Y)";
    case kMisordered:
      return "?N(X), E(X," + c + ")";
  }
  return "";
}

// A stream of queries: the constant follows a Zipf(1) law over a seeded
// ranking of the vertices; half the queries are point queries, 3 in 10
// joins and 2 in 10 misordered joins.
std::vector<QuerySpec> QueryStream(size_t n, size_t length, Rng* rng) {
  std::vector<uint32_t> rank(n);
  for (uint32_t i = 0; i < n; ++i) rank[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(rank[i - 1], rank[rng->Below(i)]);
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) cdf[i] = total += 1.0 / static_cast<double>(i + 1);
  std::vector<QuerySpec> stream(length);
  for (QuerySpec& q : stream) {
    const double u = rng->Unit() * total;
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const uint64_t s = rng->Below(10);
    q.shape = s < 5 ? kPoint : s < 8 ? kJoin : kMisordered;
    q.vertex = rank[std::min(r, n - 1)];
  }
  return stream;
}

struct Update {
  bool insert;
  uint32_t from, to;
};

// Deletes random present edges and re-inserts deleted ones, keeping at most
// eight edges out at a time.
std::vector<Update> UpdateStream(const Graph& g, size_t count, Rng* rng) {
  std::vector<std::pair<uint32_t, uint32_t>> present = g.edges, deleted;
  std::vector<Update> out;
  for (size_t k = 0; k < count; ++k) {
    const bool reinsert =
        !deleted.empty() && (deleted.size() >= 8 || rng->Below(2) == 0);
    auto& from = reinsert ? deleted : present;
    auto& to = reinsert ? present : deleted;
    const size_t at = rng->Below(from.size());
    const auto edge = from[at];
    from[at] = from.back();
    from.pop_back();
    to.push_back(edge);
    out.push_back({reinsert, edge.first, edge.second});
  }
  return out;
}

inflog::UpdateBatch MakeBatch(const inflog::Engine& engine, const Update& u) {
  inflog::UpdateBatch batch;
  auto& side = u.insert ? batch.inserts : batch.deletes;
  side.emplace_back("E", VertexTuple(engine, {u.from, u.to}));
  return batch;
}

struct Record {
  uint64_t epoch;
  QuerySpec query;
  std::vector<inflog::Tuple> rows;
};

struct ReaderLog {
  explicit ReaderLog(uint64_t seed) : latency(kLatencySamples, seed) {}
  Reservoir latency;  // ms, Open + Query
  uint64_t attempted = 0;
  double pin_ms = 0;
  double rows = 0;
  double live = 0;
  uint64_t live_samples = 0;
  std::vector<Record> records;
  uint64_t record_every = kRecordEvery;
};

struct WriterEntry {
  size_t update;     // index into the update stream
  uint64_t epoch;    // epoch published by this update
  double latency_ms;  // from due time to completion
  double lag_ms;      // from due time to start
  double apply_ms;    // the ApplyUpdate call itself
};

// The answer rows an epoch's edge set implies, in vertex ids, sorted.
std::vector<std::vector<uint32_t>> OracleAnswer(const Adjacency& succ,
                                                const Adjacency& pred,
                                                const QuerySpec& q) {
  std::vector<std::vector<uint32_t>> rows;
  const uint32_t c = q.vertex;
  if (q.shape == kPoint) {
    for (uint32_t x : ReachableFrom(succ, c)) rows.push_back({x});
  } else if (q.shape == kJoin) {
    for (uint32_t x : succ[c]) {
      for (uint32_t y : ReachableFrom(succ, x)) rows.push_back({x, y});
    }
  } else {
    for (uint32_t x : pred[c]) {
      const auto cycle = ReachableFrom(succ, x);
      if (!std::binary_search(cycle.begin(), cycle.end(), x)) rows.push_back({x});
    }
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

// Re-checks every recorded answer against BFS over its epoch's edge set.
void CheckRecords(const Graph& g, const std::vector<Update>& updates,
                  const std::vector<WriterEntry>& writes,
                  std::vector<Record> records,
                  const inflog::SymbolTable& symbols, Ledger* ledger) {
  // Symbol id -> vertex id, from the `v<i>` names.
  std::vector<uint32_t> vertex_of(symbols.size(), UINT32_MAX);
  for (inflog::Value v = 0; v < symbols.size(); ++v) {
    const std::string& name = symbols.Name(v);
    if (name.size() > 1 && name[0] == 'v') {
      vertex_of[v] = static_cast<uint32_t>(std::stoul(name.substr(1)));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.epoch < b.epoch; });
  std::set<std::pair<uint32_t, uint32_t>> edges(g.edges.begin(), g.edges.end());
  size_t applied = 0;
  uint64_t built_epoch = UINT64_MAX;
  Adjacency succ, pred;
  std::map<std::pair<int, uint32_t>, std::vector<std::vector<uint32_t>>> memo;
  for (const Record& r : records) {
    if (r.epoch != built_epoch) {
      while (applied < writes.size() && writes[applied].epoch <= r.epoch) {
        const Update& u = updates[writes[applied].update];
        if (u.insert) {
          edges.insert({u.from, u.to});
        } else {
          edges.erase({u.from, u.to});
        }
        ++applied;
      }
      succ.assign(g.n, {});
      pred.assign(g.n, {});
      for (const auto& [a, b] : edges) {
        succ[a].push_back(b);
        pred[b].push_back(a);
      }
      for (auto& list : pred) std::sort(list.begin(), list.end());
      built_epoch = r.epoch;
      memo.clear();
    }
    auto key = std::make_pair(static_cast<int>(r.query.shape), r.query.vertex);
    auto it = memo.find(key);
    if (it == memo.end()) {
      it = memo.emplace(key, OracleAnswer(succ, pred, r.query)).first;
    }
    std::vector<std::vector<uint32_t>> got;
    for (const inflog::Tuple& row : r.rows) {
      std::vector<uint32_t> ids;
      for (inflog::Value v : row) {
        ids.push_back(v < vertex_of.size() ? vertex_of[v] : UINT32_MAX);
      }
      got.push_back(std::move(ids));
    }
    std::sort(got.begin(), got.end());
    if (got != it->second) {
      ledger->Fail("serve: epoch " + std::to_string(r.epoch) + " " +
                   QueryText(r.query) + " returned " +
                   std::to_string(got.size()) + " rows, BFS finds " +
                   std::to_string(it->second.size()));
    }
  }
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

Report RunServe(const Options& options, Ledger* ledger) {
  Report report;
  Rng rng(options.seed);
  const size_t components = options.tiny ? 4 : 64;
  const double rate = options.tiny ? 20 : 8;  // updates per second
  const Graph graph = Components(components, 32, 6, 4, 0.1, &rng);
  const std::string facts = GraphFacts(graph);
  const size_t num_updates =
      static_cast<size_t>(rate * options.seconds) + 2;
  const std::vector<Update> updates = UpdateStream(graph, num_updates, &rng);
  std::vector<std::vector<QuerySpec>> streams;
  for (size_t r = 0; r < kReaders; ++r) {
    streams.push_back(QueryStream(graph.n, 1 << 16, &rng));
  }
  std::vector<std::string> texts(3 * graph.n);
  for (uint32_t v = 0; v < graph.n; ++v) {
    for (Shape s : {kPoint, kJoin, kMisordered}) {
      texts[s * graph.n + v] = QueryText({s, v});
    }
  }

  inflog::EvalOptions eval;  // one evaluation thread: small serial deltas
  eval.serving.cache = true;

  // Set-up: load, analyze and BeginServing, several times.
  SetupSummary setup;
  std::unique_ptr<inflog::Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    SetupTimes times;
    engine = LoadEngine(kServeProgram, facts, &times, ledger);
    if (engine == nullptr) return report;
    Span begin("engine.BeginServing");
    const inflog::Status status =
        engine->BeginServing(inflog::SemanticsKind::kStratified, eval);
    times.total_s += begin.Stop() / 1e3;
    if (!status.ok()) {
      ledger->Fail("BeginServing: " + status.ToString());
      return report;
    }
    setup.reps.push_back(times);
  }
  inflog::serve::ServingSession* session = *engine->serving();
  std::vector<inflog::UpdateBatch> batches;
  for (const Update& u : updates) batches.push_back(MakeBatch(*engine, u));

  // Readers warm up (cache fill, untimed), then all threads start together.
  std::latch warmed(kReaders);
  std::latch go(1);
  Clock::time_point start, deadline;  // written before `go` opens
  std::vector<ReaderLog> logs;
  for (size_t r = 0; r < kReaders; ++r) logs.emplace_back(options.seed + r);
  std::vector<WriterEntry> writes;
  const size_t warmup = options.tiny ? 100 : 2000;

  auto reader = [&](size_t id) {
    ReaderLog& log = logs[id];
    const std::vector<QuerySpec>& stream = streams[id];
    for (size_t i = 0; i < warmup; ++i) {
      const QuerySpec& q = stream[i % stream.size()];
      ++log.attempted;
      auto snap = engine->Open();
      if (!snap.ok() || !engine->Query(texts[q.shape * graph.n + q.vertex], *snap).ok()) {
        ledger->Fail("serve: warm-up query failed");
      }
    }
    warmed.count_down();
    go.wait();
    for (uint64_t i = 0; Clock::now() < deadline; ++i) {
      const QuerySpec& q = stream[(warmup + i) % stream.size()];
      SetRequest((uint64_t{id + 1} << 48) | i);
      Span whole("reader.query");
      Span pin("engine.Open");
      auto snap = engine->Open();
      log.pin_ms += pin.Stop();
      if (!snap.ok()) {
        ledger->Fail("serve: Open: " + snap.status().ToString());
        continue;
      }
      Span query("engine.Query");
      auto outcome = engine->Query(texts[q.shape * graph.n + q.vertex], *snap);
      query.Stop();
      const double ms = whole.Stop();
      ++log.attempted;
      if (!outcome.ok()) {
        ledger->Fail("serve: " + QueryText(q) + ": " +
                     outcome.status().ToString());
        continue;
      }
      log.latency.Add(ms);
      log.rows += static_cast<double>(outcome->answer.rows.size());
      if (i % 64 == 0) {
        log.live += static_cast<double>(session->registry().live_snapshots());
        ++log.live_samples;
      }
      if (i % log.record_every == 0) {
        if (log.records.size() == kMaxRecordsPerReader) {
          // Keep every other record and sample half as often, so that the
          // checked answers span the whole run.
          for (size_t k = 1; 2 * k < log.records.size(); ++k) {
            log.records[k] = std::move(log.records[2 * k]);
          }
          log.records.resize((log.records.size() + 1) / 2);
          log.record_every *= 2;
        }
        if (i % log.record_every == 0) {
          log.records.push_back({outcome->epoch, q, outcome->answer.rows});
        }
      }
    }
  };

  auto writer = [&] {
    go.wait();
    const Clock::duration period = Seconds(1.0 / rate);
    for (size_t k = 0; k < batches.size(); ++k) {
      const Clock::time_point due = start + period * static_cast<int64_t>(k);
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point began = Clock::now();
      SetRequest((uint64_t{kReaders + 1} << 48) | k);
      Span span("engine.ApplyUpdate(serving)");
      auto result = engine->ApplyUpdate(batches[k]);
      const double apply_ms = span.Stop();
      const Clock::time_point done = Clock::now();
      ledger->Attempt();
      if (!result.ok()) {
        ledger->Fail("serve: update " + std::to_string(k) + ": " +
                     result.status().ToString());
        break;  // the session may be inconsistent now
      }
      if (result->used_oracle) {
        ledger->Fail("serve: update " + std::to_string(k) +
                     " fell back to full recompute");
      }
      writes.push_back({k, session->epoch(), MsBetween(due, done),
                        MsBetween(due, began), apply_ms});
    }
  };

  const inflog::EvalStats before = session->stats();
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(writer);
  warmed.wait();
  start = Clock::now();
  deadline = start + Seconds(options.seconds);
  go.count_down();
  for (std::thread& t : threads) t.join();
  const double wall_s = MsBetween(start, Clock::now()) / 1e3;
  const inflog::EvalStats after = session->stats();
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> query_ms;
  std::vector<Record> records;
  uint64_t queries = 0;
  double pin_ms = 0, rows = 0, live = 0, live_samples = 0;
  for (ReaderLog& log : logs) {
    ledger->Attempt(log.attempted);
    queries += log.latency.seen();
    query_ms.insert(query_ms.end(), log.latency.values().begin(),
                    log.latency.values().end());
    for (Record& r : log.records) records.push_back(std::move(r));
    pin_ms += log.pin_ms;
    rows += log.rows;
    live += log.live;
    live_samples += static_cast<double>(log.live_samples);
  }
  CheckRecords(graph, updates, writes, std::move(records), *engine->symbols(),
               ledger);
  report.checked = true;

  std::vector<double> update_ms, lag_ms, apply_ms;
  for (const WriterEntry& w : writes) {
    update_ms.push_back(w.latency_ms);
    lag_ms.push_back(w.lag_ms);
    apply_ms.push_back(w.apply_ms);
  }

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup.Median(&SetupTimes::total_s);
    e2e.op1_ms = std::move(query_ms);
    e2e.op1_tail = 0.99;
    e2e.op2_ms = update_ms;
    e2e.ops_per_s = static_cast<double>(queries) / wall_s;
    e2e.peak_rss_mb = peak_rss_mb;
    AddEndToEnd(e2e, &report);
    return report;
  }

  LayerValues layers;
  layers["ast.parse_ms"] = setup.Median(&SetupTimes::parse_ms);
  layers["ast.analyze_ms"] = setup.Median(&SetupTimes::analyze_ms);
  const double nq = queries > 0 ? static_cast<double>(queries) : 1;
  layers["serve.snapshot.pin_us"] = pin_ms * 1e3 / nq;
  layers["serve.snapshot.live"] = live_samples > 0 ? live / live_samples : 0;
  layers["serve.query.answer_rows"] = rows / nq;
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  layers["serve.cache.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  layers["serve.cache.invalidations_per_update"] =
      writes.empty() ? 0
                     : static_cast<double>(after.cache_invalidations -
                                           before.cache_invalidations) /
                           static_cast<double>(writes.size());
  layers["harness.writer_lag_ms"] = Mean(lag_ms);

  // Uncached query evaluation on the final pinned snapshot, per shape.
  {
    const inflog::serve::SnapshotHandle snap = session->Pin();
    Rng probe_rng(options.seed ^ 0x5eed);
    const std::vector<QuerySpec> probes = QueryStream(graph.n, 4096, &probe_rng);
    for (Shape shape : {kPoint, kJoin, kMisordered}) {
      std::vector<double> us;
      size_t taken = 0;
      for (const QuerySpec& q : probes) {
        if (q.shape != shape || taken == 32) continue;
        ++taken;
        auto parsed = inflog::serve::ParseServeQuery(
            texts[q.shape * graph.n + q.vertex], snap->symbols());
        if (!parsed.ok()) {
          ledger->Fail("ParseServeQuery: " + parsed.status().ToString());
          continue;
        }
        for (int rep = 0; rep < 5; ++rep) {
          Span span("serve::EvalServeQuery");
          auto answer =
              inflog::serve::EvalServeQuery(*parsed, session->program(), *snap);
          us.push_back(span.Stop() * 1e3);
          if (!answer.ok()) ledger->Fail("EvalServeQuery failed");
        }
      }
      layers[std::string("serve.query.eval_us.") + kShapeNames[shape]] =
          Median(us);
    }
  }

  // The same update stream replayed through BeginIncremental, without
  // snapshots or readers: the maintenance share of each serving update.
  {
    SetupTimes times;
    auto replay = LoadEngine(kServeProgram, facts, &times, ledger);
    if (replay != nullptr) {
      const inflog::Status status =
          replay->BeginIncremental(inflog::SemanticsKind::kStratified, eval);
      if (!status.ok()) ledger->Fail("BeginIncremental: " + status.ToString());
      CpuMeter cpu;
      inflog::EvalStats total;
      std::vector<double> maintain_ms, publish_ms;
      for (size_t i = 0; i < writes.size() && status.ok(); ++i) {
        const inflog::UpdateBatch batch =
            MakeBatch(*replay, updates[writes[i].update]);
        CpuSample sample(&cpu);
        Span span("engine.ApplyUpdate(incremental)");
        auto result = replay->ApplyUpdate(batch);
        const double ms = span.Stop();
        sample.Stop(ms);
        if (!result.ok()) {
          ledger->Fail("incremental replay: " + result.status().ToString());
          break;
        }
        total.Add(result->stats);
        maintain_ms.push_back(ms);
        publish_ms.push_back(apply_ms[i] - ms);
      }
      const double n = maintain_ms.empty() ? 1 : static_cast<double>(maintain_ms.size());
      AddEvalStats(total, n, &layers);
      cpu.Into(&layers);
      layers["incremental.maintain_ms.p50"] = Median(maintain_ms);
      layers["incremental.maintain_ms.p90"] = Percentile(maintain_ms, 0.9);
      layers["incremental.del_candidates"] =
          static_cast<double>(total.incremental_del_candidates) / n;
      layers["incremental.rederived"] =
          static_cast<double>(total.incremental_rederived) / n;
      layers["incremental.rederive_ratio"] =
          total.incremental_del_candidates == 0
              ? 0
              : static_cast<double>(total.incremental_rederived) /
                    static_cast<double>(total.incremental_del_candidates);
      auto stats = replay->IncrementalStats();
      const double oracle_runs =
          stats.ok() ? static_cast<double>((*stats)->incremental_oracle_runs) : 0;
      layers["incremental.oracle_runs"] = oracle_runs;
      if (oracle_runs > 0) {
        ledger->Fail("incremental replay fell back to full recompute");
      }
      layers["serve.snapshot.publish_ms.p50"] = Median(publish_ms);
      layers["serve.snapshot.publish_ms.p90"] = Percentile(publish_ms, 0.9);
    }
  }
  AddPerLayer(layers, &report);
  report.extra.push_back({"op1_ms.p50", Median(query_ms), "ms"});
  return report;
}

}  // namespace perfbench
