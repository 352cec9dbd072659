#include "verify/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "analysis/slice.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace wsv {

namespace {

// The winning event of a sweep: the lowest-index counterexample or task
// error seen so far. `best_index` doubles as the cancellation signal the
// workers poll (UINT64_MAX = no event yet); the full event payload is
// only touched under `mu`.
struct EventBoard {
  std::mutex mu;
  std::atomic<uint64_t> best_index{UINT64_MAX};
  bool is_error = false;
  Status error = Status::OK();
  std::optional<CounterExample> cex;
  // When the first event landed (for time-to-first-counterexample and
  // cancellation-drain telemetry). 0 = no event yet.
  uint64_t first_event_ns = 0;

  // Installs the event if it beats the current best. Returns true if it
  // won (callers then cancel work that can no longer win).
  bool Record(uint64_t index, bool is_err, Status st,
              std::optional<CounterExample> c) {
    std::lock_guard<std::mutex> lock(mu);
    if (index >= best_index.load(std::memory_order_relaxed)) return false;
    if (first_event_ns == 0) first_event_ns = WSV_OBS_NOW();
    best_index.store(index, std::memory_order_relaxed);
    is_error = is_err;
    error = std::move(st);
    cex = std::move(c);
    return true;
  }
};

}  // namespace

ParallelLtlVerifier::ParallelLtlVerifier(const WebService* service,
                                         LtlVerifyOptions options, int jobs)
    : service_(service),
      options_(std::move(options)),
      jobs_(ResolveJobCount(jobs)) {}

StatusOr<LtlVerifyResult> ParallelLtlVerifier::Verify(
    const TemporalProperty& property) {
  // The multi-database sweep parallelizes across databases, not inside
  // one.
  WSV_RETURN_IF_ERROR(ValidateVerifyOptions(options_));
  if (jobs_ == 1) {
    return LtlVerifier(service_, options_).Verify(property);
  }
  WSV_SPAN("verify/parallel_sweep");
  [[maybe_unused]] const uint64_t sweep_start = WSV_OBS_NOW();

  WSV_ASSIGN_OR_RETURN(
      BuchiAutomaton automaton,
      BuildNegatedAutomaton(*service_, property,
                            options_.require_input_bounded));

  // Property cone reduction, shared by every per-database task: each
  // task sweeps the sliced spec first (abort-on-lasso) and re-checks
  // the full spec only from the first lasso index (see ltl_verifier.h).
  std::unique_ptr<WebService> sliced;
  if (analysis::SliceEnabled() && options_.enable_slice) {
    sliced = analysis::SlicePropertyCone(*service_, property).service;
  }

  DbEnumOptions db_options = options_.db;
  for (Value v : property.formula->Literals()) {
    db_options.base_values.push_back(v);
  }

  EventBoard board;
  std::mutex stats_mu;
  uint64_t total_graph_nodes = 0;
  uint64_t total_product_states = 0;
  bool complete = true;

  // Backpressure: the enumerator runs far ahead of the workers, so cap
  // the number of submitted-but-unfinished tasks to keep memory (each
  // task holds a database copy) bounded.
  std::condition_variable slot_cv;
  std::mutex slot_mu;
  uint64_t outstanding = 0;
  const uint64_t max_outstanding = static_cast<uint64_t>(jobs_) * 2;

  ThreadPool pool(jobs_);

  auto cancelled_below = [&board](uint64_t d) {
    return board.best_index.load(std::memory_order_relaxed) < d;
  };
  auto record = [&](uint64_t d, bool is_err, Status st,
                    std::optional<CounterExample> c) {
    if (board.Record(d, is_err, std::move(st), std::move(c))) {
      WSV_COUNT1("verify/cancellations_signalled");
      size_t dropped = pool.CancelPending();
      if (dropped > 0) {
        std::lock_guard<std::mutex> lock(slot_mu);
        outstanding -= dropped;
      }
      slot_cv.notify_all();
    }
  };

  uint64_t db_index = 0;
  auto enum_result = EnumerateDatabases(
      *service_, db_options,
      [&](const Instance& db) -> StatusOr<bool> {
        const uint64_t d = db_index++;
        if (cancelled_below(d)) {
          WSV_COUNT1("verify/dbs_pruned_by_cancel");
          return true;  // stop enumerating
        }
        {
          std::unique_lock<std::mutex> lock(slot_mu);
          slot_cv.wait(lock, [&] {
            return outstanding < max_outstanding ||
                   board.best_index.load(std::memory_order_relaxed) !=
                       UINT64_MAX;
          });
          if (cancelled_below(d)) return true;
          ++outstanding;
        }
        // The enumerator reuses its instance buffer, so the task gets a
        // copy.
        auto db_copy = std::make_shared<Instance>(db);
        pool.Submit([&, d, db_copy] {
          struct SlotGuard {
            std::mutex& mu;
            uint64_t& outstanding;
            std::condition_variable& cv;
            ~SlotGuard() {
              {
                std::lock_guard<std::mutex> lock(mu);
                --outstanding;
              }
              cv.notify_all();
            }
          } guard{slot_mu, outstanding, slot_cv};
          if (cancelled_below(d)) return;

          LtlVerifyOptions opts = options_;
          opts.graph.cancel_check = [&board, d] {
            return board.best_index.load(std::memory_order_relaxed) < d;
          };

          uint64_t sweep_begin = 0;
          if (sliced != nullptr) {
            // Phase 1: the sliced spec in abort-on-lasso mode. Lasso-
            // free means this database holds (the sliced graph is a
            // quotient of the full one); otherwise the full sweep
            // resumes at the marker index.
            LtlVerifyOptions sliced_opts =
                SlicedCheckOptions(opts, *service_, property, *db_copy);
            auto sliced_or = LtlDatabaseCheck::Create(
                sliced.get(), sliced_opts, &property, &automaton, *db_copy);
            if (!sliced_or.ok()) {
              if (sliced_or.status().code() != StatusCode::kCancelled) {
                record(d, true, sliced_or.status(), std::nullopt);
              }
              return;
            }
            uint64_t sliced_product_states = 0;
            auto marker_or = sliced_or->CheckValuations(
                0, sliced_or->NumValuations(),
                [&board, d](uint64_t) {
                  return board.best_index.load(std::memory_order_relaxed) < d;
                },
                &sliced_product_states);
            {
              std::lock_guard<std::mutex> lock(stats_mu);
              total_graph_nodes += sliced_or->graph_nodes();
              total_product_states += sliced_product_states;
              if (sliced_or->truncated()) complete = false;
            }
            if (!marker_or.ok()) {
              if (marker_or.status().code() != StatusCode::kCancelled) {
                record(d, true, marker_or.status(), std::nullopt);
              }
              return;
            }
            if (!marker_or->has_value()) return;  // holds on this database
            sweep_begin = (**marker_or).valuation_index;
          }

          auto check_or = LtlDatabaseCheck::Create(service_, opts, &property,
                                                   &automaton, *db_copy);
          if (!check_or.ok()) {
            if (check_or.status().code() != StatusCode::kCancelled) {
              record(d, true, check_or.status(), std::nullopt);
            }
            return;
          }
          uint64_t product_states = 0;
          auto found_or = check_or->CheckValuations(
              sweep_begin, check_or->NumValuations(),
              [&board, d](uint64_t) {
                return board.best_index.load(std::memory_order_relaxed) < d;
              },
              &product_states);
          {
            std::lock_guard<std::mutex> lock(stats_mu);
            total_graph_nodes += check_or->graph_nodes();
            total_product_states += product_states;
            if (check_or->truncated()) complete = false;
          }
          if (!found_or.ok()) {
            if (found_or.status().code() != StatusCode::kCancelled) {
              record(d, true, found_or.status(), std::nullopt);
            }
            return;
          }
          if (found_or->has_value()) {
            record(d, false, Status::OK(), std::move((**found_or).cex));
          }
        });
        return false;
      });
  pool.Wait();
  if (board.first_event_ns != 0) {
    if (!board.is_error) {
      WSV_HIST("verify/time_to_first_cex_ns",
               board.first_event_ns - sweep_start);
    }
    // How long in-flight work took to drain after the winner was known —
    // the latency the three-layer cancellation is supposed to keep small.
    WSV_HIST("verify/cancel_drain_ns", WSV_OBS_NOW() - board.first_event_ns);
  }

  LtlVerifyResult result;
  {
    std::lock_guard<std::mutex> lock(stats_mu);
    result.total_graph_nodes = total_graph_nodes;
    result.total_product_states = total_product_states;
    result.complete_within_bounds = complete;
  }
  const uint64_t best = board.best_index.load();
  if (best != UINT64_MAX) {
    if (board.is_error) return board.error;
    result.holds = false;
    result.counterexample = std::move(board.cex);
    // What the serial sweep would have visited before stopping.
    result.databases_checked = best + 1;
    return result;
  }
  // No event anywhere: an enumerator failure (e.g. the instance cap) is
  // the outcome, exactly as in the serial verifier.
  if (!enum_result.ok()) return enum_result.status();
  result.databases_checked = db_index;
  return result;
}

StatusOr<LtlVerifyResult> ParallelLtlVerifier::VerifyOnDatabase(
    const TemporalProperty& property, const Instance& database) {
  WSV_RETURN_IF_ERROR(ValidateVerifyOptions(options_));
  if (jobs_ == 1) {
    return LtlVerifier(service_, options_).VerifyOnDatabase(property,
                                                            database);
  }
  WSV_SPAN("verify/parallel_db_sweep");
  [[maybe_unused]] const uint64_t sweep_start = WSV_OBS_NOW();

  WSV_ASSIGN_OR_RETURN(
      BuchiAutomaton automaton,
      BuildNegatedAutomaton(*service_, property,
                            options_.require_input_bounded));

  LtlVerifyResult result;
  result.databases_checked = 1;
  std::mutex stats_mu;
  uint64_t total_product_states = 0;

  // One chunked sweep of [from, n) over `chk`, lowest-index-wins on
  // `board`. The context is immutable; chunks share it freely. Each
  // chunk's sweep keeps its own FO-leaf memo and valuation-class table
  // (call-local state in CheckValuations), so chunking trades collapse
  // for balance: with class collapsing on, one contiguous shard per
  // worker maximizes the per-shard collapse rate (and repeats cost next
  // to nothing, so imbalance matters little); with the naive sweep
  // forced, oversubscribe 4x so uneven valuation costs load-balance.
  // Work counters sum exactly across shards either way — only the
  // per-shard split (memo hits vs misses, classes vs hits) depends on
  // the cut.
  auto run_chunked = [&](const LtlDatabaseCheck& chk, uint64_t from,
                         EventBoard& board) {
    const uint64_t n = chk.NumValuations();
    if (from >= n) return;
    const uint64_t range = n - from;
    const uint64_t num_chunks = std::min<uint64_t>(
        range,
        static_cast<uint64_t>(jobs_) * (ClassCollapseEnabled() ? 1 : 4));
    const uint64_t chunk = (range + num_chunks - 1) / num_chunks;
    ThreadPool pool(jobs_);
    for (uint64_t begin = from; begin < n; begin += chunk) {
      const uint64_t end = std::min(n, begin + chunk);
      WSV_COUNT1("verify/valuation_chunks");
      pool.Submit([&, begin, end] {
        if (board.best_index.load(std::memory_order_relaxed) <= begin) {
          return;
        }
        uint64_t product_states = 0;
        auto found_or = chk.CheckValuations(
            begin, end,
            [&board](uint64_t i) {
              return board.best_index.load(std::memory_order_relaxed) <= i;
            },
            &product_states);
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          total_product_states += product_states;
        }
        if (!found_or.ok()) {
          if (found_or.status().code() != StatusCode::kCancelled) {
            // Key the error by the chunk's first index (a lower bound
            // on where it occurred).
            if (board.Record(begin, true, found_or.status(), std::nullopt)) {
              WSV_COUNT1("verify/cancellations_signalled");
              pool.CancelPending();
            }
          }
          return;
        }
        if (found_or->has_value()) {
          if (board.Record((**found_or).valuation_index, false, Status::OK(),
                           std::move((**found_or).cex))) {
            WSV_COUNT1("verify/cancellations_signalled");
            pool.CancelPending();
          }
        }
      });
    }
    pool.Wait();
  };

  // Phase 1 (when slicing applies): chunked abort-on-lasso sweep of the
  // sliced spec. The lowest marker index is exactly the first index
  // with an accepting lasso — chunks below it ran to completion without
  // one — so the full-spec phase resumes there; no marker anywhere
  // decides HOLDS outright.
  uint64_t sweep_begin = 0;
  std::unique_ptr<WebService> sliced;
  if (analysis::SliceEnabled() && options_.enable_slice) {
    sliced = analysis::SlicePropertyCone(*service_, property).service;
  }
  if (sliced != nullptr) {
    LtlVerifyOptions sliced_opts =
        SlicedCheckOptions(options_, *service_, property, database);
    WSV_ASSIGN_OR_RETURN(
        LtlDatabaseCheck sliced_check,
        LtlDatabaseCheck::Create(sliced.get(), sliced_opts, &property,
                                 &automaton, database));
    EventBoard marker_board;
    run_chunked(sliced_check, 0, marker_board);
    result.total_graph_nodes += sliced_check.graph_nodes();
    if (sliced_check.truncated()) result.complete_within_bounds = false;
    if (marker_board.best_index.load() != UINT64_MAX) {
      if (marker_board.is_error) return marker_board.error;
      sweep_begin = marker_board.best_index.load();
    } else {
      result.total_product_states = total_product_states;
      return result;  // lasso-free everywhere: holds
    }
  }

  WSV_ASSIGN_OR_RETURN(
      LtlDatabaseCheck check,
      LtlDatabaseCheck::Create(service_, options_, &property, &automaton,
                               database));
  const uint64_t n = check.NumValuations();
  if (n == 0) {
    result.total_graph_nodes += check.graph_nodes();
    if (check.truncated()) result.complete_within_bounds = false;
    return result;
  }

  EventBoard board;
  run_chunked(check, sweep_begin, board);
  if (board.first_event_ns != 0) {
    if (!board.is_error) {
      WSV_HIST("verify/time_to_first_cex_ns",
               board.first_event_ns - sweep_start);
    }
    WSV_HIST("verify/cancel_drain_ns", WSV_OBS_NOW() - board.first_event_ns);
  }

  // Graph accounting after the sweeps: the graphs are expanded (and
  // possibly truncated) by the per-shard sweeps.
  result.total_graph_nodes += check.graph_nodes();
  if (check.truncated()) result.complete_within_bounds = false;
  result.total_product_states = total_product_states;
  if (board.best_index.load() != UINT64_MAX) {
    if (board.is_error) return board.error;
    result.holds = false;
    result.counterexample = std::move(board.cex);
  }
  return result;
}

}  // namespace wsv
