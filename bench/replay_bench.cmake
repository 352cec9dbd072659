# Driver for the replay cache benchmark (cmake -P script): generates
# the deterministic 1000-request workload, replays it through `wsvcli
# replay` against a fresh cache directory, and — when BUDGETS is set —
# holds the report to bench/budgets_replay.json (repeat hit rate >= 0.9;
# zero products built, graph nodes and FO leaf work on cache-served
# requests; hit p99 at most 0.25x the miss/invalidated p50).
#
# Variables: PYTHON, WSVCLI, SRC_DIR, WORK_DIR, OUT_JSON, [BUDGETS]

execute_process(
  COMMAND ${PYTHON} ${SRC_DIR}/tools/gen_replay.py
          --requests 1000 --seed 42
          --out ${WORK_DIR}/replay_jobs.jsonl
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "gen_replay.py failed (${rv})")
endif()

# A fresh cache: the budgets measure within-stream reuse, not leftovers.
file(REMOVE_RECURSE ${WORK_DIR}/replay_cache)

execute_process(
  COMMAND ${WSVCLI} replay ${WORK_DIR}/replay_jobs.jsonl
          --cache-dir ${WORK_DIR}/replay_cache --quiet
          --bench-json ${OUT_JSON}
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "wsvcli replay failed (${rv})")
endif()

if(BUDGETS)
  execute_process(
    COMMAND ${PYTHON} ${SRC_DIR}/tools/bench_guard.py
            ${OUT_JSON} ${BUDGETS} --json-report
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "replay budgets violated (${rv})")
  endif()
endif()
