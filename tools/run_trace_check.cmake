# ctest driver for the trace-export round trip (label: obs). Runs
#
#   wsvcli verify <SPEC> <PROP> <DB> --pool <POOL> --jobs 2 \
#       --trace-out <TRACE_OUT> --stats-json <STATS_OUT>
#
# then validates the trace with tools/check_trace.py. Invoked as
#   cmake -DWSVCLI=... -DSPEC=... -P run_trace_check.cmake
# (see tools/CMakeLists.txt). The property is passed base64-ish-free via
# PROP; it may contain spaces and parentheses.

foreach(var WSVCLI SPEC PROP DB POOL PYTHON CHECKER TRACE_OUT STATS_OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_trace_check: missing -D${var}=")
  endif()
endforeach()

execute_process(
  COMMAND "${WSVCLI}" verify "${SPEC}" "${PROP}" "${DB}"
          --pool "${POOL}" --jobs 2
          --trace-out "${TRACE_OUT}" --stats-json "${STATS_OUT}"
  RESULT_VARIABLE verify_rc
  OUTPUT_VARIABLE verify_out
  ERROR_VARIABLE verify_err)
if(NOT verify_rc EQUAL 0)
  message(FATAL_ERROR
      "wsvcli verify failed (rc=${verify_rc}):\n${verify_out}\n${verify_err}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "${TRACE_OUT}"
          # The verifier expands the configuration graph inside the
          # sweep span (there is no separate config_graph/build span).
          --require-span verify/parallel_db_sweep
          --require-span verify/check_valuations
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_trace.py rejected ${TRACE_OUT}")
endif()

# The stats JSON must parse too (a one-line sanity check on --stats-json).
execute_process(
  COMMAND "${PYTHON}" -c "import json,sys; json.load(open(sys.argv[1]))"
          "${STATS_OUT}"
  RESULT_VARIABLE stats_rc)
if(NOT stats_rc EQUAL 0)
  message(FATAL_ERROR "stats JSON ${STATS_OUT} does not parse")
endif()
