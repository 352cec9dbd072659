# ctest script for the cache-served output check (label: cli). For each
# flag set in {default, --no-slice}, runs
#
#   wsvcli verify <SPEC> <PROP> <DB> --unchecked --pool <POOL> <flags>
#
# once without a cache, then twice with --cache-dir <CACHE_DIR>: the
# first cached run finds the entries the earlier flag set left, the
# second is a warm hit. Both must print byte-for-byte what the cold run
# prints — a verdict computed under one setting must never be served
# under another. Invoked as
#   cmake -DWSVCLI=... -DSPEC=... -P run_cache_cli_check.cmake
# (see tools/CMakeLists.txt).

foreach(var WSVCLI SPEC PROP DB POOL CACHE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_cache_cli_check: missing -D${var}=")
  endif()
endforeach()

file(REMOVE_RECURSE "${CACHE_DIR}")

# Sets `out_var` to the exit code and stdout of one verify run.
function(run_verify out_var)
  execute_process(
    COMMAND "${WSVCLI}" verify "${SPEC}" "${PROP}" "${DB}"
            --unchecked --pool "${POOL}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
    message(FATAL_ERROR "wsvcli verify ${ARGN} failed (rc=${rc}):\n${err}")
  endif()
  set(${out_var} "exit ${rc}\n${out}" PARENT_SCOPE)
endfunction()

foreach(flags IN ITEMS "" "--no-slice")
  separate_arguments(args UNIX_COMMAND "${flags}")
  run_verify(cold ${args})
  foreach(pass 1 2)
    run_verify(cached ${args} --cache-dir "${CACHE_DIR}")
    if(NOT cached STREQUAL cold)
      message(FATAL_ERROR
          "cached run ${pass} with flags '${flags}' differs from the cold "
          "run:\n--- cold\n${cold}\n--- cached\n${cached}")
    endif()
  endforeach()
endforeach()
