# ctest script for the golden wsvcli checks (label: cli). Runs
#
#   wsvcli <ARGS...>
#
# where ARGS starts with the subcommand (`verify`, `check-errors`),
# and requires the exit code to be EXPECT_RC and stdout to equal the
# checked-in file EXPECTED byte for byte. Invoked as
#   cmake -DWSVCLI=... "-DARGS=a;b;c" -DEXPECTED=... -DEXPECT_RC=...
#         -P run_golden_check.cmake
# (see tools/CMakeLists.txt).

foreach(var WSVCLI ARGS EXPECTED EXPECT_RC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden_check: missing -D${var}=")
  endif()
endforeach()

execute_process(
  COMMAND "${WSVCLI}" ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
      "wsvcli ${ARGS} exited ${rc}, expected ${EXPECT_RC}:\n${err}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR
      "wsvcli ${ARGS} stdout differs from ${EXPECTED}:\n--- expected\n"
      "${expected}\n--- actual\n${out}")
endif()
