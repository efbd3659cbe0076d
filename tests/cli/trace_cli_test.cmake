# End-to-end CLI checks for the on-disk trace replay path, run under
# ctest. Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -P trace_cli_test.cmake
#
# Covers: missing trace file exits 2 (bad-args class) naming the path;
# parse errors, unsorted cycles and overflowing arrivals name the 1-based
# line number and exit 1; --dump-trace then --trace-file round-trips
# through a flat and a hybrid device, emitting valid JSON.

if(NOT DEFINED COMET_SIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DCOMET_SIM=... and -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_rc label rc expected)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR "${label}: expected exit ${expected}, got ${rc}")
  endif()
endfunction()

function(expect_contains label haystack needle)
  string(FIND "${haystack}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${label}: expected to find '${needle}' in:\n${haystack}")
  endif()
endfunction()

# --- 1. Missing trace file: exit 2 before any simulation runs.
execute_process(
  COMMAND ${COMET_SIM} --device comet --trace-file ${WORK_DIR}/nope.trace
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("missing trace file" "${rc}" 2)
expect_contains("missing trace file" "${err}" "nope.trace")

# --- 2. Malformed trace: exit 1 with the line number and offending text.
file(WRITE ${WORK_DIR}/broken.trace "100 R 0x1000\nthis is not a record\n")
execute_process(
  COMMAND ${COMET_SIM} --device comet --trace-file ${WORK_DIR}/broken.trace
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("malformed trace" "${rc}" 1)
expect_contains("malformed trace" "${err}" "line 2")
expect_contains("malformed trace" "${err}" "this is not a record")

# --- 3. Non-monotonic cycles: same diagnostic style.
file(WRITE ${WORK_DIR}/unsorted.trace "100 R 0x0\n200 W 0x40\n150 R 0x80\n")
execute_process(
  COMMAND ${COMET_SIM} --device comet --trace-file ${WORK_DIR}/unsorted.trace
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("unsorted trace" "${rc}" 1)
expect_contains("unsorted trace" "${err}" "non-monotonic")
expect_contains("unsorted trace" "${err}" "line 3")

# --- 3b. A cycle whose picosecond arrival overflows 64 bits: exit 1
# naming the line, never a wrapped arrival time.
file(WRITE ${WORK_DIR}/big.trace "100 R 0x10\n18446744073709551615 W 0x20\n")
execute_process(
  COMMAND ${COMET_SIM} --device comet --trace-file ${WORK_DIR}/big.trace
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("overflowing cycle" "${rc}" 1)
expect_contains("overflowing cycle" "${err}" "line 2")
expect_contains("overflowing cycle" "${err}" "arrival overflow")

# --- 4. Dump a generated trace, replay it flat and hybrid, check JSON.
execute_process(
  COMMAND ${COMET_SIM} --dump-trace ${WORK_DIR}/gen.trace
          --workload gcc_like --requests 500
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("dump-trace" "${rc}" 0)

foreach(device comet hybrid-comet)
  execute_process(
    COMMAND ${COMET_SIM} --device ${device}
            --trace-file ${WORK_DIR}/gen.trace
            --json ${WORK_DIR}/${device}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  expect_rc("replay ${device}" "${rc}" 0)
  expect_contains("replay ${device}" "${out}" "gen.trace")
  file(READ ${WORK_DIR}/${device}.json json)
  expect_contains("json ${device}" "${json}" "\"trace_file\": ")
  expect_contains("json ${device}" "${json}" "gen.trace")
endforeach()

# --- 5. --dump-trace without a single workload: exit 2.
execute_process(
  COMMAND ${COMET_SIM} --dump-trace ${WORK_DIR}/bad.trace
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
expect_rc("dump-trace needs workload" "${rc}" 2)

message(STATUS "trace CLI tests passed")
