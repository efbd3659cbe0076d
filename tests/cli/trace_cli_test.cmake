# End-to-end CLI checks for the on-disk trace replay path, run under
# ctest. Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -P trace_cli_test.cmake
#
# Covers: missing trace file exits 2 (bad-args class) naming the path;
# parse errors, unsorted cycles and overflowing arrivals name the 1-based
# line number and exit 1; --dump-trace then --trace-file round-trips
# through a flat and a hybrid device, emitting valid JSON; a threaded
# replay, and a replay of a CRLF twin with trailing fields, give the
# serial replay's record.

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

# The one record of a --json report without the fields that name the
# host, the run threads or the trace file.
function(read_record file out_var)
  file(READ ${file} json)
  string(JSON record GET "${json}" results 0)
  foreach(key host run_threads trace_file workload experiment config_file)
    string(JSON record REMOVE "${record}" ${key})
  endforeach()
  set(${out_var} "${record}" PARENT_SCOPE)
endfunction()

# --- 4. Dump a generated trace (several times the reader's 64 KiB
# block), replay it flat and hybrid, check JSON.
execute_process(
  COMMAND ${COMET_SIM} --dump-trace ${WORK_DIR}/gen.trace
          --workload gcc_like --requests 20000
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

# --- 4b. The same trace replayed at --run-threads 4, and its twin with
# CRLF endings and trailing fields replayed serially, give the serial
# replay's record.
file(READ ${WORK_DIR}/gen.trace text)
string(REPLACE "\n" " 0xdeadbeef\t3\r\n" text "${text}")
file(WRITE ${WORK_DIR}/gen_crlf.trace "${text}")
read_record(${WORK_DIR}/comet.json serial)
foreach(variant "gen.trace;--run-threads;4" "gen_crlf.trace")
  list(POP_FRONT variant trace)
  execute_process(
    COMMAND ${COMET_SIM} --device comet --trace-file ${WORK_DIR}/${trace}
            ${variant} --json ${WORK_DIR}/variant.json
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("replay ${trace} ${variant}" "${rc}" 0)
  read_record(${WORK_DIR}/variant.json record)
  if(NOT record STREQUAL serial)
    message(FATAL_ERROR "replay of ${trace} ${variant} diverged from the "
                        "serial replay:\n${record}\n--- vs ---\n${serial}")
  endif()
endforeach()

# --- 5. --dump-trace without a single workload: exit 2.
execute_process(
  COMMAND ${COMET_SIM} --dump-trace ${WORK_DIR}/bad.trace
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
expect_rc("dump-trace needs workload" "${rc}" 2)

message(STATUS "trace CLI tests passed")
