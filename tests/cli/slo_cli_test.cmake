# End-to-end CLI checks of the --assert-slo health gates, run under
# ctest. Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -P slo_cli_test.cmake
#
# Covers the exit codes through the real binary: a passing predicate
# exits 0; a violated one exits 3 after the JSON report is written,
# with slo.pass == false and the predicate named on stderr; a malformed
# predicate or an unknown metric exits 2; each pre-metric-table SLO
# spelling exits 2 naming its JSON spelling. Also checks that a path
# with a tab yields a --json report that escapes it and that CMake's
# JSON parser reads back.

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

# Reads ${file} as JSON and stores the value at the given path in out_var.
function(json_get label file out_var)
  file(READ ${file} json)
  string(JSON value ERROR_VARIABLE error GET "${json}" ${ARGN})
  if(error)
    message(FATAL_ERROR "${label}: ${error}")
  endif()
  set(${out_var} "${value}" PARENT_SCOPE)
endfunction()

set(run --device comet --workload gcc_like --requests 1000)

# --- 1. A predicate that holds exits 0 with slo.pass == true.
execute_process(
  COMMAND ${COMET_SIM} ${run} --assert-slo "p99_read_latency_ns<=1e9"
          --json ${WORK_DIR}/ok.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("passing SLO" "${rc}" 0)
json_get("passing SLO" ${WORK_DIR}/ok.json pass results 0 slo pass)
if(NOT pass STREQUAL "ON")
  message(FATAL_ERROR "passing SLO: slo.pass is ${pass}")
endif()

# --- 2. A violated predicate exits 3, after the report is on disk.
file(REMOVE ${WORK_DIR}/bad.json)
execute_process(
  COMMAND ${COMET_SIM} ${run}
          --assert-slo "p99_read_latency_ns<=1,bandwidth_gbps>=0"
          --json ${WORK_DIR}/bad.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("violated SLO" "${rc}" 3)
expect_contains("violated SLO" "${err}"
                "SLO violation: p99_read_latency_ns<=1 (actual ")
json_get("violated SLO" ${WORK_DIR}/bad.json pass results 0 slo pass)
if(NOT pass STREQUAL "OFF")
  message(FATAL_ERROR "violated SLO: slo.pass is ${pass}")
endif()
json_get("violated SLO" ${WORK_DIR}/bad.json metric
         results 0 slo checks 0 metric)
if(NOT metric STREQUAL "p99_read_latency_ns")
  message(FATAL_ERROR "violated SLO: first check names '${metric}'")
endif()

# --- 3. Malformed predicates and unknown metrics exit 2 at parse time.
foreach(spec "p99_read_latency_ns" "p99_read_latency_ns<=abc"
             "wall_s<=1,,hit_rate>=0" "bogus_metric<=1")
  execute_process(
    COMMAND ${COMET_SIM} ${run} --assert-slo "${spec}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("malformed '${spec}'" "${rc}" 2)
  expect_contains("malformed '${spec}'" "${err}" "bad SLO predicate")
endforeach()
expect_contains("unknown metric" "${err}" "unknown metric 'bogus_metric'")
expect_contains("unknown metric" "${err}" "requests_per_s")

# --- 4. Every old spelling exits 2 and names its JSON spelling.
foreach(kind avg p50 p95 p99)
  foreach(op read write)
    set(old ${kind}_${op}_ns)
    set(new ${kind}_${op}_latency_ns)
    execute_process(
      COMMAND ${COMET_SIM} ${run} --assert-slo "${old}<=1"
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    expect_rc("old name ${old}" "${rc}" 2)
    expect_contains("old name ${old}" "${err}" "did you mean '${new}'")
  endforeach()
endforeach()

# --- 5. Control characters in a string field stay valid JSON.
set(trace "${WORK_DIR}/t\tab.nvt")
execute_process(
  COMMAND ${COMET_SIM} --dump-trace ${trace} --workload gcc_like
          --requests 200
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("dump-trace" "${rc}" 0)
execute_process(
  COMMAND ${COMET_SIM} --device comet --trace-file ${trace}
          --json ${WORK_DIR}/control.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("control-character path" "${rc}" 0)
json_get("control-character path" ${WORK_DIR}/control.json path
         results 0 trace_file)
if(NOT path STREQUAL trace)
  message(FATAL_ERROR "trace_file reads back as '${path}', not '${trace}'")
endif()
# CMake's parser tolerates raw control characters inside strings; JSON
# does not, so the tab must be written as an escape.
file(READ ${WORK_DIR}/control.json json)
string(FIND "${json}" "\t" raw_tab)
if(NOT raw_tab EQUAL -1)
  message(FATAL_ERROR "control.json holds a raw tab:\n${json}")
endif()
expect_contains("control-character path" "${json}" "t\\tab.nvt")
