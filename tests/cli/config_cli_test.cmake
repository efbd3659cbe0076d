# End-to-end CLI checks for the declarative config path, run under
# ctest. Invoked as:
#
#   cmake -DCOMET_SIM=<path to comet_sim> -DWORK_DIR=<scratch dir>
#         -DEXAMPLES_DIR=<repo>/examples/configs -P config_cli_test.cmake
#
# Covers: --dump-config → --config round-trips to bit-identical JSON
# (modulo the config-provenance fields) for a flat and a hybrid device,
# every scheduling policy with its refining flag and a traced
# multi-tenant run;
# a custom device defined only in a config file runs end-to-end with no
# registry edit; the committed example specs stay valid; missing files,
# schema errors and a group token as a device's base exit 2 with
# file:line diagnostics; --config rejects
# matrix flags; a section validator's error on the command line names
# the flags; the --cache-* flags and their [experiment] cache_* keys
# dump the same spec.

if(NOT DEFINED COMET_SIM OR NOT DEFINED WORK_DIR OR NOT DEFINED EXAMPLES_DIR)
  message(FATAL_ERROR "pass -DCOMET_SIM=..., -DWORK_DIR=... and -DEXAMPLES_DIR=...")
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

# Strips the config-provenance fields so flag-run and config-run JSON
# can be compared bit-for-bit.
function(strip_provenance json out_var)
  string(REGEX REPLACE "\"experiment\": \"[^\"]*\", " "" json "${json}")
  string(REGEX REPLACE "\"config_file\": \"[^\"]*\", " "" json "${json}")
  set(${out_var} "${json}" PARENT_SCOPE)
endfunction()

# --- 1. Acceptance loop per device class: dump the resolved spec, rerun
# ---    it through --config, and require bit-identical JSON modulo
# ---    provenance.
foreach(device comet hybrid-comet)
  set(flags --device ${device} --workload gcc_like --requests 800 --seed 11)
  execute_process(
    COMMAND ${COMET_SIM} ${flags} --json ${WORK_DIR}/${device}_flags.json
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("flag run ${device}" "${rc}" 0)
  execute_process(
    COMMAND ${COMET_SIM} ${flags} --dump-config ${WORK_DIR}/${device}.toml
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  expect_rc("dump-config ${device}" "${rc}" 0)
  expect_contains("dump-config ${device}" "${out}" "wrote")
  execute_process(
    COMMAND ${COMET_SIM} --config ${WORK_DIR}/${device}.toml
            --json ${WORK_DIR}/${device}_config.json
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("config run ${device}" "${rc}" 0)

  file(READ ${WORK_DIR}/${device}_flags.json from_flags)
  file(READ ${WORK_DIR}/${device}_config.json from_config)
  expect_contains("provenance ${device}" "${from_config}" "${device}.toml")
  strip_provenance("${from_flags}" from_flags)
  strip_provenance("${from_config}" from_config)
  if(NOT from_flags STREQUAL from_config)
    message(FATAL_ERROR "config run of ${device} diverged from the flag run:\n"
                        "${from_flags}\n--- vs ---\n${from_config}")
  endif()
endforeach()

# --- 1b. The scheduled analogue: a --schedule run dumps a [controller]
# ---     section and replays from it bit-identically (modulo
# ---     provenance), including the scheduler JSON fields.
set(sched_flags --device comet --workload gcc_like --requests 800 --seed 11
    --schedule frfcfs --read-q 16 --write-q 16)
execute_process(
  COMMAND ${COMET_SIM} ${sched_flags} --json ${WORK_DIR}/sched_flags.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("scheduled flag run" "${rc}" 0)
execute_process(
  COMMAND ${COMET_SIM} ${sched_flags} --dump-config ${WORK_DIR}/sched.toml
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("scheduled dump-config" "${rc}" 0)
file(READ ${WORK_DIR}/sched.toml sched_toml)
expect_contains("scheduled dump-config" "${sched_toml}" "[controller]")
expect_contains("scheduled dump-config" "${sched_toml}" "policy = \"frfcfs\"")
expect_contains("scheduled dump-config" "${sched_toml}" "read_queue_depth = 16")
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/sched.toml
          --json ${WORK_DIR}/sched_config.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("scheduled config run" "${rc}" 0)
file(READ ${WORK_DIR}/sched_flags.json sched_from_flags)
file(READ ${WORK_DIR}/sched_config.json sched_from_config)
expect_contains("scheduled json" "${sched_from_flags}" "\"sched\": {")
expect_contains("scheduled json" "${sched_from_flags}" "\"policy\": \"frfcfs\"")
strip_provenance("${sched_from_flags}" sched_from_flags)
strip_provenance("${sched_from_config}" sched_from_config)
if(NOT sched_from_flags STREQUAL sched_from_config)
  message(FATAL_ERROR "scheduled config run diverged from the flag run:\n"
                      "${sched_from_flags}\n--- vs ---\n${sched_from_config}")
endif()

# --- 1c. Every flag spelling through the real binary: each policy with
# ---     the flag that refines it, plus a multi-tenant traced run, must
# ---     dump a config that replays bit-identically (modulo provenance).
function(expect_round_trip label)
  execute_process(
    COMMAND ${COMET_SIM} ${ARGN} --json ${WORK_DIR}/${label}_flags.json
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("${label} flag run" "${rc}" 0)
  execute_process(
    COMMAND ${COMET_SIM} ${ARGN} --dump-config ${WORK_DIR}/${label}.toml
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("${label} dump-config" "${rc}" 0)
  execute_process(
    COMMAND ${COMET_SIM} --config ${WORK_DIR}/${label}.toml
            --json ${WORK_DIR}/${label}_config.json
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rc("${label} config run" "${rc}" 0)
  file(READ ${WORK_DIR}/${label}_flags.json from_flags)
  file(READ ${WORK_DIR}/${label}_config.json from_config)
  strip_provenance("${from_flags}" from_flags)
  strip_provenance("${from_config}" from_config)
  if(NOT from_flags STREQUAL from_config)
    message(FATAL_ERROR "${label}: config run diverged from the flag run:\n"
                        "${from_flags}\n--- vs ---\n${from_config}")
  endif()
endfunction()

set(run --device comet --workload gcc_like --requests 600 --seed 5)
expect_round_trip(rt_fcfs ${run} --schedule fcfs --read-q 4)
expect_round_trip(rt_frfcfs ${run} --schedule frfcfs --write-q 8)
expect_round_trip(rt_read_first ${run} --schedule read-first --write-q 16
                  --drain-high 12 --drain-low 2)
expect_round_trip(rt_token_budget ${run} --schedule token-budget
                  --tenant-tokens 8)
expect_round_trip(rt_frfcfs_cap ${run} --schedule frfcfs-cap
                  --starvation-cap 4)
expect_round_trip(rt_tenants --device comet --requests 400
                  --tenants a=mcf_like:40:0.5,b=lbm_like
                  --tenant-mapping interleave
                  --trace-out ${WORK_DIR}/rt_tenants_trace.json
                  --trace-limit 5000 --metrics-interval 1000)
file(READ ${WORK_DIR}/rt_read_first.toml read_first_toml)
expect_contains("read-first dump" "${read_first_toml}"
                "drain_high_watermark = 12")
file(READ ${WORK_DIR}/rt_tenants.toml tenants_toml)
expect_contains("tenants dump" "${tenants_toml}" "[tenant.a]")
expect_contains("tenants dump" "${tenants_toml}" "[telemetry]")

# --- 2. A custom device defined only in a file runs with no registry
# ---    edit (the committed example specs double as the fixtures).
foreach(example comet_16ch hybrid_custom)
  execute_process(
    COMMAND ${COMET_SIM} --device-file ${EXAMPLES_DIR}/${example}.toml
            --workload gcc_like --requests 500
            --json ${WORK_DIR}/${example}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  expect_rc("device-file ${example}" "${rc}" 0)
  file(READ ${WORK_DIR}/${example}.json json)
  expect_contains("device-file ${example}" "${json}" "\"requests\": 500")
endforeach()
execute_process(
  COMMAND ${COMET_SIM} --device-file ${EXAMPLES_DIR}/comet_16ch.toml
          --workload gcc_like --requests 200
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("custom device table" "${rc}" 0)
expect_contains("custom device table" "${out}" "comet-16ch")

# --- 3. The committed sweep experiments parse and expand.
execute_process(
  COMMAND ${COMET_SIM} --config ${EXAMPLES_DIR}/full_sweep.toml
          --dump-config ${WORK_DIR}/full_sweep_resolved.toml
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("example sweep resolves" "${rc}" 0)
expect_contains("example sweep resolves" "${out}" "3 device(s)")
expect_contains("example sweep resolves" "${out}" "3 workload(s)")
execute_process(
  COMMAND ${COMET_SIM} --config ${EXAMPLES_DIR}/scheduled_sweep.toml
          --dump-config ${WORK_DIR}/scheduled_sweep_resolved.toml
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc("scheduled example resolves" "${rc}" 0)
expect_contains("scheduled example resolves" "${out}" "3 device(s)")
file(READ ${WORK_DIR}/scheduled_sweep_resolved.toml sched_sweep_toml)
expect_contains("scheduled example resolves" "${sched_sweep_toml}"
                "policy = [\"fcfs\", \"frfcfs\", \"read-first\"]")

# --- 4. Missing config file: exit 2 before any simulation runs.
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/nope.toml
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("missing config" "${rc}" 2)
expect_contains("missing config" "${err}" "nope.toml")

# --- 5. Schema errors exit 2 naming file, line and key.
file(WRITE ${WORK_DIR}/typo.toml
     "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"gcc_like\"]\nrequets = 5\n")
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/typo.toml
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("unknown key" "${rc}" 2)
expect_contains("unknown key" "${err}" "typo.toml:4")
expect_contains("unknown key" "${err}" "requets")

file(WRITE ${WORK_DIR}/badtype.toml
     "[device]\nbase = \"comet\"\n[device.timing]\nchannels = \"many\"\n")
execute_process(
  COMMAND ${COMET_SIM} --device-file ${WORK_DIR}/badtype.toml
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("bad type" "${rc}" 2)
expect_contains("bad type" "${err}" "badtype.toml:4")
expect_contains("bad type" "${err}" "expects integer")

# A base names one device: a group token is rejected at its line, by
# the number of devices it names.
foreach(group "all;7" "hybrid-all;5")
  list(GET group 0 token)
  list(GET group 1 count)
  file(WRITE ${WORK_DIR}/base_${token}.toml
       "[device]\nbase = \"${token}\"\nname = \"g\"\n")
  execute_process(
    COMMAND ${COMET_SIM} --device-file ${WORK_DIR}/base_${token}.toml
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  expect_rc("base ${token}" "${rc}" 2)
  expect_contains("base ${token}" "${err}" "base_${token}.toml:2")
  expect_contains("base ${token}" "${err}"
                  "'base' must name one device; '${token}' names ${count}")
endforeach()

# A zero row size is rejected at its line, flat or as a hybrid's
# backend, instead of dividing by zero in the replay.
file(WRITE ${WORK_DIR}/zero_row.toml
     "[device]\nbase = \"comet\"\nname = \"z\"\n[device.timing]\n"
     "row_size_bytes = 0\n")
file(WRITE ${WORK_DIR}/zero_row_backend.toml
     "[device]\nbase = \"hybrid-comet\"\nname = \"hz\"\n"
     "[device.backend.timing]\nrow_size_bytes = 0\n")
foreach(file zero_row zero_row_backend)
  execute_process(
    COMMAND ${COMET_SIM} --device-file ${WORK_DIR}/${file}.toml
            --workload gcc_like --requests 100
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  expect_rc("${file}" "${rc}" 2)
  expect_contains("${file}" "${err}" "${file}.toml:5")
  expect_contains("${file}" "${err}" "'row_size_bytes' must be between 1")
endforeach()

# --- 6. --config owns the matrix: combining with matrix flags exits 2.
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/comet.toml --device comet
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("config conflicts" "${rc}" 2)
expect_contains("config conflicts" "${err}" "--config cannot be combined")
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/comet.toml --schedule frfcfs
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("config/schedule conflict" "${rc}" 2)
expect_contains("config/schedule conflict" "${err}"
                "--config cannot be combined")

# --- 7. A section validator's error names the flags, not the keys.
execute_process(
  COMMAND ${COMET_SIM} --schedule read-first --write-q 8 --drain-high 16
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("watermark above depth" "${rc}" 2)
expect_contains("watermark above depth" "${err}"
                "--drain-high 16 exceeds --write-q 8")
execute_process(
  COMMAND ${COMET_SIM} --schedule read-first --drain-high 4 --drain-low 6
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("inverted watermarks" "${rc}" 2)
expect_contains("inverted watermarks" "${err}"
                "0 <= --drain-low <= --drain-high")

# --- 8. The --cache-* flags are knob rows: the flags and a document
# ---    holding their [experiment] cache_* keys dump the same bytes,
# ---    the folded device and no cache key. A bad value names its flag.
execute_process(
  COMMAND ${COMET_SIM} --device hybrid-comet --cache-mb 64 --cache-ways 8
          --cache-policy write-no-allocate --dump-config ${WORK_DIR}/cache_a.toml
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("cache flags dump" "${rc}" 0)
file(WRITE ${WORK_DIR}/cache_keys.toml
     "[experiment]\nname = \"cli\"\ndevices = [\"hybrid-comet\"]\n"
     "workloads = [\"all\"]\ncache_mb = 64\ncache_ways = 8\n"
     "cache_policy = \"write-no-allocate\"\n")
execute_process(
  COMMAND ${COMET_SIM} --config ${WORK_DIR}/cache_keys.toml
          --dump-config ${WORK_DIR}/cache_b.toml
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rc("cache keys dump" "${rc}" 0)
file(READ ${WORK_DIR}/cache_a.toml cache_a)
file(READ ${WORK_DIR}/cache_b.toml cache_b)
if(NOT cache_a STREQUAL cache_b)
  message(FATAL_ERROR "--cache-* flags and cache_* keys dumped different "
                      "specs:\n${cache_a}\n--- vs ---\n${cache_b}")
endif()
expect_contains("cache flags dump" "${cache_a}"
                "policy = \"write-no-allocate\"")
string(FIND "${cache_a}" "cache_mb" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "cache flags dump: the folded spec writes a cache_* key")
endif()
execute_process(
  COMMAND ${COMET_SIM} --cache-mb 0
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc("cache-mb 0" "${rc}" 2)
expect_contains("cache-mb 0" "${err}" "--cache-mb")

message(STATUS "config CLI tests passed")
