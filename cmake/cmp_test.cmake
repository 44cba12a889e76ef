# The comparison half of a FATE-style test: runs one command twice and
# requires every CSV the two runs write to be byte-identical.
#
#   cmake -DWORK_DIR=<dir> [-DCMD_ENV=<A=1|B=2>] [-DREF_ENV=<A=3>]
#         -P cmp_test.cmake -- <command> [<arg>...]
#
# The "cmd" run gets CMD_ENV; the "ref" run gets CMD_ENV with REF_ENV
# applied on top. Each runs in a fresh directory under WORK_DIR, with every
# inherited TSNN_* variable cleared first, so only the two lists set the
# knobs. Both runs must exit 0 and write the same non-empty set of *.csv
# files. tsnn_add_cmp_test in the root CMakeLists.txt registers these.
cmake_minimum_required(VERSION 3.20)

set(command "")
set(after_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes ON)
  endif()
endforeach()
if(NOT command OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DWORK_DIR=<dir> [-DCMD_ENV=A=1|B=2] "
                      "[-DREF_ENV=A=3] -P cmp_test.cmake -- <command...>")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E environment
                OUTPUT_VARIABLE inherited)
string(REPLACE "\n" ";" inherited "${inherited}")
foreach(line IN LISTS inherited)
  if(line MATCHES "^(TSNN_[A-Za-z0-9_]*)=")
    unset(ENV{${CMAKE_MATCH_1}})
  endif()
endforeach()

# Applies "VAR=value|VAR=value" to this process's environment, which
# execute_process hands to the command.
function(apply_env assignments)
  string(REPLACE "|" ";" assignments "${assignments}")
  foreach(kv IN LISTS assignments)
    if(NOT kv MATCHES "^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")
      message(FATAL_ERROR "bad environment assignment '${kv}'")
    endif()
    set(ENV{${CMAKE_MATCH_1}} "${CMAKE_MATCH_2}")
  endforeach()
endfunction()

function(run_in side)
  set(dir "${WORK_DIR}/${side}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND ${command} WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE status
                  OUTPUT_FILE "${dir}.stdout" ERROR_FILE "${dir}.stderr")
  if(NOT status EQUAL 0)
    file(READ "${dir}.stderr" err)
    message(FATAL_ERROR "${side} run exited ${status}:\n${err}")
  endif()
endfunction()

apply_env("${CMD_ENV}")
run_in(cmd)
apply_env("${REF_ENV}")
run_in(ref)

file(GLOB_RECURSE cmd_csvs RELATIVE "${WORK_DIR}/cmd" "${WORK_DIR}/cmd/*.csv")
file(GLOB_RECURSE ref_csvs RELATIVE "${WORK_DIR}/ref" "${WORK_DIR}/ref/*.csv")
list(SORT cmd_csvs)
list(SORT ref_csvs)
if(NOT cmd_csvs)
  message(FATAL_ERROR "the cmd run wrote no CSV under ${WORK_DIR}/cmd")
endif()
if(NOT cmd_csvs STREQUAL ref_csvs)
  message(FATAL_ERROR "the runs wrote different CSV sets:\n"
                      "  cmd: ${cmd_csvs}\n  ref: ${ref_csvs}")
endif()
set(differing "")
foreach(csv IN LISTS cmd_csvs)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${WORK_DIR}/cmd/${csv}" "${WORK_DIR}/ref/${csv}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    list(APPEND differing "${csv}")
  endif()
endforeach()
if(differing)
  message(FATAL_ERROR "CSVs differ between the cmd and ref runs: ${differing}")
endif()
list(LENGTH cmd_csvs count)
message(STATUS "${count} CSVs byte-identical")
