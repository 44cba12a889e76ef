# Pipes a fixed set of request lines into tsnn_serve and requires exactly
# one answer per line, as listed below, in any order (answers come in
# completion order).
#
#   cmake -DSERVE=<tsnn_serve> -DWORK_DIR=<dir> -P serve_lines_test.cmake
#
# The environment (TSNN_FAST, TSNN_ZOO_DIR) comes from the caller.
# The root CMakeLists.txt registers it with add_test as
# smoke_serve_request_lines.
cmake_minimum_required(VERSION 3.20)

if(NOT SERVE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSERVE=<tsnn_serve> -DWORK_DIR=<dir> "
                      "-P serve_lines_test.cmake")
endif()

# Request line, then the regex its one answer must match. Only a line whose
# id parses gets its id back; every numeric field is plain decimal digits,
# and a line has exactly five fields.
set(cases
  "5 s-mnist rate 3 42"               "^ok 5 [0-9]+ [0-9]+ [0-9]+ [0-9]+ [0-9]+ [0-9]+$"
  "4 s-mnist rate 3"                  "^err 4 bad_request_line$"
  "1 s-mnist rate 3 42 trailing junk" "^err 1 bad_request_line$"
  "2 s-mnist rate 3 -5"               "^err 2 bad_request_line$"
  "-6 s-mnist rate 2 7"               "^err 0 bad_request_line$"
  "3 s-mnist rate -1 7"               "^err 3 bad_request_line$"
  "7 s-mnist rate +1 7"               "^err 7 bad_request_line$"
  "8 s-mnist rate 1 0x2a"             "^err 8 bad_request_line$"
  "9 s-mnist rate 1 18446744073709551616" "^err 9 bad_request_line$"
  "10 s-mnist rate 8 7"               "^err 10 image_out_of_range$"
  "11 s-mnist nope 1 7"               "^err 11 unknown_coding$"
)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(input "")
set(patterns "")
list(LENGTH cases n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET cases ${i} line)
  list(GET cases ${j} pattern)
  string(APPEND input "${line}\n")
  list(APPEND patterns "${pattern}")
endforeach()
file(WRITE "${WORK_DIR}/requests.txt" "${input}")

execute_process(COMMAND "${SERVE}" --models s-mnist --images 8 --threads 1
                INPUT_FILE "${WORK_DIR}/requests.txt"
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE status)
file(WRITE "${WORK_DIR}/answers.txt" "${out}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "tsnn_serve exited ${status}:\n${err}")
endif()

# The answers: every line after "ready".
string(REGEX REPLACE "\n$" "" out "${out}")
string(REPLACE "\n" ";" lines "${out}")
list(FIND lines "ready 1" ready)
if(ready EQUAL -1)
  message(FATAL_ERROR "no 'ready 1' line in:\n${out}")
endif()
math(EXPR first "${ready} + 1")
list(SUBLIST lines ${first} -1 answers)
list(LENGTH answers got)
list(LENGTH patterns want)
if(NOT got EQUAL want)
  message(FATAL_ERROR "${got} answers for ${want} request lines:\n${out}")
endif()
# Each pattern claims one answer it matches.
foreach(pattern IN LISTS patterns)
  set(hit -1)
  set(k 0)
  foreach(answer IN LISTS answers)
    if(answer MATCHES "${pattern}")
      set(hit ${k})
      break()
    endif()
    math(EXPR k "${k} + 1")
  endforeach()
  if(hit EQUAL -1)
    message(FATAL_ERROR "no answer matches '${pattern}' in:\n${out}")
  endif()
  list(REMOVE_AT answers ${hit})
endforeach()
message(STATUS "${want} request lines answered as expected")
