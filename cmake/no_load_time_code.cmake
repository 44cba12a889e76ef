# Fails if an object built with a vector ISA flag (kernels_avx2.cpp,
# kernels_avx512.cpp) runs C++ dynamic initialization. Such code runs at
# load, on every host, before dispatch has checked a CPU bit, so one
# compiled with -mavx512f can kill every binary that links tsnn with
# SIGILL on a host without AVX-512F. The kernel tables are constinit for
# this reason; this check also covers any other object in those files.
#
#   cmake -DNM=<nm> -DOBJECTS=<object;...> -P no_load_time_code.cmake
#
# GCC and Clang name a TU's dynamic initializer _GLOBAL__sub_I_<...>;
# sanitizer module constructors are named otherwise and are not reported.
cmake_minimum_required(VERSION 3.20)

if(NOT NM OR NOT OBJECTS)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DOBJECTS=<object;...> "
                      "-P no_load_time_code.cmake")
endif()

set(checked 0)
foreach(object IN LISTS OBJECTS)
  if(NOT object MATCHES "kernels_avx[0-9]*\\.cpp\\.o(bj)?$")
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  execute_process(COMMAND ${NM} ${object}
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} ${object} failed (${rc})")
  endif()
  if(symbols MATCHES "_GLOBAL__sub_I_[A-Za-z0-9_.]*")
    message(FATAL_ERROR "${object} runs code at load (${CMAKE_MATCH_0}); "
                        "make its objects constinit")
  endif()
endforeach()
if(checked EQUAL 0)
  message(FATAL_ERROR "no kernels_avx*.cpp object among OBJECTS")
endif()
message(STATUS "${checked} vector-ISA objects run no code at load")
