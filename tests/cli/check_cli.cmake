# Runs one san_cli command line for ctest (registered by san_cli_test() in
# the top-level CMakeLists.txt):
#
#   cmake -DCLI=path/to/san_cli "-DARGS=--workload ... --csv" -DEXIT=0
#         [-DGOLDEN=tests/cli/NAME.csv] -P check_cli.cmake
#
# Fails unless san_cli exits with EXIT and, when GOLDEN is given, unless
# every line of GOLDEN ("row,value" in the report's CSV form) appears
# verbatim as a line of the report. The goldens list only deterministic
# rows, so wall-clock figures (rates, latencies, recovery times) never pin.
cmake_minimum_required(VERSION 3.20)

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR
          "san_cli ${ARGS}\nexited ${code}, expected ${EXIT}\n${out}${err}")
endif()

if(GOLDEN)
  file(STRINGS "${GOLDEN}" rows)
  set(missing "")
  foreach(row IN LISTS rows)
    string(FIND "\n${out}" "\n${row}\n" at)
    if(at EQUAL -1)
      string(APPEND missing "  ${row}\n")
    endif()
  endforeach()
  if(missing)
    message(FATAL_ERROR
            "san_cli ${ARGS}\nreport lacks these rows:\n${missing}"
            "report:\n${out}")
  endif()
endif()
