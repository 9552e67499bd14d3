# Usage-error contract of the flag-parsing binaries: each program in
# PROGRAMS (a '|'-separated list), run with a malformed flag, must exit 2
# with nothing on stdout and exactly one 'error: ' line on stderr.
#
#   cmake -DPROGRAMS="/path/quickstart|/path/bench_dist" -P expect_flag_error.cmake
string(REPLACE "|" ";" programs "${PROGRAMS}")
list(GET programs 0 first)
# The stray-word form for every program; the first one also gets a value
# that is not a number, which fails later, in a getter.
set(cases)
foreach(program IN LISTS programs)
  list(APPEND cases "${program}|--n|300")
endforeach()
list(APPEND cases "${first}|--n=abc")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" command "${case}")
  execute_process(COMMAND ${command}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "2" OR NOT out STREQUAL ""
     OR NOT err MATCHES "^error: [^\n]+\n$")
    message(FATAL_ERROR "'${case}': exit ${status}, want 2 with one "
                        "'error: ' line on stderr and no stdout\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
endforeach()
