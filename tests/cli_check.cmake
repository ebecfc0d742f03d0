# Runs one command-line invocation (asman_cli or a bench binary) in the
# current working directory and fails unless it exits with the expected
# code and prints what it must.
#
#   cmake -DBIN=<binary> "-DARGS=<space-separated arguments>" -DRC=<code>
#         [-DLINE=<text a stdout line must contain>]
#         [-DERR=<text stderr must contain>]
#         [-DCSV=<file that must hold a row below its header>]
#         -P <this file>
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(CSV)
  file(REMOVE ${CSV})
endif()
execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
get_filename_component(name ${BIN} NAME)
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "${name} ${ARGS} exited with ${rc}, expected ${RC}\n${err}")
endif()
if(DEFINED LINE)
  string(FIND "${out}" "${LINE}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name} ${ARGS} printed no line with '${LINE}':\n${out}")
  endif()
endif()
if(DEFINED ERR)
  string(FIND "${err}" "${ERR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name} ${ARGS} wrote nothing with '${ERR}' on stderr:\n${err}")
  endif()
endif()
if(CSV)
  file(STRINGS ${CSV} lines)
  list(LENGTH lines n)
  if(n LESS 2)
    message(FATAL_ERROR "${CSV} from ${name} ${ARGS} has no rows")
  endif()
endif()
