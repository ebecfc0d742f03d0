# Runs examples/schedule_timeline for one scheduler in the current working
# directory and fails unless it exits 0 and writes at least one VCPU span
# row to schedule_timeline.csv.
#
#   cmake -DBIN=<schedule_timeline> -DKIND=<credit|asman|con> -P <this file>
file(REMOVE schedule_timeline.csv)
execute_process(COMMAND ${BIN} ${KIND} 0.2 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "schedule_timeline ${KIND} exited with ${rc}")
endif()
file(STRINGS schedule_timeline.csv lines)
list(LENGTH lines n)
if(n LESS 2)
  message(FATAL_ERROR "schedule_timeline.csv for ${KIND} has no span rows")
endif()
