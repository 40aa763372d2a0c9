# ctest script for the pdpa_sim golden file. Invoked as
#   cmake -DSIM=<pdpa_sim> -DGOLDEN=<tests/golden/sim.txt>
#         -DWORKDIR=<scratch> [-DUPDATE=1] -P sim_golden.cmake
# Runs a fixed set of pdpa_sim command lines from an empty working
# directory and records, per run, its stdout verbatim plus the SHA-256 of
# every file it writes; the result must equal the golden file byte for byte.
# With -DUPDATE=1 the script rewrites the golden file instead.

if(NOT SIM OR NOT GOLDEN OR NOT WORKDIR)
  message(FATAL_ERROR
          "usage: cmake -DSIM=... -DGOLDEN=... -DWORKDIR=... [-DUPDATE=1] -P sim_golden.cmake")
endif()
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

set(record "")

# sim_run(<label> <files written...> ARGS <pdpa_sim flags...>)
function(sim_run label)
  cmake_parse_arguments(RUN "" "" "FILES;ARGS" ${ARGN})
  execute_process(COMMAND ${SIM} ${RUN_ARGS}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "pdpa_sim run ${label}: exit ${exit_code}\n${stdout}${stderr}")
  endif()
  string(APPEND record "== run ${label}\n${stdout}")
  foreach(name IN LISTS RUN_FILES)
    if(NOT EXISTS ${WORKDIR}/${name})
      message(FATAL_ERROR "pdpa_sim run ${label} did not write ${name}")
    endif()
    file(SHA256 ${WORKDIR}/${name} digest)
    string(APPEND record "-- sha256 ${name} ${digest}\n")
  endforeach()
  set(record "${record}" PARENT_SCOPE)
endfunction()

# (a) one PDPA cell with every single-node output.
sim_run(a FILES a_events.jsonl a_ts.csv a.prv a.pcf a_trace.json
        ARGS --workload w1 --load 0.6 --policy pdpa --view --ml_timeline --counters
             --events_out a_events.jsonl --timeseries_out a_ts.csv
             --prv_out a.prv --pcf_out a.pcf --trace_out a_trace.json)
# (b) the same cell under a quantum-active policy.
sim_run(b ARGS --workload w1 --load 0.6 --policy equal_eff --counters)
# (c) the same cell on a three-node cluster.
sim_run(c FILES c_events.jsonl c_ts.csv
        ARGS --workload w1 --load 0.6 --nodes 3 --cpus_per_node 20 --placement mf --counters
             --events_out c_events.jsonl --timeseries_out c_ts.csv)
# (d) archive the workload as SWF, then replay it.
sim_run(d1 FILES d.swf ARGS --workload w1 --load 0.6 --swf_out d.swf --dry_run)
sim_run(d2 ARGS --swf_in d.swf --policy equip)

if(UPDATE)
  file(WRITE ${GOLDEN} "${record}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()
file(READ ${GOLDEN} expected)
if(NOT record STREQUAL expected)
  file(WRITE ${WORKDIR}/sim.actual.txt "${record}")
  message(FATAL_ERROR "pdpa_sim output differs from ${GOLDEN}; see\n"
                      "  diff ${GOLDEN} ${WORKDIR}/sim.actual.txt")
endif()
