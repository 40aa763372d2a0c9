# ctest driver for tool CLI contracts. Invoked as
#   cmake -DREPORT=<pdpa_report> -DPRV=<prv_stats> -DSIM=<pdpa_sim>
#         -DBATCH=<pdpa_batch> -DLINT=<pdpa_lint> -DFIGURES=<pdpa_figures>
#         -DWORKDIR=<scratch> -P cli_cases.cmake
# Bad invocations must be usage errors (exit 2 with a pointed message), not
# silently-wrong output; --help is exit 0.

if(NOT REPORT OR NOT PRV OR NOT SIM OR NOT BATCH OR NOT LINT OR NOT FIGURES OR NOT WORKDIR)
  message(FATAL_ERROR
          "usage: cmake -DREPORT=... -DPRV=... -DSIM=... -DBATCH=... -DLINT=... -DFIGURES=... -DWORKDIR=... -P cli_cases.cmake")
endif()
file(MAKE_DIRECTORY ${WORKDIR})

# expect_cli(<exit> <stream:out|err> <regex> <command...>)
function(expect_cli expected_exit stream pattern)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT exit_code EQUAL expected_exit)
    message(SEND_ERROR "${ARGN}: exit ${exit_code}, want ${expected_exit}\n${stdout}${stderr}")
    return()
  endif()
  if(stream STREQUAL "out")
    set(haystack "${stdout}")
  else()
    set(haystack "${stderr}")
  endif()
  if(NOT haystack MATCHES "${pattern}")
    message(SEND_ERROR "${ARGN}: ${stream} does not match '${pattern}'\n${stdout}${stderr}")
  endif()
endfunction()

# pdpa_report
expect_cli(0 out "usage: pdpa_report" ${REPORT} --help)
expect_cli(2 err "usage: pdpa_report" ${REPORT})
expect_cli(2 err "unknown flag --bogus" ${REPORT} --bogus ${WORKDIR}/ev.jsonl)
expect_cli(2 err "bad --jobs entry 'x'" ${REPORT} ${WORKDIR}/ev.jsonl --jobs 1,x)
expect_cli(2 err "cannot open" ${REPORT} ${WORKDIR}/does_not_exist.jsonl)
expect_cli(2 err "usage: pdpa_report" ${REPORT} a.jsonl b.jsonl)

# Positive control: a well-formed (if tiny) event log renders cleanly.
file(WRITE ${WORKDIR}/ev.jsonl
"{\"type\":\"run_start\",\"policy\":\"PDPA\",\"workload\":\"w1\",\"load\":\"0.6\",\"seed\":\"42\",\"cpus\":\"60\"}\n")
expect_cli(0 out "run 1: policy PDPA" ${REPORT} ${WORKDIR}/ev.jsonl)

# A prof_span record renders as the host-time profile table (hits column is
# the deterministic part; the report echoes the ns fields as milliseconds).
file(WRITE ${WORKDIR}/prof.jsonl
"{\"type\":\"prof_meta\",\"tool\":\"pdpa_sim\",\"spans\":1}\n{\"type\":\"prof_span\",\"span\":\"rm.quantum\",\"hits\":123,\"total_ns\":4000000,\"self_ns\":1000000}\n")
expect_cli(0 out "host-time profile .hits are deterministic" ${REPORT} ${WORKDIR}/prof.jsonl)
expect_cli(0 out "rm\\.quantum +123 +4\\.000 +1\\.000" ${REPORT} ${WORKDIR}/prof.jsonl)

# prv_stats
expect_cli(0 out "usage: prv_stats" ${PRV} --help)
expect_cli(2 err "usage: prv_stats" ${PRV})
expect_cli(2 err "unknown flag --bogus" ${PRV} --bogus ${WORKDIR}/t.prv)
expect_cli(2 err "cannot open" ${PRV} ${WORKDIR}/does_not_exist.prv)

# pdpa_sim: the profiling/tracing flags are documented, malformed values are
# usage errors, and the smoke run actually produces a profile and a trace.
expect_cli(0 out "--trace_out" ${SIM} --help)
expect_cli(0 out "--prof_out" ${SIM} --help)
expect_cli(2 err "unknown flag --bogus" ${SIM} --bogus)
expect_cli(2 err "malformed flag value" ${SIM} --workload w1 --load not-a-number)
expect_cli(0 out "host-time profile .hits are deterministic" ${SIM} --workload w1 --load 0.6 --prof)
expect_cli(0 out "trace events written to" ${SIM} --workload w1 --load 0.6
           --trace_out ${WORKDIR}/sim_trace.json)
if(NOT EXISTS ${WORKDIR}/sim_trace.json)
  message(SEND_ERROR "pdpa_sim --trace_out did not create sim_trace.json")
endif()
expect_cli(0 out "span hits written to" ${SIM} --workload w1 --load 0.6
           --prof_out ${WORKDIR}/sim_prof.jsonl)
# rm.tick, not rm.quantum: the default policy (PDPA) is quantum-passive, so
# a live profile has tick spans but no quantum spans.
expect_cli(0 out "rm.tick" ${REPORT} ${WORKDIR}/sim_prof.jsonl)

# pdpa_batch: same contract for the sweep driver.
expect_cli(0 out "usage: pdpa_batch" ${BATCH} --help)
expect_cli(0 out "--slowdown" ${BATCH} --help)
expect_cli(0 out "--prof_out" ${BATCH} --help)
expect_cli(2 err "unknown flag --bogus" ${BATCH} --bogus)
expect_cli(2 err "malformed flag value" ${BATCH} --workloads w1 --loads 0.6 --jobs not-a-number)
expect_cli(0 out "slowdown_p50,slowdown_p95,slowdown_p99"
           ${BATCH} --workloads w1 --loads 0.6 --policies equip --seeds 1 --slowdown)
expect_cli(0 err "host-time profile .hits are deterministic"
           ${BATCH} --workloads w1 --loads 0.6 --policies equip --seeds 1 --prof)
expect_cli(0 err "trace events written to"
           ${BATCH} --workloads w1 --loads 0.6 --policies equip --seeds 1
           --trace_out ${WORKDIR}/batch_trace.json)
if(NOT EXISTS ${WORKDIR}/batch_trace.json)
  message(SEND_ERROR "pdpa_batch --trace_out did not create batch_trace.json")
endif()

# Cluster mode (src/cluster): the flags are documented, bad values are usage
# errors, incompatible single-node features are rejected, and the smoke runs
# carry the "<policy>@<placement>" marker.
expect_cli(0 out "--cpus_per_node" ${SIM} --help)
expect_cli(0 out "--placement rr|mf|ll" ${SIM} --help)
expect_cli(0 out "--shards" ${SIM} --help)
expect_cli(2 err "unknown --placement bogus" ${SIM} --nodes 4 --placement bogus)
expect_cli(2 err "must be >= 1" ${SIM} --nodes 0)
expect_cli(2 err "single-node only" ${SIM} --nodes 2 --view)
expect_cli(0 out "policy PDPA@mf, .* peak node ML" ${SIM} --workload w1 --load 0.6
           --nodes 3 --cpus_per_node 20 --placement mf --shards 2)
expect_cli(0 out "--shards" ${BATCH} --help)
expect_cli(0 out "--placement LIST" ${BATCH} --help)
expect_cli(2 err "unknown --placement bogus" ${BATCH} --nodes 4 --placement bogus)
expect_cli(2 err "must be >= 1" ${BATCH} --shards 0)
expect_cli(0 out "PDPA@ll" ${BATCH} --workloads w1 --loads 0.6 --policies pdpa
           --nodes 3 --cpus_per_node 20 --placement rr,ll --shards 2)
expect_cli(2 err "--placement takes one policy" ${SIM} --nodes 3 --placement rr,ll)
# The cluster runs at most one shard per node, and says how many ran.
expect_cli(0 out "cluster: 2 nodes x 60 cpus, 2 shard.s." ${SIM} --workload w1 --load 0.6
           --nodes 2 --shards 5)

# A cluster run can be profiled: the controller-plane spans show up in the
# table.
expect_cli(0 out "cluster.place" ${SIM} --workload w1 --load 0.6
           --nodes 3 --cpus_per_node 20 --prof)
expect_cli(0 out "cluster.barrier_wait" ${SIM} --workload w1 --load 0.6
           --nodes 3 --cpus_per_node 20 --prof)

# pdpa_lint --explain: every rule id resolves to its summary, rationale, and
# escape hatch; unknown ids are usage errors. (The full lint contract lives
# in lint_fixture_test.cmake — this pins just the explain surface.)
expect_cli(0 out "rule: ptr-taint" ${LINT} --explain ptr-taint)
expect_cli(0 out "rationale:" ${LINT} --explain ptr-taint)
expect_cli(0 out "escape hatch:" ${LINT} --explain ptr-taint)
expect_cli(0 out "ptr-taint-ok" ${LINT} --explain ptr-taint)
expect_cli(0 out "PDPA_LOCK_RANK" ${LINT} --explain lock-order)
expect_cli(2 err "unknown rule 'bogus' .see --list_rules." ${LINT} --explain bogus)

# pdpa_figures: --help names every row in table order; rows are the only
# arguments, so an unknown row or any other flag is a usage error.
expect_cli(0 out "fig03 .*fig04 .*fig05 .*table2 .*fig06 .*fig07 .*fig08 .*fig09 .*table3 .*fig10 .*table4 .*ablation_coordination .*ablation_target_eff .*ablation_robustness .*extra_dynamic_policy .*extra_rigid_folding .*extra_cluster "
           ${FIGURES} --help)
expect_cli(2 err "unknown row 'fig99' .see --help." ${FIGURES} fig99)
expect_cli(2 err "unknown flag --bogus" ${FIGURES} --bogus)

# Shared-prefix forking (DESIGN.md §12): a multi-policy group forks its
# cells from one prefix; a one-cell group builds no prefix and runs cold.
expect_cli(0 err "fork: 2/2 group prefixes built, 4 cells forked, 0 cold" ${BATCH}
           --workloads w2 --loads 1.0 --policies equip,pdpa --seeds 2 --log_level info)
expect_cli(0 err "fork: 0/1 group prefixes built, 0 cells forked, 1 cold" ${BATCH}
           --workloads w1 --loads 1.0 --policies equal_eff --log_level info)

# pdpa_sim is a one-cell sweep: its counters equal pdpa_batch's for the same
# cell byte for byte, even for a quantum-active policy.
execute_process(COMMAND ${SIM} --workload w1 --load 1.0 --policy equal_eff --counters
                OUTPUT_VARIABLE sim_out RESULT_VARIABLE sim_exit ERROR_QUIET)
execute_process(COMMAND ${BATCH} --workloads w1 --loads 1.0 --policies equal_eff --counters
                ERROR_VARIABLE batch_err RESULT_VARIABLE batch_exit OUTPUT_QUIET)
string(REGEX REPLACE "^.*\ncounters:\n" "" sim_counters "${sim_out}")
string(REGEX REPLACE "^.*\ncounters \\([^)]*\\):\n" "" batch_counters "${batch_err}")
if(NOT sim_exit EQUAL 0 OR NOT batch_exit EQUAL 0)
  message(SEND_ERROR "counters A/B exited ${sim_exit}/${batch_exit}")
elseif(NOT sim_counters MATCHES "rm\\.ticks_elided" OR NOT sim_counters STREQUAL batch_counters)
  message(SEND_ERROR "pdpa_sim and pdpa_batch counters differ:\n${sim_counters}\n--\n${batch_counters}")
endif()

# Out-of-range values are usage errors naming the flag, never a failed
# internal check.
expect_cli(2 err "--cpus must be >= 1" ${SIM} --cpus 0)
expect_cli(2 err "--load must be > 0" ${SIM} --load 0)
expect_cli(2 err "--load must be > 0" ${SIM} --load -1)
expect_cli(2 err "--step must be >= 1" ${SIM} --step 0)
expect_cli(2 err "--target_eff must be > 0 and <= --high_eff" ${SIM} --target_eff 1.5)
expect_cli(2 err "--ml must be >= 1" ${SIM} --ml 0 --policy equip)
expect_cli(2 err "--ml must be >= 1" ${SIM} --ml 0)
expect_cli(2 err "--loads must be > 0" ${BATCH} --loads 0.6,0)
expect_cli(2 err "--seed must be >= 0" ${SIM} --seed -1)
expect_cli(2 err "--seed must be >= 0" ${BATCH} --seed -1)

# Retired flags are unknown flags: elision is always on in the tools, and
# the goldens pin its bytes.
expect_cli(2 err "unknown flag --exact_ticks" ${SIM} --exact_ticks)
expect_cli(2 err "unknown flag --exact_ticks" ${BATCH} --exact_ticks)

# One flag spelling: underscores. No tool documents a dashed flag, and the
# old spellings are unknown flags.
foreach(tool ${REPORT} ${PRV} ${SIM} ${BATCH} ${LINT} ${FIGURES})
  execute_process(COMMAND ${tool} --help OUTPUT_VARIABLE help ERROR_QUIET)
  string(REGEX MATCH "--[a-z0-9]+-[a-z][a-z0-9-]*" dashed "${help}")
  if(dashed)
    message(SEND_ERROR "${tool} --help lists the dashed flag ${dashed}")
  endif()
endforeach()
expect_cli(2 err "unknown flag --swf-in" ${SIM} --swf-in x)
expect_cli(2 err "unknown flag --cluster_shards" ${BATCH} --cluster_shards 2)

message(STATUS "cli contract checks done")
