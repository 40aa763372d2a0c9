# ctest driver for the pdpa_lint fixtures. Invoked as
#   cmake -DLINT=<pdpa_lint> -DFIXTURES=<tests/lint_fixtures> -P lint_fixture_test.cmake
# Asserts the exact finding lines (file:line: rule-id) and exit codes, so a
# rule regression — a missed violation, a changed line number, a broken
# waiver/suppression path — fails tier-1 ctest.

if(NOT LINT OR NOT FIXTURES)
  message(FATAL_ERROR "usage: cmake -DLINT=<binary> -DFIXTURES=<dir> -P lint_fixture_test.cmake")
endif()

# Runs pdpa_lint on one fixture and checks exit code + exact stdout.
# Extra args after the expected output are appended to the command line.
function(expect_lint fixture expected_exit expected_out)
  execute_process(
    COMMAND ${LINT} --root ${FIXTURES} ${FIXTURES}/${fixture} --treat_as src
            --today 2026-01-01 ${ARGN}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT exit_code EQUAL expected_exit)
    message(SEND_ERROR "${fixture}: exit ${exit_code}, want ${expected_exit}\n${stdout}${stderr}")
    return()
  endif()
  if(NOT stdout STREQUAL expected_out)
    message(SEND_ERROR "${fixture}: output mismatch\n--- got ---\n${stdout}--- want ---\n${expected_out}")
  endif()
endfunction()

expect_lint(wall_clock_violation.cc 1
"wall_clock_violation.cc:7: wall-clock: nondeterministic source 'rand' in sim code (use SimTime)
wall_clock_violation.cc:8: wall-clock: nondeterministic source 'srand' in sim code (use SimTime)
wall_clock_violation.cc:9: wall-clock: nondeterministic source 'time()' in sim code (use SimTime)
wall_clock_violation.cc:10: wall-clock: nondeterministic source 'system_clock' in sim code (use SimTime)
wall_clock_violation.cc:11: wall-clock: nondeterministic source 'high_resolution_clock' in sim code (use SimTime)
")

expect_lint(unordered_iter_violation.cc 1
"unordered_iter_violation.cc:8: unordered-iter: range-for over an unordered container: iteration order is unspecified (sort first, or justify with // lint: ordered-ok)
unordered_iter_violation.cc:12: unordered-iter: range-for over an unordered container: iteration order is unspecified (sort first, or justify with // lint: ordered-ok)
")

expect_lint(float_eq_violation.cc 1
"float_eq_violation.cc:3: float-eq: '==' against a floating-point literal (use NearlyEqual from src/common/stats.h)
float_eq_violation.cc:4: float-eq: '!=' against a floating-point literal (use NearlyEqual from src/common/stats.h)
float_eq_violation.cc:5: float-eq: '==' against a floating-point literal (use NearlyEqual from src/common/stats.h)
")

expect_lint(direct_io_violation.cc 1
"direct_io_violation.cc:6: direct-io: 'printf()' in src/ (emit through the obs layer or PDPA_LOG)
direct_io_violation.cc:7: direct-io: 'fprintf()' in src/ (emit through the obs layer or PDPA_LOG)
direct_io_violation.cc:8: direct-io: 'puts()' in src/ (emit through the obs layer or PDPA_LOG)
direct_io_violation.cc:9: direct-io: 'std::cout' in src/ (emit through the obs layer or PDPA_LOG)
direct_io_violation.cc:10: direct-io: 'std::cerr' in src/ (emit through the obs layer or PDPA_LOG)
")

expect_lint(stream_flush_violation.cc 1
"stream_flush_violation.cc:6: stream-flush: 'endl' in src/ flushes per line (write '\\n' and let BufWriter batch; Flush() once at the end)
stream_flush_violation.cc:7: stream-flush: 'flush' in src/ flushes per line (write '\\n' and let BufWriter batch; Flush() once at the end)
stream_flush_violation.cc:9: stream-flush: 'endl' in src/ flushes per line (write '\\n' and let BufWriter batch; Flush() once at the end)
")

# Sanctioned host clock: steady_clock is allowed in src/obs/prof.cc only.
# The allowance is token-specific (system_clock in the same file still
# fires) and file-specific (steady_clock anywhere else still fires).
expect_lint(src/obs/prof.cc 1
"src/obs/prof.cc:10: wall-clock: nondeterministic source 'system_clock' in sim code (use SimTime)
")

expect_lint(src/obs/not_prof.cc 1
"src/obs/not_prof.cc:6: wall-clock: nondeterministic source 'steady_clock' in sim code (use SimTime)
")

# The ordering audit reaches src/cluster/: placement and merge paths fed by
# unordered iteration are findings, exactly like anywhere else in src/.
expect_lint(src/cluster/merge_paths.cc 1
"src/cluster/merge_paths.cc:8: unordered-iter: range-for over an unordered container: iteration order is unspecified (sort first, or justify with // lint: ordered-ok)
src/cluster/merge_paths.cc:18: unordered-iter: range-for over an unordered container: iteration order is unspecified (sort first, or justify with // lint: ordered-ok)
")

# Tools own their streams' flushing policy: rule scoped to src/ only.
expect_lint(stream_flush_violation.cc 0 "" --treat_as tools)

expect_lint(clean_file.cc 0 "")

# Lock-order rule: unranked declaration, duplicate rank, a seeded inversion
# (acquire rank 10 while holding 30), self-nesting, and a member that no
# ranked declaration resolves. Line numbers pin the token-level lock-site
# scanner: a shifted declaration or lock site fails this oracle.
expect_lint(lock_order_violation.cc 1
"lock_order_violation.cc:8: lock-order: pdpa::Mutex 'bare' declared without PDPA_LOCK_RANK(n); every mutex states its position in the lock hierarchy (DESIGN.md §8)
lock_order_violation.cc:9: lock-order: PDPA_LOCK_RANK(30) already used by 'high' (lock_order_violation.cc:7); ranks are unique per mutex
lock_order_violation.cc:15: lock-order: acquiring 'low' (rank 10) while holding 'high' (rank 30); ranks must strictly increase along every acquisition chain (DESIGN.md §8)
lock_order_violation.cc:21: lock-order: acquiring 'low' (rank 10) while holding 'low' (rank 10); ranks must strictly increase along every acquisition chain (DESIGN.md §8)
lock_order_violation.cc:25: lock-order: cannot resolve mutex member 'phantom' to a PDPA_LOCK_RANK declaration (is the declaring file outside the lint set?)
")

# Negative twin: strictly increasing chains, sequential (non-nested)
# acquisitions, and a justified // lint: lock-order-ok suppression.
expect_lint(lock_order_clean.cc 0 "")

# Determinism-taint rule: address-of / this / thread-id reaching derived
# sinks, pointer-keyed ordered and unordered containers, std::hash over a
# pointer type.
expect_lint(ptr_taint_violation.cc 1
"ptr_taint_violation.cc:8: ptr-taint: address-of expression reaches deterministic sink 'Field' (pointer values are run-dependent; emit a stable id)
ptr_taint_violation.cc:9: ptr-taint: 'this' reaches deterministic sink 'Emit' (pointer values are run-dependent; emit a stable id)
ptr_taint_violation.cc:10: ptr-taint: thread id reaches deterministic sink 'AppendInt' (thread ids are run-dependent; use the worker index)
ptr_taint_violation.cc:13: ptr-taint: pointer-keyed 'map': pointer keys order/hash by address (run-dependent; key by a stable id)
ptr_taint_violation.cc:14: ptr-taint: pointer-keyed 'set': pointer keys order/hash by address (run-dependent; key by a stable id)
ptr_taint_violation.cc:15: ptr-taint: std::hash over a pointer type is run-dependent (hash a stable id instead)
")

# Negative twin: stable ids through sinks, Append* destination out-params,
# binary '&', pointer VALUES in containers (only keys are findings), and a
# justified // lint: ptr-taint-ok suppression.
expect_lint(ptr_taint_clean.cc 0 "")

# Layer rules need their own root: the layering/ subtree carries its own
# layers.txt ("c d" < "b" < "a") plus a seeded upward include (b -> a), a
# seeded same-layer cycle (c <-> d), and an unassigned directory (e).
# The upward include also closes a directory cycle a -> b -> a — both
# findings are correct and both are pinned.
execute_process(
  COMMAND ${LINT} --root ${FIXTURES}/layering ${FIXTURES}/layering/src
          --layers ${FIXTURES}/layering/layers.txt --today 2026-01-01
  RESULT_VARIABLE exit_code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
set(layering_want
"src/a/a.h:5: layer-cycle: #include cycle across src/ directories: src/a -> src/b -> src/a
src/b/b.h:5: layer-up: #include \"src/a/a.h\" reaches up from layer 1 (src/b) to layer 2 (src/a); dependencies must point downward in the architecture DAG (layers.txt)
src/c/c.h:6: layer-cycle: #include cycle across src/ directories: src/c -> src/d -> src/c
src/e/e.h:1: layer-up: directory 'src/e' has no layer in layers.txt; add it to the architecture DAG before depending on it
")
if(NOT exit_code EQUAL 1)
  message(SEND_ERROR "layering: exit ${exit_code}, want 1\n${stdout}${stderr}")
elseif(NOT stdout STREQUAL layering_want)
  message(SEND_ERROR "layering: output mismatch\n--- got ---\n${stdout}--- want ---\n${layering_want}")
endif()

# In-date waiver absorbs the direct-io findings; the expired float-eq waiver
# lets its finding surface (with a stderr note, not checked byte-for-byte).
expect_lint(waived_file.cc 1
"waived_file.cc:10: float-eq: '==' against a floating-point literal (use NearlyEqual from src/common/stats.h)
" --waivers ${FIXTURES}/fixture_waivers.txt)

# CLI contract: unknown flags and bad values are usage errors (exit 2).
execute_process(COMMAND ${LINT} --no-such-flag RESULT_VARIABLE exit_code
                OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT exit_code EQUAL 2 OR NOT stderr MATCHES "unknown flag")
  message(SEND_ERROR "unknown flag: exit ${exit_code}, stderr: ${stderr}")
endif()

execute_process(COMMAND ${LINT} --today not-a-date ${FIXTURES}/clean_file.cc
                RESULT_VARIABLE exit_code OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT exit_code EQUAL 2 OR NOT stderr MATCHES "bad --today")
  message(SEND_ERROR "bad --today: exit ${exit_code}, stderr: ${stderr}")
endif()

# --treat_as takes src or tools; any other scope is a usage error.
execute_process(COMMAND ${LINT} --treat_as bench ${FIXTURES}/wall_clock_violation.cc
                RESULT_VARIABLE exit_code OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT exit_code EQUAL 2 OR NOT stderr MATCHES "bad --treat_as bench .want src.tools.")
  message(SEND_ERROR "--treat_as bench: exit ${exit_code}, stderr: ${stderr}")
endif()

execute_process(COMMAND ${LINT} ${FIXTURES}/does_not_exist.cc
                RESULT_VARIABLE exit_code OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT exit_code EQUAL 2 OR NOT stderr MATCHES "no such file")
  message(SEND_ERROR "missing input: exit ${exit_code}, stderr: ${stderr}")
endif()

execute_process(COMMAND ${LINT} --list_rules RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE stdout ERROR_QUIET)
if(NOT exit_code EQUAL 0 OR NOT stdout MATCHES "wall-clock" OR NOT stdout MATCHES "unordered-iter"
   OR NOT stdout MATCHES "float-eq" OR NOT stdout MATCHES "direct-io"
   OR NOT stdout MATCHES "stream-flush" OR NOT stdout MATCHES "layer-cycle/layer-up"
   OR NOT stdout MATCHES "lock-order" OR NOT stdout MATCHES "ptr-taint")
  message(SEND_ERROR "--list_rules: exit ${exit_code}\n${stdout}")
endif()
# Exact rule count: adding or dropping a rule must update this oracle.
# (Strip semicolons first — they would split the matches into list items.)
string(REPLACE ";" "," rules_no_semi "${stdout}")
string(REGEX MATCHALL "[^\n]+\n" rule_lines "${rules_no_semi}")
list(LENGTH rule_lines rule_count)
if(NOT rule_count EQUAL 8)
  message(SEND_ERROR "--list_rules: ${rule_count} rules listed, want 8\n${stdout}")
endif()

# JSON report: well-shaped, counts waived vs unwaived.
execute_process(
  COMMAND ${LINT} --root ${FIXTURES} ${FIXTURES}/waived_file.cc --treat_as src
          --today 2026-01-01 --waivers ${FIXTURES}/fixture_waivers.txt --json -
  RESULT_VARIABLE exit_code OUTPUT_VARIABLE stdout ERROR_QUIET)
if(NOT exit_code EQUAL 1
   OR NOT stdout MATCHES "\"summary\": {\"total\": 3, \"unwaived\": 1, \"waived\": 2}")
  message(SEND_ERROR "json report: exit ${exit_code}\n${stdout}")
endif()
# v2 report: carries the rule catalog so downstream consumers (the CI
# artifact) can render findings without a copy of the linter.
if(NOT stdout MATCHES "\"version\": 2" OR NOT stdout MATCHES "\"rules\": \\["
   OR NOT stdout MATCHES "\"id\": \"ptr-taint\"")
  message(SEND_ERROR "json report: missing v2 rule catalog\n${stdout}")
endif()

# message(SEND_ERROR) above makes cmake -P exit non-zero; reaching this line
# cleanly means every check passed.
message(STATUS "lint fixture checks done")
