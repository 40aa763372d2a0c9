# ctest driver for the paper-figure golden file. Invoked as
#   cmake -DFIGURES=<pdpa_figures> -DGOLDEN=<tests/golden/figures.txt>
#         -DWORKDIR=<scratch> -P figures_golden.cmake
# Runs every row from an empty working directory, byte-compares stdout with
# the golden file, and checks that the run left no files behind.

if(NOT FIGURES OR NOT GOLDEN OR NOT WORKDIR)
  message(FATAL_ERROR
          "usage: cmake -DFIGURES=... -DGOLDEN=... -DWORKDIR=... -P figures_golden.cmake")
endif()
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(COMMAND ${FIGURES}
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "pdpa_figures: exit ${exit_code}\n${stderr}")
endif()

file(GLOB leftovers ${WORKDIR}/*)
if(leftovers)
  message(SEND_ERROR "pdpa_figures wrote files into its working directory: ${leftovers}")
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${WORKDIR}/figures.actual.txt "${actual}")
  message(FATAL_ERROR "pdpa_figures output differs from ${GOLDEN}; see\n"
                      "  diff ${GOLDEN} ${WORKDIR}/figures.actual.txt")
endif()
