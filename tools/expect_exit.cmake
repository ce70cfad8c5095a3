# Runs EXE with the whitespace-separated ARGS and fails unless it exits with
# code EXPECT:
#
#   cmake -DEXE=duet_cli "-DARGS=verify --no-such-flag" -DEXPECT=2 \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got ${code}: ${EXE} ${ARGS}")
endif()
