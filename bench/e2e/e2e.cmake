# Adds the end-to-end benchmark binary to the root SimMR project, so it is
# built with the project's own settings rather than by a second project.
# Configure the repository root with this file as the project include hook
# and build the one target:
#
#   cmake -S . -B .bench_build/e2e -G Ninja -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_simmr_INCLUDE=$PWD/bench/e2e/e2e.cmake
#   cmake --build .bench_build/e2e --target simmr_bench_e2e
#   ctest --test-dir .bench_build/e2e -R bench_e2e_smoke
#
# project() includes this file before the root CMakeLists.txt sets the
# language standard, build type, warning flags and options, so the targets
# are added by a deferred call that runs after the root file: they take the
# same settings as every other target. The binary lands in bench-e2e/ of
# the build tree, never in bench/, where run_benches.sh runs every
# executable.
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(FATAL_ERROR "bench/e2e needs CMake 3.19 or newer")
endif()

set(SIMMR_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})

function(simmr_e2e_targets)
  add_executable(simmr_bench_e2e
    ${SIMMR_E2E_DIR}/common.cpp
    ${SIMMR_E2E_DIR}/main.cpp
    ${SIMMR_E2E_DIR}/spans.cpp
    ${SIMMR_E2E_DIR}/wl_record.cpp
    ${SIMMR_E2E_DIR}/wl_sweep.cpp
    ${SIMMR_E2E_DIR}/wl_validate.cpp
    ${SIMMR_E2E_DIR}/wl_whatif.cpp
  )
  target_link_libraries(simmr_bench_e2e PRIVATE
    simcore obs fault cluster trace mumak core sched backend analysis)
  set_target_properties(simmr_bench_e2e PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench-e2e)
  # The build fingerprint every run prints: the effective build type (the
  # root's default when none was given), compiler and profiler hooks.
  target_compile_definitions(simmr_bench_e2e PRIVATE
    SIMMR_E2E_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    SIMMR_E2E_COMPILER="${CMAKE_CXX_COMPILER_ID}-${CMAKE_CXX_COMPILER_VERSION}"
    SIMMR_E2E_PROFILER=$<IF:$<BOOL:${SIMMR_PROFILER}>,1,0>)
  add_test(NAME bench_e2e_smoke
           COMMAND python3 ${SIMMR_E2E_DIR}/smoke.py
                   $<TARGET_FILE:simmr_bench_e2e>
                   ${CMAKE_BINARY_DIR}/bench-e2e/smoke)
endfunction()

cmake_language(DEFER CALL simmr_e2e_targets)
