# Build hook for bench_e2e, loaded into the root project through
#   cmake -S . -B build-bench -DCMAKE_PROJECT_INCLUDE=bench/e2e/targets.cmake
# (bench/e2e/run.sh does this). Including the root project keeps its compile
# flags and its CMAKE_SOURCE_DIR, which the src/ include paths rely on, while
# the benchmark's target lives only in this directory.
#
# CMAKE_PROJECT_INCLUDE runs right after project(), before src/ defines the
# sqos_* libraries, so the target is created in a deferred call at the end of
# the root directory. add_subdirectory() is refused there, but add_executable
# and target_link_libraries are not.
set(SQOS_BENCH_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(sqos_bench_e2e_targets)
  add_executable(bench_e2e "${SQOS_BENCH_E2E_DIR}/bench_e2e.cpp")
  target_link_libraries(bench_e2e PRIVATE sqos_exp sqos_stats sqos_warnings)
endfunction()

cmake_language(DEFER CALL sqos_bench_e2e_targets)
